"""Ambient chart model and l1 coefficient arithmetic.

A :class:`ChartSpace` is a coordinate space standing for an open set of a
Banach space: plain R^n, or the first ``dimension`` coordinates of a summable
sequence space when ``truncation_of_l1`` is set.  All radius and ball
computations downstream use the chart's ``norm_kind``.

:class:`L1Coefficients` is a finitely supported coefficient family with an
explicit non-negative tail bound, so that countable parameter families can be
handled losslessly at desk scale: the stored entries are the retained support
and the tail bound dominates everything that was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InvalidArgument

NORM_KINDS = ("sup", "euclidean", "l1")


def vector_norm(v: np.ndarray, kind: str) -> float:
    """Norm of a coordinate vector under one of the supported norm kinds."""
    v = np.asarray(v, dtype=float)
    if kind == "euclidean":
        return float(np.linalg.norm(v))
    if kind == "l1":
        return float(np.sum(np.abs(v)))
    if kind == "sup":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise InvalidArgument(f"unknown norm kind {kind!r}")


def _row_norms(v: np.ndarray, kind: str) -> np.ndarray:
    """:func:`vector_norm` of each row of ``v``, bit for bit."""
    if kind == "euclidean":
        # row-wise dot products round like np.linalg.norm of each row
        return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if kind == "l1":
        return np.sum(np.abs(v), axis=-1)
    return np.max(np.abs(v), axis=-1)


def operator_norm(m: np.ndarray, kind: str) -> float | np.ndarray:
    """Exact induced operator norm of a matrix for the supported norms.

    A stack ``(..., n, n)`` gives the array of its matrices' norms, of shape
    ``(...)``, in one batched call; a single matrix gives a float.
    """
    m = np.asarray(m, dtype=float)
    if kind not in NORM_KINDS:
        raise InvalidArgument(f"unknown norm kind {kind!r}")
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        out = np.zeros(m.shape[:-2])
    elif kind == "euclidean":
        # largest singular value
        out = np.linalg.svd(m, compute_uv=False)[..., 0]
    elif kind == "l1":
        # induced by the l1 vector norm: max absolute column sum
        out = np.max(np.sum(np.abs(m), axis=-2), axis=-1)
    else:
        out = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    return float(out) if m.ndim == 2 else out


@dataclass(frozen=True)
class ChartSpace:
    """A coordinate chart of dimension ``dimension``.

    ``norm_kind`` defaults to ``l1`` when the chart is flagged as a
    truncation of a summable sequence space and to ``euclidean`` otherwise,
    matching the model space of each builtin family.
    """

    dimension: int
    norm_kind: str | None = None
    truncation_of_l1: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidArgument("dimension must be >= 1")
        if self.norm_kind is None:
            kind = "l1" if self.truncation_of_l1 else "euclidean"
            object.__setattr__(self, "norm_kind", kind)
        elif self.norm_kind not in NORM_KINDS:
            raise InvalidArgument(f"unknown norm kind {self.norm_kind!r}")

    def norm(self, v: np.ndarray) -> float:
        return vector_norm(v, self.norm_kind)

    def unit_vector(self, rng: np.random.Generator) -> np.ndarray:
        """A random vector of norm 1 under this chart's norm."""
        return self.unit_vectors(rng, 1)[0]

    def unit_vectors(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` random unit vectors as the rows of one array.

        The rows come from one ``standard_normal`` call, which reads the
        stream exactly as ``count`` successive :meth:`unit_vector` draws do.
        """
        v = rng.standard_normal((count, self.dimension))
        n = _row_norms(v, self.norm_kind)
        bad = n < 1e-12
        while bad.any():  # essentially never
            v[bad] = rng.standard_normal((int(bad.sum()), self.dimension))
            n[bad] = _row_norms(v[bad], self.norm_kind)
            bad = n < 1e-12
        return v / n[:, None]


@dataclass(frozen=True)
class Ball:
    """A norm ball used as working region / domain throughout the toolkit."""

    center: np.ndarray
    radius: float
    norm_kind: str

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if not 0 < self.radius < np.inf:
            raise InvalidArgument("radius must be positive and finite")
        if self.norm_kind not in NORM_KINDS:
            raise InvalidArgument(f"unknown norm kind {self.norm_kind!r}")

    def contains(self, point: np.ndarray, inflate: float = 0.0) -> bool:
        d = vector_norm(np.asarray(point) - self.center, self.norm_kind)
        return d <= self.radius + inflate

    def distance_to_boundary(self, point: np.ndarray) -> float:
        """radius - ||point - center||; negative outside the ball."""
        return self.radius - vector_norm(np.asarray(point) - self.center, self.norm_kind)

    def contains_ball(self, other: "Ball") -> bool:
        d = vector_norm(other.center - self.center, self.norm_kind)
        return d + other.radius <= self.radius + 1e-12


def ball(center, radius: float, norm_kind: str = "euclidean") -> Ball:
    return Ball(np.asarray(center, dtype=float), float(radius), norm_kind)


@dataclass(frozen=True)
class L1Coefficients:
    """Finitely supported coefficients with an explicit summable tail bound.

    ``entries`` is a sorted tuple of ``(index, value)`` pairs with no
    duplicate indices and no stored zeros.  ``tail_bound`` dominates the mass
    of everything beyond the stored support (0 for exactly finite support).
    ``norm1``, the sum of absolute stored values plus the tail bound, is
    computed once on construction.
    """

    entries: tuple[tuple[int, float], ...] = ()
    tail_bound: float = 0.0
    norm1: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ent = tuple((int(i), float(v)) for i, v in self.entries)
        if any(v == 0.0 for _, v in ent):
            raise InvalidArgument("stored zero value")
        idx = [i for i, _ in ent]
        if sorted(idx) != idx or len(set(idx)) != len(idx):
            raise InvalidArgument("entries must be sorted by index with no duplicates")
        if any(i < 0 for i in idx):
            raise InvalidArgument("indices must be non-negative")
        if not self.tail_bound >= 0:
            raise InvalidArgument("tail bound must be non-negative")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "norm1", sum(abs(v) for _, v in ent) + self.tail_bound)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]], tail_bound: float = 0.0) -> "L1Coefficients":
        acc: dict[int, float] = {}
        for i, v in pairs:
            acc[int(i)] = acc.get(int(i), 0.0) + float(v)
        ent = tuple(sorted((i, v) for i, v in acc.items() if v != 0.0))
        return cls(ent, float(tail_bound))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def get(self, index: int) -> float:
        for i, v in self.entries:
            if i == index:
                return v
        return 0.0

    def truncate(self, n: int) -> tuple["L1Coefficients", float]:
        """Keep the first ``n`` entries in index order.

        Returns the kept coefficients (tail bound 0) and the scalar tail,
        i.e. the l1 mass of everything dropped plus the original tail bound.
        Mass is conserved: ``kept.norm1 + tail == self.norm1``.
        """
        if n < 0:
            raise InvalidArgument("n must be >= 0")
        kept = self.entries[:n]
        dropped = self.entries[n:]
        tail = sum(abs(v) for _, v in dropped) + self.tail_bound
        return L1Coefficients(kept, 0.0), tail

    def combine(self, other: "L1Coefficients", a: float = 1.0, b: float = 1.0) -> "L1Coefficients":
        """a*self + b*other on the merged support (tail bounds add likewise)."""
        acc: dict[int, float] = {}
        for i, v in self.entries:
            acc[i] = acc.get(i, 0.0) + a * v
        for i, v in other.entries:
            acc[i] = acc.get(i, 0.0) + b * v
        ent = tuple(sorted((i, v) for i, v in acc.items() if v != 0.0))
        return L1Coefficients(ent, abs(a) * self.tail_bound + abs(b) * other.tail_bound)

    def scaled(self, a: float) -> "L1Coefficients":
        """a*self; values that underflow to zero are dropped, as in :meth:`combine`."""
        return L1Coefficients(tuple((i, a * v) for i, v in self.entries if a * v != 0.0),
                              abs(a) * self.tail_bound)
