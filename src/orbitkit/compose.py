"""The l1 composition engine.

Turns a summable coefficient family tau into a bang-bang control that walks
the indexed fields one at a time, integrates the resulting flow to realize
the limit composition and its inverse, and differentiates the parameter-to-
endpoint chart map by accumulating variational matrices along the word.
:func:`extract_l1_curve` replays a realized word as a sampled curve, in the
region the word ran in.

Tail control: dropping all legs beyond the first n moves the endpoint by at
most ``k * (dropped l1 mass)``, since each omitted leg travels at most its
duration times the field bound; the reported bound keeps a conservative
``k * exp(k * |tau|_1)`` factor on top of the dropped mass to cover any
amplification by the legs that remain (``TAIL_FACTOR_NOTE``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, TailNotSummable
from .fields import FieldFamily, LbRecord
# flow_single stays bound here so that tracing can wrap every binding of it
from .flow import (DEFAULT_TOL, Control, ExistenceCertificate, FlowWord, flow_control,  # noqa: F401
                   flow_single, guard)
from .space import Ball, L1Coefficients

TAIL_FACTOR_NOTE = "k*exp(k*norm1(tau)) times dropped l1 mass"


def _unit_speed_pieces(word) -> list[tuple[float, float, L1Coefficients]]:
    """One piece ``sign(t) e_i`` of length ``|t|`` per letter, back to back
    from 0.  A letter shorter than the float spacing at its start time ends
    where it starts, so it gets no piece: its flow would move the state by
    less than k times that spacing, far below any integration tolerance."""
    pieces = []
    t = 0.0
    for idx, val in word:
        end = t + abs(val)
        if end > t:
            pieces.append((t, end, L1Coefficients(((idx, 1.0 if val > 0 else -1.0),))))
        t = end
    return pieces


def gamma_control(tau: L1Coefficients, direction: str = "forward") -> Control:
    """The unit-speed bang-bang switching control of ``tau``.

    Forward direction: piece i occupies ``[sum_{j<i} |tau_j|, sum_{j<=i}
    |tau_j|)`` and carries the single coefficient ``sign(tau_i) e_i``.  The
    reverse direction is the forward control of the letters in reverse
    order, the time reflection ``s -> norm1(tau) - s`` of the forward one.
    Zero entries produce no pieces, nor do entries shorter than the float
    spacing at their start time; the sup norm is 1 whenever tau has
    entries, and the control's ``l1_norm`` is the total switching time.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    letters = tau.entries if direction == "forward" else tau.entries[::-1]
    return Control(pieces=tuple(_unit_speed_pieces(letters)))


@dataclass(frozen=True)
class CompositionResult:
    """Endpoint of a truncated l1 composition with its certified tail bound.

    ``word`` is the realized finite sequence of (member index, signed
    duration) in the order applied.  ``tail_error_bound`` dominates the
    distance to the untruncated limit in the chart norm.  ``certificate`` is
    the smallness guard ``norm1(tau) < r/k`` at the seed point, as enforced.
    ``family``, ``region`` (the lb region) and ``tol`` are what the word ran
    with, so that :func:`extract_l1_curve` can replay it.
    """

    endpoint: np.ndarray
    truncation_n: int
    tail_error_bound: float
    word: tuple[tuple[int, float], ...]
    seed_point: np.ndarray
    certificate: ExistenceCertificate
    family: FieldFamily = field(compare=False, repr=False)
    region: Ball
    tol: float


@dataclass(frozen=True)
class L1Curve:
    """Sampled piecewise trajectory with the switching subdivision.

    Continuity at the knots is exact by construction (each segment starts
    from the previous segment's last sample)."""

    times: np.ndarray
    points: np.ndarray
    knot_times: np.ndarray
    knot_points: np.ndarray


def _tail_factor(k: float, total_mass: float) -> float:
    return k * math.exp(k * total_mass)


def _choose_truncation(tau: L1Coefficients, factor: float, tol: float) -> int:
    """Smallest kept-entry count whose tail bound drops under tol."""
    if factor * tau.tail_bound > tol:
        raise TailNotSummable(
            f"tail bound {tau.tail_bound:.3g} keeps the composition error above tol={tol:.3g}")
    n = len(tau.entries)
    # walk back while the bound stays under tol
    running = tau.tail_bound
    while n > 0:
        running_next = running + abs(tau.entries[n - 1][1])
        if factor * running_next > tol:
            break
        running = running_next
        n -= 1
    return n


def _require_members(family: FieldFamily, coefficients: L1Coefficients) -> None:
    """Raise :class:`InvalidArgument` when an index has no family member."""
    if coefficients.entries and coefficients.entries[-1][0] >= len(family):
        raise InvalidArgument(f"index {coefficients.entries[-1][0]} has no family member "
                              f"(the family has {len(family)})")


def _plan(family: FieldFamily, lb: LbRecord, tau: L1Coefficients, x: np.ndarray, tol: float,
          truncation_n: int | None, unsafe: bool
          ) -> tuple[L1Coefficients, float, int, ExistenceCertificate]:
    """Guard, tail factor, truncation and member check shared by every
    composition.

    Returns the kept coefficients, the certified tail bound, the truncation
    level and the enforced certificate.  Every kept index must name a family
    member; entries the truncation drops may lie beyond the family, as in a
    countable family's tail.
    """
    cert = guard(lb, x, 1.0, tau.norm1).enforce(unsafe)
    factor = _tail_factor(cert.k, tau.norm1)
    if truncation_n is None:
        truncation_n = _choose_truncation(tau, factor, tol)
    kept, tail = tau.truncate(truncation_n)
    _require_members(family, kept)
    return kept, factor * tail, truncation_n, cert


def _run_word(family: FieldFamily, lb: LbRecord, word, x, tol, path) -> np.ndarray:
    """Endpoint of ``word`` from x: one bang-bang control flow (``"control"``)
    or one single-field flow per letter (``"sequential"``)."""
    if path not in ("control", "sequential"):
        raise InvalidArgument("path must be 'control' or 'sequential'")
    if not word:
        return np.asarray(x, dtype=float).copy()
    if path == "sequential":
        return FlowWord(word).apply(family, x, tol=tol, region=lb.region)
    control = Control(pieces=tuple(_unit_speed_pieces(word)))
    return flow_control(family, control, x, 0.0, control.pieces[-1][1],
                        tol=tol, region=lb.region).endpoint


def compose_flows(family: FieldFamily, lb: LbRecord, tau: L1Coefficients, x: np.ndarray,
                  tol: float = DEFAULT_TOL, truncation_n: int | None = None,
                  path: str = "control", unsafe: bool = False) -> CompositionResult:
    """Realize the truncated limit composition of the family along tau.

    The truncation level is chosen so the certified tail bound falls under
    ``tol`` unless ``truncation_n`` pins it.  ``path`` selects the
    realization: ``"control"`` integrates the bang-bang control in one flow,
    ``"sequential"`` chains single-field flows; both agree to integrator
    accuracy and the second serves as a cross-check.
    """
    x = np.asarray(x, dtype=float)
    kept, bound, truncation_n, cert = _plan(family, lb, tau, x, tol, truncation_n, unsafe)
    word = kept.entries
    endpoint = _run_word(family, lb, word, x, tol, path)
    return CompositionResult(endpoint=endpoint, truncation_n=truncation_n,
                             tail_error_bound=bound, word=word, seed_point=x.copy(),
                             certificate=cert, family=family, region=lb.region, tol=tol)


def compose_inverse(family: FieldFamily, lb: LbRecord, tau: L1Coefficients, y: np.ndarray,
                    tol: float = DEFAULT_TOL, truncation_n: int | None = None,
                    path: str = "control", unsafe: bool = False) -> CompositionResult:
    """Inverse of :func:`compose_flows`: the word replayed in reverse order
    with sign-flipped durations (equivalently, the time-reflected bang-bang
    control with flipped signs)."""
    y = np.asarray(y, dtype=float)
    kept, bound, truncation_n, cert = _plan(family, lb, tau, y, tol, truncation_n, unsafe)
    word = FlowWord(kept.entries).inverse().letters
    endpoint = _run_word(family, lb, word, y, tol, path)
    return CompositionResult(endpoint=endpoint, truncation_n=truncation_n,
                             tail_error_bound=bound, word=word, seed_point=y.copy(),
                             certificate=cert, family=family, region=lb.region, tol=tol)


def psi_chart(family: FieldFamily, lb: LbRecord, x: np.ndarray, tau: L1Coefficients,
              tol: float = DEFAULT_TOL, unsafe: bool = False) -> np.ndarray:
    """The parameter-to-endpoint chart map at x."""
    return compose_flows(family, lb, tau, x, tol=tol, unsafe=unsafe).endpoint


def d_psi(family: FieldFamily, lb: LbRecord, x: np.ndarray, tau: L1Coefficients,
          sigma: L1Coefficients, tol: float = DEFAULT_TOL,
          unsafe: bool = False) -> np.ndarray:
    """Directional derivative of the chart map at tau along sigma.

    Walks the merged support in index order, accumulating the prefix
    variational matrices P_p of the word (indices only in sigma are
    zero-duration letters).  Each sigma term contributes
    ``sigma_p * P_p^{-1} X_p(x_p)`` (the backward-transported field value at
    the prefix endpoint) and the sum is pushed forward through the full-word
    variational matrix.  At tau = 0 every prefix matrix is exactly the
    identity and the result is the plain coefficient combination of the
    fields at x.

    Only tau is subject to the smallness guard: sigma is the direction of a
    linear differential, so its magnitude scales the output rather than
    conditioning validity.
    """
    x = np.asarray(x, dtype=float)
    kept, _, _, _ = _plan(family, lb, tau, x, tol, None, unsafe)
    _require_members(family, sigma)
    tau_map = dict(kept.entries)
    word = FlowWord(tuple((i, tau_map.get(i, 0.0))
                          for i in sorted(set(tau_map) | set(sigma.support))))
    P = np.eye(x.size)
    acc = np.zeros(x.size)
    legs = word.legs(family.members, x, tol, lb.region, tangents=P)
    for (idx, _), (x_cur, P) in zip(word.letters, legs):
        s = sigma.get(idx)
        if s != 0.0:
            acc += s * np.linalg.solve(P, family.members[idx](x_cur))
    return P @ acc


def extract_l1_curve(result: CompositionResult, samples_per_piece: int) -> L1Curve:
    """Replay the realized word as a sampled piecewise trajectory, each
    letter cut into ``samples_per_piece`` legs, in the region and at the
    tolerance the word ran with.

    The subdivision knots are the cumulative absolute durations.
    """
    if samples_per_piece < 1:
        raise InvalidArgument("samples_per_piece must be >= 1")
    x = result.seed_point
    letters = []
    times = [0.0]
    t_base = 0.0
    for idx, dur in result.word:
        sub = np.linspace(0.0, dur, samples_per_piece + 1)
        letters.extend((idx, b - a) for a, b in zip(sub, sub[1:]))
        times.extend(t_base + abs(s) for s in sub[1:])
        t_base += abs(dur)
    legs = FlowWord(letters).legs(result.family.members, x, result.tol, result.region)
    points = np.asarray([x.copy()] + [y for y, _ in legs])
    times = np.asarray(times)
    return L1Curve(times=times, points=points, knot_times=times[::samples_per_piece],
                   knot_points=points[::samples_per_piece])
