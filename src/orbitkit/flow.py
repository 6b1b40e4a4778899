"""Controlled-flow engine: integrate sums of family members driven by
piecewise-constant controls, with existence-radius guards and tangent
vectors (first-order sensitivities) co-integrated on demand.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair.
:func:`flow_control` integrates each piece of a :class:`Control`, clipped
to the run, as its own segment: the right-hand side is smooth in the state
but discontinuous in time at piece boundaries, so no step ever straddles
one, and the state rests over the gaps between pieces.  The combination
``sum_a u_a(t) X_a(x)`` is evaluated lazily over the support of the active
piece only; bang-bang controls therefore cost one field evaluation per stage
regardless of family size.  :func:`guard` is the one existence guard, which
:func:`flow_control` enforces itself when given a bound record.

The stepper advances a stack of rows stored back to back: a single
trajectory is the one-row case, and :func:`flow_single` takes a stack of
start points ``(N, d)`` as well as one point.  Each row is a point followed
by ``k`` tangent columns moved by the linearised flow: none, one tangent
vector, or the d columns of a variational matrix, which is the block that
starts at the identity.  All rows share one step sequence, sized by the
worst row, and every row is checked against the working region.
:meth:`FlowWord.legs` is the one word runner: each letter is one
:func:`flow_single` call over the whole stack, and :meth:`FlowWord.end` is
its last leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainTooSmall, GuardViolated, InvalidArgument, LeftDomain, StepUnderflow
from .fields import FD_STEP_1, FieldFamily, LbRecord, VectorField, finite_difference_jvp
from .space import Ball, L1Coefficients, _row_norms

DEFAULT_TOL = 1e-9
DOMAIN_INFLATE = 1e-12

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals stage 1 of the next step,
# and its input is the fifth-order solution, since row 7 of A is the B5 row).
# The right-hand side is autonomous within a control piece, so the node
# vector c of the tableau is never needed.
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


@dataclass(frozen=True)
class Control:
    """A piecewise-constant map from time to coefficient families.

    ``pieces`` is a sorted tuple of ``(t_start, t_end, coefficients)``; gaps
    between pieces mean the zero control.
    """

    pieces: tuple[tuple[float, float, L1Coefficients], ...]

    def __post_init__(self):
        ps = tuple(sorted(((float(a), float(b), c) for a, b, c in self.pieces),
                          key=lambda p: p[0]))
        for (a, b, _) in ps:
            if not b > a:
                raise InvalidArgument("piece must have positive length")
        for (_, b, _), (a2, _, _) in zip(ps, ps[1:]):
            if a2 < b - 1e-15:
                raise InvalidArgument("pieces overlap")
        object.__setattr__(self, "pieces", ps)

    @property
    def sup_norm(self) -> float:
        """Largest instantaneous coefficient mass (the constant c of the guards)."""
        return max((c.norm1 for _, _, c in self.pieces), default=0.0)

    @property
    def l1_norm(self) -> float:
        return sum((b - a) * c.norm1 for a, b, c in self.pieces)


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the flow-existence guard.

    ``margin = r/(k c) - T0``; the guard is satisfied exactly when the
    margin is positive (the time bound is strict) and the doubled ball
    around the start point fits in the working region, which is how ``r`` is
    chosen in the first place.  ``unsafe`` records an override given to
    :meth:`enforce`.
    """

    r: float
    k: float
    c: float
    T0: float
    satisfied: bool
    margin: float
    unsafe: bool = False

    def enforce(self, unsafe: bool = False) -> "ExistenceCertificate":
        """The one enforcement step: raise :class:`GuardViolated` when the
        guard fails and ``unsafe`` does not override it; otherwise return the
        certificate with ``unsafe`` recorded."""
        if not self.satisfied and not unsafe:
            raise GuardViolated(
                f"existence guard failed: margin {self.margin:.6g} "
                f"(r={self.r:.6g}, k={self.k:.6g}, c={self.c:.6g}, T0={self.T0:.6g})")
        return replace(self, unsafe=unsafe)


def existence_radius(lb: LbRecord, x0: np.ndarray) -> float:
    """Largest r with the closed ball of radius 2r around x0 inside the region."""
    slack = lb.region.distance_to_boundary(x0)
    r = slack / 2.0
    if not r > 0:
        raise DomainTooSmall("no positive existence radius at this start point")
    return r


def guard(lb: LbRecord, x: np.ndarray, c: float, T0: float) -> ExistenceCertificate:
    """The one existence/smallness guard: flows driven with coefficient mass
    at most ``c`` from ``x`` stay defined for times below ``r/(k c)``.

    A control's flow over ``|T0|`` is the case ``c = u.sup_norm``; a
    composition along tau is the case ``c = 1, T0 = norm1(tau)``, where the
    bound reads ``norm1(tau) < r/k``.  No integration happens here.
    """
    r = existence_radius(lb, np.asarray(x, dtype=float))
    k = lb.bound_k
    margin = (math.inf if c == 0.0 else r / (k * c)) - T0
    return ExistenceCertificate(r=r, k=k, c=c, T0=T0, satisfied=margin > 0, margin=margin)


@dataclass(frozen=True)
class FlowResult:
    """Endpoint of a flow with its cost and the guard it enforced.

    ``endpoint`` has the shape of the start points.  ``tangents`` are the
    given tangent columns moved by the derivative of the endpoint map, in
    the shape they were given (``None`` without); from the identity they
    are its variational matrix.  ``certificate`` is ``None`` for an
    unguarded flow.
    """

    endpoint: np.ndarray
    tangents: np.ndarray | None
    steps_taken: int
    est_local_error: float
    certificate: ExistenceCertificate | None = None


class _Rhs:
    """Right-hand side ``sum_a w_a X_a`` for one control piece, over a stack
    of rows stored back to back.  Each row is a point followed by ``k``
    tangent columns W (d×k, stored row by row) of ``W' = (sum_a w_a DX_a) W``.
    A single row is evaluated point by point, which is faster than a
    one-row batch; more rows go through each member's ``eval_many``.
    Autonomous: it reads the state only."""

    __slots__ = ("pairs", "dim", "k", "width")

    def __init__(self, pairs, dim: int, k: int):
        self.pairs = pairs
        self.dim = dim
        self.k = k
        self.width = dim * (1 + k)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        d, k = self.dim, self.k
        out = np.zeros(y.size)
        if y.size == self.width:
            x = y[:d]
            for m, w in self.pairs:
                out[:d] += w * m(x)
            if k:
                W, dW = y[d:].reshape(d, k), out[d:].reshape(d, k)
                J, h = None, None
                for m, w in self.pairs:
                    if m.table is not None:
                        J = w * m.jacobian(x) if J is None else J + w * m.jacobian(x)
                        continue
                    # finite_difference_jvp of one row per column, in
                    # scalars: a third of its cost on a one-row stack
                    if h is None:
                        h = FD_STEP_1 * (1.0 + float(np.linalg.norm(x)))
                    for j in range(k):
                        v = W[:, j]
                        nv = float(np.linalg.norm(v))
                        if nv > 0.0:
                            shift = h * (v / nv)
                            dW[:, j] += w * nv * (m(x + shift) - m(x - shift)) / (2.0 * h)
                if J is not None:
                    dW += J @ W
            return out
        Y, O = y.reshape(-1, self.width), out.reshape(-1, self.width)
        X = Y[:, :d]
        for m, w in self.pairs:
            O[:, :d] += w * m.eval_many(X)
        if k:
            W = Y[:, d:].reshape(-1, d, k)
            for m, w in self.pairs:
                O[:, d:] += w * _derivative_along(m, X, W).reshape(-1, d * k)
        return out


def _derivative_along(m: VectorField, x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``DX(x) W`` at each row of x for the blocks W (N, d, k): from the
    monomial table's derivative, or by one central difference per column,
    which takes two evaluations where a finite-difference Jacobian takes 2d."""
    if m.table is not None:
        return m.table.derivative.eval_many(x) @ W
    n, d, k = W.shape
    columns = W.transpose(0, 2, 1).reshape(n * k, d)
    dW = finite_difference_jvp(m, np.repeat(x, k, axis=0), columns)
    return dW.reshape(n, k, d).transpose(0, 2, 1)


def _check_region(region: Ball, y: np.ndarray, rows: int, dim: int, t: float, what: str) -> None:
    """Raise :class:`LeftDomain` at the first row whose point is not in the
    region (a NaN point is not in it)."""
    points = y.reshape(rows, -1)[:, :dim]
    inside = _row_norms(points - region.center, region.norm_kind) <= region.radius + DOMAIN_INFLATE
    if not inside.all():
        row = int(np.argmin(inside))
        raise LeftDomain(f"{what} at t={t}", last_point=points[row].copy(), last_time=t)


def _integrate_segment(rhs, t0: float, t1: float, y0: np.ndarray, rows: int, dim: int,
                       tol: float, region: Ball, stats: dict) -> np.ndarray:
    """Advance ``rows`` states stored back to back in ``y0`` through [t0, t1]
    (either direction) with DP 5(4) steps.

    All rows share one step sequence.  A step is accepted when every row's
    error is within that row's own scale ``tol*|h|*(1 + max|y_row|)``, and
    the step factor comes from the worst row, so one row takes exactly the
    steps of a single trajectory.  A row leaving the region raises
    :class:`LeftDomain`.
    """
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0
    y = y0
    h = direction * min(abs(span), max(abs(span) * 0.1, 1e-3))
    K = np.empty((7, y.size))
    K[0] = rhs(y)
    while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
        if abs(h) > abs(t1 - t):
            h = t1 - t
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflow(f"step size underflow at t={t}")
        hA = h * _A
        for i in range(1, 7):
            yi = y + hA[i, :i] @ K[:i]
            K[i] = rhs(yi)
        scales = tol * abs(h) * (1.0 + np.abs(y).reshape(rows, -1).max(axis=1))
        errs = np.abs(h * (_E @ K)).reshape(rows, -1).max(axis=1)
        worst = int(np.argmax(errs / scales))
        scale, err = float(scales[worst]), float(errs[worst])
        if (errs <= scales).all():
            t = t + h
            y = yi  # the stage-7 input is the fifth-order solution
            K[0] = K[6]  # FSAL
            stats["steps"] += 1
            stats["err"] += err
            _check_region(region, y, rows, dim, t, "trajectory left the working region")
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h *= grow
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
    return y


def _flow(x0: np.ndarray, segments, tangents, tol: float, region: Ball,
          certificate: ExistenceCertificate | None) -> FlowResult:
    """The one integration core behind :func:`flow_control` and
    :func:`flow_single`.  ``x0`` is one start point (d,) or a stack of them
    (N, d), each one row of the stepper.  ``tangents`` (or ``None``) holds
    the tangent columns each row carries: ``(d,)`` or ``(d, k)`` for one
    point, ``(N, d)`` or ``(N, d, k)`` for a stack.

    ``segments`` are the ``(t_start, t_end, pairs)`` runs of the flow in the
    order integrated, ``pairs`` being the ``(member, weight)`` terms of the
    run; the state is stationary between them.  A flow without segments
    returns its start points without stepping.
    """
    if not 0 < tol < math.inf:
        raise InvalidArgument(f"tol must be positive and finite, not {tol!r}")
    points = x0.reshape(-1, x0.shape[-1])
    rows, dim = points.shape
    k = 0
    if tangents is not None:
        tangents = np.asarray(tangents, dtype=float)
        if tangents.shape[:x0.ndim] != x0.shape or tangents.ndim > x0.ndim + 1:
            raise InvalidArgument("tangents must be a vector or columns per start point")
        k = tangents.size // points.size
        points = np.concatenate([points, tangents.reshape(rows, -1)], axis=1)
    if segments:
        _check_region(region, points, rows, dim, segments[0][0],
                      "start point outside the working region")
    y = points.ravel().copy()
    stats = {"steps": 0, "err": 0.0}
    for a, b, pairs in segments:
        y = _integrate_segment(_Rhs(pairs, dim, k), a, b, y, rows, dim, tol, region, stats)
    Y = y.reshape(rows, -1)
    return FlowResult(endpoint=Y[:, :dim].reshape(x0.shape),
                      tangents=None if tangents is None else Y[:, dim:].reshape(tangents.shape),
                      steps_taken=stats["steps"], est_local_error=stats["err"],
                      certificate=certificate)


def flow_control(family: FieldFamily, u: Control, x0: np.ndarray, t0: float, T0: float,
                 tangents: np.ndarray | None = None, tol: float = DEFAULT_TOL,
                 lb: LbRecord | None = None, unsafe: bool = False,
                 region: Ball | None = None) -> FlowResult:
    """Integrate the controlled combination of family members from t0 over T0.

    When ``lb`` is given, the existence guard ``guard(lb, x0, u.sup_norm,
    |T0|)`` is enforced before integration (``unsafe=True`` overrides it,
    recorded on the certificate) and the trajectory is confined to
    ``lb.region``; otherwise it is confined to the family's common domain.
    ``T0`` may be negative for backward integration.  Each piece of ``u``
    with coefficients is integrated over its part of the run, as its own
    segment, so no step straddles a switch.  ``tangents`` (a vector or d×k
    columns) are carried as in :func:`flow_single`; the identity gives the
    variational matrix.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.size != family.space.dimension:
        raise ValueError("start point dimension mismatch")

    certificate = None
    if lb is not None:
        certificate = guard(lb, x0, u.sup_norm, abs(T0)).enforce(unsafe)
    work_region = region if region is not None else (lb.region if lb is not None else family.common_domain)

    lo, hi = sorted((t0, t0 + T0))
    segments, end = [], lo
    for a, b, coeff in u.pieces:
        # a piece overlapping its predecessor by rounding starts where that ends
        a, b = max(a, end), min(b, hi)
        if a < b and coeff.entries:
            segments.append((a, b, tuple((family.members[i], v) for i, v in coeff.entries)))
        end = max(end, b)
    if T0 < 0:
        segments = [(b, a, pairs) for a, b, pairs in reversed(segments)]
    return _flow(x0, segments, tangents, tol, work_region, certificate)


def flow_single(X: VectorField, x0: np.ndarray, t: float, tol: float = DEFAULT_TOL,
                tangents: np.ndarray | None = None, region: Ball | None = None) -> FlowResult:
    """Flow of a single field for a signed time from one start point (d,),
    or from every row of a stack (N, d) in one run sharing a step sequence.

    ``tangents`` (a vector or d×k columns per start point) come back as the
    flow's derivative applied to them.  A row that leaves the region
    (``X.domain`` by default) raises :class:`LeftDomain`.  Negative ``t``
    integrates backwards; ``t == 0`` returns its input without stepping.
    """
    segments = [(0.0, t, ((X, 1.0),))] if t else []
    return _flow(np.asarray(x0, dtype=float), segments, tangents, tol,
                 region if region is not None else X.domain, None)


@dataclass(frozen=True)
class FlowWord:
    """A finite flow composition, letters applied first to last."""

    letters: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters",
                           tuple((int(i), float(t)) for i, t in self.letters))

    def inverse(self) -> "FlowWord":
        return FlowWord(tuple((i, -t) for i, t in reversed(self.letters)))

    def then(self, other: "FlowWord") -> "FlowWord":
        """Composition applying ``self`` first, then ``other``."""
        return FlowWord(self.letters + other.letters)

    def legs(self, members, x: np.ndarray, tol: float = DEFAULT_TOL,
             region: Ball | None = None, tangents: np.ndarray | None = None):
        """The one word runner: flow ``members[i]`` for ``t`` per letter,
        each letter one :func:`flow_single` call over a start point or a
        stack of them, and yield ``(points, tangents)`` after each.  The
        tangents are carried as in :func:`flow_single` (``None`` without);
        from the identity they are the variational matrix of the word
        prefix."""
        y = np.asarray(x, dtype=float)
        for idx, t in self.letters:
            res = flow_single(members[idx], y, t, tol=tol, tangents=tangents, region=region)
            y, tangents = res.endpoint, res.tangents
            yield y, tangents

    def end(self, members, x: np.ndarray, tol: float = DEFAULT_TOL,
            region: Ball | None = None, tangents: np.ndarray | None = None):
        """The last leg of :meth:`legs`, or the start points and the given
        tangents for the empty word."""
        last = (np.asarray(x, dtype=float), tangents)
        for last in self.legs(members, x, tol, region, tangents):
            pass
        return last

    def apply(self, family: FieldFamily, x: np.ndarray, tol: float = DEFAULT_TOL,
              region: Ball | None = None) -> np.ndarray:
        return self.end(family.members, x, tol, region)[0]

    def apply_with_variational(self, family: FieldFamily, x: np.ndarray,
                               tol: float = DEFAULT_TOL,
                               region: Ball | None = None) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        return self.end(family.members, x, tol, region, np.eye(x.size))
