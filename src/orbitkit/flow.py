"""Controlled-flow engine: integrate sums of family members driven by
piecewise-constant controls, with existence-radius guards and variational
(first-order sensitivity) co-integration.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair.  Control
piece boundaries are hard restart points: the right-hand side is smooth in
the state but discontinuous in time exactly there, so no step ever straddles
a boundary.  The combination ``sum_a u_a(t) X_a(x)`` is evaluated lazily over
the support of the active piece only; bang-bang controls therefore cost one
field evaluation per stage regardless of family size.

The stepper advances a stack of rows stored back to back: a single
trajectory is the one-row case.  Each row is a point, optionally followed by
the variational matrix (single trajectories) or by one tangent vector
transported by the linearised flow.  All rows share one step sequence, sized
by the worst row, and every row is checked against the working region.
:meth:`FlowWord.lockstep` runs a word over many start points this way, with
one batched field evaluation per stage.
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
    between pieces mean the zero control.  ``interval`` is the declared time
    window; ``None`` stands for the whole real line (the natural window for
    bang-bang parameters, which vanish outside a finite span anyway).
    """

    pieces: tuple[tuple[float, float, L1Coefficients], ...]
    interval: tuple[float, float] | None = None

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
        if self.interval is not None:
            lo, hi = self.interval
            if ps and (ps[0][0] < lo - 1e-15 or ps[-1][1] > hi + 1e-15):
                raise InvalidArgument("pieces exceed declared interval")

    @property
    def sup_norm(self) -> float:
        """Largest instantaneous coefficient mass (the constant c of the guards)."""
        return max((c.norm1 for _, _, c in self.pieces), default=0.0)

    @property
    def l1_norm(self) -> float:
        return sum((b - a) * c.norm1 for a, b, c in self.pieces)

    def boundaries(self) -> list[float]:
        ts: list[float] = []
        for a, b, _ in self.pieces:
            ts.append(a)
            ts.append(b)
        return sorted(set(ts))

    def piece_at(self, t: float) -> L1Coefficients | None:
        for a, b, c in self.pieces:
            if a <= t < b:
                return c
        return None


def constant_control(coefficients: L1Coefficients, t_start: float, t_end: float,
                     interval: tuple[float, float] | None = None) -> Control:
    return Control(pieces=((t_start, t_end, coefficients),), interval=interval)


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the flow-existence guard.

    ``margin = min(r/(k c), T') - T0``; the guard is satisfied exactly when
    the margin is positive (the time bound is strict) and the doubled ball
    around the start point fits in the working region, which is how ``r`` is
    chosen in the first place.  ``unsafe`` records an override given to
    :meth:`enforce`.
    """

    r: float
    k: float
    c: float
    T_prime: float
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


def guard(lb: LbRecord, x: np.ndarray, c: float, T0: float,
          t_prime: float = math.inf) -> ExistenceCertificate:
    """The one existence/smallness guard: flows driven with coefficient mass
    at most ``c`` from ``x`` stay defined for times below ``min(r/(k c), T')``.

    A composition along tau is the case ``c = 1, T0 = norm1(tau)``, where
    the bound reads ``norm1(tau) < r/k``.
    """
    r = existence_radius(lb, np.asarray(x, dtype=float))
    k = lb.bound_k
    time_bound = math.inf if c == 0.0 else r / (k * c)
    margin = min(time_bound, t_prime) - T0
    return ExistenceCertificate(r=r, k=k, c=c, T_prime=t_prime, T0=T0,
                                satisfied=margin > 0, margin=margin)


def check_existence(family: FieldFamily, lb: LbRecord, u: Control, x0: np.ndarray,
                    T0: float, t0: float = 0.0) -> ExistenceCertificate:
    """Pure guard predicate; no integration happens here."""
    if u.interval is None:
        t_prime = math.inf
    else:
        lo, hi = u.interval
        t_prime = min(t0 - lo, hi - t0)
    return guard(lb, x0, u.sup_norm, T0, t_prime)


@dataclass(frozen=True)
class FlowResult:
    """Endpoint of a flow with its cost and the guard it enforced.

    ``endpoint_variational`` is the first-derivative matrix of the endpoint
    map with respect to the start point (``None`` without variational
    data); ``certificate`` is ``None`` for an unguarded flow.
    """

    endpoint: np.ndarray
    endpoint_variational: np.ndarray | None
    steps_taken: int
    est_local_error: float
    certificate: ExistenceCertificate | None = None


class _Rhs:
    """Right-hand side ``sum_a w_a X_a`` for one control piece, over a stack
    of rows stored back to back.  Each row is a point followed by what it
    carries: nothing, the variational matrix of ``V' = (sum_a w_a DX_a) V``
    (``carry="variational"``, one row only) or a tangent vector of
    ``w' = (sum_a w_a DX_a) w`` (``carry="tangent"``).  A single row is
    evaluated point by point, which is faster than a one-row batch; more
    rows go through each member's ``eval_many``.  Autonomous: it reads the
    state only."""

    __slots__ = ("pairs", "carry", "dim", "width")

    def __init__(self, members, weights, dim: int, carry: str | None = None):
        self.pairs = tuple(zip(members, weights))
        self.carry = carry
        self.dim = dim
        self.width = dim + {None: 0, "tangent": dim, "variational": dim * dim}[carry]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.zeros(y.size)
        if y.size == self.width:
            x = y[:d]
            for m, w in self.pairs:
                out[:d] += w * m(x)
            if self.carry == "variational":
                J = np.zeros((d, d))
                for m, w in self.pairs:
                    J += w * m.jacobian(x)
                out[d:] = (J @ y[d:].reshape(d, d)).ravel()
            elif self.carry == "tangent":
                # finite_difference_jvp of one row, in scalars: a third of
                # its cost on a one-row stack
                v = y[d:]
                nv = float(np.linalg.norm(v))
                h = FD_STEP_1 * (1.0 + float(np.linalg.norm(x)))
                for m, w in self.pairs:
                    if m.has_analytic_jacobian:
                        out[d:] += w * (m.jacobian(x) @ v)
                    elif nv > 0.0:
                        shift = h * (v / nv)
                        out[d:] += w * nv * (m(x + shift) - m(x - shift)) / (2.0 * h)
            return out
        Y, O = y.reshape(-1, self.width), out.reshape(-1, self.width)
        for m, w in self.pairs:
            O[:, :d] += w * m.eval_many(Y[:, :d])
        if self.carry == "tangent":
            for m, w in self.pairs:
                O[:, d:] += w * _derivative_along(m, Y[:, :d], Y[:, d:])
        return out


def _derivative_along(m: VectorField, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``DX(x) w`` at each row of x: from the monomial table's derivative,
    from the analytic Jacobian, or by one central difference along w, which
    takes two evaluations where a finite-difference Jacobian takes 2d."""
    if m.table is not None:
        return (m.table.derivative.eval_many(x) @ w[:, :, None])[:, :, 0]
    if m.has_analytic_jacobian:
        return np.stack([m.jacobian(p) @ q for p, q in zip(x, w)])
    return finite_difference_jvp(m, x, w)


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


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidArgument(f"tol must be positive and finite, not {tol!r}")


def _flow(x0: np.ndarray, t0: float, segments, with_var: bool, tol: float,
          region: Ball, certificate: ExistenceCertificate | None) -> FlowResult:
    """The one integration core behind :func:`flow_control` and
    :func:`flow_single`: one trajectory, the one-row case of the stepper.

    ``segments`` are consecutive ``(t_end, rhs)`` pieces starting at ``t0``;
    ``rhs=None`` is the zero control, over which the state is stationary.
    A flow without segments returns its start point without stepping.
    """
    _check_tol(tol)
    dim = x0.size
    if segments:
        _check_region(region, x0, 1, dim, t0, "start point outside the working region")
    y = x0.copy()
    if with_var:
        y = np.concatenate([y, np.eye(dim).ravel()])
    stats = {"steps": 0, "err": 0.0}
    a = t0
    for b, rhs in segments:
        if rhs is not None:
            y = _integrate_segment(rhs, a, b, y, 1, dim, tol, region, stats)
        a = b
    return FlowResult(endpoint=y[:dim].copy(),
                      endpoint_variational=y[dim:].reshape(dim, dim) if with_var else None,
                      steps_taken=stats["steps"], est_local_error=stats["err"],
                      certificate=certificate)


def flow_control(family: FieldFamily, u: Control, x0: np.ndarray, t0: float, T0: float,
                 with_variational: bool = False, tol: float = DEFAULT_TOL,
                 lb: LbRecord | None = None, unsafe: bool = False,
                 region: Ball | None = None) -> FlowResult:
    """Integrate the controlled combination of family members from t0 over T0.

    When ``lb`` is given, the existence guard is enforced before integration
    (``unsafe=True`` overrides it, recorded on the certificate) and the
    trajectory is confined to ``lb.region``; otherwise it is confined to the
    family's common domain.  ``T0`` may be negative for backward integration.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = family.space.dimension
    if x0.size != dim:
        raise ValueError("start point dimension mismatch")

    certificate = None
    if lb is not None:
        certificate = check_existence(family, lb, u, x0, abs(T0), t0=t0).enforce(unsafe)
    work_region = region if region is not None else (lb.region if lb is not None else family.common_domain)

    t_end = t0 + T0
    direction = 1.0 if T0 >= 0 else -1.0
    cuts = [t0] + [b for b in u.boundaries() if (t0 - b) * direction < 0 and (t_end - b) * direction > 0]
    cuts = sorted(set(cuts + [t_end]), reverse=(direction < 0))
    segments = []
    for a, b in zip(cuts, cuts[1:]):
        coeff = u.piece_at(0.5 * (a + b))
        rhs = None
        if coeff is not None and coeff.entries:
            rhs = _Rhs([family.members[i] for i in coeff.support],
                       [v for _, v in coeff.entries], dim,
                       "variational" if with_variational else None)
        segments.append((b, rhs))
    return _flow(x0, t0, segments, with_variational, tol, work_region, certificate)


def flow_single(X: VectorField, x0: np.ndarray, t: float, tol: float = DEFAULT_TOL,
                with_variational: bool = False, region: Ball | None = None) -> FlowResult:
    """Flow of a single field for a signed time.

    Negative ``t`` integrates backwards; ``t == 0`` returns the start point
    (and an exact identity variational matrix) without stepping.
    """
    x0 = np.asarray(x0, dtype=float)
    carry = "variational" if with_variational else None
    segments = [(t, _Rhs((X,), (1.0,), x0.size, carry))] if t else []
    return _flow(x0, 0.0, segments, with_variational, tol,
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
             region: Ball | None = None, with_variational: bool = False):
        """The one word runner: flow ``members[i]`` for ``t`` per letter and
        yield ``(point, M)`` after each, ``M`` being the variational matrix of
        the word prefix (``None`` without ``with_variational``)."""
        y = np.asarray(x, dtype=float)
        M = np.eye(y.size) if with_variational else None
        for idx, t in self.letters:
            res = flow_single(members[idx], y, t, tol=tol,
                              with_variational=with_variational, region=region)
            y = res.endpoint
            if with_variational:
                M = res.endpoint_variational @ M
            yield y, M

    def lockstep(self, members, points: np.ndarray, tangents: np.ndarray | None = None,
                 tol: float = DEFAULT_TOL, region: Ball | None = None):
        """The word over a stack of start points ``(N, d)`` in lockstep: each
        letter is one DP 5(4) run over all rows, which share its step
        sequence.  With ``tangents`` ``(N, d)``, row i carries a tangent
        vector through the linearised flow and ends as the derivative of the
        word at ``points[i]`` applied to ``tangents[i]``.  Returns the end
        points and the carried tangents (``None`` without).  A row that
        leaves the region (each letter's member domain when ``region`` is
        ``None``) raises :class:`LeftDomain`."""
        _check_tol(tol)
        X = np.asarray(points, dtype=float)
        rows, dim = X.shape
        carry = None if tangents is None else "tangent"
        y = X.ravel() if tangents is None else np.concatenate([X, tangents], axis=1).ravel()
        stats = {"steps": 0, "err": 0.0}
        for idx, t in self.letters:
            if t:
                m = members[idx]
                where = region if region is not None else m.domain
                _check_region(where, y, rows, dim, 0.0, "start point outside the working region")
                y = _integrate_segment(_Rhs((m,), (1.0,), dim, carry), 0.0, t, y, rows, dim,
                                       tol, where, stats)
        Y = y.reshape(rows, -1)
        return Y[:, :dim].copy(), (None if tangents is None else Y[:, dim:].copy())

    def apply(self, family: FieldFamily, x: np.ndarray, tol: float = DEFAULT_TOL,
              region: Ball | None = None) -> np.ndarray:
        return self._last_leg(family, x, tol, region, False)[0]

    def apply_with_variational(self, family: FieldFamily, x: np.ndarray,
                               tol: float = DEFAULT_TOL,
                               region: Ball | None = None) -> tuple[np.ndarray, np.ndarray]:
        return self._last_leg(family, x, tol, region, True)

    def _last_leg(self, family, x, tol, region, with_variational):
        y = np.asarray(x, dtype=float)
        last = (y, np.eye(y.size) if with_variational else None)
        for last in self.legs(family.members, y, tol, region, with_variational):
            pass
        return last
