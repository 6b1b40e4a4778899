"""Controlled-flow engine: integrate sums of family members driven by
piecewise-constant controls, with existence-radius guards and tangent
vectors (first-order sensitivities) co-integrated on demand.

A flow of an affine table (degree at most 1, a field ``A x + b``) is exact:
in homogeneous coordinates every segment is one matrix exponential of its
augmented matrix ``h [[A, b], [0, 0]]``, and all segments of a call go
through one scaling-and-squaring Taylor kernel as one stack.  A call of
one segment of one step (a :func:`flow_single` or a stacked letter,
mostly) whose rows carry at most half as many columns as the matrix sums
the series on its rows instead, with no matrix powers.  Each exact step
is split in quarters whose points meet the region check; from the
first segment with a point outside, or too long for the kernel, the flow
runs on the stepper.  Every other flow runs on the stepper.

The stepper is an adaptive embedded Dormand-Prince 5(4) pair.  The
first trial step of each segment is the whole segment, and the error
estimate sizes the steps after it; a trial stage that raises
:class:`LeftDomain`, :class:`WordNotIntegrable` or :class:`OutOfDomain`, or
comes out non-finite, counts as a rejected step, and so does a step whose
trajectory, by the pair's dense output, leaves the working region and is
back at the end of the step.  :func:`flow_control` integrates each piece of a
:class:`Control`, clipped to the run, as its own segment: the right-hand
side is smooth in the state but discontinuous in time at piece boundaries,
so no step ever straddles one, and the state rests over the gaps between
pieces.  On a tabled family the combination ``sum_a u_a(t) X_a(x)`` of a
piece is the family's merged table weighted once per piece, so every stage
costs one table evaluation whatever the family size; a family with an
untabled member is summed over the piece's support, member by member.
:func:`guard` is the one existence guard, which :func:`flow_control`
enforces itself when given a bound record.

The stepper advances a stack of rows stored back to back: a single
trajectory is the one-row case, and :func:`flow_single` takes a stack of
start points ``(N, d)`` as well as one point.  Each row is a point followed
by ``k`` tangent columns moved by the linearised flow: none, one tangent
vector, or the d columns of a variational matrix, which is the block that
starts at the identity.  All rows share one step sequence, sized by the
worst row, and every row is checked against the working region.

On the stepper, a flow of tabled fields has one right-hand side: a
monomial table against flat coefficients, and its derivative table against
theirs for the tangents; :func:`flow_single` of a tabled field uses the
field's own tables.  Rows that flow different letters of a tabled family
are one evaluation of the family's merged :attr:`FieldFamily.table`
against per-row coefficients,
and each row's error scale is multiplied by the time its coefficients
stand for, so that flowing ``t X`` over unit time takes the steps of
flowing X over time t.  :func:`run_words` is the one word runner: it runs
many words from one point, or each word from its own, carrying tangent
columns on demand.  At each letter position, rows that share one letter
are one :func:`flow_single` call over their stack, rows with different
letters of a tabled family one such unit-time segment, each row flowing
its own letter, and rows with different letters of an untabled family one
at a time.  A caller that needs only a word's end runs :func:`_stacked_word`,
one :func:`flow_single` call per letter over the whole stack, which raises
at the first letter that fails: :meth:`FlowWord.apply` and
:meth:`FlowWord.apply_with_variational` are that run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (DomainTooSmall, GuardViolated, InvalidArgument, LeftDomain, OutOfDomain,
                     StepUnderflow, WordNotIntegrable)
from .fields import (FD_STEP_1, FieldFamily, LbRecord, MonomialTable, VectorField,
                     finite_difference_jvp)
from .space import Ball, L1Coefficients, integer, positive

DEFAULT_TOL = 1e-9

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals stage 1 of the next step,
# and its input is the fifth-order solution, since row 7 of A is the B5 row).
# The right-hand side is autonomous within a control piece, so the nodes C
# (the row sums of A) serve only to split each stage increment into
# ``C_i K_0 + sum_j A_ij (K_j - K_0)``: a constant right-hand side then moves
# a stage by exactly ``h C_i K_0``, where the float sum of the B5 row is
# 0.9999999999999998.  The error row E sums to zero, so it weighs the
# differences alone.
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# The pair's dense output (Shampine's, as in scipy's RK45): the state at
# ``t + theta h`` is ``y + h sum_i K_i (_P[i] @ (theta, theta^2, theta^3, theta^4))``.
# Its weights at the quarter points of a step, split like the stages, place
# the trajectory inside an accepted step.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_THETA = np.array([0.25, 0.5, 0.75])
_DENSE = (_P[1:] @ _THETA ** np.arange(1, 5)[:, None]).T  # weights of K_1..K_6 less K_0
# One table over S = (K_0, K_1 - K_0, ..., K_6 - K_0), scaled by h once per
# step: rows 0-6 are the stage rows [C_i, A_i1..A_i6], so the input of stage
# i is ``y + (h _STEP)[i, :i] @ S[:i]``; row 7 is the error row and rows 8-10
# the quarter-point dense weights.  C_6 = 1 keeps ``h * 1 = h`` exact.
_STEP = np.vstack([np.column_stack([_C, _A[:, 1:]]), np.append(0.0, _E[1:]),
                   np.column_stack([_THETA, _DENSE])])


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
    margin: float
    unsafe: bool = False

    @property
    def satisfied(self) -> bool:
        return self.margin > 0

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
    return ExistenceCertificate(r=r, k=k, c=c, T0=T0, margin=margin)


@dataclass(frozen=True)
class FlowResult:
    """Endpoint of a flow with its cost and the guard it enforced.

    ``endpoint`` has the shape of the start points.  ``tangents`` are the
    given tangent columns moved by the derivative of the endpoint map, in
    the shape they were given (``None`` without); from the identity they
    are its variational matrix.  ``steps_taken`` counts the accepted
    stepper steps, and an exact step counts one.  ``certificate`` is
    ``None`` for an unguarded flow.
    """

    endpoint: np.ndarray
    tangents: np.ndarray | None
    steps_taken: int
    certificate: ExistenceCertificate | None = None


class _Tables(NamedTuple):
    """``sum_a w_a X_a`` of tabled members: a vector field's own ``table``
    (``weights`` None), or a family's merged table weighted by ``weights``,
    (m,) shared by every row or (N, m) one set per row."""

    table: MonomialTable
    weights: np.ndarray | None


def _field_terms(X: VectorField) -> tuple | _Tables:
    """The terms of flowing X alone: its own table, or the member pair of an
    untabled X."""
    return ((X, 1.0),) if X.table is None else _Tables(X.table, None)


def _weigh(table: MonomialTable, coefficients: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The table's monomials at the rows of ``points`` (N, d) against
    coefficients (T, K) or (N, T, K), as in :class:`_Tables`: (N, K)."""
    monomials = table.monomials(points)
    if coefficients.ndim == 2:
        return monomials.dot(coefficients)
    return np.matmul(monomials[:, None, :], coefficients)[:, 0]


class _Rhs:
    """Right-hand side ``sum_a w_a X_a`` for one run of the stepper, over a
    stack of rows stored back to back.  Each row is a point followed by
    ``k`` tangent columns W (d×k, stored row by row) of
    ``W' = (sum_a w_a DX_a) W``.

    ``terms`` is either :class:`_Tables`, one table evaluation for the value
    and one for J whatever the number of members, or the ``(member,
    weight)`` pairs of a run with an untabled member, summed member by
    member.  ``tables`` holds the table against its flat coefficients and,
    when tangents are carried, its derivative table against theirs.
    A single row is evaluated point by point, which is faster than a
    one-row batch.  Autonomous: it reads the state only."""

    __slots__ = ("terms", "tables", "dim", "k", "width")

    def __init__(self, terms, dim: int, k: int):
        self.terms = terms
        self.dim = dim
        self.k = k
        self.width = dim * (1 + k)
        if type(terms) is _Tables:
            tables = (terms.table, terms.table.derivative)[:2 if k else 1]
            self.tables = [(t, t.flat if terms.weights is None else t.weighted(terms.weights))
                           for t in tables]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        d, k, terms = self.dim, self.k, self.terms
        one = y.size == self.width
        if type(terms) is _Tables:
            table, coefficients = self.tables[0]
            if one and coefficients.ndim == 2:
                # one point by monomials_at: measured faster than a one-row
                # batch (see MonomialTable.monomials_at)
                x = y[:d]
                value = table.monomials_at(x).dot(coefficients)
                if not k:
                    return value
                D, DC = self.tables[1]
                J = D.monomials_at(x).dot(DC)
                return np.concatenate((value, J.reshape(d, d).dot(y[d:].reshape(d, k)).ravel()))
            Y = y.reshape(-1, self.width)
            X = Y[:, :d]
            value = _weigh(table, coefficients, X)
            if not k:
                return value.ravel()
            J = _weigh(*self.tables[1], X).reshape(-1, d, d)
            dW = (J @ Y[:, d:].reshape(-1, d, k)).reshape(-1, d * k)
            return np.concatenate((value, dW), axis=1).ravel()
        out = np.zeros(y.size)
        if one:
            # one point in scalars: without this branch, evaluating a wave
            # enlarged field took 1,442 us against 861 us (2-core Xeon, best of 5)
            x = y[:d]
            for m, w in terms:
                out[:d] += w * m(x)
            if k:
                W, dW = y[d:].reshape(d, k), out[d:].reshape(d, k)
                J, h = None, None
                for m, w in terms:
                    if m.table is not None:
                        DX = m.table.derivative(x)
                        J = w * DX if J is None else J + w * DX
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
        W = Y[:, d:].reshape(-1, d, k) if k else None
        for m, w in terms:
            O[:, :d] += w * m.eval_many(X)
            if k:
                O[:, d:] += w * _derivative_along(m, X, W).reshape(-1, d * k)
        return out


def _derivative_along(m: VectorField, x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``DX(x) W`` at each row of x for the blocks W (N, d, k) of an
    untabled field, by one central difference per column, which takes two
    evaluations where a finite-difference Jacobian takes 2d."""
    n, d, k = W.shape
    columns = W.transpose(0, 2, 1).reshape(n * k, d)
    dW = finite_difference_jvp(m, np.repeat(x, k, axis=0), columns)
    return dW.reshape(n, k, d).transpose(0, 2, 1)


def _outside(region: Ball, y: np.ndarray, rows: int, dim: int) -> np.ndarray:
    """Which of the ``rows`` rows stored back to back in ``y`` have their
    point outside the region (a NaN point is outside)."""
    return ~region.contains_rows(y.reshape(rows, -1)[:, :dim])


def _left_domain(y: np.ndarray, rows: int, dim: int, outside: np.ndarray, t,
                 what: str) -> LeftDomain:
    """:class:`LeftDomain` at the first row marked ``outside``, of the states
    of ``rows`` rows each stored back to back in ``y``, one mark per row of
    each; ``t`` is the time of every row, or an array of one time per mark.
    The exception's ``row`` is the row of the stack that left."""
    first = int(np.argmax(outside))
    t = float(np.broadcast_to(t, outside.shape)[first])
    return LeftDomain(f"{what} at t={t}", last_point=y.reshape(outside.size, -1)[first, :dim].copy(),
                      last_time=t, row=first % rows)


def _integrate_segment(rhs, t0: float, t1: float, y0: np.ndarray, rows: int, dim: int,
                       tol: float, region: Ball, stats: dict, span=1.0) -> np.ndarray:
    """Advance ``rows`` states stored back to back in ``y0`` through [t0, t1]
    (either direction) with DP 5(4) steps.

    The first trial step is the whole segment, and each later one comes
    from the last error estimate, by a factor between 0.2 and 5.  A flow
    that the pair integrates exactly, such as a Heisenberg flow, which is
    quadratic in time, thus takes one step.  All rows share one step
    sequence.
    A step is accepted when every row's error is within that row's own
    scale ``tol*|h|*span*(1 + max|y_row|)``, and the step factor comes from
    the worst row, so one row takes exactly the steps of a single trajectory.
    ``span`` is the time a row's right-hand side stands for, a number or one
    per row: a row flowing ``t X`` over unit time has span ``|t|``, and so
    takes the steps of the flow of X over time t, while a row with span 0
    (a letter of time 0) rests without limiting the step.
    A trial step can probe far from the trajectory, so a stage that raises
    :class:`LeftDomain`, :class:`WordNotIntegrable` (an enlarged field's
    inner word) or :class:`OutOfDomain` (a bracket field off its domain), or
    that comes out non-finite, rejects the step (×0.2).  So does a step
    within the error bound whose trajectory, as the dense output places it
    at the quarter points, leaves the region and is back at the end: a long
    step can pass over an exit and back.  If the step then underflows, the
    last such error is raised in place of :class:`StepUnderflow`.  A step
    within the error bound that ends outside the region raises
    :class:`LeftDomain` at the first of its quarter points or its end that
    lies outside.
    """
    direction = 1.0 if t1 > t0 else -1.0
    t, y, h = t0, y0, t1 - t0
    resting = None if np.ndim(span) == 0 else np.asarray(span) == 0.0
    S = np.empty((7, y.size))  # K_0, then the stages K_1..K_6 less K_0
    stage_error = None
    with np.errstate(all="ignore"):  # a non-finite stage fails the error test
        S[0] = rhs(y)
        while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
            if abs(h) > abs(t1 - t):
                h = t1 - t
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise stage_error or StepUnderflow(f"step size underflow at t={t}")
            hT = h * _STEP
            try:
                for i in range(1, 7):
                    yi = y + hT[i, :i] @ S[:i]
                    k = rhs(yi)
                    np.subtract(k, S[0], out=S[i])
            except (LeftDomain, WordNotIntegrable, OutOfDomain) as exc:
                stage_error = exc
                h *= 0.2
                continue
            scales = tol * abs(h) * span * (1.0 + np.abs(y).reshape(rows, -1).max(axis=1))
            errs = np.abs(hT[7, 1:] @ S[1:]).reshape(rows, -1).max(axis=1)
            ratios = errs / scales
            if resting is not None:
                ratios[resting] = errs[resting] * 0.0  # 0, or NaN for a non-finite row
            worst = int(np.argmax(ratios))
            scale, err = float(scales[worst]), float(errs[worst])
            if (errs <= scales).all():
                # the trajectory at the quarter points and the end of the step
                path = np.vstack([y + hT[8:] @ S, yi])
                outside = _outside(region, path, path.shape[0] * rows, dim)
                if outside.any():
                    exc = _left_domain(path, rows, dim, outside,
                                       np.repeat(t + h * np.append(_THETA, 1.0), rows),
                                       "trajectory left the working region")
                    if outside[-rows:].any():
                        raise exc
                    stage_error = exc  # out and back inside one step: refine it
                    h *= 0.2
                    continue
                t = t + h
                y = yi  # the stage-7 input is the fifth-order solution (FSAL)
                S[0] = k
                stage_error = None
                stats["steps"] += 1
                grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
                h *= grow
            else:  # a NaN or infinite error gives the 0.2 floor
                h *= max(0.2, 0.9 * (scale / err) ** 0.2)
    return y


# Exact flows of affine tables.  An affine field A x + b moves (x, 1) by its
# augmented matrix M = [[A, b], [0, 0]], so a segment of length h maps a
# point and its tangent columns (W, 0) by e^(hM).  The kernel splits hM into
# 2^s equal steps, and each step into four quarter steps, whose points meet
# the region check as the stepper's quarter points do.
_MAX_HALVINGS = 6  # at most 2^6 exact steps per segment; longer ones use the stepper
_ROUNDOFF = 2.0 ** -53


def _taylor_degree(theta: float) -> int:
    """The first degree q whose Taylor remainder bound theta^(q+1)/(q+1)!
    is within the unit roundoff, for a matrix of norm at most theta <= 1."""
    q, bound = 1, theta * theta / 2
    while bound > _ROUNDOFF:
        q += 1
        bound *= theta / (q + 1)
    return q


# _QUARTER_TAYLOR[j]: the weights (i/4)^j / j! of Taylor term j at the four
# quarter points i = 1..4, shaped (4, 1, 1, 1) to scale a stack of rows
_QUARTER_TAYLOR = np.array([[(i / 4) ** j / math.factorial(j) for i in range(1, 5)]
                            for j in range(_taylor_degree(1.0) + 1)])[:, :, None, None, None]


def _quarter_powers(A: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For matrices A (S, n, D, D) with a zero last row, n per segment, and
    their 1-norms (S, n): per segment, the halvings s (S,), NaN or inf
    where a matrix is not finite; and per matrix the powers Q, Q^2, Q^3,
    Q^4 (4, S, n, D, D) of the quarter step Q = e^(A / 2^(s+2)).  A is
    scaled in place.

    Q is the Taylor series of A / 2^(s+2), s the least with ||A||_1 <= 2^s
    for every matrix of the segment; halving by powers of two is exact.
    The series stops where its terms vanish: a nilpotent segment (a
    Heisenberg piece, a constant field) is summed exactly, needs no
    halving, and its Q is squared back to s = 0.  Otherwise it is cut at
    :func:`_taylor_degree` of theta = min(1, max ||A||_1)/4, which bounds
    every quarter-step norm.  The series is summed inside the output, so a
    call holds five stacks of matrices."""
    with np.errstate(all="ignore"):  # a matrix that is not finite gives NaN halvings
        quarters = np.empty((4,) + A.shape)
        Q, term, product = quarters[:3]
        halvings = np.ceil(np.log2(np.maximum(norms.max(axis=1), 1.0)))
        q = _taylor_degree(min(1.0, float(norms.max())) / 4)  # 1/4 where a norm is not finite
        s = np.where(halvings <= _MAX_HALVINGS, halvings, 0.0).astype(int)
        A *= np.ldexp(0.25, -s)[:, None, None, None]
        term[...] = A
        np.add(A, np.eye(A.shape[-1]), out=Q)
        for j in range(2, q + 1):
            if not term.any():
                break
            np.matmul(term, A, out=product)
            np.multiply(product, 1.0 / j, out=term)
            Q += term
    stopped = ~term.any(axis=(1, 2, 3))
    halvings[stopped] = 0.0
    squarings = np.where(stopped, s, 0)
    for i in range(squarings.max()):  # back to one exact step
        again = squarings > i
        Q[again] = Q[again] @ Q[again]
    np.matmul(Q, Q, out=quarters[1])
    np.matmul(quarters[1], Q, out=quarters[2])
    np.matmul(quarters[1], quarters[1], out=quarters[3])
    return quarters, halvings


def _quarter_points(A: np.ndarray, Z: np.ndarray, theta: float) -> np.ndarray:
    """The rows Z (rows, D, c) moved by e^(tau A) at tau = 1/4, 1/2, 3/4, 1,
    (4, rows, D, c), for one segment's matrices A (n, D, D), n = 1 shared
    or one per row, of 1-norm at most theta <= 1: the Taylor series acting
    on the rows, one product of A with the (D, c) blocks per term instead
    of one with A.  It is cut at :func:`_taylor_degree` of theta, or where
    its terms vanish, and each term is added to the four points in turn, so
    a row's points do not depend on the other rows."""
    out = np.empty((4,) + Z.shape)
    out[...] = Z
    weighted = np.empty_like(out)
    term = Z
    for j in range(1, _taylor_degree(theta) + 1):
        term = A @ term
        if not np.count_nonzero(term):
            break
        np.multiply(_QUARTER_TAYLOR[j], term, out=weighted)
        out += weighted
    return out


def _segment_matrices(segments, dim: int) -> np.ndarray:
    """The augmented matrices h M of segments of one affine table, (S, n,
    d+1, d+1): n = 1 shared by the rows, or one per row."""
    weights = [terms.weights for _, _, terms in segments]
    top = segments[0][2].table.augmented(None if weights[0] is None else np.array(weights))
    top = top.reshape(len(segments), -1, dim, dim + 1)
    A = np.zeros(top.shape[:2] + (dim + 1, dim + 1))
    np.multiply(top, np.array([b - a for a, b, _ in segments])[:, None, None, None],
                out=A[:, :, :dim])
    return A


def _chain(powers: np.ndarray, steps, Z: np.ndarray, path: np.ndarray | None = None) -> np.ndarray:
    """The rows Z (rows, d+1, 1+k) after the exact steps of the first
    ``len(steps)`` segments, ``steps[i]`` of them with the quarter powers
    ``powers[:, i]`` (4, n, d+1, d+1): one product per step.  ``path``
    (steps, 4, rows, d), when given, receives the points at the quarters."""
    n, dim = 0, Z.shape[1] - 1
    for i, count in enumerate(steps):
        for _ in range(count):
            out = powers[:, i] @ Z  # (4, rows, d+1, 1+k): the state at each quarter
            if path is not None:
                path[n] = out[:, :, :dim, 0]
            Z, n = out[3], n + 1
    return Z


def _exact_segments(points: np.ndarray, segments, dim: int, k: int, region: Ball,
                    stats: dict) -> tuple[np.ndarray, int]:
    """Flow the rows ``points`` (rows, d*(1+k)), each a point and its k
    tangent columns, exactly through the segments of one affine table, in
    homogeneous form, (d+1)×(1+k) each.  One segment of one exact step
    (``||hM||_1 <= 1``: a :func:`flow_single` or a stacked letter, mostly)
    moves rows of at most (d+1)/2 columns by :func:`_quarter_points`.
    Otherwise every segment's matrices go through :func:`_quarter_powers`
    as one stack, and each exact step is one product of the four quarter
    powers with the rows.  All rows share the steps of a segment, and each
    exact step counts one in ``stats["steps"]``.

    Returns the rows after the segments flowed and how many those are: the
    segments before the first one with a quarter point outside the region
    (a non-finite point is outside) or more than 2^``_MAX_HALVINGS`` steps.
    """
    rows = len(points)
    A = _segment_matrices(segments, dim)
    with np.errstate(all="ignore"):  # a norm that is not finite runs on the stepper
        norms = np.abs(A).sum(axis=2).max(axis=2)
    start = np.zeros((rows, dim + 1, 1 + k))
    start[:, :dim, 0] = points[:, :dim]
    start[:, dim, 0] = 1.0
    start[:, :dim, 1:] = points[:, dim:].reshape(rows, dim, k)
    # a series term costs a product with the rows' blocks, a kernel term one
    # with the matrices: the series measured faster up to about half width
    if len(segments) == 1 and 2 * (1 + k) <= dim + 1 and norms.max() <= 1.0:
        quarters = _quarter_points(A[0], start, float(norms.max()))
        powers, steps, count, Z = None, np.ones(1, dtype=int), 1, quarters[3]
        path = quarters[:, :, :dim, 0]
    else:
        powers, halvings = _quarter_powers(A, norms)
        fits = halvings <= _MAX_HALVINGS  # False where NaN
        count = len(segments) if fits.all() else int(np.argmin(fits))
        steps = 2 ** halvings[:count].astype(int)
        path = np.empty((steps.sum(), 4, rows, dim))
        Z = _chain(powers, steps, start, path)
    outside = ~region.contains_rows(path.reshape(-1, dim))  # a NaN point is outside
    if outside.any():  # the segment of the first step with a point outside, run again to its start
        count = int(np.searchsorted(np.cumsum(steps), np.argmax(outside) // (4 * rows),
                                    side="right"))
        Z = _chain(powers, steps[:count], start)
    stats["steps"] += int(steps[:count].sum())
    return np.concatenate([Z[:, :dim, 0], Z[:, :dim, 1:].reshape(rows, dim * k)], axis=1), count


def _flow(x0: np.ndarray, segments, tangents, tol: float, region: Ball,
          certificate: ExistenceCertificate | None, span=1.0) -> FlowResult:
    """The one integration core behind :func:`flow_control`,
    :func:`flow_single` and :func:`run_words`.  ``x0`` is one start point
    (d,) or a stack of them (N, d), each one row of the stepper.
    ``tangents`` (or ``None``) holds the tangent columns each row carries:
    ``(d,)`` or ``(d, k)`` for one point, ``(N, d)`` or ``(N, d, k)`` for a
    stack.

    ``segments`` are the ``(t_start, t_end, terms)`` runs of the flow in the
    order integrated, ``terms`` being the right-hand side of the run (see
    :class:`_Rhs`); the state is stationary between them.  ``span`` is
    passed to every segment (see :func:`_integrate_segment`).  A flow
    without segments returns its start points without stepping.

    The segments of one flow weigh one table, or sum untabled members.  When
    that table is affine (:attr:`MonomialTable.degree` at most 1), the
    segments are flowed exactly (:func:`_exact_segments`) up to the first
    one that leaves the region or is too long for the kernel; that segment
    and every later one run on the stepper.
    """
    tol = positive(tol, "tol")
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
        outside = _outside(region, points, rows, dim)
        if outside.any():
            raise _left_domain(points, rows, dim, outside, segments[0][0],
                               "start point outside the working region")
    stats = {"steps": 0}
    exact = 0
    if segments and type(segments[0][2]) is _Tables and segments[0][2].table.degree <= 1:
        points, exact = _exact_segments(points, segments, dim, k, region, stats)
    y = points.ravel().copy()
    for a, b, terms in segments[exact:]:
        y = _integrate_segment(_Rhs(terms, dim, k), a, b, y, rows, dim, tol, region, stats, span)
    Y = y.reshape(rows, -1)
    return FlowResult(endpoint=Y[:, :dim].reshape(x0.shape),
                      tangents=None if tangents is None else Y[:, dim:].reshape(tangents.shape),
                      steps_taken=stats["steps"], certificate=certificate)


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
    if not (math.isfinite(t0) and math.isfinite(T0)):
        raise InvalidArgument(f"flow times must be finite, not t0={t0!r}, T0={T0!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != family.space.dimension:
        raise InvalidArgument("start point dimension mismatch")
    family.check_members([i for _, _, coeff in u.pieces for i, _ in coeff.entries])

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
            if family.table is None:
                terms = tuple((family.members[i], v) for i, v in coeff.entries)
            else:
                weights = np.zeros(len(family))
                index, values = zip(*coeff.entries)
                weights[list(index)] = values
                terms = _Tables(family.table, weights)
            segments.append((a, b, terms))
        end = max(end, b)
    if T0 < 0:
        segments = [(b, a, terms) for a, b, terms in reversed(segments)]
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
    if not math.isfinite(t):
        raise InvalidArgument(f"flow time must be finite, not {t!r}")
    segments = [(0.0, t, _field_terms(X))] if t else []
    return _flow(np.asarray(x0, dtype=float), segments, tangents, tol,
                 region if region is not None else X.domain, None)


@dataclass(frozen=True)
class FlowWord:
    """A finite flow composition, letters applied first to last."""

    letters: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters",
                           tuple((integer(i, "index", 0), float(t)) for i, t in self.letters))
        if not all(math.isfinite(t) for _, t in self.letters):
            raise InvalidArgument(f"letters need finite times: {self.letters}")

    def inverse(self) -> "FlowWord":
        return FlowWord(tuple((i, -t) for i, t in reversed(self.letters)))

    def then(self, other: "FlowWord") -> "FlowWord":
        """Composition applying ``self`` first, then ``other``."""
        return FlowWord(self.letters + other.letters)

    def apply(self, family: FieldFamily, x: np.ndarray, tol: float = DEFAULT_TOL,
              region: Ball | None = None) -> np.ndarray:
        """Endpoint of this word from x, one :func:`flow_single` call per
        letter (:func:`_stacked_word`), raising the error of the first
        letter that fails."""
        return list(_stacked_word(family, self.letters, x, tol, region))[-1][0]

    def apply_with_variational(self, family: FieldFamily, x: np.ndarray, tol: float = DEFAULT_TOL,
                               region: Ball | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint and variational matrix of this word from x, as :meth:`apply`."""
        return list(_stacked_word(family, self.letters, x, tol, region, np.eye(np.size(x))))[-1]


def _raise_first(run) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Raise the first error of a :func:`run_words` run's ``stops``, if any;
    otherwise return its paths and tangents."""
    for stop in filter(None, run[1]):
        raise stop
    return run[0], run[2]


def run_words(family: FieldFamily, words, x: np.ndarray, tol: float = DEFAULT_TOL,
              region: Ball | None = None, tangents: np.ndarray | None = None):
    """Run many words of ``family`` from one start point x (d,), or word n
    from row n of a stack x (N, d).  Words may differ in length, and the
    rows carry ``tangents`` as :func:`flow_single` does: a vector or d×k
    columns per start point, or ``None``.

    Letter position j runs the rows of every word that has one.  Rows that
    share one letter are one :func:`flow_single` run over their stack, in
    any family, and a row run alone runs as one point (d,).  Rows with
    different letters of a tabled family are one unit-time segment over the
    stack (:func:`_stacked_letter`): row n flows ``t_n X_{a_n}`` for its
    letter ``(a_n, t_n)``, its right-hand side the family's merged table
    weighted by row (:class:`_Rhs`), with its error scale multiplied by
    ``|t_n|``, so that each row is integrated to the tolerance of its own
    flow.  Rows with different letters of an untabled family run one at a
    time.  A one-row run that leaves the region or underflows stops its
    word.  When a row of a stacked run leaves the region, that row runs
    alone and the others are stacked again, so a word stops at its own
    exit, as if it had run alone; a stacked run that raises
    :class:`StepUnderflow`, or a :class:`LeftDomain` that names no row, runs
    each of its rows alone.  ``region`` defaults to the family's common
    domain.

    Returns ``(paths, stops, tangents)``: ``paths[n]`` holds word n's start
    point and its endpoint after each letter it ran, ``(1 + letters run,
    d)``; ``stops[n]`` is the :class:`LeftDomain` or :class:`StepUnderflow`
    of the letter that ended word n early, or ``None``; ``tangents[n]`` are
    word n's tangents where its path ends (``None`` without tangents).
    """
    x, n = np.asarray(x, dtype=float), len(words)
    if x.ndim == 2 and len(x) != n:
        raise InvalidArgument(f"{len(x)} start points for {n} words")
    family.check_members([a for w in set(words) for a, _ in w.letters])
    region = region if region is not None else family.common_domain
    W = None if tangents is None else np.asarray(tangents, dtype=float)
    # every word from one start point x (d,): each row starts there, with the tangents
    y, W = (x, W) if x.ndim > 1 else (x[None].repeat(n, 0), W if W is None else W[None].repeat(n, 0))
    track, ran, stops = [y], [len(w.letters) for w in words], [None] * n  # ran: letters run
    for j in range(max(ran, default=0)):
        y, W = y.copy(), None if W is None else W.copy()
        pending = [[i for i in range(n) if j < ran[i]]]  # runs to make at j
        if family.table is None and len({words[i].letters[j] for i in pending[0]}) > 1:
            pending = [[i] for i in pending[0]]  # different letters of an untabled family
        while pending and pending[-1]:
            rows = pending.pop()
            mine = [words[i].letters[j] for i in rows]
            i = rows[0] if len(rows) == 1 else rows  # a single row runs as one point (d,)
            carried = None if W is None else W[i]
            try:  # rows that share one letter are one flow_single run
                res = (flow_single(family.members[mine[0][0]], y[i], mine[0][1], tol=tol,
                                   tangents=carried, region=region) if len(set(mine)) == 1 else
                       _stacked_letter(family, mine, y[i], tol, region, carried))
            except (LeftDomain, StepUnderflow) as exc:
                if len(rows) == 1:
                    stops[rows[0]], ran[rows[0]] = exc, j
                elif getattr(exc, "row", None) is None:  # an underflow, or an exit naming no row
                    pending += [[i] for i in rows]
                else:  # the row that left runs alone, and the others are restacked
                    pending += [rows[:exc.row] + rows[exc.row + 1:], [rows[exc.row]]]
                continue
            y[i] = res.endpoint
            if W is not None:
                W[i] = res.tangents
        track.append(y)
    return [path[:m + 1] for path, m in zip(np.array(track).swapaxes(0, 1), ran)], stops, W


def _stacked_word(family: FieldFamily, letters, y, tol: float, region: Ball | None, W=None):
    """Run every row of y, one point (d,) or a stack (N, d), through one
    word's ``letters``, carrying the tangents W, each letter one
    :func:`flow_single` run of the whole stack.  Yields ``(y, W)`` at the
    start and after each letter; the first letter whose run leaves the
    region or underflows raises its error.  ``region`` defaults to the
    family's common domain."""
    family.check_members([a for a, _ in letters])
    y, region = np.asarray(y, dtype=float), family.common_domain if region is None else region
    yield y, W
    for a, t in letters:
        res = flow_single(family.members[a], y, t, tol=tol, tangents=W, region=region)
        y, W = res.endpoint, res.tangents
        yield y, W


def _stacked_letter(family: FieldFamily, letters, points: np.ndarray, tol: float,
                    region: Ball, tangents: np.ndarray | None = None) -> FlowResult:
    """The rows of ``points`` (N, d), row n flowing ``t_n X_{a_n}`` over
    unit time for ``(a_n, t_n) = letters[n]`` and carrying its tangents,
    over the family's merged table."""
    index, times = (np.array(column) for column in zip(*letters))
    weights = np.eye(len(family))[index] * times[:, None]  # row n: t_n at member a_n
    return _flow(points, [(0.0, 1.0, _Tables(family.table, weights))], tangents, tol,
                 region, None, span=np.abs(times))
