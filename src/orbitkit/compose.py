"""The l1 composition engine.

Turns a summable coefficient family tau into a bang-bang control that walks
the indexed fields one at a time, integrates the resulting flow to realize
the limit composition and its inverse, and differentiates the parameter-to-
endpoint chart map by carrying one tangent vector along the word.
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
from .flow import (DEFAULT_TOL, Control, ExistenceCertificate, FlowWord, _stacked_word,
                   flow_control, flow_single, guard)
from .space import Ball, L1Coefficients, integer

TAIL_FACTOR_NOTE = "k*exp(k*norm1(tau)) times dropped l1 mass"


def _unit_speed_control(word) -> Control:
    """The control of one piece ``sign(t) e_i`` of length ``|t|`` per letter,
    back to back from 0.  A letter shorter than the float spacing at its
    start time ends where it starts, so it gets no piece: its flow would
    move the state by less than k times that spacing, far below any
    integration tolerance."""
    pieces = []
    t = 0.0
    for idx, val in word:
        end = t + abs(val)
        if end > t:
            pieces.append((t, end, L1Coefficients(((idx, 1.0 if val > 0 else -1.0),))))
        t = end
    return Control(pieces=tuple(pieces))


def gamma_control(tau: L1Coefficients) -> Control:
    """The unit-speed bang-bang switching control of ``tau``.

    Piece i occupies ``[sum_{j<i} |tau_j|, sum_{j<=i} |tau_j|)`` and carries
    the single coefficient ``sign(tau_i) e_i``.  Zero entries produce no
    pieces, nor do entries shorter than the float spacing at their start
    time; the sup norm is 1 whenever tau has entries, and the control's
    ``l1_norm`` is the total switching time.
    """
    return _unit_speed_control(tau.entries)


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
    """``k * exp(k * total_mass)``, saturating at ``inf``."""
    try:
        return k * math.exp(k * total_mass)
    except OverflowError:
        return math.inf


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
    family.check_members(kept.support)
    # a composition that drops no mass is exact, even under an infinite factor
    return kept, factor * tail if tail else 0.0, truncation_n, cert


def _run_word(family: FieldFamily, lb: LbRecord, word, x, tol, path) -> np.ndarray:
    """Endpoint of ``word`` from x: one bang-bang control flow (``"control"``)
    or one single-field flow per letter (``"sequential"``)."""
    if path not in ("control", "sequential"):
        raise InvalidArgument("path must be 'control' or 'sequential'")
    if not word:
        return np.asarray(x, dtype=float).copy()
    if path == "sequential":
        return FlowWord(word).apply(family, x, tol=tol, region=lb.region)
    control = _unit_speed_control(word)
    return flow_control(family, control, x, 0.0, control.pieces[-1][1],
                        tol=tol, region=lb.region).endpoint


def _compose(family: FieldFamily, lb: LbRecord, tau: L1Coefficients, x: np.ndarray,
             tol: float, truncation_n: int | None, path: str, unsafe: bool,
             inverse: bool) -> CompositionResult:
    """The body of :func:`compose_flows` (``inverse`` false) and
    :func:`compose_inverse` (true): plan, then run the kept word or its
    inverse."""
    x = np.asarray(x, dtype=float)
    kept, bound, truncation_n, cert = _plan(family, lb, tau, x, tol, truncation_n, unsafe)
    word = FlowWord(kept.entries)
    word = (word.inverse() if inverse else word).letters
    endpoint = _run_word(family, lb, word, x, tol, path)
    return CompositionResult(endpoint=endpoint, truncation_n=truncation_n,
                             tail_error_bound=bound, word=word, seed_point=x.copy(),
                             certificate=cert, family=family, region=lb.region, tol=tol)


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
    return _compose(family, lb, tau, x, tol, truncation_n, path, unsafe, inverse=False)


def compose_inverse(family: FieldFamily, lb: LbRecord, tau: L1Coefficients, y: np.ndarray,
                    tol: float = DEFAULT_TOL, truncation_n: int | None = None,
                    path: str = "control", unsafe: bool = False) -> CompositionResult:
    """Inverse of :func:`compose_flows`: the word replayed in reverse order
    with sign-flipped durations, by the same path."""
    return _compose(family, lb, tau, y, tol, truncation_n, path, unsafe, inverse=True)


def psi_chart(family: FieldFamily, lb: LbRecord, x: np.ndarray, tau: L1Coefficients,
              tol: float = DEFAULT_TOL, unsafe: bool = False) -> np.ndarray:
    """The parameter-to-endpoint chart map at x."""
    return compose_flows(family, lb, tau, x, tol=tol, unsafe=unsafe).endpoint


def d_psi(family: FieldFamily, lb: LbRecord, x: np.ndarray, tau: L1Coefficients,
          sigma: L1Coefficients, tol: float = DEFAULT_TOL,
          unsafe: bool = False) -> np.ndarray:
    """Directional derivative of the chart map at tau along sigma.

    Walks the merged support in index order (indices only in sigma are
    zero-duration letters) in one forward sweep, carrying a single tangent
    vector v through the word: each letter's flow moves v by its
    derivative, and after letter p, v gains ``sigma_p X_p(x_p)``, the
    derivative of the letter's endpoint x_p in its duration.  At tau = 0
    every letter is the identity and the result is the plain coefficient
    combination of the fields at x.

    Only tau is subject to the smallness guard: sigma is the direction of a
    linear differential, so its magnitude scales the output rather than
    conditioning validity.
    """
    x = np.asarray(x, dtype=float)
    kept, _, _, _ = _plan(family, lb, tau, x, tol, None, unsafe)
    family.check_members(sigma.support)
    tau_map = dict(kept.entries)
    v = np.zeros(x.size)
    for idx in sorted(set(tau_map) | set(sigma.support)):
        X = family.members[idx]
        res = flow_single(X, x, tau_map.get(idx, 0.0), tol=tol, tangents=v, region=lb.region)
        x, v = res.endpoint, res.tangents
        s = sigma.get(idx)
        if s != 0.0:
            v = v + s * X(x)
    return v


def extract_l1_curve(result: CompositionResult, samples_per_piece: int) -> L1Curve:
    """Replay the realized word as a sampled piecewise trajectory, each
    letter cut into ``samples_per_piece`` legs, in the region and at the
    tolerance the word ran with.

    The subdivision knots are the cumulative absolute durations.
    """
    samples_per_piece = integer(samples_per_piece, "samples_per_piece", 1)
    letters = []
    times = [0.0]
    t_base = 0.0
    for idx, dur in result.word:
        sub = np.linspace(0.0, dur, samples_per_piece + 1)
        letters.extend((idx, b - a) for a, b in zip(sub, sub[1:]))
        times.extend(t_base + abs(s) for s in sub[1:])
        t_base += abs(dur)
    points = np.array([y for y, _ in _stacked_word(result.family, letters, result.seed_point,
                                                   result.tol, result.region)])
    times = np.asarray(times)
    return L1Curve(times=times, points=points, knot_times=times[::samples_per_piece],
                   knot_points=points[::samples_per_piece])
