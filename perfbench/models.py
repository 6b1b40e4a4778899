"""Closed-form models of the families the benchmark drives.

The oracle checks orbitkit against these formulas, never against orbitkit's
own integrator.  Each model gives member values, member Jacobians, the exact
flow of one member (a "letter") with its Jacobian, and, where the claim needs
it, the exact flow of a constant combination of members (a control piece).
"""

from __future__ import annotations

import math

import numpy as np


def chart_norm(v, kind: str) -> float:
    v = np.asarray(v, dtype=float)
    if kind == "l1":
        return float(np.abs(v).sum())
    if kind == "sup":
        return float(np.abs(v).max())
    return float(np.sqrt(v @ v))


class Model:
    """Base: words of letters ``(index, duration)`` applied first to last."""

    dim: int
    norm = "euclidean"
    radius: float

    def word(self, x, letters):
        y = np.array(x, dtype=float)
        for idx, t in letters:
            y = self.letter(y, idx, t)
        return y

    def word_jac(self, x, letters):
        """Endpoint and Jacobian of the word map at x."""
        y = np.array(x, dtype=float)
        M = np.eye(self.dim)
        for idx, t in letters:
            M = self.letter_jac(y, idx, t) @ M
            y = self.letter(y, idx, t)
        return y, M

    def enlarged(self, x, letters, base, nu):
        """Value at x of nu*X_base pushed forward through the word."""
        inv = [(i, -t) for i, t in reversed(letters)]
        z = self.word(x, inv)
        _, M = self.word_jac(z, letters)
        return M @ (nu * self.field(base, z))

    def guard_limit(self, x, k: float) -> float:
        """Smallness bound r/k at x for the family domain used as lb region."""
        r = (self.radius - chart_norm(x, self.norm)) / 2.0
        return r / k


class Heisenberg(Model):
    """X1 = (1,0,0), X2 = (0,1,x), and with ``full`` X3 = (0,0,1)."""

    def __init__(self, radius: float = 8.0, full: bool = False):
        self.dim = 3
        self.radius = float(radius)
        self.count = 3 if full else 2
        v = math.sqrt(1.0 + self.radius ** 2)
        self.declared = {0: v, 1: v + 1.0, 2: v + 1.0, 3: v + 1.0}

    def field(self, i, x):
        return [np.array([1.0, 0, 0]), np.array([0, 1.0, x[0]]), np.array([0, 0, 1.0])][i]

    def jac(self, i, x):
        m = np.zeros((3, 3))
        if i == 1:
            m[2, 0] = 1.0
        return m

    def letter(self, x, i, t):
        x, y, z = x
        if i == 0:
            return np.array([x + t, y, z])
        if i == 1:
            return np.array([x, y + t, z + x * t])
        return np.array([x, y, z + t])

    def letter_jac(self, x, i, t):
        m = np.eye(3)
        if i == 1:
            m[2, 0] = t
        return m

    def piece(self, x, coeffs, h):
        """Exact flow for time h of sum_a u_a X_a, with its Jacobian."""
        u1 = coeffs.get(0, 0.0)
        u2 = coeffs.get(1, 0.0)
        u3 = coeffs.get(2, 0.0)
        x0, y0, z0 = x
        out = np.array([x0 + u1 * h, y0 + u2 * h, z0 + u2 * (x0 * h + 0.5 * u1 * h * h) + u3 * h])
        m = np.eye(3)
        m[2, 0] = u2 * h
        return out, m

    def jet_upper(self, order: int) -> float:
        """Upper bound of the order-s jet norm sum over the domain (euclidean)."""
        v = math.sqrt(1.0 + self.radius ** 2)
        return v + (1.0 if order >= 1 else 0.0)

    def jet_center(self) -> float:
        """Exact order<=1 jet norm sum at the domain centre, maximised over members."""
        return 2.0  # X2 at 0: |(0,1,0)| + |J| = 1 + 1


class AffineL1(Model):
    """X_a(x) = [x +] decay^a e_a on an l1 chart (orbitkit's affine-l1)."""

    norm = "l1"

    def __init__(self, dim: int, count: int, decay: float, linear: bool, radius: float = 4.0):
        self.dim = dim
        self.count = count
        self.decay = decay
        self.linear = linear
        self.radius = float(radius)
        amax = 1.0
        if linear:
            self.declared = {s: self.radius + amax + (1.0 if s >= 1 else 0.0) for s in range(4)}
        else:
            self.declared = {s: amax for s in range(4)}

    def direction(self, a):
        d = np.zeros(self.dim)
        d[a] = self.decay ** a
        return d

    def field(self, a, x):
        d = self.direction(a)
        return np.asarray(x, dtype=float) + d if self.linear else d

    def jac(self, a, x):
        return np.eye(self.dim) if self.linear else np.zeros((self.dim, self.dim))

    def letter(self, x, a, t):
        d = self.direction(a)
        if self.linear:
            return math.exp(t) * (np.asarray(x) + d) - d
        return np.asarray(x) + t * d

    def letter_jac(self, x, a, t):
        return math.exp(t) * np.eye(self.dim) if self.linear else np.eye(self.dim)

    def piece(self, x, coeffs, h):
        b = np.zeros(self.dim)
        s = 0.0
        for a, u in coeffs.items():
            b += u * self.direction(a)
            s += u
        if not self.linear:
            return np.asarray(x) + h * b, np.eye(self.dim)
        g = math.exp(s * h)
        phi = h if s == 0.0 else math.expm1(s * h) / s
        return g * np.asarray(x) + phi * b, g * np.eye(self.dim)

    def jet_upper(self, order: int) -> float:
        return self.declared[order]

    def jet_center(self) -> float:
        return 2.0 if self.linear else 1.0  # |d_0|_1 = 1, plus |I| when linear


class Grushin(Model):
    """X1 = (1,0), X2 = (0,x) on R^2."""

    def __init__(self, radius: float = 4.0):
        self.dim = 2
        self.count = 2
        self.radius = float(radius)
        r = self.radius
        self.declared = {0: max(1.0, r), 1: r + 1.0, 2: r + 1.0, 3: r + 1.0}

    def field(self, i, x):
        return np.array([1.0, 0.0]) if i == 0 else np.array([0.0, x[0]])

    def jac(self, i, x):
        m = np.zeros((2, 2))
        if i == 1:
            m[1, 0] = 1.0
        return m

    def jet_upper(self, order: int) -> float:
        return max(1.0, self.radius + (1.0 if order >= 1 else 0.0))

    def jet_center(self) -> float:
        return 1.0  # X1: |(1,0)| = 1; X2 at 0: 0 + |J| = 1


class Chain(Model):
    """Polynomial chain X1 = e1, X2 = e2 + sum_k c_k x0^k e_{k+2} on R^d.

    Generation k of the bracket chain adds exactly one new direction
    (ad_{X1}^{k-1} X2 has leading term (k-1)! c_{k-1} e_{k+1}), so the exact
    rank profile at every point is (2, 3, ..., d).
    """

    def __init__(self, dim: int, coeffs, radius: float):
        self.dim = dim
        self.count = 2
        self.coeffs = [float(c) for c in coeffs]  # c_1 .. c_{d-2}
        self.radius = float(radius)

    def field(self, i, x):
        v = np.zeros(self.dim)
        if i == 0:
            v[0] = 1.0
            return v
        v[1] = 1.0
        for k, c in enumerate(self.coeffs, start=1):
            v[k + 1] = c * x[0] ** k
        return v

    def jac(self, i, x):
        m = np.zeros((self.dim, self.dim))
        if i == 1:
            for k, c in enumerate(self.coeffs, start=1):
                m[k + 1, 0] = k * c * x[0] ** (k - 1)
        return m

    def _deriv_norm(self, order: int, x0: float) -> float:
        """Euclidean norm of d^order/dx0^order of X2's polynomial components."""
        acc = 0.0
        for k, c in enumerate(self.coeffs, start=1):
            if k >= order:
                acc += (c * math.perm(k, order) * x0 ** (k - order)) ** 2
        return math.sqrt(acc)

    def jet_upper(self, order: int) -> float:
        r = self.radius
        total = math.sqrt(1.0 + self._deriv_norm(0, r) ** 2)
        for s in range(1, order + 1):
            total += self._deriv_norm(s, r)
        return total

    def jet_center(self) -> float:
        # X2 at 0: value e2, Jacobian column c_1 e3
        return 1.0 + abs(self.coeffs[0]) if self.coeffs else 1.0

    def rank_profile(self, k_max: int) -> tuple[int, ...]:
        out = []
        for k in range(1, k_max + 1):
            out.append(min(k + 1, self.dim))
            if out[-1] >= self.dim:
                break
        return tuple(out)


class Wave(Model):
    """Callable fields without analytic Jacobians on R^d:
    X1 = e0, X2 = sum_k a_k sin(k x0 + p_k) e_k (k = 1..d-1).

    The flow of X2 leaves x0 fixed, so both letters have closed forms.
    """

    def __init__(self, dim: int, amps, phases, radius: float = 3.0):
        self.dim = dim
        self.count = 2
        self.amps = np.asarray(amps, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.k = np.arange(1, dim, dtype=float)
        self.radius = float(radius)

    def _x2(self, x0):
        v = np.zeros(self.dim)
        v[1:] = self.amps * np.sin(self.k * x0 + self.phases)
        return v

    def _dx2(self, x0):
        v = np.zeros(self.dim)
        v[1:] = self.amps * self.k * np.cos(self.k * x0 + self.phases)
        return v

    def field(self, i, x):
        if i == 0:
            v = np.zeros(self.dim)
            v[0] = 1.0
            return v
        return self._x2(x[0])

    def jac(self, i, x):
        m = np.zeros((self.dim, self.dim))
        if i == 1:
            m[:, 0] = self._dx2(x[0])
        return m

    def jet_upper(self, order: int) -> float:
        """Bound of the order-s jet norm sum: d^s/dx0^s scales component k by k^s."""
        return max(1.0, sum(float(np.linalg.norm(self.amps * self.k ** s)) for s in range(order + 1)))

    def letter(self, x, i, t):
        y = np.array(x, dtype=float)
        if i == 0:
            y[0] += t
        else:
            y += t * self._x2(y[0])
        return y

    def letter_jac(self, x, i, t):
        m = np.eye(self.dim)
        if i == 1:
            m[:, 0] += t * self._dx2(x[0])
        return m


def bracket(model: Model, i: int, j: int, x) -> np.ndarray:
    """[X_i, X_j](x) = DX_j X_i - DX_i X_j (orbitkit's convention)."""
    return model.jac(j, x) @ model.field(i, x) - model.jac(i, x) @ model.field(j, x)


def numerical_rank(vectors, rel_tol: float = 1e-8) -> int:
    s = np.linalg.svd(np.asarray(vectors, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
