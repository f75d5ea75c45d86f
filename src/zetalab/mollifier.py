"""Mollifier polynomial, predicted main-term factors, and the ratio optimiser.

The mollifier is the short Dirichlet polynomial with coefficients
b(k) = mu(k) P(log(y/k)/log y), where P has real coefficients, no constant
term, and P(1) = 1, and y = T^theta with 0 < theta < 1/2.  ``b_table`` is
the one evaluator of b: every caller indexes its values.  All first/second
moment main terms reduce to closed forms in the two polynomial moments

    int_0^1 P,   int_0^1 P'^2,

which are evaluated exactly from the coefficients.  theta = 1/2 is accepted
by the factor-level functions as the limiting substitution (the closed forms
are continuous there); MollifierSpec itself keeps the strict range.  The
P maximising s1^2 / s2 is one symmetric linear solve (``optimize_P``) in plain
Python; the functions that use numpy or ``arith`` import them on call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import ReadOnly, _polyval

if TYPE_CHECKING:
    from .arith import ArithFnTable

KAPPA_MULTIPLICITY_CONSTANT = 1.3275  # external multiplicity-sum input, not recomputed


class MollifierPolynomial(ReadOnly):
    """P(x) = sum_j c_j x^j with c = coefficients, so P(0) = 0 by construction.

    Requires P(1) = sum c_j = 1 to 1e-12.
    """

    def __init__(self, coefficients):
        if len(coefficients) < 1:
            raise ValueError("polynomial needs at least the linear coefficient")
        coefficients = tuple(float(c) for c in coefficients)
        s = math.fsum(coefficients)
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"P(1) = {s!r} must equal 1 to 1e-12")
        vars(self).update(coefficients=coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def __call__(self, x):
        return x * _polyval(x, self.coefficients)

    def derivative_at(self, x):
        return _polyval(x, [(j + 1) * c for j, c in enumerate(self.coefficients)])

    def integral(self) -> float:
        """int_0^1 P(u) du = sum c_j / (j+1)."""
        return math.fsum(c / (j + 2) for j, c in enumerate(self.coefficients))

    def integral_deriv_square(self) -> float:
        """int_0^1 P'(u)^2 du = sum_{i,j} i j c_i c_j / (i+j-1)."""
        c = self.coefficients
        return math.fsum(
            (i + 1) * (j + 1) * c[i] * c[j] / (i + j + 1)
            for i in range(len(c))
            for j in range(len(c))
        )

    def sup_norm_01(self) -> float:
        """max_{0<=x<=1} |P(x)| via the critical points of P."""
        import numpy as np

        candidates = [0.0, 1.0]
        dcoeffs = [(j + 1) * c for j, c in enumerate(self.coefficients)]
        if len(dcoeffs) > 1:
            roots = np.roots(list(reversed(dcoeffs)))
            for r in roots:
                if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
                    candidates.append(float(r.real))
        return max(abs(self(x)) for x in candidates)


def paper_quadratic(theta: float) -> MollifierPolynomial:
    """The quadratic choice (1 + theta) x - theta x^2."""
    return MollifierPolynomial((1.0 + theta, -theta))


class MollifierSpec(ReadOnly):
    """Run parameters: theta in (0, 1/2), finite T > 2*pi, y = T^theta, polynomial P."""

    def __init__(self, theta: float, T: float, y: float, P: MollifierPolynomial):
        if not (math.isfinite(T) and math.isfinite(y)):
            raise ValueError(f"T = {T} and y = {y} must be finite")
        if not 0.0 < theta < 0.5:
            raise ValueError(f"theta = {theta} outside (0, 1/2)")
        if T <= 2 * math.pi:
            raise ValueError(f"T = {T} must exceed 2*pi")
        if abs(y - T**theta) > 1e-9 * y:
            raise ValueError(f"y = {y} is not T^theta = {T**theta}")
        if y <= 1.0:
            raise ValueError(f"y = T^theta = {y} must exceed 1 (theta = {theta})")
        vars(self).update(theta=theta, T=T, y=y, P=P)

    @classmethod
    def from_T_theta(cls, T: float, theta: float, P: MollifierPolynomial | None = None):
        if P is None:
            P = paper_quadratic(theta)
        return cls(theta=theta, T=T, y=T**theta, P=P)

    @classmethod
    def with_y(cls, T: float, y: float, P: MollifierPolynomial | None = None):
        """Spec with an explicit support cutoff; theta is derived as log y / log T."""
        if T <= 2 * math.pi:
            raise ValueError(f"T = {T} must exceed 2*pi")
        if y <= 0:
            raise ValueError(f"theta = log y / log T outside (0, 1/2): y = {y} <= 0")
        theta = math.log(y) / math.log(T)
        if P is None:
            P = paper_quadratic(theta)
        return cls(theta=theta, T=T, y=y, P=P)

    @property
    def log_scale(self) -> float:
        """L = log(T / 2 pi)."""
        return math.log(self.T / (2 * math.pi))


# ---------------------------------------------------------------------------
# closed-form main-term factors (theta in (0, 1/2], limit substitution at 1/2)


def _check_theta(theta: float, positive: bool = False) -> None:
    if not 0.0 <= theta <= 0.5:
        raise ValueError(f"theta = {theta} outside [0, 1/2]")
    if positive and theta == 0.0:
        raise ValueError("theta = 0 hits the 1/theta singularity")


def s1_factor(P: MollifierPolynomial, theta: float) -> float:
    """1/2 + theta * int P."""
    _check_theta(theta)
    return 0.5 + theta * P.integral()


def s2_factor(P: MollifierPolynomial, theta: float) -> float:
    """1/3 + theta int P + theta^2 (int P)^2 + (1/(12 theta)) int P'^2."""
    _check_theta(theta, positive=True)
    ip = P.integral()
    return 1.0 / 3.0 + theta * ip + (theta * ip) ** 2 + P.integral_deriv_square() / (12 * theta)


def m11_factor(P: MollifierPolynomial, theta: float) -> float:
    """1/2 - theta * int P."""
    _check_theta(theta)
    return 0.5 - theta * P.integral()


def kappa_star_lower(s1: float, s2: float) -> float:
    """s1^2 / s2, the asymptotic simple-zero proportion bound."""
    if s2 <= 0:
        raise ValueError(f"s2 factor must be positive, got {s2}")
    return s1 * s1 / s2


def kappa_d_lower(kappa_star: float) -> float:
    """(5 + 2 kappa_star - KAPPA_MULTIPLICITY_CONSTANT) / 6."""
    if not 0.0 <= kappa_star <= 1.0:
        raise ValueError(f"kappa_star = {kappa_star} outside [0, 1]")
    return (5.0 + 2.0 * kappa_star - KAPPA_MULTIPLICITY_CONSTANT) / 6.0


# ---------------------------------------------------------------------------
# ratio optimisation over {P : P(0) = 0, P(1) = 1}


def optimize_P(theta: float, degree: int) -> tuple[MollifierPolynomial, float]:
    """Maximise s1_factor^2 / s2_factor over degree-d polynomials with
    P(0) = 0, P(1) = 1.

    With the constraint substituted, s1 = ap.c and s2 = c.Bp c, where
    v_i = 1/(i+2), ap_i = 1/2 + theta v_i and Bp_ij = 1/3 + theta (v_i + v_j)/2
    + theta^2 v_i v_j + (i+1)(j+1) / (12 theta (i+j+1)).  Bp is positive
    definite, so the quotient is maximal at w = Bp^{-1} ap (one Cholesky
    solve), normalised to c = w / sum w; at degree 1 that is P(x) = x.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not 0.0 < theta <= 0.5:
        raise ValueError(f"theta = {theta} outside (0, 1/2]")
    # Bp = L L^T row by row, then L y = ap; v, L's rows and y grow as the solve reaches them,
    # so a pivot test that rejects early has allocated only the rows before it
    v, L, y = [], [], []
    for i in range(degree):
        v.append(1.0 / (i + 2))
        L.append([])
        for j in range(i + 1):
            bp = (1.0 / 3.0 + 0.5 * theta * (v[i] + v[j]) + theta**2 * v[i] * v[j]
                  + (i + 1) * (j + 1) / (12.0 * theta * (i + j + 1)))
            s = bp - math.fsum(L[i][k] * L[j][k] for k in range(j))
            if i == j and not s > 0.0:
                raise ValueError(f"degenerate normal equations at theta={theta}, "
                                 f"degree={degree}: pivot {i} is {s!r}")
            L[i].append(math.sqrt(s) if i == j else s / L[j][j])
        y.append((0.5 + theta * v[i] - math.fsum(L[i][k] * y[k] for k in range(i))) / L[i][i])
    w = [0.0] * degree
    for i in reversed(range(degree)):
        w[i] = (y[i] - math.fsum(L[k][i] * w[k] for k in range(i + 1, degree))) / L[i][i]
    z0 = math.fsum(w)
    if abs(z0) < 1e-12 * math.hypot(z0, *w):
        raise ValueError(f"degenerate normal equations: optimiser escaped to infinity "
                         f"(z0 = {z0!r}) at theta={theta}, degree={degree}")
    poly = MollifierPolynomial(tuple(wi / z0 for wi in w))
    return poly, kappa_star_lower(s1_factor(poly, theta), s2_factor(poly, theta))


# ---------------------------------------------------------------------------
# b coefficients and the Dirichlet polynomial B(s)


def b_table(spec: MollifierSpec, limit: int) -> ArithFnTable:
    """b(k) = mu(k) P(log(y/k)/log y) on [1..limit], zero beyond the cutoff y;
    log(y/k) per k by math.log, as np.log rounds a few arguments differently."""
    import numpy as np

    from . import arith

    mu = arith.sieve_standard("mobius", int(spec.y)).values.tolist()
    log_y = math.log(spec.y)
    values = np.zeros(limit + 1)
    for k in range(1, min(limit, int(spec.y)) + 1):
        if mu[k]:
            values[k] = mu[k] * spec.P(math.log(spec.y / k) / log_y)
    return arith.ArithFnTable(values)


def eval_B(s: complex, spec: MollifierSpec) -> complex:
    """B(s) = sum_{k <= y} b(k) k^{-s}."""
    total = 0.0 + 0.0j
    for k, bk in enumerate(b_table(spec, int(spec.y)).values.tolist()):
        if bk != 0.0:
            total += bk * complex(k) ** (-s)
    return total


def quadrature_01(fn) -> float:
    """64-node Gauss-Legendre integral of fn over [0, 1], the cross-check route
    for the closed-form moments; the nodes are built per call, not at import."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(64)
    return float(np.dot(0.5 * weights, [fn(x) for x in 0.5 * (nodes + 1.0)]))
