import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import mollifier as mo
from zetalab.mollifier import MollifierPolynomial, MollifierSpec


def random_poly(rng, degree):
    raw = rng.uniform(-2, 2, degree)
    return MollifierPolynomial(tuple(raw / raw.sum()))


def test_polynomial_constraints():
    p = mo.paper_quadratic(0.5)
    assert p(0.0) == 0.0
    assert p(1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        MollifierPolynomial((0.7, 0.2))  # P(1) != 1
    with pytest.raises(ValueError):
        MollifierPolynomial(())


def test_spec_invariants():
    spec = MollifierSpec.from_T_theta(1000.0, 0.3)
    assert spec.y == pytest.approx(1000.0**0.3, rel=1e-12)
    with pytest.raises(ValueError):
        MollifierSpec(theta=0.6, T=1000.0, y=1000.0**0.6, P=mo.paper_quadratic(0.5))
    with pytest.raises(ValueError):
        MollifierSpec(theta=0.3, T=1000.0, y=55.5, P=mo.paper_quadratic(0.3))
    derived = MollifierSpec.with_y(1000.0, 12.0)
    assert derived.y == pytest.approx(1000.0**derived.theta, rel=1e-12)
    with pytest.raises(ValueError, match="must exceed 1"):
        MollifierSpec.from_T_theta(1000.0, 1e-18)  # y = T^theta rounds to 1.0


@pytest.mark.parametrize("T", [math.nan, math.inf])
@pytest.mark.parametrize("build", [lambda T: MollifierSpec.from_T_theta(T, 0.3),
                                   lambda T: MollifierSpec.with_y(T, 12.0)],
                         ids=["from_T_theta", "with_y"])
def test_spec_rejects_a_non_finite_height(build, T):
    """A nan T gets past every comparison and an inf T past T > 2 pi; the error names T."""
    with pytest.raises(ValueError, match=f"T = {T} .*must be finite"):
        build(T)


def test_b_table_examples():
    spec = MollifierSpec.with_y(1000.0, 12.0)
    b = mo.b_table(spec, 13)
    assert b[1] == 1.0
    assert b[4] == 0.0  # mu(4) = 0
    assert b[13] == 0.0  # beyond the support cutoff
    assert b[2] == -spec.P(math.log(spec.y / 2) / math.log(spec.y))


def mobius_trial(k):
    """mu(k) by trial division."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def test_b_table_bitwise_against_scalar_formula(rng):
    """Every entry, signed zeros included, equals mu(k) P(log(y/k)/log y)
    with mu by trial division, and 0.0 where mu(k) = 0 or k > y."""
    specs = [MollifierSpec.with_y(1000.0, 1.5), MollifierSpec.with_y(80.0, 7.9),
             MollifierSpec.with_y(1000.0, 12.0), MollifierSpec.from_T_theta(1e4, 0.37),
             MollifierSpec.with_y(5000.0, 37.3, random_poly(rng, 4)),
             MollifierSpec.with_y(2e4, 64.0, random_poly(rng, 6))]
    for spec in specs:
        for limit in (1, int(spec.y) // 2, int(spec.y), int(spec.y) + 5):
            if limit < 1:
                continue
            want = [0.0] * (limit + 1)
            for k in range(1, limit + 1):
                mu = mobius_trial(k)
                if mu and k <= spec.y:
                    want[k] = mu * spec.P(math.log(spec.y / k) / math.log(spec.y))
            got = mo.b_table(spec, limit)
            assert got.limit == limit
            assert got.values.tobytes() == np.array(want).tobytes()


def eval_B_oracle(s, spec):
    """Independent term sum: explicit mu values, explicit powers."""
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 11: -1, 12: 0}
    total = 0j
    k = 1
    while k <= spec.y:
        if mu[k]:
            total += mu[k] * spec.P(math.log(spec.y / k) / math.log(spec.y)) * k ** (-s)
        k += 1
    return total


def test_eval_B(rng):
    tiny = MollifierSpec.with_y(1000.0, 1.5)
    for _ in range(5):
        s = complex(rng.uniform(-1, 2), rng.uniform(-30, 30))
        assert mo.eval_B(s, tiny) == 1.0 + 0.0j
    spec = MollifierSpec.with_y(1000.0, 3.0, MollifierPolynomial((1.0,)))
    # only k = 1, 2 contribute: b(3) = -P(0) = 0
    want = 1.0 - math.log(3.0 / 2.0) / math.log(3.0)
    assert mo.eval_B(0.0, spec) == pytest.approx(want, rel=1e-14)
    assert mo.eval_B(0.0, spec) == pytest.approx(eval_B_oracle(0.0, spec).real, rel=1e-14)
    big = MollifierSpec.with_y(2000.0, 10.0)
    for _ in range(5):
        s = complex(rng.uniform(0, 1), rng.uniform(-20, 20))
        assert mo.eval_B(s.conjugate(), big) == pytest.approx(
            mo.eval_B(s, big).conjugate(), rel=1e-12
        )
        assert mo.eval_B(s, big) == pytest.approx(eval_B_oracle(s, big), rel=1e-12)


def test_predicted_factors_paper_values():
    quad = mo.paper_quadratic(0.5)
    assert mo.s1_factor(quad, 0.5) == pytest.approx(19 / 24, abs=1e-15)
    assert mo.s2_factor(quad, 0.5) == pytest.approx(57 / 64, abs=1e-15)
    line = MollifierPolynomial((1.0,))
    assert mo.s1_factor(line, 0.4) == pytest.approx(0.7, abs=1e-15)
    assert mo.s1_factor(line, 0.0) == 0.5
    assert mo.s2_factor(line, 0.5) == pytest.approx(0.8125, abs=1e-15)
    assert mo.m11_factor(line, 0.4) == pytest.approx(0.3, abs=1e-15)


def test_s2_floor_and_theta_zero_rejection(rng):
    for _ in range(20):
        p = random_poly(rng, int(rng.integers(1, 7)))
        theta = float(rng.uniform(0.01, 0.5))
        assert mo.s2_factor(p, theta) >= 1 / 3
    with pytest.raises(ValueError):
        mo.s2_factor(mo.paper_quadratic(0.3), 0.0)


def test_closed_forms_match_quadrature(rng):
    for _ in range(25):
        p = random_poly(rng, int(rng.integers(1, 7)))
        assert p.integral() == pytest.approx(mo.quadrature_01(p), abs=1e-12)
        assert p.integral_deriv_square() == pytest.approx(
            mo.quadrature_01(lambda x: p.derivative_at(x) ** 2), abs=1e-12
        )


def test_main_term_consistency(rng):
    for _ in range(25):
        p = random_poly(rng, int(rng.integers(1, 7)))
        theta = float(rng.uniform(0.02, 0.5))
        assert mo.s1_factor(p, theta) + mo.m11_factor(p, theta) == pytest.approx(1.0, abs=1e-12)


def test_optimize_degree2_grid():
    for theta in (0.1, 0.2, 0.3, 0.4, 0.49):
        poly, value = mo.optimize_P(theta, 2)
        assert poly.coefficients[0] == pytest.approx(1 + theta, abs=1e-6)
        assert poly.coefficients[1] == pytest.approx(-theta, abs=1e-6)
        paper_value = mo.kappa_star_lower(
            mo.s1_factor(mo.paper_quadratic(theta), theta),
            mo.s2_factor(mo.paper_quadratic(theta), theta),
        )
        assert value >= paper_value - 1e-12


def test_optimize_degree1_and_monotonicity():
    poly, _ = mo.optimize_P(0.37, 1)
    assert poly.coefficients == (1.0,)
    prev = 0.0
    for degree in (1, 2, 3, 4, 5):
        _, value = mo.optimize_P(0.45, degree)
        assert value >= prev - 1e-12
        prev = value
    with pytest.raises(ValueError):
        mo.optimize_P(0.3, 0)
    with pytest.raises(ValueError):
        mo.optimize_P(0.7, 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.floats(0.02, 0.5), st.integers(2, 8))
def test_optimize_is_stationary_on_the_constraint_slice(theta, degree):
    """Optimality without the solver: kappa* is s1^2 / s2 of the returned
    coefficients, and no step c + h (e_i - e_j), which keeps P(1) = 1,
    raises that quotient."""
    poly, value = mo.optimize_P(theta, degree)

    def quotient(coefficients):
        p = MollifierPolynomial(tuple(coefficients))
        return mo.s1_factor(p, theta) ** 2 / mo.s2_factor(p, theta)

    assert value == pytest.approx(quotient(poly.coefficients), rel=1e-13, abs=0)
    c = np.array(poly.coefficients)
    for i, j in itertools.permutations(range(degree), 2):
        for h in (1e-4, -1e-4):
            step = c.copy()
            step[i] += h
            step[j] -= h
            assert quotient(step) <= value * (1 + 1e-12)


def optimize_P_numpy(theta, degree):
    """The earlier route, kept as the oracle: the forms in homogeneous
    coordinates z = (1, c), restricted to the hyperplane -z_0 + sum c_j = 0
    through the basis (1, 1, 0, ...), e_i - e_{i+1}, and np.linalg.solve."""
    j = np.arange(1, degree + 1, dtype=np.float64)
    v = 1.0 / (j + 1.0)
    deriv = np.outer(j, j) / (j[:, None] + j[None, :] - 1.0)
    a = np.concatenate(([0.5], theta * v))
    B = np.zeros((degree + 1, degree + 1))
    B[0, 0] = 1.0 / 3.0
    B[0, 1:] = B[1:, 0] = 0.5 * theta * v
    B[1:, 1:] = theta**2 * np.outer(v, v) + deriv / (12.0 * theta)
    Z = np.eye(degree + 1, degree) - np.eye(degree + 1, degree, k=-1)
    Z[1, 0] = 1.0
    z = Z @ np.linalg.solve(Z.T @ B @ Z, Z.T @ a)
    c = z[1:] / z[0]
    poly = MollifierPolynomial(tuple(c / math.fsum(c.tolist())))
    return poly, mo.kappa_star_lower(mo.s1_factor(poly, theta), mo.s2_factor(poly, theta))


@pytest.mark.parametrize("theta", [0.02, 0.05] + [k / 20 for k in range(2, 11)])
def test_optimize_matches_the_numpy_route(theta):
    """kappa* agrees to 1e-13; the coefficients only to about 1e-7 at degree 8,
    where the quotient is flat and Bp's condition number is about 1e10."""
    for degree in range(1, 9):
        poly, value = mo.optimize_P(theta, degree)
        ref_poly, ref_value = optimize_P_numpy(theta, degree)
        assert value == pytest.approx(ref_value, rel=1e-13, abs=0)
        assert np.allclose(poly.coefficients, ref_poly.coefficients, rtol=0, atol=1e-6)
    assert mo.optimize_P(theta, 1)[0].coefficients == (1.0,)


def test_optimize_rejects_before_it_builds_the_rows_past_the_failed_pivot():
    """At theta = 1/2 the Cholesky pivot 12 is not positive at any degree >= 13, and the
    solve stops there with the rows it has built, not a degree x degree matrix."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"degree=1000000: pivot 12 is -4\.276579090856103e-13$"):
            mo.optimize_P(0.5, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_polynomial_and_derivative_are_the_horner_loops(rng):
    """P(x) and P'(x) through the shared Horner helper, bitwise against the two loops
    they replace, at random polynomials and points."""
    for _ in range(2000):
        p = random_poly(rng, int(rng.integers(1, 12)))
        x = float(rng.uniform(-2, 2))
        acc = 0.0
        for c in reversed(p.coefficients):
            acc = acc * x + c
        assert p(x) == acc * x
        acc = 0.0
        for j in range(p.degree, 0, -1):
            acc = acc * x + j * p.coefficients[j - 1]
        assert p.derivative_at(x) == acc


def test_kappa_arithmetic():
    assert mo.kappa_star_lower(19 / 24, 57 / 64) == pytest.approx(19 / 27, abs=1e-15)
    assert mo.kappa_star_lower(0.75, 0.8125) == pytest.approx(0.75**2 / 0.8125, abs=1e-15)
    assert mo.kappa_star_lower(0.8, 0.9) > mo.kappa_star_lower(0.7, 0.9)
    with pytest.raises(ValueError):
        mo.kappa_star_lower(0.5, 0.0)
    assert mo.kappa_d_lower(19 / 27) == pytest.approx(0.8466512345679012, abs=1e-12)
    assert mo.kappa_d_lower(19 / 27) >= 0.84665
    assert mo.kappa_d_lower(2 / 3) == pytest.approx((5 + 4 / 3 - 1.3275) / 6, abs=1e-15)
    assert mo.kappa_d_lower(0.9) > mo.kappa_d_lower(0.3)
    with pytest.raises(ValueError):
        mo.kappa_d_lower(1.2)


def test_main_term_report():
    """The main terms of the paper's quadratic at theta = 1/2, from the
    closed-form factors: kappa* = 19/27 and s1 + m11 = 1 with m11 = 5/24."""
    p = mo.paper_quadratic(0.5)
    s1, s2, m11 = mo.s1_factor(p, 0.5), mo.s2_factor(p, 0.5), mo.m11_factor(p, 0.5)
    assert mo.kappa_star_lower(s1, s2) == pytest.approx(19 / 27, abs=1e-14)
    assert m11 == pytest.approx(5 / 24, abs=1e-15)
    assert s1 + m11 == pytest.approx(1.0, abs=1e-14)


def test_sup_norm():
    p = mo.paper_quadratic(0.5)  # increasing on [0, 1], max at 1
    assert p.sup_norm_01() == pytest.approx(1.0, abs=1e-12)
    spike = MollifierPolynomial((4.0, -3.0))  # vertex above 1 inside (0, 1)
    assert spike.sup_norm_01() == pytest.approx(4.0 / 3.0, abs=1e-12)
