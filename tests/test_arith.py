import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_reachability import JOB_PARAMS
from zetalab import arith, vaughan as va, zeta as ze
from zetalab.arith import ArithFnTable, dirichlet_convolve, sieve_standard
from zetalab.intfun import factorize, mobius_int


def brute_convolve(f, g, n):
    """Direct divisor-sum oracle."""
    return math.fsum(f[d] * g[n // d] for d in range(1, n + 1) if n % d == 0)


def kahan_convolve(a, b, n):
    """Divisor-loop kernel with per-entry Kahan compensation: one pass per d in
    the support of a, over all of b.  Oracle for arith.convolve_values."""
    out = np.zeros(n + 1)
    comp = np.zeros(n + 1)
    for d in np.nonzero(a[1 : n + 1])[0] + 1:
        m = n // d
        addend = a[d] * b[1 : m + 1]
        sl = slice(d, d * m + 1, d)
        y = addend - comp[sl]
        t = out[sl] + y
        comp[sl] = (t - out[sl]) - y
        out[sl] = t
    return out


def random_values(rng, n, nonzeros=None):
    values = np.zeros(n + 1)
    if nonzeros is None:
        values[1:] = rng.uniform(-1, 1, n)
    else:
        support = rng.choice(np.arange(1, n + 1), min(n, nonzeros), replace=False)
        values[support] = rng.uniform(-1, 1, len(support))
    return values


def random_table(rng, limit):
    values = np.zeros(limit + 1)
    values[1:] = rng.uniform(-1, 1, limit)
    return ArithFnTable(values)


SIEVED = ("mobius", "vonmangoldt") + tuple(f"tau_{k}" for k in range(2, 10))


def prime_power_sieve(name, n):
    """The sieved tables as built before the smallest-prime-factor table: Eratosthenes
    for the primes, then one pass over the prime powers p^j <= n, replacing the p-part
    f(p^(j-1)) of each multiple of p^j by f(p^j), exactly in int64.  Bitwise oracle."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    k = int(name[4:]) if name.startswith("tau_") else 0
    if name == "vonmangoldt":
        values = np.zeros(n + 1)
    else:
        values = np.ones(n + 1, dtype=np.int64)
        values[0] = 0
    for p in np.flatnonzero(mask).tolist():
        q, j, prev = p, 1, 1
        while q <= n:
            if name == "vonmangoldt":
                values[q] = math.log(p)
            elif name == "mobius":
                values[q::q] *= -1 if j == 1 else 0
            else:
                cur = prev * (j + k - 1) // j
                block = values[q::q]
                block //= prev
                block *= cur
                prev = cur
            q *= p
            j += 1
    return values.astype(np.float64)


def per_integer(name, n, fac):
    """f(n) from n's factorisation fac: mobius_int, log p at n = p^j, prod C(a + k - 1, k - 1)."""
    if name == "mobius":
        return mobius_int(n)
    if name == "vonmangoldt":
        return math.log(fac[0][0]) if len(fac) == 1 else 0.0
    k = int(name[4:])
    return math.prod(math.comb(a + k - 1, k - 1) for _, a in fac)


def test_smallest_prime_factors():
    for n, want in enumerate([[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 2]]):
        spf = arith.smallest_prime_factors(n)
        assert spf.dtype == np.int32 and spf.tolist() == want
    spf = arith.smallest_prime_factors(5000)
    assert all(spf[n] == factorize(n)[0][0] for n in range(2, 5001))


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 10**5])
def test_sieve_matches_the_prime_power_loop(monkeypatch, limit):
    monkeypatch.setattr(arith, "_prefix_tables", {})
    for name in SIEVED:
        values = sieve_standard(name, limit).values
        assert values.tobytes() == prime_power_sieve(name, limit).tobytes(), name
        if name == "mobius":
            assert not (np.signbit(values) & (values == 0.0)).any()  # no -0.0


def test_sieve_against_per_integer_routes(monkeypatch):
    """Every n <= 5000, 2000 seeded n <= 1e6 and the primes p <= 1e6 at which numpy's
    vectorised log (AVX-512) rounds apart from math.log, against factorize and mobius_int."""
    monkeypatch.setattr(arith, "_prefix_tables", {})
    seeded = np.random.default_rng(20261019).integers(1, 10**6, 2000, endpoint=True)
    log_apart = [285343, 287549, 351497, 504631, 664679, 757811, 857953]
    assert all(factorize(p) == ((p, 1),) for p in log_apart)
    ns = list(range(1, 5001)) + seeded.tolist() + log_apart
    facs = [factorize(n) for n in ns]
    for name in SIEVED:
        values = sieve_standard(name, 10**6).values
        got = [float(values[n]) for n in ns]
        assert got == [per_integer(name, n, fac) for n, fac in zip(ns, facs)], name
        del arith._prefix_tables[name]  # one 8 MB table at a time, beside the 4 MB spf


def test_sieve_spot_values():
    mu = sieve_standard("mobius", 30)
    assert mu[1] == 1 and mu[2] == -1 and mu[4] == 0
    assert mu[6] == 1  # mu(2) mu(3) = (-1)(-1)
    lam = sieve_standard("vonmangoldt", 30)
    assert lam[1] == 0.0
    assert lam[8] == pytest.approx(math.log(2), abs=0)
    assert lam[12] == 0.0
    log = sieve_standard("log", 30)
    assert log[1] == 0.0 and log[10] == pytest.approx(math.log(10))
    one = sieve_standard("one", 30)
    assert all(one[n] == 1.0 for n in range(1, 31))
    tau2 = sieve_standard("tau_2", 30)
    assert tau2[1] == 1.0 and tau2[6] == 4.0 and tau2[12] == 6.0
    for k in range(2, 10):
        assert sieve_standard(f"tau_{k}", 10)[1] == 1.0


def test_sieve_rejections():
    with pytest.raises(ValueError):
        sieve_standard("totient", 10)
    with pytest.raises(ValueError):
        sieve_standard("mobius", 0)


def test_tau_k_is_iterated_convolution():
    one = sieve_standard("one", 200)
    t = one
    for k in range(2, 6):
        t = dirichlet_convolve(t, one, 200)
        assert np.array_equal(t.values, sieve_standard(f"tau_{k}", 200).values)


def test_tau_k_against_exact_product():
    n = 10**4
    for k in range(2, 10):
        tau = sieve_standard(f"tau_{k}", n)
        for m in range(1, n + 1):
            exact = math.prod(math.comb(a + k - 1, k - 1) for _, a in factorize(m))
            assert tau[m] == exact, (k, m)


def test_mobius_against_factorisation():
    mu = sieve_standard("mobius", 2000)
    assert all(mu[m] == mobius_int(m) for m in range(1, 2001))


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 240, 10**4])
def test_kernel_matches_kahan_oracle(rng, n):
    sparse = max(1, math.isqrt(n))  # within 2 isqrt(n): the single-loop route
    cases = [
        (random_values(rng, n, sparse), random_values(rng, n)),
        (random_values(rng, n), random_values(rng, n, sparse)),
        (random_values(rng, n), random_values(rng, n)),  # split at isqrt(n) when n > 3
    ]
    for a, b in cases:
        got = arith.convolve_values(a, b, n)
        want = kahan_convolve(a, b, n)
        scale = kahan_convolve(np.abs(a), np.abs(b), n)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_kernel_compensation_against_fsum(rng):
    """With exact products (a * 1) the kernel's only errors are in the sums; the
    folded TwoSum compensation keeps them within half an ulp of the result plus
    a second-order term (Ogita, Rump & Oishi 2005, Sum2)."""
    n = 10**4
    a = random_values(rng, n)
    one = sieve_standard("one", n).values
    divisor_terms = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divisor_terms[m].append(a[d])
    exact = np.array([math.fsum(t) for t in divisor_terms])
    scale = np.array([math.fsum(abs(x) for x in t) for t in divisor_terms])
    for got in (arith.convolve_values(a, one, n), arith.convolve_values(one, a, n)):
        assert np.all(np.abs(got - exact) <= 2.0**-53 * np.abs(exact) + 1e-26 * scale)


def test_convolution_examples():
    one = sieve_standard("one", 20)
    mu = sieve_standard("mobius", 20)
    lam = sieve_standard("vonmangoldt", 20)
    assert dirichlet_convolve(one, one, 20)[6] == 4.0
    assert dirichlet_convolve(mu, one, 20)[12] == 0.0
    chebyshev = dirichlet_convolve(lam, one, 20)
    assert chebyshev[12] == pytest.approx(math.log(12), abs=1e-12)
    assert chebyshev[12] == pytest.approx(brute_convolve(lam, one, 12), abs=1e-14)


def test_convolution_limit_rejection():
    one = sieve_standard("one", 10)
    with pytest.raises(ValueError):
        dirichlet_convolve(one, one, 11)


def test_mobius_inversion():
    n = 2000
    mu = sieve_standard("mobius", n)
    one = sieve_standard("one", n)
    inv = dirichlet_convolve(mu, one, n)
    assert inv[1] == 1.0
    assert np.all(inv.values[2:] == 0.0)


def test_chebyshev_identity_relative():
    n = 20000
    lam = sieve_standard("vonmangoldt", n)
    one = sieve_standard("one", n)
    got = dirichlet_convolve(lam, one, n).values[2:]
    want = np.log(np.arange(2, n + 1, dtype=np.float64))
    assert np.max(np.abs(got - want) / want) < 1e-10


def test_convolution_algebra(rng):
    n = 1000
    f = random_table(rng, n)
    g = random_table(rng, n)
    h = random_table(rng, n)
    fg = dirichlet_convolve(f, g, n)
    gf = dirichlet_convolve(g, f, n)
    assert np.max(np.abs(fg.values - gf.values)) < 1e-10
    left = dirichlet_convolve(fg, h, n)
    right = dirichlet_convolve(f, dirichlet_convolve(g, h, n), n)
    scale = max(1.0, np.abs(left.values).max())
    assert np.max(np.abs(left.values - right.values)) / scale < 1e-10


def sparse_table(rng, n, density):
    values = np.zeros(n + 1)
    support = np.flatnonzero(rng.random(n) < density) + 1
    values[support] = rng.uniform(-1, 1, len(support))
    return ArithFnTable(values)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.integers(2, 1500), st.lists(st.floats(0.002, 0.5), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_convolution_algebra_on_sparse_tables(n, densities, seed):
    """Commutativity, associativity and Mobius inversion of dirichlet_convolve
    on random sparse tables (one drawn support density each), every side held
    to the Kahan divisor-loop oracle."""
    rng = np.random.default_rng(seed)
    f, g, h = (sparse_table(rng, n, p) for p in densities)
    af, ag, ah = (np.abs(t.values) for t in (f, g, h))
    fg, gf = dirichlet_convolve(f, g, n), dirichlet_convolve(g, f, n)
    scale = kahan_convolve(af, ag, n)
    for got in (fg, gf):
        assert np.all(np.abs(got.values - kahan_convolve(f.values, g.values, n)) <= 1e-15 * scale)
    left = dirichlet_convolve(fg, h, n)
    right = dirichlet_convolve(f, dirichlet_convolve(g, h, n), n)
    want = kahan_convolve(kahan_convolve(f.values, g.values, n), h.values, n)
    scale = kahan_convolve(kahan_convolve(af, ag, n), ah, n)
    for got in (left, right):
        assert np.all(np.abs(got.values - want) <= 1e-14 * scale)
    one, mu = sieve_standard("one", n), sieve_standard("mobius", n)
    back = dirichlet_convolve(dirichlet_convolve(f, one, n), mu, n)
    scale = kahan_convolve(kahan_convolve(af, one.values, n), np.abs(mu.values), n)
    assert np.all(np.abs(kahan_convolve(kahan_convolve(f.values, one.values, n),
                                        mu.values, n) - f.values) <= 1e-14 * scale)
    assert np.all(np.abs(back.values - f.values) <= 1e-14 * scale)


def test_a1_matches_convolution_and_examples():
    n = 500
    a1 = arith.compute_a1(n)
    direct = dirichlet_convolve(
        sieve_standard("vonmangoldt", n), sieve_standard("log", n), n
    )
    assert np.array_equal(a1.values, direct.values)
    assert a1[1] == 0.0
    for p in (2, 3, 5, 7, 11, 13, 499):
        assert a1[p] == 0.0
    assert a1[4] == pytest.approx(math.log(2) ** 2, rel=1e-14)


def brute_a2(n, b):
    lam = sieve_standard("vonmangoldt", n)
    log = sieve_standard("log", n)
    total = 0.0
    for d1 in range(1, n + 1):
        if n % d1 or lam[d1] == 0.0:
            continue
        for d2 in range(1, n // d1 + 1):
            if (n // d1) % d2:
                continue
            for d3 in range(1, n // (d1 * d2) + 1):
                rest = n // (d1 * d2)
                if rest % d3:
                    continue
                d4 = rest // d3
                total += lam[d1] * log[d2] * log[d3] * b[d4]
    return -total


def test_a2_examples():
    n = 64
    b = ArithFnTable(np.concatenate([[0.0, 1.0], np.zeros(n - 1)]))  # y < 2
    a2 = arith.compute_a2(n, b)
    assert a2[1] == 0.0
    assert a2[2] == 0.0
    assert a2[8] == pytest.approx(-math.log(2) ** 3, rel=1e-13)
    for m in (8, 12, 36, 60):
        assert a2[m] == pytest.approx(brute_a2(m, b), rel=1e-12, abs=1e-14)


def test_a2_short_b_rejection():
    b = ArithFnTable(np.zeros(11))
    with pytest.raises(ValueError):
        arith.compute_a2(20, b)


def test_growth_monitor_reports_not_raises():
    n = 2000
    b = ArithFnTable(np.concatenate([[0.0, 1.0], np.zeros(n - 1)]))
    a2 = arith.compute_a2(n, b)
    report = arith.coefficient_growth_report(a2, log_scale=math.log(1000 / (2 * math.pi)),
                                             p_sup=1.0)
    assert report.max_ratio >= 0.0
    assert report.ok == (len(report.violations) == 0)
    # a deliberately inflated table must be flagged, not raised
    big = ArithFnTable(np.full(51, 1e9))
    flagged = arith.coefficient_growth_report(big, log_scale=2.0, p_sup=1.0)
    assert not flagged.ok and 1 in flagged.violations


def test_table_memo_prefix_view(monkeypatch):
    for name in arith.STANDARD_NAMES:
        monkeypatch.setattr(arith, "_prefix_tables", {})
        big = sieve_standard(name, 3000)
        view = sieve_standard(name, 1237)
        assert np.shares_memory(view.values, big.values)
        with pytest.raises(ValueError):
            view.values[5] = 7.0
        monkeypatch.setattr(arith, "_prefix_tables", {})
        fresh = sieve_standard(name, 1237)
        assert view.values.tobytes() == fresh.values.tobytes()
        bigger = sieve_standard(name, 4000)
        size, memo = arith._prefix_tables[name]
        assert size == 4000 and bigger.values.shape == memo.shape
        assert np.shares_memory(bigger.values, memo)


# each process-wide prefix table, read at size n as a tuple of arrays
PREFIX_READS = {
    **{name: lambda n, name=name: (sieve_standard(name, n).values,) for name in arith.STANDARD_NAMES},
    "spf": lambda n: (arith.smallest_prime_factors(n),),
    "phase plan": ze._phase_plan,
    "log differences": va._log_differences,
}


@pytest.mark.parametrize("table", PREFIX_READS)
def test_prefix_tables_read_the_bits_of_a_fresh_build(monkeypatch, table):
    """In ascending and in descending size order, every read is read-only and has the
    dtype, shape and bits of a build at its own size in an empty memo."""
    read = PREFIX_READS[table]
    sizes = [1, 2, 3, 4, 10, 97, 311, 500] + ([1237, 5000] if table != "log differences" else [])
    fresh = {}
    for n in sizes:
        monkeypatch.setattr(arith, "_prefix_tables", {})
        fresh[n] = [(a.dtype, a.shape, a.tobytes()) for a in read(n)]
    for order in (sizes, sizes[::-1]):
        monkeypatch.setattr(arith, "_prefix_tables", {})
        for n in order:
            got = read(n)
            assert not any(a.flags.writeable for a in got), (table, n)
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == fresh[n], (table, n)


@pytest.fixture
def spf_builds(monkeypatch):
    """The sizes at which the smallest-prime-factor table is built, from an empty memo."""
    sizes, sieve = [], arith._sieve

    def counted(name, n):
        if name == "spf":
            sizes.append(n)
        return sieve(name, n)

    monkeypatch.setattr(arith, "_sieve", counted)
    monkeypatch.setattr(arith, "_prefix_tables", {})
    return sizes


def test_zero_scan_builds_the_prime_table_once_per_growth(spf_builds):
    """find_zeros(25000) and zeta'(rho) at its zeros ask for the table at 21 sizes; it is
    built only when the largest size grows."""
    ze.zeta_prime_many(ze.find_zeros(25000.0).ordinates)
    assert len(spf_builds) <= 2 and spf_builds == sorted(set(spf_builds))


def test_growth_job_builds_the_prime_table_once(spf_builds, perfbench_jobs, tmp_path):
    """perfbench's growth job sieves tau_9, mobius and vonmangoldt: one build, at N."""
    perfbench_jobs.growth(JOB_PARAMS["growth"], str(tmp_path / "growth"))
    assert spf_builds == [JOB_PARAMS["growth"]["N"]]


def test_tables_are_readonly():
    t = sieve_standard("mobius", 10)
    with pytest.raises(ValueError):
        t.values[3] = 7.0


def test_table_limit_is_its_length_minus_one():
    t = ArithFnTable(np.arange(6.0))
    assert t.limit == 5 and t[5] == 5.0 and not t.values.flags.writeable
    with pytest.raises(IndexError):
        t[6]
    for bad in (np.zeros(1), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="1-D of length >= 2"):
            ArithFnTable(bad)
