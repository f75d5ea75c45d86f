import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import arith, vaughan as va
from zetalab import mollifier as mo
from zetalab.characters import character_table
from zetalab.intfun import divisors, factorize
from zetalab.vaughan import VaughanConfig


def small_spec(y=20.0):
    return mo.MollifierSpec.with_y(1e4, y)


def test_rhs_coefficient_examples():
    rhs = va.vaughan_rhs_coefficients(VaughanConfig(1, 5.0), 10)
    assert rhs[1] == 0.0
    # -(sum_{d | 4, d <= 5} mu(d) log(4/d)) by hand
    assert rhs[4] == pytest.approx(-math.log(2), abs=1e-15)
    rhs3 = va.vaughan_rhs_coefficients(VaughanConfig(3, 10.0), 1000)
    lam = arith.sieve_standard("vonmangoldt", 1000)
    assert np.max(np.abs(rhs3.values[1:] + lam.values[1:])) < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3, 5])
@pytest.mark.parametrize("X", [5.0, 10.0, 17.3])
def test_rhs_coefficients_match_the_group_chain_bit_for_bit(r, X):
    """The groups of -Lambda built one table convolution at a time, each
    weighted with its own (-1)^(j-1) C(r, j)."""
    limit = 5000
    one, mu_x = arith.sieve_standard("one", limit), va.mu_truncated(X, limit)
    neg_log = arith.ArithFnTable(-arith.sieve_standard("log", limit).values)
    term = arith.dirichlet_convolve(neg_log, mu_x, limit)
    total = np.zeros(limit + 1)
    for j in range(1, r + 1):
        if j > 1:
            term = arith.dirichlet_convolve(arith.dirichlet_convolve(term, mu_x, limit), one, limit)
        total += (1.0 if j % 2 == 1 else -1.0) * math.comb(r, j) * term.values
    assert va.vaughan_rhs_coefficients(VaughanConfig(r, X), limit).values.tobytes() == total.tobytes()


def test_verify_vaughan_grid():
    for r in (1, 2, 3):
        for X in (5.0, 10.0, 30.0):
            limit = min(int(X**r), 10**5)
            report = va.verify_vaughan(VaughanConfig(r, X), limit)
            assert report.passed, (r, X, report.deviation)
            assert report.deviation < 1e-9


def test_verify_vaughan_rejects_beyond_remainder():
    with pytest.raises(ValueError):
        va.verify_vaughan(VaughanConfig(3, 10.0), 1001)
    with pytest.raises(ValueError):
        VaughanConfig(0, 10.0)


@pytest.mark.parametrize("X, message", [(0.5, "X must be >= 1, got 0.5"),
                                        (math.nan, "X must be >= 1, got nan"),
                                        (math.inf, "X must be finite, got inf")])
def test_vaughan_config_rejects_X_below_1_or_non_finite(X, message):
    with pytest.raises(ValueError, match=message):
        VaughanConfig(3, X)


@pytest.mark.parametrize("r, message", [(2.5, "r must be an integer, got 2.5"),
                                        (math.nan, "r must be an integer, got nan"),
                                        (0, "r must be >= 1, got 0")])
def test_vaughan_config_rejects_r_not_an_integer_or_below_1(r, message):
    with pytest.raises(ValueError, match=message):
        VaughanConfig(r, 10.0)


def decomposition_fixture(n_cap=512, y=20.0, X=16.0):
    spec = small_spec(y)
    return va.decompose_a2(spec, VaughanConfig(3, X), n_cap=n_cap), spec


def test_decompose_requires_r3():
    spec = small_spec()
    with pytest.raises(ValueError):
        va.decompose_a2(spec, VaughanConfig(2, 16.0))


def test_decompose_reconstruction_small():
    dec, spec = decomposition_fixture()
    recon = dec.reconstruct()
    assert recon[1] == 0.0
    a2 = arith.compute_a2(512, mo.b_table(spec, 512)).values
    scale = np.abs(a2[1:]).max()
    assert np.max(np.abs(recon[1:] - a2[1:])) / scale < 1e-12


def test_decompose_per_term_route_matches_pooled():
    dec, _ = decomposition_fixture(n_cap=256)
    total = np.zeros(257)
    seen = 0
    for term in dec.terms():
        total += (-1) ** term.j * math.comb(3, term.j) * va.term_convolution(term, dec)
        seen += 1
    assert seen == dec.count_terms()
    pooled = dec.reconstruct()
    assert np.max(np.abs(total - pooled)) < 1e-10


def test_decomposition_term_invariants():
    dec, spec = decomposition_fixture(n_cap=256, y=20.0, X=10.0)
    roles_seen = set()
    for term in dec.terms():
        n4 = term.ranges[3]
        assert n4 <= spec.y + 1e-9
        for i in (6, 7, 8):
            assert term.ranges[i] <= 10.0 + 1e-9  # mu slots bounded by X
        assert math.prod(int(lo) + 1 for lo, _ in term.blocks) <= 256
        roles_seen.add(term.roles)
    assert len(roles_seen) == 3


def test_reconstruct_makes_eight_convolutions(monkeypatch):
    """log^{*3} * b once, then one mu and one 1 convolution per later group."""
    dec, _ = decomposition_fixture()
    calls = []
    convolve = va.convolve_values
    monkeypatch.setattr(va, "convolve_values", lambda *args: calls.append(1) or convolve(*args))
    dec.reconstruct()
    assert len(calls) == 8


@pytest.mark.parametrize("role", [va.LOG, va.B_COEF, va.ONE, va.MU])
def test_reconstruct_rejects_blocks_that_do_not_tile(role):
    """The middle block of ``role`` dropped from every slot of that role."""
    dec, _ = decomposition_fixture()
    blocks = dec.role_blocks[role]
    k = len(blocks) // 2
    role_blocks = {**dec.role_blocks, role: blocks[:k] + blocks[k + 1:]}
    with pytest.raises(AssertionError, match=rf"do not tile .* at n={int(blocks[k][0]) + 1}$"):
        dataclasses.replace(dec, role_blocks=role_blocks).reconstruct()


def test_term_count_monitor():
    dec, _ = decomposition_fixture(n_cap=512)
    # O(L^9) shape monitor: wildly generous, just pin the reported number
    assert 0 < dec.count_terms() <= math.log2(512) ** 9
    # the counts acceptance criterion 4 prints, at its three settings
    totals = [va.decompose_a2(small_spec(y), VaughanConfig(3, X), n_cap=10**4)
              .count_terms() for y, X in [(20.0, 16.0), (32.0, 32.0), (40.0, 22.0)]]
    assert totals == [369397, 422515, 408170]


def recursive_terms(dec):
    """(j, blocks) of every term from the earlier nested-generator walk."""
    n_cap = dec.n_cap
    for j in (1, 2, 3):
        slots = dec.slots(j)
        mins = [[int(lo) + 1 for lo, _ in blocks] for blocks in slots]
        suffix_min = [math.prod(min(m, default=1) for m in mins[i:]) for i in range(9)]

        def rec(i, prod, chosen):
            if i == 8:
                for blk in slots[8][: bisect_right(mins[8], n_cap // prod)]:
                    yield j, (*chosen, blk)
                return
            for blk, mn in zip(slots[i], mins[i]):
                if prod * mn * suffix_min[i + 1] > n_cap:
                    break
                yield from rec(i + 1, prod * mn, (*chosen, blk))

        yield from rec(0, 1, ())


@pytest.mark.parametrize("y, X, n_cap", [(20.0, 16.0, 1000), (7.5, 3.0, 64), (37.3, 30.5, 2000),
                                         *((20.0, 16.0, n) for n in (1, 2, 3, 7, 50))])
def test_terms_match_the_recursive_walk(y, X, n_cap):
    dec = va.decompose_a2(small_spec(y), VaughanConfig(3, X), n_cap=n_cap)
    terms = list(dec.terms())
    assert [(t.j, t.blocks) for t in terms] == list(recursive_terms(dec))
    assert len(terms) == dec.count_terms()


def test_term_pick_by_index_matches_the_list():
    """``verify-split`` and criterion 5 pick a term by its index below
    ``count_terms()`` in one pass over the lazy ``terms()``."""
    dec = va.decompose_a2(small_spec(20.0), VaughanConfig(3, 16.0), n_cap=1000)
    assert inspect.isgenerator(dec.terms())
    terms = list(dec.terms())
    total = dec.count_terms()
    for pick in (0, 1, total // 2, total - 1):
        assert next(itertools.islice(dec.terms(), pick, None)) == terms[pick]
    assert next(itertools.islice(dec.terms(), total, None), None) is None


def test_terms_of_a_decomposition_with_an_empty_slot():
    """At n_cap = 1 the log slots have no block: no terms, as count_terms says."""
    dec = va.decompose_a2(small_spec(2.0), VaughanConfig(3, 1.0), n_cap=1)
    assert dec.slots(1)[0] == dec.role_blocks[va.LOG] == ()
    assert list(dec.terms()) == [] and dec.count_terms() == 0


def oracle_terms(dec):
    """(j, ranges, blocks) of every term by a plain pruned recursion."""
    out = []
    for j in (1, 2, 3):
        slots = dec.slots(j)
        mins = [tuple(int(lo) + 1 for lo, _ in blocks) for blocks in slots]
        suffix_min = [1] * 10
        for i in range(8, -1, -1):
            suffix_min[i] = suffix_min[i + 1] * min(mins[i])

        def rec(i, prod, chosen):
            if i == 9:
                blocks = tuple(chosen)
                out.append((j, tuple(hi for _, hi in blocks), blocks))
                return
            for blk, mn in zip(slots[i], mins[i]):
                p = prod * mn
                if p * suffix_min[i + 1] > dec.n_cap:
                    break
                chosen.append(blk)
                rec(i + 1, p, chosen)
                chosen.pop()

        rec(0, 1, [])
    return out


def oracle_tables(dec, n):
    return {va.LOG: arith.sieve_standard("log", n).values,
            va.ONE: arith.sieve_standard("one", n).values,
            va.MU: va.mu_truncated(dec.config.X, n).values,
            va.B_COEF: mo.b_table(dec.spec, n).values}


def oracle_product(term, tables, n):
    """The term's product of restricted factors, every convolution on all of [0..n]."""
    big = np.zeros(n + 1)
    big[1] = 1.0
    for role, (lo, hi) in zip(term.roles, term.blocks):
        if role != va.IDENTITY:
            restricted = np.zeros(n + 1)
            a, b = int(lo) + 1, min(int(hi), n)
            restricted[a : b + 1] = tables[role][a : b + 1]
            big = arith.convolve_values(big, restricted, n)
    return big


def radical(n):
    """Product of the distinct primes dividing n (1 for n = 1)."""
    return math.prod(p for p, _ in factorize(n))


def oracle_split(term, dec, d, m_limit, tolerance=1e-10):
    """The splitting lemma state by state, each g_i gathered on its own, its
    states keyed by (radical of the divisors used so far, remaining divisor)."""
    n = m_limit * d
    tables = oracle_tables(dec, n)
    big = oracle_product(term, tables, n)
    lhs = np.zeros(m_limit + 1)
    lhs[1:] = big[d::d][:m_limit]

    def g_table(role, lo, hi, d_i, rad):
        out = np.zeros(m_limit + 1)
        m = np.arange(1, m_limit + 1)
        arg = m * d_i
        vals = np.where((arg > lo) & (arg <= hi), tables[role][arg], 0.0)
        if rad > 1:
            vals = np.where(np.gcd(m, rad) == 1, vals, 0.0)
        out[1:] = vals
        return out

    ident = np.zeros(m_limit + 1)
    ident[1] = 1.0
    states = {(1, d): ident}
    for role, (lo, hi) in zip(term.roles, term.blocks):
        new_states = {}
        for (rad, rem), table in states.items():
            for d_i in divisors(rem):
                if role == va.IDENTITY and d_i != 1:
                    continue
                if role == va.IDENTITY:
                    nxt = table
                else:
                    g = g_table(role, lo, hi, d_i, rad)
                    if not g.any():
                        continue
                    nxt = arith.convolve_values(table, g, m_limit)
                key = (radical(rad * d_i), rem // d_i)
                new_states[key] = new_states[key] + nxt if key in new_states else nxt
        states = new_states
        if not states:
            break
    rhs = np.zeros(m_limit + 1)
    for (rad, rem), table in states.items():
        if rem == 1:
            rhs += table
    dev = np.abs(lhs[1:] - rhs[1:])
    return va.SplitReport(
        check="divisor-splitting",
        parameters={"d": d, "m_limit": m_limit, "term_ranges": term.ranges, "j": term.j},
        worst_index=int(dev.argmax()) + 1,
        deviation=float(dev.max()),
        tolerance=tolerance,
        factorization_count=math.prod(math.comb(a + 8, 8) for _, a in factorize(d)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.floats(4.0, 40.0), st.floats(2.0, 32.0), st.integers(8, 2000),
       st.integers(1, 30), st.integers(1, 300), st.data())
def test_decomposition_and_splitting_match_oracles(y, X, n_cap, d, m_limit, data):
    dec = va.decompose_a2(small_spec(y), VaughanConfig(3, X), n_cap=n_cap)
    terms = list(dec.terms())
    assert [(t.j, t.ranges, t.blocks) for t in terms] == oracle_terms(dec)
    assert dec.count_terms() == len(terms)
    term = terms[data.draw(st.integers(0, len(terms) - 1))]
    report = va.split_by_divisor(term, dec, d, m_limit)
    assert report == oracle_split(term, dec, d, m_limit)
    assert report.passed, (term.ranges, d, report.deviation)


def test_split_makes_as_many_convolutions_as_the_radical_keyed_oracle(monkeypatch):
    """Keyed by the remaining divisor alone, the states are those of the
    (radical, remaining divisor) keys: the same convolutions either way, one
    per factor of the term's product and one per nonzero g_i, for terms of
    criterion 5's setting and its m_limit."""
    dec, _ = decomposition_fixture(n_cap=1000)
    terms = list(dec.terms())
    picks = np.random.default_rng(20250811).choice(len(terms), 4, replace=False)
    calls = {"split": 0, "oracle": 0}

    def counted(side, fn):
        def call(*args):
            calls[side] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(va, "convolve_values", counted("split", arith.convolve_values))
    monkeypatch.setattr(arith, "convolve_values", counted("oracle", arith.convolve_values))
    for idx in picks:
        for d in (12, 24, 30):
            calls.update(split=0, oracle=0)
            report = va.split_by_divisor(terms[int(idx)], dec, d, 1000)
            assert report == oracle_split(terms[int(idx)], dec, d, 1000)
            assert calls["split"] == calls["oracle"] > 0, (idx, d, calls)


def test_split_single_and_prime():
    dec, _ = decomposition_fixture(n_cap=512)
    term = next(dec.terms())
    rep1 = va.split_by_divisor(term, dec, 1, 200)
    assert rep1.factorization_count == 1 and rep1.deviation == 0.0
    rep_p = va.split_by_divisor(term, dec, 7, 200)
    assert rep_p.factorization_count == 9
    assert rep_p.passed


def test_split_random_terms(rng):
    dec, _ = decomposition_fixture(n_cap=1000)
    terms = list(dec.terms())
    picks = rng.choice(len(terms), 6, replace=False)
    for idx in picks:
        term = terms[int(idx)]
        for d in (2, 12, 30):
            report = va.split_by_divisor(term, dec, d, 500)
            assert report.passed, (term.ranges, d, report.deviation)


def test_split_budget_rejection():
    dec, _ = decomposition_fixture(n_cap=256)
    term = next(dec.terms())
    with pytest.raises(ValueError):
        va.split_by_divisor(term, dec, 8, 10**6)


@pytest.mark.parametrize("bad", [0, -3])
def test_split_and_term_convolution_reject_empty_ranges(bad):
    dec, _ = decomposition_fixture(n_cap=256)
    term = next(dec.terms())
    with pytest.raises(ValueError, match=f"m_limit must be >= 1, got {bad}"):
        va.split_by_divisor(term, dec, 6, bad)
    with pytest.raises(ValueError, match=f"n_cap must be >= 1, got {bad}"):
        va.term_convolution(term, dec, bad)


def test_sieve_monitor_degenerate_and_exact():
    rep = va.hybrid_large_sieve_monitor(10, 0.0, 50, np.ones(50))
    assert rep.lhs == 0.0 and rep.ratio == 0.0
    rep1 = va.hybrid_large_sieve_monitor(10, 5.0, 1, [1.0])
    n_prim = sum(len(character_table(q).primitive) for q in range(6, 11))
    assert rep1.lhs == pytest.approx(2 * 5.0 * n_prim, rel=1e-12)
    assert rep1.ratio <= 2.0
    for Q in (2, 9, 17, 30):
        r = va.hybrid_large_sieve_monitor(Q, 3.0, 1, [1.0])
        assert r.ratio <= 2.0


def test_sieve_monitor_phase_invariance(rng):
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    base = va.hybrid_large_sieve_monitor(12, 7.5, 64, h)
    rot = va.hybrid_large_sieve_monitor(12, 7.5, 64, h * np.exp(1j * 0.9))
    assert rot.lhs == pytest.approx(base.lhs, abs=1e-10 * max(1.0, base.lhs))


def sieve_lhs_oracle(Q, V, H, h):
    """The monitor's left-hand side one character at a time."""
    logs = np.log(np.arange(1, H + 1))
    diff = logs[:, None] - logs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = 2.0 * np.sin(V * diff) / diff
    np.fill_diagonal(kernel, 2.0 * V)
    lhs = 0.0
    for q in range(max(2, Q // 2 + 1), Q + 1):
        table = character_table(q)
        for psi in table.values(table.primitive):
            v = h * psi[np.arange(1, H + 1) % q]
            lhs += float(np.real(np.conj(v) @ kernel @ v))
    return lhs


def test_sieve_monitor_matches_per_character_oracle(rng):
    """The rank-2 form against the H x H kernel, one character at a time,
    including the corners of the monitor's range: H = 500, V = 50 and V near
    0, where sin(V log m) nearly cancels in s_m c_n - c_m s_n."""
    for Q, V, H in [(2, 1.0, 5), (12, 7.5, 64), (30, 20.0, 200), (17, 0.3, 131),
                    (30, 50.0, 500), (30, 1e-3, 500), (20, 1e-6, 300), (5, 50.0, 500)]:
        h = rng.standard_normal(H) + 1j * rng.standard_normal(H)
        want = sieve_lhs_oracle(Q, V, H, h)
        assert va.hybrid_large_sieve_monitor(Q, V, H, h).lhs == pytest.approx(want, rel=1e-12)


def test_sieve_monitor_lhs_keeps_its_bits_when_the_kernel_grows(rng, monkeypatch):
    """D is kept once per process and read through prefix views: lhs at
    H = 50 is the same before and after a call at H = 500 rebuilds D."""
    monkeypatch.setattr(arith, "_prefix_tables", {})
    h = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    before = va.hybrid_large_sieve_monitor(13, 7.0, 50, h).lhs
    assert arith._prefix_tables["log_differences"][1][1].shape == (50, 50)
    va.hybrid_large_sieve_monitor(30, 3.0, 500, rng.standard_normal(500))
    assert arith._prefix_tables["log_differences"][1][1].shape == (500, 500)
    assert va.hybrid_large_sieve_monitor(13, 7.0, 50, h).lhs == before


def test_sieve_monitor_makes_no_h_squared_transcendentals(rng, monkeypatch):
    """Each sine and cosine the monitor takes covers at most H points, not
    the H x H grid of log(m/n)."""
    sizes = []

    def counted(fn):
        def call(x, *args, **kwargs):
            sizes.append(np.size(x))
            return fn(x, *args, **kwargs)
        return staticmethod(call)

    class NumpyView:
        sin, cos = counted(np.sin), counted(np.cos)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(va, "np", NumpyView())
    for Q, V, H in [(30, 50.0, 500), (12, 7.5, 64), (5, 0.0, 1)]:
        sizes.clear()
        va.hybrid_large_sieve_monitor(Q, V, H, rng.standard_normal(H))
        assert sizes and max(sizes) <= H


def test_sieve_monitor_rejections():
    with pytest.raises(ValueError):
        va.hybrid_large_sieve_monitor(10, 5.0, 4, np.zeros(4))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            va.hybrid_large_sieve_monitor(10, 5.0, 4, [1.0, bad, 0.0, 0.0])
    with pytest.raises(ValueError):
        va.hybrid_large_sieve_monitor(40, 5.0, 4, np.ones(4))
    with pytest.raises(ValueError):
        va.hybrid_large_sieve_monitor(10, 60.0, 4, np.ones(4))
    with pytest.raises(ValueError):
        va.hybrid_large_sieve_monitor(10, 5.0, 3, np.ones(4))


def test_sieve_trials_sweep():
    reports = va.run_sieve_trials(trials=60, seed=7, q_max=20, h_max=200, v_max=20.0)
    assert len(reports) == 60
    assert max(r.ratio for r in reports) <= 6.0


def s_qxd_oracle(Q, X, d, a_table):
    """Plain double loop, no cumulative trick."""
    total = 0.0
    for q in range(Q // 2 + 1, Q + 1):
        if q < 2:
            continue
        table = character_table(q)
        for psi in table.values(table.primitive):
            best = 0.0
            for M in range(1, X + 1):
                s = sum(a_table[m * d] * complex(psi[m % q]) for m in range(1, M + 1))
                best = max(best, abs(s))
            total += best
    return total


def test_s_qxd():
    spec = small_spec()
    assert va.s_qxd_bruteforce(1, 100, 1, 1, spec) == 0.0  # band convention
    # indicator coefficients: each primitive character contributes |psi(1)| = 1
    ind = arith.ArithFnTable(np.concatenate([[0.0, 1.0], np.zeros(99)]))
    got = va.s_qxd_bruteforce(8, 100, 1, 1, spec, a_table=ind)
    n_prim = sum(len(character_table(q).primitive) for q in range(5, 9))
    assert got == pytest.approx(float(n_prim), abs=1e-12)
    a1 = arith.compute_a1(500)
    fast = va.s_qxd_bruteforce(8, 500, 1, 1, spec, a_table=a1)
    slow = s_qxd_oracle(8, 80, 1, a1)
    partial = va.s_qxd_bruteforce(8, 80, 1, 1, spec, a_table=a1)
    assert partial == pytest.approx(slow, abs=1e-12 * max(1.0, slow))
    assert fast >= partial - 1e-12


def test_s_qxd_checks_nu_when_given_a_table():
    with pytest.raises(ValueError, match="nu must be 1 or 2, got 3"):
        va.s_qxd_bruteforce(8, 100, 1, 3, small_spec(), a_table=arith.compute_a1(800))


def test_s_qxd_budget():
    spec = small_spec()
    with pytest.raises(ValueError):
        va.s_qxd_bruteforce(32, 100, 1, 1, spec)
    with pytest.raises(ValueError):
        va.s_qxd_bruteforce(8, 5000, 1, 1, spec)
    with pytest.raises(ValueError):
        va.s_qxd_bruteforce(8, 100, 9, 1, spec)


def test_library_modules_do_not_import_scipy():
    import zetalab

    code = ("import sys, zetalab.arith, zetalab.characters, zetalab.mollifier, "
            "zetalab.vaughan, zetalab.zeta, zetalab.cache, zetalab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(zetalab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_term_product_vanishes_beyond_its_support_bound():
    """A term's product of factors restricted to (lo, hi] vanishes beyond the
    product of their floor(hi); the convolutions that stop there give the
    whole-length product bit for bit, and mu_truncated sieves only to X."""
    dec = va.decompose_a2(small_spec(), VaughanConfig(3, 16.0), n_cap=1000)
    terms = list(dec.terms())
    n = 30 * 1000
    tables = oracle_tables(dec, n)
    for idx in np.random.default_rng(20251018).choice(len(terms), 12, replace=False):
        term = terms[int(idx)]
        top = math.prod(int(hi) for role, (_, hi) in zip(term.roles, term.blocks)
                        if role != va.IDENTITY)
        full = oracle_product(term, tables, n)
        assert top < n and not full[top + 1 :].any()
        for m in (n, top, top // 2):
            assert np.array_equal(va.term_convolution(term, dec, m), full[: m + 1])
    mu = va.mu_truncated(16.0, n)
    assert len(mu.values) == n + 1 and not mu.values[17:].any()
    assert np.array_equal(mu.values[:17], arith.sieve_standard("mobius", 16).values)
