import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_arith import divisors, mobius_int, totient
from zetalab import arith, characters as ch
from zetalab import mollifier as mo


def _all_values(q):
    """The table mod q and the (phi(q), q) matrix of chi(a) of all its rows."""
    table = ch.character_table(q)
    return table, table.values(range(len(table.expo)))


def _nonprincipal(q):
    """The table mod q and its first row with a nonzero exponent."""
    table = ch.character_table(q)
    return table, int(np.flatnonzero(table.expo.any(axis=1))[0])


def test_q1_character():
    table, V = _all_values(1)
    assert len(V) == 1
    assert table.primitive.tolist() == [0] and table.conductors[0] == 1
    for a in (0, 1, 5, 17):
        assert V[0, a % 1] == 1.0


def test_q3_characters():
    table, V = _all_values(3)
    assert len(V) == 2
    nontrivial = np.flatnonzero(table.expo.any(axis=1))
    assert len(nontrivial) == 1
    assert V[nontrivial[0], 2] == pytest.approx(-1.0, abs=1e-14)


def test_group_size_and_orthogonality():
    for q in range(1, 101):
        table, V = _all_values(q)
        assert len(V) == totient(q)
        for row, principal in zip(V, ~table.expo.any(axis=1)):
            total = row.sum()
            if principal:
                assert total == pytest.approx(totient(q), abs=1e-9)
            else:
                assert abs(total) < 1e-9


def test_multiplicativity_and_unit_modulus(rng):
    for q in (5, 8, 12, 24, 45, 60):
        for row in _all_values(q)[1]:
            assert row[1 % q] == 1.0
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            for _ in range(10):
                a, b = rng.choice(units, 2)
                assert row[int(a) * int(b) % q] == pytest.approx(
                    row[int(a)] * row[int(b)], abs=1e-12
                )
            for a in range(q):
                mag = abs(row[a])
                assert mag == pytest.approx(1.0, abs=1e-12) if math.gcd(a, q) == 1 \
                    else mag == 0.0


def test_product_closure():
    for q in (6, 8, 15, 36, 60):
        tables = _all_values(q)[1]
        for a, b in itertools.product(tables, repeat=2):
            assert np.abs(tables - a * b).max(axis=1).min() < 1e-12


def _oracle_conductor(q, exponents, group_exp):
    """Smallest f | q with chi trivial on units a = 1 (mod f), one character at a time."""
    for f in divisors(q):
        ok = True
        for a in range(1, q + 1):
            if a % f == 1 % f and math.gcd(a, q) == 1 and exponents[a % q] % group_exp != 0:
                ok = False
                break
        if ok:
            return f
    return q


def _oracle_characters(q):
    """(modulus, exponent, exponents, conductor, index) of each character mod q,
    by a per-residue loop over a discrete-log dict and a per-character scan."""
    generators, orders, _, _ = ch.unit_group(q)
    e = math.lcm(*orders)
    dlog = {}
    for ks in itertools.product(*(range(s) for s in orders)):
        a = 1 % q
        for g, k in zip(generators, ks):
            a = a * pow(g, k, q) % q
        dlog[a] = ks
    strides = [e // s for s in orders]
    out = []
    for index, ts in enumerate(itertools.product(*(range(s) for s in orders))):
        expo = [-1] * q if q > 1 else [0]
        for a, ks in dlog.items():
            expo[a] = sum(k * t * stride for k, t, stride in zip(ks, ts, strides)) % e
        out.append((q, e, tuple(expo), _oracle_conductor(q, expo, e), index))
    return out


def _order_by_multiplication(g, q):
    """The least k >= 1 with g^k = 1 (mod q), by repeated multiplication."""
    a, k = g % q, 1
    while a != 1:
        a, k = a * g % q, k + 1
    return k


def test_local_generator_is_the_least_primitive_root():
    """For every odd prime power p^e < 1000 the generator is the least residue
    coprime to p of order phi(p^e): this choice sets the row order of every table."""
    for p in range(3, 1000, 2):
        if any(p % r == 0 for r in range(3, p, 2)):
            continue
        q, e = p, 1
        while q < 1000:
            phi = q - q // p
            g = next(g for g in range(2, q) if g % p and _order_by_multiplication(g, q) == phi)
            assert ch._local_generators(p, e) == [(g, phi)], (p, e)
            q, e = q * p, e + 1


def _primitive_count_oracle(q):
    """Number of primitive characters mod q: sum_{d | q} mu(q/d) phi(d)."""
    return sum(mobius_int(q // d) * totient(d) for d in divisors(q))


def test_exponent_matrix_matches_per_residue_oracle():
    for q in [*range(1, 201), 256, 360, 420, 480]:
        table = ch.character_table(q)
        exponents = np.full((len(table.expo), q), -1)
        exponents[:, table.units] = table.expo
        got = [(table.modulus, len(table.roots), tuple(row), int(f), i)
               for i, (row, f) in enumerate(zip(exponents.tolist(), table.conductors))]
        assert got == _oracle_characters(q)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 500), st.data())
def test_character_group_properties(q, data):
    table, V = _all_values(q)
    phi = totient(q)
    assert len(V) == phi
    assert np.abs(V @ V.conj().T - phi * np.eye(phi)).max() < 1e-9
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(units), st.sampled_from(units)),
                               min_size=1, max_size=8))
    for a, b in pairs:
        assert np.abs(V[:, a * b % q] - V[:, a] * V[:, b]).max() < 1e-12
    assert all(q % f == 0 for f in table.conductors.tolist())
    assert len(table.primitive) == _primitive_count_oracle(q)


def test_primitivity():
    assert ch.character_table(1).primitive.tolist() == [0]
    table, i = _nonprincipal(4)
    assert i in table.primitive and table.conductors[i] == 4
    table, i = _nonprincipal(6)
    assert i not in table.primitive and table.conductors[i] == 3
    for q in range(1, 201):
        assert len(ch.character_table(q).primitive) == _primitive_count_oracle(q)


def test_gauss_sums():
    assert ch.character_table(1).gauss_sums[0] == 1.0
    table, i = _nonprincipal(3)
    assert table.gauss_sums[i] == pytest.approx(1j * math.sqrt(3), abs=1e-12)
    worst = 0.0
    for q in range(1, 101):
        table = ch.character_table(q)
        tau = table.gauss_sums[table.primitive].tolist()
        worst = max([worst, *(abs(abs(t) - math.sqrt(q)) for t in tau)])
    assert worst < 1e-9


def _gauss_sum_oracle(table, i):
    """tau(chi_i) by the per-character route: the roots of unity and e(a/q)
    built on every call, then sum_a chi(a) e(a/q) over the q residues."""
    q, e = table.modulus, len(table.roots)
    C = np.zeros(q, dtype=np.complex128)
    C[table.units] = np.exp(2j * np.pi * np.arange(e) / e)[table.expo[i]]
    return complex((C * np.exp(2j * np.pi * np.arange(q) / q)).sum(-1))


def test_gauss_sums_match_the_per_character_route():
    """The table's Gauss sums, taken for all rows at once, keep the bits of
    the per-character sum for every character mod q <= 60.  For q <= 300,
    ``primitive_characters`` gives the (table, row) pairs of the primitive rows,
    and ``gauss_sum`` over them (perfbench's gauss job) reads the bits of
    ``gauss_sums[primitive]`` and |tau| - sqrt(q) from them."""
    for q in range(1, 61):
        table = ch.character_table(q)
        for i in range(len(table.expo)):
            assert table.gauss_sums[i] == _gauss_sum_oracle(table, i)
    for q in range(1, 301):
        table = ch.character_table(q)
        prims = ch.primitive_characters(q)
        assert prims == tuple((table, int(i)) for i in table.primitive)
        results = [ch.gauss_sum(psi) for psi in prims]
        tau = table.gauss_sums[table.primitive]
        assert np.array([r.value for r in results], dtype=complex).tobytes() == tau.tobytes()
        assert [r.modulus_sqrt_check for r in results] == [
            abs(abs(t) - math.sqrt(q)) for t in tau.tolist()]


def test_gauss_twist_identity(rng):
    for q in (3, 4, 5, 8, 9, 16, 21, 40, 60):
        table = ch.character_table(q)
        for i in table.primitive:
            tau = table.gauss_sums[i]
            row, conj = table.values([i, table.conjugates[i]])
            units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
            for n in rng.choice(units, min(4, len(units)), replace=False):
                n = int(n)
                a = np.arange(q)
                twisted = np.sum(row * np.exp(2j * np.pi * a * n / q))
                assert twisted == pytest.approx(conj[n % q] * tau, abs=1e-9)


def test_character_off_units_zero():
    table = ch.character_table(9)
    psi = table.values(table.primitive[:1])[0]
    for a in (0, 3, 6):
        assert psi[a] == 0.0


def m_nu_oracle(spec, a_table):
    """Reversed loop order, scalar arithmetic throughout."""
    total = 0j
    b = mo.b_table(spec, int(spec.y))
    m_top = int(spec.y * spec.T / (2 * math.pi))
    for m in range(1, m_top + 1):
        for k in range(1, int(spec.y) + 1):
            if m <= k * spec.T / (2 * math.pi):
                bk = b[k]
                if bk:
                    total += a_table[m] * bk / k * complex(
                        math.cos(2 * math.pi * m / k), -math.sin(2 * math.pi * m / k)
                    )
    return total


def tables_for(spec, nu):
    need = max(1, int(spec.y * spec.T / (2 * math.pi)))
    if nu == 1:
        return arith.compute_a1(need)
    return arith.compute_a2(need, mo.b_table(spec, need))


def test_m_nu_direct_degenerate_cases():
    tiny = mo.MollifierSpec.with_y(400.0, 1.5)
    a1 = tables_for(tiny, 1)
    want = math.fsum(a1[m] for m in range(1, int(400 / (2 * math.pi)) + 1))
    assert ch.m_nu_direct(tiny, a1) == pytest.approx(want + 0j, abs=1e-12)
    # near-minimal T with y = 3: k = 3 dies through b(3) = -P(0) = 0 and the
    # surviving m-range {1, 2} sits where a1 vanishes, so M_1 = 0 exactly
    spec = mo.MollifierSpec.with_y(9.1, 3.0)
    assert ch.m_nu_direct(spec, tables_for(spec, 1)) == 0j


def test_m_nu_direct_vs_oracle():
    spec = mo.MollifierSpec.with_y(50.0, 7.0)
    for nu in (1, 2):
        table = tables_for(spec, nu)
        got = ch.m_nu_direct(spec, table)
        want = m_nu_oracle(spec, table)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_m_nu_table_too_short():
    spec = mo.MollifierSpec.with_y(100.0, 6.0)
    short = arith.compute_a1(10)
    with pytest.raises(ValueError):
        ch.m_nu_direct(spec, short)
    with pytest.raises(ValueError):
        ch.m_nu_rearranged(spec, short)
    with pytest.raises(ValueError, match="yT/2pi = inf exceeds the table cap"):
        ch.m_nu_direct(mo.MollifierSpec.with_y(1e308, 12.0), short)


def test_a_table_is_both_routes_bit_for_bit():
    spec = mo.MollifierSpec.with_y(200.0, 12.0)
    assert ch.a_table(1, spec, 381).values.tobytes() == arith.compute_a1(381).values.tobytes()
    want = arith.compute_a2(381, mo.b_table(spec, 381)).values
    assert ch.a_table(2, spec, 381).values.tobytes() == want.tobytes()
    for nu in (0, 3):
        with pytest.raises(ValueError, match=f"nu must be 1 or 2, got {nu}"):
            ch.a_table(nu, spec, 381)


def test_rearrangement_equals_direct():
    for y, T in [(1.5, 60.0), (6.0, 60.0), (9.9, 100.0), (12.5, 400.0)]:
        spec = mo.MollifierSpec.with_y(T, y)
        for nu in (1, 2):
            table = tables_for(spec, nu)
            direct = ch.m_nu_direct(spec, table)
            rearranged = ch.m_nu_rearranged(spec, table)
            assert abs(direct - rearranged) <= ch.REARRANGE_TOLERANCE * max(1.0, abs(direct))


def test_rearrangement_coprimality_is_forced_by_b():
    spec = mo.MollifierSpec.with_y(200.0, 14.0)
    b = mo.b_table(spec, int(spec.y))
    for q in range(2, 15):
        for k in range(1, int(spec.y / q) + 1):
            if math.gcd(k, q) > 1:
                assert b[k * q] == 0.0


def delta_oracle(q, k, d, psi, psi_bar):
    """delta(q, kq, d, psi) for one character, given the values of psi and
    its conjugate, a scalar sum over l | gcd(d, k)."""
    total = 0j
    for l in divisors(math.gcd(d, k)):
        mu_dl, mu_kl = mobius_int(d // l), mobius_int(k // l)
        if mu_dl and mu_kl:
            total += (mu_dl / totient(k * q // l) * complex(psi_bar[-(k // l) % q])
                      * complex(psi[d // l % q]) * mu_kl)
    return total


def m_nu_rearranged_oracle(spec, a_table):
    """The rearranged form one character at a time: a per-psi Gauss sum,
    per-psi delta and a gathered dot product for every (q, psi, k, d)."""
    av = a_table.values
    b = mo.b_table(spec, int(spec.y))
    terms = []
    for q in range(1, int(spec.y) + 1):
        table = ch.character_table(q)
        for i in table.primitive:
            psi, psi_bar = table.values([i, table.conjugates[i]])
            inner = 0j
            for k in range(1, int(spec.y / q) + 1):
                bkq = b[k * q]
                if bkq == 0.0:
                    continue
                for d in divisors(k):
                    delta = delta_oracle(q, k, d, psi, psi_bar)
                    m_max = int(k * q * spec.T / (2 * math.pi * d))
                    if delta == 0.0 or m_max < 1:
                        continue
                    idx = np.arange(1, m_max + 1)
                    s = complex(np.dot(av[idx * d], psi[idx % q]))
                    inner += (bkq / (k * q)) * delta * s
            terms.append(complex(table.gauss_sums[table.conjugates[i]]) * inner)
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return value, math.fsum(abs(t) for t in terms)


def test_delta_is_one_character_value_times_a_real_scale():
    """l | d | k are units mod q, so psi(l) cancels in the per-psi l-sum:
    delta = psi(u) c with u = d (-k)^-1 mod q and c = sum_{l | d}
    mu(d/l) mu(k/l) / phi(kq/l), on every (q, psi, k, d) with gcd(k, q) = 1
    and kq <= 200.  Where b(kq) can be nonzero (kq squarefree),
    c = mu(k/d) d / (phi(k) phi(q)), the form ``m_nu_rearranged`` uses."""
    cases = 0
    for q in range(1, 61):
        table = ch.character_table(q)
        for k in range(1, 200 // q + 1):
            if math.gcd(k, q) != 1:
                continue
            for d in divisors(k):
                u = d * pow(-k, -1, q) % q
                c = sum(mobius_int(d // l) * mobius_int(k // l) / totient(k * q // l)
                        for l in divisors(d))
                assert abs(c) <= sum(1 / totient(k * q // l) for l in divisors(d)) + 1e-15
                if mobius_int(k * q):
                    closed = mobius_int(k // d) * d / (totient(k) * totient(q))
                    assert c == pytest.approx(closed, rel=1e-15)
                for i in table.primitive:
                    psi, psi_bar = table.values([i, table.conjugates[i]])
                    assert abs(delta_oracle(q, k, d, psi, psi_bar) - psi[u] * c) <= 1e-15
                    cases += 1
    assert cases == 8985


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.floats(20.0, 600.0), st.floats(1.5, 24.0), st.sampled_from([1, 2]))
def test_rearranged_matches_per_character_oracle(T, y, nu):
    """The matrix form against the per-character oracle, within 1e-13 of the
    sum of |psi-terms|: M_1 can cancel to a few units (|M_1| = 1.47 at
    T = 450, y = 16.14), below the size of the terms both routes round."""
    spec = mo.MollifierSpec.with_y(T, min(y, T**0.49))
    table = tables_for(spec, nu)
    want, scale = m_nu_rearranged_oracle(spec, table)
    got = ch.m_nu_rearranged(spec, table)
    assert abs(got - want) <= 1e-13 * max(1.0, scale)


def test_gauss_sweep_memory_is_bounded():
    """A Gauss sum of every primitive character for q <= 300 keeps no
    per-character state: peak RSS grows by well under 20 MB (ru_maxrss is
    in KiB on Linux)."""
    code = ("import resource; from zetalab import characters as ch\n"
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = rss()\n"
            "worst = max(ch.gauss_sum(psi).modulus_sqrt_check\n"
            "            for q in range(1, 301) for psi in ch.primitive_characters(q))\n"
            "print((rss() - before) / 1024, worst)")
    env = dict(os.environ, PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    growth_mb, worst = float(out[0]), float(out[1])
    assert worst < 1e-9
    assert growth_mb < 20.0


def _polya_vinogradov_max(chi, Y, coprime_to=1):
    """max_{Y' <= Y} |sum_{h <= Y', gcd(h, coprime_to) = 1} chi(h)|, chi the
    values chi(0), ..., chi(q - 1)."""
    h = np.arange(1, Y + 1)
    vals = np.where(np.gcd(h, coprime_to) == 1, chi[h % len(chi)], 0.0)
    return float(np.abs(np.cumsum(vals)).max())


def test_polya_vinogradov():
    table, i = _nonprincipal(3)
    assert _polya_vinogradov_max(table.values([i])[0], 1000) == pytest.approx(1.0, abs=1e-12)
    for q in range(3, 60):
        table, V = _all_values(q)
        for chi, principal in zip(V, ~table.expo.any(axis=1)):
            if principal:
                continue
            bound = math.sqrt(q) * math.log(q)
            assert _polya_vinogradov_max(chi, 2000) <= bound + 1e-9


def test_polya_vinogradov_coprime_variant():
    for q in (5, 7, 11, 13):
        table = ch.character_table(q)
        for chi in table.values(table.primitive):
            for D in (6, 12, 30):
                tau_d = len(divisors(D))
                bound = tau_d * math.sqrt(q) * math.log(q)
                got = _polya_vinogradov_max(chi, 2000, coprime_to=D)
                assert got <= bound + 1e-9
