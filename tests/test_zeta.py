import contextlib
import functools
import io
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import cache, mollifier as mo
from zetalab import zeta as ze

mp.mp.dps = 30

FIRST_ZEROS = [14.134725141734693, 21.022039638771555, 25.010857580145688]


def test_theta_dual_route():
    for t in (20.0, 50.0, 100.0, 1000.0, 99999.0):
        assert ze.rs_theta(t) == pytest.approx(ze.rs_theta_asymptotic(t), abs=1e-8)


def test_theta_monotone_and_against_oracle():
    grid = np.linspace(10.0, 2000.0, 400)
    vals = ze.rs_theta(grid)
    assert np.all(np.diff(vals) > 0)
    for t in (10.0, 123.456, 5000.0):
        assert ze.rs_theta(t) == pytest.approx(float(mp.siegeltheta(t)), abs=1e-10)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(st.floats(0.0, 100.0), st.floats(0.0, 1e5)))
def test_theta_and_derivative_against_oracle(t):
    """Stirling theta and theta' against mpmath, scaled by max(1, |value|)."""
    val, dval = ze.rs_theta(t, derivative=True)
    want, dwant = float(mp.siegeltheta(t)), float(mp.siegeltheta(t, derivative=1))
    assert abs(val - want) <= 2e-14 * max(1.0, abs(want))
    assert abs(dval - dwant) <= 2e-14 * max(1.0, abs(dwant))
    assert val == ze.rs_theta(t)


def test_theta_asymptotic_remainder():
    t = 100.0
    main = 0.5 * t * math.log(t / (2 * math.pi)) - 0.5 * t - math.pi / 8
    assert abs(ze.rs_theta(t) - main - 1.0 / (48 * t)) < 1e-6


def test_hardy_z_reality_residue():
    """|Im e^{i theta} zeta(1/2+it)| from the Euler-Maclaurin route: the
    functional equation makes it vanish."""
    grid = np.linspace(10.0, 399.0, 160)
    residue = np.abs(ze._hardy_z_em(grid, *ze.rs_theta(grid, derivative=True))[0].imag)
    assert residue.max() < 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.floats(399.5, 400.5))
def test_em_rs_seam_agreement(t):
    """Both branches of hardy_z agree across the EM/RS switch at t = 400, at the same theta."""
    arr = np.array([t])
    theta = ze.rs_theta(arr, derivative=True)
    em, rs = ze._hardy_z_em(arr, *theta)[0].real, ze._hardy_z_rs(arr, *theta, 0)[0]
    assert abs(em[0] - rs[0]) <= 5e-9


@pytest.mark.parametrize("lo, hi, tol, ztol, examples", [
    (0.0, 399.5, 1e-13, 5e-14, 40),  # Euler-Maclaurin branch: Z and Z'
    (399.5, 400.5, 2e-9, None, 25),  # the seam, either branch
    (400.5, 5000.0, 2e-9, None, 20),  # Riemann-Siegel branch
])
def test_hardy_z_derivative_against_oracle(lo, hi, tol, ztol, examples):
    @settings(derandomize=True, database=None, deadline=None, max_examples=examples)
    @given(st.floats(lo, hi))
    def check(t):
        z, zp = ze.hardy_z(t, derivative=True)
        assert z == ze.hardy_z(t)
        want = float(mp.siegelz(t, derivative=1))
        assert abs(zp - want) <= tol * max(1.0, abs(want))
        if ztol is not None:
            assert abs(z - float(mp.siegelz(t))) <= ztol

    check()


def test_hardy_z_em_takes_its_sums_from_the_phase_kernel(monkeypatch):
    """Z and Z' below 400 come from ``_sums``, not from the Euler-Maclaurin oracle."""
    def oracle(*args, **kwargs):
        raise AssertionError("zeta_euler_maclaurin called")

    monkeypatch.setattr(ze, "zeta_euler_maclaurin", oracle)
    z, zp = ze.hardy_z(np.linspace(10.0, 399.0, 50), derivative=True)
    assert np.isfinite(z).all() and np.isfinite(zp).all()


def test_hardy_z_em_mixed_cutoffs_equal_the_points_alone(monkeypatch):
    """One ``_sums`` call and one tail over points of four cutoffs, bit for bit as each alone."""
    t = np.array([3.0, 100.0, 250.0, 399.4])
    assert len(set(ze._em_terms(t).tolist())) == 4
    theta, dtheta = ze.rs_theta(t, derivative=True)
    calls = []
    for name in ("_sums", "_add_em_tail"):
        def counted(*args, _name=name, _fn=getattr(ze, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ze, name, counted)
    together = ze._hardy_z_em(t, theta, dtheta)
    assert calls == ["_sums", "_add_em_tail"]
    monkeypatch.undo()
    for i in range(len(t)):
        alone = ze._hardy_z_em(t[i : i + 1], theta[i : i + 1], dtheta[i : i + 1])
        assert np.array_equal(together[:, i : i + 1], alone)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, [1.0, math.nan]])
def test_hardy_z_rejects_negative_and_non_finite_t(t):
    with pytest.raises(ValueError, match=r"finite t >= 0"):
        ze.hardy_z(t)


@pytest.mark.parametrize("t", [-5.0, math.nan, math.inf, 1e20, 1e300,
                               np.nextafter(ze.HEIGHT_CAP, math.inf)])
def test_hardy_z_and_zeta_prime_share_one_height_guard(t):
    """Every Z goes through one check: t above HEIGHT_CAP would ask for a phase
    table of gigabytes, or overflow to nan, and zeta_prime_many took any t."""
    with pytest.raises(ValueError, match=r"finite t >= 0, at most 1e\+08$"):
        ze.hardy_z(t)
    with pytest.raises(ValueError, match=r"finite t >= 0, at most 1e\+08$"):
        ze.zeta_prime_many(np.array([20.0, t]))


def test_hardy_z_at_the_height_cap():
    assert ze.hardy_z(ze.HEIGHT_CAP) == pytest.approx(float(mp.siegelz(ze.HEIGHT_CAP)), abs=1e-5)


@pytest.mark.parametrize("T", [1e5 + 1, 2e5])
def test_zero_scan_and_census_stop_at_the_scan_cap(T, zeros_300):
    assert ze.SCAN_CAP == 1e5
    with pytest.raises(ValueError, match="desk scale tops out"):
        ze.find_zeros(T)
    with pytest.raises(ValueError, match="desk scale tops out"):
        ze.count_N(T, zeros_300)


@pytest.mark.parametrize("T, message", [(-5.0, "height T = -5.0 must be >= 0"),
                                        (math.nan, "height T = nan must be >= 0"),
                                        (2e5, "desk scale tops out at T = 100000$")])
def test_zero_scan_and_census_reject_the_same_heights(T, message, zeros_300):
    with pytest.raises(ValueError, match=message):
        ze.find_zeros(T)
    with pytest.raises(ValueError, match=message):
        ze.count_N(T, zeros_300)


def test_hardy_z_first_zero_bracket():
    assert abs(ze.hardy_z(14.134725)) < 1e-5
    assert np.sign(ze.hardy_z(14.0)) != np.sign(ze.hardy_z(15.0))


def test_hardy_z_against_oracle():
    # Euler-Maclaurin branch and Riemann-Siegel branch against the 30-digit oracle
    for t in (0.5, 14.1, 120.0, 399.5):
        assert ze.hardy_z(t) == pytest.approx(float(mp.siegelz(t)), abs=1e-10)
    for t in (401.0, 523.7, 1000.0, 2718.3, 5000.0):
        assert ze.hardy_z(t) == pytest.approx(float(mp.siegelz(t)), abs=5e-8)


def test_euler_maclaurin_general_argument():
    for s in (2.0 + 0j, 0.5 + 30j, 1.5 + 200j, 3.0 + 50j):
        assert complex(ze.zeta_euler_maclaurin(s)) == pytest.approx(
            complex(mp.zeta(mp.mpc(s.real, s.imag))), abs=1e-11
        )


def test_find_zeros_first_and_count():
    zl = ze.find_zeros(100.0)
    assert len(zl) == 29
    for got, want in zip(zl.ordinates, FIRST_ZEROS):
        assert got == pytest.approx(want, abs=1e-6)
    assert len(ze.find_zeros(14.0)) == 0


def _oracle_zeros(T):
    """The previous scan, kept as the oracle: Z on a uniform grid 0.2/log t
    apart (plus the Gram points), halved everywhere until the sign changes
    reach the counting formula, then 34 bisection passes on every bracket."""
    pieces, lo = [np.array([14.0])], 14.0
    while lo < T:
        hi = min(T, lo * 2)
        pieces.append(np.arange(lo, hi, 0.2 / math.log(hi))[1:])
        lo = hi
    grid = np.unique(np.concatenate(pieces + [np.array([T]), ze.gram_points(T)]))
    grid = grid[(grid >= 14.0) & (grid <= T)]
    target = int(round(ze.count_formula(T)))
    for _ in range(7):
        z = ze.hardy_z(grid)
        flips = np.nonzero(np.sign(z[:-1]) != np.sign(z[1:]))[0]
        if len(flips) >= target:
            break
        grid = np.unique(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
    lo, hi, f_lo = grid[flips], grid[flips + 1], z[flips]
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        f_mid = ze.hardy_z(mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, mid, lo), np.where(left, f_mid, f_lo), np.where(left, hi, mid)
    return np.sort(0.5 * (lo + hi))


@pytest.mark.parametrize("T", [300.0, 5000.0])
def test_find_zeros_matches_grid_oracle(T, zeros_300, zeros_5000):
    # T = 300 passes the first failure of Gram's law, near g_126 = 282.45
    got = (zeros_300 if T == 300.0 else zeros_5000).ordinates
    want = _oracle_zeros(T)
    assert len(got) == len(want)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("offset", [1, -1])
def test_find_zeros_census_off_by_one_raises(monkeypatch, offset):
    true_count = ze.count_formula(300.0)
    monkeypatch.setattr(ze, "count_formula", lambda T: true_count + offset)
    with pytest.raises(ze.ZeroScanError, match="segment"):
        ze.find_zeros(300.0)


def test_find_zeros_work_per_zero(monkeypatch):
    points = []  # every evaluation passes _z_rows: the scan through hardy_z, refinement directly
    z_rows = ze._z_rows
    monkeypatch.setattr(ze, "_z_rows", lambda t, *a: points.append(len(t)) or z_rows(t, *a))
    zeros = ze.find_zeros(5000.0)
    assert sum(points) <= 6 * len(zeros)  # a (Z, Z') point counts once


def test_find_zeros_zero_at_T():
    for k, gamma in enumerate(FIRST_ZEROS, start=1):
        zl = ze.find_zeros(gamma)
        assert len(zl) == k and zl.ordinates[-1] == pytest.approx(gamma, abs=1e-10)


def test_zero_list_validation():
    with pytest.raises(ValueError):
        ze.ZeroList(np.array([15.0, 15.0]), "computed", 20.0)
    with pytest.raises(ValueError):
        ze.ZeroList(np.array([13.0, 15.0]), "computed", 20.0)
    with pytest.raises(ValueError):
        ze.ZeroList(np.array([15.0, 21.0]), "computed", 18.0)
    with pytest.raises(ValueError):  # census wildly off the counting formula
        ze.ZeroList(np.array([15.0]), "computed", 5000.0)


def test_zero_list_copies_its_inputs():
    base = np.array(FIRST_ZEROS)
    zl = ze.ZeroList(base[:], "computed", 31.0)
    base[1] = 22.5
    assert zl.ordinates.tolist() == FIRST_ZEROS
    own = np.array(FIRST_ZEROS)
    ze.ZeroList(own, "computed", 31.0)
    own[0] = 14.5  # the caller's array stays theirs and writable
    assert not zl.ordinates.flags.writeable


def test_zero_list_zeta_prime_is_validated_and_copied():
    zp = np.array([0.79 + 0.12j, -1.1 + 0.3j, 1.3 - 0.2j])
    zl = ze.ZeroList(np.array(FIRST_ZEROS), "computed", 31.0, zp[:])
    zp[1] = 0.0
    assert zl.zeta_prime[1] == -1.1 + 0.3j and zp.flags.writeable
    assert zl.zeta_prime.dtype == np.complex128 and not zl.zeta_prime.flags.writeable
    for bad in (zp[:2], np.array([1.0, np.nan, 1.0]), np.array([1.0, 1.0, 1j * np.inf])):
        with pytest.raises(ValueError, match="zeta_prime"):
            ze.ZeroList(np.array(FIRST_ZEROS), "computed", 31.0, bad)


def test_count_N(zeros_1000):
    n100 = ze.count_N(100.0, zeros_1000)
    assert n100.census == 29 and n100.formula == 29 and n100.census == n100.formula
    assert ze.count_N(14.0, ze.find_zeros(14.0)).census == 0
    counts = [ze.count_N(T, zeros_1000).census for T in (100.0, 250.0, 500.0, 1000.0)]
    assert counts == sorted(counts)


def test_census_rvm_envelope(zeros_1000):
    for T in (100.0, 300.0, 700.0, 1000.0):
        census = len(zeros_1000.up_to(T))
        assert abs(census - (ze.rs_theta(T) / math.pi + 1.0)) <= 1.0 + 0.6 * math.log(T)


def test_ingest_roundtrip(tmp_path, zeros_1000):
    path = tmp_path / "zeros.txt"
    ze.write_zeros(zeros_1000, path)
    back = ze.ingest_zeros(path)
    assert back.source == "ingested"
    assert np.array_equal(back.ordinates, zeros_1000.ordinates)


def test_write_zeros_is_atomic(tmp_path, monkeypatch, zeros_300):
    """A write that fails after its first block leaves no temporary file behind, and
    ``path`` absent or as it was."""
    monkeypatch.setattr(ze, "BLOCK", 8)
    open_temps = []

    class FailingOrdinates:  # the ordinates of zeros_300, whose second block fails
        def __len__(self):
            return len(zeros_300.ordinates)

        def __getitem__(self, block):
            if block.start >= ze.BLOCK:
                open_temps.extend(p.name for p in tmp_path.glob("*.tmp"))
                raise RuntimeError("disk full")
            return zeros_300.ordinates[block]

    fresh, old = tmp_path / "fresh.txt", tmp_path / "old.txt"
    ze.write_zeros(zeros_300, old)
    before = old.read_bytes()
    for path in (fresh, old):
        broken = SimpleNamespace(source="computed", max_height=300.0, ordinates=FailingOrdinates())
        with pytest.raises(RuntimeError, match="disk full"):
            ze.write_zeros(broken, path)
    assert [name.split(".")[0] for name in open_temps] == ["fresh", "old"]
    assert not fresh.exists()
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]


def test_truncated_table_is_rejected(tmp_path, zeros_300):
    path = tmp_path / "zeros.txt"
    ze.write_zeros(zeros_300, path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("#") and first.endswith(f", count={len(zeros_300)}")
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-6]))
    with pytest.raises(ValueError, match=f"count={len(zeros_300)}"):
        ze.ingest_zeros(path)


def _npy(header: dict, body: bytes = b"") -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + body


def _damage(raw: bytes, kind: str) -> bytes:
    table = np.load(io.BytesIO(raw))
    n = table.shape[1]
    if kind == "truncate":
        return raw[:-48]
    if kind == "huge_header":  # claims 240 GB; must fail without allocating it
        return _npy({"descr": "<f8", "fortran_order": False, "shape": (3, 10**10)}, raw[-64:])
    if kind == "wrong_dtype":
        return _npy({"descr": "<f4", "fortran_order": False, "shape": (3, n)},
                    table.astype(np.float32).tobytes())
    if kind == "wrong_shape":
        return _npy({"descr": "<f8", "fortran_order": False, "shape": (2, n)},
                    table[:2].tobytes())
    if kind == "pickled":
        buf = io.BytesIO()
        np.save(buf, np.array([list(row) for row in table], dtype=object), allow_pickle=True)
        return buf.getvalue()
    row, col, value = {"nan_ordinate": (0, 10, np.nan), "nan_prime": (2, 10, np.nan),
                       "not_increasing": (0, 11, table[0, 10])}[kind]
    table[row, col] = value
    buf = io.BytesIO()
    np.save(buf, table)
    return buf.getvalue()


@pytest.mark.parametrize("damage", ["truncate", "huge_header", "wrong_dtype", "wrong_shape",
                                    "pickled", "nan_ordinate", "nan_prime", "not_increasing"])
def test_damaged_cache_file_is_a_miss(tmp_path, zeros_300, damage):
    fresh = cache.load_or_find_zeros(300.0, tmp_path)
    path = cache.zeros_path(300.0, tmp_path)
    assert path.name == "zeros-300.0.npy"
    good = path.read_bytes()
    path.write_bytes(_damage(good, damage))
    zl = cache.load_or_find_zeros(300.0, tmp_path)
    assert zl.source == "computed" and zl.max_height == 300.0
    assert np.array_equal(zl.ordinates, zeros_300.ordinates)
    assert np.array_equal(zl.zeta_prime, fresh.zeta_prime)
    assert path.read_bytes() == good  # found again and rewritten
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_holds_zeta_prime_of_the_scan(tmp_path, zeros_300):
    cold = cache.load_or_find_zeros(300.0, tmp_path)
    warm = cache.load_or_find_zeros(300.0, tmp_path)
    want = ze.zeta_prime_many(zeros_300.ordinates)
    for zl in (cold, warm):
        assert np.array_equal(zl.ordinates, zeros_300.ordinates)
        assert zl.zeta_prime.tobytes() == want.tobytes()
    table = np.load(cache.zeros_path(300.0, tmp_path), allow_pickle=False)
    assert table.dtype == np.float64 and table.shape == (3, len(zeros_300))
    assert cache.load_or_find_zeros(300.0, tmp_path, enabled=False).zeta_prime is None


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def failing_save(fh, arr):
        fh.write(b"\x93NUMPY\x01\x00")
        raise RuntimeError("disk full")

    monkeypatch.setattr(np, "save", failing_save)
    with pytest.raises(RuntimeError, match="disk full"):
        cache.load_or_find_zeros(100.0, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cached_tiny_zeta_prime_warns(tmp_path):
    cache.load_or_find_zeros(100.0, tmp_path)
    path = cache.zeros_path(100.0, tmp_path)
    table = np.load(path)
    table[1:, 7] = 1e-13
    np.save(path, table)
    with pytest.warns(RuntimeWarning, match="possible multiple zero"):
        zl = cache.load_or_find_zeros(100.0, tmp_path)
    assert abs(zl.zeta_prime[7]) < 1e-12


def test_euler_maclaurin_row_blocks_are_exact():
    # 37 rows share one cutoff: four full row blocks and a partial one
    s = np.linspace(20.0, 0.5, 37) + 2000.0j
    rows = np.array([ze.zeta_euler_maclaurin(x) for x in s])
    assert np.array_equal(ze.zeta_euler_maclaurin(s), rows)


def test_ingest_accepts_known_first_zero(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("# leading comment\n14.134725141734693\n")
    zl = ze.ingest_zeros(path)
    assert len(zl) == 1


def test_ingest_rejections(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.134725\n25.01\n21.02\n")
    with pytest.raises(ValueError, match="bad.txt:3"):
        ze.ingest_zeros(bad)
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("14.1347\nnot-a-number\n")
    with pytest.raises(ValueError, match="not a decimal"):
        ze.ingest_zeros(garbage)
    shifted = tmp_path / "shifted.txt"
    shifted.write_text("14.135725141734693\n21.022039638771555\n")
    with pytest.raises(ValueError, match="overlap"):
        ze.ingest_zeros(shifted)


def test_zeta_prime_modulus_identity(zeros_300):
    """zeta'(rho) against mpmath's zeta', and |zeta'(rho)| = |Z'(gamma)| against mpmath's Z'."""
    g = zeros_300.ordinates[::7]
    zp = ze.zeta_prime_many(g)
    for gamma, got in zip(g, zp):
        want = complex(mp.zeta(mp.mpc(0.5, gamma), derivative=1))
        assert abs(got - want) < 1e-8 * abs(want)
        assert abs(abs(got) - abs(float(mp.siegelz(gamma, derivative=1)))) < 1e-8 * abs(want)


def test_zeta_prime_dual_routes(zeros_300):
    g = zeros_300.ordinates[:100]
    route1 = ze.zeta_prime_many(g)
    route2 = np.array([ze.zeta_prime_line_route(float(x)) for x in g])
    rel = np.abs(route1 - route2) / np.abs(route1)
    assert rel.max() < 1e-6


def test_zeta_prime_of_a_scalar_is_a_complex():
    got = ze.zeta_prime_many(FIRST_ZEROS[0])
    want = ze.zeta_prime_many(np.array([FIRST_ZEROS[0]]))[0]
    assert type(got) is complex
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_zeta_prime_against_oracle():
    for k in (1, 2, 5, 10):
        gamma = float(mp.zetazero(k).imag)
        want = complex(mp.zeta(mp.mpc(0.5, gamma), derivative=1))
        got = complex(ze.zeta_prime_many(np.array([gamma]))[0])
        assert abs(got - want) / abs(want) < 1e-8


def test_zeros_all_simple(zeros_1000):
    zp = ze.zeta_prime_many(zeros_1000.ordinates)
    assert np.abs(zp).min() > 0.0


def test_moments_degenerate_mollifier(zeros_300):
    spec = mo.MollifierSpec.with_y(300.0, 1.5)  # B identically 1
    res = ze.compute_moments(spec, zeros_300)
    zp = ze.zeta_prime_many(zeros_300.ordinates)
    assert res.S1 == pytest.approx(complex(zp.sum()), rel=1e-10)
    assert res.S2 == pytest.approx(float((np.abs(zp) ** 2).sum()), rel=1e-10)
    assert res.S2 >= 0.0


def test_moments_determinism(zeros_300):
    spec = mo.MollifierSpec.from_T_theta(300.0, 0.3)
    a = ze.compute_moments(spec, zeros_300)
    b = ze.compute_moments(spec, zeros_300)
    assert a.S1 == b.S1 and a.S2 == b.S2 and a.kappa_bound == b.kappa_bound


def test_moments_rejections(zeros_300):
    spec = mo.MollifierSpec.from_T_theta(1000.0, 0.3)
    with pytest.raises(ValueError):
        ze.compute_moments(spec, zeros_300)


def test_empirical_kappa_bound(zeros_1000):
    spec = mo.MollifierSpec.from_T_theta(1000.0, 0.3)
    res = ze.compute_moments(spec, zeros_1000)
    bound = res.kappa_bound
    assert 0.0 < bound <= 1.01
    assert bound == abs(res.S1) ** 2 / (res.S2 * res.N_T)
    for T in (200.0, 500.0, 1000.0):
        spec_t = mo.MollifierSpec.from_T_theta(T, 0.3)
        b = ze.compute_moments(spec_t, zeros_1000).kappa_bound
        assert 0.5 <= b <= 1.01


def test_gram_points_interleaving():
    gp = ze.gram_points(120.0)
    theta_over_pi = ze.rs_theta(gp) / math.pi
    assert np.max(np.abs(theta_over_pi - np.round(theta_over_pi))) < 1e-6


# ---------------------------------------------------------------------------
# blocks: bounded memory, and no output bit depends on the block size


def test_hardy_z_point_equals_its_value_in_any_batch():
    """Z and Z' at a point, alone or inside any batch of either branch, bit for bit."""
    rng = np.random.default_rng(20251018)
    t = np.concatenate([rng.uniform(14.0, 400.0, 20), rng.uniform(399.0, 401.0, 6),
                        rng.uniform(400.0, 3e4, 30), [400.0, 2 * math.pi * 37.0**2]])
    alone = np.array([ze.hardy_z(x, derivative=True) for x in t])
    assert np.array_equal(alone[:, 0], [ze.hardy_z(x) for x in t])
    big = np.concatenate([rng.permutation(np.repeat(t, 50)), t])  # t again past a block edge
    for batch in (t, t[::-1], rng.permutation(t)):
        z, dz = ze.hardy_z(batch, derivative=True)
        order = [np.flatnonzero(t == x)[0] for x in batch]
        assert np.array_equal(z, alone[order, 0]) and np.array_equal(dz, alone[order, 1])
        assert np.array_equal(ze.hardy_z(batch), z)
    z, dz = ze.hardy_z(big, derivative=True)
    assert np.array_equal(z[-len(t):], alone[:, 0]) and np.array_equal(dz[-len(t):], alone[:, 1])


def test_zero_pipeline_is_block_size_invariant(monkeypatch):
    spec = mo.MollifierSpec.from_T_theta(5000.0, 0.4)
    runs = []
    for block in (ze.BLOCK, 300):
        monkeypatch.setattr(ze, "BLOCK", block)
        zeros = ze.find_zeros(5000.0)
        runs.append((zeros.ordinates, ze.zeta_prime_many(zeros.ordinates),
                     ze.gram_points(5000.0), ze.compute_moments(spec, zeros)))
    (o1, p1, g1, m1), (o2, p2, g2, m2) = runs
    assert len(o1) == 4520
    assert np.array_equal(o1, o2) and np.array_equal(p1, p2) and np.array_equal(g1, g2)
    assert m1 == m2


def test_zero_pipeline_memory_is_bounded():
    """The largest temporary of find_zeros and zeta_prime_many is O(BLOCK x terms):
    at T = 3e4 (35673 zeros) their traced peak was about 15 MB with whole-length passes."""
    ze.count_formula.cache_clear()
    tracemalloc.start()
    try:
        zeros = ze.find_zeros(3e4)
        ze.zeta_prime_many(zeros.ordinates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(zeros) == 35673
    assert peak < 6 * 2**20


# (lines, message after "path:") with BLOCK = 3: each fault sits at a block edge
INGEST_EDGES = [
    (["14.134725141734693", "21.022039638771555", "25.010857580145688", "24.0"],
     "4: ordinate 24.0 not above previous 25.01085758014569"),
    (["14.134725141734693", "21.022039638771555", "25.01", "25.01"],
     "4: ordinate 25.01 not above previous 25.01"),
    (["14.134725141734693", "21.022039638771555", "25.01", "# note", "", "#", "20.0"],
     "7: ordinate 20.0 not above previous 25.01"),
    (["14.134725141734693", "21.022039638771555", "25.01", "x25", "20.0"],
     "4: not a decimal ordinate: 'x25'"),
    (["14.134725141734693", "21.022039638771555", "x21", "25.01", "24.0"],
     "3: not a decimal ordinate: 'x21'"),
    (["14.134725141734693", "21.022039638771555", "25.01", "30.4", "29.0", "?"],
     "5: ordinate 29.0 not above previous 30.4"),
    # float reads an underscore and non-ASCII digits as a number; a zero table does not
    (["14.134725141734693", "21.022039638771555", "25.01", "3_0.4"],
     "4: not a decimal ordinate: '3_0.4'"),
    (["14.134725141734693", "21.022039638771555", "２５.01"],
     "3: not a decimal ordinate: '２５.01'"),
]


@pytest.mark.parametrize("block", [1, 2, 3, 2048])
@pytest.mark.parametrize("lines, message", INGEST_EDGES)
def test_ingest_messages_at_block_edges(tmp_path, monkeypatch, block, lines, message):
    monkeypatch.setattr(ze, "BLOCK", block)
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        ze.ingest_zeros(path)
    assert str(err.value) == f"{path}:{message}"


def block_ingest(path, block) -> ze.ZeroList:
    """The block reader that ``ingest_zeros`` replaced, kept as its oracle: the header
    from a second open of the file, then ``block`` lines at a time, the last value
    carried across blocks."""
    with open(path) as fh:
        first = fh.readline()
    header = {}
    if first.startswith("#"):
        header = dict(f.strip().split("=", 1) for f in first[1:].split(",") if "=" in f)
    parts, last = [], []  # last: the ordinate before the current block, once there is one
    with open(path) as fh:
        lines = enumerate(map(str.strip, fh), start=1)
        while chunk := list(itertools.islice(lines, block)):
            body = [(n, line) for n, line in chunk if line and line[0] != "#"]
            values = last.copy()
            with contextlib.suppress(ValueError):  # extend keeps the values before a bad line
                values.extend(map(float, [line for _, line in body]))
            arr = np.array(values)
            down = np.flatnonzero(arr[1:] <= arr[:-1])
            if down.size:
                i = int(down[0]) + 1
                raise ValueError(f"{path}:{body[i - len(last)][0]}: ordinate {values[i]} not above "
                                 f"previous {values[i - 1]}")
            if len(values) - len(last) < len(body):
                n, line = body[len(values) - len(last)]
                raise ValueError(f"{path}:{n}: not a decimal ordinate: {line!r}")
            parts.append(arr[len(last):])
            last = values[-1:]
    values = np.concatenate(parts) if parts else np.zeros(0)
    if header.get("count", str(len(values))) != str(len(values)):
        raise ValueError(f"{path}: header declares count={header['count']}, "
                         f"file has {len(values)} ordinates")
    try:
        max_height = float(header.get("max_height", values[-1] if len(values) else 0.0))
    except ValueError:
        raise ValueError(f"{path}: header max_height={header['max_height']!r} is not a number")
    zeros = ze.ZeroList(values, "ingested", max_height)
    if len(values):
        top = min(200.0, float(values[-1]))
        mine = ze.find_zeros(top + 1.0).ordinates
        theirs = zeros.up_to(top)
        if len(mine) < len(theirs):
            raise ValueError(f"overlap [0, {top}]: file has {len(theirs)} zeros, "
                             f"computed {len(mine)}")
        dev = np.abs(mine[: len(theirs)] - theirs).max() if len(theirs) else 0.0
        if dev > 1e-6:
            raise ValueError(f"overlap mismatch: max deviation {dev:.2e} exceeds 1e-6")
    return zeros


def random_table(rng, zeros) -> list[str]:
    """A zero table as its lines: a prefix of ``zeros`` under one of the headers, with up
    to three faults or harmless oddities (duplicates, descents, junk, comments, blanks,
    nan, -inf, padding, stray ``#key=value`` lines), sometimes past 2048 lines."""
    n = int(rng.integers(0, 13) if rng.random() < 0.4 else rng.integers(0, len(zeros) + 1))
    lines = [repr(float(g)) for g in zeros[:n]]
    for _ in range(int(rng.choice(4, p=[0.3, 0.4, 0.2, 0.1]))):
        at = 0 if rng.random() < 0.1 else int(rng.integers(0, len(lines) + 1))
        prev = lines[at - 1] if at else "14.5"
        near = float(zeros[min(at, n) - 1]) if at and n else 14.5  # about the value before
        kind = rng.integers(0, 11)
        new = [
            prev,  # a duplicate, or a repeat of the line before
            repr(near - rng.uniform(0.0, 5.0)),  # a descent
            str(rng.choice(["x25", "1.2.3", "abc", "14,13", "0x1p4"])),
            str(rng.choice(["# note", "#", "  # indented note"])),
            str(rng.choice(["", "   ", "\t"])),
            "nan",
            "-inf",
            f"  {prev}\t",  # padded
            str(rng.choice(["#count=3", "# max_height=1e9, count=7", "#a=b"])),
            repr(near + 1e-3),  # a value between two zeros
            repr(near + 1e-3),  # the value before, off its zero by 1e-3
        ][kind]
        if kind in (7, 10) and at:  # padding and the shifted value replace the line before
            lines[at - 1] = new
        else:
            lines.insert(at, new)
    if rng.random() < 0.05:  # past 2048 lines, so that BLOCK = 2048 has an edge
        for at in sorted(rng.integers(0, len(lines) + 1, 2100), reverse=True):
            lines.insert(int(at), "#" if at % 2 else "")
    top = repr(float(zeros[n - 1])) if n else "0.0"
    header = [
        None,
        f"# zero ordinates, source=computed, max_height={top}, count={n}",
        f"# zero ordinates, source=computed, max_height={top}, count={n - 1}",
        f"# count={n}",
        f"# max_height={float(top) + rng.uniform(0.0, 40.0)!r}",
        "# max_height=abc",
        f"# count=x, max_height={top}",
        f" # count={n + 5}",  # padded: a comment, not the header
        "#source=tables",
    ][int(rng.integers(0, 9))]
    return lines if header is None else [header, *lines]


def outcome(read, path):
    """Ordinate bytes, max_height and source of a read table, or its exception."""
    try:
        zeros = read(path)
    except ValueError as err:
        return type(err), str(err)
    return zeros.ordinates.tobytes(), zeros.max_height, zeros.source


FAULTS = ("not a decimal", "not above previous", "declares count", "is not a number", "finite",
          "at or below 14", "census", "overlap [", "overlap mismatch")


def test_ingest_matches_the_block_reader(tmp_path, monkeypatch, zeros_1000):
    """600 seeded tables give the same outcome from ``ingest_zeros`` as from the block
    reader at every block size: equal ordinate bytes, max_height and source, or the
    same exception type and message."""
    monkeypatch.setattr(ze, "find_zeros", functools.lru_cache(ze.find_zeros))
    rng = np.random.default_rng(20251019)
    kinds = set()
    for k in range(600):
        path = tmp_path / f"t{k}.txt"
        path.write_text("\n".join(random_table(rng, zeros_1000.ordinates)) + "\n")
        got = outcome(ze.ingest_zeros, path)
        for block in (1, 2, 3, 7, 2048):
            assert outcome(functools.partial(block_ingest, block=block), path) == got, path
        kinds.add("read" if isinstance(got[0], bytes) else
                  next((f for f in FAULTS if f in got[1]), got[1]))
    assert kinds >= {"read", *FAULTS}, kinds


def test_key_value_lines_after_the_first_are_comments(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("14.134725141734693\n# count=5, max_height=1e9\n21.022039638771555\n")
    zeros = ze.ingest_zeros(path)
    assert len(zeros) == 2 and zeros.max_height == 21.022039638771555
    header = "# zero ordinates, source=computed, max_height=22.0, count=1\n"
    path.write_text(header + "14.134725141734693\n#count=2\n")
    assert ze.ingest_zeros(path).max_height == 22.0


def test_sigma_path_against_euler_maclaurin():
    """count_formula's zeta along sigma + iT (n^{-iT} shared by the rows) against
    zeta_euler_maclaurin, which exponentiates each n^{-s} on its own."""
    sigmas = np.concatenate([np.linspace(20.0, 3.0, 30), np.linspace(3.0, 0.5, 140)[1:]])
    for T in np.random.default_rng(20251018).uniform(100.0, 3e4, 20):
        got = ze._zeta_at_height(sigmas, T)
        assert np.abs(got - ze.zeta_euler_maclaurin(sigmas + 1j * T)).max() <= 1e-9


# ---------------------------------------------------------------------------
# the prime-phase kernel


def test_log_turns_against_mpmath():
    """The double-double log p / (pi/2) of the kernel, rebuilt at 50 digits."""
    with mp.workdps(50):
        for p in [2, 3, 5, 7, 11, 13, 61, 127, 131, 251, 313, 509, 1021, 4099]:
            exact = mp.log(p) / (mp.pi / 2)
            hi, lo = ze._log_turns(p)
            assert hi == float(exact) and lo == float(exact - mp.mpf(hi))


def descending_phase_plan(n_max):
    """The plan as built before the shared sieve: every p from n_max down to 2 writes
    itself at its multiples, so the smallest divisor of each n writes last."""
    spf = np.zeros(n_max + 1, dtype=int)
    for p in range(n_max, 1, -1):
        spf[p::p] = p
    n = np.arange(2, n_max + 1)
    primes, comp = n[spf[2:] == n], n[spf[2:] != n]
    turns = np.array([ze._log_turns(int(p)) for p in primes]).reshape(-1, 2).T
    return primes, turns, np.stack([comp - 1, spf[comp] - 1, comp // spf[comp] - 1], 1).tolist()


@pytest.mark.parametrize("n_max", [1, 2, 3, 39, 56, 69, 126, 319])
def test_phase_plan_matches_the_descending_loop(n_max):
    primes, turns, steps = ze._phase_plan(n_max)
    want_primes, want_turns, want_steps = descending_phase_plan(n_max)
    assert primes.dtype == want_primes.dtype and np.array_equal(primes, want_primes)
    assert turns.shape == want_turns.shape and turns.tobytes() == want_turns.tobytes()
    assert steps.tolist() == want_steps


def test_phases_against_mpmath():
    """Every entry n^{-it} of the table, primes and composites, within 2e-15 of mpmath at
    40 digits, at t up to 1e5, where t log n alone is about 1e6."""
    t = np.concatenate([[0.0, 400.0], np.random.default_rng(20261018).uniform(0.0, 1e5, 30)])
    table = ze._phases(t, 130)
    with mp.workdps(40):
        for j, x in enumerate(t):
            want = [complex(mp.exp(-1j * mp.mpf(x) * mp.log(n))) for n in range(1, 131)]
            assert np.abs(table[:, j] - want).max() <= 2e-15


def test_rs_main_sum_for_given_theta_against_mpmath():
    """2 sum_{n <= a} n^{-1/2} cos(theta - t log n) for theta as computed, within 1e-14 of
    the same sum at 40 digits; the per-column route, cos of the phases theta - t log n
    rounded to doubles, is kept as a second route: it misses by up to ~1e-10."""
    t = np.random.default_rng(20261019).uniform(400.0, 1e5, 50)
    theta = ze.rs_theta(t)
    a = np.floor(np.sqrt(t / (2 * math.pi))).astype(int)
    s0 = ze._sums(t, a, np.arange(1, a.max() + 1.0)[None] ** -0.5)[0]
    got = 2.0 * (np.cos(theta) * s0.real - np.sin(theta) * s0.imag)
    per_column = [2.0 * np.sum(np.cos(th - x * np.log(n)) / np.sqrt(n))
                  for x, th, n in zip(t, theta, (np.arange(1, m + 1.0) for m in a))]
    assert np.abs(got - per_column).max() <= 1e-9
    with mp.workdps(40):
        for x, th, n_max, g in zip(t, theta, a, got):
            x, th = mp.mpf(x), mp.mpf(th)
            want = 2 * mp.fsum(mp.cos(th - x * mp.log(n)) / mp.sqrt(n) for n in range(1, n_max + 1))
            assert abs(g - float(want)) <= 1e-14


def test_b_of_rho_against_direct_route():
    """B(1/2 + i gamma) = sum_{k <= y} b(k) k^{-1/2} k^{-i gamma} from the kernel, against
    exp(-i gamma log k) term by term with gamma log k reduced mod 2 pi at 40 digits."""
    rng = np.random.default_rng(20261020)
    for T, theta in [(1.25e4, 0.2), (2.75e4, 0.4), (rng.uniform(1e4, 3e4), rng.uniform(0.2, 0.4))]:
        spec = mo.MollifierSpec.from_T_theta(T, theta)
        y = int(spec.y)
        coef = mo.b_table(spec, y).values[1:] / np.sqrt(np.arange(1, y + 1.0))
        gammas = rng.uniform(400.0, T, 25)
        got = ze._sums(gammas, np.full(25, y), coef[None])[0]
        with mp.workdps(40):
            phases = np.array([[float((g * mp.log(k)) % (2 * mp.pi)) for k in range(1, y + 1)]
                               for g in map(mp.mpf, gammas)])
        want = np.exp(-1j * phases) @ coef
        assert np.abs(got - want).max() <= 1e-13 * np.abs(coef).sum()


def test_rs_corrections_against_their_definitions():
    """The correction series in y = 2x^2 - 1 against C0..C3 from Psi and its derivatives,
    at p = (x + 1) / 2, in mpmath."""
    psi = lambda p: mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)
    with mp.workdps(40):
        for x in np.linspace(-0.97, 0.97, 15):
            d = [mp.diff(psi, mp.mpf((x + 1) / 2), k) for k in range(10)]
            pi2 = mp.pi**2
            want = [d[0], -d[3] / (96 * pi2), d[2] / (64 * pi2) + d[6] / (18432 * pi2**2),
                    -d[1] / (64 * pi2) - d[5] / (3840 * pi2**2) - d[9] / (5308416 * pi2**3)]
            for k, (c, w) in enumerate(zip(ze._RS_Y, want)):
                got = np.polynomial.chebyshev.chebval(2 * x * x - 1, c) * (x if k % 2 else 1.0)
                assert abs(got - float(w)) <= 5e-15


def test_refinement_work_per_zero(monkeypatch):
    """The degree-7 model's first step: at most 2.4 (Z, Z') evaluations per zero in the
    refinement of find_zeros(2e4); Newton steps from the secant point took 3.84."""
    brackets = ze._brackets(2e4)
    points = []
    z_rows = ze._z_rows
    monkeypatch.setattr(ze, "_z_rows", lambda t, *a: points.append(len(t)) or z_rows(t, *a))
    roots = ze._refine(*brackets)
    assert len(roots) == 22491
    assert sum(points) <= 2.4 * len(roots)
