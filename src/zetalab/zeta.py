"""Critical-line zeta machinery: theta, Hardy Z, zeros, and empirical moments.

Z(t) = e^{i theta(t)} zeta(1/2 + it) is evaluated by float64 Euler-Maclaurin
below ``EM_CUTOFF`` (where zero ordinates must be tight enough to cross-check
published tables to 1e-6) and by the Riemann-Siegel main sum plus four
correction terms above it.  The corrections are Chebyshev fits, generated at
40-digit working precision, of the classical correction functions

    C0 = Psi,  C1 = -Psi'''/(96 pi^2),
    C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4),
    C3 = -Psi'/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6),

with Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p) on p in [0, 1].
Observed accuracy of the Riemann-Siegel branch is ~1e-8 absolute at t = 400
improving to ~3e-10 by t = 5000; the Euler-Maclaurin branch is ~1e-14.
Every n^{-it} of the sums of both branches and of B(1/2 + i gamma) comes from one
kernel, ``_phases``: cos and sin are taken at the primes only, of t log p reduced
to within pi/4 in double-double (Dekker's exact product of t with the high word
of log p / (pi/2), plus t times its low word), and a composite row is a product
of two rows.  The main sum for a given theta is then exact to about 1e-15;
theta's own rounding is the phase error left.
``hardy_z(t, derivative=True)`` also returns Z', differentiating the same sums.
theta and theta' come from Stirling's series, so the module needs numpy only.
Zeros are scanned on Gram points by Rosser's rule (Brent, Math. Comp. 1979;
Edwards, Riemann's Zeta Function, ch. 8) and refined by Newton steps on (Z, Z'),
the first one from a degree-7 local model of Z.
Every pass that computes over the zeros works on blocks of at most ``BLOCK`` points,
so its temporaries do not grow with T, and no value depends on the block it is in.
A zero table is read in one pass, line by line, with O(1) temporaries beside its ordinates.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import atomic_open
from .arith import prefix_table, smallest_prime_factors
from .mollifier import MollifierSpec, b_table, s1_factor, s2_factor

EM_CUTOFF = 400.0
FIRST_ZERO = 14.134725141734693
HALVINGS = 12  # passes of interval halving the zero scan may make
BLOCK = 2048  # points per pass over the zeros: bounds every per-point temporary
HEIGHT_CAP = 1e8  # largest t for Z: there a quarter block's phase table is 3989 x 512, 33 MB
SCAN_CAP = 1e5  # largest T for the zero scan and the census: desk scale

# C0, C1 / x, C2 and C3 / x as Chebyshev series in y = 2x^2 - 1: the fits in x less the
# coefficients of the other parity (noise below 3e-16), by T_2k(x) = T_k(y), T_2k+1 + T_2k-1 = 2x T_k
_RS_Y = [np.array(c) for c in (
    [0.6426672862397681, 0.2719729999978549, 0.010738605819339823, -0.0013743815296340886,
     -0.0001246822188034505, -5.76459970553334e-07, 2.7280674307437e-07, 8.077953231478052e-09,
     -2.088462092282897e-10, -1.3115750829841954e-11, -1.450807644697691e-14, 9.837338880930376e-15],
    [-0.0036691565621829094, 0.02873414096637185, 0.00560716152038389, -2.0739220806966406e-05,
     -5.201208663160561e-05, -2.205823830697663e-06, 1.0907385735419596e-07, 8.655485985406097e-09,
     -9.551467905686538e-12, -1.3187708263475648e-11, -2.1190669068430483e-13, 1.0296159073170375e-14],
    [0.0031461158539889114, -0.002308783884530749, 5.7698207666901066e-05, 0.0003523886202366621,
     2.524666745868579e-05, -3.4428211971929584e-06, -3.5350745566314006e-07, 3.730830180522904e-09,
     1.2776951866989953e-09, 2.1874616723592064e-11, -1.9141389967921318e-12, -6.562466094537412e-14,
     1.2604760637117318e-15],
    [-0.0003019124345980461, 0.0007462899936201697, -0.00028160388765687385, 2.3005646747424364e-05,
     1.3143346079918523e-05, -9.09757054777211e-08, -1.4295160209297688e-07, -4.037920437047775e-09,
     4.877384212587497e-10, 2.3372171305818775e-11, -6.188977481490443e-13, -5.10751237413833e-14],
)]
_RS_DY = [np.arange(1, len(c)) * c[1:] for c in _RS_Y]  # dT_k/dy = k U_k-1(y): their derivatives

# B_2 ... B_24 for the Euler-Maclaurin tail
_BERNOULLI = np.array([
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730,
])
_PSI_SERIES = _BERNOULLI[:8] / np.arange(2, 18, 2)  # B_2k / 2k, k = 1..8
_LOGGAMMA_SERIES = _PSI_SERIES / np.arange(1, 17, 2)  # B_2k / (2k (2k - 1))
_EM_SERIES = _BERNOULLI / np.array([math.factorial(2 * k) for k in range(1, 13)], dtype=float)


def _polyval(x, c):
    """sum_k c[k] x^k by Horner's rule, in the operations of numpy's ``polyval``, whose
    module takes 6 to 16 ms of every job to import."""
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc = ck + acc * x
    return acc


def _clenshaw(y, c, kind: int):
    """sum_k c[k] T_k(y) for ``kind`` 1, or sum_k c[k] U_k(y) for ``kind`` 2 (Clenshaw)."""
    b1, b2, y2 = 0.0, 0.0, y + y
    for ck in c[:0:-1]:
        b1, b2 = ck + y2 * b1 - b2, b1
    return c[0] + kind * y * b1 - b2


def rs_theta(t, derivative: bool = False):
    """theta(t) = Im log Gamma(z) - (t/2) log pi, z = 1/4 + it/2: Stirling's
    series (8 terms) at z itself from ``EM_CUTOFF`` up (|z| >= 200), and below it at
    w = z + 8, less the angles of z + k for k < 8.  With ``derivative``,
    (theta, theta') where theta' = Re psi(z)/2 - (log pi)/2."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.ravel()
    out = np.empty((2, flat.size))
    for i in range(0, flat.size, BLOCK):
        out[:, i : i + BLOCK] = _theta_block(flat[i : i + BLOCK])
    val, dval = out.reshape((2, *t.shape))
    if derivative:
        return (val, dval) if val.ndim else (float(val), float(dval))
    return val if val.ndim else float(val)


def _theta_block(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    low = t < EM_CUTOFF
    w = (0.25 + 8.0 * low) + 0.5j * t
    iw, log_w = 1.0 / w, np.log(w)
    lg = (w - 0.5) * log_w - w + iw * _polyval(iw * iw, _LOGGAMMA_SERIES)
    psi = log_w - 0.5 * iw - iw * iw * _polyval(iw * iw, _PSI_SERIES)
    val, dval = lg.imag - 0.5 * t * math.log(math.pi), 0.5 * (psi.real - math.log(math.pi))
    if low.any():
        t, v, dv = t[low], val[low], dval[low]
        for k in np.arange(8) + 0.25:  # Gamma(z + 8) = Gamma(z) prod_{k < 8} (z + k)
            v -= np.arctan2(0.5 * t, k)
            dv -= 0.5 * k / (k * k + 0.25 * t * t)
        val[low], dval[low] = v, dv
    return val, dval


def rs_theta_asymptotic(t):
    """Stirling form of theta, the independent cross-check route:
    t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3) + 31/(80640 t^5)."""
    t = np.asarray(t, dtype=np.float64)
    val = (
        0.5 * t * np.log(t / (2 * math.pi))
        - 0.5 * t
        - math.pi / 8
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
    )
    return val if val.ndim else float(val)


def zeta_euler_maclaurin(s):
    """zeta(s) for complex s (array ok) by Euler-Maclaurin, float64, each n^{-s} exponentiated
    on its own: the test oracle for ``_zeta_at_height`` and ``_hardy_z_em``.

    Cutoff N grows linearly with |Im s|; with 12 Bernoulli terms the result
    is accurate to ~1e-13 for |Im s| <= 500 and Re s >= 0.4.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    out = np.empty(s.size, dtype=np.complex128)
    n_cut = _em_terms(np.abs(s.imag))
    for n_val in _distinct(n_cut):
        idx = np.nonzero(n_cut == n_val)[0]
        sv = s[idx]
        log_n = np.log(np.arange(1, n_val))
        total = np.zeros((2, len(idx)), dtype=np.complex128)
        for i in range(0, len(idx), 8):  # blocks of 8 rows bound the (rows x n_cut) temporaries
            total[0, i : i + 8] = np.exp(-np.outer(sv[i : i + 8], log_n)).sum(axis=1)
        out[idx] = _add_em_tail(total, sv, n_val)[0]
    return out if out.shape != (1,) else complex(out[0])


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a), without the import of numpy.ma (2 MB of memory) that it makes."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _em_terms(t_abs):
    """The Euler-Maclaurin cutoff N at height |Im s|: 0.7 (|Im s| + 25), up to a multiple of 32."""
    return 32 * np.ceil(0.7 * (t_abs + 25) / 32).astype(int)


def _add_em_tail(total: np.ndarray, s: np.ndarray, n_val) -> np.ndarray:
    """Add to rows (zeta, zeta') of ``total``, the sums over n < n_val (one cutoff, or one
    per point), the terms at n_val, the integral from it and the Bernoulli corrections."""
    nf, log_nf = 1.0 * n_val, np.log(n_val)
    head, tail = 0.5 * nf ** (-s), nf ** (1.0 - s) / (s - 1.0)
    total += head + tail, -log_nf * (head + tail) - tail / (s - 1.0)
    poch, harm = s.copy(), 1.0 / s  # s (s+1) ... rising, and its log-derivative
    npow = nf ** (-s - 1.0)
    for k, b in enumerate(_EM_SERIES, start=1):  # b = B_2k / (2k)!
        term = b * poch * npow
        total[0] += term
        total[1] += term * (harm - log_nf)
        harm = harm + 1.0 / (s + 2 * k - 1) + 1.0 / (s + 2 * k)
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        npow = npow / (nf * nf)
    return total


def _zeta_at_height(sigmas: np.ndarray, T: float) -> np.ndarray:
    """zeta(sigma + iT) at every sigma of one height by the sums of
    ``zeta_euler_maclaurin``, with n^{-s} = n^{-sigma} n^{-iT} and n^{-iT}
    computed once for all rows."""
    n_val = int(_em_terms(abs(T)))
    neg_log_n = -np.log(np.arange(1, n_val))
    parts = np.exp(1j * T * neg_log_n).view(np.float64).reshape(-1, 2)  # Re, Im of n^{-iT}
    total = np.zeros((2, len(sigmas)), dtype=np.complex128)
    rows = np.empty((8, len(neg_log_n)))  # 8 rows of n^{-sigma} at a time
    for i in range(0, len(sigmas), 8):
        sig = sigmas[i : i + 8]
        blk = np.exp(np.outer(sig, neg_log_n, out=rows[: len(sig)]), out=rows[: len(sig)])
        total[0, i : i + 8] = (blk @ parts).view(np.complex128)[:, 0]
    return _add_em_tail(total, sigmas + 1j * T, n_val)[0]  # its zeta' row goes unused


def _hardy_z_em(t: np.ndarray, theta: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Rows e^{i theta} zeta(1/2 + it) and its t-derivative e^{i theta} i (theta' zeta + zeta'),
    the sums of n^{-1/2} (1, -log n) n^{-it} over n < N(t) from ``_sums``."""
    n_cut = _em_terms(t)
    log_n = np.log(np.arange(1, n_cut.max(), dtype=np.float64))
    sums = _sums(t, n_cut - 1, np.exp(-0.5 * log_n) * [np.ones_like(log_n), -log_n])
    zeta, dzeta = _add_em_tail(sums, 0.5 + 1j * t, n_cut)
    return np.exp(1j * theta) * np.array([zeta, 1j * (dtheta * zeta + dzeta)])


_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_TURNS = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^q = e^{-i pi q / 2}


def _halves(x):
    big = _SPLIT * x
    hi = big - (big - x)
    return hi, x - hi


@functools.lru_cache(maxsize=1024)
def _log_turns(p: int) -> tuple[float, float]:
    """log p / (pi/2) as a double-double (hi, lo), from decimal's correctly rounded ln."""
    import decimal  # 2 ms, paid by the processes that build a phase table only
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pi = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582")
        q = decimal.Decimal(p).ln() * 2 / pi
        hi = float(q)
        return hi, float(q - decimal.Decimal(hi))


def _phase_plan(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The primes to n_max, log p / (pi/2) of each as rows (hi, lo), and each composite n as
    (n - 1, p - 1, n / p - 1), p = spf(n), rows of ``_phases``' table: prefixes of a memo plan."""
    primes, turns, steps = prefix_table("phase_plan", n_max, _build_phase_plan)
    k = int(np.searchsorted(primes, n_max, side="right"))
    return primes[:k], turns[:, :k], steps[: n_max - 1 - k]  # n_max - 1 - k composites


def _build_phase_plan(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    spf = smallest_prime_factors(n_max)
    n = np.arange(2, n_max + 1)
    primes, comp = n[spf[2:] == n], n[spf[2:] != n]
    turns = np.array([_log_turns(int(p)) for p in primes]).reshape(-1, 2).T
    return primes, turns, np.stack([comp - 1, spf[comp] - 1, comp // spf[comp] - 1], 1)


def _phases(t: np.ndarray, n_max: int) -> np.ndarray:
    """table[n - 1] = n^{-it} for n <= n_max, one column per point, from cos and sin at the
    primes only (see the module docstring); a composite row is the product of the rows of
    its smallest prime p and of n / p.  A value depends on its own t only."""
    primes, (hi, lo), steps = _phase_plan(n_max)
    table = np.empty((n_max, len(t)), dtype=np.complex128)
    table[0] = 1.0
    (t1, t2), (h1, h2) = _halves(t), _halves(hi)
    x = np.multiply.outer(hi, t)
    err = np.multiply.outer(h1, t1) - x
    for u, v in ((h1, t2), (h2, t1), (h2, t2), (lo, t)):  # in Dekker's order: exact up to lo t
        err += np.multiply.outer(u, v)
    quarters = np.rint(x)
    x = (x - quarters + err) * (-0.5 * math.pi)
    table.real[primes - 1] = np.cos(x, out=err)
    table.imag[primes - 1] = np.sin(x, out=x)
    table[primes - 1] *= _TURNS[quarters.astype(int) % 4]
    for n, p, m in steps.tolist():  # contiguous rows, which numpy multiplies alike at any length
        np.multiply(table[p], table[m], out=table[n])
    return table


def _sums(t: np.ndarray, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{n <= a} weights[:, n - 1] n^{-it} at each t, a row per row of weights, from
    ``_phases`` on quarter blocks.  einsum adds the terms in row order for each Re or Im
    column, its inner loop running over two or more: no sum depends on the other points."""
    n = np.arange(1, weights.shape[1] + 1)
    out = np.empty((len(weights), len(t)), dtype=np.complex128)
    step = max(1, BLOCK // 4)
    for i in range(0, len(t), step):
        table, cut = _phases(t[i : i + step], n[-1]), a[i : i + step]
        table[cut.min() :][n[cut.min() :, None] > cut] = 0.0  # n past a(t): exact zeros
        out[:, i : i + step] = np.einsum("kj,jr->kr", weights, table.view(np.float64)).view(np.complex128)
        del table  # before the next quarter's table is built
    return out


def _hardy_z_rs(t: np.ndarray, theta: np.ndarray, dtheta: np.ndarray, order: int) -> np.ndarray:
    """Rows Z, Z' for ``order`` >= 1, then the coefficients of h^2 .. h^order in the main
    sum's model 2 Re e^{i (theta + theta' h + h^2 / 4t)} sum_k (-ih)^k S_k / k!, where
    S_k = sum_{n <= a} n^{-1/2} (log n)^k n^{-it}: Z = 2 Re e^{i theta} S_0 + corrections."""
    tau = t / (2 * math.pi)
    root = np.sqrt(tau)
    a = np.floor(root).astype(int)
    log_n = np.log(np.arange(1, max(a.max(), 1) + 1, dtype=np.float64))
    s = _sums(t, a, np.exp(-0.5 * log_n) * log_n ** np.arange(order + 1)[:, None])
    cos, sin = np.cos(theta), np.sin(theta)  # f_k = e^{i theta} S_k, in real arithmetic: numpy's
    fr = cos * s.real - sin * s.imag  # complex product of a row and a matrix can depend on shapes
    fi = sin * s.real + cos * s.imag
    quarter = (fr, fi, -fr, -fi)  # Re i^m f = quarter[-m % 4], Im i^m f = quarter[(1 - m) % 4]
    powers = [dtheta**m / math.factorial(m) for m in range(order + 1)]

    def coef(k, part):  # h^k in e^{i theta' h} sum_j (-ih)^j f_j / j!, Re (part 0) or Im (1)
        return sum(powers[k - j] * quarter[(part - k + 2 * j) % 4][j] / math.factorial(j)
                   for j in range(k + 1))

    # the coefficients of h^k, times 1 + i h^2 / 4t from theta's second order
    out = np.array([2.0 * (coef(k, 0) - (0.25 / t * coef(k - 2, 1) if k > 1 else 0.0))
                    for k in range(order + 1)])
    x, dx_dt = 2.0 * (root - a) - 1.0, 1.0 / (2 * math.pi * root)
    y, sign = 2.0 * x * x - 1.0, np.where(a % 2 == 1, 1.0, -1.0) * tau ** (-0.25)
    for k, (e, de) in enumerate(zip(_RS_Y, _RS_DY)):  # C_k tau^{-1/4-k/2}, C_k = E(y) or x O(y)
        e_y, scale = _clenshaw(y, e, 1), sign / root**k
        c = x * e_y if k % 2 else e_y
        out[0] += c * scale
        if order:  # dC_k/dx = 4x E'(y), or O(y) + 4x^2 O'(y)
            dc = e_y + 4.0 * x * x * _clenshaw(y, de, 2) if k % 2 else 4.0 * x * _clenshaw(y, de, 2)
            out[1] += (dc * dx_dt - (0.25 + 0.5 * k) * c / t) * scale
    return out


def _z_rows(t: np.ndarray, order: int = 1) -> np.ndarray:
    """Rows theta, theta', Z, then those of ``_hardy_z_rs`` that ``order`` asks for (the
    model's coefficients are 0 on the Euler-Maclaurin branch), at at most ``BLOCK`` points.
    Every Z passes here: t non-finite, negative or above ``HEIGHT_CAP`` is a ValueError."""
    if not ((t >= 0) & (t <= HEIGHT_CAP)).all():  # false at nan
        raise ValueError(f"Z needs finite t >= 0, at most {HEIGHT_CAP:g}")
    out = np.zeros((3 + order, len(t)))
    out[:2] = _theta_block(t)
    lo = t < EM_CUTOFF
    if lo.any():
        out[2 : 3 + min(order, 1), lo] = _hardy_z_em(t[lo], *out[:2, lo])[: order + 1].real
    if (~lo).any():
        out[2:, ~lo] = _hardy_z_rs(t[~lo], *out[:2, ~lo], order)
    return out


def hardy_z(t, derivative: bool = False):
    """Hardy's Z(t): real by the functional equation, so zeros of zeta on the
    critical line are its sign changes.  Scalar or array.  With
    ``derivative``, the pair (Z, Z') from the same phases."""
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty((1 + derivative, arr.size))
    for i in range(0, arr.size, BLOCK):
        out[:, i : i + BLOCK] = _z_rows(arr[i : i + BLOCK], int(derivative))[2:]
    vals = [v if np.ndim(t) else float(v[0]) for v in out]
    return tuple(vals) if derivative else vals[0]


def gram_points(T: float) -> np.ndarray:
    """Gram points g_0 = 17.845..., g_1, ... below T (theta(g_n) = n pi),
    Newton-refined; entry n is g_n."""
    n = np.arange(0, max(0, int(rs_theta(max(T, 18.0)) / math.pi)) + 2, dtype=np.float64)
    g = np.empty_like(n)
    for i in range(0, len(n), BLOCK):
        n_blk = n[i : i + BLOCK]
        # theta(2 pi e^{1+u}) ~ pi (e u e^u - 1/8), and u e^u = x has e^u ~ x / log(1 + x)
        g_blk = 2 * math.pi * (n_blk + 0.125) / np.log1p((n_blk + 0.125) / math.e)
        for _ in range(6):
            theta, dtheta = rs_theta(g_blk, derivative=True)
            g_blk = g_blk - (theta - n_blk * math.pi) / dtheta
        g[i : i + BLOCK] = g_blk
    return g[g < T]


@dataclass(frozen=True)
class ZeroList:
    """Ordered positive ordinates of critical-line zeros, and zeta'(rho) at each if known.

    Validated on construction: finite, strictly increasing, all above the first-zero
    floor 14, and census consistent with the counting formula at the top
    (within the 2 + log T slack that covers S(T) at desk heights); one finite
    zeta'(rho) per ordinate.  Both arrays are read-only copies of the caller's.
    """

    ordinates: np.ndarray = field(repr=False)
    source: str
    max_height: float
    zeta_prime: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        ords = np.array(self.ordinates, dtype=np.float64)
        object.__setattr__(self, "ordinates", ords)
        if not (np.isfinite(ords).all() and math.isfinite(self.max_height)):
            raise ValueError("ordinates and max_height must be finite")
        if ords.size:
            bad = np.flatnonzero(np.diff(ords) <= 0)
            if bad.size:
                raise ValueError(f"ordinates not strictly increasing at position {bad[0] + 1}")
            if ords[0] <= 14.0:
                raise ValueError(f"first ordinate {ords[0]} at or below 14")
            if ords[-1] > self.max_height + 1e-9:
                raise ValueError("ordinates exceed the declared max_height")
        if self.max_height > 14.5:
            expected = rs_theta(self.max_height) / math.pi + 1.0
            slack = 2.0 + math.log(self.max_height)
            if abs(len(ords) - expected) > slack:
                raise ValueError(f"census {len(ords)} vs counting formula {expected:.2f} "
                                 f"differs beyond slack {slack:.2f}")
        ords.setflags(write=False)
        if self.zeta_prime is not None:
            zp = np.array(self.zeta_prime, dtype=np.complex128)
            if zp.shape != ords.shape or not np.isfinite(zp).all():
                raise ValueError("zeta_prime must hold one finite value per ordinate")
            zp.setflags(write=False)
            object.__setattr__(self, "zeta_prime", zp)

    def __len__(self) -> int:
        return len(self.ordinates)

    def up_to(self, T: float) -> np.ndarray:
        return self.ordinates[self.ordinates <= T]


class ZeroScanError(RuntimeError):
    pass


@functools.lru_cache(maxsize=64)
def count_formula(T: float) -> float:
    """theta(T)/pi + 1 + S(T), with S(T) from the argument of zeta unwrapped
    along the horizontal segment from sigma = 20 to the critical line."""
    if abs(float(hardy_z(T))) < 1e-8:
        T = T + 1e-4  # nudge off a zero height
    sigmas = np.concatenate([np.linspace(20.0, 3.0, 30), np.linspace(3.0, 0.5, 140)[1:]])
    ang = np.angle(_zeta_at_height(sigmas, T))
    for _ in range(12):
        # raw phase steps folded to (-pi, pi]; unwrap is only trustworthy if
        # the true step between samples stays well under a half turn
        step = (np.diff(ang) + math.pi) % (2 * math.pi) - math.pi
        if np.abs(step).max() < 1.5:
            break
        worst = np.nonzero(np.abs(step) >= 1.5)[0]
        extra = 0.5 * (sigmas[worst] + sigmas[worst + 1])
        sigmas = _distinct(np.concatenate([sigmas, extra]))[::-1]
        ang = np.angle(_zeta_at_height(sigmas, T))
    s_T = np.unwrap(ang)[-1] / math.pi
    return rs_theta(T) / math.pi + 1.0 + s_T


@dataclass(frozen=True)
class NCount:
    """Zero count by census and by the counting formula."""

    census: int
    formula: int


def _check_height(T: float) -> None:
    """The heights of the zero scan and the census: T in [0, SCAN_CAP]."""
    if T > SCAN_CAP:
        raise ValueError(f"desk scale tops out at T = {SCAN_CAP:g}")
    if not T >= 0:  # nan too
        raise ValueError(f"height T = {T} must be >= 0")


def count_N(T: float, zeros: ZeroList) -> NCount:
    """N(T) by the census of ``zeros`` and by the counting formula; raises if they differ by 2+."""
    _check_height(T)
    census = int(len(zeros.up_to(T)))
    formula = int(round(count_formula(T))) if T > 14.5 else 0
    if abs(census - formula) >= 2:
        raise ZeroScanError(f"zero census {census} vs formula {formula} at T={T}: missing zeros")
    return NCount(census, formula)


def find_zeros(T: float) -> ZeroList:
    """All zero ordinates in (0, T].  Z is evaluated at 14, at each Gram point
    g_n below T and at T.  The good Gram points ((-1)^n Z(g_n) > 0) cut (14, T]
    into segments of known zero count: a Gram block [g_j, g_k] holds k - j
    (Rosser's rule), the bottom segment j + 1 and the top one the rest of
    round(count_formula(T)).  The intervals of segments short of sign changes
    are halved, at most ``HALVINGS`` times; a segment still off its count
    raises ZeroScanError.  ``_refine`` then closes every bracket."""
    _check_height(T)
    if T < FIRST_ZERO:
        return ZeroList(np.zeros(0), "computed", T)
    return ZeroList(_refine(*_brackets(T)), "computed", T)


def _brackets(T: float) -> tuple[np.ndarray, ...]:
    """(lo, hi, Z(lo), Z(hi)) of the sign changes of the scan; the scan's own
    arrays end with this call, before the refinement allocates its own."""
    gram = gram_points(T)
    t = np.concatenate([[14.0], gram, [T]])
    z = hardy_z(t)
    if abs(z[-1]) < 1e-8:  # a zero at T is in (0, T], as count_formula counts it
        z[-1] = hardy_z(T + 1e-4)
    good = np.nonzero((-1.0) ** np.arange(len(gram)) * z[1:-1] > 0)[0]
    bounds = np.concatenate([[14.0], gram[good], [T]])
    expected = np.diff(np.concatenate([[0], good + 1, [round(count_formula(T))]]))
    for halving in range(HALVINGS + 1):
        flips = np.nonzero((z[:-1] > 0) != (z[1:] > 0))[0]
        segment = np.searchsorted(bounds, t[:-1], side="right") - 1
        found = np.bincount(segment[flips], minlength=len(expected))
        split = (found < expected)[segment]
        if not split.any() or halving == HALVINGS:
            break
        at = np.nonzero(split)[0] + 1
        mids = 0.5 * (t[at - 1] + t[at])
        t, z = np.insert(t, at, mids), np.insert(z, at, hardy_z(mids))
    if (found != expected).any():
        i = np.argmax(found != expected)
        raise ZeroScanError(
            f"segment ({bounds[i]:.6f}, {bounds[i + 1]:.6f}] has {found[i]} sign changes, not "
            f"{expected[i]}; census {found.sum()}, counting formula {expected.sum()}")
    return t[flips], t[flips + 1], z[flips], z[flips + 1]


def _refine(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on every bracket (Z > 0 at one end only), narrowed in
    place: a secant step, then x - Z/Z', or the midpoint where that leaves the
    bracket; from ``EM_CUTOFF`` up, the step after the secant one goes to the root
    of the degree-7 model of Z of ``_hardy_z_rs``.  Points stay half the tolerance
    (1e-11, 4 ulp where coarser) inside, so one next to the root closes a bracket
    to its midpoint; a Newton step that stays inside and lands, by a bound on
    |Z''|, within that half is the root."""
    half = 0.5 * np.maximum(1e-11, 4 * np.spacing(hi))
    x = np.clip((lo * f_hi - hi * f_lo) / (f_hi - f_lo), lo + half, hi - half)
    root = np.empty(len(lo))
    live = np.arange(len(lo))
    order = 7
    while live.size:
        keep = np.empty(live.size, dtype=bool)
        for i in range(0, live.size, BLOCK):  # one pass over the live brackets, in blocks
            j = live[i : i + BLOCK]
            at, d = x[j], half[j]
            _, dtheta, z, dz, *model = _z_rows(at, order)
            left = (z > 0) == (f_hi[j] > 0)  # the root is in [lo, x]: x replaces hi
            lo[j] = a = np.where(left, lo[j], at)
            hi[j] = b = np.where(left, at, hi[j])
            step = -z / dz
            inside = (at + step >= a) & (at + step <= b)
            closed = b - a <= 2 * d
            # |Z''| <= 2 sum_{n^2 <= tau} n^{-1/2} (theta' - log n)^2 + 1 <= 4 theta'^2 tau^{1/4} + 1
            bound2 = 4 * dtheta**2 * (at / (2 * math.pi)) ** 0.25 + 1.0
            converged = inside & (bound2 * step**2 <= 2 * np.abs(dz) * d)
            root[j] = np.where(closed, 0.5 * (a + b), at + step)
            if model:  # the first pass: Newton steps to the root of the model from at
                c = np.array([z, dz, *model])
                h, dc = step, c[1:] * np.arange(1, len(c))[:, None]
                for _ in range(4):
                    h = h - _polyval(h, c) / _polyval(h, dc)
                step = np.where(at < EM_CUTOFF, step, h)
                inside = (at + step >= a) & (at + step <= b)
            x[j] = np.clip(np.where(inside, at + step, 0.5 * (a + b)), a + d, b - d)
            keep[i : i + BLOCK] = ~closed & ~converged
        live = live[keep]
        order = 1
    return root


def write_zeros(zeros: ZeroList, path) -> None:
    """Write the ordinate table, under a header declaring max_height and count, atomically."""
    with atomic_open(path) as fh:
        fh.write(f"# zero ordinates, source={zeros.source}, "
                 f"max_height={float(zeros.max_height)!r}, count={len(zeros.ordinates)}\n")
        for i in range(0, len(zeros.ordinates), BLOCK):
            fh.writelines(f"{g!r}\n" for g in zeros.ordinates[i : i + BLOCK].tolist())


def ingest_zeros(path) -> ZeroList:
    """Read one ASCII decimal ordinate per line ('#' comments allowed), validate monotonicity
    and the header's count and max_height (default the top ordinate) when it declares
    them, and cross-check the overlap with computed zeros to 1e-6.  The header is line 1
    when it starts with '#': its ``key=value`` fields, as ``write_zeros`` puts them."""
    header, ordinates = {}, array("d")
    previous = math.nan  # no value is <= nan, so the first one is not compared
    with open(path) as fh:
        for n, raw in enumerate(fh, start=1):
            try:
                value = float(raw)  # float drops the whitespace around a decimal, as strip would
                if "_" in raw or not raw.isascii():  # float also reads 2_1.5 and non-ASCII digits
                    raise ValueError
            except ValueError:
                line = raw.strip()
                if line and line[0] != "#":
                    raise ValueError(f"{path}:{n}: not a decimal ordinate: {line!r}") from None
                if n == 1 and raw.startswith("#"):  # the header
                    fields = (part.strip() for part in raw[1:].split(","))
                    header = dict(part.split("=", 1) for part in fields if "=" in part)
                continue
            if value <= previous:
                raise ValueError(f"{path}:{n}: ordinate {value} not above previous {previous}")
            ordinates.append(value)
            previous = value
    values = np.frombuffer(ordinates)  # a view: ZeroList makes the one copy
    if header.get("count", str(len(values))) != str(len(values)):
        raise ValueError(f"{path}: header declares count={header['count']}, "
                         f"file has {len(values)} ordinates")
    try:
        max_height = float(header.get("max_height", values[-1] if len(values) else 0.0))
    except ValueError:
        raise ValueError(f"{path}: header max_height={header['max_height']!r} is not a number")
    zeros = ZeroList(values, "ingested", max_height)
    if len(values):
        top = min(200.0, float(values[-1]))
        # scan a little past the window so a zero sitting exactly at the
        # endpoint cannot fall outside the computed list
        mine = find_zeros(top + 1.0).ordinates
        theirs = zeros.up_to(top)
        if len(mine) < len(theirs):
            raise ValueError(f"overlap [0, {top}]: file has {len(theirs)} zeros, "
                             f"computed {len(mine)}")
        dev = np.abs(mine[: len(theirs)] - theirs).max() if len(theirs) else 0.0
        if dev > 1e-6:
            raise ValueError(f"overlap mismatch: max deviation {dev:.2e} exceeds 1e-6")
    return zeros


# ---------------------------------------------------------------------------
# zeta'(rho) and the moments


def zeta_prime_many(gammas):
    """zeta'(1/2 + i gamma) = e^{-i theta} (-i Z' - theta' Z) at each gamma, scalar or array
    (differentiate zeta = e^{-i theta} Z); at a zero only -i Z' e^{-i theta} is left."""
    arr = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    out = np.empty(arr.shape, dtype=np.complex128)
    for i in range(0, len(arr), BLOCK):
        g = arr[i : i + BLOCK]
        theta, dtheta, z, zp = _z_rows(g)
        warn_if_multiple(g, zp)
        out[i : i + BLOCK] = (-1j * zp - dtheta * z) * np.exp(-1j * theta)
    return out if np.ndim(gammas) else complex(out[0])


def warn_if_multiple(gammas: np.ndarray, derivative: np.ndarray) -> None:
    if (tiny := np.abs(derivative) < 1e-12).any():  # |Z'(gamma)| = |zeta'(rho)| at a zero
        warnings.warn(f"|Z'(gamma)| < 1e-12 at {gammas[tiny]}: possible multiple zero",
                      RuntimeWarning)


def zeta_prime_line_route(gamma: float) -> complex:
    """Independent route: numerical t-derivative of zeta(1/2 + it) itself,
    converted by d/ds = -i d/dt."""
    h = 1e-5 * max(1.0, gamma) ** (-1.0 / 3.0)
    ts = np.array([gamma + h, gamma - h])
    zeta_vals = np.exp(-1j * rs_theta(ts)) * hardy_z(ts)
    return complex(-1j * (zeta_vals[0] - zeta_vals[1]) / (2 * h))


@dataclass(frozen=True)
class MomentResult:
    """Empirical S1 = sum B zeta'(rho), S2 = sum |B zeta'(rho)|^2 over
    0 < gamma <= T = spec.T, with the zero count and the resulting kappa bound."""

    S1: complex
    S2: float
    N_T: int
    kappa_bound: float


def compute_moments(spec: MollifierSpec, zeros: ZeroList) -> MomentResult:
    T = spec.T
    if zeros.max_height < T:
        raise ValueError(f"zero list reaches {zeros.max_height}, below T = {T}")
    gammas = zeros.up_to(T)
    if len(gammas) == 0:
        raise ValueError(f"no zeros below T = {T}")
    zp = zeta_prime_many(gammas) if zeros.zeta_prime is None else zeros.zeta_prime[:len(gammas)]
    # B(1/2 + i gamma) = sum_{k <= y} b(k) k^{-1/2} k^{-i gamma}
    y = int(spec.y)
    coef = b_table(spec, y).values[1:] / np.sqrt(np.arange(1, y + 1, dtype=np.float64))
    B_vals = _sums(gammas, np.full(len(gammas), y), coef[None])[0]
    prod = B_vals * zp
    s1 = complex(math.fsum(prod.real.tolist()), math.fsum(prod.imag.tolist()))
    s2 = math.fsum((np.abs(prod) ** 2).tolist())
    n_t = len(gammas)
    kappa = abs(s1) ** 2 / (s2 * n_t)
    return MomentResult(s1, s2, n_t, kappa)


def predicted_moment_scales(spec: MollifierSpec) -> tuple[float, float]:
    """The asymptotic scales (T L^2 / 2pi) s1_factor and (T L^3 / 2pi) s2_factor at T = spec.T."""
    L = spec.log_scale
    base = spec.T / (2 * math.pi)
    return (base * L**2 * s1_factor(spec.P, spec.theta),
            base * L**3 * s2_factor(spec.P, spec.theta))
