"""Sieve-built arithmetic function tables and exact Dirichlet convolution.

Tables are the universal currency of the coefficient work: read-only,
1-indexed float64 value arrays whose limit is their length minus one.  One
prime sieve, :func:`smallest_prime_factors`, gives Mobius, von Mangoldt, tau_k
(exact integers in floats, by n = spf(n) m: Gries & Misra, CACM 21, 1978) and
the phase kernel's primes in :mod:`zetalab.zeta`; it and every other table that
does not depend on its size is built once, by :func:`prefix_table`, and read by
prefix.  Every Dirichlet convolution runs through :func:`convolve_values`, with
error-free TwoSum compensation so that identity checks hold to ~1e-12 relative
at desk scale (N <= 1e6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_LIMIT_CAP = 10**6

STANDARD_NAMES = ("mobius", "vonmangoldt", "log", "one") + tuple(f"tau_{k}" for k in range(2, 10))


@dataclass(frozen=True)
class ArithFnTable:
    """Values of an arithmetic function on [1..limit], limit = len(values) - 1.

    values[n] is f(n); index 0 is unused and kept at 0.  The array is made
    read-only on construction, so instances are safe for concurrent reads.
    """

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError(f"values must be 1-D of length >= 2, got shape {self.values.shape}")
        self.values.setflags(write=False)

    @property
    def limit(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> float:
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside [1, {self.limit}]")
        return float(self.values[n])


_prefix_tables: dict = {}  # key -> (size, table): the process-wide tables of prefix_table


def prefix_table(key: str, n: int, build):
    """The table ``key`` (an array or tuple of arrays) at a size m >= n: ``build(n)``, made
    read-only, when n exceeds every size asked for before, else the one built then.  No entry
    depends on the size, so the caller's prefix to n has the bits of a fresh ``build(n)``."""
    size, table = _prefix_tables.get(key, (-1, None))
    if size < n:
        table = build(n)
        for a in table if isinstance(table, tuple) else (table,):
            a.flags.writeable = False
        _prefix_tables[key] = n, table
    return table


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m], the least prime factor of m, on [0..n] as int32 (spf[0] = 0, spf[1] = 1): the
    one prime sieve, a read-only prefix of :func:`prefix_table`'s."""
    return prefix_table("spf", n, lambda m: _sieve("spf", m))[: n + 1]


def _sieve(name: str, n: int) -> np.ndarray:
    """``name``'s values on [0..n]: spf, log and one directly, the rest from spf.

    spf: each p <= isqrt(n) that no smaller prime wrote is prime and writes p at its multiples
    from p^2 on still at 0, so the least writes first; m > 1 still 0 is prime.  vonmangoldt
    is math.log(p) at each prime p and its powers.  mobius and tau_k are multiplicative:
    n = p m with p = spf(n) and m <= n / 2, so steps within [a, 2a) read finished entries;
    p's exponent e(n) is e(m) + 1 if spf(m) = p, else 1; and f(n) is f(m) f(p^e) / f(p^(e-1)),
    that is -f(m) at e = 1 and 0 beyond for mu, f(m) (e + k - 1) / e for tau_k."""
    if name == "spf":
        spf = np.zeros(n + 1, dtype=np.uint16)  # holds p <= isqrt(n) for int32's n < 2^31
        for p in range(2, math.isqrt(n) + 1):
            if spf[p] == 0:
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        return np.where(spf == 0, np.arange(n + 1, dtype=np.int32), spf)
    if name == "log":
        values = np.zeros(n + 1)
        values[1:] = np.log(np.arange(1, n + 1, dtype=np.float64))
        return values
    if name == "one":
        return np.minimum(np.arange(n + 1.0), 1.0)
    spf = smallest_prime_factors(n)
    if name == "vonmangoldt":
        p = np.flatnonzero(spf == np.arange(n + 1, dtype=np.int32))[2:]
        logs = np.fromiter(map(math.log, p.tolist()), float, len(p))  # np.log rounds some apart
        values = np.zeros(n + 1)  # after the logs' temporaries: a lower peak
        for j in range(1, n.bit_length()):
            p, logs = p[p**j <= n], logs[p**j <= n]
            values[p**j] = logs
        return values
    k = int(name[4:]) if name.startswith("tau_") else 0
    values, exps = np.zeros(n + 1), np.zeros(n + 1, dtype=np.int8)
    values[1] = 1.0
    a = 2
    while a <= n:
        b = min(2 * a, a + (1 << 15), n + 1)  # 32k-point steps bound the temporaries
        p = spf[a:b]
        m = np.arange(a, b) // p
        e = exps[a:b] = np.where(spf[m] == p, exps[m] + 1, 1)
        num, den = (e + k - 1, e) if k else (np.where(e == 1, -1.0, 0.0), 1)
        values[a:b] = values[m] * num / den + 0.0  # exact below 2^53; + 0.0 turns -0.0 to 0.0
        a = b
    return values


def sieve_standard(name: str, limit: int) -> ArithFnTable:
    """One of the standard tables on [1..limit], mobius, vonmangoldt, log, one or tau_k
    (2 <= k <= 9): a prefix of the name's :func:`prefix_table`, built by :func:`_sieve`."""
    if name not in STANDARD_NAMES:
        raise ValueError(f"unknown arithmetic function {name!r}; expected one of {STANDARD_NAMES}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ValueError(f"limit {limit} exceeds the desk-scale cap {DEFAULT_LIMIT_CAP}")
    return ArithFnTable(prefix_table(name, limit, lambda n: _sieve(name, n))[: limit + 1])


def _accumulate(out: np.ndarray, comp: np.ndarray, d: int, c: float,
                v: np.ndarray, lo: int) -> None:
    """out[d e] += c v[e] for lo <= e <= (len(out) - 1) // d; rounding errors into comp.

    The indices d e are disjoint, so the update is vectorised; TwoSum
    (Ogita, Rump & Oishi 2005) recovers each addition's error exactly.
    """
    hi = (len(out) - 1) // d
    sl = slice(d * lo, d * hi + 1, d)
    x = c * v[lo : hi + 1]
    o = out[sl]
    s = o + x
    bp = s - o
    x -= bp
    bp -= s
    bp += o
    bp += x  # (o - (s - bp)) + (x - bp)
    comp[sl] += bp
    out[sl] = s


def convolve_values(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a*b)(m) = sum_{de=m} a[d] b[e] on [0..n] for 1-indexed value arrays.

    The loop runs over the support of the sparser side.  When both sides
    have more than 2 isqrt(n) nonzeros it splits at r = isqrt(n): d <= r
    against every e, then e <= n/(r+1) against d > r, so it makes O(sqrt n)
    vectorised passes.  The compensation is folded in at the end.
    """
    a, b = a[: n + 1], b[: n + 1]
    sa, sb = np.flatnonzero(a[1:]) + 1, np.flatnonzero(b[1:]) + 1
    if len(sa) > len(sb):
        a, b, sa, sb = b, a, sb, sa
    out = np.zeros(n + 1)
    comp = np.zeros(n + 1)
    # without the split, cut = n: the first loop takes every d, the second none
    cut = math.isqrt(n) if len(sa) > 2 * math.isqrt(n) else n
    for d in sa[sa <= cut].tolist():
        _accumulate(out, comp, d, a[d], b, 1)
    for e in sb[sb <= n // (cut + 1)].tolist():
        _accumulate(out, comp, e, b[e], a, cut + 1)
    out += comp
    return out


def dirichlet_convolve(f: ArithFnTable, g: ArithFnTable, limit: int) -> ArithFnTable:
    """Exact Dirichlet convolution (f*g)(n) = sum_{de=n} f(d) g(e) on [1..limit].

    Table front end of :func:`convolve_values`.
    """
    if f.limit < limit or g.limit < limit:
        raise ValueError(f"convolution limit {limit} exceeds input limits ({f.limit}, {g.limit})")
    return ArithFnTable(convolve_values(f.values, g.values, limit))


def compute_a1(limit: int) -> ArithFnTable:
    """First moment coefficients a1 = vonmangoldt * log."""
    lam = sieve_standard("vonmangoldt", limit)
    logt = sieve_standard("log", limit)
    return dirichlet_convolve(lam, logt, limit)


def compute_a2(limit: int, b: ArithFnTable) -> ArithFnTable:
    """Second moment coefficients a2 = -(vonmangoldt * log * log * b).

    ``b`` is the mollifier coefficient table; its limit must cover [1..limit].
    """
    if b.limit < limit:
        raise ValueError(f"b table limit {b.limit} shorter than required {limit}")
    logt = sieve_standard("log", limit)
    t = compute_a1(limit)
    t = dirichlet_convolve(t, logt, limit)
    t = dirichlet_convolve(t, b, limit)
    return ArithFnTable(-t.values)


@dataclass(frozen=True)
class GrowthReport:
    """Observed coefficient growth against the tau_9 envelope.

    The envelope L^3 * tau_9(n) * p_sup is a shape monitor, not a proven
    pointwise bound: violations are listed, never raised.
    """

    envelope_scale: float
    max_ratio: float
    argmax: int
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def coefficient_growth_report(table: ArithFnTable, log_scale: float,
                              p_sup: float) -> GrowthReport:
    """Compare |table(n)| against log_scale^3 * tau_9(n) * p_sup on [1..limit]."""
    if log_scale <= 0 or p_sup <= 0:
        raise ValueError("log_scale and p_sup must be positive")
    tau9 = sieve_standard("tau_9", table.limit)
    scale = log_scale**3 * p_sup
    envelope = scale * tau9.values[1:]
    ratios = np.abs(table.values[1:]) / envelope
    max_ratio = float(ratios.max())
    argmax = int(ratios.argmax()) + 1
    violations = tuple(int(i) + 1 for i in np.nonzero(ratios > 1.0)[0])
    return GrowthReport(scale, max_ratio, argmax, violations)
