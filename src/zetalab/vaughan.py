"""Generalised Vaughan identity and the nine-slot dyadic decomposition.

The identity expands zeta'/zeta into r binomially weighted products of
zeta, zeta', and the truncated Mobius polynomial M(s) = sum_{n<=X} mu(n)/n^s,
with a remainder supported on n > X^r.  Its coefficient form is verified
exactly against the von Mangoldt sieve.  Substituted into the second-moment
coefficients a2 = -(Lambda * log * log * b) with r = 3, plus dyadic splitting
of every factor, it yields the nine-slot terms

    f1 = f2 = f3 = log,  f4 = b,  f5 = f6 = 1,  f7 = f8 = f9 = mu (<= X),

each restricted to a dyadic block, with absent slots set to the convolution
identity.  The module also covers the divisor-splitting lemma and a numerical
monitor for the hybrid large sieve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from . import arith, characters
from .arith import ArithFnTable, convolve_values
from .characters import character_table
from .intfun import divisors, factorize
from .mollifier import MollifierSpec, b_table

VAUGHAN_TOLERANCE = 1e-9
SPLIT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class VaughanConfig:
    """An integer r >= 1 of terms, M(s) truncated at a finite X >= 1."""

    r: int
    X: float

    def __post_init__(self):
        if not isinstance(self.r, (int, np.integer)):
            raise ValueError(f"r must be an integer, got {self.r}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not self.X >= 1:  # nan too
            raise ValueError(f"X must be >= 1, got {self.X}")
        if math.isinf(self.X):
            raise ValueError(f"X must be finite, got {self.X}")


def mu_truncated(X: float, limit: int) -> ArithFnTable:
    """mu(n) for n <= X, zero beyond, as a table on [1..limit]; the sieve runs to min(X, limit)."""
    cut = min(int(X), limit)
    values = np.zeros(limit + 1)
    if cut >= 1:
        values[: cut + 1] = arith.sieve_standard("mobius", cut).values
    return ArithFnTable(values)


def vaughan_rhs_coefficients(config: VaughanConfig, limit: int) -> ArithFnTable:
    """Dirichlet coefficients on [1..limit] of
    sum_{j=1}^{r} (-1)^{j-1} C(r,j) zeta^{j-1} zeta' M^j.

    zeta contributes the constant function 1, zeta' contributes -log, and
    each M factor contributes mu truncated at X.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > arith.DEFAULT_LIMIT_CAP:
        raise ValueError(f"limit {limit} exceeds the desk-scale cap")
    groups = _vaughan_groups(-arith.sieve_standard("log", limit).values,
                             mu_truncated(config.X, limit).values,
                             arith.sieve_standard("one", limit).values, config.r, limit)
    total = sum(weight * group for weight, group in groups)
    return ArithFnTable(total)


def _vaughan_groups(head, mu_x, one, r: int, n: int):
    """The r groups of the generalised Vaughan identity on [0..n], as pairs
    ((-1)^(j-1) C(r, j), head * mu_x^{*j} * one^{*(j-1)}), j = 1..r: each group
    takes one mu_x and one ``one`` convolution beyond the one before."""
    group = convolve_values(head, mu_x, n)
    for j in range(1, r + 1):
        if j > 1:
            group = convolve_values(convolve_values(group, mu_x, n), one, n)
        yield (-1) ** (j - 1) * comb(r, j), group


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact coefficient comparison."""

    check: str
    parameters: dict
    worst_index: int
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def verify_vaughan(config: VaughanConfig, limit: int) -> IdentityReport:
    """Assert rhs(n) = -Lambda(n) for n <= limit <= X^r.

    Beyond X^r the remainder term (1 - zeta M)^r zeta'/zeta contributes, so
    larger limits are rejected rather than reported as failures.
    """
    if limit > config.X**config.r:
        raise ValueError(
            f"limit {limit} exceeds X^r = {config.X**config.r:g}; "
            "the remainder term is only guaranteed to vanish up to X^r"
        )
    rhs = vaughan_rhs_coefficients(config, limit)
    lam = arith.sieve_standard("vonmangoldt", limit)
    dev = np.abs(rhs.values[1:] + lam.values[1:])
    worst = int(dev.argmax()) + 1
    tol = VAUGHAN_TOLERANCE * max(1.0, math.log(limit))
    return IdentityReport("vaughan-identity", {"r": config.r, "X": config.X, "N": limit},
                          worst, float(dev.max()), tol)


# ---------------------------------------------------------------------------
# nine-slot dyadic decomposition of a2

LOG, B_COEF, ONE, MU, IDENTITY = "log", "b", "one", "mobius", "identity"

# a2 = sum_j (-1)^j C(3,j) [1^{*(j-1)} * log^{*3} * b * mu_X^{*j}] below X^3: the Vaughan
# groups of -Lambda, each convolved with log^{*2} * b
_SLOT_ROLES = {
    1: (LOG, LOG, LOG, B_COEF, IDENTITY, IDENTITY, MU, IDENTITY, IDENTITY),
    2: (LOG, LOG, LOG, B_COEF, ONE, IDENTITY, MU, MU, IDENTITY),
    3: (LOG, LOG, LOG, B_COEF, ONE, ONE, MU, MU, MU),
}


class DecompositionTerm(NamedTuple):
    """One dyadic convolution term of Vaughan group j.

    Slot i holds its role's function restricted to (blocks[i][0], blocks[i][1]].
    """

    j: int
    blocks: tuple[tuple[float, float], ...]

    @property
    def ranges(self) -> tuple[float, ...]:
        """Block labels N_1..N_9: the upper edges (1 for absent slots)."""
        return tuple(hi for _, hi in self.blocks)

    @property
    def roles(self) -> tuple[str, ...]:
        return _SLOT_ROLES[self.j]


def _dyadic_blocks(cap: float, include_unit: bool, upper: float | None = None):
    """Blocks (2^{e-1}, 2^e] covering [1..cap]; optionally the {1} block.

    ``upper`` truncates the top block label (used for the mu slots, whose
    support stops at X)."""
    blocks = []
    if include_unit:
        blocks.append((0.5, 1.0))
    hi = 2.0
    while hi / 2.0 < cap:
        top = hi if upper is None else min(hi, upper)
        blocks.append((hi / 2.0, top))
        if top < hi:
            break
        hi *= 2.0
    return tuple(blocks)


def _b_blocks(y: float):
    """Blocks (y/2^{h+1}, y/2^h] down to the block containing 1, ascending."""
    blocks = []
    h = 0
    while y / 2.0**h >= 1.0:
        blocks.append((y / 2.0 ** (h + 1), y / 2.0**h))
        h += 1
    return tuple(reversed(blocks))


_IDENTITY_BLOCKS = ((0.5, 1.0),)


@dataclass(frozen=True)
class A2Decomposition:
    """Emitted dyadic terms for a2, grouped by Vaughan index j.

    Terms are the cross products of the block lists of ``slots(j)``, one per
    role, filtered by the support rule prod_i (floor(lo_i) + 1) <= n_cap:
    anything larger cannot touch [1..n_cap].
    """

    spec: MollifierSpec
    config: VaughanConfig
    n_cap: int
    role_blocks: dict  # role -> tuple of blocks

    def slots(self, j: int) -> tuple:
        """The nine block lists of group j, one per slot."""
        return tuple(self.role_blocks[role] for role in _SLOT_ROLES[j])

    def _index_rows(self, j: int):
        """Block-index rows of group j's emitted terms, in lexicographic order:
        :func:`_completions` of the slots' smallest m = floor(lo) + 1."""
        mins = [np.array([int(lo) + 1 for lo, _ in blocks], dtype=np.int32) for blocks in self.slots(j)]
        low = [int(min(m, default=1)) for m in mins]  # an empty slot emits no rows
        caps = [self.n_cap // math.prod(low[i + 1:]) for i in range(9)]
        return _completions(mins, caps, [], np.ones(1, dtype=np.int32))

    def terms(self):
        """Emitted terms, group by group: the rows of :meth:`_index_rows`, made
        terms by one zip over object columns."""
        for j in (1, 2, 3):
            objects = [np.fromiter(blocks, dtype=object, count=len(blocks)) for blocks in self.slots(j)]
            for rows in self._index_rows(j):
                columns = [obj[col] for obj, col in zip(objects, rows)]
                yield from map(DecompositionTerm, itertools.repeat(j), zip(*columns))

    def count_terms(self) -> int:
        """Number of emitted terms: the rows of :meth:`_index_rows`, not made terms."""
        return sum(len(rows[0]) for j in (1, 2, 3) for rows in self._index_rows(j))

    def reconstruct(self) -> np.ndarray:
        """Sum of (-1)^j C(3, j) (f_1 * ... * f_9) over all emitted terms, on [0..n_cap].

        The terms are pooled per role before convolving (an exact regrouping:
        every slot of a role holds the role's one block list, the blocks tile
        the role's support, and dropped block combinations start beyond n_cap),
        and the pooled tables go through :func:`_vaughan_groups` with head
        -(log * log * log * b).  The tiling is asserted here; per-term
        evaluation is available via :func:`term_convolution`.
        """
        n = self.n_cap
        tables = _role_tables(self.spec, self.config, n)
        caps = {LOG: n, B_COEF: min(n, int(self.spec.y)), ONE: n, MU: min(n, int(self.config.X))}
        pooled = {role: _pooled_slot(tables[role], self.role_blocks[role], n, cap,
                                     2 if role == LOG else 1)
                  for role, cap in caps.items()}
        head = pooled[B_COEF]
        for _ in range(3):
            head = convolve_values(head, pooled[LOG], n)
        groups = _vaughan_groups(-head, pooled[MU], pooled[ONE], self.config.r, n)
        return sum(weight * group for weight, group in groups)


_TERM_ROWS = 256


def _completions(mins, caps, rows, prod):
    """Block-index rows (one int8 column per slot) of the admissible completions
    of ``rows``, whose products of m = floor(lo) + 1 are ``prod``, in
    lexicographic order.  Slot i takes each block with prod * m <= caps[i],
    which leaves room below n_cap for the smallest blocks of the later slots.
    Rows are extended row-major, at most _TERM_ROWS at a time to bound memory.
    """
    i = len(rows)
    if i == len(mins):
        yield rows
        return
    for a in range(0, len(prod), _TERM_ROWS):
        p = prod[a : a + _TERM_ROWS]
        keep = mins[i] <= (caps[i] // p)[:, None]
        counts = keep.sum(axis=1)
        ext = [np.repeat(col[a : a + _TERM_ROWS], counts) for col in rows]
        ext.append(np.broadcast_to(np.arange(len(mins[i]), dtype=np.int8), keep.shape)[keep])
        yield from _completions(mins, caps, ext, np.repeat(p, counts) * mins[i][ext[-1]])


def _restrict(values: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    a, b = int(lo) + 1, min(int(hi), n)
    out[a : b + 1] = values[a : b + 1]  # empty when a > b
    return out


def _pooled_slot(values, blocks, n, cap, start) -> np.ndarray:
    """``values`` summed over ``blocks`` on [0..n], asserting that the blocks
    cover each of start..cap exactly once."""
    pooled = np.zeros(n + 1)
    cover = np.zeros(n + 1)
    for lo, hi in blocks:
        pooled += _restrict(values, lo, hi, n)
        cover += _restrict(np.ones(n + 1), lo, hi, n)
    if not np.all(cover[start : cap + 1] == 1.0):
        bad = int(np.nonzero(cover[start : cap + 1] != 1.0)[0][0]) + start
        raise AssertionError(f"dyadic blocks do not tile [{start}..{cap}] at n={bad}")
    return pooled


def decompose_a2(spec: MollifierSpec, config: VaughanConfig, n_cap: int = 10**4) -> A2Decomposition:
    """Emit the dyadic terms reconstructing a2 on [1..min(n_cap, X^3)].

    Requires r = 3 (the nine-slot layout).  Labels are powers of 2, or
    y/2^h for the b slot, or 1 for absent slots; the top mu block label is
    clipped to X so the slot bound N_i <= X holds for non-dyadic X.
    """
    if config.r != 3:
        raise ValueError(f"the nine-slot decomposition requires r = 3, got r = {config.r}")
    if n_cap < 1 or n_cap > arith.DEFAULT_LIMIT_CAP:
        raise ValueError(f"n_cap {n_cap} outside [1, {arith.DEFAULT_LIMIT_CAP}]")
    X = config.X
    role_blocks = {LOG: _dyadic_blocks(n_cap, include_unit=False),
                   ONE: _dyadic_blocks(n_cap, include_unit=True),
                   MU: _dyadic_blocks(min(X, n_cap), include_unit=True, upper=X),
                   B_COEF: _b_blocks(min(spec.y, n_cap)), IDENTITY: _IDENTITY_BLOCKS}
    return A2Decomposition(spec=spec, config=config, n_cap=n_cap, role_blocks=role_blocks)


def _role_tables(spec: MollifierSpec, config: VaughanConfig, n: int) -> dict:
    """The function of each slot role as a value array on [0..n]."""
    ident = np.zeros(n + 1)
    ident[1] = 1.0
    return {LOG: arith.sieve_standard("log", n).values,
            ONE: arith.sieve_standard("one", n).values,
            MU: mu_truncated(config.X, n).values,
            B_COEF: b_table(spec, n).values,
            IDENTITY: ident}


def _term_product(term: DecompositionTerm, tables: dict, n: int) -> np.ndarray:
    """The product of the restricted factors on [0..n]; it vanishes beyond the
    product of their floor(hi), so the convolutions stop there."""
    factors = [(role, lo, hi) for role, (lo, hi) in zip(term.roles, term.blocks)
               if role != IDENTITY]
    top = min(n, math.prod(int(hi) for _, _, hi in factors))
    acc = np.zeros(n + 1)
    acc[: top + 1] = tables[IDENTITY][: top + 1]
    for role, lo, hi in factors:
        acc[: top + 1] = convolve_values(acc, _restrict(tables[role], lo, hi, top), top)
    return acc


def term_convolution(term: DecompositionTerm, decomposition: A2Decomposition,
                     n_cap: int | None = None) -> np.ndarray:
    """(f_1 * ... * f_9) for a single term, on [0..n_cap], without the sign (-1)^j C(3, j)."""
    n = n_cap if n_cap is not None else decomposition.n_cap
    if n < 1:
        raise ValueError(f"n_cap must be >= 1, got {n}")
    return _term_product(term, _role_tables(decomposition.spec, decomposition.config, n), n)


# ---------------------------------------------------------------------------
# divisor splitting: (f_1*...*f_9)(m d) = sum_{d = d_1...d_9} (g_1*...*g_9)(m)


@dataclass(frozen=True)
class SplitReport(IdentityReport):
    factorization_count: int


def split_by_divisor(term: DecompositionTerm, decomposition: A2Decomposition,
                     d: int, m_limit: int) -> SplitReport:
    """Verify the splitting lemma for one term and one divisor d.

    g_i(m) = f_i(m d_i) if gcd(m, d_1...d_{i-1}) = 1, else 0.  The ordered
    factorisations are evaluated with partial convolutions merged across
    factorisations sharing the remaining divisor rem - an exact regrouping by
    linearity: the divisors used so far multiply to d // rem, so g_i depends
    on the earlier d's only through rem, as gcd(m, d // rem) = 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m_limit < 1:
        raise ValueError(f"m_limit must be >= 1, got {m_limit}")
    if m_limit * d > arith.DEFAULT_LIMIT_CAP:
        raise ValueError(f"m_limit*d = {m_limit * d} exceeds the table budget")

    n = m_limit * d
    tables = _role_tables(decomposition.spec, decomposition.config, n)
    lhs = _term_product(term, tables, n)[::d]  # F(0) = 0, F(d), ..., F(m_limit d)

    m = np.arange(m_limit + 1)
    divs = divisors(d)
    arg = np.outer(divs, m)  # m d_i for every d_i | d, all <= n
    coprime = {used: np.gcd(m, used) == 1 for used in divs}
    states = {d: tables[IDENTITY][: m_limit + 1]}  # remaining divisor -> table
    for role, (lo, hi) in zip(term.roles, term.blocks):
        if role == IDENTITY:
            continue  # an identity slot forces d_i = 1: a convolution no-op
        f_md = dict(zip(divs, np.where((arg > lo) & (arg <= hi), tables[role][arg], 0.0)))
        new_states: dict = {}
        for rem, table in states.items():
            for d_i in divisors(rem):
                g = np.where(coprime[d // rem], f_md[d_i], 0.0)
                if not g.any():
                    continue
                nxt = convolve_values(table, g, m_limit)
                key = rem // d_i
                new_states[key] = new_states[key] + nxt if key in new_states else nxt
        states = new_states
        if not states:
            break

    rhs = states.get(1, np.zeros(m_limit + 1))
    # ordered 9-factorisation count of d: prod over p^a || d of C(a+8, 8)
    count = math.prod(comb(a + 8, 8) for _, a in factorize(d))

    dev = np.abs(lhs[1:] - rhs[1:])
    return SplitReport(
        check="divisor-splitting",
        parameters={"d": d, "m_limit": m_limit, "term_ranges": term.ranges, "j": term.j},
        worst_index=int(dev.argmax()) + 1,
        deviation=float(dev.max()),
        tolerance=SPLIT_TOLERANCE,
        factorization_count=count,
    )


# ---------------------------------------------------------------------------
# hybrid large sieve monitor


@dataclass(frozen=True)
class SieveMonitorReport:
    lhs: float
    rhs: float
    ratio: float
    Q: int
    V: float
    H: int


def _log_differences(H: int) -> tuple[np.ndarray, np.ndarray]:
    """log m and D_mn = 1/(log m - log n), D_mm = 0, for m, n <= H: prefixes of a memo pair."""
    logs, D = arith.prefix_table("log_differences", H, _build_log_differences)
    return logs[:H], D[:H, :H]


def _build_log_differences(H: int) -> tuple[np.ndarray, np.ndarray]:
    logs = np.log(np.arange(1, H + 1, dtype=np.float64))
    diff = logs[:, None] - logs[None, :]
    np.fill_diagonal(diff, np.inf)
    return logs, np.reciprocal(diff, out=diff)


def _band_values(Q: int, m: np.ndarray) -> np.ndarray:
    """psi(m), one row per primitive psi mod q, q in the band (Q/2, Q]; the band
    never includes q = 1 (its cell is the main-term path's), so Q = 1 has none."""
    tables = [character_table(q) for q in range(max(2, Q // 2 + 1), Q + 1)]
    return np.concatenate([np.zeros((0, len(m)))] +
                          [t.values(t.primitive)[:, m % t.modulus] for t in tables])


def hybrid_large_sieve_monitor(Q: int, V: float, H: int, coefficients) -> SieveMonitorReport:
    """LHS = sum_{q ~ Q} sum*_psi int_{-V}^{V} |sum_{m<=H} h_m psi(m) m^{-it}|^2 dt
    against RHS = (Q^2 V + H) sum |h_m|^2.

    The t-integral is exact: int (m/n)^{-it} dt = K_mn = 2 sin(V log(m/n))/log(m/n),
    2V on the diagonal: the Hilbert-inequality kernel of Montgomery & Vaughan
    (J. London Math. Soc. 1974).  With s, c = sin, cos(V log m) and D from
    :func:`_log_differences`, K_mn = 2 (s_m c_n - c_m s_n) D_mn off the
    diagonal and D is antisymmetric, so x^T K x = 4 (x s)^T D (x c) + 2V |x|^2
    for real x: the real and imaginary parts of all rows h psi(m) go through
    one product with D, and a call takes O(H) sines and cosines.
    """
    if not 1 <= Q <= 30:
        raise ValueError(f"Q = {Q} outside desk scale [1, 30]")
    if not 0 <= V <= 50:
        raise ValueError(f"V = {V} outside desk scale [0, 50]")
    if not 1 <= H <= 500:
        raise ValueError(f"H = {H} outside desk scale [1, 500]")
    h = np.asarray(coefficients, dtype=np.complex128)
    if h.shape != (H,):
        raise ValueError(f"need exactly H = {H} coefficients, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("non-finite coefficient: monitor ratio undefined")
    norm2 = float(np.vdot(h, h).real)
    if norm2 == 0.0:
        raise ValueError("zero coefficient vector: monitor ratio undefined")

    logs, D = _log_differences(H)
    rows = h * _band_values(Q, np.arange(1, H + 1))
    x = np.concatenate([rows.real, rows.imag])
    lhs = (4.0 * float(((x * np.sin(V * logs)) @ D * (x * np.cos(V * logs))).sum())
           + 2.0 * V * float((x * x).sum()))
    rhs = (Q * Q * V + H) * norm2
    return SieveMonitorReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, Q=Q, V=V, H=H)


def run_sieve_trials(trials: int, seed: int, q_max: int, h_max: int,
                     v_max: float) -> list[SieveMonitorReport]:
    """Random coefficient sweep; the observed max ratio is the monitor output."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        Q = int(rng.integers(2, q_max + 1))
        H = int(rng.integers(1, h_max + 1))
        V = float(rng.uniform(0.0, v_max))
        h = rng.standard_normal(H) + 1j * rng.standard_normal(H)
        reports.append(hybrid_large_sieve_monitor(Q, V, H, h))
    return reports


# ---------------------------------------------------------------------------
# S(Q, X, d) brute force


def s_qxd_bruteforce(Q: int, X: int, d: int, nu: int, spec: MollifierSpec,
                     a_table: ArithFnTable | None = None) -> float:
    """S(Q,X,d) = sum_{q ~ Q} sum*_psi max_{M <= X} |sum_{m <= M} a_nu(m d) psi(m)|,
    the max taken over every integer M, for all psi of the band at once.
    """
    if nu not in (1, 2):
        raise ValueError(f"nu must be 1 or 2, got {nu}")
    if not 1 <= Q <= 16:
        raise ValueError(f"Q = {Q} outside desk scale [1, 16]")
    if not 1 <= X <= 2000:
        raise ValueError(f"X = {X} outside desk scale [1, 2000]")
    if not 1 <= d <= 8:
        raise ValueError(f"d = {d} outside desk scale [1, 8]")
    if a_table is None:
        a_table = characters.a_table(nu, spec, X * d)
    if a_table.limit < X * d:
        raise ValueError(f"a table limit {a_table.limit} < X*d = {X * d}")
    m = np.arange(1, X + 1)
    series = a_table.values[m * d] * _band_values(Q, m)
    return float(np.abs(np.cumsum(series, axis=1)).max(axis=1).sum())
