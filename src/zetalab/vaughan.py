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

import math
from functools import cache, cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from . import ReadOnly, arith, characters
from .arith import ArithFnTable, convolve_values, divisors
from .characters import character_table
from .mollifier import MollifierSpec, b_table

VAUGHAN_TOLERANCE = 1e-9
SPLIT_TOLERANCE = 1e-10
SIEVE_RATIO_BOUND = 6.0  # hand-set ceiling on the hybrid large sieve monitor's lhs / rhs


class VaughanConfig(ReadOnly):
    """An integer r >= 1 of terms, M(s) truncated at a finite X >= 1."""

    def __init__(self, r: int, X: float):
        if not isinstance(r, (int, np.integer)):
            raise ValueError(f"r must be an integer, got {r}")
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if not X >= 1:  # nan too
            raise ValueError(f"X must be >= 1, got {X}")
        if math.isinf(X):
            raise ValueError(f"X must be finite, got {X}")
        vars(self).update(r=r, X=X)


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
    each M factor contributes mu truncated at X; ``limit`` is checked by the first sieve.
    """
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


class IdentityReport(NamedTuple):
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


def _role_blocks(spec: MollifierSpec, config: VaughanConfig, n_cap: int) -> dict:
    """Role -> its block list: the consecutive pairs of one edge list.  The edges are
    the powers of 2 up to the first >= n_cap, after 0.5 for the roles that take n = 1;
    the mu edges stop at the first power past X, clipped to X so the slot bound
    N_i <= X holds for non-dyadic X; the b edges are y/2^h down to the first below 1."""
    powers = [1.0]
    while powers[-1] < n_cap:
        powers.append(2.0 * powers[-1])
    b_edges = [min(spec.y, n_cap) / 1.0]
    while b_edges[-1] >= 1.0:
        b_edges.append(b_edges[-1] / 2.0)
    X = config.X
    edges = {LOG: powers, ONE: [0.5, *powers],
             MU: [0.5, *(min(e, X) for e in powers if e / 2.0 < min(X, n_cap))],
             B_COEF: b_edges[::-1], IDENTITY: [0.5, 1.0]}
    return {role: tuple(zip(e, e[1:])) for role, e in edges.items()}


class A2Decomposition(ReadOnly):
    """Emitted dyadic terms reconstructing a2 on [1..min(n_cap, X^3)], grouped by Vaughan index j.

    Requires r = 3 (the nine-slot layout).  Terms are the cross products of the
    block lists of ``slots(j)``, one per role, that :func:`_slot_rule` admits;
    construction checks that each role's blocks tile its support up to n_cap.
    """

    def __init__(self, spec: MollifierSpec, config: VaughanConfig, n_cap: int):
        if config.r != 3:
            raise ValueError(f"the nine-slot decomposition requires r = 3, got r = {config.r}")
        if n_cap < 1 or n_cap > arith.DEFAULT_LIMIT_CAP:
            raise ValueError(f"n_cap {n_cap} outside [1, {arith.DEFAULT_LIMIT_CAP}]")
        role_blocks = _role_blocks(spec, config, n_cap)
        caps = {LOG: n_cap, B_COEF: min(n_cap, int(spec.y)), ONE: n_cap,
                MU: min(n_cap, int(config.X))}
        for role, cap in caps.items():
            start = 2 if role == LOG else 1
            cover = np.zeros(n_cap + 1, dtype=np.int64)
            for lo, hi in role_blocks[role]:
                cover[int(lo) + 1 : min(int(hi), n_cap) + 1] += 1  # empty when lo >= n_cap
            if (gaps := np.flatnonzero(cover[start : cap + 1] != 1)).size:
                raise AssertionError(
                    f"dyadic blocks do not tile [{start}..{cap}] at n={gaps[0] + start}")
        vars(self).update(spec=spec, config=config, n_cap=n_cap, role_blocks=role_blocks)

    def slots(self, j: int) -> tuple:
        """The nine block lists of group j, one per slot."""
        return tuple(self.role_blocks[role] for role in _SLOT_ROLES[j])

    @cached_property
    def _rules(self) -> dict:
        """j -> :func:`_slot_rule` of group j's slots, built on first use."""
        return {j: _slot_rule(self.slots(j)) for j in (1, 2, 3)}

    def terms(self):
        """Emitted terms, group by group in lexicographic block order, lazily."""
        for j, (admissible, _) in self._rules.items():
            rows = [((), self.n_cap)]
            for i in range(8):
                rows = _extend(rows, admissible, i)
            yield from (DecompositionTerm(j, chosen + tail) for chosen, b in rows
                        for _, tail in admissible(8, b))

    def count_terms(self) -> int:
        """Number of emitted terms, counted without making them."""
        return sum(count(0, self.n_cap) for _, count in self._rules.values())

    def term(self, index: int) -> DecompositionTerm:
        """``list(self.terms())[index]``, found by descending the counts."""
        if not 0 <= index < self.count_terms():
            raise IndexError(f"term index {index} outside [0, {self.count_terms()})")
        for j, (admissible, count) in self._rules.items():
            if index < count(0, self.n_cap):
                break
            index -= count(0, self.n_cap)
        chosen, b = (), self.n_cap
        for i in range(9):
            for m, tail in admissible(i, b):
                if index < (below := count(i + 1, b // m)):
                    break
                index -= below
            chosen, b = chosen + tail, b // m
        return DecompositionTerm(j, chosen)

    def reconstruct(self) -> np.ndarray:
        """Sum of (-1)^j C(3, j) (f_1 * ... * f_9) over all emitted terms, on [0..n_cap].

        The terms regroup exactly into the role tables themselves: every slot of a
        role holds the role's one block list, the blocks tile the role's support
        (checked on construction), and dropped block combinations start beyond
        n_cap.  So the tables go through :func:`_vaughan_groups` with head
        -(log * log * log * b); one term alone is :func:`term_convolution`, the
        splitting states of :func:`_split_states` at d = 1.
        """
        n = self.n_cap
        tables = _role_tables(self.spec, self.config, n)
        head = tables[B_COEF]
        for _ in range(3):
            head = convolve_values(head, tables[LOG], n)
        groups = _vaughan_groups(-head, tables[MU], tables[ONE], self.config.r, n)
        return sum(weight * group for weight, group in groups)


def _slot_rule(slots):
    """Memoised (admissible, count) of one group's slots.  With m = floor(lo) + 1 and
    ``later[i]`` the product of the smallest m after slot i, ``admissible(i, b)`` is
    slot i's (m, (block,)) pairs with m * later[i] <= b = n_cap // (product of m so
    far), in block order, and ``count(i, b)`` the number of admissible completions."""
    mins = [[int(lo) + 1 for lo, _ in blocks] for blocks in slots]
    later = [math.prod(min(m, default=1) for m in mins[i + 1:]) for i in range(len(slots))]

    @cache
    def admissible(i, b):
        return tuple((m, (block,)) for m, block in zip(mins[i], slots[i]) if m * later[i] <= b)

    @cache
    def count(i, b):
        return 1 if i == len(slots) else sum(count(i + 1, b // m) for m, _ in admissible(i, b))

    return admissible, count


def _extend(rows, admissible, i):
    """The (blocks, budget) rows extended, in order, by each admissible block of slot i."""
    return ((chosen + tail, b // m) for chosen, b in rows for m, tail in admissible(i, b))


def decompose_a2(spec: MollifierSpec, config: VaughanConfig, n_cap: int) -> A2Decomposition:
    """The dyadic terms reconstructing a2 on [1..min(n_cap, X^3)]: see :class:`A2Decomposition`."""
    return A2Decomposition(spec, config, n_cap)


def _role_tables(spec: MollifierSpec, config: VaughanConfig, n: int) -> dict:
    """The function of each non-identity slot role as a value array on [0..n]."""
    return {LOG: arith.sieve_standard("log", n).values,
            ONE: arith.sieve_standard("one", n).values,
            MU: mu_truncated(config.X, n).values,
            B_COEF: b_table(spec, n).values}


def _term_product(term: DecompositionTerm, tables: dict, n: int) -> np.ndarray:
    """The product of the restricted factors on [0..n]: the splitting states at d = 1.
    It vanishes beyond the product of their floor(hi), so the convolutions stop there."""
    top = min(n, math.prod(int(hi) for _, hi in term.blocks))
    out = np.zeros(n + 1)
    out[: top + 1] = _split_states(term, tables, 1, top).get(1, 0.0)
    return out


def _split_states(term: DecompositionTerm, tables: dict, d: int, size: int) -> dict:
    """Remaining divisor rem -> sum of (g_1 * ... * g_9) on [0..size] over the ordered
    factorisations d = d_1...d_9 r with rem = r, where g_i(m) = f_i(m d_i) if
    gcd(m, d_1...d_{i-1}) = 1, else 0.  Partial convolutions are merged across
    factorisations sharing rem - an exact regrouping by linearity: the divisors used
    so far multiply to d // rem, so g_i depends on the earlier d's only through rem.
    Each g_i is built on its span, the m <= size with m d_i in the slot's block (lo, hi]."""
    first = np.zeros(size + 1)
    first[1] = 1.0
    states = {d: first}
    for role, (lo, hi) in zip(term.roles, term.blocks):
        if role == IDENTITY:
            continue  # an identity slot forces d_i = 1: a convolution no-op
        new_states: dict = {}
        for rem, table in states.items():
            for d_i in divisors(rem):
                a, b = int(lo) // d_i + 1, min(int(hi) // d_i, size)
                if a > b:
                    continue
                g = np.zeros(size + 1)
                g[a : b + 1] = tables[role][a * d_i : b * d_i + 1 : d_i]
                if d > rem:
                    g[a : b + 1][np.gcd(np.arange(a, b + 1), d // rem) > 1] = 0.0
                if not g.any():
                    continue
                nxt = convolve_values(table, g, size)
                key = rem // d_i
                new_states[key] = new_states[key] + nxt if key in new_states else nxt
        states = new_states
    return states


def term_convolution(term: DecompositionTerm, decomposition: A2Decomposition,
                     n_cap: int | None = None) -> np.ndarray:
    """(f_1 * ... * f_9) for a single term, on [0..n_cap], without the sign (-1)^j C(3, j)."""
    n = n_cap if n_cap is not None else decomposition.n_cap
    if n < 1:
        raise ValueError(f"n_cap must be >= 1, got {n}")
    return _term_product(term, _role_tables(decomposition.spec, decomposition.config, n), n)


# ---------------------------------------------------------------------------
# divisor splitting: (f_1*...*f_9)(m d) = sum_{d = d_1...d_9} (g_1*...*g_9)(m)


class SplitReport(NamedTuple):
    """An :class:`IdentityReport` with the number of ordered 9-factorisations of d."""

    check: str
    parameters: dict
    worst_index: int
    deviation: float
    tolerance: float
    factorization_count: int

    passed = IdentityReport.passed


def split_by_divisor(term: DecompositionTerm, decomposition: A2Decomposition,
                     d: int, m_limit: int) -> SplitReport:
    """Verify the splitting lemma for one term and one divisor d: the term's product
    F at m d against the states of :func:`_split_states` with nothing left of d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if m_limit < 1:
        raise ValueError(f"m_limit must be >= 1, got {m_limit}")
    if m_limit * d > arith.DEFAULT_LIMIT_CAP:
        raise ValueError(f"m_limit*d = {m_limit * d} exceeds the table budget")

    n = m_limit * d
    tables = _role_tables(decomposition.spec, decomposition.config, n)
    lhs = _term_product(term, tables, n)[::d]  # F(0) = 0, F(d), ..., F(m_limit d)
    rhs = _split_states(term, tables, d, m_limit).get(1, np.zeros(m_limit + 1))
    # ordered 9-factorisation count of d: tau_9(d)
    count = int(arith.sieve_standard("tau_9", d)[d])

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


def _desk_scale(**ranges) -> None:
    """Reject each name=(value, lo, hi) whose value lies outside [lo, hi], and each
    value but V's that is not an integer."""
    for name, (value, lo, hi) in ranges.items():
        if name != "V" and not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value}")
        if not lo <= value <= hi:
            raise ValueError(f"{name} = {value} outside desk scale [{lo}, {hi}]")


class SieveMonitorReport(NamedTuple):
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
    _desk_scale(Q=(Q, 1, 30), V=(V, 0, 50), H=(H, 1, 500))
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
    _desk_scale(Q=(Q, 1, 16), X=(X, 1, 2000), d=(d, 1, 8))
    if a_table is None:
        a_table = characters.a_table(nu, spec, X * d)
    if a_table.limit < X * d:
        raise ValueError(f"a table limit {a_table.limit} < X*d = {X * d}")
    m = np.arange(1, X + 1)
    series = a_table.values[m * d] * _band_values(Q, m)
    return float(np.abs(np.cumsum(series, axis=1)).max(axis=1).sum())
