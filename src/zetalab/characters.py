"""Dirichlet characters: Gauss sums and the additive-to-multiplicative
rearrangement of the moment sums.

The characters mod q are one table per modulus: an integer matrix of
root-of-unity exponents over the unit-group exponent e, chi(a) = e(k / e) on
units and 0 elsewhere.  Conjugates and conductors are integer arithmetic
mod e, so character algebra never drifts; the complex matrix of any rows is
built on demand.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import ReadOnly, arith
from .arith import ArithFnTable, divisors, factorize, totient
from .mollifier import MollifierSpec, b_table

# hand-set bound on |M_nu direct - rearranged| / max(1, |direct|); kept here, not in vaughan
# with the other tolerances, as verify-rearrangement does not import vaughan
REARRANGE_TOLERANCE = 1e-8


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/p^e Z)*.  For odd p, the least primitive root:
    the least g with p not dividing g and g^(phi/r) != 1 (mod p^e) for every prime r | phi."""
    q = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(q - 1, 2), (3, 2 ** (e - 2))]
    phi = q - q // p
    return [(next(g for g in range(2, q)
                  if g % p and all(pow(g, phi // r, q) != 1 for r, _ in factorize(phi))), phi)]


def unit_group(q: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]:
    """Cyclic decomposition of (Z/qZ)* as (generators, orders, units, logs):
    ``units[i]`` has discrete log ``logs[i]`` over the generators, the rows in
    ``itertools.product`` order."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factorize(q) if q > 1 else ():
        pe, rest = p**e, q // (p**e)
        # CRT lift: local generator at p^e, 1 at the complementary factor
        for g, order in _local_generators(p, e):
            gens.append((g + pe * ((1 - g) * pow(pe, -1, rest) % rest)) % q)
            orders.append(order)
    logs = np.array(list(itertools.product(*(range(s) for s in orders))), dtype=np.int64)
    units = np.full(len(logs), 1 % q, dtype=np.int64)
    for col, (g, s) in enumerate(zip(gens, orders)):
        units = units * np.array([pow(g, k, q) for k in range(s)])[logs[:, col]] % q
    return tuple(gens), tuple(orders), units, logs


class CharacterTable(ReadOnly):
    """The phi(q) characters mod q as one exponent matrix over the units:
    chi_i(units[j]) = e(expo[i, j] / exponent), and chi_i is 0 off the units.

    Row i has exponent tuple ``logs[i]`` of :func:`unit_group`, so its entry at
    unit j is row i of E = (logs * strides) @ logs.T mod e.  The conductor is the
    smallest f | q with chi trivial on the units a = 1 (mod f), tested for
    every row at once; the conjugate of row i is the row with tuple -logs[i].
    ``roots[k]`` = e(k / exponent), exponent = ``len(roots)``; ``gauss_sums`` on first use.
    """

    def __init__(self, modulus: int, units, expo, conductors, conjugates, primitive, roots):
        vars(self).update(modulus=modulus, units=units, expo=expo, conductors=conductors,
                          conjugates=conjugates, primitive=primitive, roots=roots)

    def values(self, rows) -> np.ndarray:
        """The (len(rows), q) complex matrix of chi(a), a = 0..q-1, for the given rows."""
        out = np.zeros((len(rows), self.modulus), dtype=np.complex128)
        out[:, self.units] = self.roots[self.expo[rows]]
        return out

    @cached_property
    def gauss_sums(self) -> np.ndarray:
        """tau(chi_i) = sum_a chi_i(a) e(a/q) for every row i, with e(x) = exp(2 pi i x)."""
        q = self.modulus
        tau = (self.values(range(len(self.expo))) * np.exp(2j * np.pi * np.arange(q) / q)).sum(-1)
        tau.flags.writeable = False
        return tau


@lru_cache(maxsize=512)
def character_table(q: int) -> CharacterTable:
    _, orders, units, logs = unit_group(q)
    e = math.lcm(*orders)
    sizes = np.array(orders, dtype=np.int64)
    expo = ((logs * (e // sizes)) @ logs.T % e).astype(np.min_scalar_type(e - 1))
    conductors = np.zeros(len(expo), dtype=np.int64)
    for f in divisors(q):
        trivial = (expo[:, units % f == 1 % f] == 0).all(axis=1)
        conductors[(conductors == 0) & trivial] = f
    # the row of tuple -logs[i]; reshaped because q = 1, 2 have no generators
    conjugates = np.reshape(np.ravel_multi_index((-logs % sizes).T, orders), len(expo))
    primitive = np.flatnonzero(conductors == q)
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    for a in (units, expo, conductors, conjugates, primitive, roots):
        a.flags.writeable = False
    return CharacterTable(q, units, expo, conductors, conjugates, primitive, roots)


def primitive_characters(q: int) -> tuple[tuple[CharacterTable, int], ...]:
    """The primitive characters mod q as (table, row) pairs of ``character_table(q)``."""
    table = character_table(q)
    return tuple((table, int(i)) for i in table.primitive)


class GaussSumResult(NamedTuple):
    value: complex
    modulus_sqrt_check: float


def gauss_sum(chi: tuple[CharacterTable, int]) -> GaussSumResult:
    """tau(chi) = sum_a chi(a) e(a/q), e(x) = exp(2 pi i x), read from chi's (table, row)."""
    table, row = chi
    value = complex(table.gauss_sums[row])
    return GaussSumResult(value, abs(abs(value) - math.sqrt(table.modulus)))


# ---------------------------------------------------------------------------
# the two forms of the moment sum M_nu; the a_nu table they are given picks nu


def a_table(nu: int, spec: MollifierSpec, limit: int) -> ArithFnTable:
    """a_nu on [1..limit]: a_1 from ``compute_a1``, a_2 from ``compute_a2`` with spec's b."""
    if nu not in (1, 2):
        raise ValueError(f"nu must be 1 or 2, got {nu}")
    return arith.compute_a1(limit) if nu == 1 else arith.compute_a2(limit, b_table(spec, limit))


def a_limit(spec: MollifierSpec) -> int:
    """int(yT/2pi), the a_nu table length the moment sums read, if finite and within the cap."""
    m = spec.y * spec.T / (2 * math.pi)
    if not m <= arith.DEFAULT_LIMIT_CAP:  # inf included
        raise ValueError(f"yT/2pi = {m:.6g} exceeds the table cap {arith.DEFAULT_LIMIT_CAP}")
    return int(m)


def _a_values(spec: MollifierSpec, a_table: ArithFnTable) -> np.ndarray:
    """The a-table's values, once it is checked to reach m = yT/2pi."""
    need = a_limit(spec)
    if a_table.limit < need:
        raise ValueError(f"a-table limit {a_table.limit} < required {need}")
    return a_table.values


def m_nu_direct(spec: MollifierSpec, a_table: ArithFnTable) -> complex:
    """M_nu = sum_{k <= y} sum_{m <= kT/2pi} a_nu(m) (b(k)/k) e(-m/k).

    The k-terms are summed with math.fsum on real and imaginary parts.
    """
    av = _a_values(spec, a_table)
    b = b_table(spec, int(spec.y)).values.tolist()
    terms = []
    for k in range(1, int(spec.y) + 1):
        bk = b[k]
        if bk == 0.0:
            continue
        m_max = int(k * spec.T / (2 * math.pi))
        if m_max < 1:
            continue
        roots = np.exp(-2j * np.pi * np.arange(k) / k)
        phases = roots[np.arange(1, m_max + 1) % k]
        terms.append((bk / k) * complex(np.dot(av[1 : m_max + 1], phases)))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def m_nu_rearranged(spec: MollifierSpec, a_table: ArithFnTable) -> complex:
    """The multiplicative-character form of M_nu:

    sum_{q <= y} sum*_{psi mod q} tau(conj psi) sum_{k <= y/q} b(kq)/(kq)
        sum_{d | k} delta(q, kq, d, psi) sum_{m <= kqT/(2 pi d)} a_nu(m d) psi(m)

    Terms with gcd(k, q) > 1 or kq squarefull vanish through b(kq) = 0, so
    l | d | k are units mod q and psi(l) cancels in delta's l-sum:
    delta = sum_{l | d} mu(d/l) mu(k/l)/phi(kq/l) conj(psi)(-k/l) psi(d/l) = psi(u) c,
    u = d (-k)^-1 mod q, c = mu(k/d) d / (phi(k) phi(q)).  As psi(u) psi(r) =
    psi(ur), each (k, d) adds c b(kq)/(kq) w[r] at index u r mod q of one real
    vector W per modulus, w[r] the pairwise sum of a_nu(m d) over m = r (mod q),
    and the q-terms are tau(conj psi) (C @ W), C = character_table(q).values(primitive).
    """
    av = _a_values(spec, a_table)
    b = b_table(spec, int(spec.y)).values.tolist()
    mu = arith.sieve_standard("mobius", int(spec.y)).values.tolist()
    terms = []
    for q in range(1, int(spec.y) + 1):
        table = character_table(q)
        if not len(table.primitive):
            continue
        W = np.zeros(q)
        for k in range(1, int(spec.y / q) + 1):
            bkq = b[k * q]
            if bkq == 0.0:
                continue
            for d in divisors(k):
                m_max = int(k * q * spec.T / (2 * math.pi * d))
                if m_max < 1:
                    continue
                by_residue = np.zeros(-(-(m_max + 1) // q) * q)
                by_residue[1 : m_max + 1] = av[d : d * m_max + 1 : d]
                w = np.ascontiguousarray(by_residue.reshape(-1, q).T).sum(axis=1)
                u = d * pow(-k, -1, q) % q
                c = mu[k // d] * d / (totient(k) * totient(q))
                W[np.arange(q) * u % q] += (bkq / (k * q)) * c * w
        tau_bar = table.gauss_sums[table.conjugates[table.primitive]]
        terms.extend(tau_bar * (table.values(table.primitive) @ W))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
