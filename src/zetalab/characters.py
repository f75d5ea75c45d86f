"""Dirichlet characters: enumeration, Gauss sums, the delta factor, and the
additive-to-multiplicative rearrangement of the moment sums.

Characters are stored as exact root-of-unity exponents over the unit-group
exponent e: chi(a) = zeta_e^{expo[a]} on units, 0 elsewhere.  Tables and
conjugates are integer arithmetic mod e, so character algebra never drifts;
values are materialised to complex128 on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import ArithFnTable
from .intfun import divisors, factorize, mobius_int, multiplicative_order, totient
from .mollifier import MollifierSpec, eval_b


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/p^e Z)*."""
    q = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(q - 1, 2), (3, 2 ** (e - 2))]
    phi = totient(q)
    for g in range(2, q):
        if math.gcd(g, q) == 1 and multiplicative_order(g, q) == phi:
            return [(g, phi)]
    raise RuntimeError(f"no primitive root found mod {q}")  # unreachable for odd p


@dataclass(frozen=True)
class UnitGroup:
    """Cyclic decomposition of (Z/qZ)*: ``units[i]`` has discrete log
    ``logs[i]`` over ``generators``, the rows in ``itertools.product`` order."""

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    exponent: int
    units: np.ndarray
    logs: np.ndarray


@lru_cache(maxsize=512)
def unit_group(q: int) -> UnitGroup:
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factorize(q) if q > 1 else ():
        pe = p**e
        rest = q // pe
        # CRT lift: local generator at p^e, 1 at the complementary factor
        for g, order in _local_generators(p, e):
            lifted = _crt_lift(g, pe, rest)
            gens.append(lifted)
            orders.append(order)
    exponent = 1
    for s in orders:
        exponent = exponent * s // math.gcd(exponent, s)
    logs = np.array(list(itertools.product(*(range(s) for s in orders))), dtype=np.int64)
    units = np.full(len(logs), 1 % q, dtype=np.int64)
    for col, (g, s) in enumerate(zip(gens, orders)):
        units = units * np.array([pow(g, k, q) for k in range(s)])[logs[:, col]] % q
    units.flags.writeable = logs.flags.writeable = False
    return UnitGroup(q, tuple(gens), tuple(orders), exponent, units, logs)


def _crt_lift(g: int, pe: int, rest: int) -> int:
    if rest == 1:
        return g % pe
    # x = g mod pe, x = 1 mod rest
    inv = pow(pe, -1, rest)
    return (g + pe * ((1 - g) * inv % rest)) % (pe * rest)


@dataclass(frozen=True)
class DirichletCharacter:
    """Value table mod q, held as root-of-unity exponents over ``exponent``.

    ``exponents[a]`` is the integer k with chi(a) = e(k / exponent) for units
    a, and -1 on non-units.  For q = 1 the single residue carries chi = 1.
    """

    modulus: int
    exponent: int
    exponents: tuple[int, ...]
    conductor: int
    index: int

    @cached_property
    def values(self) -> np.ndarray:
        expo = np.array(self.exponents, dtype=np.int64)
        out = np.exp(2j * np.pi * np.where(expo < 0, 0, expo) / self.exponent)
        out[expo < 0] = 0.0
        return out

    def value(self, a: int) -> complex:
        return complex(self.values[a % self.modulus])

    @property
    def is_principal(self) -> bool:
        return all(e <= 0 for e in self.exponents)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        expo = tuple(
            -1 if e < 0 else (self.exponent - e) % self.exponent for e in self.exponents
        )
        return DirichletCharacter(self.modulus, self.exponent, expo, self.conductor, -1)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, built from the unit-group generators.

    Character ``index`` has exponent tuple ``logs[index]``, so its exponent
    at unit ``units[j]`` is row ``index`` of E = (logs * strides) @ logs.T
    mod e.  The conductor is the smallest f | q with chi trivial on the
    units a = 1 (mod f), tested for every row of E at once.
    """
    grp = unit_group(q)
    e = grp.exponent
    strides = np.array([e // s for s in grp.orders], dtype=np.int64)
    E = (grp.logs * strides) @ grp.logs.T % e
    expo = np.full((len(E), q), -1, dtype=np.int64)
    expo[:, grp.units] = E
    conductors = np.zeros(len(E), dtype=np.int64)
    for f in divisors(q):
        trivial = (E[:, grp.units % f == 1 % f] == 0).all(axis=1)
        conductors[(conductors == 0) & trivial] = f
    return [
        DirichletCharacter(q, e, tuple(row), cond, index)
        for index, (row, cond) in enumerate(zip(expo.tolist(), conductors.tolist()))
    ]


@lru_cache(maxsize=512)
def primitive_characters(q: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in enumerate_characters(q) if chi.is_primitive)


@dataclass(frozen=True)
class GaussSumResult:
    character: DirichletCharacter
    value: complex
    modulus_sqrt_check: float


def gauss_sum(chi: DirichletCharacter) -> GaussSumResult:
    """tau(chi) = sum_a chi(a) e(a/q) with e(x) = exp(2 pi i x)."""
    q = chi.modulus
    if q == 1:
        return GaussSumResult(chi, 1.0 + 0.0j, 0.0)
    a = np.arange(q)
    value = complex(np.sum(chi.values * np.exp(2j * np.pi * a / q)))
    return GaussSumResult(chi, value, abs(abs(value) - math.sqrt(q)))


@dataclass(frozen=True)
class DeltaParams:
    """Arguments of the rearrangement factor delta(q, kq, d, psi).

    Requires gcd(k, q) = 1 and d | k (the squarefree support of b reduces
    the original d | kq condition to d | k).
    """

    q: int
    k: int
    d: int
    character: DirichletCharacter

    def __post_init__(self):
        if self.q < 1 or self.k < 1 or self.d < 1:
            raise ValueError("q, k, d must be positive")
        if math.gcd(self.k, self.q) != 1:
            raise ValueError(f"gcd(k={self.k}, q={self.q}) != 1")
        if self.k % self.d != 0:
            raise ValueError(f"d={self.d} does not divide k={self.k}")
        if self.character.modulus != self.q:
            raise ValueError("character modulus mismatch")


def delta_term(params: DeltaParams) -> complex:
    """delta = sum_{l | gcd(d,k)} mu(d/l)/phi(kq/l) *
    conj(psi)(-k/l) psi(d/l) mu(k/l)."""
    q, k, d, psi = params.q, params.k, params.d, params.character
    psi_bar = psi.conjugate()
    total = 0.0 + 0.0j
    for l in divisors(math.gcd(d, k)):
        mu_dl = mobius_int(d // l)
        if mu_dl == 0:
            continue
        mu_kl = mobius_int(k // l)
        if mu_kl == 0:
            continue
        # the sign lives inside the argument: psi_bar at (-k/l) mod q
        arg = (q - (k // l) % q) % q
        term = (
            mu_dl
            / totient(k * q // l)
            * psi_bar.value(arg)
            * psi.value(d // l)
            * mu_kl
        )
        total += term
    return total


# ---------------------------------------------------------------------------
# the two forms of the moment sum M_nu


def _a_slice_limit(spec: MollifierSpec) -> int:
    return int(spec.y * spec.T / (2 * math.pi))


def m_nu_direct(nu: int, spec: MollifierSpec, a_table: ArithFnTable) -> complex:
    """M_nu = sum_{k <= y} sum_{m <= kT/2pi} a_nu(m) (b(k)/k) e(-m/k).

    The k-terms are summed with math.fsum on real and imaginary parts.
    """
    if nu not in (1, 2):
        raise ValueError(f"nu must be 1 or 2, got {nu}")
    need = _a_slice_limit(spec)
    if a_table.limit < need:
        raise ValueError(f"a_{nu} table limit {a_table.limit} < required {need}")
    av = a_table.values
    terms = []
    for k in range(1, int(spec.y) + 1):
        bk = eval_b(k, spec)
        if bk == 0.0:
            continue
        m_max = int(k * spec.T / (2 * math.pi))
        if m_max < 1:
            continue
        roots = np.exp(-2j * np.pi * np.arange(k) / k)
        phases = roots[np.arange(1, m_max + 1) % k]
        terms.append((bk / k) * complex(np.dot(av[1 : m_max + 1], phases)))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def m_nu_rearranged(nu: int, spec: MollifierSpec, a_table: ArithFnTable) -> complex:
    """The multiplicative-character form of M_nu:

    sum_{q <= y} sum*_{psi mod q} tau(conj psi) sum_{k <= y/q} b(kq)/(kq)
        sum_{d | k} delta(q, kq, d, psi) sum_{m <= kqT/(2 pi d)} a_nu(m d) psi(m)

    Terms with gcd(k, q) > 1 or kq squarefull vanish through b(kq) = 0, so
    the d-sum legitimately runs over d | k only.
    """
    if nu not in (1, 2):
        raise ValueError(f"nu must be 1 or 2, got {nu}")
    need = _a_slice_limit(spec)
    if a_table.limit < need:
        raise ValueError(f"a_{nu} table limit {a_table.limit} < required {need}")
    av = a_table.values
    y = spec.y
    terms = []
    for q in range(1, int(y) + 1):
        prims = primitive_characters(q)
        if not prims:
            continue
        k_max = int(y / q)
        if k_max < 1:
            continue
        for psi in prims:
            tau_bar = gauss_sum(psi.conjugate()).value
            psi_vals = psi.values
            inner = 0.0 + 0.0j
            for k in range(1, k_max + 1):
                bkq = eval_b(k * q, spec)
                if bkq == 0.0:
                    continue
                for d in divisors(k):
                    delta = delta_term(DeltaParams(q, k, d, psi))
                    if delta == 0.0:
                        continue
                    m_max = int(k * q * spec.T / (2 * math.pi * d))
                    if m_max < 1:
                        continue
                    idx = np.arange(1, m_max + 1)
                    s = complex(np.dot(av[idx * d], psi_vals[idx % q]))
                    inner += (bkq / (k * q)) * delta * s
            terms.append(tau_bar * inner)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def polya_vinogradov_max(chi: DirichletCharacter, Y: int, coprime_to: int = 1) -> float:
    """max_{Y' <= Y} |sum_{h <= Y', gcd(h, coprime_to) = 1} chi(h)|."""
    if chi.is_principal:
        raise ValueError("principal character has unbounded partial sums")
    if Y < 1:
        raise ValueError(f"Y must be >= 1, got {Y}")
    h = np.arange(1, Y + 1)
    vals = chi.values[h % chi.modulus]
    if coprime_to > 1:
        vals = np.where(np.gcd(h, coprime_to) == 1, vals, 0.0)
    return float(np.abs(np.cumsum(vals)).max())


def primitive_count_formula(q: int) -> int:
    """Number of primitive characters mod q: sum_{d | q} mu(q/d) phi(d)."""
    return sum(mobius_int(q // d) * totient(d) for d in divisors(q))
