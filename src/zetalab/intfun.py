"""Small-integer arithmetic helpers (trial-division scale).

Everything here is meant for arguments up to a few times 10^6; the sieve
module owns bulk table construction.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of n >= 1 as ((p, exponent), ...), p ascending."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler's totient function."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def mobius_int(n: int) -> int:
    """Mobius function of a single integer."""
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)*; a must be a unit mod n."""
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = totient(n)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order
