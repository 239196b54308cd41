"""Reference for the example 2.5 predicate, by trial division of the norm.

y = u + v i survives when no prime p = 1 (mod 4) dividing the odd part of
its norm also divides reduced = norm / gcd(u, v)^2.  This is the route the
library took before it used the two-squares lemma: every odd prime of the
norm is found by trial division and tested on its own.  Nothing here
imports arithlab.  Cost grows with the square root of the norm.
"""

from __future__ import annotations

import math


def odd_prime_factors(n: int) -> list[int]:
    out = []
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def split_valuations_agree(u: int, v: int) -> bool:
    """Do the two valuations of u + v i agree at every split prime?"""
    norm = u * u + v * v
    odd_part = norm
    while odd_part % 2 == 0:
        odd_part //= 2
    reduced = norm // math.gcd(u, v) ** 2
    return not any(p % 4 == 1 and reduced % p == 0 for p in odd_prime_factors(odd_part))
