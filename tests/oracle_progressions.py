"""Brute-force reference for arithlab.progressions, by enumerating unit groups.

Every quantity is read off explicit sets of residues: (Z/mZ)^x is built
as a frozenset, the minimal conductor by testing whole reduction
kernels, densities by counting units, and intersections and the
class-restriction condition inside (Z/lcm Z)^x.  Nothing here imports
arithlab, so the library's residue formulas (phi from a factorization,
counts modulo the gcd of the conductors) are checked against a route
that shares no code with them.  Cost grows with the lcm of the
conductors; use it for conductors up to a few dozen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def unit_group(m: int) -> frozenset[int]:
    """(Z/mZ)^x as residues in 0..m-1; for m = 1 this is Z/1 = {0}."""
    return frozenset(r for r in range(m) if math.gcd(r, m) == 1)


def lift(residues: frozenset[int], d: int, m: int) -> frozenset[int]:
    """Preimage of a set of residues mod d in (Z/mZ)^x, for d | m."""
    return frozenset(r for r in unit_group(m) if r % d in residues)


def subgroups(m: int) -> list[frozenset[int]]:
    """Every subgroup of (Z/mZ)^x, by closing each found one under one more element."""
    units = unit_group(m)

    def closure(gens: frozenset[int]) -> frozenset[int]:
        out = {1 % m}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % m
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    found = {frozenset({1 % m})}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for u in units - h:
            bigger = closure(h | {u})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def closed_under_products(m: int, h: frozenset[int]) -> bool:
    """Does x * y mod m lie in h for all |h|^2 pairs?"""
    return all(x * y % m in h for x in h for y in h)


def minimal_conductor(m: int, h: frozenset[int]) -> tuple[int, frozenset[int]]:
    """Least d | m, d != 2 mod 4, whose whole reduction kernel lies in h."""
    for d in range(1, m + 1):
        if m % d or d % 4 == 2:
            continue
        kernel = frozenset(r for r in unit_group(m) if r % d == 1 % d)
        if kernel <= h:
            return d, frozenset(x % d for x in h)
    return m, h


def cosets(m: int, h: frozenset[int]) -> list[frozenset[int]]:
    """The cosets of h in (Z/mZ)^x, in order of their least element."""
    out: list[frozenset[int]] = []
    for r in sorted(unit_group(m)):
        c = frozenset(r * x % m for x in h)
        if c not in out:
            out.append(c)
    return out


def degree(m: int, h: frozenset[int]) -> int:
    return len(unit_group(m)) // len(h)


def density(m: int, h: frozenset[int]) -> Fraction:
    """Share of (Z/mZ)^x taken by one coset of h."""
    return Fraction(len(h), len(unit_group(m)))


def intersection_density(
    m1: int, coset: frozenset[int], m2: int, h2: frozenset[int]
) -> Fraction:
    """Share of (Z/lcm Z)^x in the coset mod m1 and in h2 mod m2."""
    m = math.lcm(m1, m2)
    good = lift(coset, m1, m) & lift(h2, m2, m)
    return Fraction(len(good), len(unit_group(m)))


def tractable(
    m1: int, h1: frozenset[int], coset: frozenset[int], m2: int, h2: frozenset[int]
) -> bool:
    """Is the lifted class in the product of the two lifted subgroups mod lcm?"""
    m = math.lcm(m1, m2)
    lifted1, lifted2 = lift(h1, m1, m), lift(h2, m2, m)
    # The product is the union of the cosets b * lifted1, b in lifted2; a b
    # already in the product names a coset already in it.
    product = set(lifted1)
    for b in lifted2:
        if b not in product:
            product |= {a * b % m for a in lifted1}
    return min(lift(coset, m1, m)) in product
