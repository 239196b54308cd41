"""Arithmetic progressions attached to abelian extensions of Q.

An abelian extension is encoded by a conductor m and a subgroup H of
(Z/mZ)^x: the field is the fixed field of H acting on the m-th roots of
unity.  Frobenius data, splitting sets, exact densities of progressions,
and sieve-based density estimates all reduce to residue arithmetic;
phi(m) comes from factoring m, and two fields meet modulo the gcd of
their conductors, so no unit group is ever built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable

from .core import factor

__all__ = [
    "AbelianExtensionDescriptor",
    "FrobeniusDatum",
    "ProgressionSpec",
    "frobenius",
    "in_progression",
    "splits_completely",
    "chebotarev_density",
    "natural_density_estimate",
    "intersection_density",
    "tractable_condition",
    "primes_up_to",
    "RamifiedPrimeError",
]


class RamifiedPrimeError(ValueError):
    """Raised when a Frobenius class is requested at a ramified prime."""


# Normalization and cosets() walk Z/m, and `density exact` builds every coset.
# For the prime 99991, whose 99990 cosets are single residues, that command
# takes 1.0 s; 1(10^6) took 6 s.
MAX_CONDUCTOR = 100_000


def _phi(m: int) -> int:
    """|(Z/mZ)^x|, with phi(1) = 1 for Z/1 = {0}."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(m).factors)


@dataclass(frozen=True)
class AbelianExtensionDescriptor:
    """Fixed field of a residue subgroup inside a cyclotomic field.

    Normalization at construction reduces the encoding to the minimal
    conductor: the smallest m' | m whose reduction kernel lies in the
    subgroup.  After that, a prime ramifies in the field exactly when it
    divides the conductor (this also subsumes replacing m = 2 mod 4 by
    m/2).  Conductor 1 is the rationals, with Z/1 = {0} as its residues,
    so the general residue formulas below cover it.
    """

    conductor: int
    subgroup: frozenset[int]

    def __init__(self, conductor: int, subgroup: Iterable[int]):
        if conductor > MAX_CONDUCTOR:
            raise ValueError(f"conductor {conductor} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}")
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        m = conductor
        subset = frozenset(x % m for x in subgroup)
        if not subset or any(math.gcd(x, m) != 1 for x in subset):
            raise ValueError("subgroup elements must be coprime to the conductor")
        if 1 % m not in subset:
            raise ValueError("subgroup must contain 1")
        self._check_closed(m, subset)
        m, subset = self._minimal_conductor(m, subset)
        object.__setattr__(self, "conductor", m)
        object.__setattr__(self, "subgroup", subset)

    @staticmethod
    def _check_closed(m: int, h: frozenset[int]) -> None:
        """Check x h in H for all h and each x of a generating set S of H.

        S is grown greedily in sorted order: x is skipped when the span of
        the elements checked so far holds it, and otherwise the span grows
        to <span, x>, the union of the cosets span * x^k.  This costs
        |H| |S| products instead of |H|^2, and it suffices: K = {x : xH in H}
        holds S and is closed under products (xyH in xH in H), so the span
        of S, which is all of H, lies in K.
        """
        span = {1 % m}
        for x in sorted(h):
            if x in span:
                continue
            if any(x * y % m not in h for y in h):
                raise ValueError("subgroup is not closed under multiplication")
            grown, power = set(span), x
            while power not in span:
                grown |= {s * power % m for s in span}
                power = power * x % m
            span = grown

    @staticmethod
    def _minimal_conductor(m: int, h: frozenset[int]) -> tuple[int, frozenset[int]]:
        for div in sorted(d for d in range(1, m + 1) if m % d == 0):
            if div % 4 == 2:
                continue
            # The kernel of the reduction to Z/div lies in H.
            if all(r in h for r in range(1 % div, m, div) if math.gcd(r, m) == 1):
                return div, frozenset(x % div for x in h)
        return m, h

    @cached_property
    def phi(self) -> int:
        """phi(conductor), factored once per descriptor: `density exact`
        reads it for each of up to phi(m) cosets."""
        return _phi(self.conductor)

    @property
    def degree(self) -> int:
        """Field degree over Q: phi(conductor) / |subgroup|."""
        return self.phi // len(self.subgroup)

    def cosets(self) -> list[frozenset[int]]:
        """The cosets of the subgroup, ordered by least element."""
        m = self.conductor
        covered: set[int] = set()
        out = []
        for r in range(m):
            if r not in covered and math.gcd(r, m) == 1:
                c = frozenset(r * h % m for h in self.subgroup)
                covered |= c
                out.append(c)
        return out

    @classmethod
    def rationals(cls) -> "AbelianExtensionDescriptor":
        return cls(1, [0])

    @classmethod
    def cyclotomic(cls, m: int) -> "AbelianExtensionDescriptor":
        return cls(m, [1])

    @classmethod
    def gaussian(cls) -> "AbelianExtensionDescriptor":
        """Conductor-4 quadratic field generated by a square root of -1."""
        return cls(4, [1])


@dataclass(frozen=True)
class FrobeniusDatum:
    """Image of an unramified prime in the coset group (Z/mZ)^x / H."""

    prime: int
    coset: frozenset[int]

    @property
    def representative(self) -> int:
        return min(self.coset)


def frobenius(ext: AbelianExtensionDescriptor, p: int) -> FrobeniusDatum:
    """Frobenius class of p: the coset of p mod conductor."""
    m = ext.conductor
    if math.gcd(p, m) > 1:
        raise RamifiedPrimeError(f"{p} divides the conductor {m}")
    r = p % m
    return FrobeniusDatum(p, frozenset(r * h % m for h in ext.subgroup))


@dataclass(frozen=True)
class ProgressionSpec:
    """Primes whose Frobenius lies in a fixed coset, minus a finite set."""

    extension: AbelianExtensionDescriptor
    coset: frozenset[int]
    excluded: frozenset[int] = field(default_factory=frozenset)

    def __init__(self, extension, coset: Iterable[int], excluded: Iterable[int] = ()):
        m = extension.conductor
        cset = frozenset(x % m for x in coset)
        rep = min(cset)
        if cset != frozenset(rep * h % m for h in extension.subgroup):
            raise ValueError("class is not a coset of the subgroup")
        object.__setattr__(self, "extension", extension)
        object.__setattr__(self, "coset", cset)
        object.__setattr__(self, "excluded", frozenset(excluded))

    @classmethod
    def residue_class(cls, a: int, m: int, excluded: Iterable[int] = ()) -> "ProgressionSpec":
        """The progression of primes p = a (mod m).

        For m = 2 mod 4 the encoding collapses to conductor m/2, so the
        set is the Frobenius-defined one, which may additionally contain
        the prime 2; pass it in excluded to recover the literal residue
        class.
        """
        if math.gcd(a, m) != 1:
            raise ValueError(f"residue {a} is not invertible mod {m}")
        ext = AbelianExtensionDescriptor.cyclotomic(m)
        a %= ext.conductor
        return cls(ext, [a], excluded)


def in_progression(spec: ProgressionSpec, p: int) -> bool:
    """Does the prime p belong to the progression?"""
    # Cosets partition the units, so p % m lies in p's own coset and, for a
    # ramified p, in none.
    return p not in spec.excluded and p % spec.extension.conductor in spec.coset


def splits_completely(ext: AbelianExtensionDescriptor, p: int) -> bool:
    """True when p is unramified with trivial Frobenius class."""
    return p % ext.conductor in ext.subgroup


def chebotarev_density(spec: ProgressionSpec) -> Fraction:
    """Exact Dirichlet density of the progression: |H| / phi(m).

    A finite excluded set has density zero and does not change the
    value.
    """
    return Fraction(len(spec.extension.subgroup), spec.extension.phi)


# primes_up_to(3 * 10**8) peaks at 1.1 GB RSS on CPython 3.11 (x86-64): a 0.3 GB
# mask and 16M ints.  10**9 would need about 3.8 GB.
MAX_SIEVE_BOUND = 3 * 10**8


@lru_cache(maxsize=1)
def _prime_mask(bound: int) -> bytearray:
    """The one sieve and its one cache: mask[n] == 1 iff n <= bound is prime (bound >= 2)."""
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {bound} exceeds MAX_SIEVE_BOUND = {MAX_SIEVE_BOUND}")
    mask = bytearray([0, 1]) * (bound // 2 + 1)
    del mask[bound + 1 :]
    mask[1:3] = b"\x00\x01"
    for p in range(3, math.isqrt(bound) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = bytes((bound - p * p) // (2 * p) + 1)
    return mask


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, read off the cached sieve mask."""
    if bound < 2:
        return ()
    return (2,) + tuple(compress(range(3, bound + 1, 2), _prime_mask(bound)[3::2]))


primes_up_to.cache_clear = _prime_mask.cache_clear
primes_up_to.cache_info = _prime_mask.cache_info


def natural_density_estimate(spec: ProgressionSpec, x_bound: int) -> float:
    """pi(x; spec) / pi(x) from an exact sieve count.

    This estimates the natural density of the progression, which for
    these sets coincides with the Dirichlet density returned by
    chebotarev_density.
    """
    if x_bound < 1000:
        raise ValueError(f"x_bound must be >= 1000, got {x_bound}")
    mask = _prime_mask(x_bound)
    m = spec.extension.conductor
    count = sum(mask[r::m].count(1) for r in spec.coset)
    # Excluded elements lower the count only as sieved primes in the coset.
    count -= sum(mask[p] for p in spec.excluded if 0 <= p <= x_bound and p % m in spec.coset)
    return count / mask.count(1)


def intersection_density(
    spec: ProgressionSpec, ext2: AbelianExtensionDescriptor
) -> Fraction:
    """Exact density of {p in spec : p splits completely in ext2}.

    It is the share of units mod lcm(m1, m2) meeting both residue
    conditions.  By the CRT, with g = gcd(m1, m2), those units are the
    pairs (c, h) in coset x H2 with c = h (mod g), out of phi(lcm) =
    phi(m1) phi(m2) / phi(g).
    """
    m1, m2 = spec.extension.conductor, ext2.conductor
    g = math.gcd(m1, m2)
    classes = Counter(h % g for h in ext2.subgroup)
    pairs = sum(classes[c % g] for c in spec.coset)
    return Fraction(pairs * _phi(g), spec.extension.phi * ext2.phi)


def tractable_condition(
    spec: ProgressionSpec, target_ext: AbelianExtensionDescriptor
) -> bool:
    """Does the progression's class fix the intersection with the target field?

    The class maps to an automorphism of (target field) intersect
    (progression field); the condition holds when that restriction is
    the identity: the class lies in H1'H2', the product of the preimages
    of the subgroups mod lcm(m1, m2).  H1'H2' contains the kernel of the
    reduction to g = gcd(m1, m2): by the CRT, x = 1 (mod g) has a unit a
    with a = 1 (mod m1) and a = x (mod m2), and x = a * (x/a) with a in
    H1' and x/a = 1 (mod m2) in H2'.  So the test can be made mod g: c
    lies in H1 H2 there when c * h lies in H1 for some h in the group H2.
    """
    g = math.gcd(spec.extension.conductor, target_ext.conductor)
    h1 = {h % g for h in spec.extension.subgroup}
    c = min(spec.coset)
    return any(c * h % g in h1 for h in target_ext.subgroup)
