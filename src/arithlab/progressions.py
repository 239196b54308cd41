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
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress

from .core import Record, factor, generating_set, shown

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
# takes about 0.3 s from a cold interpreter (2-core x86-64, CPython 3.11.7).
MAX_CONDUCTOR = 100_000


def _phi(m: int) -> int:
    """|(Z/mZ)^x|, with phi(1) = 1 for Z/1 = {0}."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(m).factors)


class AbelianExtensionDescriptor(Record):
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
        m = conductor
        if m > MAX_CONDUCTOR:
            raise ValueError(f"conductor {shown(m)} exceeds MAX_CONDUCTOR = {MAX_CONDUCTOR}")
        if m < 1:
            raise ValueError(f"conductor must be >= 1, got {shown(m)}")
        subset = frozenset(x % m for x in subgroup)
        if not subset or any(math.gcd(x, m) != 1 for x in subset):
            raise ValueError("subgroup elements must be coprime to the conductor")
        if 1 % m not in subset:
            raise ValueError("subgroup must contain 1")
        # Closure along a greedy generating set: O(|H| |S|) products, not |H|^2.
        if generating_set(sorted(subset), lambda x, y: x * y % m, 1 % m) is None:
            raise ValueError("subgroup is not closed under multiplication")
        m, subset = self._minimal_conductor(m, subset)
        object.__setattr__(self, "conductor", m)
        object.__setattr__(self, "subgroup", subset)

    @staticmethod
    def _minimal_conductor(m: int, h: frozenset[int]) -> tuple[int, frozenset[int]]:
        # The loop always returns: the kernel of div = m is {1}, and when
        # m = 2 mod 4 skips m, the kernel of m/2 is {1} as well.
        for div in sorted(d for d in range(1, m + 1) if m % d == 0):
            if div % 4 == 2:
                continue
            # The kernel of the reduction to Z/div lies in H.
            if all(r in h for r in range(1 % div, m, div) if math.gcd(r, m) == 1):
                return div, frozenset(x % div for x in h)

    @cached_property
    def phi(self) -> int:
        """phi(conductor), factored once per descriptor."""
        return _phi(self.conductor)

    @property
    def degree(self) -> int:
        """Field degree over Q: phi(conductor) / |subgroup|."""
        return self.phi // len(self.subgroup)

    def cosets(self) -> list[frozenset[int]]:
        """The cosets of the subgroup, ordered by least element: coset(r)
        for each unit r that no earlier coset holds."""
        m, seen, found = self.conductor, set(), []
        for r in range(m):
            if r not in seen and math.gcd(r, m) == 1:
                c = self.coset(r)
                seen |= c
                found.append(c)
        return found

    def coset(self, r: int) -> frozenset[int]:
        """The coset r * H of the unit r mod the conductor; a non-unit r
        lies in no coset and is refused with RamifiedPrimeError."""
        m = self.conductor
        if math.gcd(r, m) > 1:
            raise RamifiedPrimeError(f"{shown(r)} is not a unit mod the conductor {m}")
        return frozenset(r * h % m for h in self.subgroup)

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


class FrobeniusDatum(Record):
    """Image of an unramified prime in the coset group (Z/mZ)^x / H."""

    prime: int
    coset: frozenset[int]

    @property
    def representative(self) -> int:
        return min(self.coset)


def frobenius(ext: AbelianExtensionDescriptor, p: int) -> FrobeniusDatum:
    """Frobenius class of p: the coset of p mod conductor."""
    return FrobeniusDatum(p, ext.coset(p))


class ProgressionSpec(Record):
    """Primes whose Frobenius lies in a fixed coset, minus a finite set."""

    extension: AbelianExtensionDescriptor
    coset: frozenset[int]
    excluded: frozenset[int]

    def __init__(self, extension, coset: Iterable[int], excluded: Iterable[int] = ()):
        m = extension.conductor
        cset = frozenset(x % m for x in coset)
        if not cset:
            raise ValueError("class is empty")
        # A class of non-units is refused by coset itself.
        if cset != extension.coset(min(cset)):
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
            raise ValueError(f"residue {shown(a)} is not invertible mod {shown(m)}")
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


# primes_up_to(3 * 10**8) peaks at 0.85 GB RSS on CPython 3.11 (x86-64): a 0.15 GB
# odd-only mask and 16M ints.  10**9 would need about 2.6 GB by the same count.
MAX_SIEVE_BOUND = 3 * 10**8


@lru_cache(maxsize=1)
def _prime_mask(bound: int) -> tuple[bytearray, int]:
    """The one sieve and its one cache, odd-only, with pi(bound) (bound >= 2).

    mask[i] == 1 iff 2i + 1 <= bound is prime, so the mask has
    (bound + 1) // 2 bytes.  The prime 2 has no byte: pi(bound) counts
    it, and _odd_slice's callers add it back to its class by hand.
    """
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {shown(bound)} exceeds MAX_SIEVE_BOUND = {MAX_SIEVE_BOUND}")
    size = (bound + 1) // 2
    mask = bytearray([1]) * size
    mask[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            j = p * p // 2  # the byte of p * p; odd multiples of p are p bytes apart
            mask[j::p] = bytes((size - 1 - j) // p + 1)
    return mask, mask.count(1) + 1


def _odd_slice(r: int, m: int) -> tuple[int, int]:
    """The odd n = r (mod m) with n >= r, as mask[start::step] of the odd-only mask.

    r or m must be odd: every caller passes a unit r, odd when m is even,
    or 0 mod 1.  For odd m the n are 2m apart (m bytes), from the odd one
    of r and r + m.  For even m they are m apart (m/2 bytes), from r.
    The mask holds no byte for 2.
    """
    if r % 2 == 0:
        r += m
    return r // 2, m if m % 2 else m // 2


def _primes_in_class(r: int, m: int, bound: int) -> tuple[int, ...]:
    """The primes p <= bound with p = r (mod m), 0 <= r < m, read off the cached sieve mask."""
    if bound < 2:
        return ()
    two = (2,) if 2 % m == r else ()
    start, step = _odd_slice(r, m)
    mask, _ = _prime_mask(bound)
    odd_primes = compress(range(2 * start + 1, bound + 1, 2 * step), memoryview(mask)[start::step])
    return tuple(chain(two, odd_primes))


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, read off the cached sieve mask."""
    return _primes_in_class(0, 1, bound)


primes_up_to.cache_clear = _prime_mask.cache_clear
primes_up_to.cache_info = _prime_mask.cache_info


# Bytes of a class slice that natural_density_estimate copies at once; for
# 1(4) at 10^8, pieces of 2^12 to 2^20 bytes count as fast as one 25 MB copy.
_COUNT_CHUNK = 1 << 16


def natural_density_estimate(spec: ProgressionSpec, x_bound: int) -> float:
    """pi(x; spec) / pi(x) from an exact sieve count.

    This estimates the natural density of the progression, which for
    these sets coincides with the Dirichlet density returned by
    chebotarev_density.
    """
    if x_bound < 1000:
        raise ValueError(f"x_bound must be >= 1000, got {shown(x_bound)}")
    mask, pi = _prime_mask(x_bound)
    m, coset = spec.extension.conductor, spec.coset
    count = int(2 % m in coset)
    for r in coset:
        # Step 1 (m <= 2, so start 0) is the whole mask, whose count is
        # the cached pi less the prime 2: no copy, no count.  Any other
        # slice is counted _COUNT_CHUNK of its bytes at a time.
        start, step = _odd_slice(r, m)
        span = step * _COUNT_CHUNK
        count += pi - 1 if step == 1 else sum(
            mask[i : i + span : step].count(1) for i in range(start, len(mask), span)
        )
    # Excluded elements lower the count only as sieved primes in the coset:
    # 2, or an odd p, whose byte is p // 2.
    count -= sum(
        p == 2 or p % 2 == 1 and mask[p // 2]
        for p in spec.excluded
        if 0 < p <= x_bound and p % m in coset
    )
    return count / pi


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
