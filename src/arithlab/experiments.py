"""Executable experiments: biased prime pairs, density witnesses in open
congruence sets, local-square evidence along split primes, constrained
norm-one units of the Gaussian integers, and products of local power
indices with their divergent lower bounds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import Record, crt_solve, is_prime, next_prime_in_progression, shown
from .progressions import _primes_in_class
from .symbols import Place, _is_square_at, hilbert_symbol, jacobi

__all__ = [
    "BiasedPrimePair",
    "CongruenceTarget",
    "GaussianInteger",
    "ArtinKernelReport",
    "PowerIndexReport",
    "build_biased_prime_sets",
    "density_witness",
    "artin_kernel_evidence",
    "norm_one_constrained_units",
    "local_power_index",
    "section7_index_bound",
]

MAX_BIASED_ELL = 7
# norm_one_constrained_units tests each of the (2H + 1)^2 points with one gcd
# and no factoring: about 0.12 s at H = 300 on one x86-64 core (CPython 3.11).
# The budget stays 300 because the pinned CLI sweep (tests/cli_sweep_sha256.json)
# expects --height 301 to be refused; a larger budget would change that output.
MAX_UNIT_HEIGHT = 300
# density_witness walks one class modulo lcm(4, prod p^alpha) with is_prime on
# numbers of that size.  Over the targets 2^k = a for the 20 odd a below 40 on
# one x86-64 core: at k = 1000 the median took 0.13 s and the slowest 0.96 s;
# at k = 1200, 0.31 s and 2.5 s; 2^3000 = 1 took 15 s.
MAX_TARGET_MODULUS = 2**1024


class BiasedPrimePair(Record):
    """Disjoint prime lists P, Q inside 1 mod 4 with (p/q) = 1 throughout."""

    p_list: tuple[int, ...]
    q_list: tuple[int, ...]

    def __post_init__(self):
        if set(self.p_list) & set(self.q_list):
            raise ValueError("prime lists must be disjoint")
        for x in self.p_list + self.q_list:
            if x % 4 != 1 or not is_prime(x):
                raise ValueError(f"{shown(x)} is not a prime congruent to 1 mod 4")
        # Every q is now a checked prime, so jacobi is the Legendre symbol.
        for p in self.p_list:
            for q in self.q_list:
                if jacobi(p, q) != 1:
                    raise ValueError(f"symbol ({shown(p)}/{shown(q)}) is not 1")


def build_biased_prime_sets(ell: int) -> BiasedPrimePair:
    """Grow P and Q inductively so every cross Legendre symbol is 1.

    Start with p_1 = 5 and q_1 the smallest prime that is 1 mod 4 and
    1 mod p_1; then alternately take p_(l+1) as the smallest prime that
    is 1 mod 4 and 1 mod q_1...q_l, and q_(l+1) likewise with the p's
    swapped in.  Quadratic reciprocity then forces all cross symbols to
    1, which the returned value re-certifies by direct evaluation.

    The primes grow about 2.6-fold in bit length per step (up to 1978
    bits at ell = 7, which takes seconds), so ell above MAX_BIASED_ELL
    is refused before any search starts.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {shown(ell)}")
    if ell > MAX_BIASED_ELL:
        raise ValueError(
            f"ell must be <= {MAX_BIASED_ELL}, got {shown(ell)}: the search would run for minutes"
        )
    p_list = [5]
    q_list: list[int] = []
    while len(q_list) < ell:
        prod_p = math.prod(p_list)
        q_list.append(next_prime_in_progression(1, 4 * prod_p, 1))
        if len(p_list) < ell:
            prod_q = math.prod(q_list)
            p_list.append(next_prime_in_progression(1, 4 * prod_q, 1))
    return BiasedPrimePair(tuple(p_list), tuple(q_list))


class CongruenceTarget(Record):
    """A basic open congruence set: unit conditions a_i mod p_i^alpha_i.

    The conditions describe the set prod (a_i + p_i^alpha_i Z_p_i) times
    units everywhere else.  The dyadic condition must be present; the
    other primes must avoid the residue class 1 mod 4.  The CRT modulus
    lcm(4, prod p_i^alpha_i) may not exceed MAX_TARGET_MODULUS, checked
    before any primality test: sum alpha_i (bits(p_i) - 1) is a lower
    bound on its log2 and refuses large inputs without a power, and
    below that bound the product has at most twice as many bits.
    """

    conditions: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        primes = [p for p, _, _ in self.conditions]
        if len(set(primes)) != len(primes):
            raise ValueError("condition primes must be distinct")
        if 2 not in primes:
            raise ValueError("a condition at 2 is required")
        sized = [(p, alpha) for p, alpha, _ in self.conditions if p > 1 and alpha > 0]
        cap_bits = MAX_TARGET_MODULUS.bit_length() - 1
        if (
            sum(alpha * (p.bit_length() - 1) for p, alpha in sized) > cap_bits
            or math.lcm(4, *(p**alpha for p, alpha in sized)) > MAX_TARGET_MODULUS
        ):
            raise ValueError(
                f"the CRT modulus exceeds MAX_TARGET_MODULUS = 2**{cap_bits}: "
                "the witness search would run for minutes"
            )
        for p, alpha, a in self.conditions:
            if not is_prime(p):
                raise ValueError(f"{shown(p)} is not prime")
            if p % 4 == 1:
                raise ValueError(f"condition prime {shown(p)} lies in 1 mod 4")
            if alpha < 1:
                raise ValueError("exponents must be >= 1")
            if math.gcd(a, p) != 1:
                raise ValueError(f"residue {shown(a)} is not a unit at {shown(p)}")

    def dyadic(self) -> tuple[int, int]:
        """(alpha, a) of the condition at 2, which __post_init__ requires."""
        return next((alpha, a) for p, alpha, a in self.conditions if p == 2)

    def contains(self, sign: int, prime: int) -> bool:
        """Does sign * prime satisfy every condition (and stay a unit
        outside them)?"""
        value = sign * prime
        for p, alpha, a in self.conditions:
            if (value - a) % p**alpha != 0:
                return False
        return prime % 4 == 1


def density_witness(target: CongruenceTarget) -> tuple[int, int]:
    """A signed prime (eps, p) with eps * p inside the target open set.

    The sign is fixed so that eps * a_2 = 1 (mod 4), the combined
    congruence is solved by the Chinese Remainder Theorem, and p is the
    smallest prime in the resulting residue class; then eps * p meets
    every local condition, with p itself in 1 mod 4.
    """
    alpha2, a2 = target.dyadic()
    eps = 1 if a2 % 4 == 1 else -1
    congruences = [(eps * a, p**alpha) for p, alpha, a in target.conditions]
    congruences.append((1, 4))
    c, modulus = crt_solve(congruences)
    p = next_prime_in_progression(c, modulus, 1)
    if not target.contains(eps, p):
        raise AssertionError(f"witness {eps} * {p} fails its own congruences")
    return eps, p


class ArtinKernelReport(Record):
    """Local-square evidence at every split place up to a bound.

    sampled_symbols holds the 12 Hilbert symbols (x, q)_p at the first
    three split primes.  The CLI's example 2.4 certification forms its
    own from the printed primes, so nothing in the package reads them;
    they stay because bench/tasks.check_artin checks them against an
    independent oracle.  They cost about half of a small call: 45 of the
    81 us of artin_kernel_evidence(5, 1000), in process on a 2-core
    x86-64 host.
    """

    q: int
    sample_bound: int
    checked_primes: tuple[int, ...]
    failures: tuple[int, ...]
    sampled_symbols: tuple[tuple[str, int], ...]


def artin_kernel_evidence(q: int, sample_bound: int) -> ArtinKernelReport:
    """Verify that q is a local square along the primes splitting in the
    degree-q cyclotomic direction.

    For q = 1 (mod 4) prime, checks q > 0 (square at the archimedean
    place) and, for every prime p <= sample_bound with p = 1 (mod q),
    that q is a square in the p-adic field -- so every Hilbert symbol
    (x, q)_p collapses to 1, a few of which are sampled directly.
    """
    if q % 4 != 1 or not is_prime(q):
        raise ValueError(f"q must be a prime congruent to 1 mod 4, got {shown(q)}")
    checked = _primes_in_class(1, q, sample_bound)
    failures = [p for p in checked if not _is_square_at(q, p)]
    sampled = []
    for p in checked[:3]:
        for x in (Fraction(2), Fraction(-3, 7), Fraction(p), Fraction(1, 2)):
            sampled.append((f"({x}, {q})_{p}", hilbert_symbol(x, q, Place.finite(p))))
    return ArtinKernelReport(q, sample_bound, checked, tuple(failures), tuple(sampled))


class GaussianInteger(Record):
    """Exact element a + b i of the Gaussian integers."""

    a: int
    b: int

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.a, -self.b)

    def __mul__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.a, -self.b)

    def __str__(self):
        return f"{self.a}{self.b:+d}i"


GAUSSIAN_UNITS = (
    GaussianInteger(1, 0),
    GaussianInteger(-1, 0),
    GaussianInteger(0, 1),
    GaussianInteger(0, -1),
)


def _split_valuations_agree(u: int, v: int) -> bool:
    """Is norm / gcd(u, v)^2 = u'^2 + v'^2, with gcd(u', v') = 1, a power of 2?"""
    reduced = (u * u + v * v) // math.gcd(u, v) ** 2
    return reduced & (reduced - 1) == 0


def norm_one_constrained_units(height_bound: int) -> list[GaussianInteger]:
    """Constrained norm-one elements conj(y)/y that stay integral at the
    split primes.

    Sweeps y = u + v i with |u|, |v| <= height_bound and keeps
    x = conj(y)/y only when, at every prime p = 1 (mod 4) dividing the
    norm of y, the two valuations of y above p agree -- equivalently
    v_p(norm) = 2 v_p(gcd(u, v)), that is, p does not divide the integer
    norm / gcd(u, v)^2.  Everywhere else x is automatically a unit, so
    survivors are honest units of the Gaussian integers; the
    finiteness claim being tested is that exactly the four units appear.

    No norm is factored.  reduced = norm / gcd(u, v)^2 = u'^2 + v'^2 with
    gcd(u', v') = 1, so -1 is a square modulo every odd prime p dividing
    reduced, and p = 1 (mod 4).  Some p = 1 (mod 4) divides reduced (and
    with it the odd part of the norm) exactly when reduced is not a power
    of two.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if height_bound > MAX_UNIT_HEIGHT:
        raise ValueError(f"height bound must be <= {MAX_UNIT_HEIGHT}, got {shown(height_bound)}")
    survivors: set[GaussianInteger] = set()
    for u in range(-height_bound, height_bound + 1):
        for v in range(-height_bound, height_bound + 1):
            if u == 0 and v == 0:
                continue
            if _split_valuations_agree(u, v):
                # x = conj(y)/y = ((u^2 - v^2) - 2uv i) / (u^2 + v^2)
                norm = u * u + v * v
                re = Fraction(u * u - v * v, norm)
                im = Fraction(-2 * u * v, norm)
                if re.denominator != 1 or im.denominator != 1:
                    raise AssertionError(
                        f"survivor {u}+{v}i produced a non-integral quotient"
                    )
                survivors.add(GaussianInteger(int(re), int(im)))
    return sorted(survivors, key=lambda z: (z.a, z.b))


def local_power_index(p: int, n: int) -> int:
    """Index of the n-th powers in the unit group modulo p.

    Requires the tame split case: p = 1 (mod 4) and p not dividing n.
    The unit group mod p is cyclic of order p - 1, so the index is
    gcd(n, p - 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{shown(p)} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p must be 1 mod 4, got {shown(p)}")
    if n % p == 0:
        raise ValueError(f"wild case p | n rejected (p = {shown(p)}, n = {shown(n)})")
    return math.gcd(n, p - 1)


class PowerIndexReport(Record):
    """Product of local power indices and the resulting index lower bound."""

    n: int
    ell: int
    primes: tuple[int, ...]
    local_indices: tuple[int, ...]
    product: int
    lower_bound: Fraction
    partial_bounds: tuple[Fraction, ...]


def section7_index_bound(n: int, ell: int, primes: Sequence[int]) -> PowerIndexReport:
    """Exact index product n^ell and the lower bound n^ell / 4.

    The primes must be distinct and lie in 1 mod 4n, so each local index
    equals n; the report records the per-prime indices, their product,
    the bound, and the bound at each length 1..ell.  Each index is
    gcd(n, p - 1), as in local_power_index, whose checks the validation
    here already covers: each prime is proved once.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {shown(n)}")
    primes = tuple(primes)
    if len(primes) != ell:
        raise ValueError(f"expected {shown(ell)} primes, got {len(primes)}")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"list element {shown(p)} is not prime")
        if p % (4 * n) != 1:
            raise ValueError(f"list element {shown(p)} is not 1 mod {shown(4 * n)}")
    local = tuple(math.gcd(n, p - 1) for p in primes)
    product = math.prod(local)
    partials = tuple(Fraction(n**j, 4) for j in range(1, ell + 1))
    return PowerIndexReport(
        n=n,
        ell=ell,
        primes=primes,
        local_indices=local,
        product=product,
        lower_bound=Fraction(product, 4),
        partial_bounds=partials,
    )
