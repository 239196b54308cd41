"""Seeded inputs for each workload, with the answers expected of them.

Runs in the benchmark's parent process, which never imports arithlab.
Expected answers come from ``sympy`` and from the helpers in ``checks``;
the worker compares arithlab's outputs with them.  The same workload and
seed always give the same inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import sympy

import checks

H1_CORPUS = tuple(
    [f"norm1-C{n}" for n in range(2, 11)]
    + ["J-C2xC2", "J-S3", "J-D4", "J-C6", "J-C7"]
    + ["perm-S3/C2", "perm-S3/1", "perm-C6/1", "perm-D4/s", "perm-S4/S3"]
    + ["sign-S3", "sign-S4"]
    + ["sum-signS3+J-S3", "sum-signS3+perm-S3/C2", "sum-J-S3+perm-S3/C2", "sum-norm1-C6+Z"]
)

TWO128_PLUS_1 = 2**128 + 1
# psi(d) = gamma(d)^lam(d); gamma(2) = 48, lam(2) = 94, gamma(3) = 11232, lam(3) = 33693.
PSI2 = (48, 94)
PSI3 = (11232, 33693)
DENSITY_BOUND = 10**7
ARTIN = (5, 10**6)
# Moduli of the seeded progressions: none is 2 mod 4, so each is its own conductor.
MODULI = (5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 24)


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    return {"h1-domain": _h1_domain, "cli-cold": _cli_cold, "arith-core": _arith_core}[workload](rng)


def _h1_domain(rng: random.Random) -> dict:
    order = list(H1_CORPUS)
    rng.shuffle(order)
    return {"order": order}


def _phi(m: int) -> int:
    return sum(1 for r in range(1, m + 1) if math.gcd(r, m) == 1)


def _unit(rng: random.Random, m: int) -> int:
    return rng.choice([r for r in range(1, m) if math.gcd(r, m) == 1])


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = sympy.nextprime(rng.randrange(lo, hi))
        if p < hi:
            return p


def _rational(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _biased_sets(ell: int) -> tuple[list[int], list[int]]:
    """P and Q rebuilt with sympy: each next prime is the least one = 1 mod 4 * prod."""

    def least_prime_one_mod(m):
        p = m + 1
        while not sympy.isprime(p):
            p += m
        return p

    ps, qs = [5], []
    while len(qs) < ell:
        qs.append(least_prime_one_mod(4 * math.prod(ps)))
        if len(ps) < ell:
            ps.append(least_prime_one_mod(4 * math.prod(qs)))
    return ps, qs


def _witness(target: list[tuple[int, int, int]]) -> tuple[int, int]:
    """Least prime p = 1 mod 4 with eps * p inside every condition, by search."""
    a2 = next(a for p, _, a in target if p == 2)
    eps = 1 if a2 % 4 == 1 else -1
    p = 5
    while True:
        if p % 4 == 1 and all((eps * p - a) % q**al == 0 for q, al, a in target):
            if sympy.isprime(p):
                return eps, p
        p += 4


def _cli_cold(rng: random.Random) -> dict:
    inv = []

    def add(argv, kind, **expect):
        inv.append({"argv": [str(x) for x in argv], "kind": kind, "expect": expect})

    d = rng.choice((1, 2))
    add(["constants", "gamma", d], "int", value=checks.gl_order_mod3(d))
    d = rng.choice((1, 2, 3))
    gamma = math.prod(3**d - 3**i for i in range(d))
    add(["constants", "lambda", d], "int", value=d * (gamma - 1))
    base, exp = PSI3
    add(["constants", "psi", 3], "power", base=base, exponent=exp,
        digits=checks.decimal_digits(base**exp))
    # gamma(1) = 2 and lam(1) = 1, so ctilde(1, n) = ctilde_improved(1, n) = 2n.
    n = rng.randint(1, 99)
    add(["constants", "ctilde", 1, n], "int", value=2 * n)
    n = rng.randint(1, 99)
    add(["constants", "ctilde-improved", 1, n], "int", value=2 * n)
    n, r = rng.randint(1, 99), rng.randint(0, 6)
    add(["constants", "creductive", 1, n, r], "int", value=2**r * 2 * n)

    p = _prime_in(rng, 3, 10**6)
    a = rng.randint(1, 10**6)
    add(["symbol", "legendre", a, p], "int", value=checks.legendre_euler(a, p))
    factors = sorted({_prime_in(rng, 3, 1000) for _ in range(3)})
    n = math.prod(factors)
    a = rng.randint(1, n)
    add(["symbol", "jacobi", a, n], "int",
        value=checks.jacobi_by_factors(a, [(q, 1) for q in factors]))
    a, b = _rational(rng, 60), _rational(rng, 60)
    place = rng.choice(checks.hilbert_places(a, b) + [3])
    add(["symbol", "hilbert", "--", str(a), str(b), "inf" if place is None else place], "int",
        value=checks.hilbert_local(a, b, place))

    m = rng.choice(MODULI)
    add(["density", "exact", f"{_unit(rng, m)}({m})"], "fraction",
        value=[1, _phi(m)])
    flags = checks.sieve(10**6)
    m = rng.choice(MODULI)
    a = _unit(rng, m)
    add(["density", "estimate", f"{a}({m})"], "estimate",
        count=checks.count_in_class(flags, a, m), total=flags.count(1), phi=_phi(m))
    m, n = rng.choice(MODULI), rng.choice((3, 4, 5, 7, 8, 12))
    a = _unit(rng, m)
    add(["density", "intersection", f"{a}({m})", n], "fraction",
        value=_intersection(a, m, n))
    m, n = rng.choice(MODULI), rng.choice((3, 4, 5, 7, 8, 12))
    a = _unit(rng, m)
    good, units = _intersection(a, m, n)
    add(["tractable", f"{a}({m})", n], "tractable", tractable=good > 0, density=[good, units])

    add(["h1", "@LATTICE@"], "h1", divisors=[2, 2])
    ps, qs = _biased_sets(3)
    add(["example", "2.1", "--ell", 3], "biased", P=ps, Q=qs)
    target = [(2, rng.choice((2, 3)), 0), (rng.choice((3, 7, 11)), rng.choice((1, 2)), 0)]
    target = [(p, al, _unit(rng, p**al)) for p, al, _ in target]
    eps, prime = _witness(target)
    add(["example", "2.3", "--target", ",".join(f"{p}^{al}={a}" for p, al, a in target)],
        "witness", epsilon=eps, prime=prime)
    q, bound = rng.choice((5, 13, 17)), rng.randint(20000, 40000)
    checked = [p for p in range(q + 1, bound + 1, q) if flags[p]]
    add(["example", "2.4", "--q", q, "--bound", bound], "artin",
        count=len(checked), first=checked[:3])
    add(["example", "2.5", "--height", rng.randint(4, 8)], "units",
        units=["-1+0i", "0-1i", "0+1i", "1+0i"])
    n, ell = rng.choice((3, 5, 7)), rng.choice((2, 3))
    primes = sorted(rng.sample([p for p in range(1, 3000, 4 * n) if flags[p]], ell))
    add(["section7", n, ell, *primes], "section7", n=n, ell=ell)
    # p > n keeps local-index in its tame case.
    p = rng.choice([p for p in range(37, 5000, 4) if flags[p]])
    n = rng.randint(2, 30)
    add(["local-index", p, n], "index",
        value=(p - 1) // len({pow(x, n, p) for x in range(1, p)}))
    # Known fault: the certification factors n, which refuses n > 2^64.
    add(["symbol", "jacobi", 2, TWO128_PLUS_1], "int", value=checks.jacobi_of_two(TWO128_PLUS_1))

    relabel = list(range(4))
    rng.shuffle(relabel)
    return {"invocations": inv, "relabel": relabel}


def _intersection(a: int, m: int, n: int) -> list[int]:
    """[#units r mod lcm with r = a (m) and r = 1 (n), #units mod lcm]."""
    big = math.lcm(m, n)
    units = [r for r in range(1, big) if math.gcd(r, big) == 1]
    good = sum(1 for r in units if r % m == a % m and r % n == 1 % n)
    return [good, len(units)]


_ODD_PRIMORIAL = math.prod(range(3, 2000, 2))


def _random_prime_bits(rng: random.Random, bits: int) -> int:
    """A seeded prime of the given size: a gcd sieve, a Fermat test, then sympy's test."""
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if math.gcd(n, _ODD_PRIMORIAL) == 1 and pow(2, n - 1, n) == 1 and sympy.isprime(n):
            return n


def _arith_core(rng: random.Random) -> dict:
    out = {}
    nums = [rng.getrandbits(64) | (1 << 63) | 1 for _ in range(1200)]
    nums += [_prime_in(rng, 2**63, 2**64 - 60) for _ in range(300)]
    rng.shuffle(nums)
    out["prime64"] = {"n": nums, "expect": [bool(sympy.isprime(x)) for x in nums]}
    big = [rng.getrandbits(b) | (1 << (b - 1)) | 1 for b in (rng.randint(1024, 2048) for _ in range(16))]
    big += [_random_prime_bits(rng, rng.randint(1024, 1280)) for _ in range(4)]
    rng.shuffle(big)
    out["primekbit"] = {"n": big, "expect": [bool(sympy.isprime(x)) for x in big]}
    pairs = []
    while len(pairs) < 12:
        p, q = sorted((_prime_in(rng, 2**30, 2**31), _prime_in(rng, 2**30, 2**31)))
        if p != q:
            pairs.append([p, q])
    out["semiprimes"] = pairs
    ps, qs = _biased_sets(6)
    out["biased"] = {"ell": 6, "P": ps, "Q": qs}
    base, exp = PSI3
    out["psi3"] = {"base": base, "exponent": exp, "digits": checks.decimal_digits(base**exp)}
    base, exp = PSI2
    out["psi2"] = {"base": base, "exponent": exp, "digits": checks.decimal_digits(base**exp)}
    flags = checks.sieve(DENSITY_BOUND)
    total = flags.count(1)
    specs = []
    for m in rng.sample(MODULI, 4):
        a = _unit(rng, m)
        specs.append({"a": a, "m": m, "count": checks.count_in_class(flags, a, m),
                      "total": total, "phi": _phi(m)})
    out["estimates"] = specs
    out["sieve"] = {"bound": DENSITY_BOUND, "count": total,
                    "last": max(i for i in range(DENSITY_BOUND - 100, DENSITY_BOUND + 1) if flags[i])}
    q, bound = ARTIN
    checked = [p for p in range(q + 1, bound + 1, q) if flags[p]]
    out["artin"] = {"q": q, "bound": bound, "count": len(checked), "first": checked[:3]}
    out["hilbert"] = [[str(_rational(rng, 10**4)), str(_rational(rng, 10**4))] for _ in range(160)]
    out["snf12"] = [[[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)] for _ in range(12)]
    out["snf16"] = [[[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)] for _ in range(6)]
    return out
