"""Exact integer arithmetic: primality, factorization, CRT, prime search,
and Smith normal form over the integers; and DigitCapExceeded, the refusal
of the constant ladder.

Everything here is exact -- Python ints throughout, no floating point.

smith_normal_form, integer_kernel and cohomology.h1 share one elimination
kernel with one path.  The transforms ride along as identity blocks
appended to the matrix: I_rows to its right becomes the left transform,
I_cols below it the right one.  integer_kernel appends only I_cols, so it
builds only the column transform, and cohomology.h1 hands the kernel the
row lists it builds itself with nothing appended.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Hashable, Iterable, Sequence
from functools import cache

__all__ = [
    "Record",
    "IntegerMatrix",
    "SnfResult",
    "Factorization",
    "is_prime",
    "jacobi",
    "factor",
    "valuation",
    "generating_set",
    "cosets",
    "crt_solve",
    "next_prime_in_progression",
    "smith_normal_form",
    "integer_kernel",
    "determinant",
    "DigitCapExceeded",
]

FACTOR_LIMIT = 2**64  # factor's range is 1 <= n <= FACTOR_LIMIT
PRIME_LIMIT = 2**4096  # is_prime decides every n < PRIME_LIMIT

# Deterministic Miller-Rabin witness sets: (bound, bases) is exact for
# every odd n < bound.  The smallest strong pseudoprimes to bases 2, 3 and
# to 2, 3, 5, 7 are 1,373,653 and 3,215,031,751.  From there is_prime runs
# Baillie-PSW, which has no pseudoprime below 2^64 (Gilchrist, 2009, by
# Feitsma's list of the base-2 strong pseudoprimes below 2^64): below
# 3,215,031,751 these tiers are faster, two or four powers against a
# power and a Lucas ladder.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Record:
    """Base of arithlab's immutable value classes, in place of a frozen dataclass.

    A subclass names its fields as class annotations, in order, each with
    an optional class-level default; under `from __future__ import
    annotations` they are strings and none is evaluated.  The subclass
    gets what @dataclass(frozen=True) would give it: __init__ (positional
    or keyword arguments, then __post_init__ if the class has one; a
    class that writes its own __init__ keeps it and sets its fields with
    object.__setattr__), __eq__ (same class, equal field tuples),
    __hash__ (of the field tuple) and __match_args__.  __repr__ and the
    refusal to assign or delete are shared.  Instances keep a __dict__,
    so pickle and copy work as for any object.

    dataclasses is not used because importing it pulls in inspect, ast,
    dis and tokenize, about 11-14 ms of every cold CLI command.  The
    three methods are generated per class, with one exec, as dataclasses
    itself does, rather than written once as loops over the field names:
    that generic version made IntegerMatrix construction 50-80 % slower,
    hash 2x slower and artin_kernel_evidence(5, 10**6) 20-40 % slower,
    while the generated code runs level with dataclasses.

    The methods are generated on first use, not when the class is
    created: until then each is a stub that generates all three with
    one exec, puts them on the class and calls its own.  Compiling them
    costs 130-200 us per class, and a command uses few of the 20
    classes (the benchmark's h1 corpus is built with 2 of the 7 that
    core and cohomology define), so importing pays for none.  After
    first use the class holds the generated methods themselves, so
    their signatures, hash values and per-call speed do not depend on
    when they were generated.  Threads that race to first use each
    generate the same methods, and whichever is stored last is kept.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ += tuple(cls.__dict__.get("__annotations__", ()))
        own_init = "__init__" in cls.__dict__
        for name in ("__eq__", "__hash__") if own_init else ("__eq__", "__hash__", "__init__"):
            setattr(cls, name, _generated_on_first_use(cls, name, own_init))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _generated_on_first_use(cls: type, name: str, own_init: bool) -> Callable:
    """A stand-in for the generated method `name` of the Record subclass cls."""

    def stub(self, *args, **kwargs):
        if cls.__dict__[name] is stub:  # nothing generated yet
            _generate_methods(cls, own_init)
        return cls.__dict__[name](self, *args, **kwargs)

    stub.__qualname__ = f"{cls.__qualname__}.{name}"
    return stub


def _generate_methods(cls: type, own_init: bool) -> None:
    """Compile cls's __eq__ and __hash__, and its __init__ unless it wrote one."""
    names = cls.__match_args__
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    source = (
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
    )
    defaults = {f"_default_{n}": getattr(cls, n) for n in names if hasattr(cls, n)}
    if not own_init:
        params = "".join(
            f", {n}=_default_{n}" if f"_default_{n}" in defaults else f", {n}" for n in names
        )
        # object.__setattr__, as dataclasses uses: a store through
        # self.__dict__ would turn the instance's inline attribute values
        # into a dict and slow every later field read.
        stores = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        source += f"def __init__(self{params}):\n{stores}{post}"
    methods = {}
    exec(source, {"_setattr": object.__setattr__, **defaults}, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)


def valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n // p**e) with p**e the largest power of p dividing n != 0."""
    if n == 0 or p < 2:
        raise ValueError(f"valuation requires n != 0 and p >= 2, got n = {n}, p = {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def generating_set(
    elements: Sequence[Hashable], mul: Callable[[Hashable, Hashable], Hashable], one: Hashable
) -> tuple | None:
    """A greedy generating set S of `elements`, or None if they are not a subgroup.

    mul is the law of a finite group with identity `one`.  In the given
    order, x joins S unless the span K of S so far holds it; K then grows
    to <K, x> by Dimino's coset step (G. Butler, LNCS 559): add the coset
    K r for r = x, and for each new r try the representatives r g, g in S.
    The cosets' union holds 1 and is closed under right multiplication by
    S, so it is <K, x>, at least twice K: |S| <= log2 |<S>|.  Every coset
    must lie in elements, so on success elements = <S>, and a subgroup
    never fails.  Cost: O(|S|) products per element of <S>.

    FiniteGroup calls it on its whole table before associativity is
    known, and that is sound.  Every coset then lies in elements, so the
    result is never None.  With `one` a two-sided identity, a
    representative r outside the span joins it (one r = r lies in K r),
    and only such an r adds representatives, so the loop ends after at
    most |elements| of them.  Every element placed in the span is
    mul(k, r) with k already in it and r = x or mul(r', g) for g in S: a
    product of elements of S, in some bracketing.  So the span, which
    ends as all of elements, lies in every set that holds S and `one`
    and is closed under mul.
    """
    members = set(elements)
    if one not in members:
        return None
    gens, span = [], {one}
    for x in elements:
        if x in span:
            continue
        gens.append(x)
        base, reps = tuple(span), [x]
        for r in reps:
            if r in span:  # span is a union of cosets K r', so K r is in it
                continue
            coset = {mul(k, r) for k in base}
            if not coset <= members:
                return None
            span |= coset
            reps.extend(mul(r, g) for g in gens)
    return tuple(gens)


def cosets(
    elements: Iterable[Hashable],
    mul: Callable[[Hashable, Hashable], Hashable],
    sub: Collection[Hashable],
) -> tuple[list, dict]:
    """The left cosets g H of the subgroup `sub` of the group `elements`.

    mul is the group law and sub a subgroup under it.  Each coset is
    found at the first of its elements in the order `elements` gives, so
    for sorted elements that is its least.  Returns those elements, one
    per coset in that order, and a map from every element to the index
    of its coset.
    """
    reps: list = []
    index: dict = {}
    for g in elements:
        if g not in index:
            for h in sub:
                index[mul(g, h)] = len(reps)
            reps.append(g)
    return reps, index


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    """Strong probable-prime test of odd n > 2 to each base a, 1 < a < n.

    No base is reduced mod n: every tier of _MR_TIERS holds bases below
    its least n, and Baillie-PSW uses base 2 on n >= 3,215,031,751.
    """
    r, d = valuation(n - 1, 2)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lucas_strong_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters (n odd, > 2).

    Baillie and Wagstaff, Lucas pseudoprimes, Math. Comp. 35 (1980),
    method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.  With n + 1 = s 2^r, s odd, n passes when U_s = 0
    or V_(s 2^i) = 0 for some 0 <= i < r.

    The ladder never forms Q^k.  It carries u = c U_k
    and v = c V_k mod n for a power of two c.  Doubling uses U_2k = U_k V_k
    and V_2k = (V_k^2 + D U_k^2)/2, which follow from V_k^2 - D U_k^2 =
    4 Q^k: 2 u v and v^2 + D u^2 are 2 c^2 U_2k and 2 c^2 V_2k.  A step
    uses U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2: u + v and
    D u + v are 2 c U_(k+1) and 2 c V_(k+1).  As c is a unit mod odd n, u
    and v vanish exactly when U_k and V_k do, so the verdict is that of
    the ladder that carries Q^k, with two reductions mod n per bit instead
    of three and no halving.  Timed in one process against that ladder
    (CPU time, interleaved, medians; CPython 3.11, x86-64), on primes of
    128, 1024 and 2048 bits: 0.124 against 0.181 ms, 14.1 against 17.0
    ms, 83 against 87 ms.
    """
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1, so the search below would not end
        return False
    # First D in 5, -7, 9, -11, ... with jacobi(D, n) == -1.
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    # n + 1 = s * 2^r with s odd
    r, s = valuation(n + 1, 2)
    u = v = 1  # U_1 and V_1 = P, with c = 1
    for bit in bin(s)[3:]:
        u, v = (u * v << 1) % n, (v * v + d * u * u) % n
        if bit == "1":
            u, v = (u + v) % n, (d * u + v) % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        u, v = (u * v << 1) % n, (v * v + d * u * u) % n
        if v == 0:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        if a % 2 == 0:
            e, a = valuation(a, 2)
            if e % 2 and n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# From 2^64 on, one gcd with the product of the odd primes below this bound
# refuses every n with such a factor before any modular power is taken.
_PRIMORIAL_BOUND = 4096


@cache
def _odd_primorial() -> int:
    """The product of the odd primes below _PRIMORIAL_BOUND, built on first use."""
    return math.prod(p for p in range(3, _PRIMORIAL_BOUND, 2) if is_prime(p))


def is_prime(n: int) -> bool:
    """Deterministic primality test; every n < 2 is not prime.

    Trial division by the primes up to 47 settles every n < 53^2.  Below
    3,215,031,751 a Miller-Rabin witness set proven exact below the size
    of n decides, with two or four bases.  From there a Baillie-PSW test
    decides: Miller-Rabin base 2, then the strong Lucas test of Baillie
    and Wagstaff (Math. Comp. 35, 1980).  It has no pseudoprime below
    2^64 (Gilchrist, 2009, by Feitsma's list), and none is known above.
    From 2^64 on, n is first refused when it shares a factor with the
    product of the odd primes below 4096 (one gcd).  The gcd changes no
    verdict, since each such factor is a prime below n.  Below 2^64 it
    is not taken: building the product costs more than it saves there.

    An n >= PRIME_LIMIT = 2^4096 that no trial division or gcd settles is
    refused with ValueError, before the first modular power, and the
    message names its bit length, not its digits.  The powers cost about
    the cube of the length: on odd composites with no prime factor below
    4096, 0.08 s at 1,000 digits, 0.57 s at 2,000 and 4.4 s at 4,000,
    so an argument near the CLI's 131,071-digit limit would run for hours.

    The bound 4096 was measured (medians of 9, CPython 3.11, x86-64) on
    build_biased_prime_sets(6) and on 400 consecutive odd n at 128, 256,
    512 and 1024 bits.  Against no gcd, every bound from 1024 to 16384
    took 0.5-0.7 of the time, within noise of each other; at 4096 the
    biased sets took 82 ms instead of 153.  At 65536 the 128-bit walk
    was twice as slow as at 4096, as the gcd with a 94,000-bit product
    outweighs the powers it saves.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 53 * 53:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _miller_rabin(n, bases)
    if n >= 2**64 and math.gcd(n, _odd_primorial()) != 1:
        return False
    if n >= PRIME_LIMIT:
        raise ValueError(
            f"a {n.bit_length()}-bit integer exceeds PRIME_LIMIT = 2**4096, the range of is_prime"
        )
    return _miller_rabin(n, (2,)) and _lucas_strong_probable_prime(n)


class Factorization(Record):
    """Complete prime factorization of a positive integer."""

    base: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise ValueError(f"malformed factor list for {self.base}")
            prev = p
            prod *= p**e
        if prod != self.base:
            raise ValueError(f"factors do not multiply back to {self.base}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (Brent's cycle variant).

    n has no prime factor up to 47: its one caller, factor, strips those
    first, so n is odd.
    """
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor(n: int) -> Factorization:
    """Factor n completely; desk-scale input range 1 <= n <= 2^64.

    The stack holds only cofactors m > 1: the first is pushed only when
    it exceeds 1, and _pollard_rho returns a factor 1 < d < m, so d and
    m // d both exceed 1.
    """
    if not 1 <= n <= FACTOR_LIMIT:
        raise ValueError(f"factor requires 1 <= n <= 2**64, got {n}")
    remaining = n
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if remaining % p == 0:
            found[p], remaining = valuation(remaining, p)
    stack = [remaining] if remaining > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(found.items())))


def crt_solve(congruences: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Solve a simultaneous system x = r_i (mod m_i).

    Returns (c, M) with 0 <= c < M and M the lcm of the moduli.  Raises
    ValueError when two congruences are incompatible (only possible with
    non-coprime moduli).
    """
    if not congruences:
        raise ValueError("crt_solve needs at least one congruence")
    c, m = 0, 1
    for r, mod in congruences:
        if mod < 1:
            raise ValueError(f"modulus must be >= 1, got {mod}")
        g = math.gcd(m, mod)
        if (r - c) % g != 0:
            raise ValueError(
                f"inconsistent congruences: x = {c} (mod {m}) and x = {r} (mod {mod})"
            )
        lcm = m // g * mod
        t = (r - c) // g * pow(m // g, -1, mod // g) % (mod // g)
        c = (c + m * t) % lcm
        m = lcm
    return c, m


def next_prime_in_progression(a: int, m: int, lower: int) -> int:
    """Smallest prime p > lower with p = a (mod m); requires gcd(a, m) = 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"progression {a} mod {m} is not coprime")
    if lower < 0:
        raise ValueError(f"lower bound must be >= 0, got {lower}")
    a %= m
    p = lower + 1 + (a - lower - 1) % m
    while True:
        if p > 1 and is_prime(p):
            return p
        p += m


# ---------------------------------------------------------------------------
# Exact integer matrices and Smith normal form.
# ---------------------------------------------------------------------------


class IntegerMatrix(Record):
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(map(int, row))
        return cls(r, c, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """The product self * other, built one row at a time.

        Row i of the product is the sum of a_ik * (row k of other) over
        the nonzero a_ik only (Gustavson, *Two fast algorithms for sparse
        matrices: multiplication and permuted transposition*, ACM TOMS 4,
        1978).  An r x n by n x c product costs r n zero tests and
        nnz(self) c element operations, against r n c for a dot-product
        loop.  Its callers are GLattice.conjugate (u A_g u^-1 for every g)
        and minkowski_check, whose characteristic polynomial puts m on
        the left of every product and whose check m^L = I powers m by
        squaring.  Augmentation and permutation lattices have at most two
        nonzero entries per row, so 192 products A_x A_h of J_{S4 x C2}
        (d = 47) take 0.11 s where a dot-product loop took 1.35 s.  Fully
        dense inputs pay instead, since each element operation runs in
        bytecode where a dot product runs in C: the same 192 products
        after conjugating J_{S4 x C2} to density 0.98 (entries up to 19
        bits) take 2.8 s against 1.9 s, 1.45x (CPython 3.11, 2-core
        x86-64).
        """
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, c = self.cols, other.cols
        a, b = self.entries, other.entries
        b_rows = [b[k * c : (k + 1) * c] for k in range(n)]
        zero = (0,) * c
        out: list[int] = []
        for i in range(self.rows):
            acc = zero
            for x, row in zip(a[i * n : (i + 1) * n], b_rows):
                if x:
                    acc = [s + x * y for s, y in zip(acc, row)]
            out += acc
        return IntegerMatrix(self.rows, c, tuple(out))

    def is_identity(self) -> bool:
        """True for I_n: n ones on the diagonal and zeros everywhere else."""
        n, e = self.rows, self.entries
        return n == self.cols and e[:: n + 1] == (1,) * n and e.count(0) == n * n - n


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SnfResult(Record):
    """Smith normal form data: left * M * right is diag(diagonal)."""

    diagonal: tuple[int, ...]
    left_transform: IntegerMatrix
    right_transform: IntegerMatrix

    def diagonal_matrix(self) -> IntegerMatrix:
        r = self.left_transform.rows
        c = self.right_transform.cols
        out = [[0] * c for _ in range(r)]
        for i, d in enumerate(self.diagonal):
            out[i][i] = d
        return IntegerMatrix.from_rows(out) if r else IntegerMatrix.zero(0, c)


def _pivot_search(a: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    """Smallest |entry| != 0 in the block's trailing submatrix, row-major ties."""
    best = None
    best_val = None
    for i in range(t, rows):
        tail = a[i][t:cols]
        if not any(tail):
            continue
        sizes = [abs(x) for x in tail]
        v = min(filter(None, sizes))
        if best_val is None or v < best_val:
            best, best_val = (i, t + sizes.index(v)), v
            if v == 1:
                return best
    return best


def _eliminate(a: list[list[int]], rows: int, cols: int) -> tuple[int, ...]:
    """Reduce the top-left rows x cols block of the row lists a in place to
    Smith form; return its diagonal.

    Classical elimination: the pivot is always the block entry of smallest
    nonzero absolute value (ties broken row-major).  Row operations combine
    the block's rows over their whole length, and column operations the
    block's columns down every row of a.  So an identity appended to the
    right of the block ends as the left transform, and one appended below
    it as the right transform (the augmented-matrix method of Cohen, A
    Course in Computational Algebraic Number Theory, 2.4).  Zero entries
    take part in no operation, so skipping them changes no result.

    Finished work is not revisited.  When round t starts, every row i < t
    of the block is zero in the columns >= t, and every column j < t is
    zero in the block rows >= t.  Round t keeps both: its row and column
    swaps touch only indices >= t, its offender step adds a row > t to
    row t, and its column operations change a row only where that row is
    nonzero in column t, which rows < t are not.  So the column clear
    runs over the rows > t, the column operations over the rows from t
    down (the appended right transform included) and the columns > t,
    and a unit pivot ends its round without the divisibility test.  Each
    skipped step was a no-op, so every diagonal and transform is the one
    that a full sweep gives.
    """
    for t in range(min(rows, cols)):
        while (pos := _pivot_search(a, t, rows, cols)) is not None:
            # Move the smallest entry of the trailing submatrix to (t, t).
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            top = a[t]
            pivot = top[t]
            # Clear column t, then row t, with the current pivot; a
            # remainder left in either means another round.
            remainder = False
            for i in range(t + 1, rows):
                row = a[i]
                if row[t]:
                    q = row[t] // pivot
                    if q:
                        a[i] = [x - q * y for x, y in zip(row, top)]
                    remainder = remainder or a[i][t] != 0
            # Column t does not change here, so the rows that a column
            # operation touches are known in advance.
            touched = [row for row in a[t:] if row[t]]
            for j in range(t + 1, cols):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        for row in touched:
                            row[j] -= q * row[t]
                    remainder = remainder or top[j] != 0
            if not remainder:
                # Pivot must divide the rest of the submatrix; a unit does.
                if abs(pivot) == 1:
                    break
                rest = range(t + 1, rows)
                offender = next(
                    (i for i in rest if math.gcd(pivot, *a[i][t + 1 : cols]) != abs(pivot)),
                    None,
                )
                if offender is None:
                    break
                a[t] = [x + y for x, y in zip(top, a[offender])]
        else:
            # The trailing submatrix is zero: the rest of the diagonal is too.
            break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return tuple(a[i][i] for i in range(min(rows, cols)))


def smith_normal_form(m: IntegerMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms.

    The pivot is always the entry of smallest nonzero absolute value
    (ties broken row-major), which keeps the transforms deterministic.
    The returned diagonal d_1 | d_2 | ... is the full divisor chain,
    padded with zeros up to min(rows, cols).  The transforms ride along
    as identity blocks: I_rows to the right of m, I_cols below it.
    """
    r, c = m.rows, m.cols
    a = [row + unit for row, unit in zip(m.to_rows(), IntegerMatrix.identity(r).to_rows())]
    a += IntegerMatrix.identity(c).to_rows()
    diag = _eliminate(a, r, c)
    return SnfResult(
        diag,
        IntegerMatrix.from_rows([row[c:] for row in a[:r]]),
        IntegerMatrix.from_rows(a[r:]),
    )


def integer_kernel(m: IntegerMatrix) -> IntegerMatrix:
    """Basis of {x : m x = 0} over the integers, as matrix columns.

    Only I_cols is appended, below m, so only the column transform R is
    built; its columns past the rank span the kernel.  The basis spans
    the kernel saturately (the quotient by its span is torsion-free),
    which follows from the unimodularity of R.
    """
    a = m.to_rows() + IntegerMatrix.identity(m.cols).to_rows()
    rank = sum(1 for d in _eliminate(a, m.rows, m.cols) if d)
    return IntegerMatrix(
        m.cols, m.cols - rank, tuple(x for row in a[m.rows :] for x in row[rank:])
    )


# ---------------------------------------------------------------------------
# The digit-cap refusal.
# ---------------------------------------------------------------------------


class DigitCapExceeded(ArithmeticError):
    """A value of the constant ladder (bounds) would exceed the digit cap;
    carries the size report.  cli.run catches it without importing bounds."""

    def __init__(self, name: str, size: ProductSize, cap: int):
        self.name = name
        self.size = size
        self.cap = cap
        super().__init__(
            f"{name} = {size.describe()}, beyond the {cap}-digit cap"
        )
