"""Answers computed apart from arithlab, and the checks built on them.

Nothing here imports arithlab.  Each function recomputes a value by a
route that shares no code with the library (Euler's criterion instead of
reciprocity, Fraction elimination instead of Bareiss, a bytearray sieve
instead of the numpy one), or tests a property the library's answer must
have.  ``test_checks.py`` shows that every check rejects a corrupted
answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Moduli for residue checks of very large values.
RESIDUE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 998_244_353, 1_000_000_007)


# ---------------------------------------------------------------------------
# Primes and residue symbols.
# ---------------------------------------------------------------------------


def sieve(n: int) -> bytearray:
    """flags[k] == 1 exactly when k <= n is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"[: min(2, n + 1)]
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def count_in_class(flags: bytearray, a: int, m: int) -> int:
    """Number of primes p <= len(flags) - 1 with p = a (mod m)."""
    return flags[a % m :: m].count(1)


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion a^((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def jacobi_by_factors(a: int, factors: Sequence[tuple[int, int]]) -> int:
    """Jacobi symbol from a known factorization of an odd modulus."""
    out = 1
    for p, e in factors:
        out *= legendre_euler(a, p) ** e
    return out


def jacobi_of_two(n: int) -> int:
    """(2/n) for odd n by the second supplementary law."""
    return 1 if n % 8 in (1, 7) else -1


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of a small positive integer by trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# Hilbert symbols, by the closed forms on valuations and unit residues.
# ---------------------------------------------------------------------------


def _split(x: Fraction, p: int) -> tuple[int, int, int]:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def hilbert_local(a: Fraction, b: Fraction, p: int | None) -> int:
    """(a, b)_p; p None is the archimedean place."""
    a, b = Fraction(a), Fraction(b)
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, an, ad = _split(a, p)
    beta, bn, bd = _split(b, p)
    if p == 2:
        u = an * ad % 8  # ad is odd, so ad * ad = 1 (mod 8)
        w = bn * bd % 8
        e = ((u - 1) // 2) * ((w - 1) // 2)
        e += alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    # The symbol is multiplicative, so (num/den | p) = (num * den | p).
    u = an * ad % p
    w = bn * bd % p
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    return sign * legendre_euler(u, p) ** (beta % 2) * legendre_euler(w, p) ** (alpha % 2)


def hilbert_places(a: Fraction, b: Fraction) -> list[int | None]:
    """The places where (a, b)_v can differ from 1: inf, 2 and odd primes of a, b."""
    primes = set()
    for x in (Fraction(a), Fraction(b)):
        for n in (abs(x.numerator), x.denominator):
            primes.update(p for p, _ in trial_factor(n))
    return [None, 2] + sorted(primes - {2})


def check_hilbert_report(report, a: Fraction, b: Fraction) -> bool:
    """Product 1, and every local factor equal to the closed form."""
    places = hilbert_places(a, b)
    names = ["inf" if p is None else str(p) for p in places]
    if [name for name, _ in report.factors] != names:
        return False
    for (_, value), p in zip(report.factors, places):
        if value != hilbert_local(a, b, p):
            return False
    return report.product == 1 and math.prod(v for _, v in report.factors) == 1


# ---------------------------------------------------------------------------
# Exact linear algebra.
# ---------------------------------------------------------------------------


def fraction_det(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def check_snf(m: list[list[int]], diagonal, left: list[list[int]], right: list[list[int]]) -> bool:
    """L M R = diag(d), L and R unimodular, |det M| = prod d, d_i | d_(i+1)."""
    rows, cols = len(m), len(m[0])
    d = list(diagonal)
    if len(d) != min(rows, cols) or any(x < 0 for x in d):
        return False
    want = [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    if matmul(matmul(left, m), right) != want:
        return False
    if abs(fraction_det(left)) != 1 or abs(fraction_det(right)) != 1:
        return False
    if rows == cols and abs(fraction_det(m)) != math.prod(d):
        return False
    return all(d[i + 1] % d[i] == 0 if d[i] else d[i + 1] == 0 for i in range(len(d) - 1))


def gl_order_mod3(d: int) -> int:
    """|GL_d(F_3)| by counting invertible matrices one by one (d <= 2)."""
    from itertools import product

    count = 0
    for entries in product(range(3), repeat=d * d):
        rows = [list(entries[i * d : (i + 1) * d]) for i in range(d)]
        if fraction_det(rows) % 3 != 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Very large integers.
# ---------------------------------------------------------------------------


def decimal_digits(v: int) -> int:
    """Number of decimal digits of v > 0, by exact comparison with powers of 10."""
    k = int(v.bit_length() * 0.30102999566398120) + 1
    while 10 ** (k - 1) > v:
        k -= 1
    while 10**k <= v:
        k += 1
    return k


def decimal_mod(digits: str, modulus: int) -> int:
    """The value of a decimal string modulo a small modulus, nine digits at a time."""
    r = 0
    head = len(digits) % 9
    if head:
        r = int(digits[:head]) % modulus
    for i in range(head, len(digits), 9):
        r = (r * 1_000_000_000 + int(digits[i : i + 9])) % modulus
    return r


def check_power(value, base: int, exponent: int, digits: int) -> bool:
    """value is base^exponent: exact digit count, and residues mod small primes.

    ``value`` is an int or its decimal string; a string is never converted
    whole, so the check stays linear in its length.
    """
    text = value if isinstance(value, str) else None
    if text is None:
        if not isinstance(value, int) or value <= 0 or decimal_digits(value) != digits:
            return False
    elif len(text) != digits or not text.isdigit() or text[0] == "0":
        return False
    for p in RESIDUE_PRIMES:
        got = decimal_mod(text, p) if text is not None else value % p
        if got != pow(base, exponent, p):
            return False
    return True
