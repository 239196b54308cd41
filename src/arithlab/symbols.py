"""Quadratic symbols and Hilbert symbols over the rationals.

Places of Q are the archimedean place and the finite places given by
primes.  Whether a is a square in Q_v, and the value of (a, b)_v,
depend only on the square classes of a and b (Serre, A Course in
Arithmetic, III §1-2).  A nonzero rational n/d = n·d / d^2 lies in the
class of the integer n·d, so every local evaluation runs on integers:
valuation parity plus a unit residue, with no p-adic precision policy
and no modular inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .core import Record, factor, is_prime, jacobi, shown, valuation

__all__ = [
    "Place",
    "HilbertProductReport",
    "legendre",
    "jacobi",
    "is_square_in_qv",
    "hilbert_symbol",
    "hilbert_product_check",
]

Rational = int | Fraction


class Place(Record):
    """A place of Q: finite (a verified prime) or the archimedean one."""

    prime: int | None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{shown(self.prime)} is not prime")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p.

    Computed through the Jacobi reciprocity loop; the Euler-criterion
    power a^((p-1)/2) mod p serves as the independent test oracle, not
    as the implementation.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime, got {shown(p)}")
    return jacobi(a, p)


def _square_class(a: Rational) -> int:
    """The integer n·d, in the square class of the nonzero rational a = n/d.

    An int or a Fraction is read as it stands; anything else goes
    through Fraction(a), so every input Fraction accepts is accepted.
    """
    f = a if isinstance(a, (int, Fraction)) else Fraction(a)
    c = f.numerator * f.denominator
    if c == 0:
        raise ValueError("nonzero rational required")
    return c


def is_square_in_qv(a: Rational, v: Place) -> bool:
    """Is a a square in the completion of Q at v?

    At the archimedean place: a > 0.  At odd p: even valuation and unit
    part a quadratic residue mod p.  At 2: even valuation and unit part
    = 1 (mod 8).
    """
    if v.is_infinite:
        return _square_class(a) > 0
    return _is_square_at(a, v.prime)


def _is_square_at(a: Rational, p: int) -> bool:
    """is_square_in_qv at the finite place of p, for nonzero a and a known prime p.

    Takes p without a Place, so callers that hold primes from the sieve
    do not prove them prime again.
    """
    val, u = valuation(_square_class(a), p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return jacobi(u, p) == 1


def _hilbert_odd(a: int, b: int, p: int) -> int:
    alpha, u = valuation(a, p)
    beta, w = valuation(b, p)
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2 and jacobi(u, p) == -1:
        sign = -sign
    if alpha % 2 and jacobi(w, p) == -1:
        sign = -sign
    return sign


def _hilbert_dyadic(a: int, b: int) -> int:
    alpha, u = valuation(a, 2)
    beta, w = valuation(b, 2)
    u, w = u % 8, w % 8
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    omega_u, omega_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exponent % 2 else 1


def _hilbert(a: int, b: int, p: int | None) -> int:
    """(a, b)_v for square-class integers a and b; p is None at the archimedean place."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    if p == 2:
        return _hilbert_dyadic(a, b)
    return _hilbert_odd(a, b, p)


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a, b)_v in {1, -1}.

    Equals 1 exactly when z^2 = a x^2 + b y^2 has a nontrivial solution
    over the completion at v; computed by the standard closed forms on
    valuations and unit residues.
    """
    return _hilbert(_square_class(a), _square_class(b), v.prime)


class HilbertProductReport(Record):
    """All potentially nontrivial local factors of (a, b) and their product."""

    a: Fraction
    b: Fraction
    factors: tuple[tuple[str, int], ...]
    product: int


def _support(f: Fraction) -> set[int]:
    return set(factor(abs(f.numerator)).primes()) | set(factor(f.denominator).primes())


def hilbert_product_check(a: Rational, b: Rational) -> HilbertProductReport:
    """Evaluate (a, b)_v over every place where it can differ from 1.

    Those are the archimedean place, 2, and the primes dividing the
    numerator or denominator of a or b.  The product over all places is
    1 (Hilbert reciprocity), which the report records.  The support is
    factored per numerator and denominator, so each part may reach the
    limit of factor.
    """
    ca = _square_class(fa := Fraction(a))
    cb = _square_class(fb := Fraction(b))
    primes = sorted((_support(fa) | _support(fb)) - {2})
    factors = tuple(
        ("inf" if p is None else str(p), _hilbert(ca, cb, p)) for p in (None, 2, *primes)
    )
    return HilbertProductReport(fa, fb, factors, prod(s for _, s in factors))
