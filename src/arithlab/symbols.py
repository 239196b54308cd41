"""Quadratic symbols and Hilbert symbols over the rationals.

Places of Q are the archimedean place and the finite places given by
primes.  Elements of the completions are always handled as exact
rationals: squareness at a finite place reduces to valuation parity
plus a unit-residue test, so no p-adic precision policy is needed.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Record, factor, is_prime, jacobi, valuation

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
            raise ValueError(f"{self.prime} is not prime")

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
        raise ValueError(f"legendre requires an odd prime, got {p}")
    return jacobi(a, p)


def _as_fraction(a: Rational) -> Fraction:
    f = Fraction(a)
    if f == 0:
        raise ValueError("nonzero rational required")
    return f


def _valuation(f: Rational, p: int) -> tuple[int, int, int]:
    """(v, u_num, u_den) with f = p^v * u_num/u_den and p dividing neither."""
    v, num = valuation(f.numerator, p)
    w, den = valuation(f.denominator, p)
    return v - w, num, den


def _unit_residue(num: int, den: int, modulus: int) -> int:
    return num * pow(den, -1, modulus) % modulus


def is_square_in_qv(a: Rational, v: Place) -> bool:
    """Is a a square in the completion of Q at v?

    At the archimedean place: a > 0.  At odd p: even valuation and unit
    part a quadratic residue mod p.  At 2: even valuation and unit part
    = 1 (mod 8).
    """
    f = _as_fraction(a)
    if v.is_infinite:
        return f > 0
    return _is_square_at(f, v.prime)


def _is_square_at(a: Rational, p: int) -> bool:
    """is_square_in_qv at the finite place of p, for nonzero a and a known prime p.

    Takes p without a Place, so callers that hold primes from the sieve
    do not prove them prime again.
    """
    val, num, den = _valuation(a, p)
    if val % 2:
        return False
    if p == 2:
        return _unit_residue(num, den, 8) == 1
    return jacobi(_unit_residue(num, den, p), p) == 1


def _hilbert_odd(a: Fraction, b: Fraction, p: int) -> int:
    alpha, an, ad = _valuation(a, p)
    beta, bn, bd = _valuation(b, p)
    u = _unit_residue(an, ad, p)
    w = _unit_residue(bn, bd, p)
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2 and jacobi(u, p) == -1:
        sign = -sign
    if alpha % 2 and jacobi(w, p) == -1:
        sign = -sign
    return sign


def _hilbert_dyadic(a: Fraction, b: Fraction) -> int:
    alpha, an, ad = _valuation(a, 2)
    beta, bn, bd = _valuation(b, 2)
    u = _unit_residue(an, ad, 8)
    w = _unit_residue(bn, bd, 8)
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    omega_u, omega_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exponent % 2 else 1


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a, b)_v in {1, -1}.

    Equals 1 exactly when z^2 = a x^2 + b y^2 has a nontrivial solution
    over the completion at v; computed by the standard closed forms on
    valuations and unit residues.
    """
    fa, fb = _as_fraction(a), _as_fraction(b)
    if v.is_infinite:
        return -1 if fa < 0 and fb < 0 else 1
    if v.prime == 2:
        return _hilbert_dyadic(fa, fb)
    return _hilbert_odd(fa, fb, v.prime)


class HilbertProductReport(Record):
    """All potentially nontrivial local factors of (a, b) and their product."""

    a: Fraction
    b: Fraction
    factors: tuple[tuple[str, int], ...]
    product: int

    @property
    def passed(self) -> bool:
        return self.product == 1


def _support(f: Fraction) -> set[int]:
    return set(factor(abs(f.numerator)).primes()) | set(factor(f.denominator).primes())


def hilbert_product_check(a: Rational, b: Rational) -> HilbertProductReport:
    """Evaluate (a, b)_v over every place where it can differ from 1.

    Those are the archimedean place, 2, and the primes dividing the
    numerator or denominator of a or b.  The product over all places is
    1 (Hilbert reciprocity), which the report records.
    """
    fa, fb = _as_fraction(a), _as_fraction(b)
    places = [Place.infinite(), Place.finite(2)]
    for p in sorted((_support(fa) | _support(fb)) - {2}):
        places.append(Place.finite(p))
    factors = tuple((str(v), hilbert_symbol(fa, fb, v)) for v in places)
    product = 1
    for _, s in factors:
        product *= s
    return HilbertProductReport(fa, fb, factors, product)
