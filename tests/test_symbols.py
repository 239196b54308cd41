import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithlab.core import is_prime
from arithlab.symbols import (
    Place,
    hilbert_product_check,
    hilbert_symbol,
    is_square_in_qv,
    jacobi,
    legendre,
)
from arithlab.symbols import _is_square_at

ODD_PRIMES_UNDER_200 = [p for p in range(3, 200) if is_prime(p)]
INF = Place.infinite()


def euler_criterion(a, p):
    """Independent Legendre oracle by modular exponentiation."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class TestLegendre:
    @pytest.mark.parametrize("a,p,expected", [(11, 5, 1), (10, 5, 0), (2, 7, 1)])
    def test_examples(self, a, p, expected):
        assert legendre(a, p) == expected

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 9)

    def test_euler_criterion_exhaustive(self):
        for p in ODD_PRIMES_UNDER_200:
            for a in range(-p + 1, p):
                assert legendre(a, p) == euler_criterion(a, p), (a, p)

    def test_quadratic_reciprocity_exhaustive(self):
        for p in ODD_PRIMES_UNDER_200:
            for q in ODD_PRIMES_UNDER_200:
                if p == q:
                    continue
                sign = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
                assert legendre(p, q) * legendre(q, p) == sign


class TestJacobi:
    def test_modulus_one(self):
        for a in range(-5, 6):
            assert jacobi(a, 1) == 1

    def test_2_mod_15(self):
        assert jacobi(2, 15) == 1
        assert jacobi(2, 3) * jacobi(2, 5) == 1

    def test_agrees_with_legendre_on_primes(self):
        for p in ODD_PRIMES_UNDER_200[:20]:
            for a in range(-10, 11):
                assert jacobi(a, p) == legendre(a, p)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)

    @given(
        st.integers(-100, 100),
        st.integers(1, 50).map(lambda k: 2 * k - 1),
        st.integers(1, 50).map(lambda k: 2 * k - 1),
    )
    def test_multiplicative_in_lower_argument(self, a, n1, n2):
        assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


class TestIsSquare:
    def test_examples(self):
        assert is_square_in_qv(5, Place.finite(11)) is True
        assert is_square_in_qv(-1, INF) is False
        assert is_square_in_qv(17, Place.finite(2)) is True

    def test_rational_squares_everywhere(self):
        values = [Fraction(9, 4), Fraction(49), Fraction(1, 25)]
        places = [INF, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)]
        for a in values:
            for v in places:
                assert is_square_in_qv(a, v) is True

    def test_odd_valuation_fails(self):
        assert is_square_in_qv(5, Place.finite(5)) is False
        assert is_square_in_qv(Fraction(1, 2), Place.finite(2)) is False

    def test_dyadic_unit_classes(self):
        # Units are squares in the 2-adic field exactly in class 1 mod 8.
        for u in (1, 3, 5, 7, -1, 9, 17, 15):
            expected = u % 8 == 1
            assert is_square_in_qv(u, Place.finite(2)) is expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_square_in_qv(0, INF)

    def test_known_prime_route_agrees(self):
        for p in range(2, 10**4 + 1):
            if is_prime(p):
                for a in (-7, -1, 2, 5, Fraction(3, 4)):
                    assert _is_square_at(a, p) is is_square_in_qv(a, Place.finite(p))

    def test_known_prime_route_takes_any_rational(self):
        # Whatever Fraction accepts, as is_square_in_qv does; zero is refused.
        for p in (2, 3, 5, 7):
            for a in ("-20/9", Decimal("0.75"), 0.125, Fraction(18, 50)):
                assert _is_square_at(a, p) is is_square_in_qv(Fraction(a), Place.finite(p))
            with pytest.raises(ValueError, match="nonzero rational required"):
                _is_square_at("0", p)

    def test_square_forces_trivial_symbol(self):
        rng = random.Random(3)
        places = [INF, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(13)]
        for _ in range(200):
            a = Fraction(rng.randrange(-50, 51) or 1, rng.randrange(1, 30))
            b = Fraction(rng.randrange(-50, 51) or 1, rng.randrange(1, 30))
            for v in places:
                if is_square_in_qv(a, v):
                    assert hilbert_symbol(a, b, v) == 1


# ---------------------------------------------------------------------------
# Hilbert symbols, with brute-force local solvability oracles.
# ---------------------------------------------------------------------------


def solvable_oracle_mod_prime_cube(a, b, p):
    """Does z^2 = a x^2 + b y^2 have a nontrivial local solution at p?

    For valuations of a and b in {0, 1}, a primitive solution mod p^3
    always lifts (some partial derivative has valuation at most
    v(2) + 1, and p^3 exceeds the square of that), and conversely a
    local solution scales to a primitive one.  So brute force over all
    residue pairs decides the symbol.
    """
    mod = p**3
    squares = {(z * z) % mod for z in range(mod)}
    unit_squares = {(z * z) % mod for z in range(mod) if z % p}
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            if x % p or y % p:
                if t in squares:
                    return True
            elif t in unit_squares:
                return True
    return False


def dyadic_square_class(value):
    """(2-power part, unit residue mod 8) of a nonzero rational."""
    f = Fraction(value)
    num, den = f.numerator, f.denominator
    v = 0
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    unit = num * pow(den, -1, 8) % 8
    return 2 ** (v % 2), unit


def odd_square_class(value, p):
    """(p-power part, unit residue mod p) of a nonzero rational, at an odd prime p."""
    f = Fraction(value)
    num, den = f.numerator, f.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    unit = num * pow(den, -1, p) % p
    return p ** (v % 2), unit


def solvable_oracle_dyadic(a, b):
    """Same brute-force decision at the dyadic place, run mod 2^6."""
    mod = 64
    squares = {(z * z) % mod for z in range(mod)}
    odd_squares = {(z * z) % mod for z in range(1, mod, 2)}
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            if x % 2 or y % 2:
                if t in squares:
                    return True
            elif t in odd_squares:
                return True
    return False


class TestHilbertSymbol:
    def test_archimedean(self):
        assert hilbert_symbol(-1, -1, INF) == -1
        assert hilbert_symbol(-1, 2, INF) == 1
        assert hilbert_symbol(Fraction(1, 3), Fraction(5, 7), INF) == 1

    def test_square_argument_is_trivial(self):
        rng = random.Random(11)
        places = [INF, Place.finite(2), Place.finite(3), Place.finite(7)]
        for _ in range(100):
            a = Fraction(rng.randrange(-40, 41) or 3, rng.randrange(1, 20))
            b = Fraction(rng.randrange(-20, 21) or 5, rng.randrange(1, 10))
            for v in places:
                assert hilbert_symbol(a, b * b, v) == 1

    def test_symmetry_and_negation(self):
        rng = random.Random(13)
        places = [INF, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(13)]
        for _ in range(200):
            a = Fraction(rng.randrange(-60, 61) or 7, rng.randrange(1, 40))
            b = Fraction(rng.randrange(-60, 61) or -7, rng.randrange(1, 40))
            for v in places:
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
                assert hilbert_symbol(a, -a, v) == 1
                assert hilbert_symbol(a, a * b * b, v) == hilbert_symbol(a, b * b, v) * hilbert_symbol(a, a, v)

    def test_bimultiplicativity(self):
        rng = random.Random(17)
        places = [INF, Place.finite(2), Place.finite(3), Place.finite(5)]
        for _ in range(150):
            a = Fraction(rng.randrange(-30, 31) or 5, rng.randrange(1, 12))
            b1 = Fraction(rng.randrange(-30, 31) or 3, rng.randrange(1, 12))
            b2 = Fraction(rng.randrange(-30, 31) or -2, rng.randrange(1, 12))
            for v in places:
                assert hilbert_symbol(a, b1 * b2, v) == hilbert_symbol(
                    a, b1, v
                ) * hilbert_symbol(a, b2, v)

    def test_dyadic_against_solvability_oracle(self):
        # All sixteen square classes at the dyadic place.
        classes = [u * t for u in (1, 3, 5, 7) for t in (1, 2)]
        for a in classes:
            for b in classes:
                expected = 1 if solvable_oracle_dyadic(a, b) else -1
                assert hilbert_symbol(a, b, Place.finite(2)) == expected, (a, b)

    def test_dyadic_class_reduction(self):
        rng = random.Random(19)
        for _ in range(100):
            a = Fraction(rng.randrange(-99, 100) or 13, rng.randrange(1, 60))
            b = Fraction(rng.randrange(-99, 100) or -9, rng.randrange(1, 60))
            ra = dyadic_square_class(a)
            rb = dyadic_square_class(b)
            assert hilbert_symbol(a, b, Place.finite(2)) == hilbert_symbol(
                ra[0] * ra[1], rb[0] * rb[1], Place.finite(2)
            )

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_odd_class_reduction(self, p):
        # Powers of p in numerators and denominators, reduced by inverting
        # the denominator mod p.  For p = 3 every representative is one of
        # the classes test_odd_against_solvability_oracle pins to brute force.
        rng = random.Random(29 + p)

        def sample():
            num = (rng.randrange(-99, 100) or 11) * p ** rng.randrange(4)
            return Fraction(num, rng.randrange(1, 60) * p ** rng.randrange(4))

        for _ in range(200):
            a, b = sample(), sample()
            ra, rb = odd_square_class(a, p), odd_square_class(b, p)
            ca, cb = ra[0] * ra[1], rb[0] * rb[1]
            assert hilbert_symbol(a, b, Place.finite(p)) == hilbert_symbol(
                ca, cb, Place.finite(p)
            ), (a, b)
            assert is_square_in_qv(a, Place.finite(p)) is is_square_in_qv(ca, Place.finite(p)), a

    @pytest.mark.parametrize("p", [3, 5])
    def test_odd_against_solvability_oracle(self, p):
        nonresidue = next(r for r in range(2, p) if legendre(r, p) == -1)
        classes = [1, nonresidue, p, p * nonresidue]
        for a in classes:
            for b in classes:
                expected = 1 if solvable_oracle_mod_prime_cube(a, b, p) else -1
                assert hilbert_symbol(a, b, Place.finite(p)) == expected, (a, b, p)

    def test_example_split_prime(self):
        # 5 is a square 11-adically, so every symbol against it is 1.
        assert is_square_in_qv(5, Place.finite(11))
        for x in (2, 3, 7, 11, -1, Fraction(3, 11)):
            assert hilbert_symbol(x, 5, Place.finite(11)) == 1


class TestHilbertProduct:
    def test_trivial_pair(self):
        report = hilbert_product_check(1, 1)
        assert report.product == 1
        assert all(s == 1 for _, s in report.factors)

    def test_minus_one_pair(self):
        report = hilbert_product_check(-1, -1)
        factors = dict(report.factors)
        assert factors["inf"] == -1 and factors["2"] == -1
        assert report.product == 1

    def test_random_pairs(self):
        rng = random.Random(23)
        for _ in range(150):
            a = Fraction(rng.randrange(-1000, 1001) or 17, rng.randrange(1, 1000))
            b = Fraction(rng.randrange(-1000, 1001) or -17, rng.randrange(1, 1000))
            assert hilbert_product_check(a, b).product == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_product_check(0, 5)


class TestPlace:
    def test_finite_requires_prime(self):
        with pytest.raises(ValueError):
            Place.finite(6)

    def test_str(self):
        assert str(INF) == "inf"
        assert str(Place.finite(7)) == "7"
