import builtins
import copy
import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import pickle
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import multiplicity

from arithlab.core import (
    Factorization,
    IntegerMatrix,
    Record,
    cosets,
    crt_solve,
    determinant,
    factor,
    generating_set,
    integer_kernel,
    is_prime,
    next_prime_in_progression,
    smith_normal_form,
    valuation,
)
from arithlab import core
from arithlab.core import _lucas_strong_probable_prime, _miller_rabin


def chernick_numbers():
    """Every (6k+1)(12k+1)(18k+1) < 2^64 whose three factors are prime."""
    k_end = 1
    while (6 * k_end + 1) * (12 * k_end + 1) * (18 * k_end + 1) < 2**64:
        k_end += 1
    sieve = bytearray_sieve(18 * k_end + 1)
    return [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, k_end)
        if sieve[6 * k + 1] and sieve[12 * k + 1] and sieve[18 * k + 1]
    ]


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def bytearray_sieve(bound):
    """sieve[n] == 1 exactly when n < bound is prime."""
    sieve = bytearray([1]) * bound
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return sieve


class TestIsPrime:
    def test_unit_is_not_prime(self):
        assert is_prime(1) is False

    def test_eleven_is_prime(self):
        assert is_prime(11) is True

    def test_carmichael_561(self):
        assert trial_division_is_prime(561) is False
        assert is_prime(561) is False

    def test_agrees_with_trial_division_below_10000(self):
        for n in range(1, 10000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_rejects_nonpositive(self):
        # As sympy.isprime: no n < 2 is prime, so callers refuse in their own words.
        for n in (0, -1, -2, -7, -(2**64 + 13)):
            assert is_prime(n) is False

    def test_large_mersenne_values(self):
        assert is_prime(2**61 - 1) is True
        assert is_prime(2**67 - 1) is False

    def test_beyond_64_bit(self):
        # 2^89 - 1 is prime; 2^89 + 1 is not; 10^25 + 13 and 2^64 + 13
        # are the first primes past their respective round numbers.
        assert is_prime(2**89 - 1) is True
        assert is_prime(2**89 + 1) is False
        assert is_prime(10**25 + 13) is True
        assert is_prime(2**64 + 13) is True
        for k in (1, 3, 7, 9, 11):
            assert is_prime(10**25 + k) is False
            assert is_prime(2**64 + k) is False

    def test_agrees_with_sieve_below_two_million(self):
        # Covers trial division alone (n < 53^2) and the two-base tier.
        bound = 2 * 10**6
        sieve = bytearray_sieve(bound)
        assert [n for n in range(1, bound) if is_prime(n) != sieve[n]] == []

    def test_strong_pseudoprimes_of_the_small_tiers(self):
        # Each passes Miller-Rabin for the bases named, so a tier that
        # reached past it with too few bases would call it prime.
        for n, bases in (
            (1_373_653, (2, 3)),
            (25_326_001, (2, 3, 5)),
            (3_215_031_751, (2, 3, 5, 7)),
            # Strong pseudoprime to every prime base up to 29 (and 31): the
            # twelve-base set stopped it only at 37; Baillie-PSW must too.
            (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)),
        ):
            assert _miller_rabin(n, bases)
            assert is_prime(n) is False

    @pytest.mark.parametrize("n", [3_215_031_751, 2**32 + 1, 3_825_123_056_546_413_051])
    def test_base_two_pseudoprimes_above_the_tiers_need_the_lucas_test(self, n):
        # From 3,215,031,751 on, Baillie-PSW decides, and each of these passes
        # its Miller-Rabin half; so a Lucas test that passed them would be caught.
        assert _miller_rabin(n, (2,))
        assert is_prime(n) is False

    @pytest.mark.parametrize("n", [3_217_621_999, 3_220_741_439, 3_225_426_319])
    def test_strong_lucas_pseudoprimes_above_the_tiers_need_base_two(self, n):
        # The first three from 3,215,031,751 on with no prime factor up to
        # 47, so trial division passes them: Miller-Rabin to base 2 must refuse them.
        assert _lucas_strong_probable_prime(n)
        assert is_prime(n) is False

    def test_baillie_psw_below_2_64_agrees_with_sympy(self):
        from sympy import isprime

        rng = random.Random(20261020)
        numbers = [rng.randrange(3_215_031_751, 2**64) | 1 for _ in range(10_000)]
        assert [n for n in numbers if is_prime(n) != isprime(n)] == []

    def test_agrees_with_sympy_near_tier_edges(self):
        from sympy import isprime

        for edge in (53 * 53, 1_373_653, 3_215_031_751, 2**64):
            for n in range(edge - 1000, edge + 1001):
                assert is_prime(n) == isprime(n), n

    def test_chernick_numbers_agree_with_sympy(self):
        # Every (6k+1)(12k+1)(18k+1) < 2^64 with three prime factors is a
        # Carmichael number; 251 of them are base-2 strong pseudoprimes, so
        # they test the top tier's other six bases.
        from sympy import isprime

        numbers = chernick_numbers()
        assert len(numbers) == 1675
        assert sum(_miller_rabin(n, (2,)) for n in numbers) == 251
        assert [n for n in numbers if is_prime(n) != isprime(n)] == []

    def test_small_factor_above_64_bits_is_refused_before_any_power(self, monkeypatch):
        # The least prime factor lies in (47, 4096): trial division misses
        # it, and the primorial gcd must refuse n before Baillie-PSW starts.
        def no_power(*args):
            raise AssertionError("a modular power was taken")

        monkeypatch.setattr(core, "_miller_rabin", no_power)
        monkeypatch.setattr(core, "_lucas_strong_probable_prime", no_power)
        big_prime = 2**64 + 13
        for p in (53, 97, 1009, 4091, 4093):
            assert is_prime(p * big_prime) is False
            assert is_prime(p * p * (2**89 - 1)) is False

    def test_refused_from_prime_limit_before_any_power(self, monkeypatch):
        # Trial division and the primorial gcd still settle n >= PRIME_LIMIT;
        # any other such n is refused by its bit length before a power.
        def no_power(*args):
            raise AssertionError("a modular power was taken")

        primorial = core._odd_primorial()  # built before the patch, from primes below 4096
        monkeypatch.setattr(core, "_miller_rabin", no_power)
        monkeypatch.setattr(core, "_lucas_strong_probable_prime", no_power)
        limit = core.PRIME_LIMIT
        assert [is_prime(n) for n in (limit, 3 * (limit + 1), 4093 * (limit + 1))] == [False] * 3
        for bits in (4097, 10**5, 435_407):  # every 435,407-bit n has 131,071 digits
            n = next(n for n in itertools.count(2**(bits - 1) + 1, 2) if math.gcd(n, primorial) == 1)
            message = f"a {bits}-bit integer exceeds PRIME_LIMIT = 2**4096, the range of is_prime"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                is_prime(n)

    def test_big_prime_spot_witnesses(self):
        for n in (10**25 + 13, 2**64 + 13):
            for a in (2, 3, 5, 7, 11, 13):
                assert pow(a, n - 1, n) == 1


class TestLucasStrongProbablePrime:
    def test_known_strong_lucas_pseudoprimes_pass(self):
        for n in (5459, 5777, 10877):
            assert not is_prime(n)
            assert _lucas_strong_probable_prime(n) is True

    def test_agrees_with_sympy_on_every_small_odd_n(self):
        from sympy.ntheory.primetest import is_strong_lucas_prp

        assert [
            n for n in range(3, 3 * 10**5, 2)
            if _lucas_strong_probable_prime(n) != is_strong_lucas_prp(n)
        ] == []

    def test_agrees_with_sympy_on_random_big_n(self):
        from sympy import nextprime
        from sympy.ntheory.primetest import is_strong_lucas_prp

        rng = random.Random(1980)
        numbers = [rng.getrandbits(b) | (1 << (b - 1)) | 1 for b in range(65, 601, 3)]
        numbers += [nextprime(rng.getrandbits(b) | (1 << (b - 1))) for b in range(65, 601, 45)]
        for n in numbers:
            assert _lucas_strong_probable_prime(n) == is_strong_lucas_prp(n), n
        assert sum(map(_lucas_strong_probable_prime, numbers)) >= 12


class TestFactor:
    def test_one_has_empty_factorization(self):
        assert factor(1).factors == ()

    def test_48(self):
        assert factor(48).factors == ((2, 4), (3, 1))

    def test_prime_input(self):
        assert factor(61).factors == ((61, 1),)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(2**64 + 1)

    def test_malformed_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(8, ((4, 1), (2, 1)))

    @given(st.integers(min_value=1, max_value=10**12))
    def test_roundtrip(self, n):
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_semiprime_with_large_factors(self):
        p, q = 1000003, 1000033
        assert factor(p * q).factors == ((p, 1), (q, 1))


class TestValuation:
    @pytest.mark.parametrize("p", [2, 3, 5, 97, 2**61 - 1])
    def test_prime_powers_times_a_cofactor(self, p):
        rng = random.Random(p)
        for k in (0, 1, 2, 7, 64, 200):
            for _ in range(5):
                cofactor = rng.randrange(1, 10**30)
                for n in (p**k * cofactor, -(p**k) * cofactor):
                    e, rest = valuation(n, p)
                    assert e == multiplicity(p, n) >= k
                    assert rest * p**e == n and rest % p != 0

    def test_refuses_zero_and_small_bases(self):
        with pytest.raises(ValueError):
            valuation(0, 2)
        for p in (0, 1):
            with pytest.raises(ValueError):
                valuation(12, p)


def add_mod(m):
    return lambda a, b: (a + b) % m


def mul_mod(m):
    return lambda a, b: a * b % m


class TestGeneratingSet:
    def test_greedy_choice_in_the_given_order(self):
        assert generating_set(range(12), add_mod(12), 0) == (1,)
        assert generating_set([0, 6, 3, 9], add_mod(12), 0) == (6, 3)
        assert generating_set([0, 3, 6, 9], add_mod(12), 0) == (3,)
        assert generating_set([0], add_mod(12), 0) == ()
        # (Z/24)^x has exponent 2: each generator doubles the span.
        assert generating_set([1, 5, 7, 11, 13, 17, 19, 23], mul_mod(24), 1) == (5, 7, 13)
        # Z/2 x Z/4 from the second factor's generator first.
        pairs = [(0, 1), (1, 0), (0, 0), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        law = lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4)
        assert generating_set(pairs, law, (0, 0)) == ((0, 1), (1, 0))

    def test_subset_that_is_not_closed_returns_none(self):
        assert generating_set([0, 3, 6], add_mod(12), 0) is None  # 3 + 6 = 9
        assert generating_set([0, 4, 8, 6], add_mod(12), 0) is None  # 4 + 6 = 10
        assert generating_set([0, 2, 3], add_mod(12), 0) is None
        assert generating_set([1, 5, 7, 11, 13], mul_mod(24), 1) is None

    def test_subset_without_the_identity_returns_none(self):
        assert generating_set([], add_mod(12), 0) is None
        assert generating_set([3, 6, 9], add_mod(12), 0) is None


def compose(p, q):
    """The permutation k |-> p[q[k]]."""
    return tuple(p[k] for k in q)


def closure(gens, one):
    """The subgroup generated by gens, by multiplying until nothing is new."""
    span = {one}
    while True:
        grown = span | {compose(x, g) for x in span for g in gens}
        if grown == span:
            return span
        span = grown


S4 = sorted(itertools.permutations(range(4)))
# The symmetries of a square with vertices 0, 1, 2, 3 in cyclic order.
D4 = sorted(closure([(1, 2, 3, 0), (0, 3, 2, 1)], (0, 1, 2, 3)))


class TestCosets:
    @pytest.mark.parametrize("group", [S4, D4], ids=["S4", "D4"])
    def test_matches_brute_force_left_cosets(self, group):
        one = (0, 1, 2, 3)
        subgroups = {
            frozenset(closure(pair, one))
            for pair in itertools.chain(
                itertools.combinations(group, 1), itertools.combinations(group, 2)
            )
        }
        for sub in subgroups:
            reps, index = cosets(group, compose, sub)
            brute = {frozenset(compose(g, h) for h in sub) for g in group}
            found = [{g for g in group if index[g] == i} for i in range(len(reps))]
            assert {frozenset(c) for c in found} == brute
            assert reps == [min(c) for c in found] == sorted(reps)
            assert set(index) == set(group) and len(reps) * len(sub) == len(group)
        # Every subgroup of S4 (30 of them) and of D4 (10) has two generators.
        assert len(subgroups) == {24: 30, 8: 10}[len(group)]

    def test_representatives_follow_the_given_order(self):
        reps, index = cosets([0, 3, 1, 4, 2, 5], add_mod(6), [0, 3])
        assert reps == [0, 1, 2]
        assert list(index.items()) == [(0, 0), (3, 0), (1, 1), (4, 1), (2, 2), (5, 2)]
        reps, _ = cosets([5, 4, 3, 2, 1, 0], add_mod(6), [0, 3])
        assert reps == [5, 4, 3]


class TestCrtSolve:
    def test_single(self):
        assert crt_solve([(1, 4)]) == (1, 4)

    def test_pair(self):
        # Oracle: enumerate 0..14.
        expected = next(
            x for x in range(15) if x % 3 == 2 and x % 5 == 3
        )
        assert crt_solve([(2, 3), (3, 5)]) == (expected, 15)
        assert expected == 8

    def test_dyadic_system(self):
        # -3 = 1 (mod 4), so the pair of conditions at 2 is consistent.
        c, m = crt_solve([(-3, 8), (1, 4)])
        assert m == 8
        assert c % 8 == 5 and c % 4 == 1

    def test_consistent_non_coprime(self):
        c, m = crt_solve([(1, 4), (3, 6)])
        assert m == 12
        assert c % 4 == 1 and c % 6 == 3

    def test_inconsistent_non_coprime(self):
        with pytest.raises(ValueError):
            crt_solve([(0, 4), (1, 2)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 50)),
            min_size=1,
            max_size=4,
        )
    )
    def test_solution_satisfies_all(self, congruences):
        try:
            c, m = crt_solve(congruences)
        except ValueError:
            # Inconsistent system: confirm by brute force over the lcm range.
            lcm = math.lcm(*(mod for _, mod in congruences))
            assert not any(
                all((x - r) % mod == 0 for r, mod in congruences)
                for x in range(lcm)
            )
            return
        assert 0 <= c < m
        assert m == math.lcm(*(mod for _, mod in congruences))
        for r, mod in congruences:
            assert (c - r) % mod == 0


class TestNextPrimeInProgression:
    @pytest.mark.parametrize(
        "a,m,lower,expected",
        [(1, 4, 0, 5), (1, 5, 5, 11), (3, 4, 100, 103)],
    )
    def test_examples(self, a, m, lower, expected):
        assert next_prime_in_progression(a, m, lower) == expected

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            next_prime_in_progression(2, 4, 0)

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            next_prime_in_progression(1, 4, -1)

    def test_minimality_by_scan(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randrange(2, 40)
            a = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
            lower = rng.randrange(0, 500)
            p = next_prime_in_progression(a, m, lower)
            assert is_prime(p) and p > lower and p % m == a % m
            for x in range(lower + 1, p):
                if x % m == a % m:
                    assert not trial_division_is_prime(x)


class TestIntegerMatrixMul:
    def test_inner_dimension_zero(self):
        product = IntegerMatrix.zero(2, 0).mul(IntegerMatrix.zero(0, 3))
        assert product == IntegerMatrix.zero(2, 3)

    def test_outer_dimension_zero(self):
        b = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        product = IntegerMatrix.zero(0, 2).mul(b)
        assert product == IntegerMatrix.zero(0, 3)

    # One entry kind per row: sparse {0, +-1}, dense small, or up to 2^400.
    ROW_ENTRIES = [
        st.sampled_from([0, 0, 0, 1, -1]),
        st.one_of(st.integers(-9, -1), st.integers(1, 9)),
        st.integers(-(2**400), 2**400),
    ]

    @staticmethod
    @st.composite
    def products(draw):
        r, n, c = (draw(st.integers(0, 6)) for _ in range(3))

        def matrix(rows, cols):
            entries = []
            for _ in range(rows):
                kind = draw(st.sampled_from(TestIntegerMatrixMul.ROW_ENTRIES))
                entries += draw(st.lists(kind, min_size=cols, max_size=cols))
            return IntegerMatrix(rows, cols, tuple(entries))

        return matrix(r, n), matrix(n, c)

    @staticmethod
    def triple_loop(a, b):
        ra, rb = a.to_rows(), b.to_rows()
        out = [[0] * b.cols for _ in range(a.rows)]
        for i in range(a.rows):
            for j in range(b.cols):
                for k in range(a.cols):
                    out[i][j] += ra[i][k] * rb[k][j]
        return out

    @settings(max_examples=300)
    @given(pair=products())
    def test_against_triple_loop(self, pair):
        a, b = pair
        product = a.mul(b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.to_rows() == self.triple_loop(a, b)


class TestIsIdentity:
    def test_identities(self):
        assert all(IntegerMatrix.identity(n).is_identity() for n in range(6))

    @pytest.mark.parametrize(
        "m",
        [
            IntegerMatrix.zero(2, 2),
            IntegerMatrix.zero(2, 3),
            IntegerMatrix(2, 3, (1, 0, 0, 0, 1, 0)),
            IntegerMatrix.from_rows([[1, 0], [0, 2]]),
            IntegerMatrix.from_rows([[1, 0], [0, -1]]),
            IntegerMatrix.from_rows([[1, 1], [0, 1]]),
            IntegerMatrix.from_rows([[1, -1], [1, 1]]),
            IntegerMatrix.from_rows([[0, 1], [1, 0]]),
        ],
    )
    def test_non_identities(self, m):
        assert not m.is_identity()

    def test_agrees_with_the_identity_matrix(self):
        rng = random.Random(73)
        for _ in range(300):
            n = rng.randrange(4)
            entries = [1 if i == j else 0 for i in range(n) for j in range(n)]
            if entries and rng.random() < 0.7:
                entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
            m = IntegerMatrix(n, n, tuple(entries))
            assert m.is_identity() == (m == IntegerMatrix.identity(n))


REFUSALS = {
    "crt-no-congruence": (lambda: crt_solve([]), "crt_solve needs at least one congruence"),
    "crt-modulus-zero": (lambda: crt_solve([(1, 4), (2, 0)]), "modulus must be >= 1, got 0"),
    "progression-modulus-zero": (
        lambda: next_prime_in_progression(1, 0, 0),
        "modulus must be >= 1, got 0",
    ),
    "ragged-rows": (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "mul-shape": (
        lambda: IntegerMatrix.zero(2, 3).mul(IntegerMatrix.zero(2, 3)),
        "dimension mismatch in matrix product",
    ),
    "determinant-non-square": (
        lambda: determinant(IntegerMatrix.zero(2, 3)),
        "determinant of a non-square matrix",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# Record: the frozen value classes without dataclasses
# ---------------------------------------------------------------------------


def record_samples():
    """Values of every Record subclass, built through the public API.

    The two identity matrices are equal but distinct objects, and several
    classes appear twice with different fields.
    """
    from arithlab import bounds, cohomology, experiments, progressions, symbols

    c2 = cohomology.FiniteGroup.cyclic(2)
    sign = cohomology.GLattice(c2, 1, (IntegerMatrix.identity(1), IntegerMatrix.from_rows([[-1]])))
    ext = progressions.AbelianExtensionDescriptor(5, [1, 4])
    return [
        factor(12),
        factor(1),
        IntegerMatrix.identity(2),
        IntegerMatrix.from_rows([[1, 0], [0, 1]]),
        IntegerMatrix(1, 3, (4, -5, 6)),
        smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]])),
        bounds.psi_size(2),
        bounds.ProductSize("gamma(9)", "39", False),
        symbols.Place.finite(7),
        symbols.Place.infinite(),
        symbols.hilbert_product_check(-1, -1),
        ext,
        progressions.AbelianExtensionDescriptor(7, [1]),
        progressions.frobenius(ext, 11),
        progressions.ProgressionSpec.residue_class(1, 5, excluded=[11]),
        c2,
        cohomology.FiniteGroup.cyclic(3),
        sign,
        cohomology.AbelianGroupInvariants((2, 4), 1),
        cohomology.minkowski_check(IntegerMatrix.from_rows([[0, -1], [1, 0]]), 2),
        experiments.build_biased_prime_sets(1),
        experiments.CongruenceTarget(((2, 3, 3), (3, 1, 2))),
        experiments.artin_kernel_evidence(5, 100),
        experiments.GaussianInteger(1, -2),
        experiments.GaussianInteger(-2, 1),
        experiments.section7_index_bound(3, 1, [13]),
    ]


@functools.cache
def twin_class(cls):
    """A frozen dataclass with cls's name and fields."""
    return dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)


def twin(x):
    return twin_class(type(x))(*(getattr(x, n) for n in type(x).__match_args__))


class TestRecord:
    def test_every_value_class_is_sampled(self):
        sampled = {type(x) for x in record_samples()}
        ours = {c for c in Record.__subclasses__() if c.__module__.startswith("arithlab.")}
        assert sampled == ours
        assert len(sampled) == 18

    def test_repr_matches_a_frozen_dataclass(self):
        for x in record_samples():
            assert repr(x) == repr(twin(x))

    def test_equality_and_hash_match_a_frozen_dataclass(self):
        values = record_samples()
        twins = [twin(x) for x in values]
        assert values[2] is not values[3] and values[2] == values[3]
        assert hash(IntegerMatrix(2, 2, (1, -2, 3, 4))) == hash((2, 2, (1, -2, 3, 4)))
        for x, tx in zip(values, twins):
            assert hash(x) == hash(tx)
            for y, ty in zip(values, twins):
                assert (x == y) is (tx == ty)
                assert (x != y) is (tx != ty)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for x in record_samples():
            for name in (*type(x).__match_args__, "unknown"):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(x, name, 0)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(x, name)

    def test_pickle_and_copy_round_trip(self):
        for x in record_samples():
            copies = [pickle.loads(pickle.dumps(x, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for y in (*copies, copy.copy(x), copy.deepcopy(x)):
                assert type(y) is type(x) and y == x
                assert hash(y) == hash(x) and repr(y) == repr(x)

    def test_post_init_refusals_still_raise(self):
        from arithlab.cohomology import AbelianGroupInvariants
        from arithlab.symbols import Place

        with pytest.raises(ValueError, match="malformed factor list for 12"):
            Factorization(12, ((3, 1), (2, 2)))
        with pytest.raises(ValueError, match="factors do not multiply back to 12"):
            Factorization(12, ((2, 1), (3, 1)))
        with pytest.raises(ValueError, match="entry count does not match dimensions"):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
            IntegerMatrix(-1, 0, ())
        with pytest.raises(ValueError, match="divisors must form a chain"):
            AbelianGroupInvariants((4, 6), 0)
        with pytest.raises(ValueError, match="divisors must exceed 1"):
            AbelianGroupInvariants((1,), 0)
        with pytest.raises(ValueError, match="4 is not prime"):
            Place(4)

    def test_arguments_defaults_and_match_like_a_dataclass(self):
        from arithlab.bounds import ProductSize

        assert IntegerMatrix(rows=1, cols=2, entries=(3, 4)) == IntegerMatrix(1, 2, (3, 4))
        assert IntegerMatrix(1, entries=(3, 4), cols=2) == IntegerMatrix(1, 2, (3, 4))
        assert ProductSize("f", "1", approximate=False).approximate is False
        assert ProductSize("f", "1") == ProductSize("f", "1", True)
        for args, kwargs in [
            ((1, 1, (1,), 5), {}),  # too many
            ((1, 1), {}),  # missing
            ((1, 1, (1,)), {"depth": 2}),  # unknown
            ((1, 1, (1,)), {"rows": 1}),  # given twice
        ]:
            with pytest.raises(TypeError):
                IntegerMatrix(*args, **kwargs)
        with pytest.raises(TypeError):
            ProductSize("f")
        assert IntegerMatrix.__match_args__ == ("rows", "cols", "entries")

        class Shape(Record):
            rows: int
            cols: int
            entries: tuple

        # Same fields, another class: unequal, and the repr names the class.
        assert Shape(1, 1, (7,)) == Shape(1, 1, (7,)) != IntegerMatrix(1, 1, (7,))
        assert repr(Shape(1, 1, (7,))).endswith("<locals>.Shape(rows=1, cols=1, entries=(7,))")
        match IntegerMatrix(1, 1, (7,)):
            case IntegerMatrix(r, c, (e,)):
                assert (r, c, e) == (1, 1, 7)
            case _:
                pytest.fail("positional pattern did not match")


    @pytest.fixture
    def compiled(self, monkeypatch):
        """The sources core compiles from here on, in order."""
        sources = []

        def counting_exec(source, *namespaces):
            sources.append(source)
            return builtins.exec(source, *namespaces)

        monkeypatch.setattr(core, "exec", counting_exec, raising=False)
        return sources

    def test_methods_are_generated_on_first_use(self, compiled):
        # Defining a class compiles nothing; its first instance compiles
        # __init__, __eq__ and __hash__ together, with one exec.
        class Point(Record):
            x: int
            y: int = 0

        assert compiled == []
        p = Point(1)
        assert len(compiled) == 1
        assert p == Point(1, 0) != Point(1, 1) and hash(p) == hash((1, 0))
        assert str(inspect.signature(Point)) == "(x, y=0)"
        assert len(compiled) == 1

    def test_own_init_leaves_eq_and_hash_to_first_use(self, compiled):
        # A class that writes its own __init__ builds instances with no
        # generated method, so a copy can be made before any has run.
        class Pair(Record):
            a: int
            b: int

            def __init__(self, a):
                object.__setattr__(self, "a", a)
                object.__setattr__(self, "b", 2 * a)

        q = Pair(3)
        assert compiled == []
        assert copy.copy(q) == q and copy.copy(q) != Pair(4)
        assert len(compiled) == 1 and "def __init__" not in compiled[0]
        assert hash(q) == hash((3, 6))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf_is_valid(m, result):
    diag = result.diagonal
    assert len(diag) == min(m.rows, m.cols)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    product = result.left_transform.mul(m).mul(result.right_transform)
    assert product == result.diagonal_matrix()
    assert abs(determinant(result.left_transform)) == 1
    assert abs(determinant(result.right_transform)) == 1


def random_unimodular(n, rng, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntegerMatrix.from_rows(m)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntegerMatrix.identity(3)).diagonal == (1, 1, 1)

    def test_diag_2_3(self):
        m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        result = smith_normal_form(m)
        assert result.diagonal == (1, 6)
        snf_is_valid(m, result)

    def test_zero_matrix(self):
        m = IntegerMatrix.zero(2, 3)
        result = smith_normal_form(m)
        assert result.diagonal == (0, 0)
        snf_is_valid(m, result)

    def test_empty_matrix(self):
        result = smith_normal_form(IntegerMatrix.zero(0, 3))
        assert result.diagonal == ()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes_are_valid(self, shape):
        m = IntegerMatrix.zero(*shape)
        snf_is_valid(m, smith_normal_form(m))

    def test_non_square(self):
        m = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        result = smith_normal_form(m)
        snf_is_valid(m, result)
        assert result.diagonal == (2, 2, 156)

    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60)
    def test_random_matrices(self, rows):
        m = IntegerMatrix.from_rows(rows)
        snf_is_valid(m, smith_normal_form(m))

    def test_unimodular_invariance(self):
        rng = random.Random(42)
        for _ in range(30):
            r, c = rng.randrange(1, 5), rng.randrange(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
            )
            u = random_unimodular(r, rng)
            v = random_unimodular(c, rng)
            assert (
                smith_normal_form(u.mul(m).mul(v)).diagonal
                == smith_normal_form(m).diagonal
            )

    def test_determinism(self):
        m = IntegerMatrix.from_rows([[6, 4], [2, 8]])
        assert smith_normal_form(m) == smith_normal_form(m)


def snf_diagonal(m: IntegerMatrix) -> tuple[int, ...]:
    """The elimination kernel with nothing appended, as cohomology.h1 calls it."""
    return core._eliminate(m.to_rows(), m.rows, m.cols)


class TestSnfDiagonal:
    """The kernel with nothing appended gives smith_normal_form's diagonal."""

    def test_empty_shapes(self):
        for r, c in ((0, 0), (0, 3), (3, 0)):
            m = IntegerMatrix.zero(r, c)
            assert snf_diagonal(m) == smith_normal_form(m).diagonal == (0,) * min(r, c)

    def test_random_matrices(self):
        rng = random.Random(1979)
        for trial in range(300):
            r, c = rng.randrange(1, 8), rng.randrange(1, 8)
            spread = (1, 3, 50, 10**6)[trial % 4]
            m = IntegerMatrix.from_rows(
                [[rng.randrange(-spread, spread + 1) for _ in range(c)] for _ in range(r)]
            )
            assert snf_diagonal(m) == smith_normal_form(m).diagonal

    def test_tall_sparse_matrices(self):
        # The shape of a coboundary matrix: (s - 1) d rows, d columns.
        rng = random.Random(1998)
        for s, d in ((4, 3), (6, 2), (8, 5), (12, 4), (24, 3)):
            m = IntegerMatrix.from_rows(
                [
                    [rng.choice((-2, -1, 0, 0, 0, 0, 1, 1)) for _ in range(d)]
                    for _ in range((s - 1) * d)
                ]
            )
            assert snf_diagonal(m) == smith_normal_form(m).diagonal


    def test_matrices_without_unit_entries(self, monkeypatch):
        # No entry is +-1, so no round can open on a unit pivot: rounds
        # reach the divisibility test and many add an offender row.
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        # (pivot, gcd of the pivot and a later row): an offender where they differ.
        tests = []

        def gcd(pivot, *rest):
            g = math.gcd(pivot, *rest)
            tests.append((abs(pivot), g))
            return g

        monkeypatch.setattr(core, "math", SimpleNamespace(gcd=gcd))
        rng, entries = random.Random(4242), (0, 2, -2, 3, -3, 4, -4, 6, -6)
        for _ in range(120):
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            rows = [[rng.choice(entries) for _ in range(c)] for _ in range(r)]
            m = IntegerMatrix.from_rows(rows)
            expected = tuple(abs(int(x)) for x in invariant_factors(Matrix(rows)))
            assert snf_diagonal(m) == expected
            result = smith_normal_form(m)
            assert result.diagonal == expected
            snf_is_valid(m, result)
        assert any(p == g for p, g in tests) and any(p != g for p, g in tests)


class TestIntegerKernel:
    def test_kernel_annihilates(self):
        m = IntegerMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        k = integer_kernel(m)
        assert k.cols == 2
        prod = m.mul(k)
        assert all(x == 0 for x in prod.entries)

    def test_kernel_is_saturated(self):
        m = IntegerMatrix.from_rows([[2, 4]])
        k = integer_kernel(m)
        # Saturation: SNF of the basis matrix is all ones.
        assert smith_normal_form(k).diagonal == (1,)
        # And the primitive kernel vector is recovered up to sign.
        assert sorted(map(abs, k.entries)) == [1, 2]

    def test_full_rank_kernel_is_trivial(self):
        m = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        assert integer_kernel(m).cols == 0

    def test_zero_map(self):
        k = integer_kernel(IntegerMatrix.zero(2, 3))
        assert k.cols == 3

    def test_empty_shapes(self):
        # No equations leave all of Z^3; no unknowns leave the zero space.
        assert integer_kernel(IntegerMatrix.zero(0, 3)) == IntegerMatrix.identity(3)
        assert integer_kernel(IntegerMatrix.zero(3, 0)) == IntegerMatrix.zero(0, 0)


def snf_pin_corpus():
    """The 0x0, 0x3, 3x0 and 2x3 shapes, then 400 seeded matrices up to 8x8."""
    yield from (IntegerMatrix.zero(0, 0), IntegerMatrix.zero(0, 3), IntegerMatrix.zero(3, 0))
    yield IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
    rng = random.Random(2718)
    for trial in range(400):
        r, c = rng.randrange(1, 9), rng.randrange(1, 9)
        spread = (1, 3, 50, 10**6)[trial % 4]
        yield IntegerMatrix.from_rows(
            [[rng.randrange(-spread, spread + 1) for _ in range(c)] for _ in range(r)]
        )


def test_snf_outputs_are_pinned():
    # Any valid Smith form would pass snf_is_valid; this pins the exact
    # diagonal, transforms and kernel basis the elimination produces, so a
    # rewrite of the kernel must reproduce them entry for entry.
    digest = hashlib.sha256()
    for m in snf_pin_corpus():
        result = (smith_normal_form(m), integer_kernel(m), snf_diagonal(m))
        digest.update(repr(result).encode())
    assert digest.hexdigest() == (
        "67a48c7cab5ff51891a7ae94ce1fdebdce9747417d487aa124ae61d641600627"
    )


def primality_pin_corpus():
    """Tier edges, seeded 64-bit odd n, seeded walks of 65-2048 bits that
    stop at a prime or after 100 odd n, six Mersenne primes, and the
    Chernick numbers."""
    rng = random.Random(1809)
    for edge in (53 * 53, 1_373_653, 3_215_031_751, 2**64):
        yield from range(edge - 300, edge + 301)
    yield from (rng.randrange(1, 2**64) | 1 for _ in range(3000))
    for bits in (65, 66, 80, 96, 128, 160, 200, 256, 384, 512, 768, 1024, 1536, 2048):
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        for _ in range(100):
            yield n
            if is_prime(n):
                break
            n += 2
    yield from (2**p - 1 for p in (89, 107, 127, 521, 607, 1279))
    yield from chernick_numbers()


def factor_pin_corpus():
    """1..2000, one seeded n of each size from 8 to 64 bits, 150 seeded
    n up to 2^64, and the 41 n up to 2^64 itself."""
    rng = random.Random(1810)
    yield from range(1, 2001)
    for bits in range(8, 65):
        yield rng.getrandbits(bits) | (1 << (bits - 1))
    yield from (rng.randrange(1, 2**64 + 1) for _ in range(150))
    yield from range(2**64 - 40, 2**64 + 1)


def test_primality_outputs_are_pinned():
    # Every is_prime verdict and factor output on a seeded corpus, as
    # computed before the seven-base tier, the primorial gcd and the
    # Lucas ladder without Q^k: a change of method must change no output.
    digest = hashlib.sha256()
    for n in primality_pin_corpus():
        digest.update(f"{n} {is_prime(n):d}\n".encode())
    for n in factor_pin_corpus():
        digest.update(f"{n} {factor(n).factors}\n".encode())
    assert digest.hexdigest() == (
        "71803f49e59a0d9fcac6d743ddb2b0c46c1eaa645a6438e28095ec1f1896238b"
    )
