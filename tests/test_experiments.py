import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from arithlab.core import is_prime
from arithlab.experiments import (
    GAUSSIAN_UNITS,
    MAX_BIASED_ELL,
    MAX_TARGET_MODULUS,
    MAX_UNIT_HEIGHT,
    BiasedPrimePair,
    CongruenceTarget,
    GaussianInteger,
    artin_kernel_evidence,
    build_biased_prime_sets,
    density_witness,
    local_power_index,
    norm_one_constrained_units,
    section7_index_bound,
)
from arithlab.experiments import _split_valuations_agree
from arithlab.progressions import primes_up_to
from arithlab.symbols import Place, hilbert_symbol, is_square_in_qv, legendre
from oracle_units import split_valuations_agree


class TestBiasedPrimeSets:
    def test_first_step_frozen(self):
        # The strict smallest-prime rule forces 41 (it is prime, and is
        # 1 mod 4 and 1 mod 5), not the looser historical choice 11.
        assert is_prime(41) and 41 % 4 == 1 and 41 % 5 == 1
        pair = build_biased_prime_sets(1)
        assert pair.p_list == (5,)
        assert pair.q_list == (41,)

    def test_second_step_frozen(self):
        pair = build_biased_prime_sets(2)
        assert pair.p_list == (5, 821)
        assert pair.q_list == (41, 16421)
        # 821 is the first prime that is 1 mod 164; check the scan.
        for x in range(165, 821, 164):
            assert not is_prime(x)

    def test_cross_symbols_all_one(self):
        pair = build_biased_prime_sets(3)
        for p in pair.p_list:
            for q in pair.q_list:
                assert legendre(p, q) == 1
                assert legendre(q, p) == 1

    def test_invariants_certified_by_constructor(self):
        with pytest.raises(ValueError):
            BiasedPrimePair((5,), (5,))
        with pytest.raises(ValueError):
            BiasedPrimePair((7,), (11,))  # 7 is 3 mod 4
        assert legendre(5, 13) == -1
        with pytest.raises(ValueError):
            BiasedPrimePair((5,), (13,))

    def test_growth(self):
        pair = build_biased_prime_sets(3)
        for i, p in enumerate(pair.p_list):
            assert p > 5**i

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_biased_prime_sets(0)

    def test_work_bound(self):
        assert MAX_BIASED_ELL == 7
        assert len(build_biased_prime_sets(6).q_list) == 6
        with pytest.raises(ValueError, match="ell must be <= 7"):
            build_biased_prime_sets(MAX_BIASED_ELL + 1)


class TestCongruenceTarget:
    def test_requires_dyadic_condition(self):
        with pytest.raises(ValueError):
            CongruenceTarget(((3, 1, 2),))

    def test_rejects_split_prime_condition(self):
        with pytest.raises(ValueError):
            CongruenceTarget(((2, 2, 1), (5, 1, 2)))

    def test_rejects_non_unit_residue(self):
        with pytest.raises(ValueError):
            CongruenceTarget(((2, 2, 2),))

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            CongruenceTarget(((2, 1, 1), (2, 2, 3)))

    @staticmethod
    def accepted(conditions):
        try:
            CongruenceTarget(conditions)
        except ValueError as exc:
            assert "MAX_TARGET_MODULUS = 2**1024" in str(exc)
            return False
        return True

    def test_modulus_budget_is_exact_at_the_boundary(self):
        assert MAX_TARGET_MODULUS == 2**1024
        for alpha in range(1018, 1030):
            assert self.accepted(((2, alpha, 1),)) == (2**alpha <= MAX_TARGET_MODULUS), alpha
        for alpha in range(640, 650):  # lcm(4, 3^alpha) = 4 * 3^alpha
            expected = 4 * 3**alpha <= MAX_TARGET_MODULUS
            assert self.accepted(((2, 2, 3), (3, alpha, 2))) == expected, alpha
        # Two primes, each within the budget alone.
        assert not self.accepted(((2, 600, 1), (3, 300, 2)))
        assert self.accepted(((2, 600, 1), (3, 260, 2)))

    def test_contains(self):
        target = CongruenceTarget(((2, 3, 3), (7, 1, 2)))
        assert target.contains(-1, 5)
        # -13 = 3 (mod 8) but -13 != 2 (mod 7); 13 = 1 (mod 4).
        assert not target.contains(-1, 13)
        # 5 != 3 (mod 8), the dyadic condition; 5 = 2 (mod 7) holds for -5 only.
        assert not target.contains(1, 5)
        # The prime 107 = 3 (mod 8) and 107 = 2 (mod 7), but 107 = 3 (mod 4).
        assert (107 - 3) % 8 == 0 and (107 - 2) % 7 == 0 and is_prime(107)
        assert not target.contains(1, 107)


class TestDensityWitness:
    def test_frozen_example_negative_sign(self):
        # a = 3 at the dyadic place forces eps = -1; the combined class
        # is 1 mod 4, whose first prime is 5.
        assert density_witness(CongruenceTarget(((2, 2, 3),))) == (-1, 5)

    def test_frozen_example_positive_sign(self):
        assert density_witness(CongruenceTarget(((2, 2, 1),))) == (1, 5)

    def test_frozen_two_condition_example(self):
        target = CongruenceTarget(((2, 3, 3), (7, 1, 2)))
        eps, p = density_witness(target)
        assert (eps, p) == (-1, 5)
        assert (-5 - 3) % 8 == 0 and (-5 - 2) % 7 == 0

    def test_randomized_targets_verified(self):
        rng = random.Random(99)
        inert_primes = [p for p in primes_up_to(50) if p % 4 == 3]
        for _ in range(40):
            conditions = []
            alpha = rng.randrange(1, 4)
            a = rng.choice([x for x in range(1, 2**alpha, 2)])
            conditions.append((2, alpha, a))
            for p in rng.sample(inert_primes, rng.randrange(0, 3)):
                alpha = rng.randrange(1, 4)
                a = rng.choice([x for x in range(1, p**alpha) if x % p])
                conditions.append((p, alpha, a))
            target = CongruenceTarget(tuple(conditions))
            eps, p = density_witness(target)
            assert eps in (-1, 1) and is_prime(p)
            # Independent recheck of every congruence.
            for q, alpha, a in conditions:
                assert (eps * p - a) % q**alpha == 0
            assert p % 4 == 1


class TestArtinKernelEvidence:
    def test_q5_sample(self):
        report = artin_kernel_evidence(5, 1000)
        assert report.checked_primes[:3] == (11, 31, 41)
        assert report.passed and not report.failures

    def test_q13_sample(self):
        report = artin_kernel_evidence(13, 1000)
        assert report.passed
        assert all(p % 13 == 1 for p in report.checked_primes)

    def test_two_routes_agree(self):
        report = artin_kernel_evidence(5, 500)
        for p in report.checked_primes:
            assert is_square_in_qv(5, Place.finite(p))
            assert legendre(5, p) == 1

    def test_trivial_symbol_at_passing_prime(self):
        for x in (Fraction(7, 5), -3, 10):
            assert hilbert_symbol(x, 5, Place.finite(11)) == 1

    def test_sieved_primes_are_not_proved_again(self, monkeypatch):
        # One test for q and one per Place of the 12 sampled Hilbert
        # symbols; the 19,617 split primes come from the sieve.
        from arithlab import core, experiments, symbols

        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        for module in (core, symbols, experiments):
            monkeypatch.setattr(module, "is_prime", counted)
        report = artin_kernel_evidence(5, 10**6)
        assert len(calls) <= 13
        expected = [p for p in primes_up_to(10**6) if p % 5 == 1]
        assert report.checked_primes == tuple(expected) and len(expected) == 19617
        assert report.failures == () and report.passed
        assert [s for s, _ in report.sampled_symbols[:4]] == [
            "(2, 5)_11", "(-3/7, 5)_11", "(11, 5)_11", "(1/2, 5)_11",
        ]

    @pytest.mark.parametrize("q", [5, 13, 17, 29])
    def test_split_primes_are_the_filtered_sieve(self, q):
        for b in (-5, 0, 1, 2, 3, 10, 11, 2 * q + 1, 10**4):
            expected = tuple(p for p in primes_up_to(b) if p % q == 1)
            assert artin_kernel_evidence(q, b).checked_primes == expected, b

    def test_memory_peak_at_a_million(self):
        # The split primes come off the mask in one class slice, with no
        # tuple of all 78,498 primes: the peak was 4.6 MiB when they did.
        primes_up_to.cache_clear()
        tracemalloc.start()
        try:
            artin_kernel_evidence(5, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            artin_kernel_evidence(7, 100)
        with pytest.raises(ValueError):
            artin_kernel_evidence(9, 100)


class TestNormOneConstrainedUnits:
    def test_exactly_the_units_at_small_heights(self):
        expected = sorted(GAUSSIAN_UNITS, key=lambda z: (z.a, z.b))
        for height in (1, 2, 5, 10):
            assert norm_one_constrained_units(height) == expected

    def test_predicate_matches_the_trial_division_oracle(self):
        for u in range(-60, 61):
            for v in range(-60, 61):
                if u or v:
                    assert _split_valuations_agree(u, v) == split_valuations_agree(u, v), (u, v)

    def test_monotone_in_height(self):
        small = set(norm_one_constrained_units(3))
        large = set(norm_one_constrained_units(12))
        assert small <= large

    def test_split_norm_excluded(self):
        # 2 + i has norm 5 with odd valuation at the split prime 5, so
        # its conjugate quotient (3 - 4i)/5 must not appear.
        units = norm_one_constrained_units(30)
        assert all(u.norm() == 1 for u in units)

    def test_rejects_height_over_the_budget(self):
        with pytest.raises(ValueError, match="must be <= 300"):
            norm_one_constrained_units(MAX_UNIT_HEIGHT + 1)

    def test_rejects_zero_height(self):
        with pytest.raises(ValueError):
            norm_one_constrained_units(0)

    def test_gaussian_integer_arithmetic(self):
        z = GaussianInteger(2, 1)
        assert z.norm() == 5
        assert z.conjugate() == GaussianInteger(2, -1)
        assert z * z.conjugate() == GaussianInteger(5, 0)
        assert str(-z) == "-2-1i"


class TestLocalPowerIndex:
    @pytest.mark.parametrize("p,n,expected", [(13, 3, 3), (5, 3, 1), (13, 1, 1)])
    def test_examples(self, p, n, expected):
        assert local_power_index(p, n) == expected

    def test_counts_against_gcd_for_many_primes(self):
        for p in primes_up_to(300):
            if p % 4 != 1:
                continue
            for n in (2, 3, 4, 5, 6, 7):
                if n % p == 0:
                    continue
                powers = {pow(x, n, p) for x in range(1, p)}
                assert local_power_index(p, n) == (p - 1) // len(powers)
                assert local_power_index(p, n) == math.gcd(n, p - 1)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            local_power_index(7, 3)

    def test_rejects_wild_case(self):
        with pytest.raises(ValueError):
            local_power_index(5, 5)
        with pytest.raises(ValueError):
            local_power_index(5, 10)


class TestSection7IndexBound:
    def test_single_prime(self):
        report = section7_index_bound(3, 1, [13])
        assert report.product == 3
        assert report.lower_bound == Fraction(3, 4)

    def test_three_primes(self):
        report = section7_index_bound(3, 3, [13, 37, 61])
        assert report.product == 27
        assert report.lower_bound == Fraction(27, 4)
        assert report.passed

    def test_n_five(self):
        report = section7_index_bound(5, 2, [41, 61])
        assert report.product == 25
        assert report.lower_bound == Fraction(25, 4)

    def test_monotone_bounds(self):
        report = section7_index_bound(3, 4, [13, 37, 61, 73])
        assert report.partial_bounds == tuple(
            Fraction(3**j, 4) for j in (1, 2, 3, 4)
        )
        assert report.monotone

    def test_rejects_bad_prime_with_message(self):
        with pytest.raises(ValueError, match="17"):
            section7_index_bound(3, 2, [13, 17])

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            section7_index_bound(4, 1, [17])

    def test_rejects_wrong_count_and_duplicates(self):
        with pytest.raises(ValueError):
            section7_index_bound(3, 2, [13])
        with pytest.raises(ValueError):
            section7_index_bound(3, 2, [13, 13])

    def test_each_prime_is_proved_once(self, monkeypatch):
        # The validation proves each prime and checks p = 1 mod 4n, so the
        # local index gcd(n, p - 1) needs no second primality proof.
        from arithlab import experiments

        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(experiments, "is_prime", counted)
        report = section7_index_bound(5, 2, [41, 61])
        assert sorted(calls) == [41, 61]
        assert report.local_indices == (5, 5) and report.passed
