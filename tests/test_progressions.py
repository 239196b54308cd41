import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from arithlab.core import is_prime
from arithlab.progressions import (
    MAX_CONDUCTOR,
    AbelianExtensionDescriptor,
    ProgressionSpec,
    RamifiedPrimeError,
    chebotarev_density,
    frobenius,
    in_progression,
    intersection_density,
    natural_density_estimate,
    primes_up_to,
    splits_completely,
    tractable_condition,
)
from arithlab.progressions import _SEGMENT, _prime_mask, _primes_in_class
import oracle_progressions as oracle

GAUSSIAN = AbelianExtensionDescriptor.gaussian()
P14 = ProgressionSpec.residue_class(1, 4)
P34 = ProgressionSpec.residue_class(3, 4)


class TestDescriptor:
    def test_subgroup_must_contain_one(self):
        with pytest.raises(ValueError):
            AbelianExtensionDescriptor(8, [3])

    def test_subgroup_must_be_closed(self):
        with pytest.raises(ValueError):
            AbelianExtensionDescriptor(8, [1, 3, 5])

    def test_closure_check_agrees_with_all_pairs(self):
        # Every subset of (Z/mZ)^x that holds 1, for m <= 15.
        for m in range(1, 16):
            one = 1 % m
            others = sorted(oracle.unit_group(m) - {one})
            for k in range(len(others) + 1):
                for extra in itertools.combinations(others, k):
                    h = frozenset({one, *extra})
                    try:
                        AbelianExtensionDescriptor(m, h)
                        accepted = True
                    except ValueError as exc:
                        assert str(exc) == "subgroup is not closed under multiplication"
                        accepted = False
                    assert accepted == oracle.closed_under_products(m, h), (m, h)

    def test_large_subgroup_checked_along_generators(self):
        # {r = 1 mod 8} has 10,000 elements mod 10^5; all pairs took 11.8 s.
        m = 100_000
        h = [r for r in range(1, m, 8) if r % 5]
        assert len(h) == 10_000
        start = time.monotonic()
        ext = AbelianExtensionDescriptor(m, h)
        assert time.monotonic() - start < 0.5
        assert ext == AbelianExtensionDescriptor(8, [1])
        with pytest.raises(ValueError, match="not closed"):
            AbelianExtensionDescriptor(m, h + [3])

    def test_conductor_budget(self):
        ext = AbelianExtensionDescriptor.cyclotomic(MAX_CONDUCTOR)
        assert ext.conductor == MAX_CONDUCTOR == 100_000
        for m in (MAX_CONDUCTOR + 1, 10**10):
            with pytest.raises(ValueError, match=f"conductor {m} exceeds MAX_CONDUCTOR = 100000"):
                AbelianExtensionDescriptor(m, [1])

    def test_elements_must_be_units(self):
        with pytest.raises(ValueError):
            AbelianExtensionDescriptor(8, [1, 2])

    def test_minimal_conductor_reduction(self):
        # Conductor 8 with kernel subgroup {1, 5} is really the
        # conductor-4 field.
        ext = AbelianExtensionDescriptor(8, [1, 5])
        assert ext.conductor == 4 and ext.subgroup == frozenset({1})
        assert ext == GAUSSIAN

    def test_twice_odd_conductor_collapses(self):
        ext = AbelianExtensionDescriptor(6, [1])
        assert ext.conductor == 3

    def test_whole_group_is_the_rationals(self):
        ext = AbelianExtensionDescriptor(12, [1, 5, 7, 11])
        assert ext.conductor == 1
        assert ext.degree == 1

    def test_degree(self):
        assert GAUSSIAN.degree == 2
        assert AbelianExtensionDescriptor.cyclotomic(5).degree == 4
        assert AbelianExtensionDescriptor(8, [1, 7]).degree == 2

    def test_real_quadratic_conductor_8_not_reduced(self):
        ext = AbelianExtensionDescriptor(8, [1, 7])
        assert ext.conductor == 8


class TestFrobenius:
    def test_split_class(self):
        assert frobenius(GAUSSIAN, 5).coset == frozenset({1})

    def test_inert_class(self):
        assert frobenius(GAUSSIAN, 3).coset == frozenset({3})

    def test_conductor_8_example(self):
        ext = AbelianExtensionDescriptor(8, [1, 7])
        assert 1 in frobenius(ext, 17).coset

    def test_ramified_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            frobenius(GAUSSIAN, 2)

    def test_multiplicative_on_residues(self):
        ext = AbelianExtensionDescriptor.cyclotomic(20)
        m = ext.conductor
        for p1 in (3, 7, 13, 23):
            for p2 in (11, 17, 19):
                c1 = frobenius(ext, p1).coset
                c2 = frobenius(ext, p2).coset
                prod = frozenset(a * b % m for a in c1 for b in c2)
                assert prod == frozenset(
                    (p1 * p2 % m) * h % m for h in ext.subgroup
                )


class TestInProgression:
    def test_member(self):
        assert in_progression(P14, 13) is True

    def test_ramified_is_out(self):
        assert in_progression(P14, 2) is False

    def test_degree_five_progression(self):
        assert in_progression(ProgressionSpec.residue_class(1, 5), 11) is True

    def test_excluded_list(self):
        spec = ProgressionSpec.residue_class(1, 4, excluded=[13])
        assert in_progression(spec, 13) is False
        assert in_progression(spec, 17) is True

    def test_class_must_be_coset(self):
        ext = AbelianExtensionDescriptor(8, [1, 7])
        with pytest.raises(ValueError):
            ProgressionSpec(ext, [1, 3])


class TestClassIsACosetOfUnits:
    @pytest.mark.parametrize(
        "m,h,cls", [(4, [1], [2]), (4, [1], [0]), (15, [1, 4], [3, 12])]
    )
    def test_class_of_non_units_refused(self, m, h, cls):
        ext = AbelianExtensionDescriptor(m, h)
        assert ext.conductor == m
        with pytest.raises(RamifiedPrimeError, match="is not a unit mod the conductor"):
            ProgressionSpec(ext, cls)

    def test_empty_class_refused(self):
        with pytest.raises(ValueError, match="class is empty"):
            ProgressionSpec(GAUSSIAN, [])

    @pytest.mark.parametrize("m,h", [(1, [0]), (4, [1]), (8, [1, 7]), (15, [1, 4]), (21, [1, 4, 16])])
    def test_every_coset_accepted(self, m, h):
        ext = AbelianExtensionDescriptor(m, h)
        for c in ext.cosets():
            assert ext.coset(min(c)) == c
            assert ProgressionSpec(ext, c).coset == c

    def test_coset_is_the_frobenius_class(self):
        ext = AbelianExtensionDescriptor(21, [1, 4, 16])
        for p in primes_up_to(100):
            if ext.conductor % p:
                assert frobenius(ext, p).coset == ext.coset(p % ext.conductor)
            else:
                with pytest.raises(RamifiedPrimeError):
                    ext.coset(p)


class TestSplitsCompletely:
    @pytest.mark.parametrize("p,expected", [(5, True), (3, False), (2, False)])
    def test_gaussian(self, p, expected):
        assert splits_completely(GAUSSIAN, p) is expected

    def test_matches_trivial_class_progression(self):
        ext = AbelianExtensionDescriptor(8, [1, 7])
        spec = ProgressionSpec(ext, ext.subgroup)
        for p in primes_up_to(200):
            if math.gcd(p, ext.conductor) == 1:
                assert splits_completely(ext, p) == in_progression(spec, p)


class TestChebotarevDensity:
    def test_examples(self):
        assert chebotarev_density(P14) == Fraction(1, 2)
        assert chebotarev_density(ProgressionSpec.residue_class(1, 5)) == Fraction(1, 4)

    def test_whole_group(self):
        ext = AbelianExtensionDescriptor(4, [1, 3])
        assert chebotarev_density(ProgressionSpec(ext, [0])) == 1

    @pytest.mark.parametrize("m,h", [(4, [1]), (8, [1, 7]), (15, [1]), (24, [1, 7])])
    def test_cosets_sum_to_one(self, m, h):
        ext = AbelianExtensionDescriptor(m, h)
        total = sum(
            chebotarev_density(ProgressionSpec(ext, c)) for c in ext.cosets()
        )
        assert total == 1

    def test_excluded_does_not_change_density(self):
        spec = ProgressionSpec.residue_class(1, 4, excluded=[5, 13])
        assert chebotarev_density(spec) == Fraction(1, 2)


class TestNaturalDensityEstimate:
    def test_all_primes(self):
        ext = AbelianExtensionDescriptor.rationals()
        spec = ProgressionSpec(ext, [0])
        assert natural_density_estimate(spec, 10**5) == 1.0

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            natural_density_estimate(P14, 100)

    @pytest.mark.parametrize(
        "a,m,density",
        [(1, 4, 0.5), (3, 4, 0.5), (1, 5, 0.25), (1, 8, 0.25), (5, 24, 0.125)],
    )
    def test_tracks_exact_density(self, a, m, density):
        spec = ProgressionSpec.residue_class(a, m)
        assert abs(natural_density_estimate(spec, 10**5) - density) < 0.01

    def test_sieve_against_direct_count(self):
        primes = primes_up_to(3000)
        assert len(primes) == sum(1 for n in range(2, 3001) if is_prime(n))
        count = sum(1 for p in primes if p % 4 == 1)
        assert natural_density_estimate(P14, 3000) == count / len(primes)

    def test_all_conductors_up_to_24_at_one_million(self):
        for m in range(3, 25):
            ext = AbelianExtensionDescriptor.cyclotomic(m)
            for a in range(1, m):
                if math.gcd(a, m) != 1:
                    continue
                spec = ProgressionSpec(ext, [a % ext.conductor])
                exact = float(chebotarev_density(spec))
                assert abs(natural_density_estimate(spec, 10**6) - exact) <= 0.02


class TestSieveAgainstSympy:
    """The bytearray sieve and the estimate against sympy.primerange."""

    SUBGROUPS = [(1, [0]), (4, [1]), (8, [1]), (8, [1, 7]), (12, [1]), (12, [1, 11]),
                 (21, [1]), (21, [1, 4, 16])]

    @staticmethod
    def excluded_for(coset, m, bound):
        """Elements the mask cannot index or must ignore, and primes it counts."""
        primes = list(sympy.primerange(2, bound + 1))
        inside = [p for p in primes if p % m in coset]
        outside = [p for p in primes if p % m not in coset]
        above = [sympy.nextprime(bound), sympy.nextprime(sympy.nextprime(bound))]
        # q - bound - 1 would index the prime q from the mask's end.
        from_the_end = [q - bound - 1 for q in inside[-5:]]
        return set(range(-40, 2)) | {9, 15, 25, 91, 1001} | set(above) | set(
            outside[:3] + inside[:3] + inside[-2:] + from_the_end
        )

    @pytest.mark.parametrize("bound", [10**4, 10**5])
    def test_estimate_is_bit_identical_to_the_oracle(self, bound):
        primes = list(sympy.primerange(2, bound + 1))
        for m, h in self.SUBGROUPS:
            ext = AbelianExtensionDescriptor(m, h)
            assert ext.conductor == m
            for coset in ext.cosets():
                excluded = self.excluded_for(coset, m, bound)
                for ex in (set(), excluded):
                    spec = ProgressionSpec(ext, coset, ex)
                    count = sum(1 for p in primes if p % m in coset and p not in ex)
                    expected = count / len(primes)
                    assert natural_density_estimate(spec, bound).hex() == expected.hex(), (m, coset)

    def test_primes_up_to(self):
        for b in range(301):
            assert primes_up_to(b) == tuple(sympy.primerange(2, b + 1)), b
        assert primes_up_to(10**6) == tuple(sympy.primerange(2, 10**6 + 1))

    def test_cache_clear_empties_the_one_mask_cache(self):
        primes_up_to.cache_clear()
        info = primes_up_to.cache_info()
        assert info.currsize == 0
        primes_up_to(5000)
        after = primes_up_to.cache_info()
        assert (after.misses, after.hits, after.currsize) == (info.misses + 1, info.hits, 1)
        natural_density_estimate(P14, 5000)  # the same mask serves the estimate
        assert primes_up_to.cache_info().hits == info.hits + 1


class TestOddOnlyMask:
    """The odd-only mask, its cached pi(x), and the class slices read off it."""

    @pytest.mark.parametrize("bound", [1000, 1001, 10**4])
    def test_every_unit_class_up_to_60_against_sympy(self, bound):
        primes = list(sympy.primerange(2, bound + 1))
        for m in range(1, 61):
            for r in range(m):
                if math.gcd(r, m) != 1:
                    continue
                for excluded in ((), (2,)):
                    spec = ProgressionSpec.residue_class(r, m, excluded)
                    n = spec.extension.conductor
                    count = sum(1 for p in primes if p % n == r % n and p not in excluded)
                    assert natural_density_estimate(spec, bound).hex() == (count / len(primes)).hex(), (
                        r, m, excluded)

    def test_mask_has_one_byte_per_odd_number_and_caches_pi(self):
        for b in [*range(2, 300), 10**4, 10**4 + 1]:
            mask, pi = _prime_mask(b)
            assert len(mask) == (b + 1) // 2, b
            assert pi == sympy.primepi(b), b


def sieve_oracle(bound: int) -> bytearray:
    """flags[n] == 1 iff n <= bound is prime (bound >= 1): a plain sieve of
    Eratosthenes over every integer, whole mask at once, sharing no code
    with progressions."""
    flags = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return flags


# The strike's seams, each +- 2: whole wheel periods (15,015 bytes), whole
# segments (_SEGMENT bytes), and the square of the first prime past the head
# of a three-segment mask, the bound at which that prime starts to strike.
SEAMS = sorted(
    centre + d
    for centre in (
        2 * 15_015, 2 * 2 * 15_015, 2 * _SEGMENT, 2 * 2 * _SEGMENT, 2 * 3 * _SEGMENT,
        sympy.nextprime(math.isqrt(2 * 3 * _SEGMENT)) ** 2,
    )
    for d in range(-2, 3)
)


class TestSegmentedSieve:
    """The segmented strike and the block reader against sieve_oracle."""

    def test_mask_and_pi_at_every_small_bound(self):
        for b in range(2, 3001):
            flags = sieve_oracle(b)
            assert _prime_mask(b) == (flags[1::2], flags.count(1)), b

    @pytest.mark.parametrize("bound", SEAMS)
    def test_mask_and_pi_at_the_seams(self, bound):
        flags = sieve_oracle(bound)
        mask, pi = _prime_mask(bound)
        assert mask == flags[1::2]
        assert pi == flags.count(1)

    def test_every_unit_class_up_to_60_over_three_segments(self):
        bound = 4 * _SEGMENT + 999  # a mask of 2 * _SEGMENT + 500 bytes
        flags = sieve_oracle(bound)
        assert primes_up_to(bound) == tuple(itertools.compress(range(bound + 1), flags))
        for m in range(1, 61):
            for r in range(m):
                if math.gcd(r, m) == 1:
                    expected = tuple(itertools.compress(range(r, bound + 1, m), flags[r::m]))
                    assert _primes_in_class(r, m, bound) == expected, (r, m)

    def test_temporaries_stay_bounded(self):
        # Neither the strike nor a read holds a temporary that grows with
        # the bound: nothing beyond the mask, or the returned tuple and its
        # ints, reaches 256 KB.
        _prime_mask.cache_clear()
        tracemalloc.start()
        try:
            mask, _ = _prime_mask(2 * 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - len(mask) < 256 * 1024
        tracemalloc.start()
        try:
            primes = _primes_in_class(1, 4, 2 * 10**6)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(primes) == 74_416
        assert peak - kept < 256 * 1024


class TestIntersectionDensity:
    def test_containment(self):
        assert intersection_density(P14, GAUSSIAN) == Fraction(1, 2)

    def test_disjoint(self):
        assert intersection_density(P34, GAUSSIAN) == 0

    def test_cross_conductor(self):
        ext5 = AbelianExtensionDescriptor.cyclotomic(5)
        assert intersection_density(P14, ext5) == Fraction(1, 8)

    def test_matches_sieve_count(self):
        ext5 = AbelianExtensionDescriptor.cyclotomic(5)
        primes = [p for p in primes_up_to(10**5) if p > 20]
        hits = sum(
            1 for p in primes if in_progression(P14, p) and splits_completely(ext5, p)
        )
        assert abs(hits / len(primes) - 0.125) < 0.01


class TestTractableCondition:
    def test_split_progression_fixes_gaussian_field(self):
        assert tractable_condition(P14, GAUSSIAN) is True

    def test_inert_progression_moves_gaussian_field(self):
        assert tractable_condition(P34, GAUSSIAN) is False

    def test_rational_target_always_passes(self):
        rationals = AbelianExtensionDescriptor.rationals()
        for spec in (P14, P34, ProgressionSpec.residue_class(2, 3)):
            assert tractable_condition(spec, rationals) is True

    def test_equivalence_with_positive_intersection(self):
        # In the abelian setting, the restriction condition holds exactly
        # when the progression meets the split set with positive density.
        targets = [
            GAUSSIAN,
            AbelianExtensionDescriptor.cyclotomic(5),
            AbelianExtensionDescriptor(8, [1, 7]),
            AbelianExtensionDescriptor.cyclotomic(3),
            AbelianExtensionDescriptor(12, [1, 11]),
        ]
        specs = [
            ProgressionSpec.residue_class(a, m)
            for m in (3, 4, 5, 8, 12)
            for a in range(1, m)
            if math.gcd(a, m) == 1
        ]
        for spec in specs:
            for target in targets:
                cond = tractable_condition(spec, target)
                dens = intersection_density(spec, target)
                assert cond == (dens > 0), (spec, target)


class TestConductorOne:
    """Conductor 1 is Z/1 = {0}: the rationals, with the one class {0}."""

    RATIONALS = AbelianExtensionDescriptor.rationals()
    ALL_PRIMES = ProgressionSpec.residue_class(1, 2)

    def test_whole_unit_group_is_the_rationals(self):
        for m in range(1, 13):
            units = [r for r in range(m) if math.gcd(r, m) == 1]
            assert AbelianExtensionDescriptor(m, units) == self.RATIONALS

    def test_descriptor(self):
        assert AbelianExtensionDescriptor(1, [5]) == self.RATIONALS
        assert self.RATIONALS.subgroup == frozenset({0})
        assert self.RATIONALS.cosets() == [frozenset({0})]
        assert self.RATIONALS.degree == 1

    def test_frobenius(self):
        for p in (2, 3, 7):
            datum = frobenius(self.RATIONALS, p)
            assert datum.coset == frozenset({0}) and datum.representative == 0

    def test_residue_class(self):
        for a, m in ((1, 2), (5, 1), (0, 1)):
            spec = ProgressionSpec.residue_class(a, m)
            assert spec.extension == self.RATIONALS
            assert spec.coset == frozenset({0})

    def test_in_progression(self):
        assert all(in_progression(self.ALL_PRIMES, p) for p in (2, 3, 5, 101))
        spec = ProgressionSpec.residue_class(1, 2, excluded=[2])
        assert in_progression(spec, 2) is False
        assert in_progression(spec, 3) is True

    def test_splits_completely(self):
        assert all(splits_completely(self.RATIONALS, p) for p in (2, 3, 5, 101))

    def test_natural_density_estimate(self):
        primes = primes_up_to(10**4)
        assert natural_density_estimate(self.ALL_PRIMES, 10**4) == 1.0
        spec = ProgressionSpec.residue_class(1, 2, excluded=[2])
        estimate = natural_density_estimate(spec, 10**4)
        assert estimate == (len(primes) - 1) / len(primes)

    def test_intersection_density(self):
        assert intersection_density(self.ALL_PRIMES, self.RATIONALS) == 1
        assert intersection_density(self.ALL_PRIMES, GAUSSIAN) == Fraction(1, 2)
        assert intersection_density(P34, self.RATIONALS) == Fraction(1, 2)

    def test_tractable_condition(self):
        assert tractable_condition(self.ALL_PRIMES, self.RATIONALS) is True
        assert tractable_condition(self.ALL_PRIMES, GAUSSIAN) is True
        assert tractable_condition(P34, self.RATIONALS) is True


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(20) == (2, 3, 5, 7, 11, 13, 17, 19)

    def test_empty(self):
        assert primes_up_to(1) == ()


class TestAgainstEnumerationOracle:
    """Every subgroup of (Z/mZ)^x, m <= 40, against the unit-group enumeration."""

    RAW = [(m, h) for m in range(1, 41) for h in oracle.subgroups(m)]
    FIELDS = sorted(
        {oracle.minimal_conductor(m, h) for m, h in RAW}, key=lambda e: (e[0], sorted(e[1]))
    )

    def test_oracle_enumerates_every_subgroup(self):
        # The number of subgroups of (Z/mZ)^x, for the cyclic groups of
        # order phi(m) (m = 37: 9 divisors of 36) and (Z/2)^3 (m = 24: 16).
        counts = {m: sum(1 for k, _ in self.RAW if k == m) for m in (1, 2, 7, 24, 37)}
        assert counts == {1: 1, 2: 1, 7: 4, 24: 16, 37: 9}
        assert len(self.RAW) == 279 and len(self.FIELDS) == 135

    def test_descriptor_cosets_and_densities(self):
        for m, h in self.RAW:
            ext = AbelianExtensionDescriptor(m, h)
            m0, h0 = oracle.minimal_conductor(m, h)
            assert (ext.conductor, ext.subgroup) == (m0, h0), (m, h)
            assert ext.degree == oracle.degree(m0, h0)
            assert ext.cosets() == oracle.cosets(m0, h0)
            for c in ext.cosets():
                assert chebotarev_density(ProgressionSpec(ext, c)) == oracle.density(m0, h0)

    def test_descriptor_cosets_at_a_large_conductor(self):
        # 12617 = 11 * 31 * 37, and 2 has order 180 mod 12617; its subgroup
        # keeps the whole conductor and has 60 cosets.
        m = 12617
        h = frozenset(pow(2, k, m) for k in range(180))
        ext = AbelianExtensionDescriptor(m, h)
        assert oracle.minimal_conductor(m, h) == (ext.conductor, ext.subgroup) == (m, h)
        assert ext.cosets() == oracle.cosets(m, h)
        assert len(ext.cosets()) == 60

    def test_intersection_and_tractability(self):
        # Every field against every target, each pair with one coset of the
        # first field, turning through all of its cosets as the target moves.
        fields = {f: AbelianExtensionDescriptor(*f) for f in self.FIELDS}
        for i, (m1, h1) in enumerate(self.FIELDS):
            cosets = oracle.cosets(m1, h1)
            for j, (m2, h2) in enumerate(self.FIELDS):
                c = cosets[(i + j) % len(cosets)]
                spec = ProgressionSpec(fields[m1, h1], c)
                pair = (m1, sorted(c), m2, sorted(h2))
                assert intersection_density(spec, fields[m2, h2]) == (
                    oracle.intersection_density(m1, c, m2, h2)
                ), pair
                assert tractable_condition(spec, fields[m2, h2]) == (
                    oracle.tractable(m1, h1, c, m2, h2)
                ), pair

    def test_membership_matches_the_coset_of_each_prime(self):
        for m, h in self.FIELDS:
            ext = AbelianExtensionDescriptor(m, h)
            for c in ext.cosets():
                spec = ProgressionSpec(ext, c)
                for p in primes_up_to(200):
                    unramified = math.gcd(p, m) == 1
                    assert in_progression(spec, p) == (unramified and frobenius(ext, p).coset == c)
                    assert splits_completely(ext, p) == (unramified and p % m in h)
