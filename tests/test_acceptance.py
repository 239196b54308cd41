"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -s; the
per-test PASSED lines of pytest -v carry the same information).
"""

import random
import time
from fractions import Fraction

from arithlab.bounds import c_reductive, divides_power, gamma, lam, psi
from arithlab.cohomology import h1, induced_lattice
from arithlab.core import is_prime
from arithlab.experiments import (
    GAUSSIAN_UNITS,
    build_biased_prime_sets,
    density_witness,
    local_power_index,
    norm_one_constrained_units,
    CongruenceTarget,
)
from arithlab.experiments import section7_index_bound
from arithlab.progressions import (
    AbelianExtensionDescriptor,
    ProgressionSpec,
    chebotarev_density,
    intersection_density,
    natural_density_estimate,
    primes_up_to,
    tractable_condition,
)
from arithlab.symbols import (
    Place,
    hilbert_product_check,
    is_square_in_qv,
    legendre,
)

from oracle_h1 import brute_force_h1
from test_bounds import count_invertible_matrices_mod3, pow_by_squaring
from test_cohomology import CORPUS, MIXED
from test_symbols import ODD_PRIMES_UNDER_200, euler_criterion
from stdout_pins import determinism_commands, stdout_mismatches


def announce(n, message):
    print(f"ACCEPTANCE PASS criterion {n}: {message}")


def test_criterion_01_constants():
    start = time.monotonic()
    assert gamma(1) == 2 and gamma(2) == 48 and gamma(3) == 11232
    for d in (1, 2, 3):
        assert gamma(d) == count_invertible_matrices_mod3(d)
    assert lam(2) == 94
    assert psi(2) == pow_by_squaring(48, 94)
    assert c_reductive(1, 2, 1) == 8
    elapsed = time.monotonic() - start
    assert elapsed < 10
    announce(1, f"constant ladder exact, brute-force checked in {elapsed:.1f}s")


def test_criterion_02_symbols():
    start = time.monotonic()
    for p in ODD_PRIMES_UNDER_200:
        for q in ODD_PRIMES_UNDER_200:
            if p != q:
                sign = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
                assert legendre(p, q) * legendre(q, p) == sign
        for a in range(-p + 1, p):
            assert legendre(a, p) == euler_criterion(a, p)
    rng = random.Random(2026)
    for _ in range(500):
        a = Fraction(rng.randrange(-1000, 1001) or 1, rng.randrange(1, 1001))
        b = Fraction(rng.randrange(-1000, 1001) or -1, rng.randrange(1, 1001))
        assert hilbert_product_check(a, b).product == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    announce(2, f"reciprocity, Euler oracle, 500 product checks in {elapsed:.1f}s")


def test_criterion_03_cohomology():
    sign_lattice = CORPUS[0][1]
    inv = h1(sign_lattice)
    assert (inv.order, inv.divisors) == (2, (2,))
    from arithlab.cohomology import FiniteGroup

    for grp in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        assert h1(induced_lattice(grp, [grp.identity])).is_trivial
    checked = 0
    for name, lattice, membership in CORPUS + MIXED:
        assert lattice.group.order <= 6 and lattice.rank <= 3, name
        inv = h1(lattice)
        assert (inv.order, inv.divisors) == brute_force_h1(lattice, membership), name
        s, order = lattice.group.order, inv.order
        assert divides_power(order, s, lattice.rank * (s - 1)), name
        assert all(s % d == 0 for d in inv.divisors), name
        kernel_trivial = all(
            not lattice.action[g].is_identity()
            for g in lattice.group.elements()
            if g != lattice.group.identity
        )
        if kernel_trivial and lattice.rank >= 1:
            d = lattice.rank
            if d == 1:
                assert psi(1) % order == 0, name
            else:
                assert divides_power(order, gamma(d), lam(d)), name
        checked += 1
    announce(3, f"{checked} corpus lattices match the brute-force oracle and bounds")


def test_criterion_04_biased_prime_sets():
    start = time.monotonic()
    pair = build_biased_prime_sets(4)
    crosses = [legendre(p, q) for p in pair.p_list for q in pair.q_list]
    assert len(crosses) == 16 and all(x == 1 for x in crosses)
    for i in range(4):
        assert pair.p_list[i] > 5**i
    elapsed = time.monotonic() - start
    assert elapsed < 60
    announce(4, f"16 cross symbols certified, growth holds, {elapsed:.1f}s")


def test_criterion_05_density_witnesses():
    rng = random.Random(20260810)
    inert = [p for p in primes_up_to(50) if p % 4 == 3]
    passes = 0
    for _ in range(100):
        conditions = []
        alpha = rng.randrange(1, 4)
        conditions.append((2, alpha, rng.choice(range(1, 2**alpha, 2))))
        for p in rng.sample(inert, rng.randrange(0, 3)):
            alpha = rng.randrange(1, 4)
            conditions.append(
                (p, alpha, rng.choice([x for x in range(1, p**alpha) if x % p]))
            )
        target = CongruenceTarget(tuple(conditions))
        eps, prime = density_witness(target)
        assert is_prime(prime) and eps in (-1, 1)
        for q, a_exp, a in conditions:
            assert (eps * prime - a) % q**a_exp == 0
        assert prime % 4 == 1
        passes += 1
    assert passes == 100
    announce(5, "100/100 randomized congruence targets hit by certified witnesses")


def test_criterion_06_local_squares():
    for q in (5, 13):
        failures = [
            p
            for p in primes_up_to(10**4)
            if p % q == 1 and not is_square_in_qv(q, Place.finite(p))
        ]
        assert failures == []
    announce(6, "q in {5, 13} is a local square at every split prime below 10^4")


def test_criterion_07_constrained_units():
    units = norm_one_constrained_units(50)
    assert len(units) == 4
    assert set(units) == set(GAUSSIAN_UNITS)
    announce(7, "height-50 sweep finds exactly the four Gaussian units")


def test_criterion_08_power_indices():
    for n in (3, 5, 7):
        primes = [p for p in primes_up_to(10**3) if p % (4 * n) == 1]
        assert primes, n
        for p in primes:
            assert local_power_index(p, n) == n
            powers = {pow(x, n, p) for x in range(1, p)}
            assert (p - 1) // len(powers) == n
    for n in (3, 5, 7):
        primes = [p for p in primes_up_to(10**4) if p % (4 * n) == 1][:5]
        for ell in range(1, 6):
            report = section7_index_bound(n, ell, primes[:ell])
            assert report.product == n**ell
    announce(8, "local power indices equal n with counting cross-check; products exact")


def test_criterion_09_densities():
    cases = [
        (ProgressionSpec.residue_class(1, 4), Fraction(1, 2)),
        (ProgressionSpec.residue_class(3, 4), Fraction(1, 2)),
        (ProgressionSpec.residue_class(1, 5), Fraction(1, 4)),
        (ProgressionSpec.residue_class(1, 8), Fraction(1, 4)),
    ]
    for spec, expected in cases:
        assert chebotarev_density(spec) == expected
        estimate = natural_density_estimate(spec, 10**6)
        assert abs(estimate - float(expected)) <= 0.02
    gaussian = AbelianExtensionDescriptor.gaussian()
    p34 = ProgressionSpec.residue_class(3, 4)
    p14 = ProgressionSpec.residue_class(1, 4)
    assert intersection_density(p34, gaussian) == 0
    assert tractable_condition(p34, gaussian) is False
    assert tractable_condition(p14, gaussian) is True
    announce(9, "sieve estimates within 0.02; intersection and condition exact")


def test_criterion_10_cli_determinism(tmp_path):
    assert not stdout_mismatches(tmp_path)
    count = len(determinism_commands())
    announce(10, f"{count} subcommands byte-identical across runs and to pinned digests")
