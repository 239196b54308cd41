"""Each check of the benchmark accepts the right answer and rejects a corrupted one.

Run with ``python3 -m pytest bench/test_checks.py``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import inputs
import refkernel
import tasks
import tracer

A = tasks.import_arithlab()


def test_reference_kernel_is_frozen():
    assert refkernel.reference_kernel() == refkernel.EXPECTED


def test_inputs_follow_the_seed():
    for workload in ("cli-cold", "arith-core"):
        assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)
        assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)


# ---------------------------------------------------------------------------
# Answers made apart from arithlab.
# ---------------------------------------------------------------------------


def test_sieve_counts():
    flags = checks.sieve(10**4)
    assert flags.count(1) == 1229
    assert checks.count_in_class(flags, 1, 4) + checks.count_in_class(flags, 3, 4) == 1228


def test_legendre_and_jacobi():
    assert [checks.legendre_euler(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert checks.jacobi_by_factors(2, [(3, 1), (5, 1)]) == 1  # (2/3)(2/5) = (-1)(-1)
    assert checks.jacobi_of_two(inputs.TWO128_PLUS_1) == 1
    assert checks.jacobi_of_two(3) == -1


def test_hilbert_local_known_values():
    assert checks.hilbert_local(-1, -1, None) == -1
    assert checks.hilbert_local(-1, -1, 2) == -1
    assert checks.hilbert_local(2, 3, 3) == -1
    assert checks.hilbert_local(5, 5, 5) == 1  # (-1/5) = 1
    assert checks.hilbert_local(7, 7, 7) == -1  # (-1/7) = -1
    assert checks.hilbert_local(Fraction(2, 3), Fraction(1, 5), 3) == -1  # (1/5 | 3) = (2 | 3)


def test_decimal_digits_and_residues():
    assert checks.decimal_digits(10**50) == 51
    assert checks.decimal_digits(10**50 - 1) == 50
    v = 48**94
    assert checks.decimal_mod(str(v), 1_000_000_007) == v % 1_000_000_007


def test_gl_order_mod3():
    assert checks.gl_order_mod3(1) == 2
    assert checks.gl_order_mod3(2) == 48


def test_fraction_det():
    assert checks.fraction_det([[2, 1], [7, 4]]) == 1
    assert checks.fraction_det([[0, 1], [1, 0]]) == -1
    assert checks.fraction_det([[1, 2], [2, 4]]) == 0


# ---------------------------------------------------------------------------
# Checks reject corrupted answers.
# ---------------------------------------------------------------------------


def test_check_h1():
    good = SimpleNamespace(divisors=(2, 2), free_rank=0)
    assert tasks.check_h1(good, (2, 2))
    assert not tasks.check_h1(SimpleNamespace(divisors=(2,), free_rank=0), (2, 2))
    assert not tasks.check_h1(SimpleNamespace(divisors=(2, 2), free_rank=1), (2, 2))


def test_h1_corpus_matches_theory_on_small_lattices():
    corpus = tasks.h1_corpus(A)
    for name in ("norm1-C4", "J-C2xC2", "J-S3", "perm-S3/C2", "sign-S3", "sum-signS3+J-S3"):
        lattice, expected = corpus[name]
        assert tasks.check_h1(A.h1(lattice), expected), name


def test_check_power():
    assert checks.check_power(48**94, 48, 94, 159)
    assert checks.check_power(str(48**94), 48, 94, 159)
    assert not checks.check_power(48**94 + 1, 48, 94, 159)
    assert not checks.check_power(str(48**94 + 1), 48, 94, 159)
    assert not checks.check_power(48**94 * 10, 48, 94, 159)
    assert not checks.check_power(str(48**94) + "0", 48, 94, 159)


def _snf_case():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    r = A.smith_normal_form(A.IntegerMatrix.from_rows(m))
    return m, list(r.diagonal), r.left_transform.to_rows(), r.right_transform.to_rows()


def test_check_snf():
    m, d, left, right = _snf_case()
    assert checks.check_snf(m, d, left, right)
    bad_left = [row[:] for row in left]
    bad_left[0][0] += 1
    assert not checks.check_snf(m, d, bad_left, right)
    # Doubling L and D keeps L M R = D but L is no longer unimodular.
    assert not checks.check_snf(m, [2 * x for x in d], [[2 * x for x in row] for row in left], right)
    # diag(2, 3) is diagonal but not a divisor chain.
    eye = [[1, 0], [0, 1]]
    assert not checks.check_snf([[2, 0], [0, 3]], [2, 3], eye, eye)
    assert checks.check_snf([[2, 0], [0, 6]], [2, 6], eye, eye)


def test_check_hilbert_report():
    a, b = Fraction(-15, 7), Fraction(14, 3)
    report = A.hilbert_product_check(a, b)
    assert checks.check_hilbert_report(report, a, b)
    flipped = tuple((name, -v) if i == 1 else (name, v) for i, (name, v) in enumerate(report.factors))
    assert not checks.check_hilbert_report(
        SimpleNamespace(factors=flipped, product=report.product), a, b)
    assert not checks.check_hilbert_report(SimpleNamespace(factors=report.factors, product=-1), a, b)
    assert not checks.check_hilbert_report(
        SimpleNamespace(factors=report.factors[:-1], product=report.product), a, b)


def test_arith_core_checks():
    pairs = [[1000003, 1000033]]
    assert tasks.check_factors([A.factor(1000003 * 1000033)], pairs)
    assert not tasks.check_factors([A.factor(1000003 * 1000037)], pairs)

    pair = A.build_biased_prime_sets(2)
    e = {"P": list(pair.p_list), "Q": list(pair.q_list)}
    assert tasks.check_biased(pair, e)
    assert not tasks.check_biased(SimpleNamespace(p_list=pair.p_list, q_list=(13, 53)), e)

    assert tasks.check_minkowski(SimpleNamespace(order=7, passed=True))
    assert not tasks.check_minkowski(SimpleNamespace(order=14, passed=True))

    primes = A.primes_up_to(10**4)
    e = {"count": 1229, "last": 9973}
    assert tasks.check_sieve(primes, e)
    assert not tasks.check_sieve(primes[:-1], e)
    assert not tasks.check_sieve(primes[1:], {"count": 1228, "last": 9973})

    flags = checks.sieve(10**6)
    e = {"count": checks.count_in_class(flags, 1, 4), "total": flags.count(1), "phi": 2}
    value = A.natural_density_estimate(A.ProgressionSpec.residue_class(1, 4), 10**6)
    assert tasks.check_estimate(value, e)
    assert not tasks.check_estimate(value + 1e-9, e)
    assert not tasks.check_estimate(value, dict(e, phi=3))


def test_check_artin():
    q, bound = 5, 3000
    flags = checks.sieve(bound)
    checked = [p for p in range(q + 1, bound + 1, q) if flags[p]]
    e = {"q": q, "count": len(checked), "first": checked[:3]}
    report = A.artin_kernel_evidence(q, bound)
    assert tasks.check_artin(report, e)
    assert not tasks.check_artin(report, dict(e, count=len(checked) + 1))
    bad = list(report.sampled_symbols)
    bad[0] = (bad[0][0], -1)
    assert not tasks.check_artin(SimpleNamespace(
        checked_primes=report.checked_primes, failures=(), sampled_symbols=tuple(bad)), e)
    assert not tasks.check_artin(SimpleNamespace(
        checked_primes=report.checked_primes, failures=(11,),
        sampled_symbols=report.sampled_symbols), e)


def test_check_snf_all_on_seeded_matrices():
    ms = inputs.make_inputs("arith-core", 3)["snf12"][:2]
    results = [A.smith_normal_form(A.IntegerMatrix.from_rows(m)) for m in ms]
    assert tasks.check_snf_all(results, ms)
    assert not tasks.check_snf_all(results[::-1], ms)


CLI_GOOD = [
    ("int", {"value": "6"}, {"value": 6}),
    ("index", {"index": "4"}, {"value": 4}),
    ("power", {"value": str(48**94)}, {"base": 48, "exponent": 94, "digits": 159}),
    ("fraction", {"density": "1/4"}, {"value": [1, 4]}),
    ("estimate", {"estimate": repr(401 / 1600), "exact": "1/4"},
     {"count": 401, "total": 1600, "phi": 4}),
    ("tractable", {"tractable": True, "intersection_density": "1/8"},
     {"tractable": True, "density": [2, 16]}),
    ("h1", {"elementary_divisors": ["2", "2"], "free_rank": "0", "order": "4"},
     {"divisors": [2, 2]}),
    ("biased", {"P": ["5", "29"], "Q": ["13", "53"]}, {"P": [5, 29], "Q": [13, 53]}),
    ("witness", {"epsilon": "-1", "prime": "13", "witness": "-13"}, {"epsilon": -1, "prime": 13}),
    ("artin", {"checked_count": "3", "failures": [], "first_checked": ["11", "31", "41"]},
     {"count": 3, "first": [11, 31, 41]}),
    ("units", {"units": ["-1+0i", "0-1i", "0+1i", "1+0i"], "count": "4"},
     {"units": ["-1+0i", "0-1i", "0+1i", "1+0i"]}),
    ("section7", {"local_indices": ["3", "3"], "product": "9", "lower_bound": "9/4",
                  "partial_bounds": ["3/4", "9/4"]}, {"n": 3, "ell": 2}),
]


@pytest.mark.parametrize("kind,out,expect", CLI_GOOD, ids=[c[0] for c in CLI_GOOD])
def test_cli_checks_reject_each_corrupted_field(kind, out, expect):
    assert tasks.check_cli_outputs(kind, out, expect)
    for key, value in out.items():
        if isinstance(value, bool):
            bad = not value
        elif isinstance(value, list):
            bad = value[:-1] + ["7"] if value else ["7"]
        else:
            bad = value + "1"
        assert not tasks.check_cli_outputs(kind, dict(out, **{key: bad}), expect), key


def test_cli_report_needs_status_ok():
    report = {"status": "certification-failure", "certifications": [{"name": "x", "passed": False}],
              "outputs": {"value": "6"}}
    proc = SimpleNamespace(stdout=json.dumps(report))
    assert not tasks.check_cli(proc, "int", {"value": 6})
    report.update(status="ok", certifications=[{"name": "x", "passed": True}])
    assert tasks.check_cli(SimpleNamespace(stdout=json.dumps(report)), "int", {"value": 6})


def test_known_faults_expect_the_right_values():
    cli = inputs.make_inputs("cli-cold", 1)["invocations"][-1]
    assert cli["argv"] == ["symbol", "jacobi", "2", str(2**128 + 1)]
    assert cli["expect"] == {"value": 1}
    core = inputs.make_inputs("arith-core", 1)
    assert core["psi2"] == {"base": 48, "exponent": 94, "digits": 159}


def test_benchmark_json_lists_the_traced_metrics():
    root = os.path.dirname(tasks.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    readers = {name: unit for name, (unit, _, _) in tracer.LAYER_READERS.items()}
    for name, unit in readers.items():
        assert listed.get(name) == unit, name
    assert set(listed) - set(readers) == {
        "cli.interpreter_ms", "cli.import_ms", "cli.handler_ms", "cli.render_ms",
        "cli.stdout_bytes", "bench.ref_kernel_ms", "bench.raw_pass_s", "bench.trace_overhead_s",
    }
