import gc
import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import jacobi_symbol
from sympy.ntheory import n_order, primitive_root

from arithlab import cli, cohomology, progressions
from arithlab.cohomology import AbelianGroupInvariants
from arithlab.core import IntegerMatrix, determinant
from arithlab.progressions import primes_up_to
from stdout_pins import (
    BAD_LATTICE_FILES,
    VALID_LATTICE_FILES,
    determinism_commands,
    parser_disagreements,
    sweep_commands,
)
from test_cohomology import S4_C2, augmentation_dual_matrices
from tree_python import run_python, tree_env

SIGN_LATTICE = """# order-2 group acting on a rank-1 lattice by negation
2
0 1
1 0
1
1     # identity acts trivially
-1    # the involution negates
"""


def run_cli(args):
    return run_python(["-m", "arithlab", *args], text=True)


def run_in_process(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One well-formed command for each leaf, and for each family without leaves.
WELL_FORMED = [
    ["constants", "gamma", "2"],
    ["constants", "lambda", "2"],
    ["constants", "psi", "2"],
    ["constants", "ctilde", "1", "2"],
    ["constants", "ctilde-improved", "1", "3"],
    ["constants", "creductive", "1", "2", "1"],
    ["symbol", "legendre", "11", "5"],
    ["symbol", "jacobi", "2", "15"],
    ["symbol", "hilbert", "2", "3", "inf"],
    ["density", "exact", "1(4)"],
    ["density", "estimate", "1(4)", "--bound", "100000"],
    ["density", "intersection", "1(4)", "5"],
    ["tractable", "1(4)", "4:1"],
    ["h1", "sign.txt"],
    ["example", "2.1", "--ell", "2"],
    ["example", "2.3", "--target", "2^2=3"],
    ["example", "2.4", "--q", "5", "--bound", "1000"],
    ["example", "2.5", "--height", "10"],
    ["section7", "3", "2", "13", "37"],
    ["local-index", "13", "3"],
]


class TestReports:
    def test_gamma_value(self, capsys):
        code, out, _ = run_in_process(["constants", "gamma", "2"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["value"] == "48"
        assert report["status"] == "ok"
        assert report["provenance"]["module"] == "arithlab.bounds"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_invertible_count_mod3_against_determinants(self, d, capsys):
        matrices = itertools.product(range(3), repeat=d * d)
        expected = sum(1 for m in matrices if determinant(IntegerMatrix(d, d, m)) % 3)
        assert cli._count_invertible_mod3(d) == expected
        _, out, _ = run_in_process(["constants", "gamma", str(d)], capsys)
        certs = json.loads(out)["certifications"]
        assert certs == [{"name": "matches-brute-force-count", "passed": True}]

    def test_legendre_report(self, capsys):
        code, out, _ = run_in_process(["symbol", "legendre", "11", "5"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["value"] == "1"
        assert report["certifications"][0]["name"] == "euler-criterion-agreement"

    def test_hilbert_with_rational_arguments(self, capsys):
        code, out, _ = run_in_process(["symbol", "hilbert", "-1", "-1", "2"], capsys)
        report = json.loads(out)
        assert code == 0 and report["outputs"]["value"] == "-1"

    def test_density_exact(self, capsys):
        code, out, _ = run_in_process(["density", "exact", "1(4)"], capsys)
        assert code == 0
        assert json.loads(out)["outputs"]["density"] == "1/2"

    def test_density_intersection(self, capsys):
        code, out, _ = run_in_process(
            ["density", "intersection", "3(4)", "4:1"], capsys
        )
        assert code == 0
        assert json.loads(out)["outputs"]["density"] == "0"

    def test_tractable(self, capsys):
        code, out, _ = run_in_process(["tractable", "1(4)", "4:1"], capsys)
        report = json.loads(out)
        assert code == 0 and report["outputs"]["tractable"] is True
        code, out, _ = run_in_process(["tractable", "3(4)", "4:1"], capsys)
        report = json.loads(out)
        assert code == 0 and report["outputs"]["tractable"] is False

    def test_exact_integers_are_strings(self, capsys):
        code, out, _ = run_in_process(["constants", "psi", "2"], capsys)
        report = json.loads(out)
        value = report["outputs"]["value"]
        assert isinstance(value, str) and len(value) == 159

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run_in_process(["constants", "gamma", "1"], capsys)
        assert "wall-time" in err
        assert "wall-time" not in out

    def test_section7(self, capsys):
        code, out, _ = run_in_process(["section7", "3", "2", "13", "37"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["product"] == "9"
        assert report["outputs"]["lower_bound"] == "9/4"

    def test_local_index(self, capsys):
        code, out, _ = run_in_process(["local-index", "13", "3"], capsys)
        assert code == 0
        assert json.loads(out)["outputs"]["index"] == "3"

    def test_example_witness(self, capsys):
        code, out, _ = run_in_process(
            ["example", "2.3", "--target", "2^2=3,7^1=2"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["witness"] == "-5"

    def test_example_constrained_units(self, capsys):
        code, out, _ = run_in_process(["example", "2.5", "--height", "20"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["count"] == "4"
        assert all(c["passed"] for c in report["certifications"])


class TestLatticeFile:
    def test_h1_from_file(self, tmp_path, capsys):
        path = tmp_path / "sign.txt"
        path.write_text(SIGN_LATTICE)
        code, out, _ = run_in_process(["h1", str(path)], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["elementary_divisors"] == ["2"]
        assert report["outputs"]["order"] == "2"

    @staticmethod
    def write_j_s4xc2(path, swap=()):
        """J_{S4 x C2} (order 48, rank 47) as a lattice file; swap names
        two elements whose action matrices trade places."""
        mats = augmentation_dual_matrices(S4_C2)
        if swap:
            i, j = swap
            mats[i], mats[j] = mats[j], mats[i]
        tokens = [S4_C2.order, *(x for row in S4_C2.table for x in row), S4_C2.order - 1]
        path.write_text(" ".join(map(str, tokens + [x for m in mats for x in m.entries])))

    def test_order_48(self, tmp_path, capsys):
        # H^1(G, J_G) is dual to G^ab, which is C2 x C2 for S4 x C2.
        path = tmp_path / "j-s4xc2.txt"
        self.write_j_s4xc2(path)
        code, out, _ = run_in_process(["h1", str(path)], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["elementary_divisors"] == ["2", "2"]
        assert (report["outputs"]["group_order"], report["outputs"]["rank"]) == ("48", "47")
        assert report["certifications"] and all(c["passed"] for c in report["certifications"])

    def test_order_48_swapped_matrices(self, tmp_path, capsys):
        # Elements 1 and 2 (the central involution and a transposition)
        # trade matrices; the identity's matrix stays in place.
        path = tmp_path / "j-s4xc2-swapped.txt"
        self.write_j_s4xc2(path, swap=(1, 2))
        code, out, err = run_in_process(["h1", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "action does not respect the group table" in err

    def test_non_integer_token(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("two\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and "malformed lattice file" in err

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("2\n0 1\n1 0\n1\n1\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and "truncated" in err

    def test_trailing_tokens(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text(SIGN_LATTICE + "\n7\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and "trailing" in err

    def test_invalid_group_table(self, tmp_path, capsys):
        path = tmp_path / "notgroup.txt"
        path.write_text("2\n1 1\n1 1\n1\n1\n1\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and "malformed lattice file" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"2\n\xff\xfe\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and err.startswith("error: cannot read lattice file") and "utf-8" in err

    @pytest.mark.parametrize("order", [3, 48])
    def test_order_beyond_the_file_is_truncated(self, order, tmp_path, capsys):
        path = tmp_path / "short-table.txt"
        path.write_text(f"{order}\n0 1\n1 0\n")
        code, _, err = run_in_process(["h1", str(path)], capsys)
        assert code == 2 and err.endswith("truncated multiplication table\n")

    @pytest.mark.parametrize(
        "tail, message",
        [("-1\n", "rank must be nonnegative"), ("-2\n1 0 0 1 1 0 0 -1\n", "8 trailing tokens")],
        ids=["no-tokens-after", "tokens-after"],
    )
    def test_negative_rank_refused(self, tail, message, tmp_path, capsys, monkeypatch):
        # No action matrix is read for a negative rank (d * d is positive),
        # so tokens after it are trailing ones.
        def no_matrix(*args):
            raise AssertionError("an action matrix was read")

        monkeypatch.setattr(IntegerMatrix, "__post_init__", no_matrix)
        path = tmp_path / "negative.txt"
        path.write_text("2\n0 1\n1 0\n" + tail)
        code, out, err = run_in_process(["h1", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: malformed lattice file {str(path)!r}: {message}\n"

    def test_missing_file(self, capsys):
        code, _, err = run_in_process(["h1", "/nonexistent/lattice.txt"], capsys)
        assert code == 2 and "cannot read" in err

    # One file for each fault the reader names itself, with the detail its
    # message ends in; the sweep's bad files are read beside them.
    READER_FAULTS = {
        "empty.txt": ("# a comment only\n", "truncated group order"),
        "long-token.txt": (
            "1\n" + "9" * (cli.MAX_INT_DIGITS + 1) + "\n",
            f"a token of {cli.MAX_INT_DIGITS + 1} characters exceeds "
            f"MAX_INT_DIGITS = {cli.MAX_INT_DIGITS}",
        ),
        "rank65.txt": ("1\n0\n65\n", "lattice rank must be at most 64, got 65"),
        "trailing.txt": ("1\n0\n0\n7 8\n", "2 trailing tokens"),
        "x-entry.txt": ("1\n0\n1\nx\n", "non-integer token 'x'"),
    }

    @pytest.mark.parametrize("name", sorted({**BAD_LATTICE_FILES, **READER_FAULTS}))
    def test_fault_prefix_written_once(self, name, tmp_path, capsys, monkeypatch):
        text, detail = self.READER_FAULTS.get(name) or (BAD_LATTICE_FILES[name], None)
        (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_in_process(["h1", name], capsys)
        prefix = f"error: malformed lattice file {name!r}: "
        assert (code, out) == (2, "")
        assert err.startswith(prefix) and err.count("malformed lattice file") == 1, err
        assert detail is None or err == f"{prefix}{detail}\n"


class TestExitCodes:
    def test_unknown_subcommand(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_digit_cap_overflow(self):
        result = run_cli(["constants", "psi", "4"])
        assert result.returncode == 2
        assert "digit cap exceeded" in result.stderr

    def test_lambda_held_to_the_digit_cap(self, capsys, monkeypatch):
        # gamma(10) has 48 digits and lambda(10) = 10 * (gamma(10) - 1) has 49.
        monkeypatch.setenv("ASA_DIGIT_CAP", "48")
        code, out, _ = run_in_process(["constants", "gamma", "10"], capsys)
        assert code == 0 and len(json.loads(out)["outputs"]["value"]) == 48
        code, out, err = run_in_process(["constants", "lambda", "10"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: digit cap exceeded: lam(10) = d * (gamma(d) - 1)")
        assert "about 49 decimal digits, beyond the 48-digit cap\n" in err
        monkeypatch.setenv("ASA_DIGIT_CAP", "49")
        code, out, _ = run_in_process(["constants", "lambda", "10"], capsys)
        assert code == 0 and len(json.loads(out)["outputs"]["value"]) == 49

    @pytest.mark.parametrize("command", [["lambda", "1447"], ["ctilde", "1447", "1"]])
    def test_lambda_refused_before_gamma_is_formed(self, command, capsys, monkeypatch):
        # gamma(1447) has 999,001 digits and lambda(1447) 999,004: under a
        # cap between them both commands refuse lambda(1447) unformed.
        from arithlab import bounds

        def formed(d):
            raise AssertionError(f"gamma({d}) formed")

        monkeypatch.setattr(bounds, "_gamma_product", formed)
        monkeypatch.setenv("ASA_DIGIT_CAP", "999002")
        assert run_in_process(["constants", *command], capsys) == (
            2,
            "",
            "error: digit cap exceeded: lam(1447) = d * (gamma(d) - 1) with about 999004 "
            "decimal digits, beyond the 999002-digit cap\n",
        )

    def test_size_report_counts_digits_exactly(self, capsys):
        d = 10**50 - 1  # math.log10 rounds it up to 50
        code, out, err = run_in_process(["constants", "gamma", str(d)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: digit cap exceeded: gamma(<50-digit integer>) = prod_")

    @pytest.mark.parametrize(
        "command,fits",
        [
            # 2^331 * 2 has 100 digits, 2^332 * 2 has 101.
            (["creductive", "1", "1", "331"], True),
            (["creductive", "1", "1", "332"], False),
            # c_tilde(1, n) = 2 n, which reaches 10^100 at n = 5 * 10^99.
            (["ctilde", "1", str(5 * 10**99 - 1)], True),
            (["ctilde", "1", str(5 * 10**99)], False),
            (["ctilde-improved", "1", str(5 * 10**99 - 1)], True),
            (["ctilde-improved", "1", str(5 * 10**99)], False),
        ],
    )
    def test_whole_value_held_to_the_digit_cap(self, command, fits, capsys, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", "100")
        code, out, err = run_in_process(["constants", *command], capsys)
        if fits:
            assert code == 0
            assert len(json.loads(out)["outputs"]["value"]) == 100
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: digit cap exceeded: c_")
            assert err.endswith("with about 101 decimal digits, beyond the 100-digit cap\n")

    @pytest.mark.parametrize("r", [10**12, 10**1000])
    def test_huge_real_place_count_refused_at_once(self, r, capsys):
        start = time.monotonic()
        code, out, err = run_in_process(["constants", "creductive", "1", "1", str(r)], capsys)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: digit cap exceeded: c_reductive(1, 1, ")
        assert ("<1001-digit integer>" in err) == (r > 10**40)

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["constants", "gamma", "2"], 0),
            (["constants", "gamma"], 2),  # argparse exits
            (["symbol", "hilbert", "--", "x", "1", "5"], 2),  # UsageError
            (["constants", "gamma", "1448"], 2),  # digit-cap refusal
        ],
        ids=["success", "argparse-exit", "usage-error", "digit-cap"],
    )
    def test_run_hands_back_the_int_string_guard(self, args, expected, capsys):
        guard = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            code, _, _ = run_in_process(args, capsys)
            assert (code, sys.get_int_max_str_digits()) == (expected, 5000)
        finally:
            sys.set_int_max_str_digits(guard)

    @pytest.mark.parametrize("n", [0, 2**70, -(2**70 + 1)])
    def test_jacobi_bad_modulus_refused_by_jacobi_beyond_factor(self, n, capsys):
        # The FACTOR_LIMIT refusal on a mod n must not preempt, or divide by, a bad n.
        code, out, err = run_in_process(["symbol", "jacobi", "--", str(2**100 - 1), str(n)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: invalid input: jacobi requires odd n >= 1, got {n}\n"

    @pytest.mark.parametrize("cap", ["0", "abc"])
    def test_bad_digit_cap_refused(self, cap, capsys, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", cap)
        code, out, err = run_in_process(["constants", "gamma", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: invalid input: ASA_DIGIT_CAP must be a positive integer, got {cap}\n"
        )

    @pytest.mark.parametrize("cap", [10**7 + 1, 10**309], ids=["10^7+1", "10^309"])
    def test_cap_past_float_range_refused(self, cap, capsys, monkeypatch):
        # A cap above 10^7 is refused: under it the largest rung admitted,
        # gamma(4578), is formed and printed within a minute.
        monkeypatch.setenv("ASA_DIGIT_CAP", str(cap))
        code, out, err = run_in_process(["constants", "gamma", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: invalid input: ASA_DIGIT_CAP must be at most 10^7, got {cap}\n"

    @pytest.mark.parametrize(
        "command, report",
        [
            (
                ["psi", "5"],
                "psi(5) = 475566474240^2377832371195 with about 27766450869868 decimal digits",
            ),
            (
                ["ctilde", "10", "1"],
                "gamma(<49-digit integer>) = prod_{i=0}^{d-1} (3^d - 3^i) at d = <49-digit "
                "integer> with about 3.9761e+96 decimal digits",
            ),
        ],
    )
    def test_largest_cap_refuses_before_forming(self, command, report, capsys, monkeypatch):
        # Neither forms a value: psi(5) has 2.8 * 10^13 digits, and ctilde
        # refuses gamma(lam(10)), with about 4 * 10^96, from its logarithm.
        monkeypatch.setenv("ASA_DIGIT_CAP", str(10**7))
        start = time.monotonic()
        result = run_in_process(["constants", *command], capsys)
        assert time.monotonic() - start < 1.0
        assert result == (
            2, "", f"error: digit cap exceeded: {report}, beyond the 10000000-digit cap\n"
        )

    DECOUPLED = [
        "symbol legendre 2 7",
        "density exact 1(4)",
        "tractable 1(4) 4:1",
        "h1 sign.txt",
        "example 2.5 --height 10",
        "section7 3 2 13 37",
        "local-index 13 3",
    ]

    @pytest.mark.parametrize("cap", ["abc", "0", str(10**7 + 1)])
    def test_only_constants_reads_the_digit_cap(self, cap, tmp_path, capsys, monkeypatch):
        # A cap that constants refuses changes no other command.
        (tmp_path / "sign.txt").write_text(SIGN_LATTICE)
        monkeypatch.chdir(tmp_path)
        for command in self.DECOUPLED:
            monkeypatch.delenv("ASA_DIGIT_CAP", raising=False)
            code, out, _ = run_in_process(command.split(), capsys)
            assert code == 0, command
            monkeypatch.setenv("ASA_DIGIT_CAP", cap)
            assert run_in_process(command.split(), capsys)[:2] == (code, out), command

    def test_long_argument_under_a_small_cap(self, capsys, monkeypatch):
        # The int-string guard is MAX_INT_DIGITS whatever the cap.
        monkeypatch.setenv("ASA_DIGIT_CAP", "48")
        a = "3" * 25_000
        code, out, _ = run_in_process(["symbol", "legendre", a, "7"], capsys)
        assert code == 0 and json.loads(out)["inputs"]["a"] == a

    def test_longest_argv_string_runs_cold(self):
        # Linux caps one argv string at 128 KiB, its terminating NUL included.
        a = "3" * (cli.MAX_INT_DIGITS - 1)
        result = run_cli(["symbol", "legendre", a, "7"])
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["inputs"]["a"] == a

    PRIME_BELOW_TWO = {
        "symbol legendre -- 3 -7": "invalid input: legendre requires an odd prime, got -7",
        "local-index -- -5 3": "invalid input: -5 is not prime",
        "symbol hilbert -- 1 1 -5": "invalid input: -5 is not prime",
        "section7 3 1 0": "invalid input: list element 0 is not prime",
        "example 2.3 --target 2^1=1,0^1=1": "invalid input: 0 is not prime",
        "example 2.4 --q=-3": "invalid input: q must be a prime congruent to 1 mod 4, got -3",
    }

    @pytest.mark.parametrize("command", PRIME_BELOW_TWO)
    def test_prime_below_two_refused_in_the_callers_words(self, command, capsys):
        # is_prime answers False below 2, so each caller refuses with its own message.
        code, out, err = run_in_process(command.split(), capsys)
        assert (code, out, err) == (2, "", f"error: {self.PRIME_BELOW_TWO[command]}\n")

    @pytest.mark.parametrize("place", ["4", str(2**4096 + 81)], ids=["4", "2^4096+81"])
    def test_refused_place_is_invalid_input(self, place, capsys):
        # An integer place that Place refuses is not unparseable, and the
        # refusal never echoes its digits.
        code, out, err = run_in_process(["symbol", "hilbert", "3", "5", place], capsys)
        assert (code, out) == (2, "") and err.startswith("error: invalid input: ")
        assert len(err.encode()) < 200

    def test_non_integer_place_is_unparseable(self, capsys):
        code, out, err = run_in_process(["symbol", "hilbert", "3", "5", "zz"], capsys)
        assert (code, out) == (2, "") and err.startswith("error: cannot parse place 'zz': ")

    def test_invalid_input_value(self, capsys):
        code, _, err = run_in_process(["symbol", "legendre", "3", "4"], capsys)
        assert code == 2 and "invalid input" in err

    def test_bad_progression_token(self, capsys):
        code, _, err = run_in_process(["density", "exact", "nonsense"], capsys)
        assert code == 2 and "cannot parse progression" in err

    def test_certification_failure_exits_one(self, capsys, monkeypatch):
        import arithlab.progressions as progressions_module

        monkeypatch.setattr(
            progressions_module, "natural_density_estimate", lambda spec, bound: 0.9
        )
        code, out, _ = run_in_process(
            ["density", "estimate", "1(4)", "--bound", "10000"], capsys
        )
        assert code == 1
        assert json.loads(out)["status"] == "certification-failure"


def _case_ids(cases):
    """Each case's test id: its certification name, followed by the
    replaced fields for every case of that name after the first."""
    ids, seen = [], set()
    for name, _, wrong in cases:
        ids.append("-".join([name, *wrong]) if name in seen else name)
        seen.add(name)
    return ids


class TestCertificationsCanFail:
    """Each certification reads the printed answer, so a wrong one fails it."""

    # Cases: a certification name, a command, and outputs that replace its
    # correct ones.  A name with several cases has one per printed field it reads.
    WRONG_OUTPUTS = [
        ("matches-brute-force-count", ["constants", "gamma", "2"], {"value": 49}),
        ("digit-count-matches-log-estimate", ["constants", "psi", "1"], {"value": "20"}),
        ("euler-criterion-agreement", ["symbol", "legendre", "2", "7"], {"value": -1}),
        ("multiplicative-over-factorization", ["symbol", "jacobi", "2", "15"], {"value": -1}),
        ("reciprocity-product-is-one", ["symbol", "hilbert", "2", "3", "7"], {"value": -1}),
        ("coset-densities-sum-to-one", ["density", "exact", "1(5)"], {"density": Fraction(1, 3)}),
        (
            "within-0.02-of-exact",
            ["density", "estimate", "1(4)", "--bound", "100000"],
            {"estimate": 0.9},
        ),
        (
            "bounded-by-progression-density",
            ["density", "intersection", "1(4)", "3"],
            {"density": Fraction(1)},
        ),
        ("density-positivity-matches-condition", ["tractable", "1(4)", "4:1"], {"tractable": False}),
        ("free-rank-zero", ["h1", "sign.txt"], {"free_rank": 1}),
        ("order-divides-power-bound", ["h1", "sign.txt"], {"order": 3}),
        ("order-divides-power-bound", ["h1", "sign.txt"], {"group_order": 4}),
        ("order-divides-power-bound", ["h1", "sign.txt"], {"rank": 2}),
        ("annihilated-by-group-order", ["h1", "sign.txt"], {"elementary_divisors": [4]}),
        ("cross-symbols-all-one", ["example", "2.1", "--ell", "2"], {"Q": [13, 16421]}),
        ("sets-disjoint", ["example", "2.1", "--ell", "2"], {"Q": [5, 16421]}),
        ("all-one-mod-four", ["example", "2.1", "--ell", "2"], {"Q": [41, 16423]}),
        ("growth-beats-geometric", ["example", "2.1", "--ell", "2"], {"P": [5, 5]}),
        ("witness-satisfies-target", ["example", "2.3", "--target", "2^2=1"], {"prime": 3}),
        ("witness-satisfies-target", ["example", "2.3", "--target", "2^2=1"], {"witness": 7}),
        ("zero-failures", ["example", "2.4", "--q", "5", "--bound", "100"], {"failures": [11]}),
        (
            "sampled-symbols-trivial",
            ["example", "2.4", "--q", "5", "--bound", "100"],
            {"first_checked": [3]},
        ),
        ("exactly-four-units", ["example", "2.5", "--height", "4"], {"count": 5}),
        (
            "units-are-the-gaussian-units",
            ["example", "2.5", "--height", "4"],
            {"units": ["-1+0i", "0-1i", "0+1i", "2+0i"]},
        ),
        ("product-equals-n-to-ell", ["section7", "3", "1", "13"], {"product": 4}),
        (
            "product-equals-n-to-ell",
            ["section7", "3", "2", "13", "37"],
            {"local_indices": [3, 9]},
        ),
        ("product-equals-n-to-ell", ["section7", "3", "0"], {"lower_bound": Fraction(9, 4)}),
        (
            "bounds-strictly-increasing",
            ["section7", "3", "2", "13", "37"],
            {"partial_bounds": [Fraction(9, 4), Fraction(3, 4)]},
        ),
        ("power-count-agrees", ["local-index", "13", "3"], {"index": 2}),
    ]

    @pytest.mark.parametrize("name,argv,wrong", WRONG_OUTPUTS, ids=_case_ids(WRONG_OUTPUTS))
    def test_wrong_output_fails(self, name, argv, wrong, tmp_path, monkeypatch):
        (tmp_path / "sign.txt").write_text(SIGN_LATTICE)
        monkeypatch.chdir(tmp_path)
        args = cli._build_parser().parse_args(argv)
        compute, certify, _ = cli._GRAMMAR[args.cmd][1]
        _, outputs, _, _, parsed = compute(args)
        assert all(c["passed"] for c in certify(args, parsed, outputs))
        certs = certify(args, parsed, {**outputs, **wrong})
        assert {c["name"]: c["passed"] for c in certs}[name] is False

    @pytest.mark.parametrize(
        "walk", [lambda cs: cs[1:], lambda cs: cs + cs[:1]], ids=["dropped", "repeated"]
    )
    def test_coset_walk_that_drops_or_repeats_a_coset_fails(self, walk, monkeypatch):
        cosets = progressions.AbelianExtensionDescriptor.cosets
        monkeypatch.setattr(
            progressions.AbelianExtensionDescriptor, "cosets", lambda ext: walk(cosets(ext))
        )
        args = cli._build_parser().parse_args(["density", "exact", "1(12)"])
        compute, certify, _ = cli._GRAMMAR["density"][1]
        _, outputs, _, _, spec = compute(args)
        assert outputs == {"density": Fraction(1, 4)}
        certs = certify(args, spec, outputs)
        assert certs == [{"name": "coset-densities-sum-to-one", "passed": False}]

    @pytest.mark.parametrize(
        "argv,name,printed",
        [
            (["density", "exact", "1(5)"], "coset-densities-sum-to-one", {"density": "1/3"}),
            (["symbol", "hilbert", "2", "3", "3"], "reciprocity-product-is-one", {"value": "1"}),
            (["symbol", "hilbert", "2", "3", "7"], "reciprocity-product-is-one", {"value": "-1"}),
            (["h1", "sign.txt"], "free-rank-zero", {"free_rank": "1", "order": "infinite"}),
        ],
        ids=["density-exact", "hilbert-at-3", "hilbert-at-7", "h1-free-rank"],
    )
    def test_wrong_answer_exits_one(self, argv, name, printed, tmp_path, capsys, monkeypatch):
        # The density of 1(5) is 1/4, not 1/3; (2, 3)_3 = -1 and (2, 3)_7 = 1;
        # H^1 of a finite group is finite.  Each command calls one of these.
        from arithlab import symbols

        hilbert, h1 = symbols.hilbert_symbol, cohomology.h1
        monkeypatch.setattr(progressions, "chebotarev_density", lambda spec: Fraction(1, 3))
        monkeypatch.setattr(symbols, "hilbert_symbol", lambda *args: -hilbert(*args))
        monkeypatch.setattr(
            cohomology, "h1", lambda lattice: AbelianGroupInvariants(h1(lattice).divisors, 1)
        )
        (tmp_path / "sign.txt").write_text(SIGN_LATTICE)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_in_process(argv, capsys)
        report = json.loads(out)
        assert code == 1 and report["status"] == "certification-failure"
        assert printed.items() <= report["outputs"].items()
        assert {"name": name, "passed": False} in report["certifications"]


class TestBoundedWork:
    """Commands whose certification once enumerated a whole unit group."""

    TWO128_PLUS_1 = 2**128 + 1  # = 59649589127497217 * 5704689200685129054721

    @pytest.mark.parametrize(
        "command,outputs",
        [
            (["density", "exact", "1(30000)"], {"density": "1/8000"}),
            (["density", "intersection", "1(9973)", "9967"], {"density": "1/99380952"}),
            (
                ["tractable", "1(9973)", "9967"],
                {"tractable": True, "intersection_density": "1/99380952"},
            ),
        ],
    )
    def test_large_conductors_run_in_bounded_time(self, command, outputs, capsys):
        start = time.monotonic()
        code, out, _ = run_in_process(command, capsys)
        assert time.monotonic() - start < 2.0
        assert code == 0 and json.loads(out)["outputs"] == outputs

    def test_density_exact_factors_the_conductor_once(self, capsys, monkeypatch):
        # The certification sums 9972 coset densities; each reads the
        # descriptor's phi instead of factoring 9973 again.
        calls = []
        factor = progressions.factor
        monkeypatch.setattr(progressions, "factor", lambda n: calls.append(n) or factor(n))
        code, out, _ = run_in_process(["density", "exact", "3(9973)"], capsys)
        report = json.loads(out)
        assert code == 0 and report["outputs"] == {"density": "1/9972"}
        assert report["certifications"] == [{"name": "coset-densities-sum-to-one", "passed": True}]
        assert calls == [9973]

    @pytest.mark.parametrize(
        "a", [2, 3, 12, 0, 59649589127497217 * 3, 2**64, 2**64 - 59, -(2**128), 7 - 2**128]
    )
    def test_jacobi_beyond_factor_certified_through_a(self, a, capsys):
        n = self.TWO128_PLUS_1
        code, out, _ = run_in_process(["symbol", "jacobi", "--", str(a), str(n)], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["value"] == str(jacobi_symbol(a, n))
        assert report["certifications"] == [
            {"name": "multiplicative-over-factorization", "passed": True}
        ]

    def test_jacobi_by_reciprocity_against_sympy(self):
        for n in range(1, 160, 2):
            for a in range(-30, 2 * n):
                assert cli._jacobi_by_reciprocity(a, n) == jacobi_symbol(a, n), (a, n)

    def test_count_nth_powers_is_the_order_of_a_power_of_a_primitive_root(self):
        for p in primes_up_to(3000)[1:]:
            g = primitive_root(p)
            for n in range(1, 40):
                assert cli._count_nth_powers(p, n) == n_order(pow(g, n, p), p), (p, n)
                if p < 200:
                    assert cli._count_nth_powers(p, n) == len({pow(x, n, p) for x in range(1, p)})

    def test_local_index_at_a_billion(self, capsys):
        start = time.monotonic()
        code, out, _ = run_in_process(["local-index", "1000000009", "2"], capsys)
        assert time.monotonic() - start < 2.0
        report = json.loads(out)
        assert code == 0 and report["status"] == "ok"
        assert report["outputs"]["index"] == str(math.gcd(2, 1000000008))


class TestDecimal:
    """CLI integer rendering, against str and modular arithmetic, which share no code with it."""

    def test_random_signed_ints(self):
        rng = random.Random(9)
        for _ in range(3000):
            n = rng.getrandbits(rng.randint(1, 5000)) * rng.choice((1, -1))
            assert cli._decimal(n) == str(n), n

    def test_boundaries(self):
        edges = [0, 1, 2**128 - 1, 2**128, 2**128 + 1, 2**256, 10**1000, 3**20000 - 1]
        for n in edges:
            assert cli._decimal(n) == str(n)
            assert cli._decimal(-n) == str(-n)


class TestFuzzedArguments:
    """Random argument tokens end in exit 0, 1 or 2, never in an exception."""

    SMALL = st.integers(-30, 400)
    NOISE = st.text(alphabet="0123456789-+()/:,^=. xa", max_size=14)
    # Conductors inside the budget, and two beyond it that must be refused at once.
    MODULUS = st.one_of(st.integers(1, 400), st.integers(-3, 0), st.sampled_from([100_001, 10**12]))
    UNIT = st.sampled_from([1, -1, 7, 11, 13, 29, 31, 37, 41, 97, 101, 389])  # mostly coprime to m
    PROGRESSION = st.one_of(st.builds("{}({})".format, st.one_of(UNIT, SMALL), MODULUS), NOISE)
    EXTENSION = st.one_of(
        st.builds(str, MODULUS),
        st.builds(  # the cyclic subgroup generated by g, when g is a unit
            lambda m, g: f"{m}:" + ",".join(str(pow(g, k, m)) for k in range(m)),
            st.integers(1, 400),
            SMALL,
        ),
        st.builds(
            lambda m, hs: f"{m}:{','.join(map(str, hs))}",
            MODULUS,
            st.lists(SMALL, min_size=1, max_size=6),
        ),
        NOISE,
    )
    CONDITION = st.builds(
        "{}^{}={}".format,
        st.sampled_from([3, 7, 11, 19, 5, 2, 4, 0, -3]),
        st.one_of(st.integers(1, 4), st.integers(-1, 0)),
        st.integers(-50, 50),
    )
    DYADIC = st.builds("2^{}={}".format, st.integers(1, 5), st.integers(-50, 50))
    TARGET = st.one_of(
        st.builds(lambda c, cs: ",".join([c, *cs]), DYADIC, st.lists(CONDITION, max_size=2)),
        st.builds(",".join, st.lists(CONDITION, min_size=1, max_size=3)),
        NOISE,
    )
    RATIONAL = st.one_of(
        st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(-100, 10**6)),
        st.builds(str, st.integers(-10**6, 10**6)),
        NOISE,
    )
    PLACE = st.one_of(st.sampled_from(["inf", "oo", "2", "3", "7", "4", "-5"]), NOISE)

    @staticmethod
    def exits_cleanly(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:  # one line from run(): no token reaches argparse's own errors
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
        else:
            json.loads(out.getvalue())
        return err.getvalue()

    @settings(max_examples=150)
    @given(spec=PROGRESSION, ext=EXTENSION, kind=st.sampled_from(["exact", "intersection", "tractable"]))
    def test_progressions_and_extensions(self, spec, ext, kind):
        argv = {
            "exact": ["density", "exact", "--", spec],
            "intersection": ["density", "intersection", "--", spec, ext],
            "tractable": ["tractable", "--", spec, ext],
        }[kind]
        self.exits_cleanly(argv)

    @settings(max_examples=100)
    @given(target=TARGET)
    def test_congruence_targets(self, target):
        self.exits_cleanly(["example", "2.3", f"--target={target}"])

    @settings(max_examples=150)
    @given(a=RATIONAL, b=RATIONAL, place=PLACE)
    def test_rationals_and_places(self, a, b, place):
        self.exits_cleanly(["symbol", "hilbert", "--", a, b, place])


class TestFuzzedLatticeFiles:
    """Lattice files, valid ones edited at random and raw noise, through
    cli.run: exit 0, 1 or 2, exit 2 with one error: line, no exception."""

    VALUE = st.one_of(
        st.integers(-2, 3),
        st.integers(-3, 60),
        st.sampled_from([49, 10**9, 2**63, 10**30, -(10**20), "9" * (cli.MAX_INT_DIGITS + 1)]),
        st.sampled_from(["x", "1.5", "--", "0x10", "1e3", "\u0661", "7_7"]),
    )
    SEPARATOR = st.sampled_from([" ", "\n", "\t", "  # comment 1 2\n", "\r\n"])

    @staticmethod
    @st.composite
    def edited_files(draw):
        tokens = list(draw(st.sampled_from(VALID_LATTICE_FILES)))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["set", "set", "set", "insert", "delete", "truncate"]))
            i = draw(st.integers(0, len(tokens)))
            if kind == "insert":
                tokens.insert(i, draw(TestFuzzedLatticeFiles.VALUE))
            elif kind == "truncate":
                del tokens[i:]
            elif i < len(tokens):
                if kind == "set":
                    tokens[i] = draw(TestFuzzedLatticeFiles.VALUE)
                else:
                    del tokens[i]
        separators = draw(st.lists(
            TestFuzzedLatticeFiles.SEPARATOR, min_size=len(tokens), max_size=len(tokens)
        ))
        return "".join(f"{t}{sep}" for t, sep in zip(tokens, separators)).encode()

    NOISE = st.one_of(
        st.builds(
            lambda xs: " ".join(map(str, xs)).encode(),
            st.lists(st.integers(-2, 6), max_size=40),
        ),
        st.binary(max_size=64),
    )

    @staticmethod
    def exits_cleanly(path, content):
        path.write_bytes(content)
        message = TestFuzzedArguments.exits_cleanly(["h1", str(path)])
        if "malformed lattice file" in message:  # the file's prefix, once, first
            prefix = f"error: malformed lattice file {str(path)!r}: "
            assert message.startswith(prefix) and message.count("malformed lattice file") == 1

    def test_unedited_files_succeed(self, tmp_path, capsys):
        for k, tokens in enumerate(VALID_LATTICE_FILES):
            path = tmp_path / f"valid{k}.txt"
            path.write_text(" ".join(map(str, tokens)))
            code, out, _ = run_in_process(["h1", str(path)], capsys)
            assert code == 0 and json.loads(out)["status"] == "ok", tokens

    @pytest.mark.parametrize("digits", [cli.MAX_INT_DIGITS + 1, 10**6])
    def test_long_token_refused_by_its_length(self, digits, tmp_path, capsys):
        # C2 acting by [[1, N], [0, -1]] is a lattice for every N; an N over
        # the int-string guard is refused before it is converted, and the
        # message names its length, not its digits.
        path = tmp_path / "long.txt"
        path.write_text(f"2\n0 1\n1 0\n2\n1 0 0 1\n1 {'9' * digits} 0 -1\n")
        start = time.monotonic()
        result = run_in_process(["h1", str(path)], capsys)
        assert time.monotonic() - start < 1.0
        assert result == (
            2,
            "",
            f"error: malformed lattice file {str(path)!r}: a token of {digits} characters "
            f"exceeds MAX_INT_DIGITS = {cli.MAX_INT_DIGITS}\n",
        )

    def test_long_order_named_by_its_digit_count(self, tmp_path, capsys):
        # The longest token the int-string guard admits, as the group order:
        # the refusal names its digit count, not its digits.
        path = tmp_path / "long-order.txt"
        path.write_text("9" * cli.MAX_INT_DIGITS + "\n")
        code, out, err = run_in_process(["h1", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: malformed lattice file {str(path)!r}: group order must be in 1..48, "
            f"got <{cli.MAX_INT_DIGITS}-digit integer>\n"
        )
        assert len(err) < 200

    @settings(max_examples=200)
    @given(content=edited_files())
    def test_edited_files(self, tmp_path_factory, content):
        self.exits_cleanly(tmp_path_factory.getbasetemp() / "edited-lattice.txt", content)

    @settings(max_examples=100)
    @given(content=NOISE)
    def test_noise(self, tmp_path_factory, content):
        self.exits_cleanly(tmp_path_factory.getbasetemp() / "noise-lattice.txt", content)


class TestStartup:
    def test_runs_without_numpy(self):
        # numpy is not a dependency: with it made unimportable, the sieve,
        # the estimate and both sieve-backed subcommands still work.
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from arithlab import cli, progressions as P\n"
            "assert len(P.primes_up_to(10**5)) == 9592\n"
            "assert P.natural_density_estimate(P.ProgressionSpec.residue_class(1, 8), 10**5) > 0\n"
            "assert cli.run(['density', 'estimate', '1(8)', '--bound', '100000']) == 0\n"
            "assert cli.run(['example', '2.4', '--q', '13', '--bound', '100000']) == 0\n"
        )
        result = run_python(["-c", probe], text=True)
        assert result.returncode == 0, result.stderr


class TestImportFootprint:
    """Each subcommand family loads only the arithlab modules it uses."""

    PROBE = (
        "import io, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from arithlab import cli\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "    code = cli.run(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('arithlab.')))\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    FAMILIES = {
        "symbol": (["symbol", "hilbert", "--", "-1", "-1", "inf"], {"cli", "core", "symbols"}),
        "constants": (["constants", "psi", "2"], {"bounds", "cli", "core"}),
        "density": (["density", "exact", "1(4)"], {"cli", "core", "progressions"}),
        "tractable": (["tractable", "1(4)", "4:1"], {"cli", "core", "progressions"}),
        "h1": (["h1", "sign.txt"], {"cli", "cohomology", "core"}),
        "example": (
            ["example", "2.5", "--height", "4"],
            {"cli", "core", "experiments", "progressions", "symbols"},
        ),
        "section7": (
            ["section7", "3", "1", "13"],
            {"cli", "core", "experiments", "progressions", "symbols"},
        ),
        "local-index": (
            ["local-index", "13", "3"],
            {"cli", "core", "experiments", "progressions", "symbols"},
        ),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_modules_loaded(self, family, tmp_path):
        argv, expected = self.FAMILIES[family]
        (tmp_path / "sign.txt").write_text(SIGN_LATTICE)
        result = run_python(["-c", self.PROBE, *argv], text=True, cwd=tmp_path)
        loaded, heavy = result.stdout.splitlines()
        code, *modules = loaded.split()
        assert code == "0", result.stderr
        assert set(modules) == {f"arithlab.{m}" for m in expected}
        # The value classes are core.Record subclasses: dataclasses, and
        # the inspect it imports, cost a cold command about 11-14 ms.
        assert heavy == ""

    # argparse, and the gettext and locale it imports, cost a cold command
    # about 6-8 ms; a well-formed command is parsed without them.
    PARSER_PROBE = PROBE + "print(*sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_well_formed_command_loads_no_argparse(self, family, tmp_path):
        argv = next(argv for argv in WELL_FORMED if argv[0] == family)
        (tmp_path / "sign.txt").write_text(SIGN_LATTICE)
        result = run_python(["-c", self.PARSER_PROBE, *argv], text=True, cwd=tmp_path)
        loaded, _, parsers = result.stdout.splitlines()
        assert loaded.split()[0] == "0", result.stderr
        assert parsers == ""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["symbol", "hilbert", "--", "-1", "-1", "inf"], "0"),
            (["symbol", "legendre", "--", "3", "-7"], "2"),
        ],
    )
    def test_leading_double_dash_loads_no_argparse(self, argv, code):
        result = run_python(["-c", self.PARSER_PROBE, *argv], text=True)
        loaded, _, parsers = result.stdout.splitlines()
        assert loaded.split()[0] == code, result.stderr
        assert parsers == ""

    def test_usage_error_still_goes_to_argparse(self):
        result = run_python(["-c", self.PARSER_PROBE, "constants", "gamma", "x"], text=True)
        loaded, _, parsers = result.stdout.splitlines()
        assert loaded.split()[0] == "2" and "argparse" in parsers.split()
        result = run_cli(["constants", "gamma", "x"])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "usage: arithlab constants gamma [-h] d\n"
            "arithlab constants gamma: error: argument d: invalid int value: 'x'\n"
        )


class TestParsers:
    """cli.run parses a plainly well-formed argv with _parse_fast, and hands
    anything else to argparse, which writes the usage error or help."""

    def test_every_leaf_parses_fast(self):
        # So the saving on a well-formed command cannot silently vanish.
        leaves = {
            (family, leaf)
            for family, (_, _, dest, body) in cli._GRAMMAR.items()
            for leaf in (body if dest else [None])
        }
        covered = {(a[0], a[1] if cli._GRAMMAR[a[0]][2] else None) for a in WELL_FORMED}
        assert covered == leaves
        assert [argv for argv in WELL_FORMED if cli._parse_fast(argv) is None] == []

    def test_namespace_holds_only_argv_values(self):
        # The handlers are read off _GRAMMAR, not carried in the namespace.
        for argv in WELL_FORMED:
            _, _, dest, body = cli._GRAMMAR[argv[0]]
            arguments = body[argv[1]] if dest else body
            names = {"cmd", dest, *(name.lstrip("-") for name in arguments)} - {None}
            assert set(vars(cli._parse_fast(argv))) == names, argv
            assert set(vars(cli._build_parser().parse_args(argv))) == names, argv

    def test_agreement_on_the_pinned_corpora(self):
        sweep = sweep_commands()
        unmarked = [[t for t in argv if t != "--"] for argv in sweep if "--" in argv]
        commands = sweep + determinism_commands() + unmarked + WELL_FORMED
        assert sum(cli._parse_fast(argv) is not None for argv in commands) > 200
        assert parser_disagreements(commands) == []

    @staticmethod
    def perturbed(rng, argv):
        """argv with one random edit at token i, half the time an option's name.

        The edits: a reorder, a duplicate, --opt=value, an abbreviation, an
        extra or a missing token, a missing option, x, a negative number,
        '', -h, a huge int and --.  Most leave argv to argparse; a reorder,
        a duplicated positional or a missing optional option may still be
        well formed.
        """
        tokens = list(argv)
        options = [k for k, t in enumerate(tokens) if t.startswith("--")]
        if options and rng.random() < 0.5:
            i = rng.choice(options)
        else:  # the family name only when it stands alone
            i = rng.randrange(1, len(tokens)) if len(tokens) > 1 else 0
        token, span = tokens[i], 2 if tokens[i].startswith("--") else 1
        j = rng.randrange(1, len(tokens) + 1)
        edit = rng.randrange(13)
        if edit == 0:
            moved = tokens[i : i + span]
            del tokens[i : i + span]
            j = rng.randrange(len(tokens) + 1)
            tokens[j:j] = moved
        elif edit == 1:  # an option comes back with another value
            tokens[j:j] = [token, "7"][:span]
        elif edit == 2:
            tokens[i : i + 2] = ["=".join(tokens[i : i + 2])]
        elif edit == 3:
            tokens[i] = token[: rng.randrange(1, len(token))] if len(token) > 1 else ""
        elif edit == 4:
            tokens.insert(j, rng.choice(["7", "x", "1(4)", "13"]))
        elif edit == 5:
            del tokens[i]
        elif edit == 12:  # an option with its value, or a positional
            del tokens[i : i + span]
        elif edit in (6, 7, 8, 10):
            tokens[i] = {6: "x", 7: "-" + token, 8: ""}.get(edit, "9" * rng.choice([400, 20000]))
        else:
            tokens.insert(j, "-h" if edit == 9 else "--")
        return tokens

    def test_agreement_on_perturbed_commands(self):
        rng = random.Random(20261020)
        bases = WELL_FORMED + determinism_commands()
        commands = [self.perturbed(rng, rng.choice(bases)) for _ in range(400)]
        twice = [self.perturbed(rng, rng.choice(bases)) for _ in range(200)]
        commands += [self.perturbed(rng, argv) for argv in twice]
        accepted = sum(cli._parse_fast(argv) is not None for argv in commands)
        assert 50 < accepted < len(commands) - 200
        # -- at each position, doubled there, and with a trailing -- as well.
        marked = []
        for argv in bases:
            tokens = [t for t in argv if t != "--"]
            for i in range(len(tokens) + 1):
                head, tail = tokens[:i], tokens[i:]
                marked += [head + ["--"] + tail, head + ["--", "--"] + tail]
                marked.append(head + ["--"] + tail + ["--"])
        assert sum(cli._parse_fast(argv) is not None for argv in marked) > 20
        assert parser_disagreements(commands + marked) == []

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["constants"],
            ["constants", "gamma"],
            ["constants", "gamma", "2", "3"],
            ["constants", "gamma", "x"],
            ["constants", "gamma", "-h"],
            ["constants", "--", "gamma", "2"],
            ["constants", "gamma", "-2"],
            ["constants", "gam", "2"],
            ["density", "estimate", "1(4)", "--bound=3000"],
            ["density", "estimate", "1(4)", "--bou", "3000"],
            ["density", "estimate", "1(4)", "--bound", "3000", "--bound", "3000"],
            ["density", "estimate", "1(4)", "--bound"],
            ["density", "--bound", "3000", "estimate", "1(4)"],
            ["example", "2.1"],
            ["example", "2.4", "--q", "-7"],
            ["symbol", "hilbert", "-1", "-1", "inf"],
            ["symbol", "--", "hilbert", "1", "2", "inf"],
            ["density", "estimate", "--", "1(4)"],
            ["section7", "3", "2", "--", "13", "37"],
            ["symbol", "hilbert", "--", "1", "2", "--"],
        ],
    )
    def test_left_to_argparse(self, argv):
        assert cli._parse_fast(argv) is None


class TestExitPath:
    """cli.main freezes the GC before sys.exit; cli.run leaves it alone."""

    # The atexit handler runs after main's sys.exit, at interpreter exit.
    CHILD = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from arithlab import cli\n"
        "cli.main()\n"
    )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["constants", "gamma", "2"], 0),
            (["symbol", "legendre", "3", "4"], 2),
            (["constants", "gamma", "x"], 2),
        ],
        ids=["answer", "refusal", "usage-error"],
    )
    def test_main_exits_frozen_with_runs_code_and_stdout(self, argv, code, capsys):
        result = run_python(["-c", self.CHILD, *argv], text=True)
        assert run_in_process(argv, capsys)[:2] == (code, result.stdout)
        assert result.returncode == code
        assert result.stderr.splitlines()[-1] == "frozen True"

    def test_run_leaves_the_gc_unfrozen(self, capsys):
        frozen = gc.get_freeze_count()
        assert run_in_process(["constants", "gamma", "2"], capsys)[0] == 0
        assert gc.get_freeze_count() == frozen


class TestClosedPipe:
    def test_reader_closing_early_leaves_no_traceback(self):
        # psi(3) has 136,473 digits, more than a pipe buffer holds, so the
        # write is still blocked when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, "-m", "arithlab", "constants", "psi", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=tree_env(),
        )
        assert proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
