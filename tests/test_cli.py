import json
import subprocess
import sys

import pytest

from arithlab import cli

SIGN_LATTICE = """# order-2 group acting on a rank-1 lattice by negation
2
0 1
1 0
1
1     # identity acts trivially
-1    # the involution negates
"""


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "arithlab", *args],
        capture_output=True,
        text=True,
    )


def run_in_process(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReports:
    def test_gamma_value(self, capsys):
        code, out, _ = run_in_process(["constants", "gamma", "2"], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["outputs"]["value"] == "48"
        assert report["status"] == "ok"
        assert report["provenance"]["module"] == "arithlab.bounds"

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

    def test_missing_file(self, capsys):
        code, _, err = run_in_process(["h1", "/nonexistent/lattice.txt"], capsys)
        assert code == 2 and "cannot read" in err


class TestExitCodes:
    def test_unknown_subcommand(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_digit_cap_overflow(self):
        result = run_cli(["constants", "psi", "4"])
        assert result.returncode == 2
        assert "digit cap exceeded" in result.stderr

    def test_unbounded_example_refused(self):
        result = run_cli(["example", "2.1", "--ell", "8"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: invalid input: ell must be <= 7")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["density", "estimate", "1(4)", "--bound", "100000000000"],
            ["example", "2.4", "--q", "5", "--bound", "100000000000"],
        ],
    )
    def test_oversized_sieve_refused(self, command, capsys):
        code, out, err = run_in_process(command, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input: sieve bound 100000000000 exceeds")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("constant", ["gamma", "lambda"])
    def test_gamma_over_the_digit_cap_refused(self, constant, capsys):
        # gamma(1500) has 1,073,523 digits; the product took 10 s before
        # it was refused.
        code, out, err = run_in_process(["constants", constant, "1500"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: digit cap exceeded: gamma(1500) = prod_")
        assert "about 1073523 decimal digits" in err

    @pytest.mark.parametrize("cap", ["0", "abc"])
    def test_bad_digit_cap_refused(self, cap, capsys, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", cap)
        code, out, err = run_in_process(["constants", "gamma", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: invalid input: ASA_DIGIT_CAP must be a positive integer, got {cap}\n"
        )

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


class TestDeterminism:
    COMMANDS = [
        ["constants", "gamma", "3"],
        ["constants", "psi", "2"],
        ["symbol", "hilbert", "--", "-3/7", "5/11", "inf"],
        ["density", "estimate", "1(8)", "--bound", "100000"],
        ["example", "2.5", "--height", "10"],
        ["section7", "3", "2", "13", "37"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
    def test_byte_identical_stdout(self, command):
        first = run_cli(command)
        second = run_cli(command)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()


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
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestClosedPipe:
    def test_reader_closing_early_leaves_no_traceback(self):
        # psi(3) has 136,473 digits, more than a pipe buffer holds, so the
        # write is still blocked when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, "-m", "arithlab", "constants", "psi", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
