"""Every work budget in one table, each tested at both edges.

A budget bounds work that would otherwise be unbounded or astronomically
large.  A command over a budget is refused with exit 2, empty stdout and
one stderr line, before any of that work starts; a command at the budget
runs.  Each row of BUDGETS names a budget and gives:

- heavy: the callees that do the work the budget bounds.  While an outside
  command runs, each is patched to fail the test when called, so a refusal
  that came after the work fails here without any clock.  A callee that
  the command also calls on an in-budget token gives the predicate that
  marks its over-budget calls; every other callee must not run at all.
- outside: the commands just past the edge, each with its exact stderr line.
- inside: the commands at the edge, which exit 0 with every certification
  passing and between them call every heavy callee, so no patch above
  points at a callee that the commands no longer use.
- check: what the inside commands must print, beyond status "ok".

A command may begin with ASA_DIGIT_CAP=value, which sets the cap for it
as in a shell; every other command runs with the cap unset.

The README's "Work budgets" table gives each budget's value, module and
what it refuses; a test below compares it with the live constants.
"""

import builtins
import importlib
import inspect
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from arithlab import cli, progressions
from lattice_files import LATTICE_FILES

ALWAYS = None  # the callee must not run at all while an outside command runs


class Budget(NamedTuple):
    module: str
    name: str
    heavy: dict[str, Callable[..., bool] | None]
    outside: dict[str, str]
    inside: tuple[str, ...]
    check: Callable[[dict], bool] | None = None
    inside_runs: bool = True


def _trivial_lattice(d):
    """The trivial group acting on Z^d, as a lattice file."""
    return f"1\n0\n{d}\n" + " ".join("1" if i % (d + 1) == 0 else "0" for i in range(d * d))


def _shear_lattice(digits):
    """C2 acting on Z^2 by [[1, N], [0, -1]], with N = 99...9 of the given
    number of digits, as a lattice file."""
    return f"2\n0 1\n1 0\n2\n1 0 0 1\n1 {'9' * digits} 0 -1\n"


ORDERS = [-1, 0, 49, 10**9, 2**63, 10**30]
LONG = cli.MAX_INT_DIGITS + 1  # the digits of a token just over the int-string guard
FILES = {
    **{f"order{s}.txt": f"{s}\n0 1\n1 0\n" for s in ORDERS},
    **{f"shear{k}.txt": _shear_lattice(k) for k in (LONG - 1, LONG)},
    "j-c48.txt": LATTICE_FILES["j-c48.txt"],
    "rank64.txt": _trivial_lattice(64),
    "rank65.txt": _trivial_lattice(65),
}

N = 2**128 + 1  # = 59649589127497217 * 5704689200685129054721, beyond factor
HILBERT_LIMIT = (
    "error: cannot certify (a, b)_v: a numerator or denominator of a or b exceeds 2**64, "
    "the limit of factor\n"
)
TARGET_LIMIT = (
    "error: invalid input: the CRT modulus exceeds MAX_TARGET_MODULUS = 2**1024: "
    "the witness search would run for minutes\n"
)


def _gamma_1447_digits(outputs):
    """gamma(1447) has 999,001 digits, just under the default cap.  The
    printed digits, read modulo four primes, against the product
    prod_{i<d} (3^d - 3^i) reduced modulo each."""
    text = outputs["value"]
    primes = [10**9 + 7, 998244353, 2**61 - 1, 1000003]
    modulus = math.prod(primes)
    residue = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        residue = (residue * pow(10, len(chunk), modulus) + int(chunk)) % modulus
    return len(text) == 999_001 and text[0] != "0" and all(
        residue % p == math.prod(pow(3, 1447, p) - pow(3, i, p) for i in range(1447)) % p != 0
        for p in primes
    )


BUDGETS = [
    Budget(
        "core",
        "FACTOR_LIMIT",
        heavy={
            "experiments.is_prime": ALWAYS,
            "cli._count_nth_powers": ALWAYS,
            "cli._jacobi_by_reciprocity": ALWAYS,
            "symbols.jacobi": ALWAYS,
            "symbols.hilbert_symbol": ALWAYS,
        },
        outside={
            f"local-index {2**64 + 13} 3": (
                f"error: p - 1 must be <= 2**64 for the power-count certification, got {2**64 + 13}\n"
            ),
            f"symbol jacobi {2**100 + 1} {N}": (
                "error: cannot certify (a/n): a mod n exceeds 2**64, the limit of factor\n"
            ),
            f"symbol hilbert -- {2**65} 3 5": HILBERT_LIMIT,
            f"symbol hilbert -- 3 -1/{2**64 + 1} 5": HILBERT_LIMIT,
            f"symbol hilbert -- -{2**64 + 1}/7 5 5": HILBERT_LIMIT,
        },
        inside=(
            f"local-index {2**64 - 59} 3",  # the largest prime below 2^64
            f"symbol jacobi {2**64} {N}",
            f"symbol hilbert -- -{2**64} 3 2",
        ),
    ),
    Budget(
        "bounds",
        "DEFAULT_DIGIT_CAP",
        heavy={"bounds._gamma_product": ALWAYS},
        outside={
            f"constants {which} {d}": (
                f"error: digit cap exceeded: gamma({d}) = prod_{{i=0}}^{{d-1}} (3^d - 3^i) "
                f"at d = {d} with about {digits} decimal digits, beyond the 1000000-digit cap\n"
            )
            for which, d, digits in [
                ("gamma", 1448, 1000382),
                ("gamma", 1500, 1073523),
                ("lambda", 1500, 1073523),
            ]
        }
        # gamma(1447) fits, but the rungs over it do not: each is refused
        # from log10 gamma(1447), before gamma(1447) is formed.  lam(1447)
        # fits too, and ctilde and creductive refuse gamma(lam(1447)) from
        # its logarithm, before lam(1447) is formed.
        | {
            f"constants {command}": (
                "error: digit cap exceeded: gamma(<999004-digit integer>) = prod_{i=0}^{d-1} "
                "(3^d - 3^i) at d = <999004-digit integer> with about 1.1235e+1998007 decimal "
                "digits, beyond the 1000000-digit cap\n"
            )
            for command in ("ctilde 1447 1", "creductive 1447 1 0")
        }
        | {
            "constants psi 1447": (
                "error: digit cap exceeded: psi(1447) = <999001-digit integer>^<999004-digit "
                "integer> with about 4.8478e+999009 decimal digits, beyond the 1000000-digit cap\n"
            ),
            "constants ctilde-improved 1447 1": (
                "error: digit cap exceeded: c_tilde_improved(1447, 1) = n^d * gamma(d)^(lam(d) * "
                "(gamma(d) - 1)) with about 1.6257e+1998010 decimal digits, beyond the "
                "1000000-digit cap\n"
            ),
        },
        inside=("constants gamma 1447",),
        check=_gamma_1447_digits,
    ),
    Budget(
        "bounds",
        "MAX_DIGIT_CAP",
        heavy={"bounds._gamma_product": ALWAYS},
        outside={
            f"ASA_DIGIT_CAP={10**7 + 1} constants gamma 2": (
                "error: invalid input: ASA_DIGIT_CAP must be at most 10^7, got 10000001\n"
            ),
        },
        # gamma(4578) has 9,999,548 digits and takes about 30 s cold.
        inside=(f"ASA_DIGIT_CAP={10**7} constants gamma 4578",),
        inside_runs=False,
    ),
    Budget(
        "cli",
        "MAX_INT_DIGITS",
        # int() refuses a token over the guard by its length, before it
        # converts any digit; the file is refused before the group is built.
        heavy={"cohomology.FiniteGroup": ALWAYS},
        outside={
            f"h1 shear{LONG}.txt": (
                f"error: malformed lattice file 'shear{LONG}.txt': a token of {LONG} characters "
                f"exceeds MAX_INT_DIGITS = {LONG - 1}\n"
            ),
        },
        inside=(f"h1 shear{LONG - 1}.txt",),
        check=lambda outputs: outputs["group_order"] == outputs["rank"] == "2",
    ),
    Budget(
        "cohomology",
        "MAX_GROUP_ORDER",
        heavy={"cohomology.FiniteGroup": ALWAYS},
        outside={
            f"h1 order{s}.txt": (
                f"error: malformed lattice file 'order{s}.txt': group order must be in 1..48, "
                f"got {s}\n"
            )
            for s in ORDERS
        },
        inside=("h1 j-c48.txt",),
        check=lambda outputs: outputs["group_order"] == outputs["order"] == "48",
    ),
    Budget(
        "cohomology",
        "MAX_LATTICE_RANK",
        heavy={"core.IntegerMatrix.__post_init__": ALWAYS},
        outside={
            "h1 rank65.txt": (
                "error: malformed lattice file 'rank65.txt': lattice rank must be at most 64, "
                "got 65\n"
            ),
        },
        inside=("h1 rank64.txt",),
        check=lambda outputs: outputs["rank"] == "64",
    ),
    Budget(
        "experiments",
        "MAX_BIASED_ELL",
        heavy={"experiments.next_prime_in_progression": ALWAYS},
        outside={
            "example 2.1 --ell 8": (
                "error: invalid input: ell must be <= 7, got 8: the search would run for minutes\n"
            ),
        },
        inside=("example 2.1 --ell 7",),
        check=lambda outputs: len(outputs["P"]) == len(outputs["Q"]) == 7,
    ),
    Budget(
        "experiments",
        "MAX_UNIT_HEIGHT",
        heavy={"experiments._split_valuations_agree": ALWAYS},
        outside={
            "example 2.5 --height 301": (
                "error: invalid input: height bound must be <= 300, got 301\n"
            ),
        },
        inside=("example 2.5 --height 300",),
    ),
    Budget(
        "experiments",
        "MAX_TARGET_MODULUS",
        heavy={"experiments.is_prime": ALWAYS, "experiments.next_prime_in_progression": ALWAYS},
        outside={
            f"example 2.3 --target {target}": TARGET_LIMIT
            for target in [
                "2^1025=1",
                "2^3000=1",
                "2^2=3,3^646=2",
                f"2^{10**12}=1",  # 2^(10^12) is never formed
                f"2^1=1,7^{10**15}=2",
                f"2^1=1,{10**30000 + 3}^1=2",  # too big to test for primality
            ]
        },
        inside=("example 2.3 --target 2^1024=1",),
    ),
    Budget(
        "progressions",
        "MAX_CONDUCTOR",
        # The outside commands also parse 1(4), whose conductor is in budget.
        heavy={
            "progressions.AbelianExtensionDescriptor._minimal_conductor": (
                lambda m, subgroup: m > progressions.MAX_CONDUCTOR
            ),
        },
        outside={
            **{
                command: "error: invalid input: conductor 100001 exceeds MAX_CONDUCTOR = 100000\n"
                for command in [
                    "density exact 1(100001)",
                    "density intersection 1(4) 100001:1",
                    "tractable 1(4) 100001",
                ]
            },
            "density exact 1(10000000000)": (
                "error: invalid input: conductor 10000000000 exceeds MAX_CONDUCTOR = 100000\n"
            ),
        },
        inside=("density exact 1(100000)", "density exact 1(99991)"),
    ),
    Budget(
        "progressions",
        "MAX_SIEVE_BOUND",
        heavy={"progressions.bytearray": ALWAYS},
        outside={
            f"{command} --bound {bound}": (
                f"error: invalid input: sieve bound {bound} exceeds MAX_SIEVE_BOUND = 300000000\n"
            )
            for command in ["density estimate 1(4)", "example 2.4 --q 5"]
            for bound in [300000001, 10**11]
        },
        # primes_up_to(3 * 10**8) peaks at 0.85 GB, too much for a test run.
        inside=(
            "density estimate 1(4) --bound 300000000",
            "example 2.4 --q 5 --bound 300000000",
        ),
        inside_runs=False,
    ),
]


def _short(command, width=100):
    return command if len(command) <= width else f"{command[: width - 3]}..."


def _resolve(path):
    """The owner of a dotted arithlab name, its last part and the callee it names."""
    module, *owners, attr = path.split(".")
    owner = importlib.import_module(f"arithlab.{module}")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr, getattr(builtins, attr, None))


def _patch(monkeypatch, path, make):
    """Replace a callee by make(callee), keeping a static method static."""
    owner, attr, callee = _resolve(path)
    replacement = make(callee)
    if isinstance(inspect.getattr_static(owner, attr, None), staticmethod):
        replacement = staticmethod(replacement)
    monkeypatch.setattr(owner, attr, replacement, raising=False)


def _run(command, tmp_path, monkeypatch, capsys):
    for name in FILES.keys() & command.split():
        (tmp_path / name).write_text(FILES[name])
    monkeypatch.chdir(tmp_path)  # the stderr lines quote the lattice files by name
    monkeypatch.delenv("ASA_DIGIT_CAP", raising=False)
    argv = command.split()
    if argv[0].startswith("ASA_DIGIT_CAP="):
        monkeypatch.setenv("ASA_DIGIT_CAP", argv.pop(0).partition("=")[2])
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OUTSIDE = [
    pytest.param(budget, command, stderr, id=f"{budget.name}-{_short(command)}")
    for budget in BUDGETS
    for command, stderr in budget.outside.items()
]


@pytest.mark.parametrize("budget, command, stderr", OUTSIDE)
def test_refused_first(budget, command, stderr, tmp_path, monkeypatch, capsys):
    for path, over in budget.heavy.items():

        def make(callee, path=path, over=over):
            def guarded(*args, **kwargs):
                if over is ALWAYS or over(*args):
                    pytest.fail(f"{path} ran before the {budget.name} refusal")
                return callee(*args, **kwargs)

            return guarded

        _patch(monkeypatch, path, make)
    assert _run(command, tmp_path, monkeypatch, capsys) == (2, "", stderr)


@pytest.mark.parametrize(
    "budget", [b for b in BUDGETS if b.inside_runs], ids=[b.name for b in BUDGETS if b.inside_runs]
)
def test_inside_edge_runs(budget, tmp_path, monkeypatch, capsys):
    calls = {path: 0 for path in budget.heavy}
    for path in budget.heavy:

        def make(callee, path=path):
            def counted(*args, **kwargs):
                calls[path] += 1
                return callee(*args, **kwargs)

            return counted

        _patch(monkeypatch, path, make)
    for command in budget.inside:
        code, out, _ = _run(command, tmp_path, monkeypatch, capsys)
        report = json.loads(out)
        assert (code, report["status"]) == (0, "ok"), command
        assert budget.check is None or budget.check(report["outputs"]), command
    assert all(calls.values()), calls


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_budgets():
    """{name: (value, module)} from the README's "Work budgets" table."""
    section = README.read_text().split("### Work budgets", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isupper():
            name, value, module, _ = cells
            factors = (f.partition("^") for f in value.replace(",", "").split("·"))
            rows[name] = (math.prod(int(b) ** int(e or 1) for b, _, e in factors), module)
    return rows


def test_readme_budget_table_matches_the_constants():
    rows = _readme_budgets()
    assert sorted(rows) == sorted(b.name for b in BUDGETS)
    for budget in BUDGETS:
        value = getattr(importlib.import_module(f"arithlab.{budget.module}"), budget.name)
        assert rows[budget.name] == (value, budget.module), budget.name
