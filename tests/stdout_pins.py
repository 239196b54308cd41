"""The three stdout pins: the CLI sweep, the pinned commands and the demos.

Run as a script, it checks all three pin files on whatever Python runs it,
that each pinned command exits and prints as an in-process cli.run, that
the CLI's two parsers agree on the sweep's commands, and that every
refusal of the sweep, and of arguments of the longest length an argv
string holds, writes one error: line or argparse's usage text, each of
its lines short, and prints every mismatch:

    python tests/stdout_pins.py

It exits 0 when every pin matches and 1 otherwise.  This module imports
nothing outside the standard library and arithlab, which it takes from this
tree, so a plain interpreter without pytest can run it.  The pytest tests in
test_cli_sweep.py, test_acceptance.py and test_demos.py call it.

After a change that is meant to alter output, copy the digest named in the
mismatch into the pin file.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lattice_files import LATTICE_FILES
from tree_python import SRC, run_python

if __name__ == "__main__":  # run as a script: import arithlab from this tree
    sys.path.insert(0, SRC)

from arithlab import cli
from arithlab.cohomology import FiniteGroup, GLattice, induced_lattice, norm_one_lattice
from arithlab.core import IntegerMatrix, shown

HERE = Path(__file__).resolve().parent
SWEEP_PIN = HERE / "cli_sweep_sha256.json"
# sha256 of each command's stdout, keyed by the space-joined command.
STDOUT_PIN = HERE / "cli_stdout_sha256.json"
DEMO_PIN = HERE / "demos_sha256.json"
DEMOS = HERE.parent / "demos"


# ---------------------------------------------------------------------------
# The CLI sweep: a deterministic corpus of in-process CLI runs, hashed to one
# pinned digest.  Every subcommand runs on a few hundred inputs, refusals and
# usage errors included.  Each run's command, exit code and stdout go into
# one sha256, so a change to what any subcommand prints, or to which inputs
# it refuses, changes the digest.  stderr stays out: it carries the wall time.
# It is checked apart: a run that exits 2 writes argparse's usage text or
# one error: line, and no stderr line over MAX_REFUSAL_BYTES.

MAX_REFUSAL_BYTES = 300


def refusal_problem(argv, code: int, out: str, err: str, usage: bool = True) -> list[str]:
    """One line if a run that exits 2 writes anything but one error: line, or
    argparse's usage text where usage is allowed, or writes a stderr line of
    over MAX_REFUSAL_BYTES; stdout must then be empty."""
    if code != 2:
        return []
    lines = err.splitlines(keepends=True)
    shape = (usage and err.startswith("usage:")) or (err.startswith("error: ") and len(lines) == 1)
    short = all(len(line.encode()) <= MAX_REFUSAL_BYTES for line in lines)
    if shape and short and err.endswith("\n") and not out:
        return []
    command = " ".join(map(shown, argv))
    return [f"{command}: exit 2, {len(out)} bytes of stdout and stderr {err[:200]!r}"]


def _lattice_tokens(lattice):
    """The lattice-file tokens of a lattice: order, table, rank, matrices."""
    grp = lattice.group
    tokens = [grp.order, *(x for row in grp.table for x in row), lattice.rank]
    return tokens + [x for m in lattice.action for x in m.entries]


def _valid_lattice_files():
    """Token tuples of eight small lattices, rank 0 to 6."""
    c1, c2, c3 = (FiniteGroup.cyclic(n) for n in (1, 2, 3))
    sign = GLattice(c2, 1, (IntegerMatrix.identity(1), IntegerMatrix.from_rows([[-1]])))
    v4 = FiniteGroup.direct_product(c2, c2)
    s3 = FiniteGroup.symmetric(3)
    lattices = [
        GLattice.trivial(c1, 0),
        GLattice.trivial(c1, 2),
        sign,
        sign.direct_sum(GLattice.trivial(c2, 1)),
        norm_one_lattice(c3),
        induced_lattice(c3, [0]),
        induced_lattice(v4, [0, 1]),
        induced_lattice(s3, [0, 1]),
    ]
    return [tuple(_lattice_tokens(lat)) for lat in lattices]


VALID_LATTICE_FILES = _valid_lattice_files()

# Lattice files beside the valid ones: a bad order, a bad table, a short
# file, a non-integer token and a file that is not there.
BAD_LATTICE_FILES = {
    "order-minus-one.txt": "-1\n1\n1\n",
    "order-zero.txt": "0\n1\n",
    "order-49.txt": "49\n0 1\n1 0\n",
    "not-a-group.txt": "2\n1 1\n1 1\n1\n1\n1\n",
    "short.txt": "2\n0 1\n1 0\n1\n1\n",
    "word.txt": "two\n",
}


def lattice_files() -> dict[str, str]:
    files = {name: text for name, text in LATTICE_FILES.items() if name != "j-c48.txt"}
    for k, tokens in enumerate(VALID_LATTICE_FILES):
        files[f"valid{k}.txt"] = " ".join(map(str, tokens))
    return {**files, **BAD_LATTICE_FILES}


def sweep_commands() -> list[list[str]]:
    rng = random.Random(20261018)
    cmds: list[list[str]] = []

    # Constant ladder, with digit-cap refusals and negative arguments.
    for which, ds in (("gamma", range(-1, 9)), ("lambda", range(0, 6)), ("psi", range(0, 5))):
        cmds += [["constants", which, "--", str(d)] for d in ds]
    cmds += [["constants", "gamma", "1500"], ["constants", "lambda", "1500"]]
    for which in ("ctilde", "ctilde-improved"):
        cmds += [["constants", which, "--", str(d), str(n)] for d in (0, 1, 2) for n in (-1, 1, 3)]
    cmds += [
        ["constants", "creductive", "--", str(ell), str(n), str(r)]
        for ell in (0, 1, 2) for n in (1, 2) for r in (-1, 0, 2)
    ]

    # Symbols: Legendre on primes and non-primes, Jacobi on odd and even
    # moduli and beyond the factoring limit, Hilbert at several places.
    for _ in range(40):
        a, p = rng.randint(-40, 200), rng.choice([2, 3, 5, 7, 11, 13, 97, 101, 1, 4, 9, -7])
        cmds.append(["symbol", "legendre", "--", str(a), str(p)])
    for _ in range(40):
        a = rng.randint(-500, 10**6)
        n = rng.choice([rng.randrange(1, 10**4, 2), rng.randint(-4, 30)])
        cmds.append(["symbol", "jacobi", "--", str(a), str(n)])
    cmds += [
        ["symbol", "jacobi", "2", str(2**128 + 1)],
        ["symbol", "jacobi", str(2**70 + 3), str(2**80 + 1)],
    ]
    rationals = ["-1", "2", "3/5", "-7/9", "0", "1/0", "x", "12", "-3/7", "5/11"]
    for _ in range(40):
        a, b = rng.choice(rationals), rng.choice(rationals)
        place = rng.choice(["inf", "oo", "2", "3", "5", "7", "4", "-5", "zz"])
        cmds.append(["symbol", "hilbert", "--", a, b, place])

    # Progressions: exact densities, small sieve estimates, intersections
    # and tractability, with non-units, bad syntax and conductors over budget.
    specs = [f"{rng.randint(-3, 40)}({rng.randint(1, 40)})" for _ in range(30)]
    specs += ["1(4)", "3(8)", "1(100001)", "0(5)", "1(0)", "nonsense", "2(3"]
    exts = [str(rng.randint(1, 40)) for _ in range(10)]
    exts += ["4:1", "8:1,7", "5:1,4", "7:1,2,4", "0", "6:x"]
    cmds += [["density", "exact", "--", s] for s in specs]
    cmds += [["density", "estimate", "--bound", "3000", "--", s] for s in specs[:12] + ["1(4)"]]
    cmds += [["density", "estimate", "1(4)", "--bound", "100000000000"]]
    for _ in range(30):
        s, e = rng.choice(specs), rng.choice(exts)
        cmds.append(["density", "intersection", "--", s, e])
        cmds.append(["tractable", "--", s, e])

    # Lattice cohomology from files, good and bad.
    cmds += [["h1", name] for name in lattice_files()] + [["h1", "missing.txt"]]

    # The worked experiments and their budgets.
    cmds += [["example", "2.1", "--ell", str(ell)] for ell in (0, 1, 2, 3, 8)]
    targets = [
        "2^2=3", "2^3=5,3^1=2", "2^2=1,7^1=3", "2^1=1,5^2=7", "3^1=2", "2^2=2", "2^2000=1", "x",
    ]
    cmds += [["example", "2.3", f"--target={t}"] for t in targets]
    cmds += [["example", "2.4", "--q", q, "--bound", "400"] for q in ("5", "13", "3", "4", "-7")]
    cmds += [["example", "2.5", "--height", str(h)] for h in (0, 1, 4, 8, 301)]

    # Section 7 on primes 1 mod 4n for n = 3, 5 and 7, then on lists that
    # break each rule; local power indices.
    good = {3: [13, 37, 61, 73, 97, 109], 5: [41, 61, 101, 181, 241], 7: [29, 113, 197, 281, 337]}
    for n, primes in good.items():
        cmds += [
            ["section7", str(n), str(ell), *map(str, primes[:ell])]
            for ell in range(len(primes) + 1)
        ]
    broken = ["3 2 13 13", "3 1 25", "3 1 5", "4 1 17", "1 0", "3 2 13"]
    cmds += [["section7", *args.split()] for args in broken]
    for _ in range(30):
        p = rng.choice([5, 13, 17, 29, 97, 101, 1009, 4001, 3, 7, 4, 1, 2])
        cmds.append(["local-index", "--", str(p), str(rng.randint(-2, 12))])
    cmds.append(["local-index", str(2**64 + 13), "2"])

    # Usage errors that argparse refuses.
    usage = ["", "frobnicate", "constants", "symbol legendre x 5", "example 2.1"]
    cmds += [args.split() for args in usage]
    return cmds


def sweep_mismatches(directory: Path) -> list[str]:
    """Run the sweep in process; its mismatch with cli_sweep_sha256.json and
    each refusal that is not one short line (refusal_problem), if any.

    The lattice files are written to directory, which must be the working
    directory: commands name them relative to it, as stdout echoes them.
    ASA_DIGIT_CAP must be unset.
    """
    for name, text in lattice_files().items():
        (directory / name).write_text(text)
    digest, problems = hashlib.sha256(), []
    commands = sweep_commands()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        digest.update((json.dumps([argv, code, out.getvalue()]) + "\n").encode())
        problems += refusal_problem(argv, code, out.getvalue(), err.getvalue())
    found = {"commands": len(commands), "sha256": digest.hexdigest()}
    pinned = json.loads(SWEEP_PIN.read_text())
    if found != pinned:
        problems.append(f"{SWEEP_PIN.name}: got {found}, pinned {pinned}")
    return problems


# ---------------------------------------------------------------------------
# Long refusals: arguments near the longest an argv string holds.  An
# argument of 131,000 digits is refused by ten commands, and a token of
# 131,001 x's as a lattice-file path, as an int argument, as a leaf name and
# as an extra argument.  Each must exit 2 with empty stdout and one error:
# line of at most MAX_REFUSAL_BYTES (core.shown names the argument by its
# digit count or length), save the last three, which argparse refuses: its
# usage text, then one such line.  They stay out of the sweep digest.

LONG_ARGUMENT = "1" + "0" * 130_999  # 10^130999, even and over every budget
LONG_TOKEN = "x" * 131_001


def long_refusal_commands() -> list[tuple[list[str], bool]]:
    """Each long refusal's argv, and whether argparse writes it."""
    n = LONG_ARGUMENT
    ours = [
        ["example", "2.5", "--height", n],
        ["example", "2.1", "--ell", n],
        ["example", "2.4", "--q", n],
        ["symbol", "legendre", "3", n],
        ["density", "exact", f"1({n})"],
        ["density", "intersection", "1(4)", n],
        ["tractable", "1(4)", n],
        ["density", "estimate", "1(4)", "--bound", n],
        ["section7", "3", "1", n],
        ["local-index", n, "3"],
        ["h1", LONG_TOKEN],
    ]
    theirs = [
        ["symbol", "legendre", LONG_TOKEN, "5"],  # invalid int value
        ["symbol", LONG_TOKEN, "3", "5"],  # invalid choice
        ["symbol", "legendre", "3", "5", LONG_TOKEN],  # unrecognized arguments
    ]
    return [(argv, False) for argv in ours] + [(argv, True) for argv in theirs]


def long_refusal_mismatches() -> list[str]:
    """Run each long refusal in process; one line for each that exits
    otherwise than 2 with empty stdout and one short error: line, after
    argparse's usage text when argparse writes it."""
    problems = []
    for argv, usage in long_refusal_commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        if code != 2:
            problems.append(f"{' '.join(map(shown, argv))}: exit {code}, not 2")
        if usage and not err.getvalue().startswith("usage:"):
            problems.append(f"{' '.join(map(shown, argv))}: no usage text")
        lines = err.getvalue().splitlines()
        if usage and [line for line in lines if ": error: " in line] != lines[-1:]:
            problems.append(f"{' '.join(map(shown, argv))}: no one error line after the usage text")
        problems += refusal_problem(argv, code, out.getvalue(), err.getvalue(), usage)
    return problems


# ---------------------------------------------------------------------------
# The pinned commands: each runs twice in a fresh interpreter, exits 0, prints
# the same bytes both times, and the sha256 of those bytes is its pin.  Each
# also exits and prints as an in-process cli.run of the same argv, so
# cli.main's flush, GC freeze and exit keep run's code and stdout.

DETERMINISM_COMMANDS = [
    ["constants", "gamma", "2"],
    ["constants", "gamma", "3"],
    ["constants", "lambda", "2"],
    ["constants", "psi", "2"],
    ["constants", "ctilde", "1", "2"],
    ["constants", "ctilde-improved", "1", "3"],
    ["constants", "creductive", "1", "2", "1"],
    ["symbol", "legendre", "11", "5"],
    ["symbol", "jacobi", "2", "15"],
    ["symbol", "hilbert", "--", "-1", "-1", "inf"],
    ["symbol", "hilbert", "--", "-3/7", "5/11", "inf"],
    ["density", "exact", "1(4)"],
    ["density", "estimate", "1(4)", "--bound", "100000"],
    ["density", "estimate", "1(8)", "--bound", "100000"],
    ["density", "intersection", "1(4)", "5"],
    ["tractable", "1(4)", "4:1"],
    ["example", "2.1", "--ell", "2"],
    ["example", "2.3", "--target", "2^2=3"],
    ["example", "2.4", "--q", "5", "--bound", "1000"],
    ["example", "2.5", "--height", "10"],
    ["section7", "3", "2", "13", "37"],
    ["local-index", "13", "3"],
]


def determinism_commands() -> list[list[str]]:
    return DETERMINISM_COMMANDS + [["h1", name] for name in LATTICE_FILES]


def _run_in_process(argv, directory: Path) -> tuple[int, bytes]:
    """cli.run(argv) with directory as the working directory: its exit code and stdout."""
    out, cwd = io.StringIO(), os.getcwd()
    try:
        os.chdir(directory)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode()


def stdout_mismatches(directory: Path) -> list[str]:
    """Run each pinned command twice in directory and once in process; one line per mismatch."""
    for name, text in LATTICE_FILES.items():
        (directory / name).write_text(text)
    pinned = json.loads(STDOUT_PIN.read_text())
    commands = determinism_commands()
    problems = []
    if sorted(pinned) != sorted(" ".join(c) for c in commands):
        problems.append(f"{STDOUT_PIN.name} does not name exactly the pinned commands")
    for command in commands:
        key = " ".join(command)
        runs = [run_python(["-m", "arithlab", *command], cwd=directory) for _ in range(2)]
        if runs[0].returncode or runs[1].returncode:
            codes = [run.returncode for run in runs]
            problems.append(f"{key}: exit codes {codes}: {runs[0].stderr.decode()}")
        elif runs[0].stdout != runs[1].stdout:
            problems.append(f"{key}: two runs print different bytes")
        elif (digest := hashlib.sha256(runs[0].stdout).hexdigest()) != pinned.get(key):
            problems.append(f"{key}: got {digest}, pinned {pinned.get(key)}")
        if (runs[0].returncode, runs[0].stdout) != _run_in_process(command, directory):
            problems.append(f"{key}: python -m arithlab and cli.run differ in exit code or stdout")
    return problems


# ---------------------------------------------------------------------------
# The two parsers: cli.run tries cli._parse_fast, which reads a plainly
# well-formed argv off the grammar table or returns None, before argparse.
# Each argv it accepts must parse to argparse's namespace; argparse differs
# between CPython versions, so this is checked on each of them.


def parser_disagreements(commands) -> list[str]:
    """One line for each argv that _parse_fast accepts and argparse parses otherwise."""
    problems = []
    for argv in commands:
        fast = cli._parse_fast(argv)
        if fast is None:
            continue
        try:
            with redirect_stderr(io.StringIO()):
                slow = vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            slow = f"exit {exc.code}"
        if vars(fast) != slow:
            problems.append(f"{argv}: _parse_fast gives {vars(fast)}, argparse {slow}")
    return problems


# ---------------------------------------------------------------------------
# The demos: every script in demos/ runs in a fresh interpreter, and the
# sha256 of its stdout is its pin.


def unpinned_demos() -> list[str]:
    """Demos without a pin, and pins without a demo."""
    pinned, present = set(json.loads(DEMO_PIN.read_text())), {p.name for p in DEMOS.glob("*.py")}
    return [f"{DEMO_PIN.name}: no pin for {n}" for n in sorted(present - pinned)] + [
        f"{DEMO_PIN.name}: no demo {n}" for n in sorted(pinned - present)
    ]


def demo_mismatches(names) -> list[str]:
    """Run each named demo; one line for each that fails or misses its pin."""
    pinned = json.loads(DEMO_PIN.read_text())
    problems = []
    for name in names:
        result = run_python([str(DEMOS / name)])
        if result.returncode:
            problems.append(f"{name}: exit code {result.returncode}: {result.stderr.decode()}")
        elif (digest := hashlib.sha256(result.stdout).hexdigest()) != pinned[name]:
            problems.append(f"{name}: got {digest}, pinned {pinned[name]}")
    return problems


def main() -> int:
    os.environ.pop("ASA_DIGIT_CAP", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the sweep names its lattice files relative to it
        problems = sweep_mismatches(Path(tmp)) + stdout_mismatches(Path(tmp))
        os.chdir(cwd)
    sweep, demos = sweep_commands(), sorted(json.loads(DEMO_PIN.read_text()))
    problems += parser_disagreements(sweep)
    problems += long_refusal_mismatches()
    problems += unpinned_demos()
    problems += demo_mismatches(demos)
    for line in problems:
        print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    parsed = sum(cli._parse_fast(argv) is not None for argv in sweep)
    print(
        f"Python {version}: {len(problems)} mismatches in the three pin files, "
        "main against run, the parsers and the refusal lines: "
        f"{len(sweep)} sweep commands, {len(determinism_commands())} pinned commands, "
        f"{len(demos)} demos, {parsed} parser checks, "
        f"{len(long_refusal_commands())} long refusals"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
