"""A deterministic corpus of in-process CLI runs, hashed to one pinned digest.

Every subcommand runs on a few hundred inputs, refusals and usage errors
included.  Each run's command, exit code and stdout go into one sha256, so
a change to what any subcommand prints, or to which inputs it refuses,
changes the digest.  stderr stays out: it carries the wall time.

After a change that is meant to alter output, rerun this test and copy the
digest from its failure message into the pin file.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from arithlab import cli
from lattice_files import LATTICE_FILES
from test_cli import VALID_LATTICE_FILES

PIN = Path(__file__).with_name("cli_sweep_sha256.json")

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


def sweep_digest(tmp_path: Path) -> tuple[int, str]:
    for name, text in lattice_files().items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    commands = sweep_commands()
    for argv in commands:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        digest.update((json.dumps([argv, code, out.getvalue()]) + "\n").encode())
    return len(commands), digest.hexdigest()


def test_sweep_stdout_matches_pin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # lattice files are named relative to it, as stdout echoes them
    monkeypatch.delenv("ASA_DIGIT_CAP", raising=False)
    count, digest = sweep_digest(tmp_path)
    pinned = json.loads(PIN.read_text())
    assert {"commands": count, "sha256": digest} == pinned
