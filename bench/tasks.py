"""The ops of each workload, each with the check applied to its output.

Runs in the worker, which imports arithlab during set-up.  Ops call
arithlab through module attributes at call time, so the tracer's wrappers
see every call.  Each check compares the output with an answer made apart
from arithlab (see ``inputs`` and ``checks``) or with a property the
method must have.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    prepare: Callable[[], None] | None = None


def import_arithlab():
    """Import arithlab from this checkout's ``src``, and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import arithlab

    if os.path.dirname(os.path.dirname(os.path.abspath(arithlab.__file__))) != SRC:
        raise ImportError(f"arithlab came from {arithlab.__file__}, not from {SRC}")
    return arithlab


# ---------------------------------------------------------------------------
# h1-domain: lattices whose H^1 is known from theory.
# ---------------------------------------------------------------------------


def check_h1(inv, expected) -> bool:
    return inv.free_rank == 0 and tuple(inv.divisors) == tuple(expected)


def _perms(n):
    # FiniteGroup.symmetric indexes the sorted permutations.
    return sorted(itertools.permutations(range(n)))


def _dihedral4(A):
    """D4 acting on the square's corners, as composition of permutations."""
    elems = {(0, 1, 2, 3)}
    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    frontier = list(elems)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[k]] for k in range(4))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms]
    return A.FiniteGroup(table), perms


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def augmentation_dual(A, group):
    """J_G = Z[G] / Z.N_G, on the images of the elements 0..s-2.

    H^1(G, J_G) = H^2(G, Z), which is the dual of G^ab.
    """
    s = group.order
    d = s - 1
    mats = []
    for g in group.elements():
        m = [[0] * d for _ in range(d)]
        for j in range(d):
            k = group.mul(g, j)
            if k < d:
                m[k][j] = 1
            else:  # the image of element s-1 is minus the sum of the others
                for i in range(d):
                    m[i][j] = -1
        mats.append(A.IntegerMatrix.from_rows(m))
    return A.GLattice(group, d, mats)


def sign_lattice(A, n):
    """Z with S_n acting by the sign; H^1 = Z/2."""
    group = A.FiniteGroup.symmetric(n)
    mats = [A.IntegerMatrix.from_rows([[_sign(p)]]) for p in _perms(n)]
    return A.GLattice(group, 1, mats)


def h1_corpus(A) -> dict:
    """name -> (lattice, expected elementary divisors)."""
    s3, s4 = A.FiniteGroup.symmetric(3), A.FiniteGroup.symmetric(4)
    d4, d4_perms = _dihedral4(A)
    c2xc2 = A.FiniteGroup.direct_product(A.FiniteGroup.cyclic(2), A.FiniteGroup.cyclic(2))
    p3, p4 = _perms(3), _perms(4)
    corpus = {}
    for n in range(2, 11):
        corpus[f"norm1-C{n}"] = (A.norm_one_lattice(A.FiniteGroup.cyclic(n)), (n,))
    j_s3 = augmentation_dual(A, s3)
    corpus["J-C2xC2"] = (augmentation_dual(A, c2xc2), (2, 2))
    corpus["J-S3"] = (j_s3, (2,))
    corpus["J-D4"] = (augmentation_dual(A, d4), (2, 2))
    for n in (6, 7):
        corpus[f"J-C{n}"] = (augmentation_dual(A, A.FiniteGroup.cyclic(n)), (n,))
    # Shapiro: H^1(G, Z[G/H]) = Hom(H, Z) = 0.
    perm_s3_c2 = A.induced_lattice(s3, [p3.index((0, 1, 2)), p3.index((1, 0, 2))])
    corpus["perm-S3/C2"] = (perm_s3_c2, ())
    corpus["perm-S3/1"] = (A.induced_lattice(s3, [p3.index((0, 1, 2))]), ())
    corpus["perm-C6/1"] = (A.induced_lattice(A.FiniteGroup.cyclic(6), [0]), ())
    corpus["perm-D4/s"] = (
        A.induced_lattice(d4, [d4_perms.index((0, 1, 2, 3)), d4_perms.index((0, 3, 2, 1))]), ())
    corpus["perm-S4/S3"] = (A.induced_lattice(s4, [i for i, p in enumerate(p4) if p[3] == 3]), ())
    sign_s3 = sign_lattice(A, 3)
    corpus["sign-S3"] = (sign_s3, (2,))
    corpus["sign-S4"] = (sign_lattice(A, 4), (2,))
    # H^1 is additive, and H^1(G, Z) = Hom(G, Z) = 0.
    corpus["sum-signS3+J-S3"] = (sign_s3.direct_sum(j_s3), (2, 2))
    corpus["sum-signS3+perm-S3/C2"] = (sign_s3.direct_sum(perm_s3_c2), (2,))
    corpus["sum-J-S3+perm-S3/C2"] = (j_s3.direct_sum(perm_s3_c2), (2,))
    c6 = A.FiniteGroup.cyclic(6)
    corpus["sum-norm1-C6+Z"] = (
        corpus["norm1-C6"][0].direct_sum(A.GLattice.trivial(c6, 1)), (6,))
    return corpus


def h1_domain_tasks(A, inputs: dict) -> list[Task]:
    corpus = h1_corpus(A)
    tasks = []
    for name in inputs["order"]:
        lattice, expected = corpus[name]
        tasks.append(Task(name, lambda L=lattice: A.h1(L), lambda inv, e=expected: check_h1(inv, e)))
    A.h1(corpus["norm1-C3"][0])  # warm-up
    return tasks


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per invocation.
# ---------------------------------------------------------------------------


def _frac(pair) -> str:
    f = Fraction(*pair)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def check_cli_outputs(kind: str, out: dict, e: dict) -> bool:
    """The outputs of one CLI report against the answer made apart."""
    if kind == "int":
        return out["value"] == str(e["value"])
    if kind == "index":
        return out["index"] == str(e["value"])
    if kind == "power":
        return checks.check_power(out["value"], e["base"], e["exponent"], e["digits"])
    if kind == "fraction":
        return out["density"] == _frac(e["value"])
    if kind == "estimate":
        share = e["count"] / e["total"]
        return (out["estimate"] == repr(share) and out["exact"] == _frac([1, e["phi"]])
                and abs(share - 1 / e["phi"]) <= 0.005)
    if kind == "tractable":
        return out["tractable"] is e["tractable"] and out["intersection_density"] == _frac(e["density"])
    if kind == "h1":
        return (out["elementary_divisors"] == [str(d) for d in e["divisors"]]
                and out["free_rank"] == "0" and out["order"] == str(math.prod(e["divisors"])))
    if kind == "biased":
        return out["P"] == [str(p) for p in e["P"]] and out["Q"] == [str(q) for q in e["Q"]]
    if kind == "witness":
        eps, p = e["epsilon"], e["prime"]
        return out["epsilon"] == str(eps) and out["prime"] == str(p) and out["witness"] == str(eps * p)
    if kind == "artin":
        return (out["checked_count"] == str(e["count"]) and out["failures"] == []
                and out["first_checked"] == [str(p) for p in e["first"]])
    if kind == "units":
        return out["units"] == e["units"] and out["count"] == str(len(e["units"]))
    if kind == "section7":
        n, ell = e["n"], e["ell"]
        return (out["local_indices"] == [str(n)] * ell and out["product"] == str(n**ell)
                and out["lower_bound"] == f"{n**ell}/4"
                and out["partial_bounds"] == [f"{n**j}/4" for j in range(1, ell + 1)])
    raise ValueError(f"unknown check kind {kind!r}")


def check_cli(proc, kind: str, expect: dict) -> bool:
    report = json.loads(proc.stdout)
    return (report["status"] == "ok" and all(c["passed"] for c in report["certifications"])
            and check_cli_outputs(kind, report["outputs"], expect))


class CliFailed(Exception):
    """An invocation ended with a nonzero exit code."""


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(cmd: list[str], env: dict):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def write_lattice(A, path: str, relabel: list[int]) -> None:
    """J for C2 x C2 in the CLI's lattice-file format, elements relabelled."""
    group = A.FiniteGroup.direct_product(A.FiniteGroup.cyclic(2), A.FiniteGroup.cyclic(2))
    lattice = augmentation_dual(A, group)
    s, d = group.order, lattice.rank
    table = [[0] * s for _ in range(s)]
    action = [None] * s
    for a in range(s):
        action[relabel[a]] = lattice.action[a]
        for b in range(s):
            table[relabel[a]][relabel[b]] = relabel[group.mul(a, b)]
    lines = [str(s)] + [" ".join(map(str, row)) for row in table] + [str(d)]
    for m in action:
        lines += [" ".join(str(m[i, j]) for j in range(d)) for i in range(d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_cold_tasks(A, inputs: dict, out_dir: str, command: list[str]) -> list[Task]:
    """``command`` is the prefix each invocation's arguments are appended to.

    The ops read it when they run, so the worker can point it at the traced
    child for the traced phase.
    """
    lattice_path = os.path.join(out_dir, "lattice-c2xc2.txt")
    write_lattice(A, lattice_path, inputs["relabel"])
    env = cli_env()
    tasks = []
    for k, inv in enumerate(inputs["invocations"]):
        argv = [lattice_path if a == "@LATTICE@" else a for a in inv["argv"]]
        leaf = argv[:2] if argv[0] in ("constants", "symbol", "density", "example") else argv[:1]
        tasks.append(Task(
            f"cli{k:02d}-{'-'.join(leaf)}",
            lambda argv=argv: invoke(command + argv, env),
            lambda proc, k=inv["kind"], e=inv["expect"]: check_cli(proc, k, e),
        ))
    invoke([sys.executable, "-m", "arithlab", "constants", "gamma", "1"], env)  # warm-up
    return tasks


# ---------------------------------------------------------------------------
# arith-core: exact arithmetic beneath the CLI, in process.
# ---------------------------------------------------------------------------


def check_factors(facs, pairs) -> bool:
    return [tuple(f.factors) for f in facs] == [((p, 1), (q, 1)) for p, q in pairs]


def check_biased(pair, e) -> bool:
    ps, qs = list(pair.p_list), list(pair.q_list)
    return (ps == e["P"] and qs == e["Q"]
            and all(checks.legendre_euler(p, q) == 1 for p in ps for q in qs))


def check_minkowski(report) -> bool:
    return report.order == 7 and report.passed


def check_sieve(primes, e) -> bool:
    return (len(primes) == e["count"] and primes[-1] == e["last"]
            and tuple(primes[:6]) == (2, 3, 5, 7, 11, 13))


def check_estimate(value, e) -> bool:
    share = e["count"] / e["total"]
    return value == share and abs(share - 1 / e["phi"]) <= 0.005


def check_artin(report, e) -> bool:
    q = e["q"]
    if len(report.checked_primes) != e["count"] or list(report.checked_primes[:3]) != e["first"]:
        return False
    want = [
        (f"({x}, {q})_{p}", checks.hilbert_local(x, Fraction(q), p))
        for p in e["first"]
        for x in (Fraction(2), Fraction(-3, 7), Fraction(p), Fraction(1, 2))
    ]
    return not report.failures and list(report.sampled_symbols) == want and all(v == 1 for _, v in want)


def check_snf_all(results, matrices) -> bool:
    return len(results) == len(matrices) and all(
        checks.check_snf(m, r.diagonal, r.left_transform.to_rows(), r.right_transform.to_rows())
        for r, m in zip(results, matrices)
    )


def _sieve_cache_clear(A):
    """Empty the sieve's cache, under any tracing wrapper, if it has one."""
    fn = A.progressions.primes_up_to
    while fn is not None and not hasattr(fn, "cache_clear"):
        fn = getattr(fn, "__wrapped__", None)
    if fn is not None:
        fn.cache_clear()


def arith_core_tasks(A, inputs: dict) -> list[Task]:
    i = inputs
    p64, pkb = i["prime64"], i["primekbit"]
    pairs = i["semiprimes"]
    cycle7 = A.IntegerMatrix.from_rows([[1 if (r + 1) % 7 == c else 0 for c in range(7)] for r in range(7)])
    hilbert = [(Fraction(a), Fraction(b)) for a, b in i["hilbert"]]
    m12 = [A.IntegerMatrix.from_rows(m) for m in i["snf12"]]
    m16 = [A.IntegerMatrix.from_rows(m) for m in i["snf16"]]
    tasks = [
        Task("is_prime-64bit", lambda: [A.is_prime(n) for n in p64["n"]],
             lambda out: out == p64["expect"]),
        Task("is_prime-kbit", lambda: [A.is_prime(n) for n in pkb["n"]],
             lambda out: out == pkb["expect"]),
        Task("factor-62bit", lambda: [A.factor(p * q) for p, q in pairs],
             lambda out: check_factors(out, pairs)),
        Task("biased-sets-6", lambda: A.build_biased_prime_sets(i["biased"]["ell"]),
             lambda out: check_biased(out, i["biased"])),
        Task("psi-3", lambda: A.psi(3),
             lambda out: checks.check_power(out, i["psi3"]["base"], i["psi3"]["exponent"], i["psi3"]["digits"])),
        # Known fault: 48^94 has exactly 159 digits, but the cap test is off by one.
        Task("psi-2-cap159", lambda: A.psi(2, cap=159),
             lambda out: checks.check_power(out, i["psi2"]["base"], i["psi2"]["exponent"], i["psi2"]["digits"])),
        # Known fault: factor(gamma(7)) is refused because gamma(7) > 2^64.
        Task("minkowski-7", lambda: A.minkowski_check(cycle7, 7), check_minkowski),
        Task("sieve-cold-1e7", lambda: A.primes_up_to(i["sieve"]["bound"]),
             lambda out: check_sieve(out, i["sieve"]), prepare=lambda: _sieve_cache_clear(A)),
    ]
    for k, spec in enumerate(i["estimates"]):
        tasks.append(Task(
            f"estimate-{k}",
            lambda s=spec: A.natural_density_estimate(
                A.ProgressionSpec.residue_class(s["a"], s["m"]), i["sieve"]["bound"]),
            lambda out, s=spec: check_estimate(out, s),
        ))
    tasks += [
        Task("artin-5-1e6", lambda: A.artin_kernel_evidence(i["artin"]["q"], i["artin"]["bound"]),
             lambda out: check_artin(out, i["artin"])),
        Task("hilbert-product", lambda: [A.hilbert_product_check(a, b) for a, b in hilbert],
             lambda out: all(checks.check_hilbert_report(r, a, b) for r, (a, b) in zip(out, hilbert))),
        Task("snf-12x12", lambda: [A.smith_normal_form(m) for m in m12],
             lambda out: check_snf_all(out, i["snf12"])),
        Task("snf-16x16", lambda: [A.smith_normal_form(m) for m in m16],
             lambda out: check_snf_all(out, i["snf16"])),
    ]
    # Warm-up: one small call into each layer the ops use.
    A.is_prime(2**61 - 1)
    A.factor(91)
    A.smith_normal_form(A.IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    A.hilbert_product_check(2, 3)
    A.psi(1)
    return tasks
