"""Command-line front end.

Every subcommand prints a single JSON document on standard output with
the command echo, inputs, outputs, provenance (module and formula), and
a list of certification results.  Exact integers and rationals are
rendered as decimal strings so that arbitrarily large values survive
any downstream parser.  Wall time goes to standard error, keeping
standard output byte-identical across repeated runs.

Exit codes: 0 success with all certifications passing, 1 certification
failure, 2 usage error (unknown subcommand, malformed input file, an
input over a work budget, or a digit-cap overflow).

Only core is imported up front; each handler imports the modules it
uses when it runs, so a command loads nothing it does not call.
"""

from __future__ import annotations

import argparse
import decimal
import itertools
import json
import os
import sys
import time
from fractions import Fraction

from .core import (
    FACTOR_LIMIT, DigitCapExceeded, IntegerMatrix, default_digit_cap, factor,
)

__all__ = ["main", "run"]


def _decimal(n: int) -> str:
    """str(n) in subquadratic time, where CPython 3.11's str(int) is quadratic.

    Splits n = hi * 2^w + lo and reassembles the halves' decimal values as
    digits(lo) + digits(hi) * 2^w in decimal.Decimal, whose big products run
    by number-theoretic transform; leaves of at most 128 bits go through
    Decimal(int) directly.  The context has maximal precision and traps
    Inexact, so every step is exact or raises.
    """
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2^w, memoised for this call
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w if w <= 128 else power(w // 2) * power(w - w // 2)
        return powers[w]

    def digits(x: int, width: int) -> decimal.Decimal:  # 0 <= x < 2^width
        if width <= 128:
            return decimal.Decimal(x)
        w = width // 2
        hi = x >> w
        return digits(x - (hi << w), w) + digits(hi, width - w) * power(w)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(digits(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _fmt(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return str(value)


class UsageError(Exception):
    pass


def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {token!r}") from exc


def _parse_place(token: str) -> symbols.Place:
    from . import symbols

    if token in ("inf", "oo", "infinity"):
        return symbols.Place.infinite()
    try:
        return symbols.Place.finite(int(token))
    except ValueError as exc:
        raise UsageError(f"cannot parse place {token!r}: {exc}") from exc


def _parse_progression(token: str) -> progressions.ProgressionSpec:
    """Progression syntax a(m), e.g. 1(4) for primes congruent to 1 mod 4.

    A well-formed token whose values are refused (a not a unit, m out of
    range) raises ValueError, reported as invalid input.
    """
    try:
        a, rest = token.split("(", 1)
        a, m = int(a), int(rest.rstrip(")"))
    except ValueError as exc:
        raise UsageError(f"cannot parse progression {token!r}: expected a(m)") from exc
    from . import progressions

    return progressions.ProgressionSpec.residue_class(a, m)


def _parse_extension(token: str) -> progressions.AbelianExtensionDescriptor:
    """Extension syntax m (cyclotomic) or m:h1,h2,... (fixed field).

    Refused values raise ValueError, as for progressions.
    """
    try:
        m, colon, subgroup = token.partition(":")
        m = int(m)
        hs = [int(x) for x in subgroup.split(",")] if colon else [1]
    except ValueError as exc:
        raise UsageError(f"cannot parse extension {token!r}: {exc}") from exc
    from . import progressions

    return progressions.AbelianExtensionDescriptor(m, hs)


def _parse_target(token: str) -> experiments.CongruenceTarget:
    """Target syntax p^alpha=a comma-separated, e.g. 2^2=3,7^1=2.

    Refused values raise ValueError, as for progressions.
    """
    conditions = []
    try:
        for part in token.split(","):
            pa, a = part.split("=", 1)
            p, alpha = pa.split("^", 1)
            conditions.append((int(p), int(alpha), int(a)))
    except ValueError as exc:
        raise UsageError(f"cannot parse congruence target {token!r}: {exc}") from exc
    from . import experiments

    return experiments.CongruenceTarget(tuple(conditions))


def _parse_lattice_file(path: str) -> cohomology.GLattice:
    """Read a group lattice: order, table rows, rank, action matrices.

    Whitespace-separated integers; everything after # is a comment.  An
    order outside 1..MAX_GROUP_ORDER is refused before the table is read,
    and a rank above MAX_LATTICE_RANK before any action matrix is read.
    """
    from . import cohomology

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read lattice file {path!r}: {exc}") from exc
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError as exc:
                raise UsageError(
                    f"malformed lattice file {path!r}: non-integer token {tok!r}"
                ) from exc
    pos = 0

    def take(k: int, what: str) -> list[int]:
        nonlocal pos
        if k > len(tokens) - pos:
            raise UsageError(f"malformed lattice file {path!r}: truncated {what}")
        pos += k
        return tokens[pos - k : pos]

    try:
        s = take(1, "group order")[0]
        if not 1 <= s <= cohomology.MAX_GROUP_ORDER:
            raise UsageError(
                f"malformed lattice file {path!r}: group order must be in "
                f"1..{cohomology.MAX_GROUP_ORDER}, got {s}"
            )
        table = [take(s, "multiplication table") for _ in range(s)]
        group = cohomology.FiniteGroup(table)
        d = take(1, "rank")[0]
        if d > cohomology.MAX_LATTICE_RANK:
            raise UsageError(
                f"malformed lattice file {path!r}: lattice rank must be at most "
                f"{cohomology.MAX_LATTICE_RANK}, got {d}"
            )
        # A negative rank reads no matrix: GLattice refuses it below.
        mats = []
        if d >= 0:
            mats = [IntegerMatrix(d, d, tuple(take(d * d, "action matrix"))) for _ in range(s)]
        if pos < len(tokens):
            raise UsageError(
                f"malformed lattice file {path!r}: {len(tokens) - pos} trailing tokens"
            )
        return cohomology.GLattice(group, d, tuple(mats))
    except ValueError as exc:
        raise UsageError(f"malformed lattice file {path!r}: {exc}") from exc


def _count_invertible_mod3(d: int) -> int:
    """Invertible d x d matrices mod 3 (d <= 3), counted over all 3^(d*d) row tuples.

    Each matrix is padded to diag(M, I) in 3 x 3, which has determinant
    det M: for the last two rows b, c, the cofactors of the first row
    are written out once, and every first row a meets them in one dot
    product.
    """
    rows = [r + (0,) * (3 - d) for r in itertools.product(range(3), repeat=d)]
    identity = ((0, 1, 0), (0, 0, 1))[d - 1 :]
    count = 0
    for tail in itertools.product(rows, repeat=d - 1):
        (b0, b1, b2), (c0, c1, c2) = tail + identity
        k0, k1, k2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        count += sum(1 for a0, a1, a2 in rows if (a0 * k0 + a1 * k1 + a2 * k2) % 3)
    return count


def _jacobi_by_reciprocity(a: int, n: int) -> int:
    """(a/n) for odd n >= 1 as the product of (q/n) over the primes q of a mod n.

    An odd q gives (q/n) = (n/q) (-1)^((q-1)/2 (n-1)/2), with (n/q) from
    Euler's criterion rather than the reciprocity loop being certified; 2
    gives 1 exactly when n = +-1 (mod 8).
    """
    if a % n == 0:
        return int(n == 1)
    prod = 1
    for q, e in factor(a % n).factors:
        if q == 2:
            prod *= (1 if n % 8 in (1, 7) else -1) ** e
        else:
            euler = pow(n, (q - 1) // 2, q)  # 0, 1 or q - 1
            prod *= ((-1 if euler == q - 1 else euler) * (-1 if q % 4 == n % 4 == 3 else 1)) ** e
    return prod


def _count_nth_powers(p: int, n: int) -> int:
    """Number of n-th powers mod the prime p: the order of g^n, g a primitive root."""
    qs = factor(p - 1).primes()
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
    x, order = pow(g, n, p), p - 1
    for q in qs:
        while order % q == 0 and pow(x, order // q, p) == 1:
            order //= q
    return order


def _report(command, inputs, outputs, certifications, module, operation, formula):
    status = "ok" if all(c["passed"] for c in certifications) else "certification-failure"
    return {
        "command": command,
        "inputs": _fmt(inputs),
        "outputs": _fmt(outputs),
        "provenance": {"module": f"arithlab.{module}", "operation": operation, "formula": formula},
        "certifications": certifications,
        "status": status,
    }


def _cert(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# Subcommand handlers, each returning a report dict.
# ---------------------------------------------------------------------------


def _run_constants(args, argv):
    from . import bounds

    which = args.constant
    certs = []
    if which == "gamma":
        value = bounds.gamma(args.d)
        if args.d <= 3:
            certs.append(
                _cert("matches-brute-force-count", _count_invertible_mod3(args.d) == value)
            )
        inputs = {"d": args.d}
        formula = "gamma(d) = prod_{i=0}^{d-1} (3^d - 3^i)"
    elif which == "lambda":
        value = bounds.lam(args.d)
        inputs = {"d": args.d}
        formula = "lambda(d) = d * (gamma(d) - 1)"
    elif which == "psi":
        value = _decimal(bounds.psi(args.d))
        size = bounds.psi_size(args.d)
        certs.append(
            _cert("digit-count-matches-log-estimate", str(len(value)) == size.digits10)
        )
        inputs = {"d": args.d}
        formula = "psi(d) = gamma(d)^(d * (gamma(d) - 1))"
    elif which == "ctilde":
        value = bounds.c_tilde(args.d, args.n)
        inputs = {"d": args.d, "n": args.n}
        formula = "ctilde(d, n) = n^d * psi(lambda(d))"
    elif which == "ctilde-improved":
        value = bounds.c_tilde_improved(args.d, args.n)
        inputs = {"d": args.d, "n": args.n}
        formula = "ctilde_improved(d, n) = n^d * gamma(d)^(lambda(d) * (gamma(d) - 1))"
    else:  # creductive
        value = bounds.c_reductive(args.ell, args.n, args.r)
        inputs = {"ell": args.ell, "n": args.n, "r": args.r}
        formula = "c(ell, n, r) = 2^(ell * r) * ctilde(ell, n)"
    return _report(argv, inputs, {"value": value}, certs, "bounds", which, formula)


def _run_symbol(args, argv):
    from . import symbols

    which = args.symbol
    if which == "legendre":
        value = symbols.legendre(args.a, args.p)
        euler = pow(args.a % args.p, (args.p - 1) // 2, args.p)
        certs = [_cert("euler-criterion-agreement", euler == value % args.p)]
        inputs = {"a": args.a, "p": args.p}
        formula = "quadratic residue symbol via reciprocity"
    elif which == "jacobi":
        value = symbols.jacobi(args.a, args.n)
        if args.a % args.n > FACTOR_LIMIT:
            raise UsageError("cannot certify (a/n): a mod n exceeds 2**64, the limit of factor")
        prod = _jacobi_by_reciprocity(args.a, args.n)
        certs = [_cert("multiplicative-over-factorization", prod == value)]
        inputs = {"a": args.a, "n": args.n}
        formula = "jacobi symbol, multiplicative extension of legendre"
    else:  # hilbert
        a, b = _parse_rational(args.a), _parse_rational(args.b)
        place = _parse_place(args.place)
        if max(abs(a.numerator), a.denominator, abs(b.numerator), b.denominator) > FACTOR_LIMIT:
            raise UsageError(
                "cannot certify (a, b)_v: a numerator or denominator of a or b exceeds "
                "2**64, the limit of factor"
            )
        value = symbols.hilbert_symbol(a, b, place)
        certs = [
            _cert("reciprocity-product-is-one", symbols.hilbert_product_check(a, b).passed)
        ]
        inputs = {"a": a, "b": b, "place": str(place)}
        formula = "local solvability class of z^2 = a x^2 + b y^2"
    return _report(argv, inputs, {"value": value}, certs, "symbols", which, formula)


def _run_density(args, argv):
    from . import progressions

    which = args.kind
    spec = _parse_progression(args.spec)
    if which == "exact":
        value = progressions.chebotarev_density(spec)
        # Each coset c, checked to be min(c) * H, has density |c| / phi(m),
        # so the densities sum to 1 exactly when the sizes sum to phi(m).
        ext = spec.extension
        total = sum(len(c) for c in ext.cosets() if c == ext.coset(min(c)))
        certs = [_cert("coset-densities-sum-to-one", total == ext.phi)]
        outputs = {"density": value}
        formula = "|subgroup| / phi(conductor)"
    elif which == "estimate":
        exact = progressions.chebotarev_density(spec)
        value = progressions.natural_density_estimate(spec, args.bound)
        certs = [_cert("within-0.02-of-exact", abs(value - float(exact)) <= 0.02)]
        outputs = {"estimate": value, "exact": exact, "x_bound": args.bound}
        formula = "pi(x; progression) / pi(x) by sieve"
    else:  # intersection
        ext2 = _parse_extension(args.ext)
        value = progressions.intersection_density(spec, ext2)
        certs = [
            _cert("bounded-by-progression-density", value <= progressions.chebotarev_density(spec))
        ]
        outputs = {"density": value}
        formula = "residue count modulo lcm of conductors"
    inputs = {"spec": args.spec}
    if which == "intersection":
        inputs["ext"] = args.ext
    return _report(argv, inputs, outputs, certs, "progressions", which, formula)


def _run_tractable(args, argv):
    from . import progressions

    spec = _parse_progression(args.spec)
    target = _parse_extension(args.target)
    value = progressions.tractable_condition(spec, target)
    density = progressions.intersection_density(spec, target)
    certs = [_cert("density-positivity-matches-condition", (density > 0) == value)]
    inputs = {"spec": args.spec, "target": args.target}
    outputs = {"tractable": value, "intersection_density": density}
    formula = "class restriction to the intersection field is trivial"
    return _report(argv, inputs, outputs, certs, "progressions", "tractable_condition", formula)


def _run_h1(args, argv):
    from . import cohomology

    lattice = _parse_lattice_file(args.lattice_file)
    report = cohomology.h1_bound_check(lattice)
    inv = report.invariants
    certs = [
        _cert("free-rank-zero", inv.free_rank == 0),
        _cert("order-divides-power-bound", report.order_divides_bound),
        _cert("annihilated-by-group-order", report.annihilated_by_group_order),
    ]
    outputs = {
        "elementary_divisors": list(inv.divisors),
        "free_rank": inv.free_rank,
        "order": inv.order,
        "group_order": report.group_order,
        "rank": report.rank,
    }
    inputs = {"lattice_file": args.lattice_file}
    formula = "cocycle kernel modulo coboundary image, by Smith normal form"
    return _report(argv, inputs, outputs, certs, "cohomology", "h1", formula)


def _run_example(args, argv):
    from . import experiments, symbols

    which = args.which
    if which == "2.1":
        pair = experiments.build_biased_prime_sets(args.ell)
        # BiasedPrimePair has checked that every q is prime.
        crosses = [
            symbols.jacobi(p, q) for p in pair.p_list for q in pair.q_list
        ]
        growth = all(
            pair.p_list[i] > 5**i for i in range(len(pair.p_list))
        )
        certs = [
            _cert("cross-symbols-all-one", all(x == 1 for x in crosses)),
            _cert("sets-disjoint", not set(pair.p_list) & set(pair.q_list)),
            _cert("all-one-mod-four", all(x % 4 == 1 for x in pair.p_list + pair.q_list)),
            _cert("growth-beats-geometric", growth),
        ]
        outputs = {"P": list(pair.p_list), "Q": list(pair.q_list)}
        inputs = {"ell": args.ell}
        operation = "build_biased_prime_sets"
        formula = "inductive smallest-prime choices in nested progressions"
    elif which == "2.3":
        target = _parse_target(args.target)
        eps, p = experiments.density_witness(target)
        certs = [_cert("witness-satisfies-target", target.contains(eps, p))]
        outputs = {"epsilon": eps, "prime": p, "witness": eps * p}
        inputs = {"target": args.target}
        operation = "density_witness"
        formula = "sign choice + CRT + smallest prime in the class"
    elif which == "2.4":
        report = experiments.artin_kernel_evidence(args.q, args.bound)
        certs = [
            _cert("zero-failures", not report.failures),
            _cert("sampled-symbols-trivial", all(s == 1 for _, s in report.sampled_symbols)),
        ]
        outputs = {
            "checked_count": len(report.checked_primes),
            "first_checked": list(report.checked_primes[:3]),
            "failures": list(report.failures),
        }
        inputs = {"q": args.q, "bound": args.bound}
        operation = "artin_kernel_evidence"
        formula = "local squareness of q at split places"
    else:  # 2.5
        units = experiments.norm_one_constrained_units(args.height)
        expected = sorted(experiments.GAUSSIAN_UNITS, key=lambda z: (z.a, z.b))
        certs = [
            _cert("exactly-four-units", len(units) == 4),
            _cert("units-are-the-gaussian-units", units == expected),
        ]
        outputs = {"units": [str(u) for u in units], "count": len(units)}
        inputs = {"height": args.height}
        operation = "norm_one_constrained_units"
        formula = "conjugate quotients with balanced split valuations"
    return _report(argv, inputs, outputs, certs, "experiments", operation, formula)


def _run_section7(args, argv):
    from . import experiments

    report = experiments.section7_index_bound(args.n, args.ell, args.primes)
    certs = [
        _cert("product-equals-n-to-ell", report.product == args.n**args.ell),
        _cert("bounds-strictly-increasing", report.monotone),
    ]
    outputs = {
        "local_indices": list(report.local_indices),
        "product": report.product,
        "lower_bound": report.lower_bound,
        "partial_bounds": list(report.partial_bounds),
    }
    inputs = {"n": args.n, "ell": args.ell, "primes": list(args.primes)}
    formula = "product of local power indices; bound n^ell / 4"
    return _report(argv, inputs, outputs, certs, "experiments", "section7_index_bound", formula)


def _run_local_index(args, argv):
    if args.p - 1 > FACTOR_LIMIT:
        raise UsageError(f"p - 1 must be <= 2**64 for the power-count certification, got {args.p}")
    from . import experiments

    value = experiments.local_power_index(args.p, args.n)
    count = _count_nth_powers(args.p, args.n)
    certs = [_cert("power-count-agrees", count * value == args.p - 1)]
    inputs, outputs = {"p": args.p, "n": args.n}, {"index": value}
    formula = "gcd(n, p - 1), cross-checked by counting n-th powers"
    return _report(argv, inputs, outputs, certs, "experiments", "local_power_index", formula)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithlab",
        description="Exact desk-scale number theory: symbols, progressions, "
        "lattice cohomology, index bounds, and worked experiments.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    constants = sub.add_parser("constants", help="evaluate the constant ladder")
    csub = constants.add_subparsers(dest="constant", required=True)
    for name in ("gamma", "lambda", "psi"):
        p = csub.add_parser(name)
        p.add_argument("d", type=int)
    for name in ("ctilde", "ctilde-improved"):
        p = csub.add_parser(name)
        p.add_argument("d", type=int)
        p.add_argument("n", type=int)
    p = csub.add_parser("creductive")
    p.add_argument("ell", type=int)
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    constants.set_defaults(handler=_run_constants)

    symbol = sub.add_parser("symbol", help="quadratic and Hilbert symbols")
    ssub = symbol.add_subparsers(dest="symbol", required=True)
    p = ssub.add_parser("legendre")
    p.add_argument("a", type=int)
    p.add_argument("p", type=int)
    p = ssub.add_parser("jacobi")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p = ssub.add_parser("hilbert")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("place")
    symbol.set_defaults(handler=_run_symbol)

    density = sub.add_parser("density", help="progression densities")
    dsub = density.add_subparsers(dest="kind", required=True)
    p = dsub.add_parser("exact")
    p.add_argument("spec")
    p = dsub.add_parser("estimate")
    p.add_argument("spec")
    p.add_argument("--bound", type=int, default=10**6)
    p = dsub.add_parser("intersection")
    p.add_argument("spec")
    p.add_argument("ext")
    density.set_defaults(handler=_run_density)

    tractable = sub.add_parser("tractable", help="class-restriction condition")
    tractable.add_argument("spec")
    tractable.add_argument("target")
    tractable.set_defaults(handler=_run_tractable)

    h1cmd = sub.add_parser("h1", help="lattice cohomology from a file")
    h1cmd.add_argument("lattice_file")
    h1cmd.set_defaults(handler=_run_h1)

    example = sub.add_parser("example", help="worked experiments")
    esub = example.add_subparsers(dest="which", required=True)
    p = esub.add_parser("2.1")
    p.add_argument("--ell", type=int, required=True)
    p = esub.add_parser("2.3")
    p.add_argument("--target", required=True)
    p = esub.add_parser("2.4")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--bound", type=int, default=1000)
    p = esub.add_parser("2.5")
    p.add_argument("--height", type=int, required=True)
    example.set_defaults(handler=_run_example)

    s7 = sub.add_parser("section7", help="power-index growth report")
    s7.add_argument("n", type=int)
    s7.add_argument("ell", type=int)
    s7.add_argument("primes", type=int, nargs="*")
    s7.set_defaults(handler=_run_section7)

    li = sub.add_parser("local-index", help="index of n-th powers mod p")
    li.add_argument("p", type=int)
    li.add_argument("n", type=int)
    li.set_defaults(handler=_run_local_index)

    return parser


def run(argv: list[str]) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        # Exact values may run to hundreds of thousands of digits; lift the
        # interpreter's decimal-rendering guard up to the digit cap before
        # argparse converts any integer argument.
        sys.set_int_max_str_digits(max(default_digit_cap() + 10, 20000))
        args = _build_parser().parse_args(argv)
        start = time.monotonic()
        report = args.handler(args, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DigitCapExceeded as exc:
        print(f"error: digit cap exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    print(json.dumps(report, indent=2))
    print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["status"] == "ok" else 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  As the Python docs' note on
        # SIGPIPE advises, point stdout at devnull so that the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
