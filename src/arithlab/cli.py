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
uses when it runs, so a command loads nothing it does not call.  One
table, _GRAMMAR, describes every family, leaf and argument.  A small
parser reads a well-formed argv off it; argparse loads only for argv the
small parser does not accept, and writes every usage error and help text.
"""

from __future__ import annotations

import decimal
import gc
import itertools
import json
import math
import os
import sys
import time
import types
from fractions import Fraction

from .core import FACTOR_LIMIT, SHOWN_CHARS, DigitCapExceeded, IntegerMatrix, factor, shown

__all__ = ["main", "run"]

# The interpreter's int-string guard while a command runs.  Linux caps one
# argv string at 128 KiB, so every integer argument fits under it, and a
# lattice-file token over it is refused before it is converted.
MAX_INT_DIGITS = 2**17


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
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return str(value)


class UsageError(Exception):
    pass


def _unparseable(what: str, token: str, detail: object = "") -> UsageError:
    """The usage error of a token that does not parse as what, quoted by
    core.shown.  The detail follows only a token short enough to quote in
    full: for a longer one it would only repeat the token."""
    suffix = f": {detail}" if detail and len(token) <= SHOWN_CHARS else ""
    return UsageError(f"cannot parse {what} {shown(token)}{suffix}")


def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise _unparseable("rational", token) from exc


def _parse_place(token: str) -> symbols.Place:
    """inf, oo or infinity, else an integer prime.

    Only a token that is not an integer is unparseable; a refused integer
    raises Place's ValueError, reported as invalid input.
    """
    from . import symbols

    if token in ("inf", "oo", "infinity"):
        return symbols.Place.infinite()
    try:
        p = int(token)
    except ValueError as exc:
        raise _unparseable("place", token, exc) from exc
    return symbols.Place.finite(p)


def _parse_progression(token: str) -> progressions.ProgressionSpec:
    """Progression syntax a(m), e.g. 1(4) for primes congruent to 1 mod 4.

    A well-formed token whose values are refused (a not a unit, m out of
    range) raises ValueError, reported as invalid input.
    """
    try:
        a, rest = token.split("(", 1)
        a, m = int(a), int(rest.rstrip(")"))
    except ValueError as exc:
        raise _unparseable("progression", token, "expected a(m)") from exc
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
        raise _unparseable("extension", token, exc) from exc
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
        raise _unparseable("congruence target", token, exc) from exc
    from . import experiments

    return experiments.CongruenceTarget(tuple(conditions))


def _parse_lattice_file(path: str) -> cohomology.GLattice:
    """Read a group lattice: order, table rows, rank, action matrices.

    Whitespace-separated integers; everything after # is a comment.  An
    order outside 1..MAX_GROUP_ORDER is refused before the table is read,
    and a rank above MAX_LATTICE_RANK before any action matrix is read.
    Every fault of the contents is a ValueError inside one try, whose
    handler writes the file's prefix.
    """
    from . import cohomology

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # str() of an OSError would quote the path again.
        detail = f"[Errno {exc.errno}] {exc.strerror}" if isinstance(exc, OSError) else exc
        raise UsageError(f"cannot read lattice file {shown(path)}: {detail}") from exc
    try:
        tokens: list[int] = []
        for line in text.splitlines():
            for tok in line.split("#", 1)[0].split():
                try:
                    tokens.append(int(tok))
                except ValueError:
                    raise ValueError(
                        f"a token of {len(tok)} characters exceeds "
                        f"MAX_INT_DIGITS = {MAX_INT_DIGITS}"
                        if len(tok) > MAX_INT_DIGITS
                        else f"non-integer token {shown(tok)}"
                    ) from None
        pos = 0

        def take(k: int, what: str) -> list[int]:
            nonlocal pos
            if k > len(tokens) - pos:
                raise ValueError(f"truncated {what}")
            pos += k
            return tokens[pos - k : pos]

        s = take(1, "group order")[0]
        cohomology._check_order(s)
        table = [take(s, "multiplication table") for _ in range(s)]
        group = cohomology.FiniteGroup(table)
        d = take(1, "rank")[0]
        if d > cohomology.MAX_LATTICE_RANK:
            raise ValueError(
                f"lattice rank must be at most {cohomology.MAX_LATTICE_RANK}, got {shown(d)}"
            )
        # A negative rank reads no matrix: GLattice refuses it below.
        mats = []
        if d >= 0:
            mats = [IntegerMatrix(d, d, tuple(take(d * d, "action matrix"))) for _ in range(s)]
        if pos < len(tokens):
            raise ValueError(f"{len(tokens) - pos} trailing tokens")
        return cohomology.GLattice(group, d, tuple(mats))
    except ValueError as exc:
        raise UsageError(f"malformed lattice file {shown(path)}: {exc}") from exc


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


def _report(args, argv):
    """Compute the answer, certify it from the parsed input and the outputs, render it.

    The family's compute and certify functions and its module come from
    its row of _GRAMMAR; args holds only the values read from argv.
    """
    _, (compute, certify, module), _, _ = _GRAMMAR[args.cmd]
    inputs, outputs, operation, formula, parsed = compute(args)
    certifications = certify(args, parsed, outputs)
    return {
        "command": argv,
        "inputs": _fmt(inputs),
        "outputs": _fmt(outputs),
        "provenance": dict(module=f"arithlab.{module}", operation=operation, formula=formula),
        "certifications": certifications,
        "status": "ok" if all(c["passed"] for c in certifications) else "certification-failure",
    }


def _cert(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# Subcommand families.  Each has a compute function, which returns the
# report's inputs, outputs, operation and formula plus the parsed objects its
# checks need, and a certify function, which reads only the parsed arguments,
# those objects and the outputs that will be printed.
# ---------------------------------------------------------------------------


# Each constant's bounds function, its arguments in order, and its formula.
_CONSTANTS = {
    "gamma": ("gamma", ("d",), "gamma(d) = prod_{i=0}^{d-1} (3^d - 3^i)"),
    "lambda": ("lam", ("d",), "lambda(d) = d * (gamma(d) - 1)"),
    "psi": ("psi", ("d",), "psi(d) = gamma(d)^(d * (gamma(d) - 1))"),
    "ctilde": ("c_tilde", ("d", "n"), "ctilde(d, n) = n^d * psi(lambda(d))"),
    "ctilde-improved": (
        "c_tilde_improved",
        ("d", "n"),
        "ctilde_improved(d, n) = n^d * gamma(d)^(lambda(d) * (gamma(d) - 1))",
    ),
    "creductive": ("c_reductive", ("ell", "n", "r"), "c(ell, n, r) = 2^(ell * r) * ctilde(ell, n)"),
}


def _compute_constants(args):
    from . import bounds

    function, names, formula = _CONSTANTS[args.constant]
    inputs = {name: getattr(args, name) for name in names}
    value = getattr(bounds, function)(*inputs.values())
    if args.constant == "psi":
        value = _decimal(value)
    return inputs, {"value": value}, args.constant, formula, None


def _certify_constants(args, parsed, outputs):
    value = outputs["value"]
    if args.constant == "gamma" and args.d <= 3:
        return [_cert("matches-brute-force-count", _count_invertible_mod3(args.d) == value)]
    if args.constant == "psi":
        from . import bounds

        size = bounds.psi_size(args.d)
        return [_cert("digit-count-matches-log-estimate", str(len(value)) == size.digits10)]
    return []


def _compute_symbol(args):
    from . import symbols

    which, parsed = args.symbol, None
    if which == "legendre":
        value = symbols.legendre(args.a, args.p)
        inputs = {"a": args.a, "p": args.p}
        formula = "quadratic residue symbol via reciprocity"
    elif which == "jacobi":
        # Refused before the symbol, for the certification's factoring; an
        # even n (0 too) or a negative one (a mod n <= 0) gets jacobi's refusal.
        if args.n % 2 and args.a % args.n > FACTOR_LIMIT:
            raise UsageError("cannot certify (a/n): a mod n exceeds 2**64, the limit of factor")
        value = symbols.jacobi(args.a, args.n)
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
        inputs = parsed = {"a": a, "b": b, "place": str(place)}
        formula = "local solvability class of z^2 = a x^2 + b y^2"
    return inputs, {"value": value}, which, formula, parsed


def _certify_symbol(args, parsed, outputs):
    value = outputs["value"]
    if args.symbol == "legendre":
        euler = pow(args.a % args.p, (args.p - 1) // 2, args.p)
        return [_cert("euler-criterion-agreement", euler == value % args.p)]
    if args.symbol == "jacobi":
        prod = _jacobi_by_reciprocity(args.a, args.n)
        return [_cert("multiplicative-over-factorization", prod == value)]
    from . import symbols

    # The product of the symbols at every place but the printed one: each is
    # +-1, so taking a factor out multiplies by it again, and a place outside
    # the support of a and b has symbol 1 and no factor.
    report = symbols.hilbert_product_check(parsed["a"], parsed["b"])
    others = report.product * dict(report.factors).get(parsed["place"], 1)
    return [_cert("reciprocity-product-is-one", others * value == 1)]


def _compute_density(args):
    from . import progressions

    spec, inputs = _parse_progression(args.spec), {"spec": args.spec}
    if args.kind == "exact":
        outputs = {"density": progressions.chebotarev_density(spec)}
        formula = "|subgroup| / phi(conductor)"
    elif args.kind == "estimate":
        exact = progressions.chebotarev_density(spec)
        value = progressions.natural_density_estimate(spec, args.bound)
        outputs = {"estimate": value, "exact": exact, "x_bound": args.bound}
        formula = "pi(x; progression) / pi(x) by sieve"
    else:  # intersection
        inputs["ext"] = args.ext
        outputs = {"density": progressions.intersection_density(spec, _parse_extension(args.ext))}
        formula = "residue count modulo lcm of conductors"
    return inputs, outputs, args.kind, formula, spec


def _certify_density(args, spec, outputs):
    from . import progressions

    if args.kind == "exact":
        # The cosets of H partition the units exactly when their sizes sum to
        # phi(m).  Each then has density |H| / phi(m), the printed density,
        # and their number times it is 1.
        ext = spec.extension
        sizes = [len(c) for c in ext.cosets()]
        passed = sum(sizes) == ext.phi and outputs["density"] * len(sizes) == 1
        return [_cert("coset-densities-sum-to-one", passed)]
    if args.kind == "estimate":
        error = abs(outputs["estimate"] - float(outputs["exact"]))
        return [_cert("within-0.02-of-exact", error <= 0.02)]
    bound = progressions.chebotarev_density(spec)
    return [_cert("bounded-by-progression-density", outputs["density"] <= bound)]


def _compute_tractable(args):
    from . import progressions

    spec, target = _parse_progression(args.spec), _parse_extension(args.target)
    outputs = {
        "tractable": progressions.tractable_condition(spec, target),
        "intersection_density": progressions.intersection_density(spec, target),
    }
    formula = "class restriction to the intersection field is trivial"
    return {"spec": args.spec, "target": args.target}, outputs, "tractable_condition", formula, None


def _certify_tractable(args, parsed, outputs):
    passed = (outputs["intersection_density"] > 0) == outputs["tractable"]
    return [_cert("density-positivity-matches-condition", passed)]


def _compute_h1(args):
    from . import cohomology

    lattice = _parse_lattice_file(args.lattice_file)
    inv = cohomology.h1(lattice)
    outputs = {
        "elementary_divisors": list(inv.divisors),
        "free_rank": inv.free_rank,
        "order": "infinite" if inv.free_rank else inv.order,
        "group_order": lattice.group.order,
        "rank": lattice.rank,
    }
    formula = "cocycle kernel modulo coboundary image, by Smith normal form"
    return {"lattice_file": args.lattice_file}, outputs, "h1", formula, lattice


def _certify_h1(args, lattice, outputs):
    s, r, order = lattice.group.order, lattice.rank, outputs["order"]
    # The printed group order and rank are the lattice's s and r, which form the bound.
    echoed = (outputs["group_order"], outputs["rank"]) == (s, r)
    divides = echoed and order != "infinite" and s ** (r * (s - 1)) % order == 0
    killed = all(s % d == 0 for d in outputs["elementary_divisors"])
    return [
        _cert("free-rank-zero", outputs["free_rank"] == 0),
        _cert("order-divides-power-bound", divides),
        _cert("annihilated-by-group-order", killed),
    ]


def _compute_example(args):
    from . import experiments

    which, parsed = args.which, None
    if which == "2.1":
        pair = experiments.build_biased_prime_sets(args.ell)
        outputs = {"P": list(pair.p_list), "Q": list(pair.q_list)}
        inputs = {"ell": args.ell}
        operation = "build_biased_prime_sets"
        formula = "inductive smallest-prime choices in nested progressions"
    elif which == "2.3":
        parsed = _parse_target(args.target)
        eps, p = experiments.density_witness(parsed)
        outputs = {"epsilon": eps, "prime": p, "witness": eps * p}
        inputs = {"target": args.target}
        operation = "density_witness"
        formula = "sign choice + CRT + smallest prime in the class"
    elif which == "2.4":
        report = experiments.artin_kernel_evidence(args.q, args.bound)
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
        outputs = {"units": [str(u) for u in units], "count": len(units)}
        inputs = {"height": args.height}
        operation = "norm_one_constrained_units"
        formula = "conjugate quotients with balanced split valuations"
    return inputs, outputs, operation, formula, parsed


def _certify_example(args, target, outputs):
    from . import experiments, symbols

    if args.which == "2.1":
        ps, qs = outputs["P"], outputs["Q"]  # at primes q, jacobi is legendre
        return [
            _cert("cross-symbols-all-one", all(symbols.jacobi(p, q) == 1 for p in ps for q in qs)),
            _cert("sets-disjoint", not set(ps) & set(qs)),
            _cert("all-one-mod-four", all(x % 4 == 1 for x in ps + qs)),
            _cert("growth-beats-geometric", all(p > 5**i for i, p in enumerate(ps))),
        ]
    if args.which == "2.3":
        eps, p = outputs["epsilon"], outputs["prime"]
        passed = target.contains(eps, p) and outputs["witness"] == eps * p
        return [_cert("witness-satisfies-target", passed)]
    if args.which == "2.4":
        sampled = [
            symbols.hilbert_symbol(x, args.q, symbols.Place.finite(p))
            for p in outputs["first_checked"]
            for x in (Fraction(2), Fraction(-3, 7), Fraction(p), Fraction(1, 2))
        ]
        return [
            _cert("zero-failures", not outputs["failures"]),
            _cert("sampled-symbols-trivial", all(s == 1 for s in sampled)),
        ]
    units = sorted(experiments.GAUSSIAN_UNITS, key=lambda z: (z.a, z.b))
    return [
        _cert("exactly-four-units", outputs["count"] == 4),
        _cert("units-are-the-gaussian-units", outputs["units"] == [str(u) for u in units]),
    ]


def _compute_section7(args):
    from . import experiments

    report = experiments.section7_index_bound(args.n, args.ell, args.primes)
    outputs = {
        "local_indices": list(report.local_indices),
        "product": report.product,
        "lower_bound": report.lower_bound,
        "partial_bounds": list(report.partial_bounds),
    }
    inputs = {"n": args.n, "ell": args.ell, "primes": list(args.primes)}
    formula = "product of local power indices; bound n^ell / 4"
    return inputs, outputs, "section7_index_bound", formula, None


def _certify_section7(args, parsed, outputs):
    product, partials = outputs["product"], outputs["partial_bounds"]
    # The printed local indices multiply to the product, and the bound is a quarter of it.
    consistent = math.prod(outputs["local_indices"]) == product == 4 * outputs["lower_bound"]
    return [
        _cert("product-equals-n-to-ell", consistent and product == args.n**args.ell),
        _cert("bounds-strictly-increasing", all(x < y for x, y in zip(partials, partials[1:]))),
    ]


def _compute_local_index(args):
    if args.p - 1 > FACTOR_LIMIT:
        raise UsageError(
            f"p - 1 must be <= 2**64 for the power-count certification, got {shown(args.p)}"
        )
    from . import experiments

    outputs = {"index": experiments.local_power_index(args.p, args.n)}
    formula = "gcd(n, p - 1), cross-checked by counting n-th powers"
    return {"p": args.p, "n": args.n}, outputs, "local_power_index", formula, None


def _certify_local_index(args, parsed, outputs):
    count = _count_nth_powers(args.p, args.n)
    return [_cert("power-count-agrees", count * outputs["index"] == args.p - 1)]


def _argparse() -> types.ModuleType:
    """argparse, imported at the first call: only help and usage errors need it."""
    import argparse

    return argparse


def _int(token: str) -> int:
    """An int argument's value: int(token), which _parse_fast and argparse
    both call.  A token that is not an int is refused as argparse's
    ArgumentTypeError, quoted by core.shown (as its repr up to
    SHOWN_CHARS characters, as argparse quotes it)."""
    try:
        return int(token)
    except ValueError:
        raise _argparse().ArgumentTypeError(f"invalid int value: {shown(token)}") from None


# The grammar: the one table of the CLI's families, leaves and arguments,
# which _build_parser and _parse_fast both read, and of the handlers that
# _report dispatches to.  A family has its help, its compute function,
# certify function and module, the dest of its leaf's name and its leaves,
# each with its arguments; a family whose dest is None takes its arguments
# itself.  Arguments map a name, --name for an option, to its add_argument
# keywords.
_INT, _REQUIRED_INT = {"type": _int}, {"type": _int, "required": True}
_GRAMMAR = {
    "constants": (
        "evaluate the constant ladder", (_compute_constants, _certify_constants, "bounds"),
        "constant",
        {leaf: dict.fromkeys(names, _INT) for leaf, (_, names, _) in _CONSTANTS.items()},
    ),
    "symbol": (
        "quadratic and Hilbert symbols", (_compute_symbol, _certify_symbol, "symbols"),
        "symbol", {
            "legendre": {"a": _INT, "p": _INT},
            "jacobi": {"a": _INT, "n": _INT},
            "hilbert": {"a": {}, "b": {}, "place": {}},
        },
    ),
    "density": (
        "progression densities", (_compute_density, _certify_density, "progressions"),
        "kind", {
            "exact": {"spec": {}},
            "estimate": {"spec": {}, "--bound": {"type": _int, "default": 10**6}},
            "intersection": {"spec": {}, "ext": {}},
        },
    ),
    "tractable": (
        "class-restriction condition", (_compute_tractable, _certify_tractable, "progressions"),
        None, {"spec": {}, "target": {}},
    ),
    "h1": (
        "lattice cohomology from a file", (_compute_h1, _certify_h1, "cohomology"),
        None, {"lattice_file": {}},
    ),
    "example": (
        "worked experiments", (_compute_example, _certify_example, "experiments"),
        "which", {
            "2.1": {"--ell": _REQUIRED_INT},
            "2.3": {"--target": {"required": True}},
            "2.4": {"--q": _REQUIRED_INT, "--bound": {"type": _int, "default": 1000}},
            "2.5": {"--height": _REQUIRED_INT},
        },
    ),
    "section7": (
        "power-index growth report", (_compute_section7, _certify_section7, "experiments"),
        None, {"n": _INT, "ell": _INT, "primes": {"type": _int, "nargs": "*"}},
    ),
    "local-index": (
        "index of n-th powers mod p", (_compute_local_index, _certify_local_index, "experiments"),
        None, {"p": _INT, "n": _INT},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _GRAMMAR, which writes every usage error and help text."""
    parser = _argparse().ArgumentParser(
        prog="arithlab",
        description="Exact desk-scale number theory: symbols, progressions, "
        "lattice cohomology, index bounds, and worked experiments.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for family, (help_text, _, dest, leaves) in _GRAMMAR.items():
        fp = sub.add_parser(family, help=help_text)
        if dest is None:
            parsers = [(fp, leaves)]
        else:
            leaf_parsers = fp.add_subparsers(dest=dest, required=True)
            parsers = [(leaf_parsers.add_parser(leaf), leaves[leaf]) for leaf in leaves]
        for p, arguments in parsers:
            for name, keywords in arguments.items():
                p.add_argument(name, **keywords)
    return parser


def _parse_fast(argv: list[str]) -> types.SimpleNamespace | None:
    """argparse's namespace for a plainly well-formed argv, read off _GRAMMAR; else None.

    Accepted: the family and leaf names as given, positionals that do not
    start with -, and each option once as an exact --name value pair whose
    value does not start with -; values are converted by their type.  A
    leaf (or a family without leaves) that has no --name option may also
    take -- as its first token, and then every later token is a
    positional, - or not, save a second --.  On anything else, a help
    request, -- anywhere else, --name=value, an abbreviation, a negative
    number without the leading --, a missing or extra token or a failed
    conversion among them, it returns None, and argparse parses argv and
    writes the usage error or help.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, _, dest, arguments = _GRAMMAR[argv[0]]
    values, rest = {"cmd": argv[0]}, argv[1:]
    if dest is not None:
        values[dest] = leaf = rest[0] if rest else None
        if leaf not in arguments:
            return None
        arguments, rest = arguments[leaf], rest[1:]
    positionals, options = [], {}
    if rest[:1] == ["--"] and not any(name.startswith("-") for name in arguments):
        if "--" in rest[1:]:
            return None
        positionals, rest = rest[1:], []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")
        if token not in arguments or token in options or value.startswith("-"):
            return None
        options[token] = value
    try:
        for name, keywords in arguments.items():
            convert = keywords.get("type", str)
            if name in options:
                values[name[2:]] = convert(options[name])
            elif name.startswith("-"):
                if keywords.get("required"):
                    return None
                values[name[2:]] = keywords.get("default")
            elif keywords.get("nargs") == "*":
                values[name], positionals = [convert(t) for t in positionals], []
            elif positionals:
                values[name] = convert(positionals.pop(0))
            else:
                return None
    except _argparse().ArgumentTypeError:  # evaluated only once a conversion fails
        return None
    return None if positionals else types.SimpleNamespace(**values)


def run(argv: list[str]) -> int:
    """Execute one subcommand; returns the process exit code.

    The interpreter's int-string guard is set to MAX_INT_DIGITS for the
    call and handed back to the caller on every exit path.  Exact outputs
    are rendered by _decimal, which the guard does not limit.
    """
    guard = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
        args = _parse_fast(argv) or _build_parser().parse_args(argv)
        start = time.monotonic()
        report = _report(args, argv)
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
    else:
        elapsed = time.monotonic() - start
        print(json.dumps(report, indent=2))
        print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
        return 0 if report["status"] == "ok" else 1
    finally:
        sys.set_int_max_str_digits(guard)


def main() -> None:
    """The console entry point: run sys.argv[1:] and end the process with its code.

    It flushes stdout and freezes the garbage collector before it exits,
    so an in-process caller uses run, which does neither.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  As the Python docs' note on
        # SIGPIPE advises, point stdout at devnull so that the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # Every object left is moved to the permanent generation, so the full
    # collections of interpreter exit have nothing to traverse; atexit
    # handlers, the last flush and module teardown still run.
    gc.freeze()
    sys.exit(code)
