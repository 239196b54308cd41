"""The explicit constant ladder and index-bound evaluators.

Every rung answers in one of two shapes: its exact value (an integer,
or an exact rational), or DigitCapExceeded carrying a ProductSize.  A
decimal-digit cap guards materialization.  Its one setting is the
environment variable ASA_DIGIT_CAP (default DEFAULT_DIGIT_CAP, one
million digits), read here and nowhere else, and it holds every rung.
A cap above MAX_DIGIT_CAP = 10**7 is refused, so the cap bounds the
work as well as the size: the largest value it admits, gamma(4578) with
9,999,548 digits, is formed and printed within a minute.  Above the cap
a rung is refused before it is formed, with a size report whose digit
counts come from logarithms -- never a silently truncated value.  One
comparator, _over_cap, makes every such decision from log10 of the
digit count, and forms a value only when that lies too near log10 of
the cap for the logarithms to decide.
gamma(d) is refused by _sized_gamma; every rung over it is sized, and
refused, by one product path, _checked_product, whose bases and
exponents may be held (_Held): from 10**40 on, gamma(d), gamma(d) - 1
and lam(d) are known by their floating-point log10, and formed only
when a product may fit or a report prints them.  A name or refusal
quotes an integer as core.shown does, from 10**40 on by its digit count
(<k-digit integer>), and _compact_log gives a held value that count from
its log10, unformed.  psi alone keeps a cap keyword, for the benchmark,
and it holds only psi's own power.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction

from .core import DigitCapExceeded, Record, factor, shown, valuation

__all__ = [
    "DigitCapExceeded",
    "ProductSize",
    "default_digit_cap",
    "gamma",
    "lam",
    "psi",
    "psi_size",
    "c_tilde",
    "c_tilde_improved",
    "c_reductive",
    "dirichlet_index_bound",
    "galois_index_bound",
    "spl0_index_bound",
    "t1_density_bound",
    "divides_power",
]

DIGIT_CAP_ENV = "ASA_DIGIT_CAP"
DEFAULT_DIGIT_CAP = 10**6
MAX_DIGIT_CAP = 10**7


def default_digit_cap() -> int:
    """Digit cap from the environment, falling back to DEFAULT_DIGIT_CAP."""
    raw = os.environ.get(DIGIT_CAP_ENV)
    if raw is None:
        return DEFAULT_DIGIT_CAP
    try:
        cap = int(raw)
    except ValueError:  # not an integer, or too long for the interpreter's str(int) guard
        cap = MAX_DIGIT_CAP + 1 if raw.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"{DIGIT_CAP_ENV} must be a positive integer, got {raw}")
    if cap > MAX_DIGIT_CAP:
        raise ValueError(f"{DIGIT_CAP_ENV} must be at most 10^7, got {raw}")
    return cap


def _compact_int(n) -> str:
    """Decimal rendering that never explodes: core.shown for an int, so a
    digit-count description from 10**40 on, and _compact_log for a held
    value, which forms it only near a power of ten."""
    return _compact_log(n.log, n.value) if isinstance(n, _Held) else shown(n)


def _compact_log(log_value: float, exact) -> str:
    """The <k-digit integer> of a value of at least 10**40, as core.shown
    writes it, from its floating-point log10 for a held value; exact()
    forms it only near a power of ten."""
    # With k the integer nearest log10(n), n has k + 1 digits exactly when
    # n >= 10^k; near a power of ten _over_cap compares exactly.
    k = round(log_value)
    digits = k + 1 if _over_cap(math.log10(log_value), k, exact) else k
    return f"<{digits}-digit integer>"


class _Held:
    """A value of at least 10**40 held by its floating-point log10, log,
    and formed by value(), at most once, only when a product may fit the
    cap, a comparison must be exact or a report prints it in full.  It
    compares above every int, which is all the ladder asks: it compares
    its values with 0, 1 and 10**40 only."""

    def __init__(self, log: float, form):
        self.log, self.value = log, functools.cache(form)

    __lt__ = lambda self, other: False
    __gt__ = lambda self, other: True


def _hold(log: float, form) -> int | _Held:
    """The value form() makes, formed below 10**40 (log under 40), where
    a report prints it in full, and held by log from 10**40 on."""
    return form() if log < 40 else _Held(log, form)


def _log10(n) -> float:
    return n.log if isinstance(n, _Held) else math.log10(n)


def _value(n) -> int:
    return n.value() if isinstance(n, _Held) else n


class ProductSize(Record):
    """Size report for a product left unmaterialized: its formula and an
    approximate decimal digit count from floating-point logarithms."""

    formula: str
    digits10: str

    def describe(self) -> str:
        return f"{self.formula} with about {self.digits10} decimal digits"


def _over_cap(log_digits: float, cap: int, exact) -> bool:
    """Has a value of at least 2 more than cap decimal digits?  log_digits
    is the floating-point log10 of its log10.

    The logarithms decide unless log_digits lies within 1e-9 / ln 10 of
    log10(cap), a relative 1e-9 on the value's log10 and far above its
    rounding error.  There exact() forms the value and compares it with
    10**cap.  Below a cap of 1 every value is over.
    """
    bound = math.log10(cap) if cap > 0 else -math.inf
    if abs(log_digits - bound) > 1e-9 / math.log(10):
        return log_digits > bound
    return exact() >= 10**cap


def _log_digits(factors: tuple[tuple[int, ...], ...]) -> float:
    """log10 of log10 of prod base**exponent, for bases >= 2 and exponents >= 1.

    A factor is (base, e_1, e_2, ...), the power base**(e_1 e_2 ...); it
    contributes log10(e_1) + log10(e_2) + ... + log10(log10(base)), and
    the terms are added as logarithms, so no exponent is too large and
    none is multiplied out.  Any part may be held, and is read by its log10.
    """
    logs = [sum(map(_log10, es)) + math.log10(_log10(b)) for b, *es in factors]
    top = max(logs)
    return top + math.log10(sum(10 ** (x - top) for x in logs))


def _digits10(factors: tuple[tuple[int, ...], ...]) -> str:
    """Approximate decimal digit count of prod base**exponent, rendered
    in scientific notation when enormous; factors as for _log_digits."""
    log_digits = _log_digits(factors)
    if log_digits < 15:
        return str(int(_log10_product(factors)) + 1)
    return _scientific_digits(log_digits)


def _log10_product(factors: tuple[tuple[int, ...], ...]) -> float:
    """log10 of prod base**exponent in floating point.  The exponents are
    formed and multiplied out, so it is called only for a product within
    the cap or of fewer than 10**15 digits."""
    return sum(math.prod(map(_value, es)) * _log10(b) for b, *es in factors)


def _scientific_digits(log_digits: float) -> str:
    """A digit count of at least 10**15 from its log10, in scientific notation."""
    frac, whole = math.modf(log_digits)
    return f"{10 ** frac:.4f}e+{int(whole)}"


def _power(base: int, exponent: int) -> int:
    """base**exponent as odd**exponent << v * exponent, with base = 2^v odd:
    the same int, from a power of a smaller odd base (psi(3)'s base 11232
    is 2^5 * 351)."""
    v, odd = valuation(base, 2)
    return odd**exponent << v * exponent


def _checked_product(
    name: str, factors: tuple[tuple[int, ...], ...], formula: str = "", *, cap: int | None = None
) -> int | _Held:
    """prod base**exponent over factors, refused before it is formed when
    it would have more than cap decimal digits (default_digit_cap() unless
    psi passes its own), and else formed below 10**40 and held from there
    on (_hold), by its log10 from _log10_product.

    This is the one refusal of every rung over gamma.  A factor is (base,
    e_1, e_2, ...), the power base**(e_1 e_2 ...), so an exponent may be
    passed as its factors, and any part may be held; parts are formed
    and multiplied out only when the value is formed or compared exactly.
    _over_cap decides from the product's _log_digits, which adds
    logarithms of logarithms, so exponents may be astronomically large.
    A refusal reports a ProductSize of formula, which for a lone power
    defaults to base^exponent.
    """
    cap = default_digit_cap() if cap is None else cap
    big = [f for f in factors if f[0] > 1 and min(f[1:]) > 0]
    value = lambda: math.prod(_power(_value(b), math.prod(map(_value, es))) for b, *es in big)
    if big and _over_cap(_log_digits(big), cap, value):
        size = ProductSize(formula or "^".join(map(_compact_int, big[0])), _digits10(big))
        raise DigitCapExceeded(name, size, cap)
    return _hold(_log10_product(big), value)


def _gamma_log10(d: int) -> float:
    """log10 gamma(d) in floating point, for d <= 10**7.

    gamma(d) = 3^(d^2) * prod_{k=1}^{d} (1 - 3^-k); the product lies in
    (0.56, 1), and its factors beyond k = 40 are 1 in floating point.
    """
    return d * d * math.log10(3) + sum(math.log10(1 - 3.0**-k) for k in range(1, min(d, 40) + 1))


def _gamma_product(d: int) -> int:
    """prod_{i<d} (3^d - 3^i) = 3^(d(d-1)/2) * prod_{k=1}^{d} (3^k - 1).

    The second product is taken pairwise, level by level, so that big
    factors meet big factors and Karatsuba does the work.
    """
    level = [3**k - 1 for k in range(1, d + 1)]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return 3 ** (d * (d - 1) // 2) * level[0]


def gamma(d: int) -> int:
    """Order of the d x d general linear group over the three-element field.

    gamma(d) = prod_{i=0}^{d-1} (3^d - 3^i); every finite subgroup of
    GL_d(Z) has order dividing it.  Raises DigitCapExceeded before
    forming the product when it would exceed the digit cap (with the
    default cap, from d = 1448 on).
    """
    _sized_gamma(d)
    return _gamma_product(d)


def _sized_gamma(d) -> float:
    """gamma's refusal for an int or held d, then log10 gamma(d) in
    floating point.

    Up to d = 10**7 gamma(d) is sized by _gamma_log10, beyond by its
    bound 3^(d^2) from log10 d alone.  A held d is formed only for
    _gamma_log10, for a refusal that prints the digit count in full or
    names d near a power of ten (_compact_int), where _over_cap compares
    gamma(d) exactly, or once gamma(d) fits; gamma(d) itself only in
    that exact comparison.  So a rung over gamma(d) is sized, and
    refused, from this, and c_tilde refuses gamma(lam(d)) with a held
    lam(d) unformed.
    """
    if d < 1:
        raise ValueError(f"gamma requires d >= 1, got {shown(d)}")
    log_d, exact_d = _log10(d), lambda: _value(d)
    if log_d <= 7:
        log_g = _gamma_log10(exact_d())
        log_digits, digits = math.log10(log_g), str(int(log_g) + 1)
    else:  # gamma(d) < 3^(d^2)
        log_digits = 2 * log_d + math.log10(math.log10(3))
        digits = (
            _digits10(((3, exact_d() ** 2),)) if log_digits < 15 else _scientific_digits(log_digits)
        )
    cap = default_digit_cap()
    if _over_cap(log_digits, cap, lambda: _gamma_product(exact_d())):
        name = _compact_int(d)
        size = ProductSize(f"prod_{{i=0}}^{{d-1}} (3^d - 3^i) at d = {name}", digits)
        raise DigitCapExceeded(f"gamma({name})", size, cap)
    return log_g if log_d <= 7 else _gamma_log10(exact_d())


def _gamma_terms(d) -> tuple:
    """gamma(d), gamma(d) - 1 and lam(d) = d * (gamma(d) - 1), for an int
    or held d, after gamma's refusal.

    From 10**40 on (d >= 10) each is held, the first two by log10
    gamma(d) and lam(d) by log10 d + log10 gamma(d), and gamma(d) is
    formed at most once, for whichever of them is formed first.
    """
    log_g = _sized_gamma(d)
    g = _hold(log_g, lambda: _gamma_product(_value(d)))
    g1 = _hold(log_g, lambda: _value(g) - 1)
    return g, g1, _hold(_log10(d) + log_g, lambda: _value(d) * _value(g1))


def lam(d: int) -> int:
    """Dimension bound for the kernel torus: lam(d) = d * (gamma(d) - 1).

    Subject to the digit cap like every rung: gamma(d) may fit and lam(d)
    not, and then lam(d) is refused from log10 d + log10 gamma(d) before
    gamma(d) is formed.
    """
    return _value(_lam(d))


def _lam(d: int) -> int | _Held:
    """lam(d), held from 10**40 on (d >= 10), after gamma(d)'s refusal and
    its own.

    So psi(_lam(d)), the psi(lam(d)) of c_tilde and t1_density_bound, is
    refused as lam(d), gamma(lam(d)) or itself, in that order, the first
    two decided from log10 lam(d) = log10 d + log10 gamma(d); lam(d) is
    formed only where _over_cap compares exactly, or once gamma(lam(d))
    fits.
    """
    if d < 1:
        raise ValueError(f"lam requires d >= 1, got {shown(d)}")
    g1 = _gamma_terms(d)[1]
    return _checked_product(f"lam({_compact_int(d)})", ((d, 1), (g1, 1)), "d * (gamma(d) - 1)")


def psi(d: int, cap: int | None = None) -> int:
    """The H^1 order bound psi(d) = gamma(d)^(d * (gamma(d) - 1)).

    Exact big integer; raises DigitCapExceeded when the value would
    exceed the digit cap (d = 4 already needs about 7 * 10^8 digits),
    with psi_size(d) as its size report.  gamma(d) is refused first;
    from 10**40 on (d >= 10) gamma(d) and lam(d) are held by their
    logarithms, and formed only when psi(d) may fit or the report
    prints them.

    The cap keyword holds only this power, and is not held to
    MAX_DIGIT_CAP; gamma(d) stays held to ASA_DIGIT_CAP, so
    psi(1448, cap=10**9) is refused as gamma(1448).
    It stays for the benchmark task psi-2-cap159, which calls
    psi(2, cap=159); no other rung takes a cap.
    """
    if d < 1:
        raise ValueError(f"psi requires d >= 1, got {shown(d)}")
    return _value(_checked_product(*_psi_power(d), cap=cap))


def psi_size(d: int) -> ProductSize:
    """Size report for psi(d) without materializing it: the report of
    psi's refusal under a cap of 0, which refuses every value.

    gamma(d) is formed only below 10**40, where the report prints it in
    full, or where a digit count lies near a power of ten.
    """
    power = _psi_power(d)  # gamma(d)'s own refusal is not caught
    try:
        _checked_product(*power, cap=0)
    except DigitCapExceeded as refusal:
        return refusal.size


def _psi_power(d) -> tuple:
    """psi(d)'s name and its one factor, gamma(d)^lam(d), for an int or
    held d, after gamma's refusal."""
    g, _, lam_d = _gamma_terms(d)
    return f"psi({_compact_int(d)})", ((g, lam_d),)


def c_tilde(d: int, n: int) -> int:
    """Index bound for d-dimensional tori: n^d * psi(lam(d)).

    Already for d = 2 the psi factor is psi(94), far beyond any digit
    cap, so expect DigitCapExceeded outside d = 1.
    """
    if d < 1 or n < 1:
        raise ValueError("c_tilde requires d, n >= 1")
    name = f"c_tilde({_compact_int(d)}, {_compact_int(n)})"
    return _value(_checked_product(name, ((n, d), (psi(_lam(d)), 1)), "n^d * psi(lam(d))"))


def c_tilde_improved(d: int, n: int) -> int:
    """Sharper torus index bound: n^d * gamma(d)^(lam(d) * (gamma(d) - 1))."""
    if d < 1 or n < 1:
        raise ValueError("c_tilde_improved requires d, n >= 1")
    name = f"c_tilde_improved({_compact_int(d)}, {_compact_int(n)})"
    g, g1, lam_d = _gamma_terms(d)
    # The exponent goes in as its two factors: at d = 1447 their product,
    # of two million-digit numbers, takes over a second, and only a
    # value within the cap needs it.
    factors = ((n, d), (g, lam_d, g1))
    return _value(_checked_product(name, factors, "n^d * gamma(d)^(lam(d) * (gamma(d) - 1))"))


def c_reductive(ell: int, n: int, r: int) -> int:
    """Reductive-group index bound: 2^(ell * r) * c_tilde(ell, n)."""
    if ell < 1 or n < 1:
        raise ValueError("c_reductive requires ell, n >= 1")
    if r < 0:
        raise ValueError("real-place count must be nonnegative")
    name = f"c_reductive({_compact_int(ell)}, {_compact_int(n)}, {_compact_int(r)})"
    factors = ((2, ell * r), (c_tilde(ell, n), 1))
    return _value(_checked_product(name, factors, "2^(ell * r) * c_tilde(ell, n)"))


def dirichlet_index_bound(f_degree: int, density: Fraction) -> Fraction:
    """Closure index bound 1 / (degree * density) from a positive-density
    split subset."""
    density = Fraction(density)
    if f_degree < 1:
        raise ValueError("degree must be >= 1")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    return 1 / (f_degree * density)


def galois_index_bound(fl_over_f: int, class_size: int) -> Fraction:
    """Galois-case refinement of the index bound: [FL : F] / |class|."""
    if fl_over_f < 1 or class_size < 1:
        raise ValueError("both arguments must be >= 1")
    return Fraction(fl_over_f, class_size)


def spl0_index_bound(density: Fraction) -> Fraction:
    """Index bound 1 / density when only one split extension per place is
    guaranteed."""
    density = Fraction(density)
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    return 1 / density


def t1_density_bound(d: int, density: Fraction) -> int | Fraction:
    """Torus index bound density^(-d) * psi(lam(d)): an int when its
    denominator is 1, else a Fraction.

    The digit cap holds b^d * psi(lam(d)) for density = a/b in lowest
    terms, an upper bound on the reduced numerator of the value, and a
    bound over the cap is refused before the value is formed.
    """
    density = Fraction(density)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    factors = ((density.denominator, d), (psi(_lam(d)), 1))
    a, b = (_compact_int(x) for x in density.as_integer_ratio())
    name = f"t1_density_bound({_compact_int(d)}, {a}/{b})"
    numerator = _value(_checked_product(name, factors, "denominator(density)^d * psi(lam(d))"))
    value = Fraction(numerator, density.numerator**d)
    return int(value) if value.denominator == 1 else value


def divides_power(m: int, base: int, exponent: int) -> bool:
    """Does m divide base**exponent, decided without materializing the power?

    Factors the base (which must stay in factoring range) and strips its
    primes out of m with capped multiplicities, so m itself may be
    arbitrarily large.
    """
    if m < 1 or base < 1 or exponent < 0:
        raise ValueError("divides_power requires m, base >= 1 and exponent >= 0")
    if m == 1:
        return True
    for p, avail in factor(base).factors:
        need, m = valuation(m, p)
        if need > avail * exponent:
            return False
    return m == 1
