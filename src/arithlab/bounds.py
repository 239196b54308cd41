"""The explicit constant ladder and index-bound evaluators.

Every rung answers in one of two shapes: its exact value (an integer,
or an exact rational), or DigitCapExceeded carrying a ProductSize.  A
decimal-digit cap guards materialization.  Its one setting is the
environment variable ASA_DIGIT_CAP (default one million digits), and it
holds every rung.  Above the cap a rung is refused before it is formed,
with a size report whose digit counts come from logarithms and are
flagged as approximate -- never a silently truncated value.  One
comparator, _over_cap, makes every such decision from log10 of the
digit count, and forms a value only when that lies too near log10 of
the cap for the logarithms to decide.  The rungs over gamma(d) size it
from its logarithm too, and those over lam(d) size lam(d) so, and each
forms what it sizes only when the rung may fit.  psi alone keeps a cap
keyword, for the benchmark, and it holds only psi's own power.

The cap itself (default_digit_cap, DigitCapExceeded) lives in core, so
that the CLI reads it without importing this module; the names are
re-exported here unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import DEFAULT_DIGIT_CAP, DIGIT_CAP_ENV, DigitCapExceeded, default_digit_cap
from .core import Record, factor, valuation

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

def _compact_int(n: int) -> str:
    """Decimal rendering that never explodes: huge values become a
    digit-count description."""
    return str(n) if n < 10**40 else _compact_log(math.log10(n), lambda: n)


def _compact_log(log_value: float, exact) -> str:
    """_compact_int of a value of at least 10**40 known by its
    floating-point log10; exact() forms it only near a power of ten."""
    # With k the integer nearest log10(n), n has k + 1 digits exactly when
    # n >= 10^k; near a power of ten _over_cap compares exactly.
    k = round(log_value)
    digits = k + 1 if _over_cap(math.log10(log_value), k, exact) else k
    return f"<{digits}-digit integer>"


class ProductSize(Record):
    """Size report for a product left unmaterialized: its formula and an
    approximate decimal digit count from floating-point logarithms."""

    formula: str
    digits10: str
    approximate: bool = True

    def describe(self) -> str:
        return f"{self.formula} with about {self.digits10} decimal digits"


def _over_cap(log_digits: float, cap: int, exact) -> bool:
    """Has a value of at least 2 more than cap decimal digits?  log_digits
    is the floating-point log10 of its log10.

    The logarithms decide unless log_digits lies within 1e-9 / ln 10 of
    log10(cap), a relative 1e-9 on the value's log10 and far above its
    rounding error.  There exact() forms the value and compares it with
    10**cap; with exact None the answer is False, not clearly over, and
    the caller decides.  Below a cap of 1 every value is over.
    """
    bound = math.log10(cap) if cap > 0 else -math.inf
    if abs(log_digits - bound) > 1e-9 / math.log(10):
        return log_digits > bound
    return exact is not None and exact() >= 10**cap


def _log_digits(factors: tuple[tuple[int, ...], ...], logged: tuple[float, ...] = ()) -> float:
    """log10 of log10 of prod base**exponent, for bases >= 2 and exponents >= 1.

    A factor is (base, e_1, e_2, ...), the power base**(e_1 e_2 ...); it
    contributes log10(e_1) + log10(e_2) + ... + log10(log10(base)), and
    the terms are added as logarithms, so no exponent is too large and
    none is multiplied out.  logged holds further factors by that term
    alone, for a base such as gamma(d) known by its logarithm.
    """
    logs = [sum(map(math.log10, es)) + math.log10(math.log10(b)) for b, *es in factors]
    logs += logged
    top = max(logs)
    return top + math.log10(sum(10 ** (x - top) for x in logs))


def _digits10(factors: tuple[tuple[int, ...], ...]) -> str:
    """Approximate decimal digit count of prod base**exponent, rendered
    in scientific notation when enormous; factors as for _log_digits."""
    log_digits = _log_digits(factors)
    if log_digits < 15:
        return str(int(sum(math.prod(es) * math.log10(b) for b, *es in factors)) + 1)
    return _scientific_digits(log_digits)


def _scientific_digits(log_digits: float) -> str:
    """A digit count of at least 10**15 from its log10, in scientific notation."""
    frac, whole = math.modf(log_digits)
    return f"{10 ** frac:.4f}e+{int(whole)}"


def _power_formula(base: int, exponent: int) -> str:
    return f"{_compact_int(base)}^{_compact_int(exponent)}"


def _checked_product(
    name: str, factors: tuple[tuple[int, ...], ...], formula: str = "", *, cap: int | None = None
) -> int:
    """prod base**exponent over factors, refused before it is formed when
    it would have more than cap decimal digits (default_digit_cap() unless
    psi passes its own).

    A factor is (base, e_1, e_2, ...), the power base**(e_1 e_2 ...), so
    an exponent may be passed as its factors and is multiplied out only
    when the value is formed or compared exactly.  _over_cap decides from
    the product's _log_digits, which adds logarithms of logarithms, so
    exponents may be astronomically large.  A refusal reports a
    ProductSize of formula, which for a lone power defaults to
    base^exponent.
    """
    cap = default_digit_cap() if cap is None else cap
    big = [f for f in factors if f[0] > 1 and min(f[1:]) > 0]
    value = lambda: math.prod(b ** math.prod(es) for b, *es in big)
    if big and _over_cap(_log_digits(big), cap, value):
        size = ProductSize(formula or _power_formula(*big[0]), _digits10(big))
        raise DigitCapExceeded(name, size, cap)
    return value()


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


def _sized_gamma(d: int) -> float:
    """gamma's refusal, then log10 gamma(d) in floating point."""
    if d < 1:
        raise ValueError(f"gamma requires d >= 1, got {d}")
    return _gamma_sized(math.log10(d), lambda: d)


def _gamma_sized(log_d: float, exact_d) -> float:
    """gamma's refusal for a d >= 1 known by log_d = log10 d, then
    log10 gamma(d) in floating point.

    Up to d = 10**7 gamma(d) is sized by _gamma_log10, beyond by its
    bound 3^(d^2) from log_d alone.  exact_d() forms d only for
    _gamma_log10, for a refusal that prints d or the digit count in
    full, where _over_cap compares gamma(d) exactly, or once gamma(d)
    fits; gamma(d) itself only in that exact comparison.  So a rung over
    gamma(d) is sized, and refused, from this, and c_tilde refuses
    gamma(lam(d)) with lam(d) unformed.
    """
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
        # log_d rounds up to 40 just below 10**40; a d below 10**41 is short
        # enough to form, and _compact_int names it exactly.
        d = _compact_int(exact_d()) if log_d < 41 else _compact_log(log_d, exact_d)
        size = ProductSize(f"prod_{{i=0}}^{{d-1}} (3^d - 3^i) at d = {d}", digits)
        raise DigitCapExceeded(f"gamma({d})", size, cap)
    return log_g if log_d <= 7 else _gamma_log10(exact_d())


def lam(d: int) -> int:
    """Dimension bound for the kernel torus: lam(d) = d * (gamma(d) - 1).

    Held to the digit cap like every rung: gamma(d) may fit and lam(d)
    not.
    """
    if d < 1:
        raise ValueError(f"lam requires d >= 1, got {d}")
    factors = ((d, 1), (gamma(d) - 1, 1))
    return _checked_product(f"lam({_compact_int(d)})", factors, "d * (gamma(d) - 1)")


def _gamma_lam(d: int) -> tuple[int, int]:
    """gamma(d) and the exponent d * (gamma(d) - 1), from one gamma(d),
    once _sized_gamma(d) has passed.

    The exponent is not held to the cap: psi and c_tilde_improved refuse
    their whole value under their own names.
    """
    g = _gamma_product(d)
    return g, d * (g - 1)


def psi(d: int, cap: int | None = None) -> int:
    """The H^1 order bound psi(d) = gamma(d)^(d * (gamma(d) - 1)).

    Exact big integer; raises DigitCapExceeded when the value would
    exceed the digit cap (d = 4 already needs about 7 * 10^8 digits),
    with psi_size(d) as its size report.  gamma(d) is refused first, and
    formed only when psi(d) may fit or psi_size prints it.

    The cap keyword holds only this power; gamma(d) stays held to
    ASA_DIGIT_CAP, so psi(1448, cap=10**9) is refused as gamma(1448).
    It stays for the benchmark task psi-2-cap159, which calls
    psi(2, cap=159); no other rung takes a cap.
    """
    if d < 1:
        raise ValueError(f"psi requires d >= 1, got {d}")
    name = f"psi({_compact_int(d)})"
    cap = default_digit_cap() if cap is None else cap
    log_g = _sized_gamma(d)
    # Below 10**40 gamma(d) is formed, for the refusal prints it in full.
    if log_g >= 40 and _over_cap(math.log10(d) + log_g + math.log10(log_g), cap, None):
        raise DigitCapExceeded(name, psi_size(d), cap)
    return _checked_product(name, (_gamma_lam(d),), cap=cap)


def psi_size(d: int) -> ProductSize:
    """Size report for psi(d) without materializing it.

    gamma(d) is formed only below 10**40, where the report prints it in
    full, or where a digit count lies near a power of ten.
    """
    log_g = _sized_gamma(d)
    if log_g < 40:
        g, lam_d = _gamma_lam(d)
        return ProductSize(_power_formula(g, lam_d), _digits10(((g, lam_d),)))
    log_lam = math.log10(d) + log_g
    base = _compact_log(log_g, lambda: _gamma_product(d))
    exponent = _compact_log(log_lam, lambda: d * (_gamma_product(d) - 1))
    return ProductSize(f"{base}^{exponent}", _scientific_digits(log_lam + math.log10(log_g)))


def _psi_lam(d: int) -> int:
    """psi(lam(d)), refused as lam(d), gamma(lam(d)) or itself, in that order.

    Once log10 lam(d) = log10 d + log10 gamma(d) reaches 40 (d >= 10),
    the first two refusals are decided from it, and lam(d) is formed
    only where _over_cap compares exactly, or once gamma(lam(d)) fits.
    """
    log_lam = math.log10(d) + _sized_gamma(d)
    if log_lam >= 40:
        lam_d = lambda: d * (_gamma_product(d) - 1)
        if _over_cap(math.log10(log_lam), default_digit_cap(), lam_d):
            lam(d)  # raises lam(d)'s own refusal
        _gamma_sized(log_lam, lam_d)
    return psi(lam(d))


def c_tilde(d: int, n: int) -> int:
    """Index bound for d-dimensional tori: n^d * psi(lam(d)).

    Already for d = 2 the psi factor is psi(94), far beyond any digit
    cap, so expect DigitCapExceeded outside d = 1.
    """
    if d < 1 or n < 1:
        raise ValueError("c_tilde requires d, n >= 1")
    name = f"c_tilde({_compact_int(d)}, {_compact_int(n)})"
    return _checked_product(name, ((n, d), (_psi_lam(d), 1)), "n^d * psi(lam(d))")


def c_tilde_improved(d: int, n: int) -> int:
    """Sharper torus index bound: n^d * gamma(d)^(lam(d) * (gamma(d) - 1))."""
    if d < 1 or n < 1:
        raise ValueError("c_tilde_improved requires d, n >= 1")
    name = f"c_tilde_improved({_compact_int(d)}, {_compact_int(n)})"
    formula = "n^d * gamma(d)^(lam(d) * (gamma(d) - 1))"
    log_g = _sized_gamma(d)
    # log10 of log10 of gamma(d)^(lam(d) * (gamma(d) - 1)); _log_digits adds n^d.
    power = math.log10(d) + log_g + log_g + math.log10(log_g)
    log_digits = _log_digits([(n, d)] if n > 1 else [], (power,))
    cap = default_digit_cap()
    if log_g >= 40 and _over_cap(log_digits, cap, None):
        raise DigitCapExceeded(name, ProductSize(formula, _scientific_digits(log_digits)), cap)
    g, lam_d = _gamma_lam(d)
    # The exponent goes in as its two factors: at d = 1447 their product,
    # of two million-digit numbers, takes over a second, and only a
    # value within the cap needs it.
    return _checked_product(name, ((n, d), (g, lam_d, g - 1)), formula)


def c_reductive(ell: int, n: int, r: int) -> int:
    """Reductive-group index bound: 2^(ell * r) * c_tilde(ell, n)."""
    if ell < 1 or n < 1:
        raise ValueError("c_reductive requires ell, n >= 1")
    if r < 0:
        raise ValueError("real-place count must be nonnegative")
    name = f"c_reductive({_compact_int(ell)}, {_compact_int(n)}, {_compact_int(r)})"
    factors = ((2, ell * r), (c_tilde(ell, n), 1))
    return _checked_product(name, factors, "2^(ell * r) * c_tilde(ell, n)")


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
    factors = ((density.denominator, d), (_psi_lam(d), 1))
    a, b = (_compact_int(x) for x in density.as_integer_ratio())
    name = f"t1_density_bound({_compact_int(d)}, {a}/{b})"
    numerator = _checked_product(name, factors, "denominator(density)^d * psi(lam(d))")
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
