"""The explicit constant ladder and index-bound evaluators.

Every rung answers in one of two shapes: its exact value (an integer,
or an exact rational), or DigitCapExceeded carrying a ProductSize.  A
decimal-digit cap guards materialization.  Its one setting is the
environment variable ASA_DIGIT_CAP (default one million digits), and it
holds every rung.  Above the cap a rung is refused before it is formed,
with a size report whose digit counts come from logarithms and are
flagged as approximate -- never a silently truncated value.  The rungs
over gamma(d) size it from its logarithm too, and form it only when
they may fit.  psi alone keeps a cap keyword, for the benchmark, and it
holds only psi's own power.

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
    # n >= 10^k; near a power of ten _beyond_cap compares exactly.
    k = round(log_value)
    digits = k + 1 if _beyond_cap(log_value, k, exact) else k
    return f"<{digits}-digit integer>"


class ProductSize(Record):
    """Size report for a product left unmaterialized: its formula and an
    approximate decimal digit count from floating-point logarithms."""

    formula: str
    digits10: str
    approximate: bool = True

    def describe(self) -> str:
        return f"{self.formula} with about {self.digits10} decimal digits"


def _beyond_cap(log_value: float, cap: int, exact) -> bool:
    """Is a value with floating-point log10 log_value at least 10**cap?

    The logarithm decides unless it lies within 1e-9 (relative, far
    above its rounding error) of the cap; there exact() materializes the
    value and the comparison is made exactly.
    """
    if abs(log_value - cap) > 1e-9 * (log_value + 1):
        return log_value > cap
    return exact() >= 10**cap


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
    when the value is formed or compared exactly.  log10 of the product
    is the sum of its factors' exponent * log10(base), decided by
    _beyond_cap.  Once an exponent passes 10**12 the comparison happens
    on logarithms of logarithms, so exponents may be astronomically
    large.  A refusal reports a ProductSize of formula, which for a lone
    power defaults to base^exponent.
    """
    cap = default_digit_cap() if cap is None else cap
    big = [f for f in factors if f[0] > 1 and min(f[1:]) > 0]
    if all(sum(map(math.log10, es)) <= 12 for _, *es in big):
        exact = [(b, math.prod(es)) for b, *es in big]
        log_value = sum(e * math.log10(b) for b, e in exact)
        exceeds = _beyond_cap(log_value, cap, lambda: math.prod(b**e for b, e in exact))
    else:
        exceeds = _log_digits(big) > math.log10(cap)
    if exceeds:
        size = ProductSize(formula or _power_formula(*big[0]), _digits10(big))
        raise DigitCapExceeded(name, size, cap)
    return math.prod(b ** math.prod(es) for b, *es in big)


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
    """gamma's refusal, then log10 gamma(d) in floating point.

    gamma(d) is formed only where _beyond_cap compares it exactly with
    the cap, so a rung over it can be sized, and refused, from this.
    """
    if d < 1:
        raise ValueError(f"gamma requires d >= 1, got {d}")
    cap = default_digit_cap()
    if d <= 10**7:
        log_value = _gamma_log10(d)
        exceeds = _beyond_cap(log_value, cap, lambda: _gamma_product(d))
        digits = str(int(log_value) + 1)
    else:  # gamma(d) < 3^(d^2): compare logarithms of logarithms, as in _checked_product
        exceeds = _log_digits(((3, d, d),)) > math.log10(cap)
        digits = _digits10(((3, d * d),))
    if exceeds:
        size = ProductSize(f"prod_{{i=0}}^{{d-1}} (3^d - 3^i) at d = {_compact_int(d)}", digits)
        raise DigitCapExceeded(f"gamma({_compact_int(d)})", size, cap)
    return _gamma_log10(d)


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


def _refused_unformed(log_g: float, log_digits: float, cap: int) -> bool:
    """Is a rung over gamma(d) refused from logarithms, gamma(d) unformed?

    log_g is log10 gamma(d), and log_digits log10 of the rung's digit
    count.  A gamma(d) below 10**40 is formed, for the refusal prints it
    in full, and so is one whose rung lies within 1e-9 (relative, as in
    _beyond_cap) of the cap or below it: _checked_product decides those.
    """
    return log_g >= 40 and log_digits - math.log10(cap) > 1e-9 * (log_digits + 1)


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
    if _refused_unformed(log_g, math.log10(d) + log_g + math.log10(log_g), cap):
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


def c_tilde(d: int, n: int) -> int:
    """Index bound for d-dimensional tori: n^d * psi(lam(d)).

    Already for d = 2 the psi factor is psi(94), far beyond any digit
    cap, so expect DigitCapExceeded outside d = 1.
    """
    if d < 1 or n < 1:
        raise ValueError("c_tilde requires d, n >= 1")
    name = f"c_tilde({_compact_int(d)}, {_compact_int(n)})"
    return _checked_product(name, ((n, d), (psi(lam(d)), 1)), "n^d * psi(lam(d))")


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
    if _refused_unformed(log_g, log_digits, cap):
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
    factors = ((density.denominator, d), (psi(lam(d)), 1))
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
