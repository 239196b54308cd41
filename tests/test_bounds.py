import hashlib
import itertools
import math
import re
import sys
from fractions import Fraction

import pytest

from arithlab.bounds import (
    DigitCapExceeded,
    ProductSize,
    c_reductive,
    c_tilde,
    c_tilde_improved,
    default_digit_cap,
    dirichlet_index_bound,
    divides_power,
    galois_index_bound,
    gamma,
    lam,
    psi,
    psi_size,
    spl0_index_bound,
    t1_density_bound,
    _checked_product,
    _compact_int,
    _gamma_product,
)


def det_mod3(rows):
    """Determinant over the three-element field by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % 3
    total = 0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_mod3(minor)
    return total % 3


def count_invertible_matrices_mod3(d):
    count = 0
    for entries in itertools.product(range(3), repeat=d * d):
        rows = [list(entries[i * d : (i + 1) * d]) for i in range(d)]
        if det_mod3(rows) != 0:
            count += 1
    return count


def pow_by_squaring(base, exponent):
    """Independent big-integer power for cross-checking ** results."""
    result = 1
    while exponent:
        if exponent & 1:
            result *= base
        base *= base
        exponent >>= 1
    return result


class TestGamma:
    @pytest.mark.parametrize("d,expected", [(1, 2), (2, 48), (3, 11232)])
    def test_frozen_values(self, d, expected):
        assert gamma(d) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_brute_force_count(self, d):
        assert gamma(d) == count_invertible_matrices_mod3(d)

    def test_divisibility_chain(self):
        for d in range(1, 6):
            assert gamma(d + 1) % gamma(d) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gamma(0)

    def test_refused_before_the_product(self):
        with pytest.raises(DigitCapExceeded) as err:
            gamma(1500)
        assert err.value.name == "gamma(1500)"
        assert err.value.size.digits10 == "1073523" and err.value.size.approximate
        with pytest.raises(DigitCapExceeded):
            lam(1500)

    def test_product_tree_equals_the_left_to_right_product(self):
        for d in range(1, 201):
            expected = 1
            for i in range(d):
                expected *= 3**d - 3**i
            assert _gamma_product(d) == expected, d

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cap_is_the_exact_digit_count(self, d, monkeypatch):
        digits = len(str(gamma(d)))
        monkeypatch.setenv("ASA_DIGIT_CAP", str(digits))
        assert len(str(gamma(d))) == digits
        monkeypatch.setenv("ASA_DIGIT_CAP", str(digits - 1))
        with pytest.raises(DigitCapExceeded) as err:
            gamma(d)
        assert err.value.size.digits10 == str(digits)


class TestLambda:
    @pytest.mark.parametrize("d,expected", [(1, 1), (2, 94), (3, 33693)])
    def test_frozen_values(self, d, expected):
        assert lam(d) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lam(0)

    def test_held_to_the_digit_cap(self, monkeypatch):
        # gamma(10) has 48 digits and lam(10) = 10 * (gamma(10) - 1) has 49.
        monkeypatch.setenv("ASA_DIGIT_CAP", "48")
        assert len(str(gamma(10))) == 48
        with pytest.raises(DigitCapExceeded) as err:
            lam(10)
        assert err.value.name == "lam(10)"
        assert err.value.size.formula == "d * (gamma(d) - 1)"
        assert err.value.size.digits10 == "49"
        # psi(10) is refused under its own name, its power rendered from
        # log10 gamma(10) as _compact_int renders the formed values.
        with pytest.raises(DigitCapExceeded) as err:
            psi(10)
        assert err.value.name == "psi(10)"
        power = f"{_compact_int(gamma(10))}^{_compact_int(10 * (gamma(10) - 1))}"
        assert err.value.size.formula == power == "<48-digit integer>^<49-digit integer>"
        monkeypatch.setenv("ASA_DIGIT_CAP", "49")
        assert len(str(lam(10))) == 49


class TestGammaFormedOnce:
    @pytest.mark.parametrize(
        "call",
        [lambda: lam(3), lambda: psi(3), lambda: psi_size(3), lambda: c_tilde_improved(2, 1)],
    )
    def test_one_product_per_call(self, call, monkeypatch):
        import arithlab.bounds as bounds

        formed = []
        product = bounds._gamma_product
        monkeypatch.setattr(bounds, "_gamma_product", lambda d: formed.append(d) or product(d))
        call()
        assert len(formed) == 1


class TestPsi:
    def test_psi_one(self):
        assert psi(1) == 2

    def test_psi_two_exact(self):
        value = psi(2)
        assert value == pow_by_squaring(48, 94)
        assert value == 48**94
        assert len(str(value)) == 159
        assert int(94 * math.log10(48)) + 1 == 159

    def test_psi_three_materializes(self):
        value = psi(3)
        digits = len(str(value))
        assert digits == int(33693 * math.log10(11232)) + 1 == 136473

    def test_psi_four_refused(self):
        with pytest.raises(DigitCapExceeded) as err:
            psi(4)
        assert err.value.size.formula == f"{gamma(4)}^{lam(4)}"
        assert int(err.value.size.digits10) == 716664804

    def test_names_itself_compactly(self):
        # Under the interpreter's default guard on str(int), a huge d must
        # not be rendered in full: gamma(d) refuses first, with d compact.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(DigitCapExceeded) as err:
                psi(10**5000)
        finally:
            sys.set_int_max_str_digits(limit)
        assert err.value.name == "gamma(<5001-digit integer>)"

    def test_gamma_refused_before_the_own_cap(self, monkeypatch):
        # The cap keyword holds psi's power only: gamma(1448) is over the
        # default cap, and is refused unformed.
        import arithlab.bounds as bounds

        def formed(d):
            raise AssertionError(f"gamma({d}) formed")

        monkeypatch.setattr(bounds, "_gamma_product", formed)
        with pytest.raises(DigitCapExceeded) as err:
            psi(1448, cap=10**9)
        assert err.value.name == "gamma(1448)"

    def test_explicit_cap(self):
        with pytest.raises(DigitCapExceeded):
            psi(2, cap=100)
        assert psi(2, cap=200) == 48**94

    @pytest.mark.parametrize("d", [1, 5, 10])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_refuses_every_value(self, d, cap):
        with pytest.raises(DigitCapExceeded) as err:
            psi(d, cap=cap)
        assert (err.value.name, err.value.cap) == (f"psi({d})", cap)

    def test_cap_is_the_exact_digit_count(self):
        # 48^94 has exactly 159 digits; 94 log10(48) + 1 = 159.04.
        assert psi(2, cap=159) == 48**94
        with pytest.raises(DigitCapExceeded):
            psi(2, cap=158)
        assert _checked_product("t", ((2, 10),), cap=4) == 1024
        # log10 of 10^k sits on the cap, so the exact comparison decides.
        assert _checked_product("t", ((10, 3),), cap=4) == 1000
        with pytest.raises(DigitCapExceeded):
            _checked_product("t", ((10, 4),), cap=4)
        # The same holds for a product: 2^3 * 5^3 = 1000, 2^4 * 5^3 = 2000.
        assert _checked_product("t", ((2, 3), (5, 3)), cap=4, formula="f") == 1000
        assert _checked_product("t", ((2, 4), (5, 3)), cap=4, formula="f") == 2000
        with pytest.raises(DigitCapExceeded):
            _checked_product("t", ((2, 4), (5, 4)), cap=4, formula="f")

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", "100")
        assert default_digit_cap() == 100
        with pytest.raises(DigitCapExceeded):
            psi(2)
        monkeypatch.setenv("ASA_DIGIT_CAP", "0")
        with pytest.raises(ValueError):
            default_digit_cap()

    def test_cap_keeps_digit_counts_finite(self, monkeypatch):
        # Up to 10^300 digits every digit count the ladder admits is a
        # finite float, so a rung far beyond the largest cap is still
        # refused from its logarithms; a larger cap is refused itself.
        monkeypatch.setenv("ASA_DIGIT_CAP", str(10**300))
        assert default_digit_cap() == 10**300 and gamma(2) == 48
        for rung in (gamma, lam, psi, lambda d: c_tilde(d, 1), lambda d: c_tilde_improved(d, 1)):
            with pytest.raises(DigitCapExceeded):
                rung(10**160)
        # The second cap is too long for int() under the interpreter's default guard.
        caps = [str(10**300 + 1), str(10**5000)]
        message = r"^ASA_DIGIT_CAP must be at most 10\^300, got 1"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for cap in caps:
                monkeypatch.setenv("ASA_DIGIT_CAP", cap)
                with pytest.raises(ValueError, match=message):
                    default_digit_cap()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_super_increasing_where_materializable(self):
        assert psi(2) % psi(1) == 0
        assert psi(3) % psi(2) == 0

    def test_size_report(self):
        size = psi_size(2)
        assert size.formula == "48^94"
        assert size.digits10 == "159" and size.approximate


class TestCTilde:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_dimension_one_is_twice_n(self, n):
        assert c_tilde(1, n) == 2 * n

    def test_example(self):
        assert c_tilde(1, 2) == 4

    def test_dimension_two_refused(self):
        with pytest.raises(DigitCapExceeded) as err:
            c_tilde(2, 1)
        assert err.value.name == "psi(94)"
        # Size report digits come from logs and are flagged approximate.
        assert err.value.size.approximate
        assert err.value.size.digits10.endswith("e+4221")

    @pytest.mark.parametrize(
        "cap, name", [(47, "gamma(10)"), (48, "lam(10)"), (49, "gamma(<49-digit integer>)")]
    )
    def test_refused_in_ladder_order(self, cap, name, monkeypatch):
        # gamma(10) has 48 digits and lam(10) 49: c_tilde(10, 1) is refused
        # as the first rung beneath it over the cap.
        monkeypatch.setenv("ASA_DIGIT_CAP", str(cap))
        with pytest.raises(DigitCapExceeded) as err:
            c_tilde(10, 1)
        assert err.value.name == name


class TestCTildeImproved:
    def test_small_values(self):
        assert c_tilde_improved(1, 1) == 2
        assert c_tilde_improved(1, 3) == 6

    def test_dimension_two_materializes(self):
        # Unlike the raw bound, the sharpened exponent keeps d = 2 in
        # range of the default cap.
        value = c_tilde_improved(2, 1)
        assert value == pow_by_squaring(48, 94 * 47)
        assert len(str(value)) == 7428

    def test_cap_still_enforced(self, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", "1000")
        with pytest.raises(DigitCapExceeded):
            c_tilde_improved(2, 1)


class TestCReductive:
    @pytest.mark.parametrize(
        "ell,n,r,expected", [(1, 1, 0, 2), (1, 2, 1, 8), (1, 1, 2, 8)]
    )
    def test_frozen_values(self, ell, n, r, expected):
        assert c_reductive(ell, n, r) == expected

    def test_rejects_negative_places(self):
        with pytest.raises(ValueError):
            c_reductive(1, 1, -1)

    def test_whole_value_held_to_the_cap(self, monkeypatch):
        # 2^331 * 2 has 100 digits and 2^332 * 2 has 101.
        monkeypatch.setenv("ASA_DIGIT_CAP", "100")
        assert c_reductive(1, 1, 331) == 2**332
        with pytest.raises(DigitCapExceeded) as err:
            c_reductive(1, 1, 332)
        assert err.value.name == "c_reductive(1, 1, 332)"
        assert err.value.size.formula == "2^(ell * r) * c_tilde(ell, n)"
        assert err.value.size.digits10 == "101"

    def test_astronomical_place_count_refused(self):
        with pytest.raises(DigitCapExceeded) as err:
            c_reductive(1, 10**50, 10**1000)
        assert err.value.name == "c_reductive(1, <51-digit integer>, <1001-digit integer>)"
        assert err.value.size.digits10 == "3.0103e+999"


class TestIndexBounds:
    def test_dirichlet(self):
        assert dirichlet_index_bound(1, Fraction(1)) == 1
        assert dirichlet_index_bound(2, Fraction(1, 4)) == 2

    def test_dirichlet_rejects_bad_density(self):
        with pytest.raises(ValueError):
            dirichlet_index_bound(2, Fraction(0))
        with pytest.raises(ValueError):
            dirichlet_index_bound(2, Fraction(3, 2))

    def test_galois_refinement(self):
        assert galois_index_bound(2, 1) == 2
        assert galois_index_bound(6, 2) == 3

    def test_spl0(self):
        assert spl0_index_bound(Fraction(1)) == 1
        assert spl0_index_bound(Fraction(1, 6)) == 6
        assert spl0_index_bound(Fraction(1, 2)) == 2

    def test_t1(self):
        assert t1_density_bound(1, Fraction(1)) == 2
        assert t1_density_bound(1, Fraction(1, 2)) == 4
        assert t1_density_bound(1, Fraction(2, 3)) == 3
        assert t1_density_bound(1, Fraction(3, 4)) == Fraction(8, 3)

    def test_t1_digit_cap_holds_the_whole_value(self, monkeypatch):
        monkeypatch.setenv("ASA_DIGIT_CAP", "100")
        with pytest.raises(DigitCapExceeded) as err:
            t1_density_bound(1, Fraction(1, 10**150))
        assert "about 151 decimal digits" in str(err.value)
        assert t1_density_bound(1, Fraction(1, 10**98)) == 2 * 10**98

    def test_t1_dimension_two_refused(self):
        with pytest.raises(DigitCapExceeded):
            t1_density_bound(2, Fraction(1, 2))

    def test_exactness_of_types(self):
        assert isinstance(dirichlet_index_bound(2, Fraction(1, 4)), Fraction)
        assert isinstance(c_reductive(1, 2, 1), int)
        assert type(t1_density_bound(1, Fraction(1, 3))) is int
        assert type(t1_density_bound(1, Fraction(3, 4))) is Fraction


class TestDividesPower:
    def test_small_cases_against_direct(self):
        for m in range(1, 60):
            for base, exp in [(48, 3), (6, 4), (10, 2), (11232, 2)]:
                assert divides_power(m, base, exp) == (base**exp % m == 0)

    def test_huge_exponent(self):
        assert divides_power(2**300 * 3**90, 48, 94)
        assert not divides_power(5, 48, 94)

    def test_one_divides_everything(self):
        assert divides_power(1, 2, 0)

    def test_base_one_divides_only_one(self):
        assert divides_power(1, 1, 5)
        for m in (2, 3, 10**40):
            assert not divides_power(m, 1, 5)


DENSITY = "density must lie in (0, 1]"
REFUSALS = {
    "psi-dimension": (lambda: psi(0), "psi requires d >= 1, got 0"),
    "c-tilde-dimension": (lambda: c_tilde(0, 1), "c_tilde requires d, n >= 1"),
    "c-tilde-improved-dimension": (
        lambda: c_tilde_improved(0, 1),
        "c_tilde_improved requires d, n >= 1",
    ),
    "c-reductive-rank": (lambda: c_reductive(0, 1, 0), "c_reductive requires ell, n >= 1"),
    "dirichlet-degree": (lambda: dirichlet_index_bound(0, Fraction(1)), "degree must be >= 1"),
    "dirichlet-density": (lambda: dirichlet_index_bound(1, Fraction(0)), DENSITY),
    "galois-degree": (lambda: galois_index_bound(0, 1), "both arguments must be >= 1"),
    "galois-class-size": (lambda: galois_index_bound(2, 0), "both arguments must be >= 1"),
    "spl0-density": (lambda: spl0_index_bound(Fraction(3, 2)), DENSITY),
    "t1-dimension": (lambda: t1_density_bound(0, Fraction(1)), "d must be >= 1"),
    "t1-density": (lambda: t1_density_bound(1, Fraction(-1, 2)), DENSITY),
    "divides-power-modulus": (
        lambda: divides_power(0, 2, 1),
        "divides_power requires m, base >= 1 and exponent >= 0",
    ),
    "divides-power-base": (
        lambda: divides_power(4, 0, 1),
        "divides_power requires m, base >= 1 and exponent >= 0",
    ),
    "divides-power-exponent": (
        lambda: divides_power(4, 2, -1),
        "divides_power requires m, base >= 1 and exponent >= 0",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestPsiSize:
    def test_enormous_exponent(self):
        size = psi_size(94)
        assert "e+" in size.digits10
        assert size.describe().startswith("<4216-digit integer>^")
        assert size.formula == f"{_compact_int(gamma(94))}^{_compact_int(lam(94))}"

    def test_rejects_trivial(self):
        with pytest.raises(ValueError, match="^gamma requires d >= 1, got 0$"):
            psi_size(0)

    def test_gamma_formed_only_in_the_exact_band(self, monkeypatch):
        # From d = 10 on the report is rendered from log10 gamma(d); gamma(d)
        # is formed only where a digit count lies within the exact
        # comparison's tolerance of a power of ten.  The stand-in keeps the
        # sweep fast; only the d it is called at matter.
        import arithlab.bounds as bounds

        formed = set()
        stand_in = lambda d: formed.add(d) or 10 ** int(bounds._gamma_log10(d))
        monkeypatch.setattr(bounds, "_gamma_product", stand_in)
        for d in range(10, 1448):
            psi_size(d)
        assert formed == {339, 1313, 1373}


class TestCompactInt:
    # math.log10 rounds 10^k - 1 up to k for k = 15..44 and 10^k down below
    # k for k = 512, 1024, 2048.
    @pytest.mark.parametrize("k", [*range(40, 61), 512, 1024, 2048])
    def test_digit_count_is_exact_at_powers_of_ten(self, k):
        for n in (10**k - 1, 10**k):
            expected = str(n) if n < 10**40 else f"<{len(str(n))}-digit integer>"
            assert _compact_int(n) == expected


LADDER_PIN_CAPS = (48, 100, 159, 1000, 7428, 100000, None)
LADDER_PIN_DIMENSIONS = (*range(13), 94, 1448, 10**8, 10**50, 10**200)


def ladder_pin_calls(d):
    """Every rung at d: gamma, lam, psi and psi_size, then the index bounds
    at k = 1 and 7."""
    yield from (lambda: gamma(d), lambda: lam(d), lambda: psi(d), lambda: psi_size(d))
    for k in (1, 7):
        yield lambda: c_tilde(d, k)
        yield lambda: c_tilde_improved(d, k)
        yield lambda: c_reductive(d, k, 3)
        yield lambda: t1_density_bound(d, Fraction(k, 10))


def test_ladder_answers_are_pinned(monkeypatch):
    # Every answer (by the sha256 of its text) and every refusal (by its
    # type and message, which carry the name and size report) over a grid
    # of digit caps and dimensions, so a change to how the ladder sizes
    # and refuses its rungs must change no output.
    digest = hashlib.sha256()
    for cap in LADDER_PIN_CAPS:
        if cap is None:
            monkeypatch.delenv("ASA_DIGIT_CAP", raising=False)
        else:
            monkeypatch.setenv("ASA_DIGIT_CAP", str(cap))
        for d in LADDER_PIN_DIMENSIONS:
            for call in ladder_pin_calls(d):
                try:
                    value = call()
                    text = value.describe() if isinstance(value, ProductSize) else str(value)
                    line = hashlib.sha256(text.encode()).hexdigest()
                except (ValueError, ArithmeticError) as exc:
                    line = f"{type(exc).__name__}: {exc}"
                digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == (
        "523235e85d61df1c8b979d245530dd8e43c099b36df478b47167f740600a72a8"
    )
