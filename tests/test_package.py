"""The package surface: the names `arithlab` exports, resolved on first use."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import arithlab
from arithlab import bounds, core
from tree_python import run_python

# `from arithlab import *`: 57 re-exported functions and classes and the six
# submodules.
PUBLIC_NAMES = [
    "AbelianExtensionDescriptor", "AbelianGroupInvariants", "BiasedPrimePair",
    "CongruenceTarget", "DigitCapExceeded", "Factorization", "FiniteGroup", "FrobeniusDatum",
    "GLattice", "GaussianInteger", "IntegerMatrix", "Place", "ProgressionSpec",
    "SnfResult", "artin_kernel_evidence", "bounds", "build_biased_prime_sets", "c_reductive",
    "c_tilde", "c_tilde_improved", "chebotarev_density", "cohomology", "core", "crt_solve",
    "density_witness", "determinant", "dirichlet_index_bound", "divides_power", "experiments",
    "factor", "faithful_quotient", "frobenius", "galois_index_bound", "gamma", "h1",
    "hilbert_product_check", "hilbert_symbol", "in_progression",
    "induced_lattice", "integer_kernel", "intersection_density", "is_prime", "is_square_in_qv",
    "jacobi", "lam", "legendre", "local_power_index", "minkowski_check",
    "natural_density_estimate", "next_prime_in_progression", "norm_one_constrained_units",
    "norm_one_lattice", "primes_up_to", "progressions", "psi", "psi_size",
    "section7_index_bound", "smith_normal_form", "spl0_index_bound",
    "splits_completely", "symbols", "t1_density_bound", "tractable_condition",
]
SUBMODULES = ["bounds", "cohomology", "core", "experiments", "progressions", "symbols"]


def test_star_import_lists_the_pinned_names():
    namespace = {}
    exec("from arithlab import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_each_name_is_the_object_its_defining_module_holds():
    for name in PUBLIC_NAMES:
        value = getattr(arithlab, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"arithlab.{name}")
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_import_loads_no_submodule_and_each_resolves():
    # In a fresh interpreter: here other tests have resolved every name, and
    # imported cli, which dir() would then list as well.
    probe = (
        "import sys, types, arithlab\n"
        "assert not [m for m in sys.modules if m.startswith('arithlab.')]\n"
        f"assert [k for k in dir(arithlab) if not k.startswith('_')] == {PUBLIC_NAMES!r}\n"
        "assert arithlab.h1 is sys.modules['arithlab.cohomology'].h1  # a first lookup\n"
        f"for name in {SUBMODULES!r}:\n"
        "    module = getattr(arithlab, name)\n"
        "    assert isinstance(module, types.ModuleType)\n"
        "    assert module.__name__ == 'arithlab.' + name\n"
        "assert len(arithlab.progressions.primes_up_to(100)) == 25\n"
    )
    result = run_python(["-c", probe], text=True)
    assert result.returncode == 0, result.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arithlab.no_such_name
    assert not hasattr(arithlab, "RamifiedPrimeError")  # public in progressions, not re-exported
    with pytest.raises(ImportError):
        exec("from arithlab import no_such_name", {})


CAP_SETTING = ("DIGIT_CAP_ENV", "DEFAULT_DIGIT_CAP", "MAX_DIGIT_CAP", "default_digit_cap")


def test_digit_cap_guard_is_shared_by_core_and_bounds():
    # bounds owns the cap's setting; core holds only the refusal, which
    # cli.run catches without importing bounds.
    for name in CAP_SETTING:
        assert hasattr(bounds, name) and not hasattr(core, name), name
    assert bounds.DigitCapExceeded is arithlab.DigitCapExceeded is core.DigitCapExceeded


def test_cli_digit_cap_refusal_is_unchanged():
    result = run_python(
        ["-m", "arithlab", "constants", "psi", "3"], env={"ASA_DIGIT_CAP": "100"}, text=True
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: digit cap exceeded: psi(3) = 11232^33693 with about 136473 decimal digits, "
        "beyond the 100-digit cap\n"
    )


def test_no_module_imports_dataclasses_or_typing():
    # The value classes derive from core.Record; dataclasses would bring
    # inspect, ast, dis and tokenize into every cold CLI command.  typing
    # costs a cold command about 5 ms and is not needed: annotations are
    # strings, and their names come from collections.abc or X | Y unions.
    forbidden = {"dataclasses", "typing"}
    package = Path(arithlab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not {m.partition(".")[0] for m in modules} & forbidden, path.name


def test_only_bounds_names_the_digit_cap_setting():
    # The cap guards the constant ladder alone: no other module reads it,
    # so no other command's behaviour can depend on it.
    package = Path(arithlab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "bounds.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & set(CAP_SETTING), path.name
