"""Exact desk-scale computational number theory.

Subpackages cover exact integer arithmetic and Smith normal form
(core), quadratic and Hilbert symbols (symbols), prime progressions and
densities for abelian extensions of Q (progressions), first cohomology
of finite groups on integer lattices (cohomology), the explicit
constant ladder (bounds), and reproducible experiments built on all of
the above (experiments).

Importing the package imports none of them: a public name is looked up
in its submodule on first use (PEP 562), so a command pays only for the
modules it touches.
"""

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it.
_EXPORTS = {
    "bounds": (
        "BoundReport", "DigitCapExceeded", "PowerSize", "c_reductive", "c_tilde",
        "c_tilde_improved", "dirichlet_index_bound", "divides_power", "galois_index_bound",
        "gamma", "lam", "psi", "psi_size", "spl0_index_bound", "t1_density_bound",
    ),
    "cohomology": (
        "AbelianGroupInvariants", "FiniteGroup", "GLattice", "faithful_quotient", "h1",
        "h1_bound_check", "induced_lattice", "minkowski_check", "norm_one_lattice",
    ),
    "core": (
        "Factorization", "IntegerMatrix", "SnfResult", "crt_solve", "determinant", "factor",
        "integer_kernel", "is_prime", "next_prime_in_progression", "smith_normal_form",
        "snf_diagonal",
    ),
    "experiments": (
        "BiasedPrimePair", "CongruenceTarget", "GaussianInteger", "artin_kernel_evidence",
        "build_biased_prime_sets", "density_witness", "local_power_index",
        "norm_one_constrained_units", "section7_index_bound",
    ),
    "progressions": (
        "AbelianExtensionDescriptor", "FrobeniusDatum", "ProgressionSpec",
        "chebotarev_density", "frobenius", "in_progression", "intersection_density",
        "natural_density_estimate", "primes_up_to", "splits_completely",
        "tractable_condition",
    ),
    "symbols": (
        "Place", "hilbert_product_check", "hilbert_symbol", "is_square_in_qv", "jacobi",
        "legendre",
    ),
}
_ORIGINS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGINS, *_EXPORTS])


def __getattr__(name):
    origin = _ORIGINS.get(name, name)
    if origin not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{origin}", __name__)  # binds the submodule here too
    # Bind every name of that submodule at once: later lookups are plain
    # attribute reads, and code that patches this namespace, such as a
    # tracer, finds all of them.
    globals().update({n: getattr(module, n) for n in _EXPORTS[origin]})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
