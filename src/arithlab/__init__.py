"""Exact desk-scale computational number theory.

Subpackages cover exact integer arithmetic and Smith normal form
(core), quadratic and Hilbert symbols (symbols), prime progressions and
densities for abelian extensions of Q (progressions), first cohomology
of finite groups on integer lattices (cohomology), the explicit
constant ladder (bounds), and reproducible experiments built on all of
the above (experiments).
"""

from .bounds import (
    BoundReport,
    DigitCapExceeded,
    PowerSize,
    c_reductive,
    c_tilde,
    c_tilde_improved,
    dirichlet_index_bound,
    divides_power,
    galois_index_bound,
    gamma,
    lam,
    psi,
    psi_size,
    spl0_index_bound,
    t1_density_bound,
)
from .cohomology import (
    AbelianGroupInvariants,
    FiniteGroup,
    GLattice,
    faithful_quotient,
    h1,
    h1_bound_check,
    induced_lattice,
    minkowski_check,
    norm_one_lattice,
)
from .core import (
    Factorization,
    IntegerMatrix,
    SnfResult,
    crt_solve,
    determinant,
    factor,
    integer_kernel,
    is_prime,
    next_prime_in_progression,
    smith_normal_form,
    snf_diagonal,
)
from .experiments import (
    BiasedPrimePair,
    CongruenceTarget,
    GaussianInteger,
    artin_kernel_evidence,
    build_biased_prime_sets,
    density_witness,
    local_power_index,
    norm_one_constrained_units,
    section7_index_bound,
)
from .progressions import (
    AbelianExtensionDescriptor,
    FrobeniusDatum,
    ProgressionSpec,
    chebotarev_density,
    frobenius,
    in_progression,
    intersection_density,
    natural_density_estimate,
    primes_up_to,
    splits_completely,
    tractable_condition,
)
from .symbols import (
    Place,
    hilbert_product_check,
    hilbert_symbol,
    is_square_in_qv,
    jacobi,
    legendre,
)

__version__ = "0.1.0"
