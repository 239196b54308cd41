"""
First cohomology of finite groups on integer lattices
=====================================================

Lattices with finite group actions, their H^1 computed through Smith
normal form, and the divisibility bounds the orders always satisfy.
"""

from arithlab import (
    FiniteGroup,
    GLattice,
    IntegerMatrix,
    faithful_quotient,
    gamma,
    h1,
    induced_lattice,
    minkowski_check,
    norm_one_lattice,
    psi,
)

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.symmetric(3)

# The sign action on a rank-1 lattice: the smallest nonvanishing H^1.
sign = GLattice(C2, 1, (IntegerMatrix.identity(1), IntegerMatrix.from_rows([[-1]])))
print("H^1 of the sign lattice:", h1(sign))

# Permutation lattices have vanishing H^1 (the computational face of
# Hilbert's theorem 90 for quasi-split tori).
for grp, name in [(C2, "C2"), (C3, "C3"), (S3, "S3")]:
    print(f"H^1 of the regular lattice of {name}:", h1(induced_lattice(grp, [grp.identity])))

# Norm-one lattices of cyclic groups carry cyclic H^1 of full order.
for n in (2, 3, 4, 6):
    lat = norm_one_lattice(FiniteGroup.cyclic(n))
    print(f"norm-one lattice, cyclic group of order {n}: H^1 =", h1(lat))

# The generic bound |H^1| | s^(r(s-1)), plus annihilation by |G|.
lattice = norm_one_lattice(C3)
inv = h1(lattice)
s, r = C3.order, lattice.rank
bound = s ** (r * (s - 1))
holds = bound % inv.order == 0 and all(s % d == 0 for d in inv.divisors)
print("bound report:", inv, "divides", bound, "->", holds)

# Unfaithful actions factor through their kernel without changing H^1.
C4 = FiniteGroup.cyclic(4)
through_sign = GLattice(
    C4, 1, tuple(IntegerMatrix.from_rows([[(-1) ** (g % 2)]]) for g in range(4))
)
quotient, faithful = faithful_quotient(through_sign)
print("order-4 group acting through order", quotient.order, "quotient; H^1 =", h1(faithful))

# Finite-order integer matrices obey the general linear group bound
# over the three-element field, and never vanish mod 3.
rotation = IntegerMatrix.from_rows([[0, -1], [1, 0]])
print("rotation matrix order report:", minkowski_check(rotation, 2))
print("gamma(2) =", gamma(2), " psi(1) =", psi(1), " psi(2) has", len(str(psi(2))), "digits")
