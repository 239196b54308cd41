"""First cohomology of finite groups acting on integer lattices.

Groups are explicit multiplication tables (order <= 48); a lattice is a
rank-d free module with one integral action matrix per group element.
H^1 is computed from the definition, with N = (s-1)d unknowns f(g),
g != 1 (f(1) = 0), and the matrix C of a |-> (g.a - a) whose image is
the coboundaries B^1.

The cocycles Z^1 are the kernel of the N x N matrix M = s I_N + C E,
where E = [I_d ... I_d] sums the d-blocks, so (C E f)(g) = (g - 1) F
with F = sum_h f(h).  Summing f(gh) = f(g) + g.f(h) over h gives
F = s f(g) + g.F, so every cocycle lies in ker M.  Conversely, if
s f(g) = F - g.F for every g, then s f is the coboundary of -F, hence a
cocycle (this uses that the action is a homomorphism, which GLattice
checks along a generating set), and since Z^d is torsion-free f is a
cocycle too.  So Z^1 = ker M over Z, and the group table is never read.

M itself is never built: only its rank is needed, and that comes from
T = sum_g A_g, the d x d norm matrix of the action matrices A_g.  Since
E C = sum_{g != 1} (A_g - I) = T - s I_d, the map f |-> E f sends
ker M into ker T (E M = T E), and over Q it is an isomorphism with
inverse u |-> -C u / s: for u in ker T, E(-C u / s) = u and
M(-C u / s) = -C u + C u = 0, while E f = 0 and M f = 0 force s f = 0.
So rank M = N - d + rank T.  T is not built either: A_g A_h = A_gh
gives T^2 = s T, so T / s is idempotent over Q and its rank is its
trace, rank T = (sum_g tr A_g) / s, the dimension of the invariants
(Serre, *Linear Representations of Finite Groups*, GTM 42, section 2.3).

Z^1 is a kernel, hence saturated in Z^N, so Z^N/Z^1 is free and the
sequence 0 -> Z^1/B^1 -> Z^N/B^1 -> Z^N/Z^1 -> 0 splits:
Z^N/B^1 = H^1 + Z^N/Z^1.  The torsion of H^1 is therefore the torsion
of coker C, and its free rank is (N - rank M) - rank C
= d - rank T - rank C.  The torsion and rank C come out of one Smith
diagonal and rank T out of the traces; no cocycle bases, relators or
unimodular transforms are ever built.

C is not built either.  Write L for the lattice in Z^d spanned by the
rows of C.  If C = U D V with U, V unimodular and D diagonal, then L is
the row lattice of D V, so
Z^d / L = Z/D_11 + ... + Z^(d - rank C): the rank of C and its Smith
diagonal entries above 1 depend only on L.  The blocks A_x - I for x in
the generating set S of FiniteGroup already span L, because
A_gh - I = A_g (A_h - I) + (A_g - I) and the rows of A_g (A_h - I) are
integer combinations of the rows of A_h - I; every g is a product of
generators, so induction on its length puts the rows of A_g - I in the
span of the generators' rows.  h1 therefore eliminates C_S, the |S| d x d
stack of those blocks with |S| <= log2 s, in place of the (s - 1) d x d
matrix C, and gets the same torsion and free rank.  C_S is built as the
row lists that core._eliminate reduces in place, so no IntegerMatrix,
identity block or row copy is formed on the way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import compress
from operator import itemgetter, lshift, mul

from .core import IntegerMatrix, Record, _eliminate, cosets, generating_set

__all__ = [
    "FiniteGroup",
    "GLattice",
    "AbelianGroupInvariants",
    "MinkowskiReport",
    "h1",
    "induced_lattice",
    "norm_one_lattice",
    "faithful_quotient",
    "minkowski_check",
]

MAX_GROUP_ORDER = 48
# The largest rank d that the CLI reads from a lattice file.  A dense file
# (order 48, a permutation lattice of rank 64 in a random basis: 94 %
# nonzero entries of up to 10 bits) takes about 1.6 s cold at the bound.
# The time grows at least as d^3, faster once the Smith elimination's
# entries grow: a dense d = 96 file takes about 11 s.
MAX_LATTICE_RANK = 64


# The largest n with n! <= MAX_GROUP_ORDER: 4! = 24 <= 48 < 120 = 5!.
MAX_SYMMETRIC_DEGREE = 4


def _check_order(s: int) -> None:
    """Refuse a group order outside 1..MAX_GROUP_ORDER, before any table is built.

    An order of 10^40 or more in size is named by its digit count, in the
    <k-digit integer> form of bounds, so the refusal stays short and
    str() of the whole value is never taken.
    """
    if 1 <= s <= MAX_GROUP_ORDER:
        return
    size = abs(s)
    if size < 10**40:
        raise ValueError(f"group order must be in 1..{MAX_GROUP_ORDER}, got {s}")
    # floor(bit_length * log10 2) is the digit count or one less, so k starts below it.
    k = int(size.bit_length() * math.log10(2)) - 1
    while 10**k <= size:
        k += 1
    sign = "-" if s < 0 else ""
    raise ValueError(f"group order must be in 1..{MAX_GROUP_ORDER}, got {sign}<{k}-digit integer>")


class FiniteGroup(Record):
    """A finite group as an explicit multiplication table on 0..s-1.

    The constructor checks for a two-sided identity e and that every
    row holds e, then fixes a generating set S by core.generating_set, the
    one home of the greedy rule, in index order: x joins S unless the
    elements already in S generate it, so |S| <= log2 s.  Associativity
    is checked along S only, (x h) c = x (h c) for x in S and all h, c:
    |S| s^2 products instead of s^3 (Light's test; Clifford and Preston,
    *The Algebraic Theory of Semigroups*, vol. I, 1961).  That suffices:
    K = {x : (x h) c = x (h c) for all h, c} holds S and the identity,
    and for x, y in K, ((x y) h) c = (x (y h)) c = x ((y h) c)
    = x (y (h c)) = (x y) (h c), so K is closed under products.
    generating_set terminates on any table with an identity, associative
    or not, and every element it places in the span is a product of
    elements of S, so K is the whole table.  A row holding e gives a
    right inverse, and in an associative table it is two-sided: if
    g h = e and h k = e (row h holds e too), then k = (g h) k = g (h k)
    = g, so h g = e.  So a FiniteGroup value is always a genuine group,
    and a table whose rows all hold e but that is not a group is refused
    by Light's test.

    Every check compares whole rows, so the loops along a row run in C.
    The range check takes each row's min and max.  e is the identity
    when row e and column e both equal (0, ..., s-1).  The inverse test
    is one scan of each row for e.  Light's test compares row x h
    with row h read through row x, the row (x (h c))_c, for each x in S
    and each h: |S| s comparisons of rows of length s in place of
    |S| s^2 lookups.  On the S4 x C2 table (s = 48, |S| = 4) the
    constructor takes 0.37 ms, of which the row scans take 10 us; a
    search of each row's candidates for a two-sided inverse took 83 us,
    and the constructor 0.44 ms with it (in process, best of 7, 2-core
    x86-64, CPython 3.11).  Entry by entry, the checks took 0.95-1.07 ms.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...]

    def __init__(self, table: Sequence[Sequence[int]]):
        s = len(table)
        _check_order(s)
        t = tuple(tuple(map(int, row)) for row in table)
        for row in t:
            if len(row) != s or min(row) < 0 or max(row) >= s:
                raise ValueError("multiplication table is not s x s over 0..s-1")
        ident = tuple(range(s))
        identity = next(
            (e for e in ident if t[e] == ident and tuple(map(itemgetter(e), t)) == ident), None
        )
        if identity is None:
            raise ValueError("table has no identity element")
        lonely = next((g for g, row in enumerate(t) if identity not in row), None)
        if lonely is not None:
            raise ValueError(f"element {lonely} has no inverse")
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "identity", identity)
        gens = generating_set(ident, self.mul, identity)
        # row_of[h](t[x]) is the row (x (h c))_c; S is empty when s = 1, the
        # one order at which itemgetter(*row) would return an int, not a tuple.
        row_of = [itemgetter(*row) for row in t]
        if any(t[xh] != get(t[x]) for x in gens for xh, get in zip(t[x], row_of)):
            raise ValueError("table is not associative")
        object.__setattr__(self, "generators", gens)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.table[x][g]
            k += 1
        return k

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in self.elements())

    def is_subgroup(self, subset: Iterable[int]) -> bool:
        sub = set(subset)
        return sub <= set(self.elements()) and (
            generating_set(sorted(sub), self.mul, self.identity) is not None
        )

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        _check_order(max(n, 0))
        r = list(range(n))
        return cls([r[i:] + r[:i] for i in range(n)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Symmetric group on n letters via permutation composition.

        Element i is the i-th permutation p_i of range(n) in sorted order,
        and p_i p_j is the map k |-> p_i(p_j(k)).  Row x of the table is
        left multiplication by p_x, j |-> index of p_x p_j.  Only two rows
        are formed by composing permutations: those of the transposition
        (0 1) and the n-cycle (0 1 ... n-1), which generate S_n.  Every
        other row is reached from the identity's, range(n!), by a walk
        that takes the row of y to that of x y, for x one of the two, as
        row(x y)[j] = row(x)[row(y)[j]]: both sides index
        p_x (p_y p_j) = (p_x p_y) p_j.  So the table is exactly the one
        that composing every pair would give, for 2 n! compositions
        instead of (n!)^2; the other lookups run in C.  A degree above
        MAX_SYMMETRIC_DEGREE is refused before n! is formed, so a huge n
        costs nothing; n <= 0 gives the trivial group.
        """
        import itertools

        if n > MAX_SYMMETRIC_DEGREE:
            raise ValueError(f"group order must be in 1..{MAX_GROUP_ORDER}, got {n}!")
        s = math.factorial(max(n, 0))
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
        left = [(index[p], [index[tuple(map(p.__getitem__, q))] for q in perms]) for p in gens]
        rows = {0: list(range(s))}  # perms[0] is the identity
        frontier = [0]
        for y in frontier:
            for x, row_x in left:
                xy = row_x[y]
                if xy not in rows:
                    rows[xy] = list(map(row_x.__getitem__, rows[y]))
                    frontier.append(xy)
        return cls([rows[i] for i in range(s)])

    @classmethod
    def direct_product(cls, g1: "FiniteGroup", g2: "FiniteGroup") -> "FiniteGroup":
        s2 = g2.order
        _check_order(g1.order * s2)
        table = []
        for row1 in g1.table:
            shifted = [x * s2 for x in row1]
            table += ([h + y for h in shifted for y in row2] for row2 in g2.table)
        return cls(table)


class GLattice(Record):
    """A rank-d lattice with a verified integral group action.

    The constructor checks that the identity acts as I and that
    action(x h) = action(x) action(h) for all h and each x of the
    group's generating set S (from core.generating_set, the one home of
    the greedy rule): |S| s products instead of s^2.  That
    suffices: K = {x : action(x h) = action(x) action(h) for all h}
    holds 1 and S, and for x, y in K, action(x y h) = action(x) action(y)
    action(h) = action(x y) action(h), so K is closed under products,
    hence a subgroup, hence G.  Then action(g) action(g^-1) = I, so
    every action matrix is unimodular without a determinant.

    No product matrix is formed: each row is packed into one integer
    (Kronecker substitution; Schonhage, EUROCAM 1982; Harvey, J. Symb.
    Comput. 44, 2009).  With digit width b, row k of A_g packs to
    P_g[k] = sum_j (A_g)_kj 2^(b j), and row i of A_x A_h packs to
    sum_k (A_x)_ik P_h[k], one dot product, compared with P_xh[i].  The
    check is exact for b = bit_length(R M) + 1, with R the largest row
    1-norm of the generators' matrices, taken as 1 if it is 0, and M
    the largest |entry| of all the matrices.  Each digit of a product
    row, sum_k (A_x)_ik (A_h)_kj, has size at most R M, each digit of a
    target row at most M <= R M, and R M < 2^(b-1).  So two digit rows
    that pack to the same integer differ digitwise by w_j with
    |w_j| <= 2 R M < 2^b, and sum_j w_j 2^(b j) = 0.  If some w_j were
    nonzero, take the least such j: every later term is a multiple of
    2^(b (j+1)), so 2^b would divide w_j.  Hence equal packings mean
    equal rows.  Both the packs and the dot products skip zero entries
    through filter and compress, so every loop over a row runs in C.

    Cost: s d packs and |S| s d dot products of length d, on integers
    of about b d bits; no d x d product is formed.  In process, best of
    3 (2-core x86-64, CPython 3.11): J_C48 builds in 8-13 ms, J_{S4 x C2}
    in 15-26 ms, two copies of the regular lattice of S4 x C2 (d = 96)
    in 45-49 ms, and J_{S4 x C2} conjugated to density 0.93 (entries up
    to 18 bits, b = 37) in 0.17-0.18 s.  h1 takes 1.5-23 ms on the
    sparse ones and 0.42 s on the dense one.
    """

    group: FiniteGroup
    rank: int
    action: tuple[IntegerMatrix, ...]

    def __init__(self, group: FiniteGroup, rank: int, action: Sequence[IntegerMatrix]):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        mats = tuple(action)
        if len(mats) != group.order:
            raise ValueError("need one action matrix per group element")
        if any(m.rows != rank or m.cols != rank for m in mats):
            raise ValueError("action matrices must be rank x rank")
        if not mats[group.identity].is_identity():
            raise ValueError("identity element must act as the identity matrix")
        rows = [[m.entries[k * rank : (k + 1) * rank] for k in range(rank)] for m in mats]
        norm = max((sum(map(abs, row)) for x in group.generators for row in rows[x]), default=1)
        size = max(max(map(abs, filter(None, m.entries)), default=0) for m in mats)
        width = (max(norm, 1) * size).bit_length() + 1
        shifts = range(0, width * rank, width)
        packed = [
            [sum(map(lshift, filter(None, row), compress(shifts, row))) for row in m] for m in rows
        ]
        for x in group.generators:
            left = [(tuple(filter(None, row)), row) for row in rows[x]]
            for target, packed_h in zip(group.table[x], packed):
                product = [sum(map(mul, coeffs, compress(packed_h, row))) for coeffs, row in left]
                if product != packed[target]:
                    raise ValueError("action does not respect the group table")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "action", mats)

    def conjugate(self, u: IntegerMatrix, u_inv: IntegerMatrix) -> "GLattice":
        """Base change by a unimodular u (u_inv its integral inverse)."""
        if not u.mul(u_inv).is_identity():
            raise ValueError("u_inv is not the inverse of u")
        return GLattice(
            self.group, self.rank, tuple(u.mul(m).mul(u_inv) for m in self.action)
        )

    def direct_sum(self, other: "GLattice") -> "GLattice":
        if self.group != other.group:
            raise ValueError("direct sum needs a common group")
        d1, d2 = self.rank, other.rank
        mats = tuple(
            IntegerMatrix.from_rows(
                [row + [0] * d2 for row in a.to_rows()] + [[0] * d1 + row for row in b.to_rows()]
            )
            for a, b in zip(self.action, other.action)
        )
        return GLattice(self.group, d1 + d2, mats)

    @classmethod
    def trivial(cls, group: FiniteGroup, rank: int) -> "GLattice":
        return cls(group, rank, (IntegerMatrix.identity(rank),) * group.order)


class AbelianGroupInvariants(Record):
    """Elementary divisors d_1 | d_2 | ... (each > 1) plus free rank."""

    divisors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        prev = None
        for d in self.divisors:
            if d <= 1:
                raise ValueError("divisors must exceed 1")
            if prev is not None and d % prev:
                raise ValueError("divisors must form a chain")
            prev = d

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.divisors)

    @property
    def is_trivial(self) -> bool:
        return not self.divisors and not self.free_rank


def _coboundary_rows(lattice: GLattice) -> list[list[int]]:
    """C_S as row lists: the map a |-> (x.a - a for x in S), one block of
    d rows per generator x, the rows of A_x with 1 taken off the diagonal."""
    d = lattice.rank
    rows = []
    for x in lattice.group.generators:
        entries = lattice.action[x].entries
        for k in range(d):
            row = list(entries[k * d : (k + 1) * d])
            row[k] -= 1
            rows.append(row)
    return rows


def h1(lattice: GLattice) -> AbelianGroupInvariants:
    """Invariants of H^1(G, A) = Z^1 / B^1 for the given lattice.

    Following the module docstring, the elementary divisors of H^1 are
    those of the generator stack C_S above 1, and its free rank is
    d - rank T - rank C_S with rank T = (sum_g tr A_g) / s: one Smith
    diagonal and one character count.  C_S goes to the elimination
    kernel as the row lists of _coboundary_rows, with nothing appended,
    so the kernel builds no transform.  Finiteness of the result (free
    rank 0) is a theorem; the computed free rank is returned so that
    tests can confirm it.
    """
    d = lattice.rank
    rank_t = sum(sum(m.entries[:: d + 1]) for m in lattice.action) // lattice.group.order
    rows = _coboundary_rows(lattice)
    diag = _eliminate(rows, len(rows), d)
    rank_c = sum(1 for x in diag if x)
    return AbelianGroupInvariants(tuple(x for x in diag if x > 1), d - rank_t - rank_c)


def induced_lattice(group: FiniteGroup, subgroup: Iterable[int]) -> GLattice:
    """Permutation lattice on the cosets G/H with G acting by left translation."""
    sub = sorted(set(subgroup))
    if not group.is_subgroup(sub):
        raise ValueError("subset is not closed under multiplication")
    rep, index = cosets(group.elements(), group.mul, sub)
    n = len(rep)
    mats = []
    for row in group.table:
        entries = [0] * (n * n)
        for j, r in enumerate(rep):
            entries[index[row[r]] * n + j] = 1
        mats.append(IntegerMatrix(n, n, tuple(entries)))
    return GLattice(group, n, tuple(mats))


def norm_one_lattice(group: FiniteGroup) -> GLattice:
    """Character lattice of the norm-one torus of a cyclic group.

    Realized as Z[G] modulo the span of the norm element, with basis the
    images of 1, g, ..., g^(s-2) for a fixed generator g.  Any other
    unimodular basis gives an isomorphic lattice, so the h1 invariants
    do not depend on this choice.
    """
    s = group.order
    d = s - 1
    gen = next((g for g in group.elements() if group.element_order(g) == s), None)
    if gen is None:
        raise ValueError("norm-one lattice requires a cyclic group")
    # Position of each element as a power of the generator.
    power_of, x = {}, group.identity
    for k in range(s):
        power_of[x] = k
        x = group.mul(x, gen)
    # Action of g^t on the basis b_i = image of gen^i: shifts i by t,
    # with gen^(s-1) rewritten as -(b_0 + ... + b_(s-2)).
    mats = []
    for g in group.elements():
        t = power_of[g]
        entries = [0] * (d * d)
        for i in range(d):
            j = (i + t) % s
            if j < d:
                entries[j * d + i] = 1
            else:
                entries[i::d] = [-1] * d
        mats.append(IntegerMatrix(d, d, tuple(entries)))
    return GLattice(group, d, tuple(mats))


def faithful_quotient(lattice: GLattice) -> tuple[FiniteGroup, GLattice]:
    """Quotient of G by the kernel of the action, with the induced lattice.

    The induced action is faithful and has the same h1 invariants (the
    inflation map along the quotient is an isomorphism here because the
    kernel acts trivially on a torsion-free module).
    """
    grp = lattice.group
    kernel = [g for g in grp.elements() if lattice.action[g].is_identity()]
    rep, index = cosets(grp.elements(), grp.mul, kernel)
    table = [[index[grp.mul(a, b)] for b in rep] for a in rep]
    quotient = FiniteGroup(table)
    mats = tuple(lattice.action[g] for g in rep)
    return quotient, GLattice(quotient, lattice.rank, mats)


class MinkowskiReport(Record):
    """Order data for a finite-order integer matrix against gamma(d)."""

    dimension: int
    order: int
    gamma_bound: int
    order_divides_gamma: bool
    nontrivial_mod_3: bool

    @property
    def passed(self) -> bool:
        """Both facts hold (a trivial order needs no mod-3 check).

        No CLI command checks matrix orders, so this is the only verdict
        on them; bench/tasks.check_minkowski reads it.
        """
        return self.order_divides_gamma and (self.order == 1 or self.nontrivial_mod_3)


def _char_poly(m: IntegerMatrix) -> list[int]:
    """det(x I - m) over Z, coefficients from x^d down, by Faddeev-LeVerrier.

    With M_1 = I and M_(k+1) = m M_k + c_k I, the coefficient of x^(d-k)
    is c_k = -tr(m M_k) / k, and each division is exact (Faddeev and
    Sominsky; Householder, *The Theory of Matrices in Numerical
    Analysis*, 1964, section 6.7).  The products run through
    IntegerMatrix.mul with m on the left, so m's zero entries are skipped.
    """
    d, poly, product = m.rows, [1], m
    for k in range(1, d + 1):
        poly.append(c := -sum(product.entries[:: d + 1]) // k)
        if k < d:  # m M_(k+1) = m (m M_k) + c_k m
            step = zip(m.mul(product).entries, m.entries)
            product = IntegerMatrix(d, d, tuple(x + c * y for x, y in step))
    return poly


def _divide(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for a monic b that divides a, else None; coefficients from the top degree down."""
    a, k = list(a), len(a) - len(b) + 1
    for i in range(k):
        a[i + 1 : i + len(b)] = [x - a[i] * y for x, y in zip(a[i + 1 : i + len(b)], b[1:])]
    return None if k < 1 or any(a[k:]) else a[:k]


def minkowski_check(m: IntegerMatrix, d: int) -> MinkowskiReport:
    """Verify the finite-order constraints on a d x d integer matrix.

    The order of any finite-order element of GL_d(Z) divides gamma(d),
    and reduction mod 3 is injective on finite subgroups, so a
    nonidentity finite-order matrix cannot reduce to the identity mod 3.

    Finiteness is read off the characteristic polynomial.  If m has
    order L, it is diagonalizable over C with roots of unity as
    eigenvalues, so its characteristic polynomial is a product of
    cyclotomic polynomials Phi_n, one per eigenvalue orbit, and L is the
    lcm of those n.  Conversely, when the polynomial is such a product,
    m has finite order exactly when m^L = I, and then L is its order
    (Phi_1^2 = (x - 1)^2 is the polynomial of [[1, 1], [0, 1]], of
    infinite order).  Each Phi_n is stripped with its multiplicity.
    Every n here has phi(n) <= d, and phi(n) >= sqrt(n) for n > 6, so
    n <= d^2 + 6.  Phi_n is (x^n - 1) / prod Phi_e over the proper
    divisors e of n; n is skipped when n less the degrees of its stored
    divisors' Phi_e exceeds the degree left, which bounds phi(n) from
    below.  So n is built only when all its proper divisors were, and
    every division is exact.  m is powered only once the polynomial is
    used up: a leftover factor with a root of modulus above 1 would make
    m^L astronomically large.
    """
    from .bounds import gamma  # only here: h1 and the lattice layer never load bounds

    if m.rows != d or m.cols != d:
        raise ValueError(f"expected a {d} x {d} matrix")
    g = gamma(d)
    poly, phis, order = _char_poly(m), {}, 1
    for n in range(1, d * d + 7):
        if len(poly) == 1:
            break
        divisors = [f for e, f in phis.items() if n % e == 0]
        if n - sum(len(f) - 1 for f in divisors) > len(poly) - 1:
            continue
        phis[n] = phi_n = reduce(_divide, divisors, [1] + [0] * (n - 1) + [-1])
        while (quotient := _divide(poly, phi_n)) is not None:
            poly, order = quotient, math.lcm(order, n)
    power = m  # m^L by squaring, after the leading bit of L; only once poly is used up
    for bit in bin(order)[3:] if len(poly) == 1 else "":
        power = m.mul(power.mul(power)) if bit == "1" else power.mul(power)
    if len(poly) > 1 or not power.is_identity():
        raise ValueError(f"matrix has no finite order dividing gamma({d}) = {g}")
    return MinkowskiReport(
        dimension=d,
        order=order,
        gamma_bound=g,
        order_divides_gamma=(g % order == 0),
        nontrivial_mod_3=not all(m[i, j] % 3 == (i == j) for i in range(d) for j in range(d)),
    )
