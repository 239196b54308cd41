import functools
import itertools
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly, cyclotomic_poly, factorint, symbols, totient
from sympy.matrices.normalforms import invariant_factors

from arithlab import cohomology
from arithlab.bounds import divides_power, gamma, lam, psi
from arithlab.cohomology import (
    AbelianGroupInvariants,
    FiniteGroup,
    GLattice,
    faithful_quotient,
    h1,
    induced_lattice,
    minkowski_check,
    norm_one_lattice,
    _char_poly,
    _coboundary_rows,
)
from arithlab import core
from arithlab.core import IntegerMatrix, integer_kernel, smith_normal_form

from oracle_h1 import (
    brute_force_h1,
    coboundary_matrix,
    cocycle_matrix,
    cocycle_relation_matrix,
    failed_group_axioms,
    is_associative,
    is_valid_action,
    membership_direct_sum,
    membership_permutation,
    membership_rational,
    norm_matrix,
    norm_one_action,
    permutation_action,
)

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
C6 = FiniteGroup.cyclic(6)
S3 = FiniteGroup.symmetric(3)
V4 = FiniteGroup.direct_product(C2, C2)

I1 = IntegerMatrix.identity(1)
I2 = IntegerMatrix.identity(2)


def rows(*r):
    return IntegerMatrix.from_rows(list(r))


SIGN = GLattice(C2, 1, (I1, rows([-1])))
NEG2 = GLattice(C2, 2, (I2, rows([-1, 0], [0, -1])))
ROT4 = GLattice(
    C4,
    2,
    (I2, rows([0, -1], [1, 0]), rows([-1, 0], [0, -1]), rows([0, 1], [-1, 0])),
)
V4_DIAG = GLattice(
    V4,
    2,
    (I2, rows([1, 0], [0, -1]), rows([-1, 0], [0, 1]), rows([-1, 0], [0, -1])),
)
S3_SIGN = GLattice(
    S3,
    1,
    tuple(
        rows([1 if g == S3.identity or S3.element_order(g) == 3 else -1])
        for g in S3.elements()
    ),
)
ORDER_TWO = next(g for g in S3.elements() if S3.element_order(g) == 2)
S3_PERM = induced_lattice(S3, [S3.identity, ORDER_TWO])
C4_THROUGH_SIGN = GLattice(
    C4, 1, tuple(rows([(-1) ** (g % 2)]) for g in range(4))
)
C6_THROUGH_SIGN = GLattice(
    C6, 1, tuple(rows([(-1) ** (g % 2)]) for g in range(6))
)


def random_latin_square_with_identity(n, rng):
    """A random n x n Latin square on 0..n-1 with a two-sided identity.

    Row and column 0 are the identity's; the other cells are filled in
    row-major order by backtracking, trying the free symbols in a random
    order, and the symbols are then relabelled at random, so the identity
    may be any element.
    """
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = set(range(n)) - set(t[i]) - {t[r][j] for r in range(n)}
        for x in rng.sample(sorted(free), len(free)):
            t[i][j] = x
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    label = rng.sample(range(n), n)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[label[a]][label[b]] = label[t[a][b]]
    return out


class TestFiniteGroup:
    def test_order_cap(self):
        with pytest.raises(ValueError):
            FiniteGroup.cyclic(49)

    def test_rejects_non_associative(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1, 2], [1, 2, 1], [2, 0, 0]])

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError):
            FiniteGroup([[1, 1], [1, 1]])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[1, 1], [1, 1]], "table has no identity element"),
            # Row 2 lacks the identity 0 (1 has only a right inverse, 1 * 2 = 0).
            ([[0, 1, 2], [1, 1, 0], [2, 2, 2]], "element 2 has no inverse"),
            # (1 * 1) * 2 = 0 but 1 * (1 * 2) = 1.
            ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], "table is not associative"),
        ],
    )
    def test_refusals_name_the_failed_axiom(self, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteGroup(table)

    def test_accepts_exactly_the_associative_latin_squares(self):
        # FiniteGroup reads (x h) c = x (h c) only for x in its generating
        # set; the oracle reads all s^3 triples.  Every row of a Latin
        # square holds the identity, so Light's test refuses each
        # non-associative square, and the count of those is asserted too.
        rng = random.Random(1961)
        verdicts = Counter()
        for n in range(3, 9):
            for _ in range(400):
                table = random_latin_square_with_identity(n, rng)
                try:
                    FiniteGroup(table)
                    verdict = "group"
                except ValueError as exc:
                    verdict = str(exc)
                assert (verdict == "group") == is_associative(table), table
                verdicts[verdict if verdict.startswith(("group", "table")) else "inverse"] += 1
        assert verdicts == {"group": 887, "table is not associative": 1513}

    @staticmethod
    def random_table_with_identity(n, rng):
        """An n x n table on 0..n-1 with a two-sided identity, drawn one of four ways.

        A Latin square; a table whose other cells are random; one whose
        rows are random permutations, so every row holds the identity;
        or a group table, relabelled at random, with one cell outside the
        identity's row and column set at random.
        """
        kind = rng.randrange(4)
        if kind == 0:
            return random_latin_square_with_identity(n, rng), kind
        e = rng.randrange(n)
        if kind == 3:
            base = {4: V4, 6: S3}.get(n) if rng.random() < 0.5 else None
            base = base or FiniteGroup.cyclic(n)
            label = rng.sample(range(n), n)
            label[label.index(e)], label[base.identity] = label[base.identity], e
            table = [[None] * n for _ in range(n)]
            for a, row in enumerate(base.table):
                for b, c in enumerate(row):
                    table[label[a]][label[b]] = label[c]
            others = [x for x in range(n) if x != e]
            if others:
                table[rng.choice(others)][rng.choice(others)] = rng.randrange(n)
            return table, kind
        table = []
        for x in range(n):
            if x == e:
                row = list(range(n))
            elif kind == 1:
                row = [rng.randrange(n) for _ in range(n)]
            else:
                row = rng.sample([y for y in range(n) if y != x], n - 1)
                row.insert(e, x)
            row[e] = x
            table.append(row)
        return table, kind

    def test_accepts_exactly_the_groups_of_a_brute_force_oracle(self):
        # The oracle searches each element for a two-sided inverse and reads
        # all s^3 triples; FiniteGroup looks for the identity in each row and
        # reads the triples along its generating set.  Each refusal must name
        # an axiom that the oracle finds failing.
        rng = random.Random(48)
        verdicts = Counter()
        for _ in range(2100):
            n = rng.randint(1, 7)
            table, kind = self.random_table_with_identity(n, rng)
            failed = failed_group_axioms(table)
            try:
                FiniteGroup(table)
                verdict = "group"
            except ValueError as exc:
                verdict = str(exc)
            if verdict == "group":
                assert not failed, table
            elif verdict == "table is not associative":
                assert "associativity" in failed, table
            else:
                g = int(re.fullmatch(r"element (\d+) has no inverse", verdict)[1])
                assert ("inverse", g) in failed, table
            verdicts[kind, verdict.split()[-1]] += 1
        # Every way of drawing meets groups and both refusals, but rows that
        # are permutations always hold the identity.
        for kind in range(4):
            assert verdicts[kind, "group"] and verdicts[kind, "associative"], verdicts
            assert bool(verdicts[kind, "inverse"]) == (kind in (1, 3)), verdicts

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, -1], [1, 0]], "multiplication table is not s x s over 0..s-1"),
            ([[0, 2], [1, 0]], "multiplication table is not s x s over 0..s-1"),
            ([[0, 1], [1]], "multiplication table is not s x s over 0..s-1"),
            # Rows 0 and 1 are both 0, 1, 2, but columns 0 and 1 are
            # 0, 0, 2 and 1, 1, 0.
            ([[0, 1, 2], [0, 1, 2], [2, 0, 1]], "table has no identity element"),
            # Row 2 holds the identity twice, at 2 * 1 and 2 * 2, so every
            # row holds it; (1 * 1) * 2 = 2 but 1 * (1 * 2) = 0.
            ([[0, 1, 2], [1, 0, 1], [2, 0, 0]], "table is not associative"),
        ],
        ids=["entry-minus-one", "entry-equal-to-s", "short-row", "identity-row-only",
             "identity-twice-in-a-row"],
    )
    def test_row_checks_keep_each_refusal(self, table, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FiniteGroup(table)

    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: FiniteGroup.symmetric(5), "5!"),
            (lambda: FiniteGroup.symmetric(12), "12!"),
            (lambda: FiniteGroup.symmetric(2000), "2000!"),
            (lambda: FiniteGroup.symmetric(10**5), "100000!"),
            (lambda: FiniteGroup.cyclic(49), 49),
            (lambda: FiniteGroup.cyclic(10**12), 10**12),
            (lambda: FiniteGroup.cyclic(10**50), "<51-digit integer>"),
            (lambda: FiniteGroup.cyclic(0), 0),
            (lambda: FiniteGroup.cyclic(-3), 0),
            (lambda: FiniteGroup.direct_product(S4, C3), 72),
        ],
        ids=["S5", "S12", "S2000", "S10^5", "C49", "C10^12", "C10^50", "C0", "C-3", "S4xC3"],
    )
    def test_constructors_refuse_before_building(self, build, order, monkeypatch):
        # symmetric would list 12! permutations before the table, and it
        # refuses by the degree alone: 2000! has more digits than int -> str
        # converts by default, and (10^5)! takes about 0.1 s to form.
        # cyclic would start a list of 10^24 entries.
        def never(*args):
            raise AssertionError("heavy work started")

        monkeypatch.setattr(itertools, "permutations", never)
        monkeypatch.setattr(math, "factorial", never)
        with pytest.raises(ValueError, match=f"^group order must be in 1\\.\\.48, got {order}$"):
            build()

    def test_identity_found_at_any_index(self):
        grp = FiniteGroup([[1, 0], [0, 1]])
        assert grp.identity == 1

    def test_symmetric_three(self):
        assert S3.order == 6
        assert sorted(S3.element_order(g) for g in S3.elements()) == [1, 2, 2, 2, 3, 3]
        assert not S3.is_cyclic()

    def test_cyclic(self):
        assert C6.is_cyclic()
        assert C6.element_order(1) == 6

    def test_subgroup_check(self):
        assert S3.is_subgroup([S3.identity, ORDER_TWO])
        assert not S3.is_subgroup([ORDER_TWO])
        assert not S3.is_subgroup([])
        assert not C2.is_subgroup([0, 1, 2])

    @pytest.mark.parametrize("group", [S3, C6, FiniteGroup.direct_product(V4, C2)])
    def test_subgroup_check_agrees_with_all_pairs(self, group):
        elements = list(group.elements())
        for k in range(len(elements) + 1):
            for subset in itertools.combinations(elements, k):
                closed = all(group.mul(a, b) in subset for a in subset for b in subset)
                assert group.is_subgroup(subset) == (bool(subset) and closed), subset


def subgroups(group):
    """Every subgroup, by brute force over the subsets, for order <= 6;
    the trivial group, the whole group and each cyclic subgroup otherwise."""
    if group.order <= 6:
        return [
            subset
            for k in range(1, group.order + 1)
            for subset in itertools.combinations(group.elements(), k)
            if group.identity in subset and all(group.mul(a, b) in subset for a in subset for b in subset)
        ]
    cyclic = set()
    for g in group.elements():
        span, x = {group.identity}, g
        while x != group.identity:
            span.add(x)
            x = group.mul(x, g)
        cyclic.add(frozenset(span))
    return [(group.identity,), tuple(group.elements())] + sorted(sorted(c) for c in cyclic)


class TestTablesAgainstOracles:
    """Group tables and lattice actions against tables built from the definitions."""

    @pytest.mark.parametrize("n", range(-2, 5))
    def test_symmetric_composes_permutations(self, n):
        perms = sorted(itertools.permutations(range(max(n, 0))))
        index = {p: i for i, p in enumerate(perms)}
        table = tuple(
            tuple(index[tuple(p[q[k]] for k in range(len(p)))] for q in perms) for p in perms
        )
        assert FiniteGroup.symmetric(n).table == table

    def test_cyclic_adds_mod_n(self):
        for n in range(1, 49):
            expected = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
            assert FiniteGroup.cyclic(n).table == expected, n

    @pytest.mark.parametrize(
        "g1, g2",
        [(S3, C2), (FiniteGroup.symmetric(4), C2), (FiniteGroup.cyclic(12), C2)],
        ids=["S3xC2", "S4xC2", "C12xC2"],
    )
    def test_direct_product_multiplies_pairs(self, g1, g2):
        pairs = [(a, b) for a in g1.elements() for b in g2.elements()]
        index = {p: i for i, p in enumerate(pairs)}
        table = tuple(
            tuple(index[(g1.mul(a1, b1), g2.mul(a2, b2))] for b1, b2 in pairs) for a1, a2 in pairs
        )
        assert FiniteGroup.direct_product(g1, g2).table == table

    @staticmethod
    def groups():
        corpus = {lattice.group: None for _, lattice, _ in CORPUS}
        return [*corpus, FiniteGroup.cyclic(48), S4_C2]

    def test_induced_lattice_entries(self):
        for group in self.groups():
            for sub in subgroups(group):
                lattice = induced_lattice(group, sub)
                expected = permutation_action(group.table, sub)
                assert [m.to_rows() for m in lattice.action] == expected, (group.order, sub)

    def test_norm_one_lattice_entries(self):
        groups = [g for g in self.groups() if g.is_cyclic()] + [FiniteGroup.cyclic(1)]
        assert sorted(g.order for g in groups) == [1, 2, 3, 4, 6, 48]
        for group in groups:
            lattice = norm_one_lattice(group)
            expected = norm_one_action(group.table, group.identity)
            assert [m.to_rows() for m in lattice.action] == expected, group.order


class TestGLattice:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            GLattice(C2, 1, (I1, rows([2])))

    def test_rejects_wrong_identity(self):
        with pytest.raises(ValueError):
            GLattice(C2, 1, (rows([-1]), I1))

    def test_rejects_non_homomorphism(self):
        # Matrices of order 4 cannot represent the order-2 group.
        with pytest.raises(ValueError):
            GLattice(C2, 2, (I2, rows([0, -1], [1, 0])))

    def test_direct_sum_and_conjugate(self):
        both = SIGN.direct_sum(SIGN)
        assert both.rank == 2
        u = rows([1, 1], [0, 1])
        u_inv = rows([1, -1], [0, 1])
        conj = both.conjugate(u, u_inv)
        assert h1(conj) == h1(both)


class TestH1Examples:
    def test_sign_lattice(self):
        assert h1(SIGN) == AbelianGroupInvariants((2,), 0)

    def test_trivial_actions_vanish(self):
        for grp in (C2, C3, S3):
            for rank in (1, 2, 3):
                assert h1(GLattice.trivial(grp, rank)).is_trivial

    def test_regular_representations_vanish(self):
        for grp in (C2, C3, S3):
            assert h1(induced_lattice(grp, [grp.identity])).is_trivial

    def test_norm_one_cyclic_group_order(self):
        assert h1(norm_one_lattice(C2)) == AbelianGroupInvariants((2,), 0)
        assert h1(norm_one_lattice(C3)) == AbelianGroupInvariants((3,), 0)
        assert h1(norm_one_lattice(C4)) == AbelianGroupInvariants((4,), 0)

    def test_rank_zero(self):
        assert h1(norm_one_lattice(FiniteGroup.cyclic(1))).is_trivial

    def test_indecomposable_involution_types(self):
        # The shear involution is the regular lattice in disguise, so its
        # h1 vanishes; the mixed diagonal is trivial + sign, so h1 = Z/2.
        shear = GLattice(C2, 2, (I2, rows([1, 0], [1, -1])))
        assert h1(shear).is_trivial
        mixed = GLattice(C2, 2, (I2, rows([1, 0], [0, -1])))
        assert h1(mixed) == AbelianGroupInvariants((2,), 0)


CORPUS = [
    ("sign", SIGN, membership_rational),
    ("negation-rank-2", NEG2, membership_rational),
    ("regular-C2", induced_lattice(C2, [0]), membership_permutation),
    ("regular-C3", induced_lattice(C3, [0]), membership_permutation),
    ("trivial-C2-rank3", GLattice.trivial(C2, 3), membership_permutation),
    ("trivial-S3-rank2", GLattice.trivial(S3, 2), membership_permutation),
    ("norm-one-C3", norm_one_lattice(C3), membership_rational),
    ("rotation-C4", ROT4, membership_rational),
    ("diagonal-V4", V4_DIAG, membership_rational),
    ("sign-S3", S3_SIGN, membership_rational),
    ("coset-perm-S3", S3_PERM, membership_permutation),
    ("C4-through-sign", C4_THROUGH_SIGN, membership_rational),
    ("C6-through-sign", C6_THROUGH_SIGN, membership_rational),
]


def _mixed_membership(components):
    def make(lattice, gens):
        testers = [factory(lat, gens) for lat, factory in components]
        return membership_direct_sum([lat.rank for lat, _ in components], testers)

    return make


MIXED = [
    (
        "sign+regular-C2",
        SIGN.direct_sum(induced_lattice(C2, [0])),
        _mixed_membership([(SIGN, membership_rational), (induced_lattice(C2, [0]), membership_permutation)]),
    ),
    (
        "sign+sign+trivial",
        SIGN.direct_sum(SIGN).direct_sum(GLattice.trivial(C2, 1)),
        _mixed_membership(
            [
                (SIGN.direct_sum(SIGN), membership_rational),
                (GLattice.trivial(C2, 1), membership_permutation),
            ]
        ),
    ),
]


class TestH1AgainstBruteForce:
    @pytest.mark.parametrize("name,lattice,membership", CORPUS + MIXED, ids=[c[0] for c in CORPUS + MIXED])
    def test_oracle_agreement(self, name, lattice, membership):
        assert lattice.group.order <= 6 and lattice.rank <= 3
        inv = h1(lattice)
        order, chain = brute_force_h1(lattice, membership)
        assert inv.free_rank == 0
        assert (inv.order, inv.divisors) == (order, chain)


def random_unimodular_pair(n, rng, steps=5):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ops = []
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        ops.append((i, j, c))
        for k in range(n):
            m[i][k] += c * m[j][k]
    for i, j, c in reversed(ops):
        for k in range(n):
            inv[i][k] -= c * inv[j][k]
    return IntegerMatrix.from_rows(m), IntegerMatrix.from_rows(inv)


def random_conjugates():
    """(base, conjugate) pairs: three random base changes of each base."""
    rng = random.Random(2024)
    bases = [SIGN, NEG2, norm_one_lattice(C3), S3_PERM, S3_SIGN,
             induced_lattice(S3, [S3.identity]),
             NEG2.direct_sum(SIGN.direct_sum(SIGN))]
    pairs = []
    for base in bases:
        for _ in range(3):
            u, u_inv = random_unimodular_pair(base.rank, rng)
            pairs.append((base, base.conjugate(u, u_inv)))
    return pairs


def _rank(m):
    return sum(1 for x in smith_normal_form(m).diagonal if x)


class TestCocycleMatrices:
    """Z^1 = ker M, M = s I + C E, against the all-pairs R.

    h1 reads H^1 off coker C, which needs B^1 inside Z^1: R C = 0.  It
    never builds M, and takes rank M = N - d + rank T with rank T the
    trace sum of the action matrices over s, where T is the oracle's
    norm matrix.  C here is the oracle's full matrix, one block per
    g != 1.
    """

    LATTICES = [lat for _, lat, _ in CORPUS + MIXED] + [
        lat for _, lat in random_conjugates()
    ]

    def test_coboundaries_are_cocycles(self):
        for lat in self.LATTICES:
            relations = cocycle_relation_matrix(lat)
            coboundaries = coboundary_matrix(lat)
            assert relations.cols == coboundaries.rows
            assert not any(relations.mul(coboundaries).entries)

    def test_kernel_of_m_is_the_cocycles(self):
        for lat in self.LATTICES:
            relations = cocycle_relation_matrix(lat)
            coboundaries = coboundary_matrix(lat)
            cocycles = cocycle_matrix(coboundaries, lat.group.order)
            n = (lat.group.order - 1) * lat.rank
            assert (cocycles.rows, cocycles.cols) == (n, n)
            assert _rank(cocycles) == _rank(relations)
            kernel = integer_kernel(cocycles)
            assert kernel.cols == n - _rank(cocycles)
            assert not any(relations.mul(kernel).entries)
            assert not any(cocycles.mul(coboundaries).entries)

    def test_rank_of_m_from_the_norm_matrix(self):
        # The trivial group has N = 0 and T = I_d.
        for lat in self.LATTICES + [GLattice.trivial(FiniteGroup.cyclic(1), 2)]:
            n, d = (lat.group.order - 1) * lat.rank, lat.rank
            cocycles = cocycle_matrix(coboundary_matrix(lat), lat.group.order)
            assert _rank(cocycles) == n - d + _rank(norm_matrix(lat))
        # T^2 = s T, so s rank T is the trace of T, the sum h1 reads.
        for lat in self.LATTICES + [
            augmentation_dual(FiniteGroup.cyclic(48)),
            augmentation_dual(S4_C2),
            induced_lattice(S4_C2, [S4_C2.identity]),
        ]:
            s, norm = lat.group.order, norm_matrix(lat)
            traces = sum(m[i, i] for m in lat.action for i in range(lat.rank))
            assert traces == s * _rank(norm) == s * Matrix(norm.to_rows()).rank()

    def test_h1_runs_one_elimination(self, monkeypatch):
        # One kernel call per h1, on C_S with nothing appended: |S| d rows
        # of length d, so no transform is built.
        calls = []

        def eliminate(a, rows, cols):
            calls.append((rows, cols, {len(row) for row in a}))
            return core._eliminate(a, rows, cols)

        monkeypatch.setattr(cohomology, "_eliminate", eliminate)
        for k, lat in enumerate(self.LATTICES, 1):
            h1(lat)
            assert len(calls) == k
            d = lat.rank
            assert calls[-1][:2] == (len(lat.group.generators) * d, d)
            assert calls[-1][2] <= {d}


def _parity(perm):
    return sum(1 for i, x in enumerate(perm) for y in perm[i + 1 :] if x > y) % 2


S4 = FiniteGroup.symmetric(4)
S4_PERMS = sorted(itertools.permutations(range(4)))
S4_C2 = FiniteGroup.direct_product(S4, C2)


def augmentation_dual(group):
    """J_G = Z[G] / Z.N_G on the images of the elements 0..s-2.

    H^1(G, J_G) = H^2(G, Z), the dual of the abelianization of G.
    """
    return GLattice(group, group.order - 1, augmentation_dual_matrices(group))


def augmentation_dual_matrices(group):
    """The action matrices of J_G, one per element, unchecked."""
    d = group.order - 1
    mats = []
    for g in group.elements():
        m = [[0] * d for _ in range(d)]
        for j in range(d):
            k = group.mul(g, j)
            if k < d:
                m[k][j] = 1
            else:  # the image of element d is minus the sum of the others
                for i in range(d):
                    m[i][j] = -1
        mats.append(IntegerMatrix.from_rows(m))
    return mats


class TestH1BeyondOrderSix:
    """H^1 known from theory, with N = (s - 1) d up to 2209.

    The elementary divisors are also checked against sympy's invariant
    factors of the generator stack C_S that h1 eliminates.  Lattices are
    built inside the test, not at import, since J_G at order 48 takes up
    to about 0.15 s.
    """

    CASES = [
        # H^1(C_n, norm-one lattice) = Z/n.
        ("norm-one-C12", lambda: norm_one_lattice(FiniteGroup.cyclic(12)), (12,)),
        # Permutation lattices have trivial H^1 (Shapiro's lemma).
        (
            "coset-perm-S4/S3",
            lambda: induced_lattice(S4, [i for i, p in enumerate(S4_PERMS) if p[3] == 3]),
            (),
        ),
        # A nontrivial sign character has H^1 = Z/2; here order 48.
        (
            "sign-S4xC2",
            lambda: GLattice(
                S4_C2,
                1,
                tuple(
                    rows([(-1) ** _parity(S4_PERMS[g // 2])])
                    for g in S4_C2.elements()
                ),
            ),
            (2,),
        ),
        # H^2(G, Z) is the dual of G^ab: C2 for S4, C12 x C2 for C12 x C2.
        ("J-S4", lambda: augmentation_dual(S4), (2,)),
        (
            "J-C12xC2",
            lambda: augmentation_dual(
                FiniteGroup.direct_product(FiniteGroup.cyclic(12), C2)
            ),
            (2, 12),
        ),
        # At order 48: C48^ab = C48, and (S4 x C2)^ab = C2 x C2.
        ("J-C48", lambda: augmentation_dual(FiniteGroup.cyclic(48)), (48,)),
        ("J-S4xC2", lambda: augmentation_dual(S4_C2), (2, 2)),
    ]

    @pytest.mark.parametrize("name,build,divisors", CASES, ids=[c[0] for c in CASES])
    def test_against_theory_and_sympy(self, name, build, divisors):
        lattice = build()
        assert h1(lattice) == AbelianGroupInvariants(divisors, 0)
        factors = invariant_factors(Matrix(_coboundary_rows(lattice)))
        assert tuple(int(x) for x in factors if x > 1) == divisors


def relabel(lattice, perm):
    """The same lattice with element g renamed perm[g] in table and action."""
    grp = lattice.group
    table = [[0] * grp.order for _ in grp.elements()]
    for a in grp.elements():
        for b in grp.elements():
            table[perm[a]][perm[b]] = perm[grp.mul(a, b)]
    action = [None] * grp.order
    for g in grp.elements():
        action[perm[g]] = lattice.action[g]
    return GLattice(FiniteGroup(table), lattice.rank, action)


def relabelled_lattices():
    """Shuffled labels, so that the identity and the generators move."""
    rng = random.Random(4096)
    bases = [S3_PERM, V4_DIAG, ROT4, S3_SIGN, induced_lattice(S3, [S3.identity]),
             augmentation_dual(FiniteGroup.direct_product(FiniteGroup.cyclic(4), C2)),
             augmentation_dual(S4)]
    pairs = []
    for base in bases:
        for _ in range(2):
            perm = list(base.group.elements())
            rng.shuffle(perm)
            pairs.append((base, relabel(base, perm)))
    return pairs


def span_of(group, gens):
    """The subgroup generated by gens: closure of {1} under right products."""
    span, frontier = {group.identity}, [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.table[x][g]
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _nonzero_invariants(m):
    factors = invariant_factors(Matrix(m.to_rows())) if m.rows and m.cols else ()
    return tuple(int(x) for x in factors if x)


class TestGeneratorStack:
    """h1 eliminates C_S, one block per generator, in place of the full C.

    Both must have the same rank and the same nonzero invariant factors
    (sympy), and S must generate G with |S| <= log2 s.
    """

    @staticmethod
    def lattices():
        yield from (lat for _, lat, _ in CORPUS + MIXED)
        yield from (lat for _, lat in random_conjugates())
        yield from (lat for _, lat in relabelled_lattices())
        yield augmentation_dual(FiniteGroup.cyclic(48))
        yield augmentation_dual(S4_C2)

    def test_same_rank_and_invariants_as_the_full_matrix(self):
        for lat in self.lattices():
            rows = _coboundary_rows(lat)
            stack = IntegerMatrix(len(rows), lat.rank, tuple(x for row in rows for x in row))
            full = coboundary_matrix(lat)
            assert stack.rows == len(lat.group.generators) * lat.rank
            invariants = _nonzero_invariants(full)
            assert _rank(stack) == len(invariants)
            assert _nonzero_invariants(stack) == invariants

    def test_relabelled_tables_keep_h1(self):
        pairs = relabelled_lattices()
        for base, lat in pairs:
            assert h1(lat) == h1(base)
        assert any(lat.group.identity != 0 for _, lat in pairs)
        assert any(lat.group.generators != base.group.generators for base, lat in pairs)

    @staticmethod
    @functools.cache
    def groups():
        groups = [FiniteGroup.cyclic(n) for n in range(1, 49)] + [
            S3, S4, S4_C2, V4,
            FiniteGroup.direct_product(V4, C2),
            FiniteGroup.direct_product(FiniteGroup.cyclic(12), C2),
            FiniteGroup.direct_product(S3, FiniteGroup.direct_product(C2, C2)),
        ] + [lat.group for lat in TestGeneratorStack.lattices()]
        return tuple(dict.fromkeys(groups))

    def test_generators_are_the_greedy_choice(self):
        # x is in S exactly when the elements of S below x do not generate it.
        for grp in self.groups():
            gens = set(grp.generators)
            for x in grp.elements():
                below = sorted(g for g in gens if g < x)
                assert (x in gens) == (x not in span_of(grp, below)), (grp.generators, x)

    def test_generators_span_the_group(self):
        for grp in self.groups():
            gens = grp.generators
            assert span_of(grp, gens) == set(grp.elements()), gens
            assert 2 ** len(gens) <= grp.order, gens
            # Each generator lies outside the span of those before it.
            for k, x in enumerate(gens):
                assert x not in span_of(grp, gens[:k]), gens


class TestActionCheckAgainstReference:
    """GLattice checks a generating set; the reference checks every pair
    of elements and every determinant, and shares no code with it."""

    LATTICES = TestCocycleMatrices.LATTICES

    @staticmethod
    def accepts(group, rank, action):
        try:
            GLattice(group, rank, action)
        except ValueError:
            return False
        return True

    def test_reference_accepts_the_corpus(self):
        for lat in self.LATTICES:
            assert is_valid_action(lat.group, lat.rank, lat.action)

    def test_single_entry_corruptions(self):
        rng = random.Random(4848)
        outcomes = set()
        for lat in self.LATTICES:
            for _ in range(30):
                g = rng.randrange(lat.group.order)
                k = rng.randrange(lat.rank * lat.rank)
                entries = list(lat.action[g].entries)
                entries[k] += rng.choice((-2, -1, 1, 2))
                action = list(lat.action)
                action[g] = IntegerMatrix(lat.rank, lat.rank, tuple(entries))
                expected = is_valid_action(lat.group, lat.rank, action)
                assert self.accepts(lat.group, lat.rank, action) == expected, (lat, g, k)
                outcomes.add(expected)
        # Some corruptions give another valid action (the sign lattice
        # turned trivial); most give none.
        assert outcomes == {True, False}

    def test_non_generator_matrix_is_checked(self):
        # 1 generates C4, so action(2) and action(3) are only ever read as
        # products action(1 h); a unimodular wrong value must still fail.
        for g in (2, 3):
            action = list(ROT4.action)
            action[g] = I2
            assert not is_valid_action(C4, 2, action)
            with pytest.raises(ValueError, match="group table"):
                GLattice(C4, 2, action)

    def test_every_generator_is_checked(self):
        # On C_n x C_n, element n i + j acts as y^j x^i for non-commuting
        # x, y of order n.  Every product action(1 h) agrees, since 1 acts
        # as y; only the second generator n, acting as x, shows the fault.
        # For n = 3 the first generator spans {0, 1, 2} and not the group.
        def power(m, k):
            out = I2
            for _ in range(k):
                out = out.mul(m)
            return out

        for n, x, y in (
            (2, rows([0, 1], [1, 0]), rows([1, 0], [0, -1])),
            (3, rows([0, -1], [1, -1]), rows([-1, -1], [1, 0])),
        ):
            cn = FiniteGroup.cyclic(n)
            group = FiniteGroup.direct_product(cn, cn)
            action = [power(y, g % n).mul(power(x, g // n)) for g in group.elements()]
            assert not is_valid_action(group, 2, action)
            with pytest.raises(ValueError, match="group table"):
                GLattice(group, 2, action)


def dihedral4():
    """D4 as the symmetries of a square's corners, composed as permutations."""
    perms = sorted(
        p for p in itertools.permutations(range(4))
        if all((p[(i + 1) % 4] - p[i]) % 4 in (1, 3) for i in range(4))
    )
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])


def wide_conjugate(lattice, rng, bits=20):
    """The action of lattice in a random basis, with entries of >= bits bits."""
    u, u_inv = IntegerMatrix.identity(lattice.rank), IntegerMatrix.identity(lattice.rank)
    while True:
        mats = [u.mul(m).mul(u_inv) for m in lattice.action]
        if max(abs(x) for m in mats for x in m.entries).bit_length() >= bits:
            return mats
        v, v_inv = random_unimodular_pair(lattice.rank, rng, steps=4 * lattice.rank)
        u, u_inv = v.mul(u), u_inv.mul(v_inv)


class TestPackedActionCheck:
    """GLattice compares packed rows, one integer per row; the reference
    multiplies every pair of action matrices with IntegerMatrix.mul,
    which GLattice does not call."""

    GROUPS = {
        **{f"C{n}": FiniteGroup.cyclic(n) for n in range(2, 9)},
        "C2xC2": V4,
        "S3": S3,
        "D4": dihedral4(),
    }

    @staticmethod
    def reference(group, action):
        return all(
            action[group.mul(x, h)] == action[x].mul(action[h])
            for x in group.elements()
            for h in group.elements()
        )

    @staticmethod
    def accepts(group, action):
        try:
            GLattice(group, action[0].rows, action)
        except ValueError:
            return False
        return True

    @staticmethod
    def width(group, action):
        """bit_length(R M) + 1: R the largest row 1-norm of a generator's
        matrix, M the largest |entry| of any matrix."""
        d = action[0].rows
        norm = max(
            sum(abs(action[x][i, j]) for j in range(d)) for x in group.generators for i in range(d)
        )
        size = max(abs(x) for m in action for x in m.entries)
        return (norm * size).bit_length() + 1

    @settings(max_examples=150)
    @given(
        name=st.sampled_from(sorted(GROUPS)),
        seed=st.integers(0, 2**32),
        tamper=st.sampled_from(["none", "swap", "one", "power"]),
        sign=st.sampled_from([1, -1]),
        shift=st.integers(-2, 1),
    )
    def test_accepts_exactly_when_the_reference_does(self, name, seed, tamper, sign, shift):
        group = self.GROUPS[name]
        rng = random.Random(seed)
        action = wide_conjugate(induced_lattice(group, [group.identity]), rng)
        d, b = action[0].rows, self.width(group, action)
        g, h = rng.sample(range(group.order), 2)
        if tamper == "swap":
            action[g], action[h] = action[h], action[g]
        elif tamper != "none":
            entries = list(action[g].entries)
            entries[rng.randrange(d * d)] += sign * (1 if tamper == "one" else 2 ** (b + shift))
            action[g] = IntegerMatrix(d, d, tuple(entries))
        expected = self.reference(group, action)
        assert self.accepts(group, action) == expected
        # Untampered, it is an action.  Tampered, it may still be one (a
        # swap along an automorphism of G), so no refusal is asserted.
        assert expected or tamper != "none"

    @pytest.mark.parametrize("k", range(1, 7))
    def test_digits_at_the_width_bound(self, k):
        # C4 turning the plane, with the first row (-1, 0) of A_2 = -I
        # changed to (2^k - 1, -1).  Then R = 1, M = 2^k - 1 and b = k + 1,
        # and A_1 A_2 has the digit 2^k - 1 = R M.  The two rows differ by
        # (2^k, -1), which packs to 0 at width k: a width one bit short
        # takes this for an action, as every product then packs right.
        action = list(ROT4.action)
        action[2] = rows([2**k - 1, -1], [0, -1])
        assert self.width(C4, action) == k + 1
        assert max(map(abs, action[1].mul(action[2]).entries)) == 2**k - 1
        assert not self.reference(C4, action)
        with pytest.raises(ValueError, match="action does not respect the group table"):
            GLattice(C4, 2, action)

    def test_width_counts_the_row_norm(self):
        # A has order 3, so C3 acts by I, A, A^2.  B replaces the last row
        # (5, 4, -3) of A^2 by (-3, -3, -2): the two pack alike at width 3,
        # which bit_length(M) + 1 would give with M = 3.  R = 4 sets b = 5.
        a = rows([-2, -1, 1], [1, 2, -1], [-2, 1, 0])
        b = rows([1, 1, -1], [2, 2, -1], [-3, -3, -2])
        action = [IntegerMatrix.identity(3), a, b]
        assert a.mul(a).mul(a).is_identity() and a.mul(a) != b
        assert self.width(C3, action) == 5
        assert not self.reference(C3, action)
        with pytest.raises(ValueError, match="action does not respect the group table"):
            GLattice(C3, 3, action)


REFUSALS = {
    "matrix-count": (
        lambda: GLattice(C2, 1, (I1,)),
        "need one action matrix per group element",
    ),
    "matrix-shape": (
        lambda: GLattice(C2, 1, (I1, I2)),
        "action matrices must be rank x rank",
    ),
    "conjugate-non-inverse": (
        lambda: NEG2.conjugate(rows([1, 1], [0, 1]), I2),
        "u_inv is not the inverse of u",
    ),
    "direct-sum-groups": (
        lambda: SIGN.direct_sum(C4_THROUGH_SIGN),
        "direct sum needs a common group",
    ),
    "order-with-free-rank": (
        lambda: AbelianGroupInvariants((2,), 1).order,
        "infinite group has no order",
    ),
    "minkowski-shape": (
        lambda: minkowski_check(IntegerMatrix.identity(3), 2),
        "expected a 2 x 2 matrix",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def bound_holds(lattice: GLattice, inv: AbelianGroupInvariants) -> bool:
    """|H^1| divides s^(r(s-1)), decided without forming the power, and s kills H^1."""
    s = lattice.group.order
    return divides_power(inv.order, s, lattice.rank * (s - 1)) and all(
        s % d == 0 for d in inv.divisors
    )


class TestBoundChecks:
    def test_sign_bound(self):
        # s = 2 and r = 1: the bound 2^1 is attained.
        inv = h1(SIGN)
        assert inv.order == 2 and bound_holds(SIGN, inv)

    def test_regular_c2_bound(self):
        lattice = induced_lattice(C2, [0])
        inv = h1(lattice)
        assert lattice.rank == 2 and inv.order == 1 and bound_holds(lattice, inv)

    def test_random_conjugated_lattices(self):
        for base, lat in random_conjugates():
            inv = h1(lat)
            assert bound_holds(lat, inv), base
            assert inv == h1(base)

    def test_psi_divisibility_for_faithful_lattices(self):
        # Faithful actions of rank d have |H^1| dividing psi(d); for
        # d <= 2 materialize psi, for d = 3 use the factored power test.
        rank_one = [SIGN]
        rank_two = [NEG2, norm_one_lattice(C3), ROT4, V4_DIAG]
        rank_three = [S3_PERM, induced_lattice(C3, [0]).conjugate(*random_unimodular_pair(3, random.Random(5)))]
        for lat in rank_one:
            assert psi(1) % h1(lat).order == 0
        for lat in rank_two:
            assert divides_power(h1(lat).order, gamma(2), lam(2))
        for lat in rank_three:
            assert divides_power(h1(lat).order, gamma(3), lam(3))


class TestInducedLattice:
    def test_full_subgroup_gives_trivial_rank_one(self):
        lat = induced_lattice(S3, list(S3.elements()))
        assert lat.rank == 1
        assert lat.action[ORDER_TWO].is_identity()

    def test_trivial_subgroup_gives_regular(self):
        lat = induced_lattice(C2, [0])
        assert lat.rank == 2
        assert lat.action[1] == rows([0, 1], [1, 0])

    def test_s3_coset_lattice(self):
        assert S3_PERM.rank == 3
        assert h1(S3_PERM).is_trivial

    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            induced_lattice(S3, [ORDER_TWO])


class TestNormOneLattice:
    def test_order_two_is_sign(self):
        lat = norm_one_lattice(C2)
        assert lat.action[1] == rows([-1])

    def test_order_one_is_zero_rank(self):
        assert norm_one_lattice(FiniteGroup.cyclic(1)).rank == 0

    def test_order_three_matrices(self):
        lat = norm_one_lattice(C3)
        assert lat.rank == 2
        assert lat.action[1] == rows([0, -1], [1, -1])

    def test_rejects_non_cyclic(self):
        for group in (S3, V4):
            with pytest.raises(ValueError, match="^norm-one lattice requires a cyclic group$"):
                norm_one_lattice(group)


class TestFaithfulQuotient:
    def test_faithful_input_unchanged(self):
        q, qlat = faithful_quotient(SIGN)
        assert q.order == 2
        assert h1(qlat) == h1(SIGN)

    def test_c4_through_sign(self):
        q, qlat = faithful_quotient(C4_THROUGH_SIGN)
        assert q.order == 2
        assert h1(qlat) == h1(C4_THROUGH_SIGN) == AbelianGroupInvariants((2,), 0)

    def test_trivial_action_collapses(self):
        q, qlat = faithful_quotient(GLattice.trivial(S3, 2))
        assert q.order == 1
        assert h1(qlat).is_trivial

    def test_c6_through_sign(self):
        q, qlat = faithful_quotient(C6_THROUGH_SIGN)
        assert q.order == 2
        assert h1(qlat) == h1(C6_THROUGH_SIGN)


def hyperbolic_block(d):
    """diag([[1, 1], [1, 2]], I_(d-2)), of infinite order."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    m[0][:2], m[1][:2] = [1, 1], [1, 2]
    return rows(*m)


def companion(coeffs):
    """Companion matrix of x^d + coeffs[d-1] x^(d-1) + ... + coeffs[0]."""
    d = len(coeffs)
    m = [[1 if i == j + 1 else 0 for j in range(d)] for i in range(d)]
    for i, c in enumerate(coeffs):
        m[i][d - 1] = -c
    return rows(*m)


def cyclotomic_companion(n):
    """Companion matrix of the n-th cyclotomic polynomial: order n, size phi(n)."""
    coeffs = Poly(cyclotomic_poly(n, symbols("x")), symbols("x")).all_coeffs()
    return companion([int(c) for c in reversed(coeffs[1:])])


def block_diagonal(blocks, d):
    """The blocks down the diagonal, padded with 1s to d x d."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            m[at + i][at : at + b.cols] = b.to_rows()[i]
        at += b.rows
    return rows(*m)


def min_dimension(n):
    """D(n): the least d such that GL_d(Z) has an element of order n."""
    powers = [p**a for p, a in factorint(n).items()]
    return sum(int(totient(q)) for q in powers) - (n % 4 == 2 and n > 2)


def order_n_blocks(n):
    """Cyclotomic blocks of total size D(n) whose direct sum has order n."""
    powers = sorted(p**a for p, a in factorint(n).items())
    if n % 4 == 2 and n > 2:
        powers = powers[1:-1] + [2 * powers[-1]]  # Phi_2q costs phi(q)
    return [cyclotomic_companion(q) for q in powers]


MINKOWSKI_REFUSALS = [
    (hyperbolic_block(4), 4),
    (hyperbolic_block(7), 7),
    (rows(*([3 if i == j else 0 for j in range(7)] for i in range(7))), 7),
    (rows([1, 3], [0, 1]), 2),
]


class TestMinkowskiCheck:
    def test_identity(self):
        report = minkowski_check(IntegerMatrix.identity(2), 2)
        assert report.order == 1 and report.passed

    def test_order_four_rotation(self):
        report = minkowski_check(rows([0, -1], [1, 0]), 2)
        assert report.order == 4
        assert report.gamma_bound == 48
        assert report.order_divides_gamma and report.nontrivial_mod_3

    def test_order_three(self):
        report = minkowski_check(rows([0, -1], [1, -1]), 2)
        assert report.order == 3 and report.passed

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError):
            minkowski_check(rows([1, 1], [0, 1]), 2)

    def test_order_six(self):
        report = minkowski_check(rows([0, -1], [1, 1]), 2)
        assert report.order == 6 and report.passed

    @pytest.mark.parametrize("m, d", MINKOWSKI_REFUSALS)
    def test_refused_without_a_gamma_power(self, m, d):
        # The gamma(d)-th power of a hyperbolic block has entries of tens of
        # millions of bits, and 3 * I reduces to 0 mod 3, where no power is
        # the identity: each must be refused at once.
        with pytest.raises(ValueError, match="no finite order"):
            minkowski_check(m, d)

    def test_every_finite_order_up_to_the_bound_is_found(self):
        orders = [n for n in range(1, 61) if min_dimension(n) <= 8]
        assert max(orders) == 60
        for n in orders:
            report = minkowski_check(block_diagonal(order_n_blocks(n), 8), 8)
            assert report.order == n and report.passed

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-1, 0, 0, 1, 0, 0, 0, 0],  # x^8 + x^3 - 1
            [-1, 1, 0, 1, 0, 0, 0, 0, 0, 0],  # x^10 + x^3 + x - 1
        ],
    )
    def test_long_walk_mod_3_refused_at_once(self, coeffs):
        # Both polynomials are primitive mod 3, so the first power of the
        # companion matrix that is I mod 3 is the (3^d - 1)-th: a walk to
        # it would take 6,560 and 59,048 products with growing entries.
        # Neither polynomial is cyclotomic, so m is never powered.
        d = len(coeffs)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^matrix has no finite order dividing gamma\({d}\)"):
            minkowski_check(companion(coeffs), d)
        assert time.perf_counter() - start < 0.1

    def test_cyclic_permutation_of_order_seven(self):
        # gamma(7) > 2^64 is beyond factor, so the order must not need it factored.
        cycle = rows(*([1 if i == (j + 1) % 7 else 0 for j in range(7)] for i in range(7)))
        report = minkowski_check(cycle, 7)
        assert report.gamma_bound == gamma(7) > 2**64
        assert report.order == 7 and report.passed

    @pytest.mark.parametrize("d", range(1, 13))
    def test_char_poly_against_sympy(self, d):
        rng = random.Random(d)
        general = [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(d)]
        # The last row is the sum of the others (0 when d = 1), so det = 0.
        singular = general[:-1] + [[sum(col) for col in zip(*general[:-1])] or [0]]
        unimodular, _ = random_unimodular_pair(d, rng, steps=4 * d)
        for m in (rows(*general), rows(*singular), unimodular):
            expected = [int(c) for c in Matrix(m.to_rows()).charpoly().all_coeffs()]
            assert _char_poly(m) == expected
        assert _char_poly(rows(*singular))[-1] == 0

    @pytest.mark.parametrize("n, d", [(60, 8), (2520, 20), (27720, 30), (720720, 47)])
    def test_dense_conjugate_of_order_n(self, n, d):
        # D(n) <= d, so the cyclotomic blocks of order_n_blocks fit; a
        # random base change fills most entries.  At d = 47 a walk of
        # powers would take 720,720 products.
        u, u_inv = random_unimodular_pair(d, random.Random(n), steps=4 * d)
        m = u.mul(block_diagonal(order_n_blocks(n), d)).mul(u_inv)
        assert sum(map(bool, m.entries)) > 3 * d * d // 4
        report = minkowski_check(m, d)
        assert report.order == n and report.passed

    @pytest.mark.parametrize("d", [20, 30, 47])
    def test_random_unimodular_refused_quickly(self, d):
        # A walk of powers up to L(20) = 2,520, with growing entries, takes
        # seconds here.  The characteristic polynomial costs d - 1 products
        # and is not a product of cyclotomic polynomials, so m is never
        # powered.
        m, _ = random_unimodular_pair(d, random.Random(d), steps=4 * d)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^matrix has no finite order dividing gamma\({d}\)"):
            minkowski_check(m, d)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize(
        "m, d",
        [
            # Phi_3^2, with one Jordan block per eigenvalue.
            (companion([1, 2, 3, 2]), 4),
            # Phi_5 Phi_1^4 in a random basis: L = 5, but m^5 != I.
            (block_diagonal([companion([1, 1, 1, 1]), rows([1, 1], [0, 1])], 8), 8),
        ],
    )
    def test_cyclotomic_polynomial_of_infinite_order_refused(self, m, d):
        u, u_inv = random_unimodular_pair(d, random.Random(d), steps=4 * d)
        with pytest.raises(ValueError, match="no finite order"):
            minkowski_check(u.mul(m).mul(u_inv), d)
