"""Brute-force first-cohomology oracle, independent of the library path.

The library computes H^1 from one Smith diagonal, of the coboundary
matrix C, and one trace count: rank T = (sum_g tr A_g) / s for the d x d
norm matrix T = sum_g A_g, which gives the rank of the N x N cocycle
matrix M = s I + C E.  This oracle instead enumerates cocycles
directly from the defining functional equation and reduces modulo
coboundaries by explicit membership tests, so the two implementations
share no linear algebra.  For checking the
library's reduction, cocycle_relation_matrix writes the defining
equation out for every pair of group elements, coboundary_matrix builds
the full C with one block g - 1 for every g != 1 (the library stacks
the blocks of a generating set only), cocycle_matrix builds M and
norm_matrix builds T.  is_valid_action is the reference for the
GLattice constructor: it checks every pair of elements and every
determinant, where the library checks a generating set only.
is_associative is the reference for FiniteGroup's associativity check:
it reads every one of the s^3 triples, where the library reads only the
triples whose first element lies in its generating set.
failed_group_axioms is the reference for the whole constructor: it
searches each element for a two-sided inverse, where the library only
looks for the identity in each row.
permutation_action and norm_one_action are the references for
induced_lattice and norm_one_lattice: they build each action matrix as
nested lists, one entry at a time, from the definitions, where the
library writes a flat entry tuple.

Completeness of the enumeration: if s annihilates a cohomology class
[f], then s f = (g |-> g w - w) for some lattice vector w, and
subtracting the coboundary of round(w / s) leaves a representative
whose values satisfy |f(g)|_inf <= (c + 1) / 2 where c bounds the
max-row-sum norm of the action matrices.  Enumerating generator values
in that box and extending along the group therefore hits every class.

Coboundary membership (h = g.w - w for integral w) is decided exactly,
by one of two solvers chosen per lattice:

* rational: Fraction-based elimination when no nonzero vector is fixed
  by the whole group (unique rational candidate, checked for
  integrality);
* permutation: value propagation along basis orbits when every action
  matrix is a permutation matrix (free integer base point per orbit).

Direct sums split the test blockwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from arithlab.core import IntegerMatrix


def _mat_rows(m):
    return m.to_rows()


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_scale(k, a):
    return tuple(k * x for x in a)


def _mat_vec(rows, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def cocycle_relation_matrix(lattice):
    """Stacked conditions f(gh) - f(g) - g.f(h) = 0 over pairs g, h != 1.

    Its kernel is Z^1 by definition.  Unknowns are the values f(g) for
    g != 1 (f(1) = 0 is forced), laid out in blocks of d coordinates.
    Blocks may coincide (e.g. the pair (g, g)), so coefficients
    accumulate.
    """
    grp, d = lattice.group, lattice.rank
    e = grp.identity
    others = [g for g in grp.elements() if g != e]
    col_of = {g: i for i, g in enumerate(others)}
    ncols = len(others) * d
    rows = []
    for g in others:
        act = lattice.action[g]
        for h in others:
            gh = grp.mul(g, h)
            block = [[0] * ncols for _ in range(d)]
            if gh != e:
                base = col_of[gh] * d
                for i in range(d):
                    block[i][base + i] += 1
            base = col_of[g] * d
            for i in range(d):
                block[i][base + i] -= 1
            base = col_of[h] * d
            for i in range(d):
                for j in range(d):
                    block[i][base + j] -= act[i, j]
            rows.extend(block)
    if not rows:
        return IntegerMatrix.zero(0, ncols)
    return IntegerMatrix.from_rows(rows)


def coboundary_matrix(lattice):
    """C: the map a |-> (g.a - a for every g != 1), one d-row block per g."""
    grp, d = lattice.group, lattice.rank
    rows = []
    for g in grp.elements():
        if g == grp.identity:
            continue
        act = _mat_rows(lattice.action[g])
        for i in range(d):
            rows.append([act[i][j] - (1 if i == j else 0) for j in range(d)])
    if not rows:
        return IntegerMatrix.zero(0, d)
    return IntegerMatrix.from_rows(rows)


def cocycle_matrix(coboundaries, order):
    """M = s I_N + C E for the coboundary matrix C; Z^1 = ker M.

    Entry (i, j) is C[i][j mod d] + s [i == j]: E = [I_d ... I_d] sums
    the d-blocks of f, so (C E f)(g) = (g - 1) sum_h f(h).
    """
    n, d = coboundaries.rows, coboundaries.cols
    return IntegerMatrix(
        n,
        n,
        tuple(
            coboundaries[i, j % d] + (order if i == j else 0)
            for i in range(n)
            for j in range(n)
        ),
    )


def norm_matrix(lattice):
    """T = sum over the group of the action matrices."""
    d = lattice.rank
    total = [[0] * d for _ in range(d)]
    for act in lattice.action:
        for i in range(d):
            for j in range(d):
                total[i][j] += act[i, j]
    return IntegerMatrix(d, d, tuple(x for row in total for x in row))


def _determinant(rows):
    """Exact determinant by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def is_valid_action(group, rank, action):
    """Reference lattice check: every pair of elements, every determinant.

    True when there is one rank x rank matrix per element, the identity
    acts as I, action(g h) = action(g) action(h) for all s^2 pairs, and
    every matrix has determinant +-1.
    """
    mats = [_mat_rows(m) for m in action]
    if len(mats) != group.order:
        return False
    if any(len(m) != rank or any(len(r) != rank for r in m) for m in mats):
        return False
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if mats[group.identity] != ident:
        return False
    for g in group.elements():
        for h in group.elements():
            a, b = mats[g], mats[h]
            prod = [
                [sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank)]
                for i in range(rank)
            ]
            if mats[group.table[g][h]] != prod:
                return False
    return all(abs(_determinant(m)) == 1 for m in mats)


def is_associative(table):
    """(a b) c == a (b c) for all s^3 triples of the table."""
    s = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(s)
        for b in range(s)
        for c in range(s)
    )


def failed_group_axioms(table):
    """The group axioms that a table with a two-sided identity fails.

    A set of ("inverse", g) for each g with no h such that g h = h g = e,
    and "associativity" when some triple of the s^3 has (a b) c != a (b c).
    """
    s = len(table)
    e = next(e for e in range(s) if all(table[e][x] == table[x][e] == x for x in range(s)))
    failed = {
        ("inverse", g)
        for g in range(s)
        if not any(table[g][h] == table[h][g] == e for h in range(s))
    }
    return failed if is_associative(table) else failed | {"associativity"}


def permutation_action(table, subgroup):
    """Z[G/H] with G acting by left translation, as nested-list matrices.

    The cosets g H are ordered by their least elements; column j of the
    matrix of g holds a single 1, in the row of the coset g (g_j H).
    """
    s = len(table)
    found = {frozenset(table[g][h] for h in subgroup) for g in range(s)}
    cosets = sorted(found, key=min)
    where = {c: i for i, c in enumerate(cosets)}
    n = len(cosets)
    mats = []
    for g in range(s):
        m = [[0] * n for _ in range(n)]
        for j, c in enumerate(cosets):
            m[where[frozenset(table[g][x] for x in c)]][j] = 1
        mats.append(m)
    return mats


def norm_one_action(table, identity):
    """Z[G] / Z.N for cyclic G, as nested-list matrices.

    The basis is b_i = image of x^i for i < s - 1, x the least element of
    order s, and b_(s-1) = -(b_0 + ... + b_(s-2)).  x^t sends b_i to
    b_((i + t) mod s), so column i of its matrix is that image.
    """
    s = len(table)

    def powers(x):
        out, y = [identity], table[identity][x]
        while y != identity:
            out.append(y)
            y = table[y][x]
        return out

    x = next(g for g in range(s) if len(powers(g)) == s)
    exponent = {g: t for t, g in enumerate(powers(x))}
    d = s - 1
    mats = []
    for g in range(s):
        m = [[0] * d for _ in range(d)]
        for i in range(d):
            j = (i + exponent[g]) % s
            for k in range(d):
                m[k][i] = 1 if k == j else -1 if j == d else 0
        mats.append(m)
    return mats


def generating_set(group):
    """Greedy small generating set (empty for the trivial group)."""
    gens = []
    span = {group.identity}
    while len(span) < group.order:
        g = min(x for x in group.elements() if x not in span)
        gens.append(g)
        frontier = [group.identity]
        span = {group.identity}
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = group.mul(x, h)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return gens


def membership_rational(lattice, gens):
    """Coboundary test by exact rational solve; needs trivial fixed space."""
    d = lattice.rank
    rows = []
    for g in gens:
        act = _mat_rows(lattice.action[g])
        for i in range(d):
            rows.append([Fraction(act[i][j] - (1 if i == j else 0)) for j in range(d)])

    def test(h_values):
        rhs = []
        for g in gens:
            rhs.extend(Fraction(x) for x in h_values[g])
        # Gaussian elimination on the stacked system.
        a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
        n, m = len(a), d
        pivots = []
        r = 0
        for c in range(m):
            pivot = next((i for i in range(r, n) if a[i][c] != 0), None)
            if pivot is None:
                raise RuntimeError("oracle needs a trivial fixed space")
            a[r], a[pivot] = a[pivot], a[r]
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for i in range(n):
                if i != r and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
        for i in range(r, n):
            if a[i][m] != 0:
                return False
        w = [a[i][m] for i in range(m)]
        if any(x.denominator != 1 for x in w):
            return False
        # Confirm against every generator (the stacked solve already
        # covers them, but the recheck is cheap and direct).
        w_int = tuple(int(x) for x in w)
        for g in gens:
            act = _mat_rows(lattice.action[g])
            if _vec_sub(_mat_vec(act, w_int), w_int) != tuple(h_values[g]):
                return False
        return True

    return test


def membership_permutation(lattice, gens):
    """Coboundary test by orbit propagation; actions must be permutations.

    With pi(j) the image index of basis vector j under a generator, the
    equation h = g.w - w reads h[i] = w[pi^-1(i)] - w[i] coordinatewise,
    so the components of the orbit graph carry w up to one free integer
    per component; membership is pure consistency.
    """
    d = lattice.rank
    perms = {}
    inv_perms = {}
    for g in gens:
        act = _mat_rows(lattice.action[g])
        perm = [None] * d
        for j in range(d):
            ones = [i for i in range(d) if act[i][j] == 1]
            col = [act[i][j] for i in range(d)]
            if len(ones) != 1 or sum(abs(x) for x in col) != 1:
                raise RuntimeError("action is not a permutation lattice")
            perm[j] = ones[0]
        perms[g] = perm
        inv = [None] * d
        for j, i in enumerate(perm):
            inv[i] = j
        inv_perms[g] = inv

    def test(h_values):
        w = [None] * d
        for root in range(d):
            if w[root] is not None:
                continue
            w[root] = 0
            stack = [root]
            while stack:
                j = stack.pop()
                for g in gens:
                    h = h_values[g]
                    # i = pi(j): w[j] = w[pi(j)] + h[pi(j)]
                    i = perms[g][j]
                    val = w[j] - h[i]
                    if w[i] is None:
                        w[i] = val
                        stack.append(i)
                    elif w[i] != val:
                        return False
                    # i = j: w[pi^-1(j)] = w[j] + h[j]
                    pre = inv_perms[g][j]
                    val = w[j] + h[j]
                    if w[pre] is None:
                        w[pre] = val
                        stack.append(pre)
                    elif w[pre] != val:
                        return False
        return True

    return test


def membership_direct_sum(ranks, testers):
    """Blockwise membership for a direct sum with the given block ranks."""

    def test(h_values):
        offset = 0
        for rank, tester in zip(ranks, testers):
            block = {g: v[offset : offset + rank] for g, v in h_values.items()}
            if not tester(block):
                return False
            offset += rank
        return True

    return test


def _extension_matrices(lattice, gens):
    """For each element, integer matrices expressing f(x) from generator values.

    f(x g) = f(x) + x.f(g), walked breadth-first from the identity, so
    ext[x][g] is a d x d block and f(x) = sum_g ext[x][g] u_g.
    """
    grp, d = lattice.group, lattice.rank
    zero = [[0] * d for _ in range(d)]
    ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    ext = {grp.identity: {g: [row[:] for row in zero] for g in gens}}
    frontier = [grp.identity]
    while frontier:
        x = frontier.pop(0)
        act_x = _mat_rows(lattice.action[x])
        for g in gens:
            y = grp.mul(x, g)
            if y in ext:
                continue
            blocks = {}
            for h in gens:
                b = [row[:] for row in ext[x][h]]
                if h == g:
                    for i in range(d):
                        for j in range(d):
                            b[i][j] += act_x[i][j]
                blocks[h] = b
            ext[y] = blocks
            frontier.append(y)
    return ext


def brute_force_h1(lattice, membership_factory):
    """(order, divisor chain) of H^1 by bounded enumeration.

    membership_factory(lattice, gens) must return an exact coboundary
    test for functions given as {generator: value tuple}.
    """
    grp, d = lattice.group, lattice.rank
    gens = generating_set(grp)
    if not gens or d == 0:
        return 1, ()
    is_coboundary = membership_factory(lattice, gens)
    ext = _extension_matrices(lattice, gens)
    c = max(
        max(sum(abs(x) for x in row) for row in _mat_rows(lattice.action[g]))
        for g in grp.elements()
    )
    box = (c + 2) // 2
    k = len(gens)
    survivors = []
    for flat in itertools.product(range(-box, box + 1), repeat=k * d):
        u = {g: flat[i * d : (i + 1) * d] for i, g in enumerate(gens)}
        values = {}
        ok = True
        for x in grp.elements():
            v = (0,) * d
            for g in gens:
                v = _vec_add(v, _mat_vec(ext[x][g], u[g]))
            values[x] = v
        if values[grp.identity] != (0,) * d:
            continue
        for x in grp.elements():
            act_x = _mat_rows(lattice.action[x])
            for y in grp.elements():
                lhs = values[grp.mul(x, y)]
                rhs = _vec_add(values[x], _mat_vec(act_x, values[y]))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            survivors.append({g: values[g] for g in gens})
    # Group survivors into cohomology classes.
    reps = []
    for f in survivors:
        diff_found = False
        for rep in reps:
            delta = {g: _vec_sub(f[g], rep[g]) for g in gens}
            if is_coboundary(delta):
                diff_found = True
                break
        if not diff_found:
            reps.append(f)
    order = len(reps)
    # Element orders inside the class group determine the invariants.
    orders = []
    for rep in reps:
        k_ord = 1
        while True:
            scaled = {g: _vec_scale(k_ord, rep[g]) for g in gens}
            if is_coboundary(scaled):
                break
            k_ord += 1
            if k_ord > order:
                raise RuntimeError("class order exceeds group order")
        orders.append(k_ord)
    return order, _invariants_from_orders(order, sorted(orders))


def _divisor_chains(n):
    """All chains d_1 | d_2 | ... | d_k with product n and each d_i > 1."""
    if n == 1:
        return [()]
    chains = []

    def extend(remaining, chain):
        if remaining == 1:
            chains.append(tuple(chain))
            return
        start = chain[-1] if chain else 2
        for d in range(start, remaining + 1):
            if remaining % d == 0 and (not chain or d % chain[-1] == 0):
                extend(remaining // d, chain + [d])

    extend(n, [])
    return chains


def _element_orders(chain):
    if not chain:
        return [1]
    out = []
    for tup in itertools.product(*(range(d) for d in chain)):
        o = 1
        for a, d in zip(tup, chain):
            step = d // _gcd(a, d)
            o = o * step // _gcd(o, step)
        out.append(o)
    return sorted(out)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a if a else 1


def _invariants_from_orders(order, observed_orders):
    matches = [
        chain
        for chain in _divisor_chains(order)
        if _element_orders(chain) == observed_orders
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"element orders {observed_orders} fit {len(matches)} abelian types"
        )
    return matches[0]
