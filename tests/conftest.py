"""Shared builders for the test suite.

The instance registry drives the three-way equivalence tests: every entry
is a verified J-space together with its expected dominance verdict, spanning
levels 0 through 3, commutative and matrix examples, tensor powers, and
deliberately non-dominant controls.
"""

from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from tkkwb import (JSpaceRep, matrix_jordan, newton_rep, regular_rep,
                   spin_factor, truncated_poly, zero_rep)
from tkkwb.jordan import JordanAlgebra, jmul, jpower, table_product, validate
from tkkwb.jspace import doubled_regular_rep, level, matrix_defining_rep, tensor_rep
from tkkwb.linalg import (LabeledSpace, Matrix, RowSpan, _integer_row, add_operator, combine,
                          integer_rows, integer_vector, operator_product, unit_vector)
from tkkwb.report import Report
from tkkwb.symfun import dominance_coeffs
from tkkwb.tkk import _asymmetric


def small_vector(rng, n, num_bound, den_bound):
    """n rationals with numerators in -num_bound..num_bound over denominators
    in 1..den_bound, drawn as linalg.random_vector draws its wider set: the
    smaller coordinates keep the exact sums of the tests short."""
    return [Q(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound)) for _ in range(n)]


def column(m, j):
    """Column j of a dense matrix, as a list."""
    return [row[j] for row in m.data]


def dense_commutator(a, b):
    """The reference commutator a b - b a of two dense matrices."""
    return a @ b + (b @ a).scale(-1)


def canonical(op):
    """Whether a sparse operator has no empty row and no zero entry, the form
    in which == decides equality."""
    return all(row and all(row.values()) for row in op.values())


def sparse(m):
    """A dense matrix as a sparse operator {row: {col: entry}} with no zero
    entry and no empty row: the canonical form of every computed operator,
    so that == compares it with one."""
    return {r: {s: x for s, x in enumerate(row) if x}
            for r, row in enumerate(m.data) if any(row)}


def dense(op, m):
    """A sparse operator as an m x m dense matrix (zeros as Fraction 0)."""
    return Matrix(m, m, [[op.get(r, {}).get(s, Q(0)) for s in range(m)] for r in range(m)])


def matrix_of_columns(cols, rows):
    """Sparse columns {row: entry}, such as center_map's phi, as the dense
    rows x len(cols) matrix (zeros as Fraction 0)."""
    return Matrix(rows, len(cols), [[col.get(r, Q(0)) for col in cols] for r in range(rows)])


def matrix_of_rows(rows, cols):
    """Sparse rows {column: entry}, such as center_map's kernel, as the dense
    len(rows) x cols matrix (zeros as Fraction 0)."""
    return Matrix(len(rows), cols, [[row.get(c, Q(0)) for c in range(cols)] for row in rows])


class ReferenceRowSpan(RowSpan):
    """RowSpan whose reduction divides the working vector by the gcd of its
    entries after every pivot step and always takes the gcd of the pivot
    pair: the reference that RowSpan, which divides out the gcd once per
    reduction, must match verdict for verdict and row for row."""

    def _reduce(self, vec):
        v = _integer_row(vec)
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                return v, p
            a, b = row[p], v[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                v = {j: a * x for j, x in v.items()}
            for j, y in row.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
            if v:
                g = gcd(*v.values())
                if g != 1:
                    v = {j: x // g for j, x in v.items()}
        return v, None


def symmetric_words_jordan(r, D):
    """The symmetric elements of the free associative algebra on r letters
    under word reversal, modulo words longer than D: a graded Jordan algebra
    with nonzero brace spaces in several degrees.

    Basis b_w = (w + w*)/2, one per reversal class (w the least of w, w*),
    in (length, word) order, with degree the length.  The product is
    (b_u b_v + b_v b_u)/2, read back as the coefficient of each class's
    word, doubled unless the word is a palindrome.
    """
    words = [()]
    for _ in range(D):
        words += [w + (x,) for w in words if len(w) == len(words[-1]) for x in range(r)]
    reps = sorted({min(w, w[::-1]) for w in words}, key=lambda w: (len(w), w))
    index = {w: k for k, w in enumerate(reps)}

    def sym(w):
        return {w: Q(1)} if w == w[::-1] else {w: Q(1, 2), w[::-1]: Q(1, 2)}

    table = [[{} for _ in reps] for _ in reps]
    for i, u in enumerate(reps):
        for j, v in enumerate(reps):
            prod = {}
            for a, x in sym(u).items():
                for b, y in sym(v).items():
                    for w in (a + b, b + a):
                        if len(w) <= D:
                            prod[w] = prod.get(w, 0) + x * y / 2
            table[i][j] = {index[w]: c if w == w[::-1] else 2 * c
                           for w, c in prod.items() if w in index and c}
    labels = tuple("".join("xyz"[x] for x in w) or "1" for w in reps)
    space = LabeledSpace(labels, tuple(len(w) for w in reps))
    return JordanAlgebra(space, unit_vector(len(reps), 0), table, f"J({r}) to degree {D}")


def L_op(J, a):
    """The reference matrix of the multiplication operator b -> a b."""
    cols = [jmul(J, a, unit_vector(J.dim, j)) for j in range(J.dim)]
    return Matrix(J.dim, J.dim, [[cols[j][i] for j in range(J.dim)] for i in range(J.dim)])


def dense_bracket(g, u, v):
    """The reference bracket of two dense coordinate vectors of a TKK
    algebra, summed over every pair of their nonzero entries."""
    out = [0] * g.dim
    for p, up in enumerate(u):
        for q, vq in enumerate(v):
            if up and vq:
                for r, cr in g.bracket_basis(p, q).items():
                    out[r] = out[r] + up * vq * cr
    return out


def prods_validate(J):
    """The reference of jordan.validate that makes the products (e_i e_j) e_b
    once per call and sums both sides of the polarized identity from them,
    a table row at a time, on the integer form J.products, over every
    sorted triple.  Its report must equal validate's whole report."""
    lib = validate(J)
    rep = Report(lib.title, lib.items[:3])
    d = J.dim
    T = J.products
    prods = {(i, j): [table_product(T, T[i][j], {b: 1}) for b in range(d)]
             for i, j in combinations_with_replacement(range(d), 2)}

    def polarized(xyz):
        x, y, z = xyz
        diff = {}
        for u, w in ((prods[x, y], z), (prods[x, z], y), (prods[y, z], x)):
            for b in range(d):
                base = b * d
                for k, c in u[b].items():
                    for t, e in T[k][w].items():
                        diff[base + t] = diff.get(base + t, 0) + c * e
                for j, c in T[b][w].items():
                    for t, e in u[j].items():
                        diff[base + t] = diff.get(base + t, 0) - c * e
        failing = [key for key, c in diff.items() if c]
        if failing:
            return f"polarized identity fails at (x,y,z,b)=({x},{y},{z},{min(failing) // d})"

    rep.check("jordan identity (polarized, all basis 4-tuples)",
              combinations_with_replacement(range(d), 3), polarized)
    return rep


def set_table(g, table):
    """Give the TKK algebra g the bracket table `table`, {(p, q): {t: c}}
    with Fraction or int c, in the form g stores it: ints over the lcm of
    the denominators, with no zero entry and no zero bracket, and no kept
    antisymmetry verdict.  The one way a test writes a corrupted table, as
    g.table is read-only.  Returns g."""
    g.den, rows = integer_rows(table.values())
    g.brackets = {pq: row for pq, row in zip(table, rows) if row}
    g._antisymmetric = None
    return g


def set_jordan_table(J, table):
    """Give the Jordan algebra J the product table `table`, [i][j] -> {k: c}
    with Fraction or int c, through its constructor: its integer form and
    commutativity are made afresh from it, and no kept verdict remains
    (`_validated` is None).  The one way a test writes a corrupted Jordan
    table.  Returns J."""
    J.__init__(J.space, J.unit, table, J.name)
    return J


def pair_fractions(g):
    """The pair coordinates of a BraceSpace or TKKAlgebra as Fractions:
    {(i, j): {k: x / pair_den}} from its ints over pair_den."""
    return {pair: {k: Q(x, g.pair_den) for k, x in col.items()}
            for pair, col in g.pair_coords.items()}


def every_r_validate_lie(g):
    """The reference of tkk.validate_lie whose full Jacobi sweep takes one
    case per pair (p, q) and sums the [r, [p, q]] term by a loop over every
    r of the swept range, looking up [r, s] for each s in [p, q].  Its
    report must equal validate_lie's whole report."""
    rep = Report(f"lie axioms for {g.kind}({g.jordan.name})")
    n, lab = g.dim, g.labels
    itable = g.brackets
    ib = [{} for _ in range(n)]
    left = [set() for _ in range(n)]
    for (p, q), out in itable.items():
        ib[p][q] = out
        left[q].add(p)

    def asymmetric(pq):
        p, q = pq
        if _asymmetric(itable, p, q):
            return f"[{lab[p]},{lab[q]}] != -[{lab[q]},{lab[p]}]"

    stored_pairs = sorted({(min(p, q), max(p, q)) for p, q in itable})
    antisymmetric = rep.check("antisymmetry (all pairs)", stored_pairs, asymmetric)

    def jacobi_fails(p, q, lo):
        ib_p, ib_q = ib[p], ib[q]
        acc = {}

        def add(r, bc, ib_a):
            base = r * n
            for s, cs in bc.items():
                for t, c in ib_a.get(s, {}).items():
                    acc[base + t] = acc.get(base + t, 0) + cs * c

        for r, qr in ib_q.items():
            if lo <= r:
                add(r, qr, ib_p)
        for r in left[p]:
            if lo <= r:
                add(r, ib[r][p], ib_q)
        pq = ib_p.get(q)
        if pq:
            for r in range(lo, n):
                add(r, pq, ib[r])
        failing = [key for key, c in acc.items() if c]
        if failing:
            return f"triple ({lab[p]},{lab[q]},{lab[min(failing) // n]})"

    pairs = combinations(range(n), 2) if antisymmetric else product(range(n), repeat=2)
    rep.check("jacobi identity (all basis triples)", pairs,
              lambda pq: jacobi_fails(*pq, pq[1] + 1 if antisymmetric else 0))

    def off_grade(item):
        (p, q), out = item
        for t, c in out.items():
            if c and (g.weights[t] != g.weights[p] + g.weights[q] or
                      g.degrees[t] != g.degrees[p] + g.degrees[q]):
                return f"[{lab[p]},{lab[q]}] leaves the graded component"

    rep.check("bracket adds weights and degrees", g.table.items(), off_grade)
    return rep


def symbolic_dominance_detail(rep, witness):
    """The detail that symbolic `dominance_check` gives its item when
    efr_vanishes returns witness: the monomial x^mu in J's labels and the
    module column i of witness = (mu, i), or the mode when it is None."""
    if witness is None:
        return "mode=symbolic"
    mu, i = witness
    labels = rep.jordan.space.labels
    name = "*".join(labels[k] + (f"^{e}" if e > 1 else "") for k, e in sorted(Counter(mu).items()))
    return f"witness {name}, column {i}"


def least_poly_witness(op):
    """The least (mu, i) at which column i of an operator with Poly entries
    has a nonzero coefficient of x^mu, mu read as a sorted multiset of basis
    indices; None when the operator is zero."""
    return min(((tuple(k for k, e in enumerate(exp) for _ in range(e)), i)
                for row in op.values() for i, entry in row.items() for exp in entry.terms),
               default=None)


def fraction_powers_dominance_operator(rep, a):
    """The reference of jspace.dominance_operator that takes the powers of
    the integer copy of a under J's Fraction table (`jpower`) and scales
    each partition's product back by a Fraction."""
    n = level(rep)
    A, a_int = integer_vector(a)
    rhos = {k: combine(rep.rho, {i: c for i, c in enumerate(jpower(rep.jordan, a_int, k)) if c})
            for k in range(1, n + 2)}
    acc = {}
    for sigma, c in dominance_coeffs(n).items():
        prod = rhos[sigma[0]]
        for part in sigma[1:]:
            prod = operator_product(prod, rhos[part])
        add_operator(acc, prod, Q(c, rep.den ** len(sigma) * A ** (n + 1)))
    return acc


def dense_rho(rep):
    """rho of a rep as one dense matrix per algebra basis vector, each
    rep.rho[i] / rep.den: the reference form of the tests."""
    return [dense(op, rep.mdim).scale(Q(1, rep.den)) for op in rep.rho]


def dense_rho_of(rep, a):
    """rep.rho_of(a) as a dense matrix."""
    return dense(rep.rho_of(a), rep.mdim)


def matrix_rep(J, module, mats, name=""):
    """The JSpaceRep with rho(e_i) = mats[i], for dense matrices."""
    return JSpaceRep(J, module, [sparse(m) for m in mats], name=name)


def one_gen_rep(n, T, name):
    """rho(1) = n id, rho(t) = T over the trivially graded dual numbers.

    A J-space for every matrix T: the image lies in the commutative span
    of id and T, and all inner derivations of the algebra vanish.
    """
    J = truncated_poly(1, graded=False)
    m = T.rows
    module = LabeledSpace(tuple(f"v{i}" for i in range(m)), (0,) * m)
    return matrix_rep(J, module, [Matrix.identity(m).scale(Q(n)), T], name=name)


def noncommuting_rep():
    """Noncommuting images over an algebra whose brace space is zero: the
    quarter-commutators cannot descend to the quotient, so the weight-zero
    extension fails its well-definedness item."""
    J = truncated_poly(2, graded=False)
    A = Matrix(2, 2, [[Q(0), Q(1)], [Q(0), Q(0)]])
    B = Matrix(2, 2, [[Q(0), Q(0)], [Q(1), Q(0)]])
    return matrix_rep(J, LabeledSpace(("a", "b"), (0, 0)), [Matrix.identity(2), A, B],
                      name="noncommuting")


def projection_matrix():
    return Matrix(2, 2, [[Q(1), Q(0)], [Q(0), Q(0)]])


def nilpotent_matrix():
    return Matrix(2, 2, [[Q(0), Q(1)], [Q(0), Q(0)]])


def jordan_block_3():
    return Matrix(3, 3, [[Q(0), Q(1), Q(0)],
                         [Q(0), Q(0), Q(1)],
                         [Q(0), Q(0), Q(0)]])


def equivalence_instances():
    """(name, rep, expected_dominant) covering levels 0-3, dims <= 30."""
    dr2 = matrix_defining_rep(2)
    t2 = tensor_rep(dr2, dr2, name="defining-rep tensor square")
    t3 = tensor_rep(t2, dr2, name="defining-rep tensor cube")
    out = [
        ("zero rep, truncated poly", zero_rep(truncated_poly(2)), True),
        ("zero rep, matrix algebra", zero_rep(matrix_jordan(2)), True),
        ("zero rep, spin factor",
         zero_rep(spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])), True),
        ("level-0 projection control", one_gen_rep(0, projection_matrix(),
                                                   "level-0 control"), False),
        ("regular rep D=1", regular_rep(truncated_poly(1)), True),
        ("regular rep D=2", regular_rep(truncated_poly(2)), True),
        ("regular rep D=3", regular_rep(truncated_poly(3)), True),
        ("regular rep D=4", regular_rep(truncated_poly(4)), True),
        ("regular rep D=5", regular_rep(truncated_poly(5)), True),
        ("defining rep M2", dr2, True),
        ("defining rep M3", matrix_defining_rep(3), True),
        ("level-1 projection control", one_gen_rep(1, projection_matrix(),
                                                   "level-1 control"), False),
        ("level-1 nilpotent", one_gen_rep(1, nilpotent_matrix(),
                                          "level-1 nilpotent"), True),
        ("newton rep (2,2)", newton_rep(2, 2), True),
        ("newton rep (2,3)", newton_rep(2, 3), True),
        ("newton rep (2,4)", newton_rep(2, 4), True),
        ("tensor square of defining rep", t2, True),
        ("doubled regular over matrix algebra",
         doubled_regular_rep(matrix_jordan(2)), True),
        ("doubled regular over spin factor",
         doubled_regular_rep(spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])), True),
        ("level-2 projection control", one_gen_rep(2, projection_matrix(),
                                                   "level-2 control"), False),
        ("level-2 jordan block", one_gen_rep(2, jordan_block_3(),
                                             "level-2 jordan block"), True),
        ("newton rep (3,2)", newton_rep(3, 2), True),
        ("newton rep (3,3)", newton_rep(3, 3), True),
        ("tensor cube of defining rep", t3, True),
        ("level-3 projection control", one_gen_rep(3, projection_matrix(),
                                                   "level-3 control"), False),
    ]
    return out


@pytest.fixture(scope="session")
def instances():
    return equivalence_instances()
