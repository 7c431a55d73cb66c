"""Shared builders for the test suite.

The instance registry drives the three-way equivalence tests: every entry
is a verified J-space together with its expected dominance verdict, spanning
levels 0 through 3, commutative and matrix examples, tensor powers, and
deliberately non-dominant controls.
"""

from fractions import Fraction as Q
from math import gcd

import pytest

from tkkwb import (JSpaceRep, matrix_jordan, newton_rep, regular_rep,
                   spin_factor, truncated_poly, zero_rep)
from tkkwb.jordan import JordanAlgebra, jmul
from tkkwb.jspace import doubled_regular_rep, matrix_defining_rep, tensor_rep
from tkkwb.linalg import LabeledSpace, Matrix, RowSpan, _integer_row, unit_vector


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
