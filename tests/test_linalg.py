import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceRowSpan
from tkkwb.linalg import (LabeledSpace, Matrix, RowSpan, add_into, columns, int_if_integral,
                          integer_operators, integer_rows, integer_vector, quotient, rref)
from tkkwb.multipoly import Poly


def M(rows):
    return Matrix(len(rows), len(rows[0]), [[Q(x) for x in r] for r in rows])


def test_rref_identity():
    rank, red, pivots = rref(Matrix.identity(2))
    assert rank == 2
    assert red == Matrix.identity(2)
    assert pivots == [0, 1]


def test_rref_zero():
    z = Matrix.zeros(3, 3)
    rank, red, pivots = rref(z)
    assert rank == 0 and red == z and pivots == []


def test_rref_proportional_rows():
    rank, red, pivots = rref(M([[1, 2], [2, 4]]))
    assert rank == 1
    assert red == M([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_idempotent_random():
    rng = random.Random(1)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = M([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        rank, red, piv = rref(m)
        rank2, red2, piv2 = rref(red)
        assert red2 == red and rank2 == rank and piv2 == piv


def span_of(m):
    span = RowSpan(m.cols)
    for r in range(m.rows):
        span.insert(m.row(r))
    return span


def kernel(m):
    """Basis of the right null space of m, one dense vector per row: the
    transposed quotient coordinates of the row span of m."""
    reps, coords = quotient(span_of(m))
    return [[col.get(k, 0) for col in coords] for k in range(len(reps))]


def quotient_class(coords, vec):
    """The sparse quotient class of a dense vector."""
    out = {}
    for j, x in enumerate(vec):
        add_into(out, coords[j], x)
    return out


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3)) == []


def test_kernel_difference():
    k = kernel(M([[1, -1]]))
    assert len(k) == 1
    v = k[0]
    assert v[0] == v[1] != 0


def test_kernel_zero_matrix():
    assert len(kernel(Matrix.zeros(2, 3))) == 3


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        rank, _, _ = rref(m)
        ker = kernel(m)
        assert rank + len(ker) == cols
        # kernel rows really are killed
        for v in ker:
            assert all(not x for x in m.apply(v))


def test_quotient_axis():
    reps, coords = quotient(span_of(M([[1, 0, 0]])))
    assert reps == (1, 2)
    assert coords == [{}, {0: 1}, {1: 1}]


def test_quotient_full_space():
    reps, coords = quotient(span_of(Matrix.identity(2)))
    assert reps == ()
    assert coords == [{}, {}]


def test_quotient_diagonal_line():
    # derived by hand: subspace (1,1) in k^2, canonical coordinates send
    # (x, y) to y - x
    reps, coords = quotient(span_of(M([[1, 1]])))
    assert reps == (1,)
    assert quotient_class(coords, [Q(3), Q(5)]) == {0: 2}
    assert quotient_class(coords, [Q(1), Q(1)]) == {}


def test_quotient_section_identity():
    rng = random.Random(3)
    for _ in range(20):
        amb = rng.randint(1, 6)
        k = rng.randint(0, amb)
        sub = M([[rng.randint(-3, 3) for _ in range(amb)] for _ in range(max(k, 1))])
        reps, coords = quotient(span_of(sub))
        # the class of a representative is the corresponding unit vector
        for pos, j in enumerate(reps):
            assert coords[j] == {pos: 1}
        # every subspace row has the zero class
        for r in range(sub.rows):
            assert quotient_class(coords, sub.row(r)) == {}


def test_rowspan_insert_and_contains():
    span = RowSpan(3)
    assert span.insert([Q(1), Q(1), Q(0)])
    assert not span.insert([Q(2), Q(2), Q(0)])
    assert span.insert([Q(0), Q(0), Q(5)])
    assert span.dim == 2
    assert span.contains([Q(3), Q(3), Q(-1)])
    assert not span.contains([Q(1), Q(0), Q(0)])


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _rows_and_vector(draw):
    cols = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Q(0)), _fractions), min_size=cols, max_size=cols)
    return draw(st.lists(row, max_size=5)), draw(row)


@settings(deadline=None)
@given(_rows_and_vector())
def test_rowspan_agrees_with_rref(rows_and_vector):
    rows, v = rows_and_vector
    cols = len(v)
    dense, sparse = RowSpan(cols), RowSpan(cols)
    for r in rows:
        dense.insert(r)
        sparse.insert({j: x for j, x in enumerate(r) if x})
    rank, red, pivots = rref(Matrix(len(rows), cols, rows))
    assert dense.dim == sparse.dim == rank
    # the canonical RREF, densified in pivot order, is the dense one
    for span in (dense, sparse):
        assert list(span.reduced()) == pivots
        rows_out = [[row.get(j, 0) for j in range(cols)] for row in span.reduced().values()]
        assert Matrix(rank, cols, rows_out) == Matrix(rank, cols, red.data[:rank])
    grown, _, _ = rref(Matrix(len(rows) + 1, cols, rows + [v]))
    assert dense.contains(v) == sparse.contains(v) == (grown == rank)


_ints = st.integers(-6, 6)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(_ints, min_size=cols, max_size=cols), max_size=6)))
def test_rowspan_rows_do_not_depend_on_the_input_form(rows):
    # int dicts (zeros kept in, to be dropped) are taken unscaled, Fraction
    # dicts and dense lists are scaled; all three must store the same rows,
    # and an int dict must not be changed by the reduction that reads it
    cols = len(rows[0]) if rows else 1
    spans = [RowSpan(cols) for _ in range(3)]
    for r in rows:
        as_ints = dict(enumerate(r))
        kept = dict(as_ints)
        accepted = {spans[0].insert(as_ints),
                    spans[1].insert({j: Q(x) for j, x in enumerate(r) if x}),
                    spans[2].insert([Q(x) for x in r])}
        assert len(accepted) == 1
        assert as_ints == kept
    assert spans[0].rows == spans[1].rows == spans[2].rows
    assert all(type(x) is int for row in spans[0].rows.values() for x in row.values())


@st.composite
def _scaled_rows(draw):
    """(cols, rows, probes): dense Fraction lists and int dicts (zeros kept)
    over cols columns, each a random integer row times a content of 2 to 6
    over a denominator of 1 to 4, so that pivot entries other than 1 and
    contents above 1 are common."""
    cols = draw(st.integers(1, 6))

    def row():
        entries = draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
        content, den = draw(st.integers(2, 6)), draw(st.integers(1, 4))
        if den == 1:
            return {j: content * x for j, x in enumerate(entries)}
        return [Q(content * x, den) for x in entries]

    rows = [row() for _ in range(draw(st.integers(0, 7)))]
    return cols, rows, [row() for _ in range(3)]


@settings(deadline=None, max_examples=200)
@given(_scaled_rows())
def test_rowspan_matches_the_per_step_gcd_reference(case):
    # the gcd is divided out once per reduction, not after every step: the
    # reduction fixes its result only up to a positive scale, so every
    # verdict and every stored row, in its key order, is the reference's
    cols, rows, probes = case
    span, ref = RowSpan(cols), ReferenceRowSpan(cols)
    for r in rows:
        assert span.insert(r) == ref.insert(r)
    assert span.dim == ref.dim
    assert [(p, list(row.items())) for p, row in span.rows.items()] == \
        [(p, list(row.items())) for p, row in ref.rows.items()]
    for v in probes + rows:
        assert span.contains(v) == ref.contains(v)


def _naive_matmul(a, b):
    """The textbook triple loop: sum over k of the nonzero products, in
    increasing k, starting from the int 0."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                if a.data[i][k] and b.data[k][j]:
                    acc = acc + a.data[i][k] * b.data[k][j]
            row.append(acc)
        out.append(row)
    return out


@st.composite
def _sparse_factors(draw):
    m, k, n = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), _fractions)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return Matrix(m, k, a), Matrix(k, n, b)


@settings(deadline=None)
@given(_sparse_factors())
def test_matmul_agrees_with_triple_loop(factors):
    a, b = factors
    prod, ref = a @ b, _naive_matmul(a, b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod == Matrix(a.rows, b.cols, ref)
    # an entry with no nonzero product stays the int 0, as in the triple loop
    assert [[type(x) for x in row] for row in prod.data] == \
        [[type(x) for x in row] for row in ref]


def test_matmul_zero_rows_columns_and_polys():
    a = M([[0, 0, 0], [1, 0, 2]])
    b = M([[0, 3], [5, 0], [0, 0]])
    prod = a @ b
    assert prod == M([[0, 0], [0, 3]])
    assert prod.data[0] == [0, 0] and all(type(x) is int for x in prod.data[0])
    assert type(prod.data[1][0]) is int and type(prod.data[1][1]) is Q
    x, y = Poly.variables(2)
    p = Matrix(2, 2, [[x, 0], [y, x + y]])
    q = Matrix(2, 3, [[1, y, 0], [0, x, Q(1, 2)]])
    poly_prod = p @ q
    assert poly_prod == Matrix(2, 3, _naive_matmul(p, q))
    assert poly_prod == Matrix(2, 3, [[x, x * y, 0], [y, y * y + x * (x + y), (x + y) * Q(1, 2)]])
    assert type(poly_prod.data[0][2]) is int


def test_matrix_ops():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert a + b + b.scale(-1) == a
    assert a.scale(Q(2)) == M([[2, 4], [6, 8]])
    assert a.transpose().transpose() == a
    assert a.trace() == 5


def test_integer_operators_share_one_denominator():
    # zero entries and empty rows go; rows and columns come out sorted
    ops = [{1: {1: Q(1, 2), 0: Q(0)}, 0: {}}, {2: {0: Q(2, 3)}}, {}]
    den, out = integer_operators(ops)
    assert den == 6
    assert out == [{1: {1: 3}}, {2: {0: 4}}, {}]
    assert all(type(c) is int for op in out for row in op.values() for c in row.values())
    den, out = integer_operators([{3: {2: 5, 0: -1}, 1: {0: 2}}])
    assert den == 1 and [list(out[0]), list(out[0][3])] == [[1, 3], [0, 2]]


def test_integer_rows_scale_by_one_lcm():
    # mixed ints and Fractions, zero entries of either type dropped, keys
    # (any hashable) kept in their order, every entry an int
    den, out = integer_rows([{"b": Q(1, 2), "a": 3, "z": 0}, {(1, 2): Q(-2, 3), 0: Q(0)}, {}])
    assert den == 6
    assert out == [{"b": 3, "a": 18}, {(1, 2): -4}, {}]
    assert list(out[0]) == ["b", "a"]
    assert all(type(c) is int for row in out for c in row.values())
    # a generator is read once; ints only give den 1 and equal rows, and no
    # entry at all gives den 1
    den, out = integer_rows(row for row in ({5: 2, 1: -7},))
    assert (den, out) == (1, [{5: 2, 1: -7}]) and list(out[0]) == [5, 1]
    assert integer_rows([]) == (1, [])
    assert integer_rows([{}, {3: 0}]) == (1, [{}, {}])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.dictionaries(st.integers(0, 6), st.fractions(max_denominator=9)), max_size=4))
def test_integer_rows_are_the_least_integer_multiple(rows):
    den, out = integer_rows(rows)
    assert out == [{k: den * x for k, x in row.items() if x} for row in rows]
    # no smaller positive multiple makes every entry an integer
    assert all(any((d * x).denominator != 1 for row in rows for x in row.values())
               for d in range(1, den))


def test_integer_vector_clears_every_denominator():
    # ints, Fractions and zeros of either type: a list of ints, zeros kept
    A, ints = integer_vector([Q(1, 2), 3, 0, Q(-2, 3), Q(0)])
    assert (A, ints) == (6, [3, 18, 0, -4, 0])
    assert all(type(c) is int for c in ints)
    assert integer_vector([Q(4, 2), -5]) == (1, [2, -5])
    # the all-zero and the empty vector are their own copies over 1
    assert integer_vector([Q(0), 0, Q(0)]) == (1, [0, 0, 0])
    assert integer_vector([]) == (1, [])


def test_integer_vector_passes_polynomials_through():
    a = Poly.variables(3)
    assert integer_vector(a) == (1, a) and integer_vector(a)[1] is a
    mixed = [Q(1, 2), Poly.variable(2, 1)]
    assert integer_vector(mixed)[1] is mixed


@settings(deadline=None, max_examples=50)
@given(st.lists(st.fractions(max_denominator=12) | st.integers(-20, 20), max_size=6))
def test_integer_vector_is_the_least_integer_multiple(a):
    A, ints = integer_vector(a)
    assert ints == [A * x for x in a] and all(type(c) is int for c in ints)
    assert A >= 1 and all(any((d * x).denominator != 1 for x in a) for d in range(1, A))


def test_int_if_integral():
    assert [(type(c), c) for c in map(int_if_integral, [Q(4, 2), Q(1, 2), 3, Q(0)])] == \
        [(int, 2), (Q, Q(1, 2)), (int, 3), (int, 0)]
    x = Poly.variable(1, 0)
    assert int_if_integral(x) is x


def test_labeled_space_validation():
    with pytest.raises(ValueError):
        LabeledSpace(("a", "a"), (0, 0))
    with pytest.raises(ValueError):
        LabeledSpace(("a", "b"), (0,))
    s = LabeledSpace(("a", "b"), (0, 1))
    assert s.dim == 2 and s.degrees.count(1) == 1


def test_poly_arithmetic():
    x, y = Poly.variables(2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x - 1) == x * x - 1
    assert p.evaluate([Q(2), Q(3)]) == -5
    assert (x + y) ** 3 == x**3 + 3 * x * x * y + 3 * x * y * y + y**3
    assert not (p - p)
    assert p.degree() == 2


def test_columns_rescale_an_integer_operator_exactly():
    op = {0: {1: 6, 2: -3}, 2: {1: 9}}
    assert columns(op, 2) == {1: {0: 12, 2: 18}, 2: {0: -6}}
    got = columns(op, Q(2, 3))
    assert got == {1: {0: 4, 2: 6}, 2: {0: -2}}
    assert all(type(x) is int for col in got.values() for x in col.values())
    with pytest.raises(ArithmeticError):
        columns(op, Q(1, 2))
