import json
import random
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import L_op, column, dense_commutator
from tkkwb.jordan import (BUILTIN_FAMILIES, InputError, JordanAlgebra, algebra_from_dict,
                          algebra_to_dict, builtin, derivation_column, jmul,
                          jpower, matrix_jordan, spin_factor,
                          special_from_associative, table_product, truncated_poly,
                          validate)
from tkkwb.linalg import (LabeledSpace, Matrix, add_into, dense_vector, q_str, random_vector,
                          zero_vector)


def basis(n, i):
    v = zero_vector(n)
    v[i] = Q(1)
    return v


def all_builtins():
    return [truncated_poly(3), matrix_jordan(2),
            spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])]


def test_truncated_poly_validates():
    assert validate(truncated_poly(3)).ok
    assert validate(truncated_poly(0)).ok
    assert truncated_poly(0).dim == 1


def test_matrix_jordan_validates():
    J = matrix_jordan(2)
    assert J.dim == 4
    assert validate(J).ok
    # unit acts as identity
    for i in range(4):
        assert jmul(J, J.unit, basis(4, i)) == basis(4, i)


def test_spin_factor_validates():
    J = spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])
    assert validate(J).ok
    # v * v = <v,v> 1 for a unit vector
    v = basis(J.dim, 1)
    assert jmul(J, v, v) == list(J.unit)


def test_spin_factor_rejects_asymmetric_gram():
    with pytest.raises(InputError):
        spin_factor([[Q(0), Q(1)], [Q(2), Q(0)]])


def test_validate_takes_only_the_algebra():
    # the identity is decided on all basis 4-tuples of every algebra, so
    # there is no seed to pass
    with pytest.raises(TypeError):
        validate(truncated_poly(2), seed=0)


def test_matrix_labels_are_distinct_at_every_size():
    # up to size 9 the labels are E11, E12, ...; from 10 on a comma
    # separates the indices, since E1,11 and E11,1 would both read E111
    assert matrix_jordan(2).space.labels == ("E11", "E12", "E21", "E22")
    assert matrix_jordan(9).space.labels[-1] == "E99"
    assert matrix_jordan(10).space.labels[:2] == ("E1,1", "E1,2")
    for m in (10, 11, 12):
        labels = matrix_jordan(m).space.labels
        assert len(set(labels)) == m * m
    assert (labels[10], labels[12 * 10]) == ("E1,11", "E11,1")


def test_corrupted_table_invalid():
    J = truncated_poly(2)
    table = [[dict(J.table[i][j]) for j in range(3)] for i in range(3)]
    table[1][1] = {1: Q(1)}  # t*t := t, breaking degree additivity
    bad = JordanAlgebra(J.space, J.unit, table, name="corrupted")
    rep = validate(bad)
    assert not rep.ok
    assert rep.first_failure() is not None


def test_jmul_examples():
    J = truncated_poly(3)
    t, t2, t3 = basis(4, 1), basis(4, 2), basis(4, 3)
    assert jmul(J, t, t2) == t3
    assert jmul(J, t2, t2) == zero_vector(4)  # degree overflow
    assert jmul(J, J.unit, t2) == t2


def test_jpower_examples():
    J = truncated_poly(5)
    t = basis(6, 1)
    assert jpower(J, t, 0) == list(J.unit)
    assert jpower(J, t, 2) == basis(6, 2)
    J2 = truncated_poly(2)
    one_plus_t = [Q(1), Q(1), Q(0)]
    assert jpower(J2, one_plus_t, 2) == [Q(1), Q(2), Q(1)]


def test_L_op_examples():
    J = truncated_poly(2)
    assert L_op(J, J.unit) == Matrix.identity(3)
    t = basis(3, 1)
    lt = L_op(J, t)
    # shift: 1 -> t -> t^2 -> 0
    assert lt.apply(basis(3, 0)) == basis(3, 1)
    assert lt.apply(basis(3, 1)) == basis(3, 2)
    assert lt.apply(basis(3, 2)) == zero_vector(3)
    assert L_op(J, [Q(0), Q(2), Q(0)]) == lt.scale(Q(2))


def dense_inner_derivation(J, a, b):
    """The reference [L_a, L_b] as a dense matrix product."""
    return dense_commutator(L_op(J, a), L_op(J, b))


def test_inner_derivation_basic():
    J = matrix_jordan(2)
    a = random_vector(random.Random(0), 4)
    assert dense_inner_derivation(J, a, a) == Matrix.zeros(4, 4)
    b = random_vector(random.Random(1), 4)
    assert dense_inner_derivation(J, list(J.unit), b) == Matrix.zeros(4, 4)
    # commutative associative: all derivations vanish
    Jt = truncated_poly(4)
    x = random_vector(random.Random(2), 5)
    y = random_vector(random.Random(3), 5)
    assert dense_inner_derivation(Jt, x, y) == Matrix.zeros(5, 5)


@pytest.mark.parametrize("J", [truncated_poly(3), truncated_poly(4, graded=False),
                               matrix_jordan(1), matrix_jordan(2), matrix_jordan(3),
                               builtin("spin-factor", dim=0), builtin("spin-factor", dim=3),
                               spin_factor([[Q(1), Q(2)], [Q(2), Q(4)]])],
                         ids=lambda J: J.name)
def test_derivation_column_is_a_column_of_the_dense_commutator(J):
    d = J.dim
    for i in range(d):
        for j in range(d):
            der = dense_inner_derivation(J, basis(d, i), basis(d, j))
            for k in range(d):
                assert dense_vector(d, derivation_column(J.table, i, j, k)) == column(der, k)


def test_inner_derivation_leibniz():
    for J in all_builtins():
        d = J.dim
        for i in range(d):
            for j in range(d):
                def der(v):
                    out = {}
                    for k, c in enumerate(v):
                        if c:
                            add_into(out, derivation_column(J.table, i, j, k), c)
                    return dense_vector(d, out)

                for u in range(d):
                    for v in range(d):
                        uv = jmul(J, basis(d, u), basis(d, v))
                        lhs = der(uv)
                        rhs = [x + y for x, y in zip(
                            jmul(J, der(basis(d, u)), basis(d, v)),
                            jmul(J, basis(d, u), der(basis(d, v))))]
                        assert lhs == rhs


def test_power_associativity_samples():
    rng = random.Random(9)
    for J in all_builtins():
        d = J.dim
        elems = [basis(d, i) for i in range(d)]
        elems += [random_vector(rng, d) for _ in range(5)]
        for a in elems:
            pows = {k: jpower(J, a, k) for k in range(7)}
            for i in range(7):
                for j in range(7 - i):
                    assert jmul(J, pows[i], pows[j]) == pows[i + j]


def test_multiplication_operators_of_powers_commute():
    rng = random.Random(11)
    for J in all_builtins():
        a = random_vector(rng, J.dim)
        ops = [L_op(J, jpower(J, a, k)) for k in range(5)]
        for i in range(5):
            for j in range(5):
                assert dense_commutator(ops[i], ops[j]) == Matrix.zeros(J.dim, J.dim)


def test_special_from_associative_rejects_nonassociative():
    # u unit, x*x = u, but u*x corrupted to u: (x*x)*x = u while x*(x*x) = x
    labels = ["u", "x"]
    unit = [Q(1), Q(0)]
    table = [[{0: Q(1)}, {0: Q(1)}], [{1: Q(1)}, {0: Q(1)}]]
    with pytest.raises(InputError):
        special_from_associative(labels, unit, table)


def ref_associativity_failure(table):
    """The first triple (i, j, k) in product order where e_i (e_j e_k) !=
    (e_i e_j) e_k, over all d^3 triples; None when there is none."""
    d = len(table)
    for i, j, k in product(range(d), repeat=3):
        if table_product(table, {i: 1}, table[j][k]) != table_product(table, table[i][j], {k: 1}):
            return (i, j, k)
    return None


def random_assoc_table(rng, d, empty):
    """A d x d product table, each product empty with probability `empty`,
    otherwise one or two basis terms with small int or Fraction coefficients."""
    return [[{} if rng.random() < empty else
             {rng.randrange(d): rng.choice((1, -1, 2, Q(1, 2))) for _ in range(rng.randint(1, 2))}
             for _ in range(d)] for _ in range(d)]


def matrix_unit_table(m):
    """The associative table of the matrix units of M_m, E_pq E_rs = [q = r] E_ps."""
    return [[{p * m + s: 1} if q == r else {} for r in range(m) for s in range(m)]
            for p in range(m) for q in range(m)]


def test_special_from_associative_finds_the_first_failure_of_a_full_sweep():
    # the sweep skips the triples where e_i e_j and e_j e_k are both empty;
    # the verdict and the failing triple must be those of the full sweep
    rng = random.Random(5)
    tables = [matrix_unit_table(m) for m in (1, 2, 3)]
    tables += [random_assoc_table(rng, d, empty) for d in (2, 3, 4, 5) for empty in (0.5, 0.8, 0.9)
               for _ in range(15)]
    failures = set()
    for table in tables:
        d = len(table)
        unit = [Q(1)] + [Q(0)] * (d - 1)
        want = ref_associativity_failure(table)
        try:
            special_from_associative([f"e{i}" for i in range(d)], unit, table)
            got = None
        except InputError as exc:
            got = str(exc)
        if want is None:
            assert got is None or got == "input unit is not a left unit"
        else:
            assert got == "input table not associative at ({},{},{})".format(*want)
            failures.add(want)
    assert ref_associativity_failure(matrix_unit_table(3)) is None
    # failures are met both early and late in the product order
    assert len(failures) >= 20 and any(i > 1 for i, _, _ in failures)


def test_builtin_lookup():
    assert builtin("truncated-poly", degree=2).dim == 3
    assert builtin("matrix", size=2).dim == 4
    assert builtin("spin-factor", dim=3).dim == 4
    with pytest.raises(InputError, match="^unknown builtin family 'nonesuch'$"):
        builtin("nonesuch")


def test_builtin_aliases_share_one_table_entry():
    # each family reads its own parameter only, with its default; the
    # underscore spellings are the same families
    for dash, under in (("truncated-poly", "truncated_poly"), ("spin-factor", "spin_factor")):
        assert BUILTIN_FAMILIES[dash] == BUILTIN_FAMILIES[under]
    assert builtin("truncated_poly", degree=2, size=5, dim=7).dim == 3
    assert builtin("spin_factor", dim=3).name == "spin-factor(3)"
    assert [builtin(f).dim for f in ("truncated-poly", "matrix", "spin-factor")] == [4, 4, 3]
    with pytest.raises(InputError, match="^spin-factor dimension must be >= 0$"):
        builtin("spin-factor", dim=-1)


def test_json_roundtrip(tmp_path):
    for J in all_builtins():
        data = algebra_to_dict(J)
        text = json.dumps(data)
        back = algebra_from_dict(json.loads(text), name=J.name)
        assert back.space.labels == J.space.labels
        assert back.space.degrees == J.space.degrees
        assert back.unit == J.unit
        for i in range(J.dim):
            for j in range(J.dim):
                assert back.table[i][j] == J.table[i][j]
        assert validate(back).ok


_ENTRIES = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 2), Q(1, 3), Q(-2, 3), Q(5, 6)]


@st.composite
def _sparse_algebras(draw):
    """Commutative algebras of dimension 1 to 4 with sparse tables of
    rational entries (denominators 1, 2, 3 and 6), empty products, drawn
    degrees and a drawn unit; they need not satisfy any axiom."""
    d = draw(st.integers(1, 4))
    entry = st.sampled_from(_ENTRIES)
    degrees = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    unit = draw(st.lists(st.just(Q(0)) | entry, min_size=d, max_size=d))
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            table[i][j] = draw(st.dictionaries(st.integers(0, d - 1), entry, max_size=d))
            table[j][i] = dict(table[i][j])
    return JordanAlgebra(LabeledSpace(tuple(f"e{i}" for i in range(d)), degrees), unit, table)


@settings(deadline=None, max_examples=60)
@given(_sparse_algebras())
def test_algebra_dict_round_trip_on_drawn_sparse_tables(J):
    data = json.loads(json.dumps(algebra_to_dict(J)))
    # one entry per stored product with i <= j, its coordinates dense "p/q"
    assert [(e["i"], e["j"]) for e in data["mult"]] == \
        [(i, j) for i in range(J.dim) for j in range(i, J.dim) if J.table[i][j]]
    assert all(e["coords"] == [q_str(J.table[e["i"]][e["j"]].get(k, 0)) for k in range(J.dim)]
               for e in data["mult"])
    back = algebra_from_dict(data)
    assert (back.space, back.unit, back.table) == (J.space, J.unit, J.table)
    assert all(type(c) is Q for row in back.table for out in row for c in out.values())
    assert algebra_to_dict(back) == data


def test_json_asymmetric_entries_caught_by_validation():
    # explicit (i,j) and (j,i) entries that disagree survive loading but
    # fail the commutativity axiom with a witness
    data = {
        "labels": ["1", "x"],
        "degrees": [0, 0],
        "unit": ["1", "0"],
        "mult": [
            {"i": 0, "j": 0, "coords": ["1", "0"]},
            {"i": 0, "j": 1, "coords": ["0", "1"]},
            {"i": 1, "j": 0, "coords": ["1", "0"]},
            {"i": 1, "j": 1, "coords": ["0", "0"]},
        ],
    }
    J = algebra_from_dict(data)
    rep = validate(J)
    assert not rep.ok
    assert "commutativity" in rep.first_failure().name


def test_json_bad_input():
    with pytest.raises(InputError):
        algebra_from_dict({"labels": ["a"], "degrees": [0]})
    with pytest.raises(InputError):
        algebra_from_dict({"labels": ["a"], "degrees": [0], "unit": ["1"],
                           "mult": [{"i": 5, "j": 0, "coords": ["1"]}]})
