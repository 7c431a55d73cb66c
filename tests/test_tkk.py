import hashlib
import importlib
import json
import pkgutil
import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tkkwb
from conftest import (L_op, dense_bracket, dense_commutator, matrix_of_columns,
                      matrix_of_rows, pair_fractions, set_table, small_vector,
                      symmetric_words_jordan)
from tkkwb import linalg, tkk
from tkkwb.jordan import (InputError, algebra_from_dict, builtin, jmul, matrix_jordan,
                          spin_factor, truncated_poly, validate)
from tkkwb.jspace import doubled_regular_rep, extend_to_g0
from tkkwb.linalg import Matrix, RowSpan, add_into, q_str, random_vector, rref, zero_vector
from tkkwb.symfun import verify_newton_dependence
from tkkwb.tkk import (BraceSpace, algebra_to_dict, build_sl2, build_tkk,
                       center_map, half_killing_sl2, short_grading,
                       validate_lie)


def basis(n, i):
    v = zero_vector(n)
    v[i] = Q(1)
    return v


def wedge(bs, u, v):
    """Sparse coordinates of u ^ v over the wedge basis e_i ^ e_j, i < j,
    whether they lie in the defining span of the brace space, and the
    class of u ^ v in the quotient, summed from the brace pair coordinates."""
    w = {t: u[i] * v[j] - u[j] * v[i] for t, (i, j) in enumerate(bs.pairs)
         if u[i] * v[j] != u[j] * v[i]}
    span = RowSpan(len(bs.pairs))
    for row in bs.s_rows:
        span.insert(row)
    brace, classes = {}, pair_fractions(bs)
    for t, c in w.items():
        add_into(brace, classes[bs.pairs[t]], c)
    return w, span.contains(w), brace


def test_half_killing_values():
    kappa = half_killing_sl2()
    assert kappa[("h", "h")] == 4
    assert kappa[("e", "f")] == kappa[("f", "e")] == 2
    assert kappa[("e", "e")] == kappa[("f", "f")] == 0
    assert kappa[("h", "e")] == kappa[("h", "f")] == 0


def test_brace_space_truncated_poly_vanishes():
    for D in range(7):
        bs = BraceSpace(truncated_poly(D))
        assert bs.dim == 0


def test_brace_space_one_dim():
    bs = BraceSpace(truncated_poly(0))
    assert len(bs.pairs) == 0 and bs.dim == 0


def test_brace_space_kills_squares_of_basis_and_pair_sums():
    for J in (matrix_jordan(2), spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]]),
              truncated_poly(3)):
        bs = BraceSpace(J)
        d = J.dim
        elems = [basis(d, i) for i in range(d)]
        elems += [[x + y for x, y in zip(basis(d, i), basis(d, j))]
                  for i in range(d) for j in range(i + 1, d)]
        for a in elems:
            _, inside, brace = wedge(bs, a, jmul(J, a, a))
            assert inside
            assert brace == {}


def test_brace_space_containment_both_ways():
    rng = random.Random(4)
    for J in (matrix_jordan(2), spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])):
        bs = BraceSpace(J)
        # random a: a ^ a^2 lies in the defining span
        for _ in range(20):
            a = random_vector(rng, J.dim)
            assert wedge(bs, a, jmul(J, a, a))[1]
        # and the span of sampled a ^ a^2 on a rational grid recovers
        # every polarized generator
        sampled = RowSpan(len(bs.pairs))
        for _ in range(8 * max(1, len(bs.s_rows))):
            a = random_vector(rng, J.dim)
            sampled.insert(wedge(bs, a, jmul(J, a, a))[0])
        for row in bs.s_rows:
            assert sampled.contains(row)
        # a representative pair is outside the span, and its class is its brace
        for k, (i, j) in enumerate(bs.rep_pairs):
            _, inside, brace = wedge(bs, basis(J.dim, i), basis(J.dim, j))
            assert not inside
            assert brace == {k: 1}


def test_bracket_spot_identities():
    J = truncated_poly(3)
    g = build_sl2(J)
    d = J.dim
    # [e(1), f(t)] = h(t): braces of (1, a) die in the quotient
    out = g.bracket_basis(g.e_index(0), g.f_index(1))
    assert out == {g.h_index(1): 1}
    # [e(t), f(t)] = h(t^2)
    out = g.bracket_basis(g.e_index(1), g.f_index(1))
    assert out == {g.h_index(2): 1}
    # [h(1), e(a)] = 2 e(a)
    for i in range(d):
        assert g.bracket_basis(g.h_index(0), g.e_index(i)) == {g.e_index(i): 2}
    # [h(1), f(a)] = -2 f(a)
    for i in range(d):
        assert g.bracket_basis(g.h_index(0), g.f_index(i)) == {g.f_index(i): -2}
    # [e(a), e(b)] = [f(a), f(b)] = 0
    for i in range(d):
        for j in range(d):
            assert g.bracket_basis(g.e_index(i), g.e_index(j)) == {}
            assert g.bracket_basis(g.f_index(i), g.f_index(j)) == {}


def test_e1_fa_bracket_is_h_a_in_matrix_algebra():
    # {1, a} dies even when the brace space is nonzero
    J = matrix_jordan(2)
    g = build_sl2(J)
    unit_idx = [i for i, c in enumerate(J.unit) if c]
    for j in range(J.dim):
        acc = {}
        for i in unit_idx:
            for t, c in g.bracket_basis(g.e_index(i), g.f_index(j)).items():
                acc[t] = acc.get(t, 0) + c * J.unit[i]
        acc = {t: c for t, c in acc.items() if c}
        assert acc == {g.h_index(j): 1}


@pytest.mark.parametrize("make", [
    lambda: truncated_poly(4),
    lambda: matrix_jordan(2),
    lambda: spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]]),
])
def test_validate_lie(make):
    J = make()
    g = build_sl2(J)
    rep = validate_lie(g)
    assert rep.ok, rep.first_failure()
    t = build_tkk(J)
    rep2 = validate_lie(t)
    assert rep2.ok, rep2.first_failure()


def test_corrupted_bracket_table_fails_jacobi():
    g = build_sl2(truncated_poly(2))
    key = (g.e_index(1), g.f_index(1))
    set_table(g, {**g.table, key: {g.h_index(1): Q(1)}})  # should be h(t^2)
    rep = validate_lie(g)
    assert not rep.ok


def test_bracket_table_is_a_read_only_fraction_view():
    # the integer form is the one stored table; `table` only reads it
    g = build_sl2(spin_factor([[Q(1, 3), 0], [0, Q(2, 7)]]))
    assert g.den > 1
    key = (g.e_index(1), g.f_index(1))
    with pytest.raises(TypeError):
        g.table[key] = {g.h_index(1): Q(1)}
    with pytest.raises(TypeError):
        del g.table[key]
    with pytest.raises(AttributeError):
        g.table = {}
    assert list(g.table) == list(g.brackets)
    for pq, out in g.brackets.items():
        assert out and all(type(x) is int and x for x in out.values())
        assert g.table[pq] == g.bracket_basis(*pq) == {t: Q(x, g.den) for t, x in out.items()}
    assert g.bracket_basis(g.e_index(0), g.e_index(1)) == {}


def test_tkk_check_decides_each_tables_antisymmetry_once(monkeypatch):
    # validate_lie decides the extension's antisymmetry and keeps it, so
    # center_map sweeps only the classical table's, once
    swept = []
    antisymmetric = tkk._antisymmetric

    def counted(table, inside):
        swept.append(len(inside))
        return antisymmetric(table, inside)

    monkeypatch.setattr(tkk, "_antisymmetric", counted)
    J = spin_factor([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ext, classical = build_sl2(J), build_tkk(J)
    assert validate_lie(ext).ok and swept == []
    assert center_map(ext, classical)[2].ok
    assert swept == [classical.dim]
    assert center_map(ext, classical)[2].ok and swept == [classical.dim]


def test_short_grading():
    g1 = build_sl2(truncated_poly(0))
    rep = short_grading(g1)
    assert rep.ok
    assert g1.dim == 3

    g2 = build_sl2(truncated_poly(2))
    rep = short_grading(g2)
    assert rep.ok
    assert len(g2.weight_block(-2)) == 3
    assert len(g2.weight_block(0)) == 3
    assert len(g2.weight_block(2)) == 3

    g3 = build_sl2(matrix_jordan(2))
    assert short_grading(g3).ok


def test_tkk_of_commutative_associative_is_tensor():
    # Inn J = 0, so the classical algebra is sl2(k) tensor J
    J = truncated_poly(3)
    t = build_tkk(J)
    assert t.tail_dim == 0
    assert t.dim == 3 * J.dim


def test_tkk_one_dim():
    t = build_tkk(truncated_poly(0))
    assert t.dim == 3
    assert validate_lie(t).ok


def test_center_map_identity_for_one_dim():
    J = truncated_poly(0)
    phi, ker, rep = center_map(build_sl2(J), build_tkk(J))
    assert rep.ok
    assert ker == []
    assert matrix_of_columns(phi, 3) == Matrix.identity(3)


@pytest.mark.parametrize("make", [
    lambda: truncated_poly(3),
    lambda: matrix_jordan(2),
    lambda: spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]]),
])
def test_center_map(make):
    J = make()
    ext = build_sl2(J)
    classical = build_tkk(J)
    phi, ker, rep = center_map(ext, classical)
    assert rep.ok, rep.first_failure()
    assert len(ker) == ext.tail_dim - classical.tail_dim
    # kernel brackets to zero against everything
    for v in matrix_of_rows(ker, ext.dim).data:
        for q in range(ext.dim):
            bq = [0] * ext.dim
            bq[q] = 1
            assert all(not x for x in dense_bracket(ext, v, bq))


def test_center_map_nontrivial_kernel():
    # a degenerate bilinear form kills all inner derivations but leaves a
    # one-dimensional brace space: the kernel is genuinely central
    J = spin_factor([[Q(0), Q(0)], [Q(0), Q(0)]])
    ext = build_sl2(J)
    classical = build_tkk(J)
    assert ext.tail_dim == 1 and classical.tail_dim == 0
    assert validate_lie(ext).ok
    phi, ker, rep = center_map(ext, classical)
    assert rep.ok
    assert len(ker) == 1


def test_jacobi_random_vectors():
    rng = random.Random(12)
    g = build_sl2(matrix_jordan(2))
    for _ in range(10):
        x = small_vector(rng, g.dim, 4, 2)
        y = small_vector(rng, g.dim, 4, 2)
        z = small_vector(rng, g.dim, 4, 2)
        acc = [0] * g.dim
        for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
            term = dense_bracket(g, a, dense_bracket(g, b, c))
            acc = [p + q for p, q in zip(acc, term)]
        assert all(not v for v in acc)


def test_spot_jacobi_mode():
    # the sampled Jacobi mode is gone: its call, with its sample count and
    # seed, is an error, not a check of fewer triples
    g = build_sl2(truncated_poly(2))
    with pytest.raises(TypeError, match="jacobi"):
        validate_lie(g, jacobi="spot", samples=50, seed=3)
    for name in ("seed", "samples"):
        with pytest.raises(TypeError, match=name):
            validate_lie(g, **{name: 3})


def test_validate_lie_rejects_an_unknown_jacobi_mode():
    # Jacobi has one verdict, on every triple, so there is no mode: any mode
    # is an error, "full" included
    for mode in ("fulll", "full"):
        with pytest.raises(TypeError, match="jacobi"):
            validate_lie(build_sl2(truncated_poly(2)), jacobi=mode)


def test_json_export():
    g = build_sl2(truncated_poly(1))
    data = algebra_to_dict(g)
    assert data["kind"] == "sl2"
    assert len(data["labels"]) == g.dim
    assert len(data["weights"]) == g.dim
    assert all(len(row) == 4 for row in data["brackets"])
    # every exported constant matches the table
    from tkkwb.linalg import as_q
    for p, q, t, c in data["brackets"]:
        assert as_q(c) == g.table[(p, q)][t]
    # spot check one known entry: [h(1), e(1)] = 2 e(1)
    assert g.table[(g.h_index(0), g.e_index(0))] == {g.e_index(0): 2}


# sha256 over both bracket tables and every output of center_map
_PINNED_TABLES = {
    "truncated-poly(0)": (lambda: truncated_poly(0),
                          "d34edd0684d1579d6eb9cca6139500cb2fb7cbc221a46acdd518fc6981febe84"),
    "truncated-poly(3)": (lambda: truncated_poly(3),
                          "eec11950fe26bdc6fbe8727efcbf2b8722ab0676e9441f365ffb9dd59b56ae5d"),
    "M2+": (lambda: matrix_jordan(2),
            "68ce6cb64f23abf9aa87ba9b5b659fb8e4598109bd2edddc1797bdf19d22737c"),
    "M3+": (lambda: matrix_jordan(3),
            "c9e15c2a20348210bfecb2b03d4a6b3a3e73a171d9cf4d331d8f15781ddf1e7e"),
    "spin-factor(3)": (lambda: builtin("spin-factor", dim=3),
                       "70b2b8835ae1151b97dbcbe3478be9231306d19889a8b286e529a227d7557b01"),
    "spin-factor(8)": (lambda: builtin("spin-factor", dim=8),
                       "56fecacf9d243159758868d70dbd885d6a63961d55ccbdbe3368afdb62549580"),
    "ungraded truncated-poly(4)": (lambda: truncated_poly(4, graded=False),
                                   "7531271623a8c0471e1fe002c437f5ee7562bc1c183d6fb142875f4c3df785a7"),
    # 120 wedge pairs, the most of any pinned algebra
    "M4+": (lambda: matrix_jordan(4),
            "89d5823d5369fd02ea47524bc4d186975ab4a822e990df4cd0216202392d111c"),
}


@pytest.mark.parametrize("name", list(_PINNED_TABLES))
def test_tables_and_center_map_pinned(name):
    make, pinned = _PINNED_TABLES[name]
    J = make()
    ext, classical = build_sl2(J), build_tkk(J)
    phi, ker, rep = center_map(ext, classical)
    phi, ker = matrix_of_columns(phi, classical.dim), matrix_of_rows(ker, ext.dim)
    blob = json.dumps([algebra_to_dict(ext), algebra_to_dict(classical),
                       [[q_str(x) for x in row] for row in phi.data],
                       [[q_str(x) for x in row] for row in ker.data],
                       rep.lines()])
    assert hashlib.sha256(blob.encode()).hexdigest() == pinned


def dense_center_map(ext, classical):
    """The reference phi, dense, from the classical pair coordinates, and the
    canonical basis of its kernel from the dense rref of the whole of phi."""
    cols = []
    for p in range(ext.dim):
        kind, i = ext.basis_kind(p)
        if kind == "tail":
            coords = pair_fractions(classical)[ext.brace.rep_pairs[i]]
            cols.append({classical.tail_index(k): c for k, c in coords.items()})
        else:
            cols.append({getattr(classical, f"{kind}_index")(i): Q(1)})
    phi = Matrix(classical.dim, ext.dim,
                 [[col.get(r, Q(0)) for col in cols] for r in range(classical.dim)])
    _, red, pivots = rref(phi)
    ker = [[Q(1) if j == f else -red.data[pivots.index(j)][f] if j in pivots else Q(0)
            for j in range(ext.dim)] for f in range(ext.dim) if f not in pivots]
    return phi, Matrix(len(ker), ext.dim, ker)


# the pinned algebras, whose kernels are 0, and a degenerate spin factor
# (Gram matrix all zeros), whose kernel is 1-dimensional
_CENTER_MAP_ALGEBRAS = {**{name: make for name, (make, _) in _PINNED_TABLES.items()},
                        "degenerate spin-factor(2)":
                            lambda: spin_factor([[Q(0), Q(0)], [Q(0), Q(0)]])}


@pytest.mark.parametrize("name", list(_CENTER_MAP_ALGEBRAS))
def test_center_map_is_sparse_canonical_and_matches_the_dense_reference(name):
    J = _CENTER_MAP_ALGEBRAS[name]()
    ext, classical = build_sl2(J), build_tkk(J)
    phi, ker, rep = center_map(ext, classical)
    assert rep.ok
    # phi: one sparse column per basis element (empty where it maps to 0),
    # ker: nonempty sparse rows in index order; no zero entry anywhere, and
    # every entry a Fraction
    assert len(phi) == ext.dim and all(ker)
    assert all(all(vec.values()) for vec in phi + ker)
    assert all(list(row) == sorted(row) for row in ker)
    assert all(type(c) is Q for vec in phi + ker for c in vec.values())
    assert (matrix_of_columns(phi, classical.dim), matrix_of_rows(ker, ext.dim)) == \
        dense_center_map(ext, classical)
    assert len(ker) == int(name.startswith("degenerate"))


def test_tkk_and_symfun_compute_with_no_dense_matrix():
    from tkkwb import symfun
    for module in (tkk, symfun):
        assert not hasattr(module, "Matrix") and not hasattr(module, "dense_vector")
    assert not hasattr(tkk.TKKAlgebra, "bracket")
    assert not hasattr(tkkwb.jordan, "L_op") and not hasattr(tkkwb, "L_op")


@pytest.mark.parametrize("name", list(_PINNED_TABLES))
def test_bracket_tables_store_no_zero_bracket(name):
    # an absent pair is a zero bracket: bracket_basis reads it as {}
    J = _PINNED_TABLES[name][0]()
    for g in (build_sl2(J), build_tkk(J)):
        assert all(g.table.values())


def test_build_tkk_rejects_a_tail_bracket_outside_the_derivation_span(monkeypatch):
    # unital and commutative, but not Jordan: the commutator of two inner
    # derivations is no inner derivation
    unit = [{"i": 0, "j": j, "coords": [str(int(k == j)) for k in range(4)]} for j in range(4)]
    rest = [(1, 1, "0 0 -1 0"), (1, 2, "1 0 0 0"), (1, 3, "0 0 1 -1"),
            (2, 2, "1 -1 0 -1"), (2, 3, "-1 1 0 1"), (3, 3, "1 1 -1 0")]
    J = algebra_from_dict({
        "labels": ["1", "a", "b", "c"], "degrees": [0] * 4, "unit": ["1", "0", "0", "0"],
        "mult": unit + [{"i": i, "j": j, "coords": c.split()} for i, j, c in rest],
    }, name="non-Jordan")
    assert not validate(J).ok
    monkeypatch.setattr(tkk, "ensure_valid", lambda J: None)
    with pytest.raises(InputError, match="^matrix outside the inner-derivation span$"):
        build_tkk(J)


def test_no_dense_rref_behind_the_tails_kernel_or_rank(monkeypatch):
    # every echelon form of the package is a sparse RowSpan's: no module but
    # linalg binds the dense rref, and none of the constructions calls it
    modules = [importlib.import_module(f"tkkwb.{m.name}")
               for m in pkgutil.iter_modules(tkkwb.__path__)]
    assert [m.__name__ for m in modules if m is not linalg and hasattr(m, "rref")] == []
    seen = []

    def recording_rref(m):
        seen.append(m.rows)
        return rref(m)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    J = matrix_jordan(3)
    ext, classical = build_sl2(J), build_tkk(J)
    assert classical.tail_dim == 8
    assert center_map(ext, classical)[2].ok
    assert extend_to_g0(doubled_regular_rep(J), ext).report.ok
    assert verify_newton_dependence(3).ok
    assert seen == []


def dense_inner_derivation_rank(J):
    """Rank of the span of the dense matrices [L_a, L_b], a < b."""
    d = J.dim
    rows = []
    for a in range(d):
        for b in range(a + 1, d):
            m = dense_commutator(L_op(J, basis(d, a)), L_op(J, basis(d, b)))
            rows.append([x for row in m.data for x in row])
    return rref(Matrix(len(rows), d * d, rows))[0] if rows else 0


@st.composite
def _gram_matrices(draw):
    """Symmetric k x k rational matrices, k <= 4, degenerate ones included."""
    k = draw(st.integers(0, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    g = [[Q(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g[i][j] = g[j][i] = draw(entry)
    return g


@settings(deadline=None, max_examples=30)
@given(_gram_matrices())
@example([[Q(0)] * 3 for _ in range(3)])
@example([[Q(1), Q(1), Q(0)], [Q(1), Q(1), Q(0)], [Q(0), Q(0), Q(0)]])
@example([[Q(1), Q(2), Q(0), Q(0)], [Q(2), Q(4), Q(0), Q(0)],
          [Q(0), Q(0), Q(-1), Q(1, 2)], [Q(0), Q(0), Q(1, 2), Q(-1, 4)]])
def test_spin_factor_tails_are_lie_and_central(gram):
    J = spin_factor(gram)
    ext, classical = build_sl2(J), build_tkk(J)
    for g in (ext, classical):
        rep = validate_lie(g)
        assert rep.ok, rep.first_failure()
    rep = center_map(ext, classical)[2]
    assert rep.ok, rep.first_failure()
    assert classical.tail_dim == dense_inner_derivation_rank(J)


@pytest.mark.parametrize("make_algebra,pair_den", [
    (lambda: spin_factor([[Q(1, 3), 0, 0], [0, Q(2, 7), 0], [0, 0, 5]]), 7),
    (lambda: symmetric_words_jordan(2, 5), 4),
    (lambda: matrix_jordan(3), 4),
    (lambda: builtin("spin-factor", dim=8), 1),
], ids=["gram-spin-factor", "words-2-5", "matrix-3", "spin-factor-8"])
def test_classical_pair_coordinates_are_over_their_least_denominator(make_algebra, pair_den):
    # the pair ints are divided by their gcd with tden^2 once, in build_tkk
    g = build_tkk(make_algebra())
    fractions = pair_fractions(g)
    assert g.pair_den == pair_den == lcm(1, *(x.denominator for col in fractions.values()
                                              for x in col.values()))
