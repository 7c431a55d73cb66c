import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (column, dense, dense_rho, dense_rho_of, jordan_block_3, matrix_rep,
                      nilpotent_matrix, noncommuting_rep, one_gen_rep,
                      projection_matrix, sparse)
from tkkwb import jspace
from tkkwb.jordan import (InputError, algebra_from_dict, builtin, jmul, matrix_jordan, spin_factor,
                          truncated_poly, validate)
from tkkwb.jspace import (JSpaceRep, LevelError, ResourceError,
                          check_bimodule, check_envelope_relations,
                          check_jspace, dominance_check, dominance_operator,
                          doubled_regular_rep, extend_to_g0, level, load_rep,
                          matrix_defining_rep, newton_rep, regular_rep,
                          rep_from_dict, rep_to_dict, tensor_rep, zero_rep)
from tkkwb.linalg import LabeledSpace, Matrix, q_str, random_vector, zero_vector
from tkkwb.jordan import algebra_to_dict


def basis(n, i):
    v = zero_vector(n)
    v[i] = Q(1)
    return v


# ---------------------------------------------------------------------------
# axioms and level


def test_zero_rep_passes():
    r = zero_rep(truncated_poly(2))
    assert check_jspace(r).ok
    assert level(r) == 0


def test_newton_rep_passes_and_levels():
    for n, D in ((1, 3), (2, 4), (3, 2)):
        r = newton_rep(n, D)
        assert check_jspace(r).ok
        assert level(r) == n


def test_newton_rep_module_shape():
    r = newton_rep(2, 2)
    # partitions with at most 2 parts up to degree 2: (), (1), (2), (1,1)
    assert r.mdim == 4
    assert r.module.labels[0] == "m[]"
    # rho(t) applied to the constant gives the degree-one monomial basis vector
    img = column(dense_rho(r)[1], 0)
    one_pos = r.module.labels.index("m[1]")
    assert img[one_pos] == 1 and sum(1 for x in img if x) == 1


def test_newton_rep_in_twelve_variables():
    # the module m[], m[1] in 12 variables: N_0 = 12 and N_1 m[] = m[1]
    r = newton_rep(12, 1)
    assert r.module.labels == ("m[]", "m[1]")
    assert level(r) == 12
    assert dense_rho(r)[1] == Matrix(2, 2, [[Q(0), Q(0)], [Q(1), Q(0)]])


def test_one_variable_newton_rep_is_polynomial_multiplication():
    r = newton_rep(1, 4)
    # module is 1, x, ..., x^4 and rho(t^l) is the shift by l
    assert r.mdim == 5
    for ell in range(5):
        for j in range(5):
            col = column(dense_rho(r)[ell], j)
            expect = basis(5, ell + j) if ell + j <= 4 else zero_vector(5)
            assert col == expect


def test_defining_rep_passes():
    r = matrix_defining_rep(2)
    assert check_jspace(r).ok
    assert level(r) == 1


def test_non_jordan_assignment_fails():
    rng = random.Random(0)
    J = matrix_jordan(2)
    mats = [Matrix(3, 3, [[Q(rng.randint(-3, 3)) for _ in range(3)]
                          for _ in range(3)]) for _ in range(4)]
    module = LabeledSpace(("a", "b", "c"), (0, 0, 0))
    r = matrix_rep(J, module, mats, name="random assignment")
    assert not check_jspace(r).ok


def test_level_not_scalar():
    J = truncated_poly(1, graded=False)
    module = LabeledSpace(("a", "b"), (0, 0))
    rho1 = Matrix(2, 2, [[Q(1), Q(0)], [Q(0), Q(2)]])
    r = matrix_rep(J, module, [rho1, Matrix.zeros(2, 2)])
    with pytest.raises(LevelError):
        level(r)


def test_level_non_integer():
    J = truncated_poly(1, graded=False)
    module = LabeledSpace(("a",), (0,))
    r = matrix_rep(J, module, [Matrix.identity(1).scale(Q(1, 2)),
                               Matrix.zeros(1, 1)])
    with pytest.raises(LevelError):
        level(r)


# ---------------------------------------------------------------------------
# weight-zero extension


def test_extension_of_commutative_rep_has_zero_braces():
    r = newton_rep(2, 2)
    g0 = extend_to_g0(r)
    assert g0.report.ok
    assert all(not op for op in g0.braces)


def test_extension_defining_rep():
    r = matrix_defining_rep(2)
    g0 = extend_to_g0(r)
    assert g0.report.ok
    # braces act by quarter commutators, and at least one is nonzero
    assert any(g0.braces)


def test_extension_round_trip():
    r = matrix_defining_rep(2)
    g0 = extend_to_g0(r)
    # restriction back to the h-part is the original rho
    assert g0.rep is r
    for i in range(r.jordan.dim):
        assert dense(g0.rho[i], r.mdim).scale(Q(1, g0.den)) == dense_rho(r)[i]


def test_extension_zero_rep():
    g0 = extend_to_g0(zero_rep(matrix_jordan(2)))
    assert g0.report.ok
    assert all(not op for op in g0.braces)


def test_extension_detects_ill_defined_braces():
    g0 = extend_to_g0(noncommuting_rep())
    assert not g0.report.ok
    assert "well-defined" in g0.report.first_failure().name


# ---------------------------------------------------------------------------
# dominance


def test_dominance_level0():
    assert dominance_check(zero_rep(truncated_poly(2))).ok
    bad = one_gen_rep(0, projection_matrix(), "lvl0 control")
    assert check_jspace(bad).ok
    assert not dominance_check(bad).ok


def test_dominance_level1():
    assert dominance_check(regular_rep(truncated_poly(3))).ok
    assert dominance_check(matrix_defining_rep(2)).ok
    bad = one_gen_rep(1, projection_matrix(), "lvl1 control")
    assert not dominance_check(bad).ok
    good = one_gen_rep(1, nilpotent_matrix(), "lvl1 nilpotent")
    assert dominance_check(good).ok


def test_dominance_newton():
    for n, D in ((2, 3), (3, 2)):
        assert dominance_check(newton_rep(n, D)).ok


def test_dominance_random_mode_finds_witness():
    bad = one_gen_rep(2, projection_matrix(), "lvl2 control")
    rep = dominance_check(bad, mode="random", samples=8, seed=0)
    assert not rep.ok
    assert "witness" in rep.first_failure().detail


def test_dominance_operator_level1_shape():
    # at level 1 the sum is rho(a)^2 - rho(a^2)
    r = regular_rep(truncated_poly(2))
    rng = random.Random(5)
    a = random_vector(rng, 3)
    op = dominance_operator(r, a)
    ra = dense_rho_of(r, a)
    ra2 = dense_rho_of(r, jmul(r.jordan, a, a))
    assert op == sparse(ra @ ra + ra2.scale(-1))


def test_level1_dominant_is_associative_specialization():
    # Eq-style consequence: rho(ab) = (rho(a)rho(b) + rho(b)rho(a)) / 2
    for r in (regular_rep(truncated_poly(3)), matrix_defining_rep(2),
              one_gen_rep(1, nilpotent_matrix(), "lvl1 nilpotent")):
        assert dominance_check(r).ok
        J, sig = r.jordan, dense_rho(r)
        for i in range(J.dim):
            for j in range(J.dim):
                prod = zero_vector(J.dim)
                for k, c in J.table[i][j].items():
                    prod[k] = c
                lhs = dense_rho_of(r, prod)
                rhs = (sig[i] @ sig[j] + sig[j] @ sig[i]).scale(Q(1, 2))
                assert lhs == rhs


def test_symbolic_guard():
    r = zero_rep(matrix_jordan(4))  # dim J = 16 > guard
    with pytest.raises(ResourceError):
        dominance_check(r, mode="symbolic")
    assert dominance_check(r, mode="random", samples=2, seed=0).ok


def test_doubled_regular_is_level2_dominant_everywhere():
    # a noncommutative level-2 family: the dominance sum collapses via the
    # operator consequence of the Jordan identity
    from tkkwb.jspace import doubled_regular_rep
    from tkkwb.jordan import spin_factor
    for J in (matrix_jordan(2), truncated_poly(2),
              spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])):
        r = doubled_regular_rep(J)
        assert check_jspace(r).ok
        assert level(r) == 2
        assert dominance_check(r).ok


def test_tensor_rep_levels_add():
    dr = matrix_defining_rep(2)
    t2 = tensor_rep(dr, dr)
    assert level(t2) == 2
    assert check_jspace(t2).ok
    assert dominance_check(t2).ok


# ---------------------------------------------------------------------------
# bimodules


def test_half_regular_is_bimodule():
    r = regular_rep(truncated_poly(3))
    half = matrix_rep(r.jordan, r.module, [m.scale(Q(1, 2)) for m in dense_rho(r)],
                      name="half regular")
    rep = check_bimodule(half)
    assert rep.ok
    # sigma(1) = id/2 sits on the middle spectral point
    s1 = dense_rho_of(half, half.jordan.unit)
    assert s1 == Matrix.identity(half.mdim).scale(Q(1, 2))


def test_zero_bimodule():
    assert check_bimodule(zero_rep(truncated_poly(2))).ok


def test_half_newton3_fails_quadratic_identity():
    n3 = newton_rep(3, 2)
    half = matrix_rep(n3.jordan, n3.module, [m.scale(Q(1, 2)) for m in dense_rho(n3)],
                      name="half newton-3")
    rep = check_bimodule(half)
    assert not rep.ok
    names = [it.name for it in rep.items if not it.ok]
    assert any("quadratic" in n for n in names)
    assert any("annihilated" in n for n in names)


def test_bimodule_gives_jspace_at_doubled_action():
    # sigma passing the bimodule identities makes rho = 2 sigma a J-space
    r = regular_rep(truncated_poly(4))
    half = matrix_rep(r.jordan, r.module, [m.scale(Q(1, 2)) for m in dense_rho(r)])
    assert check_bimodule(half).ok
    doubled = matrix_rep(r.jordan, r.module,
                         [m.scale(Q(2)) for m in dense_rho(half)])
    assert check_jspace(doubled).ok


# ---------------------------------------------------------------------------
# envelope relations


def test_envelope_newton():
    for n, D in ((1, 3), (2, 3)):
        rep = check_envelope_relations(newton_rep(n, D))
        assert rep.ok, rep.first_failure()


def test_envelope_zero():
    assert check_envelope_relations(zero_rep(truncated_poly(1))).ok


def test_envelope_rejects_nonscalar():
    J = truncated_poly(1, graded=False)
    module = LabeledSpace(("a", "b"), (0, 0))
    r = matrix_rep(J, module, [Matrix(2, 2, [[Q(0), Q(0)], [Q(0), Q(1)]]),
                               Matrix.zeros(2, 2)])
    rep = check_envelope_relations(r)
    assert not rep.ok


def test_cubic_rearrangement_on_commutative_rep():
    # over a commutative image the relation collapses to
    # rho(b(ac)) = rho(a(bc)), which holds by associativity
    r = newton_rep(2, 2)
    rep = check_envelope_relations(r)
    assert rep.ok


def test_envelope_relations_agree_with_dominance(instances):
    # the cubic relation [[r(a),r(b)],r(c)] = 4 r(a(bc) - b(ac)) carries the
    # factor 4 of the derivation identity: the J-spaces over non-associative
    # algebras (defining reps of M2 and M3 and their tensor powers, doubled
    # regular reps of M2 and of a spin factor) satisfy it
    for name, rep, dominant in instances:
        report = check_envelope_relations(rep)
        assert report.ok == dominant, (name, report.first_failure())


def test_envelope_guards_symbolic_dominance_before_any_sweep(monkeypatch):
    # dim J = 11 is past the symbolic guard: the envelope raises before it
    # forms a single commutator of its square-commutation or cubic sweeps
    commutators = []
    commutator = jspace.commutator

    def counted(a, b):
        commutators.append(1)
        return commutator(a, b)

    rep = doubled_regular_rep(builtin("spin-factor", dim=10))
    monkeypatch.setattr(jspace, "commutator", counted)
    with pytest.raises(ResourceError):
        check_envelope_relations(rep, mode="symbolic")
    assert commutators == []


def test_cubic_relation_fails_off_a_jspace():
    # multiplication operators of M2+ fail the derivation identity at (0,1,0)
    r = regular_rep(matrix_jordan(2))
    assert check_jspace(r).first_failure().detail == \
        "derivation identity fails at basis triple (0,1,0)"
    cubic = check_envelope_relations(r).items[2]
    assert cubic.name == "cubic rearrangement relation"
    assert (cubic.ok, cubic.detail) == (False, "fails at (0,1,0)")


# ---------------------------------------------------------------------------
# JSON round trip


def test_rep_json_roundtrip(tmp_path):
    r = newton_rep(2, 2)
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(algebra_to_dict(r.jordan)))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_dict(r, algebra_ref="alg.json")))
    back = load_rep(rep_path)
    assert back.mdim == r.mdim
    assert back.module.labels == r.module.labels
    assert (back.den, back.rho) == (r.den, r.rho)
    assert check_jspace(back).ok


def test_rep_json_builtin_algebra(tmp_path):
    r = newton_rep(1, 2)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_dict(r, algebra_ref="truncated-poly:2")))
    back = load_rep(rep_path)
    assert level(back) == 1
    assert check_jspace(back).ok


def test_rep_json_bad(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    with pytest.raises(InputError):
        load_rep(p)
    p.write_text(json.dumps({"algebra": "truncated-poly:1", "module": {}}))
    with pytest.raises(InputError):
        load_rep(p)


def test_rep_json_unknown_builtin_algebra():
    data = rep_to_dict(newton_rep(1, 2), algebra_ref="nonesuch:2")
    with pytest.raises(InputError, match="^unknown builtin algebra 'nonesuch:2'$"):
        rep_from_dict(data)
    for ref in ("truncated_poly:2", "truncated-poly:2"):
        assert rep_from_dict(dict(data, algebra=ref)).jordan.name == "truncated-poly(2)"


# ---------------------------------------------------------------------------
# rho at rest: sparse integer operators over one denominator


def test_rep_keeps_integer_operators_over_one_denominator():
    J = truncated_poly(1, graded=False)
    module = LabeledSpace(("a", "b"), (0, 0))
    r = JSpaceRep(J, module, [{1: {1: Q(1, 2), 0: Q(0)}, 0: {}}, {0: {1: Q(-2, 3)}}])
    assert r.den == 6
    assert r.rho == [{1: {1: 3}}, {0: {1: -4}}]
    assert r.rho_of({1: Q(3)}) == {0: {1: -2}}
    assert r.rho_of([Q(2), Q(0)]) == {1: {1: 1}}
    with pytest.raises(InputError, match="^representation operator index outside the module$"):
        JSpaceRep(J, module, [{2: {0: Q(1)}}, {}])
    with pytest.raises(InputError, match="^representation operator index outside the module$"):
        JSpaceRep(J, module, [{}, {0: {-1: Q(1)}}])
    with pytest.raises(InputError, match="^need one matrix per algebra basis vector$"):
        JSpaceRep(J, module, [{}])


def _builtin_reps():
    dr = matrix_defining_rep(2)
    J = truncated_poly(2)
    return [newton_rep(2, 3), newton_rep(3, 2), zero_rep(matrix_jordan(2), 2), regular_rep(J),
            doubled_regular_rep(J), doubled_regular_rep(builtin("spin-factor", dim=2)), dr,
            tensor_rep(dr, dr), tensor_rep(regular_rep(J), doubled_regular_rep(J))]


@pytest.mark.parametrize("index", range(len(_builtin_reps())))
def test_rep_dict_round_trip_on_builtins(index):
    rep = _builtin_reps()[index]
    data = rep_to_dict(rep, algebra_to_dict(rep.jordan))
    back = rep_from_dict(data)
    assert rep_to_dict(back, data["algebra"]) == data
    assert (back.den, back.rho) == (rep.den, rep.rho)


_ENTRIES = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 2), Q(1, 3), Q(-2, 3), Q(5, 6)]


@st.composite
def _sparse_rhos(draw):
    """(module dim, rho) over the dual numbers: sparse rational operators
    with entries of denominators 1, 2, 3 and 6, and with empty rows."""
    m = draw(st.integers(1, 4))
    index = st.integers(0, m - 1)
    op = st.dictionaries(index, st.dictionaries(index, st.sampled_from(_ENTRIES), max_size=m),
                         max_size=m)
    return m, [draw(op), draw(op)]


@settings(deadline=None, max_examples=60)
@given(_sparse_rhos())
def test_rep_dict_round_trip_on_drawn_sparse_rho(drawn):
    m, rho = drawn
    J = truncated_poly(1, graded=False)
    module = LabeledSpace(tuple(f"v{i}" for i in range(m)), (0,) * m)
    rep = JSpaceRep(J, module, rho)
    # the rep keeps exactly the nonzero entries it was given
    for i, op in enumerate(rho):
        assert rep.rho_of({i: 1}) == {r: row for r, row in op.items() if row}
    data = rep_to_dict(rep, "truncated-poly:1")
    assert data["rho"] == [[[q_str(op.get(r, {}).get(s, 0)) for s in range(m)]
                            for r in range(m)] for op in rho]
    assert rep_to_dict(rep_from_dict(data), "truncated-poly:1") == data


def _kron(a, b):
    """The dense Kronecker product a x b, entry (i p, j q) = a_ij b_pq."""
    rows = [[x * y for x in ra for y in rb] for ra in a.data for rb in b.data]
    return Matrix(a.rows * b.rows, a.cols * b.cols, rows)


def _tensor_pairs():
    J = truncated_poly(1, graded=False)
    a = matrix_rep(J, LabeledSpace(("a0", "a1"), (0, 0)),
                   [Matrix.identity(2), Matrix(2, 2, [[Q(0), Q(1, 2)], [Q(0), Q(0)]])])
    b = matrix_rep(J, LabeledSpace(("b0", "b1", "b2"), (0, 0, 0)),
                   [Matrix.identity(3).scale(Q(2)), jordan_block_3().scale(Q(1, 3))])
    dr = matrix_defining_rep(2)
    K = truncated_poly(2)
    return [(a, b), (b, a), (dr, dr), (tensor_rep(dr, dr), dr),
            (regular_rep(K), doubled_regular_rep(K)), (newton_rep(2, 2), zero_rep(truncated_poly(2)))]


@pytest.mark.parametrize("index", range(len(_tensor_pairs())))
def test_tensor_rep_is_the_kronecker_sum(index):
    a, b = _tensor_pairs()[index]
    if a.jordan is not b.jordan:
        with pytest.raises(InputError, match="^tensor factors must share the algebra$"):
            tensor_rep(a, b)
        return
    t = tensor_rep(a, b)
    assert level(t) == level(a) + level(b)
    ia, ib = Matrix.identity(a.mdim), Matrix.identity(b.mdim)
    assert dense_rho(t) == [_kron(x, ib) + _kron(ia, y)
                            for x, y in zip(dense_rho(a), dense_rho(b))]
    assert t.module.degrees == tuple(da + db for da in a.module.degrees
                                     for db in b.module.degrees)


class _UnreadableTable:
    """Stands in for a JordanAlgebra's Fraction table: any read fails."""

    def __getitem__(self, key):
        raise AssertionError("the Fraction table was read")

    def __iter__(self):
        raise AssertionError("the Fraction table was read")

    def __len__(self):
        raise AssertionError("the Fraction table was read")


def _scaled_unit_algebra(unit):
    """k[t]/(t^2) on the basis b = (2/3) 1, t, read from JSON with the unit
    coordinates `unit`: ("3/2", "0") is its unit, whose coordinate is not
    integral, and ("1/2", "0") fails the unit axiom at b."""
    return algebra_from_dict({"labels": ["b", "t"], "degrees": [0, 1], "unit": unit,
                              "mult": [{"i": 0, "j": 0, "coords": ["2/3", "0"]},
                                       {"i": 0, "j": 1, "coords": ["0", "2/3"]}]})


_INTEGER_FORM_ALGEBRAS = {
    "truncated-poly-3": lambda: truncated_poly(3),
    "matrix-2": lambda: matrix_jordan(2),
    "gram-spin-factor": lambda: spin_factor([[Q(1, 3), 0, 0], [0, Q(2, 7), 0], [0, 0, 5]]),
    "json-unit-3/2": lambda: _scaled_unit_algebra(["3/2", "0"]),
    "json-unit-1/2": lambda: _scaled_unit_algebra(["1/2", "0"]),
}


@pytest.mark.parametrize("name", list(_INTEGER_FORM_ALGEBRAS))
def test_axioms_and_regular_reps_read_only_the_integer_form(name):
    # after construction the checks and the regular reps read J.products:
    # with the Fraction table unreadable they give the same reports and bytes
    def run(J):
        out = [str(validate(J))]
        for make in (regular_rep, doubled_regular_rep):
            rep = make(J)
            out += [json.dumps(rep_to_dict(rep)), str(check_bimodule(rep))]
        return out

    blind = _INTEGER_FORM_ALGEBRAS[name]()
    blind.table = _UnreadableTable()
    got = run(blind)
    assert got == run(_INTEGER_FORM_ALGEBRAS[name]())
    lines = got[0].splitlines()
    if name == "json-unit-1/2":
        assert lines[2] == "  FAIL unit axiom  [1*b != b]"
    else:
        assert lines[0].endswith(": PASS") and lines[2] == "  ok   unit axiom"
