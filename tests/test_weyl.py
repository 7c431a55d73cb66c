import random
import re
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import factorial

import pytest

from conftest import (canonical, column, dense_rho, dense_rho_of, jordan_block_3,
                      least_poly_witness, matrix_rep, nilpotent_matrix, noncommuting_rep,
                      one_gen_rep, projection_matrix, small_vector, sparse,
                      symbolic_dominance_detail)
from tkkwb import weyl
from tkkwb.jordan import (InputError, JordanAlgebra, matrix_jordan, spin_factor,
                          truncated_poly)
from tkkwb.jspace import (LevelError, check_jspace, dominance_check, dominance_operator,
                          doubled_regular_rep, extend_to_g0, level, matrix_defining_rep,
                          newton_rep, regular_rep, tensor_rep, zero_rep)
from tkkwb.linalg import LabeledSpace, Matrix, RowSpan, add_operator, random_vector, zero_vector
from tkkwb.multipoly import Poly
from tkkwb.tkk import build_sl2
from tkkwb.weyl import (ExtensionError, NoncommutingPowersError, TruncatedVerma,
                        WindowError, apply_generator, bracket_fidelity,
                        efr_power, efr_powers, efr_vanishes,
                        garland_coefficient, garland_coefficients,
                        lowering_power, snlt_oracle, weyl_dimensions, _multisets,
                        _StraightData)


def basis(n, i):
    v = zero_vector(n)
    v[i] = Q(1)
    return v


# ---------------------------------------------------------------------------
# cells


def test_cells_level0():
    r = zero_rep(truncated_poly(0))
    g0 = extend_to_g0(r)
    v = TruncatedVerma(g0, 0)
    # depth-l cells at degree 0 are spanned by the l-th lowering power of 1,
    # for the depths 0..n+1 = 0..1 of the window
    assert v.ell_max == 1
    for ell in range(2):
        assert v.cell_dim((ell, 0)) == 1
    assert v.cell_dim((2, 0)) == 0


def test_cells_newton1():
    r = newton_rep(1, 3)
    v = TruncatedVerma(extend_to_g0(r), 3)
    # at depth 1 and degree d: pairs (t^i, x^j) with i + j = d
    for d in range(4):
        assert v.cell_dim((1, d)) == d + 1
    # depth 0 reproduces the module
    for d in range(4):
        assert v.cell_dim((0, d)) == 1


def test_top_cells_match_module():
    r = newton_rep(2, 3)
    v = TruncatedVerma(extend_to_g0(r), 3)
    for d in range(4):
        assert v.cell_dim((0, d)) == r.module.degrees.count(d)


@pytest.mark.parametrize("degs", [(0, 1, 2, 3), (0, 0, 1, 1, 2), (2, 0, 3, 1), (1, 1)])
def test_multisets_match_filtered_combinations(degs):
    order = sorted(range(len(degs)), key=lambda i: (degs[i], i))
    for size in range(5):
        for bound in range(8):
            expected = [c for c in combinations_with_replacement(order, size)
                        if sum(degs[i] for i in c) <= bound]
            assert list(_multisets(order, degs, size, bound)) == expected, (size, bound)


def test_multisets_deeper_than_the_recursion_limit():
    # with a degree-0 unit the cells reach depth n + 1 at every degree bound
    deep = list(_multisets([0, 1], (0, 1), 1500, 1))
    assert deep == [(0,) * 1500, (0,) * 1499 + (1,)]


# ---------------------------------------------------------------------------
# single-generator actions


def test_lowering_insertion_commutes():
    r = newton_rep(1, 2)
    v = TruncatedVerma(extend_to_g0(r), 2)
    vec = {(0, 0): basis(v.cell_dim((0, 0)), 0)}
    fa = apply_generator(v, vec, ("f", 1))
    fafb = apply_generator(v, fa, ("f", 0))
    fb = apply_generator(v, vec, ("f", 0))
    fbfa = apply_generator(v, fb, ("f", 1))
    assert fafb == fbfa


def test_raise_of_single_lowering_is_rho():
    # e(1) f(a) m = rho(a) m
    r = newton_rep(2, 2)
    g0 = extend_to_g0(r)
    v = TruncatedVerma(g0, 4)
    rng = random.Random(1)
    d = r.jordan.dim
    for i in range(d):
        for mi in range(r.mdim):
            mdeg = r.module.degrees[mi]
            src = (0, mdeg)
            vec = {src: basis(v.cell_dim(src), v.cell_pos[src][((), mi)])}
            one_f = apply_generator(v, vec, ("f", i))
            back = apply_generator(v, one_f, ("e", 0))
            want_col = column(dense_rho(r)[i], mi)
            got = zero_vector(r.mdim)
            for cell, cv in back.items():
                ell, dd = cell
                assert ell == 0
                for (fkey, mj), pos in v.cell_pos[cell].items():
                    if cv[pos]:
                        assert fkey == ()
                        got[mj] = got[mj] + cv[pos]
            assert got == want_col


def test_weight_zero_action_on_lowering():
    # h(a) f(b) m = f(b) rho(a) m - 2 f(ab) m
    r = newton_rep(1, 3)
    g0 = extend_to_g0(r)
    v = TruncatedVerma(g0, 3)
    src = (0, 0)
    vec = {src: basis(v.cell_dim(src), 0)}  # the constant of the module
    fb = apply_generator(v, vec, ("f", 1))      # f(t) m
    hfb = apply_generator(v, fb, ("h", 1))      # h(t) f(t) m
    # expected: f(t) rho(t) m - 2 f(t^2) m, both in cell (1, 2)
    cell = (1, 2)
    expect = zero_vector(v.cell_dim(cell))
    mi_x = r.module.labels.index("m[1]")
    expect[v.cell_pos[cell][((1,), mi_x)]] += 1
    expect[v.cell_pos[cell][((2,), 0)]] -= 2
    assert hfb == {cell: expect}


def test_apply_generator_out_of_window():
    r = newton_rep(1, 1)
    v = TruncatedVerma(extend_to_g0(r), 1)
    top = {(2, 0): basis(v.cell_dim((2, 0)), 0)}
    with pytest.raises(WindowError):
        apply_generator(v, top, ("f", 0))


# ---------------------------------------------------------------------------
# contraction operators: straightening vs generating function


def test_efr_level0():
    r = zero_rep(truncated_poly(1))
    rng = random.Random(0)
    a = random_vector(rng, 2)
    assert efr_power(r, a, 1) == {}


def test_efr_level0_single_step_is_rho():
    # e(1) f(a) m = rho(a) m even when the level-0 action is nonzero
    r = one_gen_rep(0, projection_matrix(), "nonzero level 0")
    rng = random.Random(2)
    for _ in range(3):
        a = random_vector(rng, 2)
        assert efr_power(r, a, 1) == r.rho_of(a)


def test_efr_level1_formula():
    # e(1)^2 f(a)^2 = 2 (rho(a)^2 - rho(a^2))
    r = regular_rep(truncated_poly(2))
    g0 = extend_to_g0(r)
    rng = random.Random(3)
    from tkkwb.jordan import jpower
    for _ in range(3):
        a = random_vector(rng, 3)
        got = efr_power(g0, a, 2)
        ra = dense_rho_of(r, a)
        ra2 = dense_rho_of(r, jpower(r.jordan, a, 2))
        assert got == sparse((ra @ ra + ra2.scale(-1)).scale(2))


def test_efr_intermediate_depth_hand():
    # e(1) f(a)^2 m = 2 f(a) rho(a) m - 2 f(a^2) m, for a = t
    r = regular_rep(truncated_poly(2))
    g0 = extend_to_g0(r)
    a = basis(3, 1)
    got = efr_power(g0, a, 1)
    ident = Matrix.identity(3)
    want = {(1,): sparse(dense_rho(r)[1].scale(2)), (2,): sparse(ident.scale(-2))}
    assert got == want


def test_garland_rr_is_depth_hand():
    r = regular_rep(truncated_poly(2))
    g0 = extend_to_g0(r)
    a = basis(3, 1)
    got = garland_coefficient(g0, a, 1)
    want = {(1,): sparse(dense_rho(r)[1].scale(2)), (2,): sparse(Matrix.identity(3).scale(-2))}
    assert got == want
    # rr = n+1 = 2: 2 (rho(a)^2 - rho(a^2))
    top = garland_coefficient(g0, a, 2)
    ra, ra2 = dense_rho(r)[1:3]
    assert top == sparse((ra @ ra + ra2.scale(-1)).scale(2))


def test_lowering_power_multinomial():
    # (2 f0 + 3 f1)^2 = 4 f0^2 + 12 f0 f1 + 9 f1^2
    assert lowering_power([Q(2), Q(3)], 2) == {(0, 0): 4, (0, 1): 12, (1, 1): 9}


GARLAND_CASES = [
    (lambda: regular_rep(truncated_poly(2)), 1),
    (lambda: matrix_defining_rep(2), 1),
    (lambda: newton_rep(2, 2), 2),
    (lambda: newton_rep(3, 2), 3),
]


@pytest.mark.parametrize("make_rep,n", GARLAND_CASES)
def test_garland_matches_straightening(make_rep, n):
    r = make_rep()
    g0 = extend_to_g0(r)
    rng = random.Random(17)
    for _ in range(2):
        a = small_vector(rng, r.jordan.dim, 5, 3)
        for rr in sorted({0, 1, n, n + 1}):
            assert efr_power(g0, a, rr) == garland_coefficient(g0, a, rr)


@pytest.mark.parametrize("symbolic", [False, True], ids=["numeric", "symbolic"])
@pytest.mark.parametrize("make_rep,n", GARLAND_CASES,
                         ids=["regular-poly2", "defining-M2", "newton-2-2", "newton-3-2"])
def test_all_depth_routes_match_single_depth(make_rep, n, symbolic):
    g0 = extend_to_g0(make_rep())
    assert level(g0.rep) == n
    d = g0.rep.jordan.dim
    a = Poly.variables(d) if symbolic else \
        small_vector(random.Random(29), d, 5, 3)
    rrs = [n + 1, 0, n, 1, 0] + list(range(n + 2))
    for plural, single in ((efr_powers, efr_power), (garland_coefficients, garland_coefficient)):
        got = plural(g0, a, rrs)
        assert sorted(got) == list(range(n + 2))
        for rr in range(n + 2):
            assert got[rr] == single(g0, a, rr), (plural.__name__, rr)
            # an operator at rr = n + 1, a lowering polynomial without an
            # empty operator below it
            ops = [got[rr]] if rr == n + 1 else list(got[rr].values())
            assert all(canonical(op) and (op or rr == n + 1) for op in ops)
        for bad in ([n + 2], [0, -1]):
            with pytest.raises(ValueError, match=rf"^need 0 <= rr <= {n + 1}$"):
                plural(g0, a, bad)


@pytest.mark.parametrize("make_rep", [
    lambda: newton_rep(2, 2),
    lambda: matrix_defining_rep(2),
    lambda: doubled_regular_rep(spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]])),
], ids=["newton-2-2", "defining-M2", "doubled-spin-2"])
def test_symbolic_garland_matches_straightening_at_every_depth(make_rep):
    # a generic element: every coefficient is a polynomial in its coordinates
    g0 = extend_to_g0(make_rep())
    n = level(g0.rep)
    a = Poly.variables(g0.rep.jordan.dim)
    for rr in range(n + 2):
        assert efr_power(g0, a, rr) == garland_coefficient(g0, a, rr), rr


def test_efr_equals_scaled_dominance_sum(instances):
    rng = random.Random(23)
    for name, rep, _ in instances:
        if level(rep) > 3 or rep.mdim > 12:
            continue
        g0 = extend_to_g0(rep)
        a = small_vector(rng, rep.jordan.dim, 4, 2)
        n = level(rep)
        got = efr_power(g0, a, n + 1)
        want = add_operator({}, dominance_operator(rep, a), factorial(n + 1))
        assert got == want, name
        assert canonical(want), name


def test_windowed_chain_matches_windowfree_contraction():
    # drive f then e generator-by-generator through the cells and compare
    # with the formal-lowering-polynomial engine: both straighten with
    # raise_basis, so this checks the cell positions, the window bookkeeping
    # and the f/e chain through the cells
    from tkkwb.jspace import level as _level
    r = newton_rep(2, 2)
    g0 = extend_to_g0(r)
    n = _level(r)
    v = TruncatedVerma(g0, 6)  # f^(n+1) reaches depth n+1, the deepest cells
    for mi in range(r.mdim):
        mdeg = r.module.degrees[mi]
        src = (0, mdeg)
        vec = {src: zero_vector(v.cell_dim(src))}
        vec[src][v.cell_pos[src][((), mi)]] = Q(1)
        cur = vec
        for _ in range(n + 1):
            cur = apply_generator(v, cur, ("f", 1))
        for _ in range(n + 1):
            cur = apply_generator(v, cur, ("e", 0))
        got = zero_vector(r.mdim)
        for cell, cv in cur.items():
            for (fkey, mj), pos in v.cell_pos[cell].items():
                if cv[pos]:
                    assert fkey == ()
                    got[mj] += cv[pos]
        a = zero_vector(r.jordan.dim)
        a[1] = Q(1)
        top = efr_power(g0, a, n + 1)
        assert got == [top.get(k, {}).get(mi, 0) for k in range(r.mdim)]


def test_noncommuting_powers_diagnostic():
    g0 = G0_no_checks(noncommuting_rep())
    with pytest.raises(NoncommutingPowersError):
        garland_coefficient(g0, basis(3, 1), 2)


def G0_no_checks(rep):
    # the diagnostic under test fires before any brace data is used
    from tkkwb.jspace import G0Rep
    from tkkwb.tkk import build_sl2
    ext = build_sl2(rep.jordan)
    from tkkwb.report import Report
    return G0Rep(rep, ext, 1, [{}] * rep.jordan.dim, [{}] * ext.tail_dim, Report("unchecked"))


def test_level_four_instance():
    # one notch past the acceptance band: partitions of 5 drive the sums
    r = newton_rep(4, 2)
    from tkkwb.jspace import check_jspace, dominance_check
    assert check_jspace(r).ok
    assert dominance_check(r).ok
    assert efr_vanishes(r)[0]


def test_efr_vanishes_modes_agree():
    good = newton_rep(2, 2)
    assert efr_vanishes(good) == (True, None)
    bad = one_gen_rep(1, projection_matrix(), "ctl")
    ok, witness = efr_vanishes(bad)
    assert not ok and witness == ((1, 1), 0) == poly_route_witness(bad)


def poly_route_witness(rep):
    """The least (mu, i) of e(1)^(n+1) f(x)^(n+1) at the generic element
    x = Poly.variables(d) (`least_poly_witness`); None when it is zero."""
    return least_poly_witness(efr_power(extend_to_g0(rep), Poly.variables(rep.jordan.dim),
                                        level(rep) + 1))


def test_efr_vanishes_is_the_symbolic_verdict_with_the_first_witness(instances):
    # the exact verdict equals symbolic dominance, and its witness is the
    # first monomial and column of the Poly route, in the sweep's order, and
    # the one the symbolic verdict names
    for name, rep, expected in instances:
        witness = poly_route_witness(rep)
        assert efr_vanishes(rep) == (witness is None, witness), name
        dominance = dominance_check(rep)
        assert dominance.ok is expected is (witness is None), name
        assert dominance.items[0].detail == symbolic_dominance_detail(rep, witness), name
    assert sum(not expected for _, _, expected in instances) == 4


@pytest.mark.parametrize("n,t,t2", [(1, (1, 1), (1, 0)), (2, (0, 1), (1, 0)),
                                    (2, (0, 0), (0, 1))])
def test_efr_vanishes_witness_is_the_first_in_sweep_order(n, t, t2):
    # commuting diagonal images over the ungraded k[t]/(t^3): several
    # multisets and module indices fail, and the witness is the least
    J = truncated_poly(2, graded=False)
    rho = [Matrix.identity(2).scale(Q(n))] + \
        [Matrix(2, 2, [[Q(x[0]), Q(0)], [Q(0), Q(x[1])]]) for x in (t, t2)]
    rep = matrix_rep(J, LabeledSpace(("v0", "v1"), (0, 0)), rho, name="diagonal")
    assert check_jspace(rep).ok and not dominance_check(rep).ok
    witness = poly_route_witness(rep)
    assert witness is not None and efr_vanishes(rep) == (False, witness)
    assert dominance_check(rep).items[0].detail == symbolic_dominance_detail(rep, witness)


def test_efr_vanishes_rejects_an_unknown_mode():
    # there is no mode, so no silent sampled check: any mode is an error
    for mode in ("symbolc", "symbolic", "random"):
        with pytest.raises(TypeError, match="mode"):
            efr_vanishes(newton_rep(2, 2), mode=mode)


# ---------------------------------------------------------------------------
# dimension tables


def test_snlt_oracle_values():
    t = snlt_oracle(2, 3)
    # two symbols of opposite sign with degrees summing to 1
    assert t.dim(0, 1) == 2
    # all-plus at degree zero is unique, for every n
    for n in (1, 2, 3):
        assert snlt_oracle(n, 2).dim(n, 0) == 1
    # level 1 is the natural current module: one dimension everywhere
    t1 = snlt_oracle(1, 4)
    for d in range(5):
        assert t1.dim(1, d) == 1 and t1.dim(-1, d) == 1


def test_snlt_oracle_level0():
    # one empty multiset: the trivial table, which is the zero rep's
    assert snlt_oracle(0, 2).dims == {(0, 0): 1}
    assert snlt_oracle(0, 2).dims == weyl_dimensions(zero_rep(truncated_poly(2)), 2).dims
    with pytest.raises(InputError):
        snlt_oracle(-1, 2)


def test_weyl_dims_rejects_a_rep_that_breaks_the_grading():
    # rho(t) maps the degree-1 module vector to itself: a J-space (all images
    # commute and Inn J = 0) whose extension passes, but no graded module
    J = truncated_poly(2)
    module = LabeledSpace(("m0", "m1"), (0, 1))
    t = Matrix.zeros(2, 2)
    t.data[1][1] = Q(1)
    r = matrix_rep(J, module, [Matrix.identity(2), t, Matrix.zeros(2, 2)], name="off grade")
    message = "rho(t) entry (1,1) breaks the grading"
    item = check_jspace(r).items[0]
    assert (item.name, item.ok, item.detail) == ("rho respects the grading", False, message)
    assert extend_to_g0(r).report.ok
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        weyl_dimensions(r, 2)


def test_weyl_zero_rep_is_module():
    r = zero_rep(truncated_poly(0))
    table = weyl_dimensions(r, 0)
    assert table.dims == {(0, 0): 1}
    assert table.meta["stable"] and table.meta["certificate_ok"]


def test_weyl_matches_oracle_small():
    for n, D in ((1, 3), (2, 2)):
        table = weyl_dimensions(newton_rep(n, D), D)
        oracle = snlt_oracle(n, D)
        assert table == oracle, table.diff(oracle)
        assert table.meta["stable"]
        assert table.meta["certificate_ok"]
        assert table.meta["top_weight_preserved"]


def test_weyl_top_row_is_module_dims():
    r = newton_rep(2, 3)
    table = weyl_dimensions(r, 3)
    for d in range(4):
        assert table.dim(2, d) == r.module.degrees.count(d)


def test_weyl_nondominant_flagged():
    bad = one_gen_rep(1, projection_matrix(), "ctl")
    table = weyl_dimensions(bad, 0)
    assert table.meta["top_weight_preserved"] is False
    # the quotient collapses the module where the control fails
    assert table.meta["stable"]


@pytest.mark.parametrize("make_rep,D", [
    (lambda: zero_rep(truncated_poly(2)), 2),
    (lambda: one_gen_rep(0, projection_matrix(), "level-0 control"), 0),
    (lambda: one_gen_rep(1, projection_matrix(), "level-1 control"), 0),
    (lambda: one_gen_rep(2, projection_matrix(), "level-2 control"), 0),
    (lambda: one_gen_rep(1, nilpotent_matrix(), "level-1 nilpotent"), 0),
    (lambda: one_gen_rep(2, jordan_block_3(), "level-2 jordan block"), 0),
    (lambda: regular_rep(truncated_poly(3)), 2),
    (lambda: matrix_defining_rep(2), 0),
    (lambda: newton_rep(2, 3), 2),
    (lambda: doubled_regular_rep(matrix_jordan(2)), 0),
    (lambda: doubled_regular_rep(truncated_poly(2)), 2),
], ids=["zero", "control-0", "control-1", "control-2", "nilpotent-1", "jordan-block-2",
        "regular", "defining-M2", "newton-2-3", "doubled-M2", "doubled-poly2"])
def test_top_weight_preserved_agrees_with_dominance(make_rep, D):
    rep = make_rep()
    table = weyl_dimensions(rep, D)
    assert table.meta["stable"] and table.meta["certificate_ok"]
    assert table.meta["top_weight_preserved"] == dominance_check(rep).ok


ENTRY_POINTS = {
    "weyl_dimensions": lambda r, a: weyl_dimensions(r, 1),
    "TruncatedVerma": lambda r, a: TruncatedVerma(r, 1),
    "efr_power": lambda r, a: efr_power(r, a, 0),
    "efr_vanishes": lambda r, a: efr_vanishes(r),
    "garland_coefficient": lambda r, a: garland_coefficient(r, a, 0),
}


@pytest.mark.parametrize("as_g0", [False, True], ids=["jspace", "g0"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_raise_extension_error(entry, as_g0):
    r = noncommuting_rep()
    with pytest.raises(ExtensionError) as info:
        ENTRY_POINTS[entry](extend_to_g0(r) if as_g0 else r, basis(3, 1))
    assert info.value.item.name == "well-defined on the brace quotient"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_a_negative_level(entry):
    r = one_gen_rep(-1, Matrix.zeros(1, 1), "negative level")
    with pytest.raises(LevelError, match="^level -1 is negative$"):
        ENTRY_POINTS[entry](r, basis(2, 1))


def test_weyl_deterministic_across_runs():
    r = newton_rep(2, 2)
    t1 = weyl_dimensions(r, 2)
    t2 = weyl_dimensions(r, 2)
    t3 = weyl_dimensions(r, 2)
    assert t1.dims == t2.dims == t3.dims
    assert t1.meta == t2.meta == t3.meta
    assert t1.to_csv_lines() == t2.to_csv_lines()


def test_weyl_closing_pass_confirms_the_closure(monkeypatch):
    # a killed part that claims to contain nothing fails the certificate
    monkeypatch.setattr(RowSpan, "contains", lambda self, vec: False)
    table = weyl_dimensions(newton_rep(2, 2), 2)
    assert table.meta["stable"] is True
    assert table.meta["certificate_ok"] is False


def _tensor_power_of_defining(m, k):
    base = matrix_defining_rep(m)
    rep = base
    for _ in range(k - 1):
        rep = tensor_rep(rep, base)
    return rep


@pytest.mark.parametrize("make_rep, D", [
    (lambda: newton_rep(3, 5), 5),
    (lambda: newton_rep(2, 5), 5),
    (lambda: newton_rep(4, 4), 4),
    (lambda: _local_rep(truncated_poly(6), 7), 6),
    (lambda: _local_rep(truncated_poly(7), 6), 7),
    (lambda: _tensor_power_of_defining(2, 4), 0),
], ids=["newton-3-5", "newton-2-5", "newton-4-4", "local-7-6", "local-6-7",
        "defining-M2-fourth-power"])
def test_weyl_sweeps_close_the_killed_part_under_raising(monkeypatch, make_rep, D):
    # the closing pass applies no raising generator: every raising image of
    # a killed row lies in the killed part once the sweeps stop
    seen = []
    original = weyl._leaves

    def spy(verma, X, gen, cell):
        seen.append((verma, X, gen))
        return original(verma, X, gen, cell)

    monkeypatch.setattr(weyl, "_leaves", spy)
    table = weyl_dimensions(make_rep(), D)
    assert table.meta["stable"] and table.meta["certificate_ok"]
    assert seen and all(gen[0] != "e" for _, _, gen in seen)
    verma, X, _ = seen[0]
    images = 0
    for cell, span in X.items():
        for i in range(verma.J.dim):
            status, tgt = verma.target_of(("e", i), cell)
            if status != "ok":
                continue
            _, cols = verma.action_columns(("e", i), cell)
            for row in span.rows.values():
                img = weyl._image(cols, row)
                if img:
                    assert tgt in X and X[tgt].contains(img), (i, cell)
                    images += 1
    assert images


def test_weyl_closing_pass_checks_the_certificate(monkeypatch):
    # a corrupted weight-zero action leaves the raising closure stable but
    # moves killed vectors out of the killed part
    original = TruncatedVerma.action_columns

    def corrupted(self, gen, cell):
        den, cols = original(self, gen, cell)
        if gen != ("h", 0):
            return den, cols
        tdim = self.cell_dim(self.target_of(gen, cell)[1])
        return den, [{t: 1 for t in range(tdim)} for _ in cols]

    monkeypatch.setattr(TruncatedVerma, "action_columns", corrupted)
    table = weyl_dimensions(newton_rep(2, 2), 2)
    assert table.meta["stable"] is True
    assert table.meta["certificate_ok"] is False


@pytest.mark.parametrize("make_rep, D", [
    (lambda: newton_rep(2, 3), 3),
    (lambda: _local_rep(truncated_poly(4), 3), 4),
], ids=["newton-2-3", "local-3-4"])
def test_closure_builds_no_raising_column_below_depth_n_plus_1(monkeypatch, make_rep, D):
    # the killed part fills every cell deeper than n, so the raising
    # generators of a cell deeper than n + 1 only land in full cells
    built = []
    original = TruncatedVerma.action_columns

    def recording(self, gen, cell):
        built.append((gen, cell))
        return original(self, gen, cell)

    monkeypatch.setattr(TruncatedVerma, "action_columns", recording)
    rep = make_rep()
    n = level(rep)
    table = weyl_dimensions(rep, D)
    assert table.meta["stable"] and table.meta["certificate_ok"]
    assert any(gen[0] == "e" and cell[0] == n + 1 for gen, cell in built)
    assert [(gen, cell) for gen, cell in built if gen[0] == "e" and cell[0] > n + 1] == []


@pytest.mark.parametrize("m, k, dims", [
    (3, 2, (9, 18, 9)),
    (2, 4, (16, 52, 74, 52, 16)),
], ids=["defining-M3-squared", "defining-M2-fourth-power"])
def test_weyl_tensor_powers_of_defining_reps(m, k, dims):
    # TKK of M_m+ in degree 0 is sl_2m; the quotient of the k-th tensor power
    # of the defining rep is the sum of f^lambda copies of L(lambda) over the
    # partitions lambda of k with at most m rows, so its dimension is (2m)^k
    # less the parts with more rows (none for m = 3, k = 2; 3 * 15 + 1 for
    # m = 2, k = 4)
    table = weyl_dimensions(_tensor_power_of_defining(m, k), 0)
    assert table.dims == {(k - 2 * j, 0): dim for j, dim in enumerate(dims)}
    assert table.meta["stable"] and table.meta["certificate_ok"]


def test_weyl_defining_rep_of_3x3_matrices():
    # an algebra all in degree 0: the degree bound prunes nothing, and one
    # cell holds 1485 vectors; the quotient is the 6-dim natural module
    table = weyl_dimensions(matrix_defining_rep(3), 1)
    assert table.dims == {(1, 0): 3, (-1, 0): 3}
    assert table.meta["stable"] and table.meta["certificate_ok"]


def test_weyl_closure_builds_no_cell_below_depth_n_plus_1(monkeypatch):
    # raising lowers the depth by one, so only the depth-(n+1) cells feed the
    # cells of depth <= n; the JSON window key counts the depths 0..n+1 built
    deepest = []
    original = TruncatedVerma.__init__

    def recording(self, *args):
        original(self, *args)
        deepest.append(max(ell for ell, _ in self.cells))

    monkeypatch.setattr(TruncatedVerma, "__init__", recording)
    r = newton_rep(2, 3)
    table = weyl_dimensions(r, 3)
    assert table.meta["stable"] and table.meta["certificate_ok"]
    assert deepest == [level(r) + 1]
    assert table.to_json_dict()["window"] == level(r) + 2 == deepest[0] + 1


def test_weyl_table_export():
    table = weyl_dimensions(newton_rep(1, 2), 2)
    csv = table.to_csv_lines()
    assert csv[0] == "weight,degree,dim"
    assert len(csv) == 1 + len(table.dims)
    data = table.to_json_dict()
    assert data["level"] == 1 and data["max_degree"] == 2
    assert all(len(row) == 3 for row in data["dims"])


@pytest.mark.parametrize("n,D", [(1, 2), (2, 3)], ids=["newton-1-2", "newton-2-3"])
def test_bracket_fidelity_commutative(n, D):
    r = newton_rep(n, D)
    v = TruncatedVerma(extend_to_g0(r, build_sl2(r.jordan)), D)
    rep = bracket_fidelity(v)
    assert rep.ok, rep.first_failure()


def test_bracket_fidelity_with_braces():
    r = matrix_defining_rep(2)
    v = TruncatedVerma(extend_to_g0(r, build_sl2(r.jordan)), 0)
    rep = bracket_fidelity(v)
    assert rep.ok, rep.first_failure()


def _local_rep(J, n):
    """rho(1) = n on a 1-dim module, rho of every other basis element 0."""
    module = LabeledSpace(("v",), (0,))
    return matrix_rep(J, module, [Matrix.identity(1).scale(Q(n) * c) for c in J.unit])


def _relabeled(J, perm):
    """J with new basis element k the old basis element perm[k]."""
    new = {old: k for k, old in enumerate(perm)}
    table = [[{new[r]: c for r, c in J.table[i][j].items()} for j in perm] for i in perm]
    space = LabeledSpace(tuple(J.space.labels[i] for i in perm),
                         tuple(J.space.degrees[i] for i in perm))
    return JordanAlgebra(space, [J.unit[i] for i in perm], table, "relabeled")


@pytest.mark.parametrize("n", [2, 3])
def test_weyl_independent_of_basis_order(n):
    # degrees 0, 3, 1, 2 fall as the index grows: cells list multisets in
    # (degree, index) order while their keys are index-sorted
    J = truncated_poly(3)
    base = weyl_dimensions(_local_rep(J, n), 4)
    shuffled = _local_rep(_relabeled(J, [0, 3, 1, 2]), n)
    assert weyl_dimensions(shuffled, 4).dims == base.dims
    rep = bracket_fidelity(TruncatedVerma(extend_to_g0(shuffled, build_sl2(shuffled.jordan)), 4))
    assert rep.ok, rep.first_failure()


def test_bracket_fidelity_checks_the_cached_columns(monkeypatch):
    # the check reads the columns the closure runs on: doubling one
    # weight-zero action breaks [e(1), f(t)] = h(t)
    original = TruncatedVerma.action_columns

    def doubled(self, gen, cell):
        den, cols = original(self, gen, cell)
        if gen != ("h", 1):
            return den, cols
        return den, [{t: 2 * c for t, c in col.items()} for col in cols]

    monkeypatch.setattr(TruncatedVerma, "action_columns", doubled)
    r = newton_rep(2, 3)
    v = TruncatedVerma(extend_to_g0(r, build_sl2(r.jordan)), 3)
    rep = bracket_fidelity(v)
    assert not rep.ok
    assert rep.first_failure().detail == "generators ('e', 0),('f', 1) on cell (1, 0)"


def test_straightening_coefficients_are_ints(monkeypatch):
    # the closure's straightening runs in integers over one denominator
    seen = []

    def recording(original, images):
        def wrapper(*args):
            out = original(*args)
            seen.extend(type(c) for img in (out if images else [out]) for c in img.values())
            return out
        return wrapper

    monkeypatch.setattr(_StraightData, "raise_basis",
                        recording(_StraightData.raise_basis, False))
    monkeypatch.setattr(TruncatedVerma, "_images", recording(TruncatedVerma._images, True))
    weyl_dimensions(newton_rep(3, 5), 5)
    assert seen and set(seen) == {int}


def test_straightening_plans_each_multiset_once(monkeypatch):
    # what straightening needs of a multiset does not depend on the
    # generator or the module index, so the raising and weight-zero
    # generators on every cell read one plan per multiset
    planned = []
    plan = _StraightData._plan

    def recorded(self, fkey):
        planned.append(fkey)
        return plan(self, fkey)

    monkeypatch.setattr(_StraightData, "_plan", recorded)
    verma = TruncatedVerma(extend_to_g0(newton_rep(3, 3)), 3)
    assert verma.rep.mdim > 1
    acted = set()
    for gen in verma.generators:
        for cell in sorted(verma.cells):
            if verma.target_of(gen, cell)[0] == "ok":
                verma.action_columns(gen, cell)
                if gen[0] != "f":
                    acted.update(fkey for fkey, _ in verma.cells[cell])
    assert len(planned) == len(set(planned)) and set(planned) == acted


def ref_plan(fkey):
    """(b, mult, nu, [(c, count, fkey - b - c)]) per distinct factor b of
    fkey, from a Counter and list.remove."""
    counts = Counter(fkey)
    values = sorted(counts)
    terms = []
    for b in values:
        mult = counts[b]
        nu = list(fkey)
        nu.remove(b)
        pairs = []
        for c in values:
            count = mult * (mult - 1) // 2 if c == b else mult * counts[c]
            if c >= b and count:
                rest = list(nu)
                rest.remove(c)
                pairs.append((c, count, tuple(rest)))
        terms.append((b, mult, tuple(nu), pairs))
    return terms


def test_plans_read_from_runs_match_a_counted_reference():
    # every sorted multiset of size <= 8 over 4 letters: a factor repeats
    # up to n + 1 = 8 times in the benchmark's windows
    data = weyl.straightening(extend_to_g0(newton_rep(1, 3)))
    cases = 0
    for size in range(9):
        for fkey in combinations_with_replacement(range(4), size):
            plan = data.plans[fkey]
            ref = ref_plan(fkey)
            assert [(b, mult, nu, [(c, count) for c, count, _ in pairs])
                    for b, mult, nu, _, pairs in plan] == \
                [(b, mult, nu, [(c, count) for c, count, _ in pairs])
                 for b, mult, nu, pairs in ref], fkey
            # the insertions are the memos of the reference multisets
            for (_, _, nu, ins, pairs), (_, _, _, ref_pairs) in zip(plan, ref):
                assert ins is data.insertions[nu]
                assert all(pins is data.insertions[rest]
                           for (_, _, pins), (_, _, rest) in zip(pairs, ref_pairs)), fkey
            cases += 1
    assert cases == 495
