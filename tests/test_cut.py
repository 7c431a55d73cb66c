"""The degree cut of the weight-zero extension, against the uncut extension.

`weyl dims` builds only what its window reads: the brace space and the
weight-zero block of the central extension in the degrees <= B, with
B = max(D_max, max module degree) - min module degree.  These tests check
that the cut changes no brace dimension, bracket, table, meta key or
verdict in the degrees it keeps, and that a cut extension refuses every
computation that would read above it.
"""

import json
from collections import Counter
from fractions import Fraction as Q

import pytest

from conftest import pair_fractions, symmetric_words_jordan
from tkkwb.cli import main
from tkkwb.jordan import algebra_from_dict, algebra_to_dict, matrix_jordan, spin_factor, \
    truncated_poly
from tkkwb.jspace import (JSpaceRep, degree_cut, doubled_regular_rep, extend_to_g0,
                          newton_rep, rep_to_dict)
from tkkwb.linalg import LabeledSpace
from tkkwb.tkk import BraceSpace, build_sl2, validate_lie
from tkkwb.weyl import (ExtensionError, TruncatedVerma, WindowError, bracket_fidelity,
                        checked_extension, efr_powers, weyl_dimensions)


def graded_degenerate_spin(k):
    """The spin factor of the zero form on k vectors, graded with the unit in
    degree 0 and the vectors in degree 1: a brace space in degree 2."""
    data = algebra_to_dict(spin_factor([[0] * k for _ in range(k)]))
    data["degrees"] = [0] + [1] * k
    return algebra_from_dict(data)


def local_rep(J, n):
    """rho(1) = n on a 1-dim module in degree 0, rho = 0 in positive degree."""
    return JSpaceRep(J, LabeledSpace(("v",), (0,)),
                     [{0: {0: n * c}} if c else {} for c in J.unit], name=f"local-{n}")


def shift_rep(D, extra):
    """Level 2 over truncated-poly:D on a module in degrees 0..3, rho(t) the
    shift up one degree and rho(t^2) = extra: [rho(t), rho(t^2)] != 0, so
    the extension fails at the defining-span row of the pair (t, t^2), in
    degree 3, the module's spread."""
    rho = [{r: {r: 2} for r in range(4)}, {r + 1: {r: 1} for r in range(3)}, extra]
    rho += [{}] * (D + 1 - len(rho))
    return JSpaceRep(truncated_poly(D), LabeledSpace(("a", "b", "c", "d"), (0, 1, 2, 3)),
                     rho, name=f"shift rep over truncated-poly:{D}")


def degrees_of(bs):
    degs = bs.jordan.space.degrees
    return Counter(degs[a] + degs[b] for a, b in bs.rep_pairs)


def classes(bs):
    """{pair: its class over the representative pairs}."""
    fractions = pair_fractions(bs)
    return {(i, j): {bs.rep_pairs[k]: c for k, c in fractions[(i, j)].items()}
            for i, j in bs.pairs}


def s_rows(bs):
    """The defining-span RREF rows over pairs, in order."""
    return [{bs.pairs[t]: c for t, c in row.items()} for row in bs.s_rows]


CUT_ALGEBRAS = {
    **{f"truncated-poly:{D}": (lambda D=D: truncated_poly(D)) for D in range(2, 9)},
    **{f"newton-{n}-{c}": (lambda n=n, c=c: newton_rep(n, c).jordan)
       for n, c in ((3, 5), (2, 5), (4, 4), (2, 6))},
    "J(2)-to-4": lambda: symmetric_words_jordan(2, 4),
    "J(2)-to-5": lambda: symmetric_words_jordan(2, 5),
    "J(3)-to-3": lambda: symmetric_words_jordan(3, 3),
    "degenerate-spin-3": lambda: graded_degenerate_spin(3),
}


@pytest.mark.parametrize("name", sorted(CUT_ALGEBRAS))
def test_brace_space_cut_matches_full_in_every_kept_degree(name):
    J = CUT_ALGEBRAS[name]()
    full = BraceSpace(J)
    top = 2 * max(J.space.degrees)
    degs = J.space.degrees
    for B in range(top + 1):
        cut = BraceSpace(J, B)
        assert degrees_of(cut) == Counter({k: v for k, v in degrees_of(full).items() if k <= B})
        assert cut.pairs == [(i, j) for i, j in full.pairs if degs[i] + degs[j] <= B]
        assert classes(cut) == {p: c for p, c in classes(full).items() if p in cut.pair_index}
        assert s_rows(cut) == [row for row in s_rows(full)
                               if sum(degs[x] for x in next(iter(row))) <= B]
    assert classes(BraceSpace(J, top)) == classes(full)


def test_free_jordan_window_brace_dims():
    # the per-degree brace dims of the windows J(2), J(3), as the ROADMAP's
    # prototype printed them cut at the window's degree
    assert degrees_of(BraceSpace(symmetric_words_jordan(2, 5), 5)) == \
        Counter({2: 1, 3: 2, 4: 6, 5: 12})
    assert degrees_of(BraceSpace(symmetric_words_jordan(3, 3), 3)) == Counter({2: 3, 3: 8})


def labeled(g, keep):
    """g's bracket table over labels, at the pairs keep(p, q) accepts."""
    lab = g.labels
    return {(lab[p], lab[q]): {lab[t]: c for t, c in out.items()}
            for (p, q), out in g.table.items() if keep(p, q)}


@pytest.mark.parametrize("name", ["truncated-poly:5", "J(2)-to-4", "J(3)-to-3",
                                  "degenerate-spin-3", "matrix-2"])
def test_weight_zero_block_matches_full_entry_by_entry(name):
    J = matrix_jordan(2) if name == "matrix-2" else CUT_ALGEBRAS[name]()
    full = build_sl2(J)
    top = 2 * max(J.space.degrees)
    for B in [None, *range(top + 1)]:
        def kept(p, q, g=full):
            return B is None or g.degrees[p] + g.degrees[q] <= B

        block = build_sl2(J, B, weight_zero=True)
        assert block.weight_zero_only and block.bound == B
        assert all(block.weights[p] == block.weights[q] == 0 for p, q in block.table)
        assert labeled(block, lambda p, q: True) == labeled(
            full, lambda p, q: full.weights[p] == full.weights[q] == 0 and kept(p, q))
        cut = build_sl2(J, B)
        assert not cut.weight_zero_only
        assert labeled(cut, lambda p, q: True) == labeled(full, kept)
        # the part above B is an ideal: the cut algebra is a Lie algebra
        assert validate_lie(cut).ok


def uncut(rep):
    return extend_to_g0(rep, build_sl2(rep.jordan))


WEYL_CASES = {
    "newton-3-5": (lambda: newton_rep(3, 5), 5, 5),
    "newton-2-5": (lambda: newton_rep(2, 5), 5, 5),
    "newton-4-4": (lambda: newton_rep(4, 4), 4, 4),
    "local-7-6": (lambda: local_rep(truncated_poly(6), 7), 6, 6),
    "local-6-7": (lambda: local_rep(truncated_poly(7), 6), 7, 7),
    "local-4-4": (lambda: local_rep(truncated_poly(4), 4), 4, 4),
    # a window narrower than the module: B is the module's spread
    "newton-2-6-D3": (lambda: newton_rep(2, 6), 3, 6),
    "J(2)-to-4-local-2": (lambda: local_rep(symmetric_words_jordan(2, 4), 2), 3, 3),
    "degenerate-spin-3-doubled": (lambda: doubled_regular_rep(graded_degenerate_spin(3)), 2, 2),
}


@pytest.mark.parametrize("name", sorted(WEYL_CASES))
def test_weyl_dims_cut_equals_uncut(name):
    make, D, B = WEYL_CASES[name]
    rep = make()
    g0, _ = checked_extension(rep, D)
    assert g0.bound == B and g0.ext.weight_zero_only
    cut = weyl_dimensions(rep, D)
    full = weyl_dimensions(uncut(rep), D)
    assert cut.to_json_dict() == full.to_json_dict()
    assert weyl_dimensions(g0, D).to_json_dict() == full.to_json_dict()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chain_rep():
    """Level 1 over the degenerate spin factor of 3 vectors on a module in
    degrees 0..3, rho(v_k) the step from degree k - 1 to k: well-defined,
    but [{v_2, v_3}, h(v_1)] = 0 while [[rho(v_2), rho(v_3)], rho(v_1)] is
    not, a bracket mismatch in degree 3, the module's spread."""
    return JSpaceRep(graded_degenerate_spin(3), LabeledSpace(("a", "b", "c", "d"), (0, 1, 2, 3)),
                     [{r: {r: 1} for r in range(4)}, {1: {0: 1}}, {2: {1: 1}}, {3: {2: 1}}],
                     name="chain rep")


FAILING = {
    # (the rep, its algebra's JSON reference, its first failing item)
    "defining-span row": (lambda: shift_rep(3, {2: {0: 1}, 3: {1: 2}}), "truncated-poly:3",
                          "well-defined on the brace quotient",
                          "defining-span generator 3 acts nonzero"),
    "bracket mismatch": (chain_rep, None, "homomorphism on the weight-zero bracket table",
                         "bracket mismatch at (h(v1),{v2,v3})"),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failure_above_the_window_within_the_spread_still_fails(name, capsys, tmp_path):
    # the first failure lies in degree 3, above every --max-degree below 3
    # but within the module's spread 3, so the cut at 3 keeps it
    make, ref, item, detail = FAILING[name]
    rep = make()
    want = uncut(rep).report.first_failure()
    assert (want.name, want.detail) == (item, detail)
    for D in range(4):
        with pytest.raises(ExtensionError) as exc:
            weyl_dimensions(rep, D)
        assert exc.value.item == want
    if ref is None:
        ref = algebra_to_dict(rep.jordan)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_dict(rep, ref)))
    code, out, err = run(capsys, "weyl", "dims", "--rep", str(path), "--max-degree", "0")
    assert (code, out) == (1, "")
    assert err == f"weight-zero extension of {path}: FAIL {want.name}  [{want.detail}]\n"


def test_cut_renumbers_a_failing_defining_span_row():
    # over truncated-poly:5 the pairs (t^0, t^4), (t^0, t^5), above the cut
    # at 3, precede (t, t^2) in pair order: the same row, numbered 3, not 5
    rep = shift_rep(5, {2: {0: 1}, 3: {1: 2}})
    cut, full = extend_to_g0(rep, bound=3), uncut(rep)
    got, want = cut.report.first_failure(), full.report.first_failure()
    assert got.name == want.name
    assert (got.detail, want.detail) == ("defining-span generator 3 acts nonzero",
                                         "defining-span generator 5 acts nonzero")
    assert s_rows(cut.brace)[3] == s_rows(full.brace)[5] == {(1, 2): 1}


def test_grading_breach_is_not_cut(capsys, tmp_path):
    J = truncated_poly(2)
    rep = JSpaceRep(J, LabeledSpace(("a", "b"), (0, 0)), [{0: {0: 1}, 1: {1: 1}}, {1: {0: 1}}, {}])
    assert degree_cut(rep, 3) is None
    assert checked_extension(rep, 3)[0].bound is None
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_dict(rep, "truncated-poly:2")))
    code, out, err = run(capsys, "weyl", "dims", "--rep", str(path), "--max-degree", "1")
    assert (code, out, err) == (3, "", "input error: rho(t) entry (1,0) breaks the grading\n")


def test_negative_algebra_degrees_are_not_cut():
    data = algebra_to_dict(graded_degenerate_spin(2))
    data["degrees"] = [0, -1, 1]
    rep = local_rep(algebra_from_dict(data), 1)
    assert degree_cut(rep, 3) is None


def test_cut_extension_refuses_a_window_above_its_cut():
    rep = local_rep(truncated_poly(5), 3)
    g0 = extend_to_g0(rep, bound=3)
    assert g0.bound == 3
    assert weyl_dimensions(g0, 3).to_json_dict() == weyl_dimensions(uncut(rep), 3).to_json_dict()
    with pytest.raises(WindowError, match="cut at degree 3"):
        weyl_dimensions(g0, 4)
    with pytest.raises(WindowError, match="cut at degree 3"):
        TruncatedVerma(g0, 4)
    with pytest.raises(WindowError, match="every degree"):
        efr_powers(g0, [Q(1)] * 6, [0])


def test_inexact_cuts_are_refused():
    rep = shift_rep(3, {2: {0: 1}, 3: {1: 2}})
    with pytest.raises(ValueError, match="cannot be cut exactly"):
        extend_to_g0(rep, bound=2)      # below the module's spread 3
    with pytest.raises(ValueError, match="cannot be cut exactly"):
        extend_to_g0(rep, build_sl2(rep.jordan, 2))
    with pytest.raises(ValueError, match="carries its own bound"):
        extend_to_g0(rep, build_sl2(rep.jordan), bound=3)


def test_bracket_fidelity_needs_the_whole_table():
    rep = newton_rep(2, 3)
    with pytest.raises(ValueError, match="whole bracket table"):
        bracket_fidelity(TruncatedVerma(extend_to_g0(rep), 3))
    # a cut whole table serves a window inside its cut
    cut = extend_to_g0(rep, build_sl2(rep.jordan, 3))
    assert bracket_fidelity(TruncatedVerma(cut, 3)).ok
