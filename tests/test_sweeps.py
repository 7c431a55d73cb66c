"""The exhaustive identity checks against full product sweeps.

`validate_lie`, `check_jspace`, `check_envelope_relations`, `extend_to_g0`
and `center_map` decide an identity on one case per symmetry orbit when the
identity that guards the symmetry holds.  `validate_lie` and
`antisymmetric_on` also skip the pairs with no bracket stored in either
order, and Jacobi the triples with none of their three inner brackets
stored.  The references below sweep every ordered tuple instead; the
library's reports must match them line for line, witnesses included, on
intact and corrupted bracket tables and representations (also corrupted on
a pair that nothing was stored on), and on a noncommutative table where no
reduction applies.
The J-space checks and the weight-zero extension run on the rep's sparse
integer operators over one denominator; their references take dense Fraction
matrices (`conftest.dense_rho`).
`jordan.validate` works on an integer-scaled copy of the table, every b of
a triple at once, as a sum of tabulated associators, and only on the
triples whose products meet a nonzero associator; its reference multiplies
dense vectors through `jmul`, one b at a time, on every sorted triple, and
`conftest.prods_validate`, which sums both sides from the products
(e_i e_j) e_b, must give the same whole report.  Likewise
`validate_lie`, whose full Jacobi sweep takes one case per leading index p
and sums every (q, r) at once over stored brackets only, must give the whole
report of `conftest.every_r_validate_lie`, which takes one case per pair
(p, q) and loops over every r; corruptions inside the second copy of a
direct sum make every failing triple start past the first copy, so the
least failing p decides the witness.  `dominance_operator`, which takes
the powers of a under the integer table, must give the sum of
`conftest.fraction_powers_dominance_operator`, and the expansion of the
sum by monomial of the generic element (`jspace._dominance_terms`), put
back together as polynomial entries, must give it at polynomial
coordinates.  The Weyl straightening
runs in integers over one denominator; its reference straightens in
Fractions on dense rho, and the windowed action's columns, ints over the
straightening denominator den, must match it exactly once divided by den.
`build_sl2` and `build_tkk` sum their tails in integers and store each
bracket table once in integer form, which `validate_lie` and `center_map`
read; the reference constructions sum the tails in Fractions and fill the
table through `add_into`, and the Fraction view `table` and the pair
coordinates divided by `pair_den` must match them, types included.  A
corrupted bracket table is written through `conftest.set_table`, and a
corrupted Jordan table through `conftest.set_jordan_table`; each rebuilds
the integer form.  Each Jordan table is scaled to integers once, when the
algebra is built, and its ints over `den` and the stored pair ints over
`pair_den` must equal the Fraction tables and classes.
`newton_rep` reads each product p_ell m_lam off the power-sum Pieri rule and
forms none above the cutoff; its reference multiplies out every product as
symmetric polynomials and drops the terms above the cutoff afterwards.
`efr_powers`, `garland_coefficients` and `dominance_operator` run on the
integer copy of the element a and scale back once; their references work
in Fractions at a itself, the generating function through its truncated
power series of the exponent, and each route must match its own reference
exactly, types included, so that a mis-scaled copy cannot pass by agreeing
with the other route.
"""

import copy
import json
import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, product
from math import factorial

import pytest

from conftest import (column, dense_bracket, dense_commutator, dense_rho, dense_rho_of,
                      every_r_validate_lie, fraction_powers_dominance_operator,
                      matrix_of_columns, matrix_rep, noncommuting_rep, pair_fractions,
                      prods_validate, set_jordan_table, set_table, symbolic_dominance_detail,
                      symmetric_words_jordan)
from test_tkk import _PINNED_TABLES
from test_weyl import GARLAND_CASES
from tkkwb import jordan, jspace, linalg, tkk, weyl
from tkkwb.jordan import (BUILTIN_FAMILIES, algebra_from_dict, algebra_to_dict,
                          associator_table, builtin, derivation_column, jmul, jpower,
                          load_algebra, matrix_jordan, spin_factor, truncated_poly, validate)
from tkkwb.jspace import (JSpaceRep, LevelError, check_envelope_relations, check_jspace,
                          dominance_check, dominance_operator, doubled_regular_rep,
                          extend_to_g0, level, matrix_defining_rep, newton_rep, regular_rep,
                          rep_from_dict, tensor_rep, zero_rep)
from tkkwb.linalg import (LabeledSpace, Matrix, RowSpan, add_into, add_operator, combine,
                          commutator, dense_vector, integer_vector, operator_product,
                          quotient, random_vector, scalar_operator, unit_vector)
from tkkwb.multipoly import Poly
from tkkwb.report import Report
from tkkwb.symfun import SymPoly, dominance_coeffs, newton, partitions
from tkkwb.tkk import (_SL2_BASIS, _SL2_SC, BraceSpace, TKKAlgebra, build_sl2, build_tkk,
                       center_map, half_killing_sl2, validate_lie)
from tkkwb.weyl import (_StraightData, TruncatedVerma, efr_powers, efr_powers_int,
                        efr_vanishes, garland_coefficients, garland_coefficients_int, same_ratio,
                        weyl_dimensions)

# -- references: every identity over the full product sweep -------------------


def ref_jacobiator(g, p, q, r):
    """[p, [q, r]] + [q, [r, p]] + [r, [p, q]] as a sparse dict, summed from
    g.bracket_basis."""
    acc = {}
    for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
        for s, cs in g.bracket_basis(b, c).items():
            add_into(acc, g.bracket_basis(a, s), cs)
    return acc


def ref_validate_lie(g):
    """validate_lie's lines, with Jacobi swept over every ordered triple, on
    g.table as is."""
    rep = Report(f"lie axioms for {g.kind}({g.jordan.name})")
    n, lab = g.dim, g.labels

    def asymmetric(pq):
        p, q = pq
        if g.bracket_basis(p, q) != {k: -c for k, c in g.bracket_basis(q, p).items()}:
            return f"[{lab[p]},{lab[q]}] != -[{lab[q]},{lab[p]}]"

    def jacobiator(pqr):
        if ref_jacobiator(g, *pqr):
            return f"triple ({lab[pqr[0]]},{lab[pqr[1]]},{lab[pqr[2]]})"

    def off_grade(item):
        (p, q), out = item
        for t, c in out.items():
            if c and (g.weights[t] != g.weights[p] + g.weights[q] or
                      g.degrees[t] != g.degrees[p] + g.degrees[q]):
                return f"[{lab[p]},{lab[q]}] leaves the graded component"

    rep.check("antisymmetry (all pairs)", product(range(n), repeat=2), asymmetric)
    rep.check("jacobi identity (all basis triples)", product(range(n), repeat=3), jacobiator)
    rep.check("bracket adds weights and degrees", g.table.items(), off_grade)
    return rep


def ref_antisymmetric_on(g, indices):
    """Whether [p, q] = -[q, p] for every ordered pair of indices."""
    return all(g.bracket_basis(p, q) == {t: -c for t, c in g.bracket_basis(q, p).items()}
               for p, q in product(indices, repeat=2))


def combination(n, mats, coords):
    """The dense n x n matrix sum_k c_k mats[k], for a dense list of c_k."""
    out = Matrix.zeros(n, n)
    for c, mat in zip(coords, mats):
        if c:
            out = out + mat.scale(c)
    return out


def ref_square_failure(rep):
    J, sig = rep.jordan, dense_rho(rep)
    for i, j, k in product(range(J.dim), repeat=3):
        acc = dense_commutator(sig[i], dense_rho_of(rep, J.table[j][k])) + \
            dense_commutator(sig[j], dense_rho_of(rep, J.table[i][k])) + \
            dense_commutator(sig[k], dense_rho_of(rep, J.table[i][j]))
        if acc != Matrix.zeros(rep.mdim, rep.mdim):
            return (i, j, k)
    return None


def ref_check_jspace(rep):
    J, sig = rep.jordan, dense_rho(rep)
    d, m = J.dim, rep.mdim
    report = Report(f"j-space axioms for {rep.name}")

    def grading(irs):
        i, r, s = irs
        if sig[i].data[r][s] and rep.module.degrees[r] != \
                rep.module.degrees[s] + J.space.degrees[i]:
            return f"rho({J.space.labels[i]}) entry ({r},{s}) breaks the grading"

    def derivation(ijk):
        i, j, k = ijk
        lhs = dense_commutator(dense_commutator(sig[i], sig[j]), sig[k])
        if lhs != dense_rho_of(rep, derivation_column(J.table, i, j, k)).scale(4):
            return f"derivation identity fails at basis triple ({i},{j},{k})"

    report.check("rho respects the grading", product(range(d), range(m), range(m)), grading)
    report.check("derivation identity (all basis triples)",
                 product(range(d), repeat=3), derivation)
    t = ref_square_failure(rep)
    report.add("square commutation, polarized (all basis triples)", t is None,
               "" if t is None else "polarized square-commutation fails at (%d,%d,%d)" % t)
    return report


def ref_check_envelope_relations(rep):
    J, sig = rep.jordan, dense_rho(rep)
    d = J.dim
    report = Report(f"envelope relations for {rep.name}")
    try:
        n = level(rep)
    except LevelError as exc:
        report.add("rho(1) is an integer scalar", False, str(exc))
        return report
    report.add("rho(1) is an integer scalar", True, f"level {n}")
    t = ref_square_failure(rep)
    report.add("square commutation, polarized", t is None,
               "" if t is None else "fails at (%d,%d,%d)" % t)

    def cubic(abc):
        a, b, c = abc
        lhs = dense_commutator(dense_commutator(sig[a], sig[b]), sig[c])
        a_bc = jmul(J, unit_vector(d, a), dense_vector(d, J.table[b][c]))
        b_ac = jmul(J, unit_vector(d, b), dense_vector(d, J.table[a][c]))
        if lhs != dense_rho_of(rep, [x - y for x, y in zip(a_bc, b_ac)]).scale(4):
            return f"fails at ({a},{b},{c})"

    report.check("cubic rearrangement relation", product(range(d), repeat=3), cubic)
    report.merge(dominance_check(rep))
    return report


def ref_extension(rep, ext):
    """The lines of extend_to_g0's report on dense Fraction matrices, with
    the homomorphism item swept over every ordered pair of weight-zero basis
    elements."""
    J, m, bs, sig = rep.jordan, rep.mdim, ext.brace, dense_rho(rep)
    report = Report(f"weight-zero extension of {rep.name}")
    quarter = [dense_commutator(sig[i], sig[j]).scale(Q(1, 4)) for i, j in bs.pairs]
    report.check("well-defined on the brace quotient", range(len(bs.s_rows)),
                 lambda r: combination(m, quarter, dense_vector(len(quarter), bs.s_rows[r]))
                 != Matrix.zeros(m, m)
                 and f"defining-span generator {r} acts nonzero")
    zero = [ext.h_index(i) for i in range(J.dim)] + \
        [ext.tail_index(k) for k in range(bs.dim)]
    phi = dict(zip(zero, sig + [quarter[t] for t in bs.reps]))

    def mismatch(pq):
        p, q = pq
        rhs = combination(m, [phi[t] for t in zero],
                          [ext.bracket_basis(p, q).get(t, 0) for t in zero])
        if dense_commutator(phi[p], phi[q]) != rhs:
            return f"bracket mismatch at ({ext.labels[p]},{ext.labels[q]})"

    report.check("homomorphism on the weight-zero bracket table",
                 product(zero, repeat=2), mismatch)
    return report


def ref_center_map(ext, classical):
    """The lines of center_map's report, with the homomorphism item swept
    over every ordered pair of basis elements."""
    sparse_phi, _, lib = center_map(ext, classical)
    phi = matrix_of_columns(sparse_phi, classical.dim)
    cols = [column(phi, p) for p in range(ext.dim)]

    def nonhomomorphic(pq):
        p, q = pq
        lhs = phi.apply(dense_vector(ext.dim, ext.bracket_basis(p, q)))
        if lhs != dense_bracket(classical, cols[p], cols[q]):
            return f"not a homomorphism at ({ext.labels[p]},{ext.labels[q]})"

    report = Report(lib.title)
    report.check("lie algebra homomorphism (all pairs)",
                 product(range(ext.dim), repeat=2), nonhomomorphic)
    report.items += lib.items[1:]
    return report


def ref_validate(J):
    """The lines of jordan.validate's report, with the Jordan identity
    computed on dense vectors through jmul: polarized on all basis
    4-tuples."""
    lib = validate(J)
    d = J.dim
    report = Report(lib.title, lib.items[:3])
    basis = [unit_vector(d, i) for i in range(d)]
    prods = [[dense_vector(d, J.table[i][j]) for j in range(d)] for i in range(d)]

    def polarized(xyz):
        x, y, z = xyz
        terms = ((prods[x][y], z), (prods[x][z], y), (prods[y][z], x))
        for b in range(d):
            lhs = rhs = [0] * d
            for u, w in terms:
                t = jmul(J, jmul(J, u, basis[b]), basis[w])
                lhs = [p + q for p, q in zip(lhs, t)]
                t = jmul(J, u, jmul(J, basis[b], basis[w]))
                rhs = [p + q for p, q in zip(rhs, t)]
            if lhs != rhs:
                return f"polarized identity fails at (x,y,z,b)=({x},{y},{z},{b})"

    report.check("jordan identity (polarized, all basis 4-tuples)",
                 combinations_with_replacement(range(d), 3), polarized)
    return report


# -- corruptions ---------------------------------------------------------------


def corrupt_table(g, rng, keep_antisymmetry, coeffs=(1, -1, 2, Q(1, 2)), within=None):
    """Add a random term, with a coefficient drawn from coeffs, to one
    off-diagonal bracket [p, q]; with keep_antisymmetry also subtract it
    from [q, p].  p, q and the term's index are drawn from the range
    within, every basis index by default."""
    within = range(g.dim) if within is None else within
    p, q = rng.sample(within, 2)
    t, c = within[rng.randrange(len(within))], rng.choice(coeffs)
    table = dict(g.table)
    table[(p, q)] = add_into(dict(g.bracket_basis(p, q)), {t: c})
    if keep_antisymmetry:
        table[(q, p)] = add_into(dict(g.bracket_basis(q, p)), {t: -c})
    return set_table(g, table)


def corrupt_jordan(J, rng, keep_commutativity, coeffs=(1, -1, 2, Q(1, 2))):
    """Add a random term, with a coefficient drawn from coeffs, to one
    product e_i e_j with i != j; with keep_commutativity also to e_j e_i."""
    i, j = rng.sample(range(J.dim), 2)
    k, c = rng.randrange(J.dim), rng.choice(coeffs)
    table = [[dict(entry) for entry in row] for row in J.table]
    add_into(table[i][j], {k: c})
    if keep_commutativity:
        add_into(table[j][i], {k: c})
    return set_jordan_table(J, table)


def corrupt_rep(rep, rng, coeffs=(1, -1, 2, Q(1, 2))):
    """The same representation with a coefficient drawn from coeffs added
    to one random rho entry."""
    i, r, s = rng.randrange(rep.jordan.dim), rng.randrange(rep.mdim), rng.randrange(rep.mdim)
    rho = dense_rho(rep)
    data = [list(row) for row in rho[i].data]
    data[r][s] += rng.choice(coeffs)
    rho[i] = Matrix(rep.mdim, rep.mdim, data)
    return matrix_rep(rep.jordan, rep.module, rho,
                      name=f"{rep.name} with rho({i})[{r},{s}] changed")


def corrupt_unstored_bracket(g, form, target):
    """Put target on the pair e(1), e(2), which is stored in neither order in
    sl2(J): [e(1), e(2)] = target and [e(2), e(1)] = -target in the
    "symmetric" form, only [e(1), e(2)] = target in the "one-sided" form,
    and only [e(2), e(1)] = target in the "reversed" one."""
    p, q = g.e_index(1), g.e_index(2)
    assert (p, q) not in g.table and (q, p) not in g.table
    if form == "reversed":
        p, q = q, p
    table = dict(g.table)
    table[(p, q)] = {target: Q(1)}
    if form == "symmetric":
        table[(q, p)] = {target: Q(-1)}
    return set_table(g, table)


def corrupt_unstored_product(J, form, k):
    """Put e_k on the product of e_1 and e_2, distinct non-unit basis
    elements of a spin factor, stored in neither order: e_1 e_2 = e_2 e_1 =
    e_k in the "symmetric" form, only e_1 e_2 = e_k in the "one-sided" form,
    and only e_2 e_1 = e_k in the "reversed" one."""
    assert not J.table[1][2] and not J.table[2][1]
    table = [[dict(entry) for entry in row] for row in J.table]
    i, j = (2, 1) if form == "reversed" else (1, 2)
    table[i][j] = {k: Q(1)}
    if form == "symmetric":
        table[j][i] = {k: Q(1)}
    return set_jordan_table(J, table)


def noncommutative_reps():
    """Representations over tables with e_i e_j != e_j e_i, where no
    reduction may assume commutativity."""
    base = newton_rep(2, 2)
    data = algebra_to_dict(base.jordan)
    data["mult"] += [{"i": 1, "j": 2, "coords": ["0", "1", "1"]},
                     {"i": 2, "j": 1, "coords": ["0", "0", "2"]}]
    J = algebra_from_dict(data, name="noncommutative truncated-poly(2)")
    newton = matrix_rep(J, base.module, dense_rho(base),
                        name="newton rho over a noncommutative table")
    # unit 1 and ab = 0, ba = b: the polarized square commutation vanishes on
    # every sorted triple and fails first at (1,2,1), by [rho(a), rho(b)]
    J = algebra_from_dict({
        "labels": ["1", "a", "b"], "degrees": [0, 0, 0], "unit": ["1", "0", "0"],
        "mult": [{"i": 0, "j": 0, "coords": ["1", "0", "0"]},
                 {"i": 0, "j": 1, "coords": ["0", "1", "0"]},
                 {"i": 0, "j": 2, "coords": ["0", "0", "1"]},
                 {"i": 2, "j": 1, "coords": ["0", "0", "1"]},
                 {"i": 1, "j": 2, "coords": ["0", "0", "0"]}],
    }, name="ab = 0, ba = b")
    module = LabeledSpace(("u", "v"), (0, 0))
    shear = matrix_rep(J, module, [Matrix.identity(2),
                                   Matrix(2, 2, [[Q(0), Q(1)], [Q(0), Q(0)]]),
                                   Matrix(2, 2, [[Q(0), Q(0)], [Q(1), Q(0)]])],
                       name="shears over ab = 0, ba = b")
    return [newton, shear]


# -- the tests -----------------------------------------------------------------

# corruption coefficients: the default ones, and a 1/3 that raises the scale
# of an integral table's integer copy beside a 3 that is a plain int when it
# lands on a pair with nothing stored
_COEFFS = ((1, -1, 2, Q(1, 2)), (Q(1, 3), 3))


@pytest.mark.parametrize("family, params", [
    ("truncated-poly", {"degree": 2}),
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 3}),
])
def test_validate_lie_matches_full_sweep(family, params):
    J = builtin(family, **params)
    assert validate_lie(build_sl2(J)).lines() == ref_validate_lie(build_sl2(J)).lines()
    failing = 0
    for seed, keep, coeffs in product(range(8), (True, False), _COEFFS):
        g = corrupt_table(build_sl2(J), random.Random(seed), keep, coeffs)
        lib = validate_lie(g)
        assert lib.lines() == ref_validate_lie(g).lines(), (seed, keep, coeffs)
        assert lib.items[0].ok is keep
        assert g.antisymmetric_on(range(g.dim)) is keep
        failing += not lib.ok
    assert failing >= 28


def test_validate_lie_reads_a_new_denominator():
    # Jacobi runs on a copy of the table scaled to integers; a 1/3 in an
    # integral table must raise its scale, or the term would be lost
    J = builtin("spin-factor", dim=3)
    assert all(c.denominator == 1 for out in build_sl2(J).table.values() for c in out.values())
    failing = 0
    for seed in range(8):
        for keep in (True, False):
            g = corrupt_table(build_sl2(J), random.Random(seed), keep, coeffs=(Q(1, 3),))
            lib = validate_lie(g)
            assert lib.lines() == ref_validate_lie(g).lines(), (seed, keep)
            failing += not lib.items[1].ok
    assert failing >= 12


_FORMS = ("symmetric", "one-sided", "reversed")


@pytest.mark.parametrize("family, params", [
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 3}),
])
@pytest.mark.parametrize("form", _FORMS)
def test_validate_lie_finds_a_bracket_on_an_unstored_pair(family, params, form):
    # the corrupted pair has no bracket stored in the intact table, so only
    # the adjacency built from the rebuilt integer form can reach it
    J = builtin(family, **params)
    symmetric = form == "symmetric"
    for target in ("h", "tail"):
        g = build_sl2(J)
        index = g.h_index(0) if target == "h" else g.tail_index(0)
        g = corrupt_unstored_bracket(g, form, index)
        lib = validate_lie(g)
        assert lib.lines() == ref_validate_lie(g).lines(), target
        assert lib.items[0].ok is symmetric and not lib.items[1].ok
        weight_zero = g.weight_block(0)
        for indices in (range(g.dim), weight_zero, [g.e_index(1), g.e_index(2)] + weight_zero):
            assert g.antisymmetric_on(indices) == ref_antisymmetric_on(g, indices)
        assert g.antisymmetric_on(range(g.dim)) is symmetric


@pytest.mark.parametrize("form", _FORMS)
def test_jordan_identity_finds_a_product_on_an_unstored_pair(form):
    # symmetric e_1 e_2 = 1 is the spin factor of another Gram matrix, which
    # is Jordan; every other corruption breaks the identity
    symmetric = form == "symmetric"
    for k in range(4):
        J = corrupt_unstored_product(builtin("spin-factor", dim=3), form, k)
        lib = validate(J)
        assert lib.lines() == ref_validate(J).lines(), k
        assert lib.items[0].ok is symmetric
        assert lib.items[3].ok is (symmetric and k == 0), k


def test_larger_algebra_matches_full_sweep():
    J = builtin("spin-factor", dim=6)
    g = build_sl2(J)
    assert validate_lie(g).lines() == ref_validate_lie(g).lines()
    assert g.antisymmetric_on(range(g.dim)) and ref_antisymmetric_on(g, range(g.dim))
    assert validate(J).lines() == ref_validate(J).lines()


@pytest.mark.parametrize("family, params", [
    ("truncated-poly", {"degree": 2}),
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 3}),
])
def test_center_map_matches_full_sweep(family, params):
    J = builtin(family, **params)
    assert center_map(build_sl2(J), build_tkk(J))[2].lines() == \
        ref_center_map(build_sl2(J), build_tkk(J)).lines()
    failing = 0
    for seed, keep, target, coeffs in product(range(8), (True, False), (0, 1), _COEFFS):
        ext, classical = build_sl2(J), build_tkk(J)
        corrupt_table((ext, classical)[target], random.Random(seed), keep, coeffs)
        lib = center_map(ext, classical)[2]
        assert lib.lines() == ref_center_map(ext, classical).lines(), (seed, keep, target, coeffs)
        failing += not lib.items[0].ok
    assert failing >= 56


@pytest.mark.parametrize("family, params", [
    ("truncated-poly", {"degree": 3}),
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 3}),
])
def test_jordan_identity_matches_dense_reference(family, params):
    assert validate(builtin(family, **params)).lines() == \
        ref_validate(builtin(family, **params)).lines()
    failing = 0
    for seed in range(8):
        for keep in (True, False):
            J = corrupt_jordan(builtin(family, **params), random.Random(seed), keep)
            lib = validate(J)
            assert lib.lines() == ref_validate(J).lines(), (seed, keep)
            assert lib.items[0].ok is keep
            failing += not lib.items[3].ok
    assert failing >= 12


def test_jordan_identity_reads_a_new_denominator():
    # the identity runs on a copy of the table scaled to integers; a 1/3 in
    # an integral table must raise its scale, or the term would be lost
    J = builtin("truncated-poly", degree=3)
    assert all(c.denominator == 1 for row in J.table for out in row for c in out.values())
    failing = 0
    for seed in range(8):
        for keep in (True, False):
            J = corrupt_jordan(builtin("truncated-poly", degree=3), random.Random(seed), keep,
                               coeffs=(Q(1, 3),))
            lib = validate(J)
            assert lib.lines() == ref_validate(J).lines(), (seed, keep)
            failing += not lib.items[3].ok
    assert failing >= 12


@pytest.mark.parametrize("family, params", [
    ("matrix", {"size": 4}),
    ("spin-factor", {"dim": 13}),
])
def test_jordan_identity_above_dim_12_matches_dense_reference(family, params):
    # above dimension 12 the identity is as exhaustive as below it: the
    # verdict and witness equal the dense reference's on every sorted triple
    assert builtin(family, **params).dim > 12
    assert validate(builtin(family, **params)).lines() == \
        ref_validate(builtin(family, **params)).lines()
    failing = 0
    for seed in range(8):
        for keep in (True, False):
            J = corrupt_jordan(builtin(family, **params), random.Random(seed), keep,
                               coeffs=(1, -1, 2, Q(1, 2), Q(1, 3)))
            lib = validate(J)
            assert lib.lines() == ref_validate(J).lines(), (seed, keep)
            assert lib.items[0].ok is keep
            failing += not lib.items[3].ok
    assert failing >= 14


_REPS = {
    "newton-2-3": lambda: newton_rep(2, 3),
    "newton-3-2": lambda: newton_rep(3, 2),
    "defining-M2": lambda: matrix_defining_rep(2),
    "doubled-spin2": lambda: doubled_regular_rep(builtin("spin-factor", dim=2)),
}


@pytest.mark.parametrize("name", sorted(_REPS))
def test_jspace_checks_match_full_sweep(name):
    base = _REPS[name]()
    ext = build_sl2(base.jordan)
    failing = 0
    for seed in range(-1, 6):
        rep = base if seed < 0 else corrupt_rep(base, random.Random(seed))
        lib = check_jspace(rep)
        assert lib.lines() == ref_check_jspace(rep).lines(), seed
        assert check_envelope_relations(rep).lines() == \
            ref_check_envelope_relations(rep).lines(), seed
        assert extend_to_g0(rep, ext).report.lines() == ref_extension(rep, ext).lines(), seed
        failing += not lib.ok
    assert failing >= 5


@pytest.mark.parametrize("name", sorted(_REPS))
def test_jspace_checks_read_a_new_denominator(name):
    # the checks run on rho scaled to integers; a 1/3 in an integral rho
    # must raise its scale, or the term would be lost
    base = _REPS[name]()
    assert base.den == 1
    ext = build_sl2(base.jordan)
    failing = 0
    for seed in range(6):
        rep = corrupt_rep(base, random.Random(seed), coeffs=(Q(1, 3),))
        lib = check_jspace(rep)
        assert lib.lines() == ref_check_jspace(rep).lines(), seed
        assert check_envelope_relations(rep).lines() == \
            ref_check_envelope_relations(rep).lines(), seed
        assert extend_to_g0(rep, ext).report.lines() == ref_extension(rep, ext).lines(), seed
        failing += not lib.ok
    assert failing >= 5


def test_extension_fails_well_definedness_like_its_reference():
    rep = noncommuting_rep()
    ext = build_sl2(rep.jordan)
    lib = extend_to_g0(rep, ext).report
    assert lib.lines() == ref_extension(rep, ext).lines()
    assert lib.items[0].name == "well-defined on the brace quotient" and not lib.items[0].ok


def test_extension_falls_back_on_a_non_antisymmetric_block():
    rep = matrix_defining_rep(2)
    ext = build_sl2(rep.jordan)
    # only the pair that a sweep over p < q skips is wrong
    h0, h1 = ext.h_index(0), ext.h_index(1)
    set_table(ext, {**ext.table,
                    (h1, h0): add_into(ext.bracket_basis(h1, h0), {ext.tail_index(0): 1})})
    lib = extend_to_g0(rep, ext).report
    assert not lib.ok
    assert lib.lines() == ref_extension(rep, ext).lines()


@pytest.mark.parametrize("index", [0, 1])
def test_noncommutative_table_matches_full_sweep(index):
    base = noncommutative_reps()[index]
    assert any(base.jordan.table[i][j] != base.jordan.table[j][i]
               for i in range(base.jordan.dim) for j in range(i))
    for seed in range(-1, 6):
        rep = base if seed < 0 else corrupt_rep(base, random.Random(seed))
        assert check_jspace(rep).lines() == ref_check_jspace(rep).lines(), seed
        assert check_envelope_relations(rep).lines() == \
            ref_check_envelope_relations(rep).lines(), seed


def test_square_commutation_first_fails_off_the_sorted_triples():
    rep = noncommutative_reps()[1]
    assert check_jspace(rep).items[2].detail == "polarized square-commutation fails at (1,2,1)"


# -- the TKK constructions: the Fraction reference of the integer tails -------


def ref_fill_table(g, pair_coords, tail_cols, tail_brackets):
    """The table filler in Fraction arithmetic: every e/f/h bracket summed
    through add_into from the sl2 structure constants and kappa."""
    g.pair_coords = pair_coords
    table = {}
    d = g.jdim
    idxmap = {"e": g.e_index, "f": g.f_index, "h": g.h_index}
    for xt in _SL2_BASIS:
        for yt in _SL2_BASIS:
            sc, kap = _SL2_SC[(xt, yt)], g.kappa[(xt, yt)]
            for i in range(d):
                for j in range(d):
                    out = {}
                    for z, cz in sc.items():
                        add_into(out, {idxmap[z](k): c for k, c in g.jordan.table[i][j].items()},
                                 cz)
                    if kap and i != j:
                        add_into(out, {g.tail_index(k): c
                                       for k, c in pair_coords[(i, j)].items()}, kap)
                    if out:
                        table[(idxmap[xt](i), idxmap[yt](j))] = out
    for k, cols in enumerate(tail_cols):
        for xt in _SL2_BASIS:
            for j in range(d):
                out = {idxmap[xt](r): c for r, c in cols[j].items()}
                if out:
                    table[(g.tail_index(k), idxmap[xt](j))] = out
                    table[(idxmap[xt](j), g.tail_index(k))] = {p: -c for p, c in out.items()}
        for l in range(g.tail_dim):
            if tail_brackets[(k, l)]:
                table[(g.tail_index(k), g.tail_index(l))] = \
                    {g.tail_index(r): c for r, c in tail_brackets[(k, l)].items()}
    return set_table(g, table)


def ref_brace_classes(J):
    """The brace classes in Fractions, {(i, j): class} for i != j: the
    defining rows x^(yz) + y^(xz) + z^(xy) of every sorted basis triple read
    from J.table as it is given, and the classes of the pairs i < j from the
    canonical RREF of their span."""
    pairs = list(combinations(range(J.dim), 2))
    index = {pair: t for t, pair in enumerate(pairs)}

    def wedge(i, sparse):
        return {index[(min(i, m), max(i, m))]: c if i < m else -c
                for m, c in sparse.items() if m != i}

    span = RowSpan(len(pairs))
    for i, j, k in combinations_with_replacement(range(J.dim), 3):
        span.insert(add_into(add_into(wedge(i, J.table[j][k]), wedge(j, J.table[i][k])),
                             wedge(k, J.table[i][j])))
    classes = {}
    for (i, j), col in zip(pairs, quotient(span)[1]):
        classes[(i, j)] = col
        classes[(j, i)] = {k: -c for k, c in col.items()}
    return classes


def ref_build_sl2(J):
    """build_sl2 with its tail brackets summed in Fractions from the
    derivation columns of J.table and the Fraction brace classes."""
    bs = BraceSpace(J)
    classes = ref_brace_classes(J)
    labels = [f"{{{J.space.labels[a]},{J.space.labels[b]}}}" for a, b in bs.rep_pairs]
    degrees = [J.space.degrees[a] + J.space.degrees[b] for a, b in bs.rep_pairs]
    g = TKKAlgebra(J, "sl2", bs.dim, labels, degrees, half_killing_sl2())
    g.brace = bs
    ders = [[derivation_column(J.table, a, b, c) for c in range(J.dim)] for a, b in bs.rep_pairs]
    tail_brackets = {}
    for k, der in enumerate(ders):
        for l, (a_l, b_l) in enumerate(bs.rep_pairs):
            out = {}
            for r, c in der[a_l].items():
                add_into(out, classes.get((r, b_l), {}), c)
            for r, c in der[b_l].items():
                add_into(out, classes.get((a_l, r), {}), c)
            tail_brackets[(k, l)] = out
    return ref_fill_table(g, classes, ders, tail_brackets)


def ref_build_tkk(J):
    """build_tkk with the inner derivations, their commutators and their
    coordinates computed in Fractions, each residual reduced by subtracting
    the RREF basis rows."""
    d = J.dim
    ders = {}
    span = RowSpan(d * d)
    for a, b in combinations(range(d), 2):
        ders[(a, b)] = flat = {r * d + c: x for c in range(d)
                               for r, x in derivation_column(J.table, a, b, c).items()}
        if flat:
            span.insert(flat)
    red = span.reduced()
    pivots, basis_rows = list(red), list(red.values())
    rank = len(basis_rows)
    tail_cols = [[{} for _ in range(d)] for _ in range(rank)]
    for k, row in enumerate(basis_rows):
        for t, x in row.items():
            r, c = divmod(t, d)
            tail_cols[k][c][r] = x
    degs = J.space.degrees
    degrees = [({degs[t // d] - degs[t % d] for t in row} or {0}).pop() for row in basis_rows]
    g = TKKAlgebra(J, "tkk", rank, [f"inn{k}" for k in range(rank)], degrees, half_killing_sl2())

    def commutator(k, l):
        out = {}
        for u, v, sign in ((k, l, 1), (l, k, -1)):
            for t, b in basis_rows[v].items():
                m, c = divmod(t, d)
                add_into(out, {r * d + c: a for r, a in tail_cols[u][m].items()}, sign * b)
        return out

    def inn_coords(resid):
        coords = {k: resid[t] for k, t in enumerate(pivots) if t in resid}
        for k, c in coords.items():
            add_into(resid, basis_rows[k], -c)
        assert not resid
        return coords

    pair_coords = {}
    for (a, b), flat in ders.items():
        pair_coords[(a, b)] = col = inn_coords(flat)
        pair_coords[(b, a)] = {k: -c for k, c in col.items()}
    tail_brackets = {}
    for k in range(rank):
        for l in range(k, rank):
            tail_brackets[(k, l)] = out = inn_coords(commutator(k, l))
            tail_brackets[(l, k)] = {t: -c for t, c in out.items()}
    return ref_fill_table(g, pair_coords, tail_cols, tail_brackets)


def typed(sparse_by_key):
    """{key: {index: (type, value)}}, so that == also compares the types."""
    return {key: {t: (type(c), c) for t, c in out.items()} for key, out in sparse_by_key.items()}


def _sheared_m2():
    """M2+ on the basis E11, E12 + E21, E21, 2 E22, whose brace coordinates
    have denominator 2 (those of every builtin are integers)."""
    rows = [(0, 0, "1 0 0 0"), (0, 1, "0 1/2 0 0"), (0, 2, "0 0 1/2 0"), (1, 1, "1 0 0 1/2"),
            (1, 2, "1/2 0 0 1/4"), (1, 3, "0 1 0 0"), (2, 3, "0 0 1 0"), (3, 3, "0 0 0 2")]
    return algebra_from_dict({
        "labels": ["E11", "E12+E21", "E21", "2E22"], "degrees": [0] * 4,
        "unit": ["1", "0", "0", "1/2"],
        "mult": [{"i": i, "j": j, "coords": c.split()} for i, j, c in rows],
    }, name="sheared M2+")


# tables, tails, pair coordinates and phi's columns that carry denominators:
# spin factors of Gram matrices diag(1/3, 2/7, 5) and [[1/3, 1/5], [1/5, 2/7]]
_DENOMINATOR_ALGEBRAS = {
    "gram-diagonal": lambda: spin_factor([[Q(1, 3), 0, 0], [0, Q(2, 7), 0], [0, 0, 5]]),
    "gram-2x2": lambda: spin_factor([[Q(1, 3), Q(1, 5)], [Q(1, 5), Q(2, 7)]]),
    "sheared-M2+": _sheared_m2,
}
_CONSTRUCTED = {**{name: make for name, (make, _) in _PINNED_TABLES.items()},
                **_DENOMINATOR_ALGEBRAS}


@pytest.mark.parametrize("name", list(_CONSTRUCTED))
def test_integer_tails_match_fraction_reference(name):
    J = _CONSTRUCTED[name]()
    for build, ref in ((build_sl2, ref_build_sl2), (build_tkk, ref_build_tkk)):
        g, expected = build(J), ref(J)
        assert list(g.table) == list(expected.table)
        assert typed(g.table) == typed(expected.table)
        assert typed(pair_fractions(g)) == typed(expected.pair_coords)
        assert all(type(c) is Q for out in g.table.values() for c in out.values())


@pytest.mark.parametrize("name", list(_DENOMINATOR_ALGEBRAS))
def test_center_map_with_denominators_matches_full_sweep(name):
    J = _DENOMINATOR_ALGEBRAS[name]()
    lib = center_map(build_sl2(J), build_tkk(J))[2]
    assert lib.ok and lib.lines() == ref_center_map(build_sl2(J), build_tkk(J)).lines()


# -- one integer form per table, made where the table is built ---------------


def test_the_jordan_table_is_scaled_once(monkeypatch):
    """A recorder on `integer_rows` sees one J's table scaled once, when J is
    built, and never again by the checks and constructions that read it."""
    real, calls = linalg.integer_rows, []

    def recorder(rows):
        rows = list(rows)
        calls.append(rows)
        return real(rows)

    for module in (linalg, jordan, tkk, jspace, weyl):
        if getattr(module, "integer_rows", None) is real:
            monkeypatch.setattr(module, "integer_rows", recorder)
    J = _DENOMINATOR_ALGEBRAS["gram-diagonal"]()
    validate(J)
    center_map(build_sl2(J), build_tkk(J))
    rep = doubled_regular_rep(J)
    extend_to_g0(rep)
    assert weyl_dimensions(rep, 0).dims == {(2, 0): 4, (0, 0): 7, (-2, 0): 4}
    dominance_operator(rep, [Q(1, 2), Q(-3), Q(2, 5), Q(1)])
    table = [out for row in J.table for out in row]
    assert sum(rows == table for rows in calls) == 1


def _loaded_sheared_m2(tmp_path):
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(algebra_to_dict(_sheared_m2())))
    return load_algebra(path)


_INTEGER_FORM_ALGEBRAS = {
    **{family: (lambda family=family: builtin(family)) for family in BUILTIN_FAMILIES},
    "matrix-3": lambda: builtin("matrix", size=3),
    "spin-factor-4": lambda: builtin("spin-factor", dim=4),
    "gram-diagonal": _DENOMINATOR_ALGEBRAS["gram-diagonal"],
    "J(2)-to-5": lambda: symmetric_words_jordan(2, 5),
}


@pytest.mark.parametrize("name", [*_INTEGER_FORM_ALGEBRAS, "loaded-json"])
def test_stored_integer_forms_equal_the_fraction_tables(name, tmp_path):
    J = _loaded_sheared_m2(tmp_path) if name == "loaded-json" else _INTEGER_FORM_ALGEBRAS[name]()
    d = J.dim
    assert all(type(x) is int and x for row in J.products for out in row for x in out.values())
    assert [[{k: Q(x, J.den) for k, x in out.items()} for out in row] for row in J.products] == \
        [[{k: c for k, c in out.items() if c} for out in row] for row in J.table]
    assert J.commutative is all(J.table[i][j] == J.table[j][i] for i in range(d) for j in range(i))
    for g, classes in ((build_sl2(J), ref_brace_classes(J)),
                       (build_tkk(J), ref_build_tkk(J).pair_coords)):
        assert all(type(x) is int for col in g.pair_coords.values() for x in col.values())
        assert typed(pair_fractions(g)) == typed(classes)


def ref_newton_rho(n, cutoff):
    """newton_rep's operators with every product p_ell m_lam formed in full
    and its terms above the cutoff dropped afterwards."""
    lams = [lam for dtot in range(cutoff + 1) for lam in partitions(dtot) if len(lam) <= n]
    index = {lam: i for i, lam in enumerate(lams)}
    rho = []
    for ell in range(cutoff + 1):
        op = {}
        for j, lam in enumerate(lams):
            msym = SymPoly(n, {tuple(lam) + (0,) * (n - len(lam)): 1})
            prod = SymPoly.from_poly(newton(ell, n).to_poly() * msym.to_poly(), check=False)
            for mu, c in prod.terms.items():
                mu_trim = tuple(p for p in mu if p)
                if c and sum(mu_trim) <= cutoff:
                    op.setdefault(index[mu_trim], {})[j] = c
        rho.append(op)
    return rho


@pytest.mark.parametrize("n, cutoff", [(n, cutoff) for n in range(1, 7) for cutoff in range(8)] +
                         [(12, 1)])
def test_newton_rep_matches_every_product(n, cutoff):
    rep = newton_rep(n, cutoff)
    ref = JSpaceRep(rep.jordan, rep.module, ref_newton_rho(n, cutoff))
    assert (rep.den, rep.rho) == (ref.den, ref.rho)
    assert any(rep.rho)


# -- straightening: the Fraction reference of the integer path ----------------


def dense_columns(m):
    """The nonzero columns of a dense matrix, {col: {row: entry}}."""
    out = {}
    for r, row in enumerate(m.data):
        for s, x in enumerate(row):
            if x:
                out.setdefault(s, {})[r] = x
    return out


class RefStraight:
    """Straightening in Fraction arithmetic on dense rho: the weight-zero
    columns [e(e_x), f(e_b)] = h(e_x e_b) + 2 {e_x, e_b} on the module, with
    each brace acting by a quarter commutator of rho, and the lowering
    elements -2 (e_x e_b) e_c + 2 [L_x, L_b] e_c, read from J.table."""

    def __init__(self, g0):
        rep = g0.rep
        self.J = J = rep.jordan
        self.rep_pairs = g0.brace.rep_pairs
        self.rho = sig = dense_rho(rep)
        self.braces = [dense_commutator(sig[a], sig[b]).scale(Q(1, 4))
                       for a, b in self.rep_pairs]
        self.g0mat = []
        classes = pair_fractions(g0.brace)
        for x in range(J.dim):
            row = []
            for b in range(J.dim):
                mat = dense_rho_of(rep, dense_vector(J.dim, J.table[x][b]))
                for k, c in classes.get((x, b), {}).items():
                    mat = mat + self.braces[k].scale(2 * c)
                row.append(dense_columns(mat))
            self.g0mat.append(row)

    def repl(self, x, b, c):
        J = self.J
        out = {}
        for m, cm in J.table[x][b].items():
            add_into(out, J.table[m][c], -2 * cm)
        return add_into(out, derivation_column(J.table, x, b, c), 2)

    def raise_basis(self, x, fkey, mi):
        out = {}
        counts = Counter(fkey)
        values = sorted(counts)
        for b in values:
            mult = counts[b]
            nu = list(fkey)
            nu.remove(b)
            for r, c in self.g0mat[x][b].get(mi, {}).items():
                add_into(out, {(tuple(nu), r): c}, mult)
            for c2 in values:
                if c2 < b:
                    continue
                count = mult * (mult - 1) // 2 if c2 == b else mult * counts[c2]
                if not count:
                    continue
                nu2 = list(nu)
                nu2.remove(c2)
                for k, ck in self.repl(x, b, c2).items():
                    add_into(out, {(tuple(sorted(nu2 + [k])), mi): ck}, count)
        return out

    def apply_basis(self, kind, i, fkey, mi):
        J = self.J
        if kind == "e":
            return self.raise_basis(i, fkey, mi)
        if kind == "f":
            return {(tuple(sorted(fkey + (i,))), mi): Q(1)}
        if kind == "h":
            on_J = [{r: -2 * c for r, c in J.table[i][b].items()} for b in range(J.dim)]
            on_module = dense_columns(self.rho[i])
        else:
            a, a2 = self.rep_pairs[i]
            on_J = [derivation_column(J.table, a, a2, b) for b in range(J.dim)]
            on_module = dense_columns(self.braces[i])
        out = {}
        for b, mult in Counter(fkey).items():
            nu = list(fkey)
            nu.remove(b)
            for r, c in on_J[b].items():
                add_into(out, {(tuple(sorted(nu + [r])), mi): c}, mult)
        for r, c in on_module.get(mi, {}).items():
            add_into(out, {(fkey, r): c})
        return out


def ref_action_images(verma, ref, gen, cell):
    """The Fraction images of the generator on the basis of cell, each a
    sparse {target position: Fraction} with no zero entry."""
    tgt_pos = verma.cell_pos.get(verma.target_of(gen, cell)[1], {})
    return [{tgt_pos[bm]: c for bm, c in ref.apply_basis(*gen, fkey, mi).items()}
            for fkey, mi in verma.cells[cell]]


def _half_unit_rep():
    """x x = 2x, so the unit is x/2; rho(x) = 2 on a 1-dim module, level 1."""
    return rep_from_dict({"algebra": {"labels": ["x"], "degrees": [0], "unit": ["1/2"],
                                      "mult": [{"i": 0, "j": 0, "coords": ["2"]}]},
                          "module": {"labels": ["v"], "degrees": [0]}, "rho": [[["2"]]]})


def _scaled_basis_local_rep():
    """truncated-poly(3) on the basis 2, t, 3t^2, 9t^3, where the unit is
    e0/2, e1 e1 = e2/3 and (e1 e1) e1 = e3/9, with rho(1) = 2 and rho = 0 in
    positive degree: the straightening needs the square of the table's
    denominator, and e(1) the unit's."""
    mult = [{"i": 0, "j": j, "coords": ["2" if k == j else "0" for k in range(4)]}
            for j in range(4)]
    mult += [{"i": 1, "j": 1, "coords": ["0", "0", "1/3", "0"]},
             {"i": 1, "j": 2, "coords": ["0", "0", "0", "1/3"]}]
    return rep_from_dict({"algebra": {"labels": ["2", "t", "3t^2", "9t^3"],
                                      "degrees": [0, 1, 2, 3], "unit": ["1/2", "0", "0", "0"],
                                      "mult": mult},
                          "module": {"labels": ["v"], "degrees": [0]},
                          "rho": [[["4"]], [["0"]], [["0"]], [["0"]]]})


def _local_rep(n, D):
    """rho(1) = n on a 1-dim module over truncated-poly:D, rho = 0 in
    positive degree: the local Weyl module of level n."""
    return rep_from_dict({"algebra": f"truncated-poly:{D}",
                          "module": {"labels": ["v"], "degrees": [0]},
                          "rho": [[[str(n)]]] + [[["0"]]] * D})


def _tensor_square_of_defining():
    dr = matrix_defining_rep(2)
    return tensor_rep(dr, dr)


# (rep, max degree, window depth)
_STRAIGHTENING_REPS = {
    "newton-3-4": (lambda: newton_rep(3, 4), 3, 1),
    "doubled-M2": (lambda: doubled_regular_rep(matrix_jordan(2)), 0, 1),
    "defining-M2-squared": (_tensor_square_of_defining, 0, 1),
    "doubled-spin-1-2": (lambda: doubled_regular_rep(spin_factor([[Q(1), Q(0)], [Q(0), Q(2)]])),
                         0, 2),
    "half-unit": (_half_unit_rep, 0, 2),
    "scaled-basis-local": (_scaled_basis_local_rep, 3, 1),
    "zero-dim-module": (lambda: rep_from_dict({"algebra": "truncated-poly:2",
                                               "module": {"labels": [], "degrees": []},
                                               "rho": [[], [], []]}), 2, 2),
    # the benchmark's shapes, where a factor repeats up to n + 1 times
    "newton-3-5": (lambda: newton_rep(3, 5), 5, 1),
    "local-7-6": (lambda: _local_rep(7, 6), 6, 1),
}


@pytest.mark.parametrize("name", sorted(_STRAIGHTENING_REPS))
def test_integer_straightening_matches_fraction_reference(name):
    make_rep, D, W = _STRAIGHTENING_REPS[name]
    g0 = extend_to_g0(make_rep())
    verma = TruncatedVerma(g0, D, W)
    ref = RefStraight(g0)
    cases = 0
    for gen in verma.generators:
        for cell in sorted(verma.cells):
            if verma.target_of(gen, cell)[0] == "ok":
                # the straightened ints over the straightening denominator,
                # with no zero entry, are the Fraction images times den
                den, cols = verma.action_columns(gen, cell)
                assert den == verma.data.den, (gen, cell)
                assert all(c for col in cols for c in col.values()), (gen, cell)
                assert [{t: Q(c, den) for t, c in col.items()} for col in cols] == \
                    ref_action_images(verma, ref, gen, cell), (gen, cell)
                cases += 1
    assert cases or g0.rep.mdim == 0


@pytest.mark.parametrize("name", sorted(_STRAIGHTENING_REPS))
def test_straightening_matches_generating_function_at_every_depth(name):
    g0 = extend_to_g0(_STRAIGHTENING_REPS[name][0]())
    n, d = level(g0.rep), g0.rep.jordan.dim
    rng = random.Random(41)
    for a in (list(g0.rep.jordan.unit), random_vector(rng, d, num_bound=5, den_bound=3)):
        direct = efr_powers(g0, a, range(n + 2))
        series = garland_coefficients(g0, a, range(n + 2))
        for rr in range(n + 2):
            assert direct[rr] == series[rr], rr


# -- both garland routes and the dominance sum: Fraction references at a -----


def ref_lowering_power(a, k):
    """f(a)^k over basis multisets, each multinomial a Fraction times the
    coordinates of a."""
    fp = {}
    for combo in combinations_with_replacement([i for i, c in enumerate(a) if c], k):
        counts = Counter(combo)
        coeff = factorial(k)
        for c in counts.values():
            coeff //= factorial(c)
        scalar = Q(coeff)
        for i, c in counts.items():
            for _ in range(c):
                scalar = scalar * a[i]
        if scalar:
            fp[combo] = scalar
    return fp


def ref_efr_powers(g0, a, rrs):
    """efr_powers raising f(a)^(n+1) itself, with Fraction coefficients, and
    scaling depth rr by (den uden)^-rr."""
    n = level(g0.rep)
    data = _StraightData(g0)
    power = ref_lowering_power(a, n + 1)
    scale = Q(1, data.den * data.uden)
    fps = {rr: {} for rr in rrs}
    for mi in range(g0.rep.mdim):
        vecs = [{(fkey, mi): c for fkey, c in power.items()}]
        for _ in range(max(rrs)):
            nxt = {}
            for bm, c in vecs[-1].items():
                add_into(nxt, data.raised[bm], c)
            vecs.append(nxt)
        for rr, fp in fps.items():
            for (fkey, r), c in vecs[rr].items():
                fp.setdefault(fkey, {}).setdefault(r, {})[mi] = c * scale ** rr
    if n + 1 in fps:
        fps[n + 1] = fps[n + 1].get((), {})
    return fps


def ref_garland_coefficients(g0, a, rrs):
    """The generating function at a itself, in Fractions: H[t] = rho(a^t)/t,
    and exp(-sum_t H[t] u^t) summed from the powers (-sum_t H[t] u^t)^j / j!
    of the exponent, truncated at u^(n+1)."""
    rep = g0.rep
    n, m = level(rep), rep.mdim
    order = n + 1
    lower = [{}] + [{i: c for i, c in enumerate(jpower(rep.jordan, a, s)) if c}
                    for s in range(1, order + 1)]
    H = [{}] + [combine(rep.rho, lower[t], Q(1, rep.den * t)) for t in range(1, order + 1)]
    assert not any(commutator(H[s], H[t]) for s in range(1, order + 1)
                   for t in range(s + 1, order + 1))
    expo = [scalar_operator(m)] + [{} for _ in range(order)]
    term = [scalar_operator(m)] + [{} for _ in range(order)]
    for j in range(1, order + 1):
        nxt = [{} for _ in range(order + 1)]
        for p in range(order + 1):
            for q in range(1, order + 1 - p):
                add_operator(nxt[p + q], operator_product(term[p], H[q]), Q(-1, j))
        term = nxt
        for e, t in zip(expo, term):
            add_operator(e, t)
    apows = [[{(): 1}] + [{} for _ in range(order)]]
    for _ in range(n + 1 - min(rrs)):
        nxt = [{} for _ in range(order + 1)]
        for p in range(order + 1):
            for key, c in apows[-1][p].items():
                for q in range(1, order + 1 - p):
                    add_into(nxt[p + q], {tuple(sorted(key + (i,))): c2
                                          for i, c2 in lower[q].items()}, c)
        apows.append(nxt)
    results = {}
    for rr in rrs:
        prefactor = Q((-1) ** rr * factorial(rr) * factorial(n + 1), factorial(n + 1 - rr))
        out = {}
        for k, terms in enumerate(apows[n + 1 - rr]):
            if expo[order - k]:
                for key, c in terms.items():
                    add_operator(out.setdefault(key, {}), expo[order - k], c * prefactor)
        out = {key: op for key, op in out.items() if op}
        results[rr] = out.get((), {}) if rr == n + 1 else out
    return results


def ref_dominance_operator(rep, a):
    """The dominance sum with the powers of a itself."""
    n = level(rep)
    rhos = {k: combine(rep.rho, {i: c for i, c in enumerate(jpower(rep.jordan, a, k)) if c})
            for k in range(1, n + 2)}
    acc = {}
    for sigma, c in dominance_coeffs(n).items():
        prod = rhos[sigma[0]]
        for part in sigma[1:]:
            prod = operator_product(prod, rhos[part])
        add_operator(acc, prod, Q(c, rep.den ** len(sigma)))
    return acc


def _gram_diagonal_rep():
    return doubled_regular_rep(_DENOMINATOR_ALGEBRAS["gram-diagonal"]())


_GARLAND_REPS = {**{f"garland-case-{k}": make for k, (make, _) in enumerate(GARLAND_CASES)},
                 "newton-4-3": lambda: newton_rep(4, 3),
                 "doubled-gram-diagonal": _gram_diagonal_rep}


def _point(kind, d):
    """A rational element 3/2, -5/3, 7/4, ..., the same with every other
    coordinate zero, or the generic element."""
    if kind == "symbolic":
        return Poly.variables(d)
    a = [Q((-1) ** i * (2 * i + 3), i + 2) for i in range(d)]
    if kind == "zeros":
        a[::2] = [Q(0)] * len(a[::2])
    return a


@pytest.mark.parametrize("kind", ["rational", "zeros", "symbolic"])
@pytest.mark.parametrize("name", sorted(_GARLAND_REPS))
def test_integer_copy_routes_match_fraction_references(name, kind):
    g0 = extend_to_g0(_GARLAND_REPS[name]())
    n, d = level(g0.rep), g0.rep.jordan.dim
    a = _point(kind, d)
    A, a_int = integer_vector(a)
    assert (A > 1) == (kind != "symbolic")
    if name == "doubled-gram-diagonal" and kind != "symbolic":
        # a rational table: the powers of the integer copy keep denominators
        assert any(c.denominator != 1 for c in jpower(g0.rep.jordan, a_int, 2))
    rrs = range(n + 2)
    for route, ref in ((efr_powers, ref_efr_powers),
                       (garland_coefficients, ref_garland_coefficients)):
        got, want = route(g0, a, rrs), ref(g0, a, rrs)
        assert got == want, route.__name__
        if kind != "symbolic":
            assert typed(got[n + 1]) == typed(want[n + 1])
            for rr in range(n + 1):
                assert {key: typed(op) for key, op in got[rr].items()} == \
                    {key: typed(op) for key, op in want[rr].items()}
    got, want = dominance_operator(g0.rep, a), ref_dominance_operator(g0.rep, a)
    assert got == want
    if kind != "symbolic":
        assert typed(got) == typed(want)


def entries(x):
    """The entries of a nested dict of entries, depth first."""
    return [e for v in x.values() for e in entries(v)] if isinstance(x, dict) else [x]


def scaled_down(x, D):
    """Every entry of a nested dict divided by D (multiplied by 1/D, as an
    entry may be a Poly)."""
    return {k: scaled_down(v, D) for k, v in x.items()} if isinstance(x, dict) else x * Q(1, D)


@pytest.mark.parametrize("kind", ["rational", "zeros", "symbolic"])
@pytest.mark.parametrize("name", sorted(_GARLAND_REPS))
def test_integer_cores_divided_once_give_the_routes(name, kind):
    # each core is (D_rr, X_rr) with X_rr / D_rr the route's value at rr, X_rr
    # holding ints (Fractions only in the generating series over a rational
    # table, Polys at the generic element) and no zero; the two cores agree
    # by cross-multiplication exactly where the routes agree under ==
    g0 = extend_to_g0(_GARLAND_REPS[name]())
    n, d = level(g0.rep), g0.rep.jordan.dim
    a = _point(kind, d)
    rrs = range(n + 2)
    cores = {}
    for core, route in ((efr_powers_int, efr_powers),
                        (garland_coefficients_int, garland_coefficients)):
        cores[core] = got = core(g0, a, rrs)
        values = route(g0, a, rrs)
        assert list(got) == list(values) == list(rrs)
        for rr, (D, x) in got.items():
            assert type(D) is int and D > 0
            assert scaled_down(x, D) == values[rr], (core.__name__, rr)
            assert all(entries(x))
            allowed = (Poly,) if kind == "symbolic" else \
                (int, Q) if core is garland_coefficients_int and name.startswith("doubled-gram") \
                else (int,)
            assert {type(e) for e in entries(x)} <= set(allowed), (core.__name__, rr)
    direct, series = cores[efr_powers_int], cores[garland_coefficients_int]
    for rr in rrs:
        assert same_ratio(direct[rr], series[rr]) is (efr_powers(g0, a, [rr]) ==
                                                      garland_coefficients(g0, a, [rr])) is True


def test_same_ratio_compares_by_cross_multiplication():
    assert same_ratio((2, {0: {1: 3}}), (4, {0: {1: 6}}))
    assert same_ratio((6, {(): {0: {0: -1}}, (1,): {0: {2: 5}}}),
                      (12, {(): {0: {0: -2}}, (1,): {0: {2: 10}}}))
    assert not same_ratio((2, {0: {1: 3}}), (4, {0: {1: 7}}))
    assert not same_ratio((2, {0: {1: 3}}), (2, {0: {1: 3, 2: 1}}))
    assert not same_ratio((2, {0: {1: 3}}), (2, {1: {1: 3}}))
    assert not same_ratio((1, {0: {1: 3}}), (1, {0: 3}))
    assert not same_ratio((1, {0: 3}), (1, {0: {1: 3}}))
    x = Poly.variables(2)
    assert same_ratio((3, {0: {0: x[0] * 2}}), (6, {0: {0: x[0] * 4}}))
    assert not same_ratio((3, {0: {0: x[0] * 2}}), (6, {0: {0: x[1] * 4}}))


# -- the sweeps over nonzero structure constants against the previous sweeps --

def _not_jordan():
    """A commutative unital table that is not Jordan: x x = y, x y = x, y y = 0."""
    return algebra_from_dict({
        "labels": ["1", "x", "y"], "degrees": [0, 0, 0], "unit": ["1", "0", "0"],
        "mult": [{"i": 0, "j": 0, "coords": ["1", "0", "0"]},
                 {"i": 0, "j": 1, "coords": ["0", "1", "0"]},
                 {"i": 0, "j": 2, "coords": ["0", "0", "1"]},
                 {"i": 1, "j": 1, "coords": ["0", "0", "1"]},
                 {"i": 1, "j": 2, "coords": ["0", "1", "0"]}],
    }, name="x x = y, x y = x")


_IDENTITY_ALGEBRAS = {
    "truncated-poly-5": lambda: builtin("truncated-poly", degree=5),
    "spin-factor-6": lambda: builtin("spin-factor", dim=6),
    "matrix-3": lambda: builtin("matrix", size=3),
    "gram-2x2": _DENOMINATOR_ALGEBRAS["gram-2x2"],
    "not-jordan": _not_jordan,
    "matrix-4": lambda: builtin("matrix", size=4),
    "spin-factor-14": lambda: builtin("spin-factor", dim=14),
    "J(2)-to-4": lambda: symmetric_words_jordan(2, 4),
}


@pytest.mark.parametrize("name", sorted(_IDENTITY_ALGEBRAS))
def test_associator_sweep_matches_prods_reference(name):
    # the polarized identity as three associators, on the triples whose
    # products meet one in any of their three slots, gives the report of
    # prods_validate, which sweeps every sorted triple, witnesses included,
    # under commutative and noncommutative corruptions; the last three
    # algebras have dim > 12, and J(2)-to-4 is graded
    make = _IDENTITY_ALGEBRAS[name]
    assert validate(make()) == prods_validate(make())
    failing = 0
    for seed, keep in product(range(10), (True, False)):
        J = corrupt_jordan(make(), random.Random(seed), keep,
                           coeffs=(1, -1, 2, Q(1, 2), Q(1, 3)))
        lib = validate(J)
        assert lib == prods_validate(J), (seed, keep)
        assert lib.items[0].ok is keep
        failing += not lib.items[3].ok
    assert failing >= 10


def test_associator_table_is_empty_on_commutative_associative_tables():
    assert associator_table(builtin("truncated-poly", degree=6).products) == [[{}] * 7] * 7
    assoc = associator_table(_not_jordan().products)
    assert any(entry for row in assoc for entry in row)


@pytest.mark.parametrize("family, params, kind", [
    ("truncated-poly", {"degree": 2}, "sl2"),
    ("matrix", {"size": 2}, "tkk"),
    ("spin-factor", {"dim": 3}, "sl2"),
])
def test_jacobi_over_stored_brackets_matches_every_r_reference(family, params, kind):
    # antisymmetric corruptions take the sorted branch, the others the
    # ordered-pair branch; both must give every_r_validate_lie's report
    build = build_sl2 if kind == "sl2" else build_tkk
    J = builtin(family, **params)
    assert validate_lie(build(J)) == every_r_validate_lie(build(J))
    failing = 0
    for seed, keep, coeffs in product(range(8), (True, False), _COEFFS):
        g = corrupt_table(build(J), random.Random(seed), keep, coeffs)
        lib = validate_lie(g)
        assert lib == every_r_validate_lie(g), (seed, keep, coeffs)
        assert lib.items[0].ok is keep
        failing += not lib.items[1].ok
    assert failing >= 8


def direct_sum(g):
    """g + g as one algebra: g's brackets on the first dim g basis elements,
    and again, shifted by dim g and with primed labels, on the second copy;
    the two copies commute.  A corruption inside the second copy breaks
    only triples inside it."""
    n = g.dim
    s = copy.copy(g)
    s.dim = 2 * n
    s.labels = g.labels + tuple(f"{lab}'" for lab in g.labels)
    s.weights, s.degrees = g.weights * 2, g.degrees * 2
    return set_table(s, {**g.table, **{(p + n, q + n): {t + n: c for t, c in out.items()}
                                       for (p, q), out in g.table.items()}})


def failing_leads(g, indices, ordered):
    """The p of the triples (p, q, r) of indices, ordered or sorted, with a
    nonzero jacobiator."""
    triples = product(indices, repeat=3) if ordered else combinations(indices, 3)
    return {pqr[0] for pqr in triples if ref_jacobiator(g, *pqr)}


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("family, params", [
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 3}),
])
def test_jacobi_witness_past_the_first_leading_index(family, params, keep):
    # corruptions inside the second copy of sl2(J) + sl2(J): every p of the
    # first copy passes, the failing triples spread over several p of the
    # second, and the least of them, then its least (q, r), is the witness,
    # in the sorted branch (keep) and in the ordered-pair branch
    g = build_sl2(builtin(family, **params))
    n = g.dim
    second = range(n, 2 * n)
    witness_leads = set()
    for seed, coeffs in product(range(6), _COEFFS):
        s = corrupt_table(direct_sum(g), random.Random(seed), keep, coeffs, second)
        lib = validate_lie(s)
        assert lib.lines() == ref_validate_lie(s).lines(), (seed, coeffs)
        assert lib == every_r_validate_lie(s), (seed, coeffs)
        assert lib.items[0].ok is keep and not lib.items[1].ok
        leads = failing_leads(s, second, ordered=not keep)
        assert len(leads) >= 3
        lead = s.labels.index(lib.items[1].detail[len("triple ("):].split(",")[0])
        assert lead == min(leads) >= n
        witness_leads.add(lead)
    assert len(witness_leads) >= 2


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("family, params", [
    ("matrix", {"size": 2}),
    ("spin-factor", {"dim": 4}),
])
def test_center_map_finds_a_corrupted_tail_bracket_of_the_classical_table(family, params,
                                                                          keep):
    # [phi p, phi q] reads a tail x tail bracket of the classical table only
    # from the tail elements of both images, at the pairs (s, t) of the
    # columns of p and q
    J = builtin(family, **params)
    intact = build_tkk(J)
    tail = range(intact.tail_index(0), intact.dim)
    assert len(tail) >= 3
    for seed, coeffs in product(range(6), _COEFFS):
        ext, classical = build_sl2(J), build_tkk(J)
        corrupt_table(classical, random.Random(seed), keep, coeffs, tail)
        lib = center_map(ext, classical)[2]
        assert lib.lines() == ref_center_map(ext, classical).lines(), (seed, coeffs)
        assert not lib.items[0].ok


def test_jacobi_on_spin_factor_16_matches_every_r_reference():
    # n = 171: the adjacency lists are long enough that a wrong bisect cut
    # drops terms, intact and under corruptions of both branches
    J = builtin("spin-factor", dim=16)
    intact = build_sl2(J)
    assert intact.dim == 171
    assert validate_lie(intact) == every_r_validate_lie(intact)
    for seed, keep in product(range(3), (True, False)):
        g = corrupt_table(build_sl2(J), random.Random(seed), keep)
        lib = validate_lie(g)
        assert lib == every_r_validate_lie(g), (seed, keep)
        assert lib.items[0].ok is keep and not lib.items[1].ok


_DOMINANCE_REPS = {
    "newton-3-4": lambda: newton_rep(3, 4),
    "doubled-gram-diagonal": _gram_diagonal_rep,
    # level 1 on a rational table, and not dominant: the sum is nonzero
    "regular-gram-diagonal": lambda: regular_rep(_DENOMINATOR_ALGEBRAS["gram-diagonal"]()),
}


@pytest.mark.parametrize("kind", ["rational", "zeros", "symbolic"])
@pytest.mark.parametrize("name", sorted(_DOMINANCE_REPS))
def test_dominance_operator_matches_fraction_powers_reference(name, kind):
    # the powers of a under the integer table, each partition scaled by an
    # int and the sum rescaled once, equal the powers under J's own table
    rep = _DOMINANCE_REPS[name]()
    a = _point(kind, rep.jordan.dim)
    got, want = dominance_operator(rep, a), fraction_powers_dominance_operator(rep, a)
    assert got == want
    if kind != "symbolic":
        assert typed(got) == typed(want)
    assert bool(got) is name.startswith("regular")


def _perturbed_newton():
    """newton(3, 4) with 1 added to one entry of rho(p_1): still level 3, but
    the dominance sum no longer vanishes."""
    rep = newton_rep(3, 4)
    rho = copy.deepcopy(rep.rho)
    rho[1].setdefault(0, {})[0] = 1
    return JSpaceRep(rep.jordan, rep.module, rho, name="perturbed newton-3-4")


_EXPANSION_REPS = {**_DOMINANCE_REPS, "perturbed-newton-3-4": _perturbed_newton,
                   "zero-truncated-2": lambda: zero_rep(truncated_poly(2))}


def as_polynomial_entries(rep, terms):
    """sum_mu x^mu X_mu / (den tden)^(n+1) over the terms {mu: X_mu} of
    `_dominance_terms` at the generic element, as a Poly-entry operator."""
    d = rep.jordan.dim
    scale = Q(1, (rep.den * rep.jordan.den) ** (level(rep) + 1))
    out = {}
    for mu, op in terms.items():
        add_operator(out, op, Poly(d, {tuple(mu.count(i) for i in range(d)): scale}))
    return out


@pytest.mark.parametrize("name", sorted(_EXPANSION_REPS))
def test_dominance_terms_rebuild_the_polynomial_sum(name):
    # one key per monomial of degree n+1 in the generic element's
    # coordinates, an int operator under each, none empty
    rep = _EXPANSION_REPS[name]()
    n, d = level(rep), rep.jordan.dim
    terms = jspace._dominance_terms(rep, n, {(i,): {i: 1} for i in range(d)})
    assert all(len(mu) == n + 1 and list(mu) == sorted(mu) for mu in terms)
    assert all(op and type(c) is int for op in terms.values() for c in entries(op))
    x = Poly.variables(d)
    got = as_polynomial_entries(rep, terms)
    assert got == dominance_operator(rep, x) == fraction_powers_dominance_operator(rep, x)
    assert bool(terms) is (name.startswith("regular") or name.startswith("perturbed"))
    assert dominance_check(rep).ok is not terms


def _guarded_builtin_reps():
    """Every builtin rep within the symbolic guards (dim J <= 10, level <= 4),
    newton reps up to cutoff 4."""
    reps = [newton_rep(n, D) for n in range(1, 5) for D in range(5)]
    families = {"truncated-poly": range(10), "matrix": range(1, 4), "spin-factor": range(10)}
    for family, params in families.items():
        param = BUILTIN_FAMILIES[family][0]
        for k in params:
            J = builtin(family, **{param: k})
            reps += [zero_rep(J), regular_rep(J), doubled_regular_rep(J)]
    reps += [matrix_defining_rep(m) for m in range(1, 4)]
    defining = matrix_defining_rep(2)
    reps.append(tensor_rep(defining, defining))
    return reps


def test_efr_vanishes_matches_the_symbolic_verdict_on_every_guarded_builtin():
    # every guarded builtin whose weight-zero extension passes its checks
    checked = 0
    for rep in _guarded_builtin_reps():
        g0 = extend_to_g0(rep)
        if g0.report.ok:
            checked += 1
            ok, witness = efr_vanishes(g0)
            dominance = dominance_check(rep)
            assert ok is dominance.ok, rep.name
            assert dominance.items[0].detail == symbolic_dominance_detail(rep, witness), rep.name
    assert checked == 83


def test_symbolic_verdict_matches_polynomial_entries_on_every_guarded_builtin():
    # the symbolic verdict, which builds no polynomial, is the one the
    # polynomial-entry sum gives at the generic element
    for rep in _guarded_builtin_reps():
        want = not fraction_powers_dominance_operator(rep, Poly.variables(rep.jordan.dim))
        assert dominance_check(rep).ok is want, rep.name
