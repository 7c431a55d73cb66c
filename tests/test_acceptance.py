"""Acceptance suite: one criterion per test, one PASS line per criterion.

All comparisons are exact; the arithmetic is rational throughout, so there
are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
from fractions import Fraction as Q
from math import factorial

import pytest

from conftest import (dense_rho, dense_rho_of, equivalence_instances, matrix_rep,
                      one_gen_rep, projection_matrix, small_vector, sparse)
from tkkwb.jordan import matrix_jordan, spin_factor, truncated_poly
from tkkwb.jspace import (check_bimodule, check_jspace,
                          dominance_check, dominance_operator, extend_to_g0, level,
                          matrix_defining_rep, newton_rep, regular_rep,
                          zero_rep)
from tkkwb.linalg import Matrix, add_operator, random_fraction
from tkkwb.symfun import (newton_product, partitions, trace_oracle,
                          verify_frobenius, verify_newton_dependence)
from tkkwb.tkk import build_sl2, validate_lie
from tkkwb.weyl import (efr_power, efr_vanishes, garland_coefficient, snlt_oracle,
                        weyl_dimensions)


def report(num, name, ok):
    print(f"ACCEPTANCE {num}: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_newton_dependence():
    ok = True
    for n in range(1, 7):
        rep = verify_newton_dependence(n)
        ok = ok and rep.ok
    report(1, "power-sum dependence and its uniqueness, n = 1..6", ok)


def test_02_frobenius_decomposition():
    ok = True
    for m in range(2, 7):
        ok = ok and verify_frobenius(m - 1).ok
    report(2, "character decomposition of power sums, sizes 2..6", ok)


def test_03_trace_oracle():
    rng = random.Random(0)
    ok = True
    for n in (1, 2, 3):
        sigmas = partitions(n + 1)
        for _ in range(5):
            point = [random_fraction(rng) for _ in range(n)]
            for sigma in sigmas:
                got = trace_oracle(sigma, point)
                want = newton_product(sigma, n).evaluate(point)
                ok = ok and got == want
    report(3, "tensor-operator trace equals the power sums", ok)


def test_04_lie_validity():
    ok = True
    brace_seen = False
    algebras = [truncated_poly(D) for D in range(6)]
    algebras.append(matrix_jordan(2))
    algebras.append(spin_factor([[Q(1), Q(0)], [Q(0), Q(1)]]))
    algebras.append(spin_factor([[Q(1) if i == j else Q(0) for j in range(3)]
                                 for i in range(3)]))
    for J in algebras:
        g = build_sl2(J)
        brace_seen = brace_seen or g.tail_dim > 0
        rep = validate_lie(g)
        ok = ok and rep.ok
    ok = ok and brace_seen  # skew-symmetry of the brace bracket exercised
    report(4, "antisymmetry + jacobi on all triples, braces exercised", ok)


def test_05_three_way_equivalence():
    instances = equivalence_instances()
    assert len(instances) >= 20
    rng = random.Random(101)
    ok = True
    for name, rep, expected in instances:
        assert check_jspace(rep).ok, f"{name} is not a J-space"
        dom = dominance_check(rep).ok
        van, _ = efr_vanishes(rep)
        agree = (dom == van == expected)
        g0 = extend_to_g0(rep)
        n = level(rep)
        exact = True
        for _ in range(2):
            a = small_vector(rng, rep.jordan.dim, 5, 3)
            want = add_operator({}, dominance_operator(rep, a), factorial(n + 1))
            exact = exact and efr_power(g0, a, n + 1) == want
        ok = ok and agree and exact
        if not (agree and exact):
            print(f"  mismatch on {name}: dominance={dom} contraction={van} "
                  f"expected={expected} exact={exact}")
    report(5, f"three-way equivalence on {len(instances)} instances "
              "(negative controls fail both)", ok)


def test_06_garland_formula():
    rng = random.Random(7)
    reps = [zero_rep(truncated_poly(1)),
            regular_rep(truncated_poly(2)),
            matrix_defining_rep(2),
            newton_rep(2, 2),
            newton_rep(3, 2)]
    ok = True
    for rep in reps:
        g0 = extend_to_g0(rep)
        n = level(rep)
        for _ in range(3):
            a = small_vector(rng, rep.jordan.dim, 5, 3)
            for rr in sorted({0, 1, n, n + 1}):
                ok = ok and efr_power(g0, a, rr) == garland_coefficient(g0, a, rr)
    report(6, "generating-function coefficients equal straightening", ok)


def test_07_symmetric_power_oracle():
    ok = True
    for n, D in ((1, 5), (2, 4), (3, 3)):
        table = weyl_dimensions(newton_rep(n, D), D)
        oracle = snlt_oracle(n, D)
        ok = ok and table == oracle
        ok = ok and table.meta["stable"]
        ok = ok and table.meta["certificate_ok"]
    report(7, "dimension tables match the symmetric-power enumeration", ok)


def test_08_low_level_specializations():
    ok = True
    # level 0: dominant iff the action is zero
    ok = ok and dominance_check(zero_rep(truncated_poly(2))).ok
    ok = ok and dominance_check(zero_rep(matrix_jordan(2))).ok
    nz = one_gen_rep(0, projection_matrix(), "level-0 nonzero")
    ok = ok and not dominance_check(nz).ok
    # level 1: dominant reps halve products of operators
    for rep in (regular_rep(truncated_poly(3)), matrix_defining_rep(2)):
        assert dominance_check(rep).ok
        J, sig = rep.jordan, dense_rho(rep)
        for i in range(J.dim):
            for j in range(J.dim):
                prod = [Q(0)] * J.dim
                for k, c in J.table[i][j].items():
                    prod[k] = c
                lhs = dense_rho_of(rep, prod)
                rhs = (sig[i] @ sig[j] + sig[j] @ sig[i])
                ok = ok and lhs == rhs.scale(Q(1, 2))
    report(8, "level-0 dominance is triviality; level-1 dominance halves "
              "operator products", ok)


def test_09_bimodule_spectral_constraint():
    ok = True
    passing = []
    # half the regular action is a bimodule over commutative associative
    # algebras (spectral point 1/2); the full regular action is one for the
    # matrix algebra (point 1); the zero action sits at 0
    for J in (truncated_poly(2), truncated_poly(4)):
        r = regular_rep(J)
        half = matrix_rep(J, r.module, [m.scale(Q(1, 2)) for m in dense_rho(r)],
                          name=f"half regular over {J.name}")
        passing.append(half)
    passing.append(regular_rep(matrix_jordan(2)))
    passing.append(zero_rep(truncated_poly(1)))
    for sigma in passing:
        rep = check_bimodule(sigma)
        ok = ok and rep.ok
        s1 = dense_rho_of(sigma, sigma.jordan.unit)
        ident = Matrix.identity(sigma.mdim)
        spectral = s1 @ (s1 + ident.scale(Q(-1, 2))) @ (s1 + ident.scale(-1))
        ok = ok and not sparse(spectral)
    n3 = newton_rep(3, 2)
    halved = matrix_rep(n3.jordan, n3.module,
                        [m.scale(Q(1, 2)) for m in dense_rho(n3)], name="half newton-3")
    rep = check_bimodule(halved)
    ok = ok and not rep.ok
    report(9, "bimodule spectral constraint holds; level-3 half-action fails", ok)


def test_10_finiteness_and_determinism():
    ok = True
    tables = []
    jobs = [(newton_rep(1, 4), 4), (newton_rep(2, 3), 3),
            (regular_rep(truncated_poly(2)), 2)]
    for rep, D in jobs:
        table = weyl_dimensions(rep, D)
        ok = ok and table.meta["stable"] and table.meta["certificate_ok"]
        ok = ok and all(v >= 0 for v in table.dims.values())
        ok = ok and sum(table.dims.values()) < 10 ** 6  # finite, explicitly tabulated
        tables.append(table)
    for (rep, D), before in zip(jobs, tables):
        table = weyl_dimensions(rep, D)
        ok = ok and table.dims == before.dims and table.meta == before.meta
    report(10, "tables finite with stabilized closure, identical across runs", ok)
