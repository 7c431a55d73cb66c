import random
from fractions import Fraction as Q
from itertools import permutations
from math import factorial

import pytest

from tkkwb.symfun import (SymPoly, class_size, complete_homogeneous,
                          cycle_type, dominance_coeffs, mn_character, newton,
                          newton_product, partitions, relation_string, schur,
                          schur_jacobi_trudi, sign, trace_oracle,
                          verify_frobenius, verify_newton_dependence,
                          verify_trace_oracle)
from tkkwb.linalg import random_fraction


def brute_partitions(n):
    # independent recursive enumeration, order-agnostic
    if n == 0:
        return {()}
    out = set()
    for first in range(1, n + 1):
        for rest in brute_partitions(n - first):
            if not rest or first >= rest[0]:
                out.add((first,) + rest)
    return out


def test_partitions_small():
    assert partitions(1) == [(1,)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(6)) == 11


def test_partitions_against_bruteforce():
    for n in range(8):
        got = partitions(n)
        assert len(got) == len(set(got))
        assert set(got) == brute_partitions(n)
        # reverse-lexicographic order
        assert got == sorted(got, reverse=True)


def test_class_sizes_against_enumeration():
    for m in range(1, 6):
        counts = {}
        for perm in permutations(range(m)):
            ct = cycle_type(perm)
            counts[ct] = counts.get(ct, 0) + 1
        for sigma in partitions(m):
            assert class_size(sigma) == counts[sigma]


def test_class_size_examples():
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((1, 1, 1, 1)) == 1


def test_class_sizes_sum_to_order():
    for m in range(1, 8):
        assert sum(class_size(s) for s in partitions(m)) == factorial(m)


def test_sign():
    assert sign((2,)) == -1
    assert sign((3,)) == 1
    assert sign((2, 2)) == 1
    # matches the permutation parity from enumeration
    for m in range(1, 6):
        for perm in permutations(range(m)):
            inversions = sum(1 for i in range(m) for j in range(i + 1, m)
                             if perm[i] > perm[j])
            assert sign(cycle_type(perm)) == (-1) ** inversions


def test_newton_basics():
    assert newton(0, 3) == SymPoly.const(3, 3)
    n2 = newton(2, 2)
    assert n2.terms == {(2, 0): 1}
    # one variable: N_1^2 = N_2
    assert newton(1, 1) * newton(1, 1) == newton(2, 1)


def test_newton_product_examples():
    p = newton_product((1, 1), 2)
    # (x+y)^2 = x^2 + 2xy + y^2
    assert p.terms == {(2, 0): 1, (1, 1): 2}
    q = newton_product((2, 1), 2)
    assert q == newton(2, 2) * newton(1, 2)
    assert newton_product((3,), 2).terms == {(3, 0): 1}


def test_schur_examples():
    assert schur((1,), 2).terms == {(1, 0): 1}
    assert schur((1, 1, 1), 2).is_zero()
    # derived by listing semistandard tableaux: x^2 y + x y^2
    assert schur((2, 1), 2).terms == {(2, 1): 1}


@pytest.mark.parametrize("lam,nv", [
    ((2, 1), 2), ((2, 1), 3), ((3,), 2), ((3, 1), 3),
    ((2, 2), 3), ((2, 2), 4), ((1, 1, 1), 3), ((4, 2), 3),
])
def test_schur_two_routes_agree(lam, nv):
    assert schur(lam, nv) == schur_jacobi_trudi(lam, nv)


def test_complete_homogeneous():
    h2 = complete_homogeneous(2, 2)
    assert h2.terms == {(2, 0): 1, (1, 1): 1}


def test_character_frozen_values():
    # classical S3 table
    assert mn_character((3,), (2, 1)) == 1
    assert mn_character((1, 1, 1), (2, 1)) == -1
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    # classical S4 row for the standard representation shape
    row = {s: mn_character((3, 1), s) for s in partitions(4)}
    assert row == {(4,): -1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 1,
                   (1, 1, 1, 1): 3}


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2,))


def test_character_orthogonality():
    for m in range(2, 7):
        ps = partitions(m)
        for lam in ps:
            for mu in ps:
                total = sum(class_size(s) * mn_character(lam, s) * mn_character(mu, s)
                            for s in ps)
                assert total == (factorial(m) if lam == mu else 0)


def test_dominance_coeffs():
    assert dominance_coeffs(0) == {(1,): 1}
    assert dominance_coeffs(1) == {(2,): -1, (1, 1): 1}
    assert dominance_coeffs(2) == {(3,): 2, (2, 1): -3, (1, 1, 1): 1}


def test_relation_string():
    assert relation_string(2) == "2N3 - 3N2N1 + N1^3 = 0"


def test_newton_dependence():
    for n in range(1, 5):
        assert verify_newton_dependence(n).ok


def test_newton_dependence_hand_n2():
    # 2 N3 - 3 N2 N1 + N1^3 expands to zero in two variables
    acc = newton_product((3,), 2).scale(2)
    acc = acc + newton_product((2, 1), 2).scale(-3)
    acc = acc + newton_product((1, 1, 1), 2)
    assert acc.is_zero()


def test_frobenius_small():
    for n in range(1, 4):
        assert verify_frobenius(n).ok


def test_frobenius_hand_cases():
    # N3 = S3 - S21 and N1^3 = S3 + 2 S21 in two variables
    n3 = newton_product((3,), 2)
    assert n3 == schur((3,), 2) + schur((2, 1), 2).scale(-1)
    n111 = newton_product((1, 1, 1), 2)
    assert n111 == schur((3,), 2) + schur((2, 1), 2).scale(2)
    # N2 = S2 in one variable
    assert newton_product((2,), 1) == schur((2,), 1)


def test_trace_oracle_hand_cases():
    assert trace_oracle((2,), [Q(3)]) == 9
    assert trace_oracle((1, 1, 1), [Q(1), Q(1)]) == 8
    assert trace_oracle((3,), [Q(2), Q(5)]) == 133


def test_trace_oracle_random():
    for n in (1, 2, 3):
        assert verify_trace_oracle(n, samples=5, seed=0).ok


def test_sympoly_rejects_asymmetric():
    from tkkwb.multipoly import Poly
    x, y = Poly.variables(2)
    with pytest.raises(ValueError):
        SymPoly.from_poly(x)  # x alone is not symmetric
    p = SymPoly.from_poly(x * y + x + y)
    assert p.terms == {(1, 1): 1, (1, 0): 1}


def test_sympoly_evaluate_matches_full_expansion():
    rng = random.Random(5)
    p = newton_product((2, 1), 3)
    for _ in range(5):
        pt = [random_fraction(rng) for _ in range(3)]
        full = p.to_poly().evaluate(pt)
        assert p.evaluate(pt) == full


def test_orbit_is_the_set_of_distinct_permutations():
    from tkkwb.symfun import _orbit
    rng = random.Random(19)
    for _ in range(300):
        expo = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 7)))
        assert _orbit(expo) == set(permutations(expo)), expo


def test_orbit_grows_with_its_size_not_with_the_factorial():
    # n! is 2.4e18 at n = 20: only the distinct placements can be listed
    from tkkwb.symfun import _orbit
    assert len(_orbit((2, 1) + (0,) * 18)) == 20 * 19
    assert len(_orbit((0,) * 20)) == 1
    assert newton(1, 20) * newton(1, 20) == SymPoly(20, {(2,) + (0,) * 19: 1,
                                                          (1, 1) + (0,) * 18: 2})
