"""J-spaces: representations rho of a Jordan algebra on a graded module.

Covers the two defining operator identities, the level, the extension to
the weight-zero subalgebra (braces acting by quarter-commutators), the
partition-coefficient dominance criterion, the Jordan-bimodule comparison,
and the defining relations of the universal envelope of a given level.

Every identity is decided exhaustively on basis triples, on J's integer
form J.products; only the dominance sum has a random mode.  The
derivation identity and the envelope's cubic relation are one
double-commutator loop, `_double_commutator_failure`; on a commutative J
they are the same identity, and the rep decides it once
(`JSpaceRep.derivation_failure`), as it decides the polarized square
commutation (`_square_commutation_failure`).

The dominance sum has one core, `_dominance_terms`, which keeps the
polynomial in the element a outside the operators: it expands the sum by
monomial of a as {multiset of basis indices: int operator}.  The symbolic
verdict expands it at the generic element, one key per monomial, and
builds no polynomial; `dominance_operator` runs the same core on the single
key () with a's integer copy as its vector.

rho has one form, from construction through every check to JSON: a
`JSpaceRep` keeps it as sparse integer operators {row: {col: int}} over one
denominator den, the lcm of the denominators it was given, so that
rho(e_i) = rho[i] / den.  The sweeps, the extension's checks, the dominance
sum and the bimodule identities all read that form, and every operator
they compute is sparse, compared with ==.  The extension keeps its
operators the same way (`G0Rep`), and `weyl`'s straightening reads sparse
module columns from them.  The builtins build the sparse operators
directly, and `rep_to_dict` writes them out as dense "p/q" rows.

The weight-zero extension builds only what it checks and hands on: the
weight-zero block of the central extension (`build_sl2` with weight_zero),
cut at a degree bound when one is given.  A cut at B is exact when the
algebra's degrees are nonnegative, rho respects the grading and B is at
least the module's spread s (largest module degree minus least): on a
graded module every operator of degree above s is zero, so every
defining-span row and weight-zero bracket above B has both sides zero, and
skipping it moves no verdict.  `degree_cut` gives that cut, and the
extension refuses any other.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

from .jordan import (BUILTIN_FAMILIES, InputError, algebra_from_dict, builtin, derivation_column,
                     load_algebra, matrix_jordan, table_product, truncated_poly)
from .linalg import (LabeledSpace, add_into, add_operator, as_int, as_list, as_q, combine,
                     commutator, integer_operators, integer_vector, operator_product, q_str,
                     random_vector, scalar_operator)
from .report import Report
from .symfun import dominance_coeffs, partitions
from .tkk import build_sl2


class LevelError(Exception):
    """rho(1) is not an integer scalar, or is negative where a level must be >= 0."""


class ResourceError(Exception):
    """A symbolic computation exceeds the configured size guards."""


# symbolic dominance explodes combinatorially; beyond these use random mode
_SYMBOLIC_DIM_J = 10
_SYMBOLIC_LEVEL = 4


class JSpaceRep:
    """A linear map from a Jordan algebra into endomorphisms of a module.

    Built from one sparse rational operator {row: {col: c}} per algebra
    basis vector, acting on column vectors indexed by the module basis;
    every index must be a module index.  It keeps them over one
    denominator, as `G0Rep` does: rho(e_i) is rho[i] / den, with den the
    lcm of the denominators given and rho[i] an integer operator with no
    zero entry and no empty row, its rows and columns in increasing order.
    Every identity checked here is homogeneous in rho, so it holds for rho
    exactly when it holds for the integer operators with its right-hand
    side scaled to match, and fails first at the same triple.

    The polarized square commutation is decided at most once per rep, as
    `jordan.validate` records its verdict on the algebra, however many
    reports read it.
    """

    def __init__(self, jordan, module, rho, name=""):
        if len(rho) != jordan.dim:
            raise InputError("need one matrix per algebra basis vector")
        m = module.dim
        if not all(0 <= r < m and all(0 <= s < m for s in row)
                   for op in rho for r, row in op.items()):
            raise InputError("representation operator index outside the module")
        self.jordan = jordan
        self.module = module
        self.den, self.rho = integer_operators(rho)
        self.name = name or f"rep on {m}-dim module over {jordan.name}"
        self._square = None     # (first failing triple or None,) once decided
        self._derivation = None  # the same, for the derivation identity

    @property
    def mdim(self):
        return self.module.dim

    def rho_of(self, a):
        """rho extended linearly to a coordinate vector, dense or a sparse
        {index: coeff} dict, as a sparse operator (entries may be
        polynomials)."""
        items = a.items() if isinstance(a, dict) else enumerate(a)
        return combine(self.rho, {k: c for k, c in items if c}, Fraction(1, self.den))

    def square_failure(self):
        """`_square_commutation_failure` on this rep, decided once."""
        if self._square is None:
            self._square = (_square_commutation_failure(self),)
        return self._square[0]

    def derivation_failure(self):
        """The first basis triple at which the derivation identity
        [[rho(x), rho(y)], rho(z)] = 4 rho([L_x, L_y] z) fails, or None,
        decided once.  On a commutative table both sides are antisymmetric in
        (x, y) and vanish at x = y, so the pairs x < y decide it with every
        z; a noncommutative table has every ordered pair swept.  Either way
        the first failing triple in product order is the one found."""
        if self._derivation is None:
            J = self.jordan
            d = J.dim
            pairs = combinations(range(d), 2) if J.commutative else product(range(d), repeat=2)
            self._derivation = (_double_commutator_failure(
                self, pairs, lambda i, j, k: derivation_column(J.products, i, j, k)),)
        return self._derivation[0]

    def __repr__(self):
        return f"JSpaceRep({self.name})"


def level(rep):
    """The scalar n with rho(1) = n * id; raises LevelError otherwise."""
    one = rep.rho_of(rep.jordan.unit)
    c = one.get(0, {}).get(0, 0)
    if one != scalar_operator(rep.mdim, c):
        raise LevelError("rho(1) is not scalar")
    c = Fraction(c)
    if c.denominator != 1:
        raise LevelError(f"rho(1) is the non-integer scalar {c}")
    return int(c)


def grading_breach(rep):
    """The first nonzero entry (r, s) of some rho(e_i), in (i, r, s) order,
    whose module degrees differ by other than deg e_i, as a message; None
    when rho respects the grading."""
    J, degs = rep.jordan, rep.module.degrees
    for i, op in enumerate(rep.rho):
        for r, row in op.items():
            for s in row:
                if degs[r] != degs[s] + J.space.degrees[i]:
                    return f"rho({J.space.labels[i]}) entry ({r},{s}) breaks the grading"
    return None


def check_jspace(rep):
    """The two defining identities of a J-space, on all basis triples.

    The derivation identity [[rho(x), rho(y)], rho(z)] = 4 rho([L_x, L_y] z)
    is trilinear and is decided by `_double_commutator_failure`.  The
    square-commutation identity is nonlinear, so its trilinear polarization
        [rho(x), rho(yz)] + [rho(y), rho(xz)] + [rho(z), rho(xy)] = 0
    is checked instead.  Both verdicts are the rep's
    (`JSpaceRep.derivation_failure`, `JSpaceRep.square_failure`), shared
    with `check_envelope_relations`.  J is not validated here.
    """
    rep_report = Report(f"j-space axioms for {rep.name}")

    breach = grading_breach(rep)
    rep_report.add("rho respects the grading", breach is None, breach or "")

    t = rep.derivation_failure()
    rep_report.add("derivation identity (all basis triples)", t is None,
                   "" if t is None else
                   "derivation identity fails at basis triple (%d,%d,%d)" % t)
    t = rep.square_failure()
    rep_report.add("square commutation, polarized (all basis triples)", t is None,
                   "" if t is None else
                   "polarized square-commutation fails at (%d,%d,%d)" % t)
    return rep_report


def _double_commutator_failure(rep, pairs, rhs):
    """The first triple (a, b, c) at which
        [[rho(e_a), rho(e_b)], rho(e_c)] = 4 rho(rhs(a, b, c))
    fails, or None when it holds for every (a, b) in pairs and every c.

    rhs returns sparse coordinates quadratic in J's integer form J.products,
    tden^2 times the true ones for tden = J.den.  On the integer operators
    the left side is den^3 times the true one, so [rho(e_a), rho(e_b)] is
    scaled by tden^2, once per pair, and the right side by 4 den^2.  c runs
    over the basis for each pair in turn, so triples are visited in the
    order of pairs, then of c.
    """
    ops = rep.rho
    four = 4 * rep.den ** 2
    tden2 = rep.jordan.den ** 2
    for a, b in pairs:
        comm = commutator(ops[a], ops[b])
        if tden2 != 1:
            comm = add_operator({}, comm, tden2)
        for c in range(rep.jordan.dim):
            if commutator(comm, ops[c]) != combine(ops, rhs(a, b, c), four):
                return (a, b, c)
    return None


def _square_commutation_failure(rep):
    """The first basis triple (i, j, k) at which the polarized
    square-commutation identity
        [rho(e_i), rho(e_j e_k)] + [rho(e_j), rho(e_i e_k)] + [rho(e_k), rho(e_i e_j)] = 0
    fails, or None when it holds on all basis triples.

    With a commutative table the polarization is symmetric in (i, j, k), so
    the sorted triples decide it, and the first failing triple in product
    order is sorted; a noncommutative table has every ordered triple swept.
    The image of each product e_j e_k is formed once, from the integer form
    J.products: the identity is linear in the table, so scaling every
    product by J.den moves no verdict.
    """
    J, ops = rep.jordan, rep.rho
    d = J.dim
    triples = combinations_with_replacement(range(d), 3) if J.commutative \
        else product(range(d), repeat=3)
    images = {}

    def image(j, k):
        if (j, k) not in images:
            images[(j, k)] = combine(ops, J.products[j][k])
        return images[(j, k)]

    for i, j, k in triples:
        acc = commutator(ops[i], image(j, k))
        add_operator(acc, commutator(ops[j], image(i, k)))
        add_operator(acc, commutator(ops[k], image(i, j)))
        if acc:
            return (i, j, k)
    return None


class G0Rep:
    """A J-space extended to the weight-zero subalgebra, with the sparse
    operators its extension checked.

    Every weight-zero operator is a sparse integer operator over the one
    denominator den: h(e_i) acts by rho[i] / den and the brace basis element
    k by braces[k] / den.  The extension is exact in the degrees <= bound,
    the degree at which its algebra was cut (every degree when None).
    """

    def __init__(self, rep, ext, den, rho, braces, report):
        self.rep = rep
        self.ext = ext          # the central extension, for its bracket table
        self.den = den
        self.rho = rho
        self.braces = braces
        self.report = report
        # the straightening data that `weyl.straightening` makes on first use
        self.straightening = None

    @property
    def brace(self):
        return self.ext.brace

    @property
    def bound(self):
        return self.ext.bound


def degree_cut(rep, bound):
    """The degree at which to cut the weight-zero extension of rep when a
    caller reads it in degrees <= bound: max(bound, s), s the module's spread
    (its largest degree minus its least), or None (no cut) when bound is
    None, an algebra degree is negative or rho breaks the grading.

    A cut at B >= s is exact.  With nonnegative degrees the part of the
    algebra above B is an ideal, and on a graded module every operator of
    degree above s is zero: so is every defining-span row and every weight-
    zero bracket of degree above B, on both sides of the extension's checks.
    """
    if bound is None or any(x < 0 for x in rep.jordan.space.degrees) or grading_breach(rep):
        return None
    mdegs = rep.module.degrees
    return max(bound, max(mdegs, default=0) - min(mdegs, default=0))


def extend_to_g0(rep, ext=None, bound=None):
    """Extend rho to the weight-zero subalgebra; braces act by (1/4)[rho, rho].

    With rep.rho = den rho, the commutator [rep.rho[i], rep.rho[j]] is
    4 den^2 times the quarter commutator of the pair, so every weight-zero
    operator is kept over the denominator 4 den^2: the brace operators as
    these commutators, rho as rep.rho scaled by 4 den.
    Well-definedness asks each defining-span row of the brace space to
    combine the pair commutators to zero; the homomorphism item reads the
    integer form ext.brackets, ext.den times the table, and compares
    ext.den [phi(p), phi(q)] with 4 den^2 times its combination of the phi(t).

    Without ext it builds only the block it checks and hands on: the
    weight-zero block of the central extension (`build_sl2` with weight_zero),
    cut at the degree bound.  A given ext brings its own cut (ext.bound).  A
    cut must be the exact one `degree_cut` gives, else ValueError; the
    rows and pairs above it, which have both sides zero, are not visited.
    """
    J = rep.jordan
    if ext is None:
        ext = build_sl2(J, bound, weight_zero=True)
    elif bound is not None:
        raise ValueError("a given extension carries its own bound")
    bound = ext.bound
    if bound is not None and degree_cut(rep, bound) != bound:
        raise ValueError(f"the extension of {rep.name} cannot be cut exactly at degree {bound}")
    bs = ext.brace
    report = Report(f"weight-zero extension of {rep.name}")
    den = 4 * rep.den ** 2

    comm_pair = [commutator(rep.rho[i], rep.rho[j]) for i, j in bs.pairs]
    report.check("well-defined on the brace quotient", range(len(bs.s_rows)),
                 lambda r: combine(comm_pair, bs.s_rows[r])
                 and f"defining-span generator {r} acts nonzero")

    rho = [combine(rep.rho, {i: 4 * rep.den}) for i in range(J.dim)]
    braces = [comm_pair[t] for t in bs.reps]
    zero_indices = [ext.h_index(i) for i in range(J.dim)] + \
                   [ext.tail_index(k) for k in range(bs.dim)]
    phi = dict(zip(zero_indices, rho + braces))

    brackets, eden = ext.brackets, ext.den

    def mismatch(pq):
        p, q = pq
        bracket = brackets.get(pq, {})
        if not phi.keys() >= bracket.keys():
            raise ValueError("weight-zero indices only")
        lhs = commutator(phi[p], phi[q])
        if eden != 1:
            lhs = add_operator({}, lhs, eden)
        if lhs != combine(phi, bracket, den):
            return f"bracket mismatch at ({ext.labels[p]},{ext.labels[q]})"

    # on an antisymmetric block both sides of the homomorphism are
    # antisymmetric in (p, q) and vanish at p = q, so pairs p < q decide it
    # and the first failing pair in product order is one of them
    pairs = combinations(zero_indices, 2) if ext.antisymmetric_on(zero_indices) \
        else product(zero_indices, repeat=2)
    if bound is not None:
        degs = ext.degrees
        pairs = ((p, q) for p, q in pairs if degs[p] + degs[q] <= bound)
    report.check("homomorphism on the weight-zero bracket table", pairs, mismatch)
    return G0Rep(rep, ext, den, rho, braces, report)


# ---------------------------------------------------------------------------
# dominance


def _dominance_terms(rep, n, first):
    """The level-n dominance sum at the element a = sum_mu x^mu first[mu],
    expanded by monomial: {mu: X_mu} with no empty operator, each X_mu
    (den tden)^(n+1) times the true coefficient of x^mu, tden = J.den, and
    an int operator when first's coordinates are ints.

    The keys mu are sorted tuples of basis indices, standing for monomials
    x^mu of a generic element, and first maps each key to a sparse vector
    of J.  The sum is homogeneous of degree n+1 in a, so its terms are sums
    over sigma of c_sigma times products of rho at the powers of a, each
    product taken term by term with keys merged by sorted concatenation.
    Under J.products the k-th power carries tden^(k-1), and the product over
    sigma on the integer operators carries den^len(sigma)
    tden^(n+1-len(sigma)), so each sigma is scaled by the int
    den^(n+1-len(sigma)) tden^len(sigma) to the common factor.  Powers,
    images and products drop empty entries as they go, so the sum vanishes
    exactly when no key is left.
    """
    T = rep.jordan.products
    powers = {1: first}
    for k in range(2, n + 2):
        out = {}
        for nu, u in first.items():
            for mu, v in powers[k - 1].items():
                add_into(out.setdefault(_merged(nu, mu), {}), table_product(T, u, v))
        powers[k] = {mu: v for mu, v in out.items() if v}
    rhos = {}
    for k, p in powers.items():
        images = {mu: combine(rep.rho, v) for mu, v in p.items()}
        rhos[k] = {mu: op for mu, op in images.items() if op}
    acc = {}
    for sigma, c in dominance_coeffs(n).items():
        prod = rhos[sigma[0]]
        for part in sigma[1:]:
            out = {}
            for mu, x in prod.items():
                for nu, y in rhos[part].items():
                    add_operator(out.setdefault(_merged(mu, nu), {}), operator_product(x, y))
            prod = {mu: op for mu, op in out.items() if op}
        scale = c * rep.den ** (n + 1 - len(sigma)) * rep.jordan.den ** len(sigma)
        for mu, op in prod.items():
            add_operator(acc.setdefault(mu, {}), op, scale)
    return {mu: op for mu, op in acc.items() if op}


def _merged(mu, nu):
    """The monomial x^mu x^nu as a sorted tuple of basis indices."""
    return tuple(sorted(mu + nu))


def dominance_operator(rep, a):
    """Sum over partitions of level+1 of sign * class size * products of
    rho at the powers of a, as a sparse operator.  Vanishes identically
    exactly when the module is the top weight space of a bounded module.
    It is `_dominance_terms` on the single key () with the integer copy
    a_int = A a (`integer_vector`), whose coordinates may be rationals or
    polynomials: the sum is homogeneous of degree level+1 in a, so the
    common factor (den tden A)^(level+1) is divided out once at the end."""
    n = level(rep)
    A, a_int = integer_vector(a)
    terms = _dominance_terms(rep, n, {(): {i: c for i, c in enumerate(a_int) if c}})
    return add_operator({}, terms.get((), {}),
                        Fraction(1, (rep.den * rep.jordan.den * A) ** (n + 1)))


def dominance_check(rep, mode="symbolic", samples=8, seed=0):
    """Decide the partition-coefficient criterion.

    Symbolic mode expands the sum at the generic element a = sum_i x_i e_i
    by monomial of its coordinates (`_dominance_terms` with the keys (i,)),
    on int operators, and passes exactly when no monomial is left; it is
    guarded, since the monomials of degree level+1 in dim J coordinates
    grow fast.  A failing symbolic item names its witness, the least
    monomial x^mu left (a sorted multiset of basis indices) and the least
    module column i where its operator has an entry: the (mu, i) that
    `weyl.efr_vanishes` returns on a rep whose weight-zero extension holds,
    since e(1)^(n+1) f(a)^(n+1) on the module is (n+1)! times this sum.
    Random mode evaluates the sum at sampled rational points, where a
    nonzero polynomial of bounded degree vanishes with negligible
    probability, and names the first point where it does not.
    """
    n = level(rep)
    if n < 0:
        raise LevelError(f"level {n} is negative")
    report = Report(f"dominance of {rep.name} (level {n})")
    if mode == "symbolic":
        d = rep.jordan.dim
        if d > _SYMBOLIC_DIM_J or n > _SYMBOLIC_LEVEL:
            raise ResourceError(
                f"symbolic dominance guarded to dim J <= {_SYMBOLIC_DIM_J} and "
                f"level <= {_SYMBOLIC_LEVEL}; use random mode")
        terms = _dominance_terms(rep, n, {(i,): {i: 1} for i in range(d)})
        detail = "mode=symbolic"
        if terms:
            mu = min(terms)
            column = min(c for row in terms[mu].values() for c in row)
            detail = f"witness {_format_monomial(rep.jordan, mu)}, column {column}"
        report.add("dominance sum vanishes", not terms, detail)
    elif mode == "random":
        rng = random.Random(seed)

        def witness(_):
            a = random_vector(rng, rep.jordan.dim)
            if dominance_operator(rep, a):
                return "witness a = " + _format_element(rep.jordan, a)

        report.check("dominance sum vanishes", range(samples), witness,
                     f"mode=random samples={samples} seed={seed}")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report


def _format_monomial(J, mu):
    """x^mu, for a sorted tuple of basis indices, in J's labels: E11^2*E12."""
    labels = J.space.labels
    return "*".join(labels[i] + (f"^{mu.count(i)}" if mu.count(i) > 1 else "")
                    for i in sorted(set(mu)))


def _format_element(J, a):
    parts = [f"{q_str(c)}*{J.space.labels[i]}" for i, c in enumerate(a) if c]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Jordan bimodules


def check_bimodule(rep):
    """Jordan birepresentation test for a candidate half-action sigma.

    Checks the square-commutation identity and the defining quadratic
    identity through their polarizations on basis tuples, then the spectral
    constraint that sigma(1) is killed by x(x-1/2)(x-1), all on the integer
    operators ops = den sigma and T = J.products over J.den: the quadratic
    identity at den^3 J.den^2 times its true size, the spectral one at den^3.
    """
    J = rep.jordan
    report = Report(f"jordan bimodule axioms for {rep.name}")
    ops, den = rep.rho, rep.den
    T, tsq = J.products, J.den * J.den

    t = rep.square_failure()
    report.add("square commutation, polarized", t is None,
               "" if t is None else "square commutation fails at (%d,%d,%d)" % t)

    def quadratic(case):
        x, y, b = case
        lhs = combine(ops, table_product(T, T[x][y], {b: 1}), den * den)
        for p, q in ((x, y), (y, x)):
            add_operator(lhs, operator_product(operator_product(ops[p], ops[b]), ops[q]), tsq)
        rhs = {}
        for p, q, r in ((x, b, y), (y, b, x), (x, y, b)):
            add_operator(rhs, operator_product(combine(ops, T[p][q], den * J.den), ops[r]))
        if lhs != rhs:
            return f"quadratic identity fails at (x,y,b)=({x},{y},{b})"

    report.check("quadratic identity, polarized (all basis tuples)",
                 product(range(J.dim), repeat=3), quadratic)

    # s1 (2 s1 - den)(s1 - den), with s1 = den sigma(1)
    s1 = combine(ops, {i: c for i, c in enumerate(J.unit) if c})
    spectral = s1
    for k in (2, 1):
        shifted = add_operator(add_operator({}, s1, k), scalar_operator(rep.mdim, -den))
        spectral = operator_product(spectral, shifted)
    report.add("sigma(1) annihilated by x(x-1/2)(x-1)", not spectral,
               "spectral constraint violated" if spectral else "")
    return report


# ---------------------------------------------------------------------------
# universal envelope relations


def check_envelope_relations(rep, mode="symbolic", samples=8, seed=0):
    """The defining relations of the level-n universal envelope, as operator
    identities on the module: the scalar unit relation, polarized square
    commutation, the cubic rearrangement relation, and the
    partition-coefficient sum.

    The cubic relation [[rho(a), rho(b)], rho(c)] = 4 rho(a(bc) - b(ac)) is
    the derivation identity of `check_jspace` on a commutative J, with the
    factor 4 of the normalization kappa(h, h) = 4: there it is the rep's
    verdict (`JSpaceRep.derivation_failure`), decided once for this report
    and `check_jspace`'s.  On a noncommutative table it runs through the
    same `_double_commutator_failure` loop with its own right-hand side.
    Both sides are antisymmetric in (a, b) for any table and vanish at
    a = b, so it is decided on a < b with every c; the first failing triple
    in product order is one of these.

    The partition-coefficient sum is decided right after the level, before
    either sweep, so a guarded symbolic sum raises ResourceError at once;
    its item still comes last.  The polarized square commutation is the
    rep's verdict, decided once for this report and `check_jspace`'s.
    """
    J = rep.jordan
    report = Report(f"envelope relations for {rep.name}")

    try:
        n = level(rep)
        report.add("rho(1) is an integer scalar", True, f"level {n}")
    except LevelError as exc:
        report.add("rho(1) is an integer scalar", False, str(exc))
        return report
    dominance = dominance_check(rep, mode=mode, samples=samples, seed=seed)

    t = rep.square_failure()
    report.add("square commutation, polarized", t is None,
               "" if t is None else "fails at (%d,%d,%d)" % t)

    P = J.products

    def a_bc_minus_b_ac(a, b, c):
        return add_into(table_product(P, {a: 1}, P[b][c]), table_product(P, {b: 1}, P[a][c]), -1)

    t = rep.derivation_failure() if J.commutative else \
        _double_commutator_failure(rep, combinations(range(J.dim), 2), a_bc_minus_b_ac)
    report.add("cubic rearrangement relation", t is None,
               "" if t is None else "fails at (%d,%d,%d)" % t)

    report.merge(dominance)
    return report


# ---------------------------------------------------------------------------
# builtin representations


def newton_rep(n, cutoff):
    """Power-sum multiplication on symmetric polynomials, degree-truncated.

    The module is spanned by monomial symmetric polynomials m_lam in n
    variables of total degree at most `cutoff`; the algebra generator of
    degree l acts by multiplication by the l-th power sum p_l, truncated.
    Level is n: p_0 = n.  For l >= 1 the products are read off the
    power-sum Pieri rule (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I): p_l m_lam is the sum over the distinct parts v of
    lam, and v = 0 when lam has fewer than n parts, of c m_mu, where mu is
    lam with one part v raised to v + l and c is the multiplicity of v + l
    in mu, since each x_i^l x^alpha lands on x^mu once for every position of
    mu holding v + l.  p_l m_lam is homogeneous of degree l + |lam|, so a
    product above the cutoff is not formed.
    """
    if n < 1:
        raise InputError("need at least one variable")
    if cutoff < 0:
        raise InputError("cutoff must be >= 0")
    J = truncated_poly(cutoff)
    lams = []
    for dtot in range(cutoff + 1):
        lams.extend([lam for lam in partitions(dtot) if len(lam) <= n])
    index = {lam: i for i, lam in enumerate(lams)}
    labels = tuple("m[" + ",".join(map(str, lam)) + "]" for lam in lams)
    degrees = tuple(sum(lam) for lam in lams)
    module = LabeledSpace(labels, degrees)

    rho = [{j: {j: n} for j in range(len(lams))}]
    for ell in range(1, cutoff + 1):
        op = {}
        for j, lam in enumerate(lams):
            if ell + degrees[j] > cutoff:
                continue
            parts = set(lam)
            if len(lam) < n:
                parts.add(0)
            for v in parts:
                mu = list(lam)
                if v:
                    mu.remove(v)
                mu.append(v + ell)
                mu.sort(reverse=True)
                op.setdefault(index[tuple(mu)], {})[j] = mu.count(v + ell)
        rho.append(op)
    return JSpaceRep(J, module, rho, name=f"newton-rep(n={n}, cutoff={cutoff})")


def zero_rep(J, module_dim=1):
    """The zero map on a trivial module; the unique dominant level-0 shape."""
    labels = tuple(f"m{i}" for i in range(module_dim))
    module = LabeledSpace(labels, (0,) * module_dim)
    return JSpaceRep(J, module, [{}] * J.dim, name=f"zero rep over {J.name}")


def _multiplication_operators(J, scale):
    """scale L_{e_i} for each basis vector e_i, as sparse operators read
    from J's integer form: column j of L_{e_i} is e_i e_j."""
    ops = [{} for _ in range(J.dim)]
    for i, op in enumerate(ops):
        for j in range(J.dim):
            for k, c in J.products[i][j].items():
                op.setdefault(k, {})[j] = Fraction(scale * c, J.den)
    return ops


def regular_rep(J):
    """J acting on itself by multiplication operators; level 1.

    Satisfies the J-space identities only when all inner derivations vanish
    (the derivation identity carries a factor 4 that the multiplication
    operators do not), so this is a J-space for commutative associative J.
    """
    return JSpaceRep(J, J.space, _multiplication_operators(J, 1),
                     name=f"regular rep of {J.name}")


def doubled_regular_rep(J):
    """Twice the multiplication operators: a level-2 J-space on any Jordan
    algebra.  The derivation identity picks up exactly the needed factor,
    and the operator consequence of the Jordan identity
    2 L_a^3 - 3 L_{a^2} L_a + L_{a^3} = 0 makes it dominant."""
    return JSpaceRep(J, J.space, _multiplication_operators(J, 2),
                     name=f"doubled regular rep of {J.name}")


def matrix_defining_rep(m):
    """The symmetrized matrix algebra acting on columns; level 1, dominant."""
    J = matrix_jordan(m)
    labels = tuple(f"c{i + 1}" for i in range(m))
    module = LabeledSpace(labels, (0,) * m)
    rho = [{p: {q: 1}} for p in range(m) for q in range(m)]
    return JSpaceRep(J, module, rho, name=f"defining rep of M{m}(k)+")


def tensor_rep(r1, r2, name=""):
    """Tensor product of two representations over the same algebra;
    the action is rho1 x 1 + 1 x rho2, and levels add.  Module basis vector
    (x, y) has index x m2 + y, m2 the dimension of the second module."""
    if r1.jordan is not r2.jordan:
        raise InputError("tensor factors must share the algebra")
    m1, m2 = r1.mdim, r2.mdim
    labels = tuple(f"{a}*{b}" for a in r1.module.labels for b in r2.module.labels)
    degrees = tuple(da + db for da in r1.module.degrees for db in r2.module.degrees)
    module = LabeledSpace(labels, degrees)
    rho = []
    for a, b in zip(r1.rho, r2.rho):
        op = {}
        for y in range(m2):
            add_operator(op, {r * m2 + y: {s * m2 + y: c for s, c in row.items()}
                              for r, row in a.items()}, Fraction(1, r1.den))
        for x in range(m1):
            add_operator(op, {x * m2 + r: {x * m2 + s: c for s, c in row.items()}
                              for r, row in b.items()}, Fraction(1, r2.den))
        rho.append(op)
    return JSpaceRep(r1.jordan, module, rho, name or f"({r1.name}) tensor ({r2.name})")


# ---------------------------------------------------------------------------
# JSON representation format


def rep_to_dict(rep, algebra_ref=None):
    """rho as one dense matrix of "p/q" strings per algebra basis vector."""
    m = rep.mdim

    def entry(row, s):
        return q_str(Fraction(row[s], rep.den)) if s in row else "0"

    return {
        "algebra": algebra_ref or "inline",
        "module": {"labels": list(rep.module.labels),
                   "degrees": list(rep.module.degrees)},
        "rho": [[[entry(op.get(r, {}), s) for s in range(m)] for r in range(m)]
                for op in rep.rho],
    }


def _algebra_from_ref(ref, base_dir=None):
    if isinstance(ref, dict):
        return algebra_from_dict(ref)
    if not isinstance(ref, str):
        raise InputError("algebra reference must be a string or object")
    if ":" in ref and not Path(ref).exists():
        family, _, arg = ref.partition(":")
        if family not in BUILTIN_FAMILIES:
            raise InputError(f"unknown builtin algebra {ref!r}")
        return builtin(family, **{BUILTIN_FAMILIES[family][0]: arg})
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return load_algebra(path)


def rep_from_dict(data, base_dir=None, name=""):
    """The rep of a rep_to_dict dict; each rho matrix must be square of the
    module's size, with rational entries, and is kept as a sparse operator."""
    try:
        J = _algebra_from_ref(data["algebra"], base_dir)
        mod = data["module"]
        module = LabeledSpace(tuple(as_list(mod["labels"], "module labels")),
                              tuple(as_int(x) for x in as_list(mod["degrees"], "module degrees")))
        m = module.dim
        rho = []
        for mat in as_list(data["rho"], "rho"):
            rows = [[as_q(x) for x in as_list(row, "rho row")]
                    for row in as_list(mat, "rho matrix")]
            if len(rows) != m:
                raise ValueError("row count mismatch")
            if any(len(row) != m for row in rows):
                raise ValueError("column count mismatch")
            rho.append({r: {s: x for s, x in enumerate(row) if x}
                        for r, row in enumerate(rows)})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad representation data: {exc}") from exc
    return JSpaceRep(J, module, rho, name=name or "loaded rep")


def load_rep(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read representation file {path}: {exc}") from exc
    return rep_from_dict(data, base_dir=Path(path).parent, name=str(path))
