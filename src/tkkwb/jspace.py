"""J-spaces: representations rho of a Jordan algebra on a graded module.

Covers the two defining operator identities, the level, the extension to
the weight-zero subalgebra (braces acting by quarter-commutators), the
partition-coefficient dominance criterion, the Jordan-bimodule comparison,
and the defining relations of the universal envelope of a given level.

Every identity is decided exhaustively on basis triples; only the
dominance sum has a random mode.  The derivation identity and the
envelope's cubic relation are one double-commutator loop,
`_double_commutator_failure`, with different right-hand sides, and the
polarized square commutation is `_square_commutation_failure`.

These sweeps, the extension's checks, the dominance sum and the bimodule
identities run on a `SparseRho`: rho as sparse operators {row: {col: int}},
scaled to integers by the lcm of its denominators, made once per check from
rho as it stands; every operator they compute is sparse, compared with ==.
The extension keeps its operators in that form (`G0Rep`), and `weyl`'s
straightening reads sparse module columns from them.  rho itself is stored,
built and serialized as dense `Matrix` images.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

from .jordan import (InputError, builtin, derivation_column, jpower, load_algebra,
                     table_product, truncated_poly)
from .linalg import (LabeledSpace, Matrix, add_into, add_operator, as_int, as_list, as_q,
                     combination, combine, commutator, integer_operators, kron,
                     operator_product, q_str, random_vector, scalar_operator, scalar_value,
                     unit_vector)
from .multipoly import Poly
from .report import Report
from .symfun import SymPoly, dominance_coeffs, newton, partitions
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

    rho is one matrix per algebra basis vector, acting on column vectors
    indexed by the module basis.
    """

    def __init__(self, jordan, module, rho, name=""):
        if len(rho) != jordan.dim:
            raise InputError("need one matrix per algebra basis vector")
        m = module.dim
        for r in rho:
            if (r.rows, r.cols) != (m, m):
                raise InputError("representation matrices must be square of module size")
        self.jordan = jordan
        self.module = module
        self.rho = list(rho)
        self.name = name or f"rep on {m}-dim module over {jordan.name}"

    @property
    def mdim(self):
        return self.module.dim

    def rho_of(self, a):
        """rho extended linearly to a coordinate vector, dense or a sparse
        {index: coeff} dict (entries may be polynomials)."""
        return combination(self.mdim, self.rho, a)

    def __repr__(self):
        return f"JSpaceRep({self.name})"


def level(rep):
    """The scalar n with rho(1) = n * id; raises LevelError otherwise."""
    c = scalar_value(rep.rho_of(rep.jordan.unit))
    if c is None:
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
    for i, sig in enumerate(rep.rho):
        for r, row in enumerate(sig.data):
            for s, x in enumerate(row):
                if x and degs[r] != degs[s] + J.space.degrees[i]:
                    return f"rho({J.space.labels[i]}) entry ({r},{s}) breaks the grading"
    return None


class SparseRho:
    """The sparse, integer-scaled copy of rho that one whole check runs on.

    ops[i] is den * rho(e_i) as a sparse operator {row: {col: int}}, den the
    lcm of the denominators of rho as it stands when the copy is made (once
    per check, never per product).  Every identity checked here is
    homogeneous in rho, so it holds for rho exactly when it holds for the
    copy with its right-hand side scaled to match, and fails first at the
    same triple.  The polarized square commutation is decided on a copy at
    most once, however many reports read it.
    """

    def __init__(self, rep):
        self.rep = rep
        self.den, self.ops = integer_operators(rep.rho)
        self._square = None     # (first failing triple or None,) once decided

    def square_failure(self):
        """`_square_commutation_failure` on this copy, decided once."""
        if self._square is None:
            self._square = (_square_commutation_failure(self),)
        return self._square[0]


def _sparse(rep_or_copy):
    return rep_or_copy if isinstance(rep_or_copy, SparseRho) else SparseRho(rep_or_copy)


def check_jspace(rep_or_copy):
    """The two defining identities of a J-space, on all basis triples.

    The derivation identity [[rho(x), rho(y)], rho(z)] = 4 rho([L_x, L_y] z)
    is trilinear and is decided by `_double_commutator_failure`.  The
    square-commutation identity is nonlinear, so its trilinear polarization
        [rho(x), rho(yz)] + [rho(y), rho(xz)] + [rho(z), rho(xy)] = 0
    is checked instead.  Both run on a `SparseRho`, made here from a
    JSpaceRep or passed in to be shared with `check_envelope_relations`.

    J is not validated here.  When its table is commutative, the derivation
    identity is antisymmetric in (i, j) and holds for i = j, so it is decided
    on the pairs i < j with every k; for a noncommutative table every
    ordered pair is swept.  Either way the first failing triple in product
    order is the one reported.
    """
    copy = _sparse(rep_or_copy)
    rep = copy.rep
    J = rep.jordan
    rep_report = Report(f"j-space axioms for {rep.name}")
    d = J.dim

    breach = grading_breach(rep)
    rep_report.add("rho respects the grading", breach is None, breach or "")

    pairs = combinations(range(d), 2) if _commutative(J) else product(range(d), repeat=2)
    t = _double_commutator_failure(copy, pairs,
                                   lambda i, j, k: derivation_column(J.table, i, j, k))
    rep_report.add("derivation identity (all basis triples)", t is None,
                   "" if t is None else
                   "derivation identity fails at basis triple (%d,%d,%d)" % t)
    t = copy.square_failure()
    rep_report.add("square commutation, polarized (all basis triples)", t is None,
                   "" if t is None else
                   "polarized square-commutation fails at (%d,%d,%d)" % t)
    return rep_report


def _double_commutator_failure(copy, pairs, rhs):
    """The first triple (a, b, c) at which
        [[rho(e_a), rho(e_b)], rho(e_c)] = 4 rho(rhs(a, b, c))
    fails, or None when it holds for every (a, b) in pairs and every c.

    rhs returns sparse coordinates.  On the copy the left side is den^3
    times the true one, so the right side is scaled by 4 den^2.
    [rho(e_a), rho(e_b)] is formed once per pair, and c runs over the basis
    for each pair in turn, so triples are visited in the order of pairs,
    then of c.
    """
    ops = copy.ops
    four = 4 * copy.den ** 2
    for a, b in pairs:
        comm = commutator(ops[a], ops[b])
        for c in range(copy.rep.jordan.dim):
            if commutator(comm, ops[c]) != combine(ops, rhs(a, b, c), four):
                return (a, b, c)
    return None


def _square_commutation_failure(copy):
    """The first basis triple (i, j, k) at which the polarized
    square-commutation identity
        [rho(e_i), rho(e_j e_k)] + [rho(e_j), rho(e_i e_k)] + [rho(e_k), rho(e_i e_j)] = 0
    fails on the copy, or None when it holds on all basis triples.

    With a commutative table the polarization is symmetric in (i, j, k), so
    the sorted triples decide it, and the first failing triple in product
    order is sorted; a noncommutative table has every ordered triple swept.
    The image of each product e_j e_k is formed once.
    """
    J, ops = copy.rep.jordan, copy.ops
    d = J.dim
    triples = combinations_with_replacement(range(d), 3) if _commutative(J) \
        else product(range(d), repeat=3)
    images = {}

    def image(j, k):
        if (j, k) not in images:
            images[(j, k)] = combine(ops, J.table[j][k])
        return images[(j, k)]

    for i, j, k in triples:
        acc = commutator(ops[i], image(j, k))
        add_operator(acc, commutator(ops[j], image(i, k)))
        add_operator(acc, commutator(ops[k], image(i, j)))
        if acc:
            return (i, j, k)
    return None


def _commutative(J):
    """Whether the multiplication table is exactly symmetric."""
    return all(J.table[i][j] == J.table[j][i] for i in range(J.dim) for j in range(i))


class G0Rep:
    """A J-space extended to the weight-zero subalgebra, with the sparse
    operators its extension checked.

    Every weight-zero operator is a sparse integer operator over the one
    denominator den: h(e_i) acts by rho[i] / den and the brace basis element
    k by braces[k] / den.
    """

    def __init__(self, rep, ext, den, rho, braces, report):
        self.rep = rep
        self.ext = ext          # the central extension, for its bracket table
        self.den = den
        self.rho = rho
        self.braces = braces
        self.report = report

    @property
    def brace(self):
        return self.ext.brace


def extend_to_g0(rep, ext=None):
    """Extend rho to the weight-zero subalgebra; braces act by (1/4)[rho, rho].

    The checks run on a `SparseRho` made here.  With ops = den rho, the
    commutator [ops_i, ops_j] is 4 den^2 times the quarter commutator of the
    pair, so every weight-zero operator is kept over the denominator 4 den^2:
    the brace operators as these commutators, rho as ops scaled by 4 den.
    Well-definedness asks each defining-span row of the brace space to
    combine the pair commutators to zero; the homomorphism item compares
    [phi(p), phi(q)] with 4 den^2 times the bracket combination of the phi(t).
    """
    J = rep.jordan
    if ext is None:
        ext = build_sl2(J)
    bs = ext.brace
    report = Report(f"weight-zero extension of {rep.name}")
    copy = SparseRho(rep)
    den = 4 * copy.den ** 2

    comm_pair = [commutator(copy.ops[i], copy.ops[j]) for i, j in bs.pairs]
    report.check("well-defined on the brace quotient", range(len(bs.s_rows)),
                 lambda r: combine(comm_pair, bs.s_rows[r])
                 and f"defining-span generator {r} acts nonzero")

    rho = [combine(copy.ops, {i: 4 * copy.den}) for i in range(J.dim)]
    braces = [comm_pair[t] for t in bs.reps]
    zero_indices = [ext.h_index(i) for i in range(J.dim)] + \
                   [ext.tail_index(k) for k in range(bs.dim)]
    phi = dict(zip(zero_indices, rho + braces))

    def mismatch(pq):
        p, q = pq
        bracket = ext.bracket_basis(p, q)
        if not phi.keys() >= bracket.keys():
            raise ValueError("weight-zero indices only")
        if commutator(phi[p], phi[q]) != combine(phi, bracket, den):
            return f"bracket mismatch at ({ext.labels[p]},{ext.labels[q]})"

    # on an antisymmetric block both sides of the homomorphism are
    # antisymmetric in (p, q) and vanish at p = q, so pairs p < q decide it
    # and the first failing pair in product order is one of them
    pairs = combinations(zero_indices, 2) if ext.antisymmetric_on(zero_indices) \
        else product(zero_indices, repeat=2)
    report.check("homomorphism on the weight-zero bracket table", pairs, mismatch)
    return G0Rep(rep, ext, den, rho, braces, report)


# ---------------------------------------------------------------------------
# dominance


def dominance_operator(rep_or_copy, a):
    """Sum over partitions of level+1 of sign * class size * products of
    rho at the powers of a, as a sparse operator.  Vanishes identically
    exactly when the module is the top weight space of a bounded module.
    On a `SparseRho` (made here or passed in) the product over sigma is
    den^len(sigma) times the true one, and is scaled back."""
    copy = _sparse(rep_or_copy)
    n = level(copy.rep)
    J = copy.rep.jordan
    rhos = {k: combine(copy.ops, {i: c for i, c in enumerate(jpower(J, a, k)) if c})
            for k in range(1, n + 2)}
    acc = {}
    for sigma, c in dominance_coeffs(n).items():
        prod = rhos[sigma[0]]
        for part in sigma[1:]:
            prod = operator_product(prod, rhos[part])
        add_operator(acc, prod, Fraction(c, copy.den ** len(sigma)))
    return acc


def dominance_check(rep_or_copy, mode="symbolic", samples=8, seed=0):
    """Decide the partition-coefficient criterion.

    Symbolic mode expands the operator sum with polynomial coordinates for
    the generic element (guarded, since entries reach degree level+1 in
    dim J indeterminates); random mode evaluates at sampled rational points,
    where a nonzero polynomial of bounded degree vanishes with negligible
    probability.  Every sample reads one `SparseRho`, made here or passed in.
    """
    copy = _sparse(rep_or_copy)
    rep = copy.rep
    n = level(rep)
    if n < 0:
        raise LevelError(f"level {n} is negative")
    report = Report(f"dominance of {rep.name} (level {n})")
    if mode == "symbolic":
        if rep.jordan.dim > _SYMBOLIC_DIM_J or n > _SYMBOLIC_LEVEL:
            raise ResourceError(
                f"symbolic dominance guarded to dim J <= {_SYMBOLIC_DIM_J} and "
                f"level <= {_SYMBOLIC_LEVEL}; use random mode")
        ok = not dominance_operator(copy, Poly.variables(rep.jordan.dim))
        detail = "mode=symbolic" if ok else "nonzero symbolic coefficient found"
        report.add("dominance sum vanishes", ok, detail)
    elif mode == "random":
        rng = random.Random(seed)

        def witness(_):
            a = random_vector(rng, rep.jordan.dim)
            if dominance_operator(copy, a):
                return "witness a = " + _format_element(rep.jordan, a)

        report.check("dominance sum vanishes", range(samples), witness,
                     f"mode=random samples={samples} seed={seed}")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report


def _format_element(J, a):
    parts = [f"{q_str(c)}*{J.space.labels[i]}" for i, c in enumerate(a) if c]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Jordan bimodules


def check_bimodule(rep):
    """Jordan birepresentation test for a candidate half-action sigma.

    Checks the square-commutation identity and the defining quadratic
    identity through their polarizations on basis tuples, then the spectral
    constraint that sigma(1) is killed by x(x-1/2)(x-1), all on one
    `SparseRho` ops = den sigma: the identity at den^3 times its true size.
    """
    J = rep.jordan
    report = Report(f"jordan bimodule axioms for {rep.name}")
    copy = SparseRho(rep)
    ops, den = copy.ops, copy.den

    t = copy.square_failure()
    report.add("square commutation, polarized", t is None,
               "" if t is None else "square commutation fails at (%d,%d,%d)" % t)

    def quadratic(case):
        x, y, b = case
        lhs = combine(ops, table_product(J.table, J.table[x][y], {b: 1}), den * den)
        for p, q in ((x, y), (y, x)):
            add_operator(lhs, operator_product(operator_product(ops[p], ops[b]), ops[q]))
        rhs = {}
        for p, q, r in ((x, b, y), (y, b, x), (x, y, b)):
            add_operator(rhs, operator_product(combine(ops, J.table[p][q], den), ops[r]))
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


def check_envelope_relations(rep_or_copy, mode="symbolic", samples=8, seed=0):
    """The defining relations of the level-n universal envelope, as operator
    identities on the module: the scalar unit relation, polarized square
    commutation, the cubic rearrangement relation, and the
    partition-coefficient sum.

    The cubic relation [[rho(a), rho(b)], rho(c)] = 4 rho(a(bc) - b(ac)) is
    the derivation identity of `check_jspace` on a commutative J, with the
    factor 4 of the normalization kappa(h, h) = 4, and runs through the same
    `_double_commutator_failure` loop.  Both sides are antisymmetric in
    (a, b) for any table and vanish at a = b, so it is decided on a < b with
    every c; the first failing triple in product order is one of these.

    The partition-coefficient sum is decided right after the level, before
    either sweep, so a guarded symbolic sum raises ResourceError at once;
    its item still comes last.  Both sweeps run on a `SparseRho`, made here
    from a JSpaceRep or passed in: one shared with `check_jspace` decides
    the polarized square commutation once for both reports.
    """
    copy = _sparse(rep_or_copy)
    rep = copy.rep
    J = rep.jordan
    report = Report(f"envelope relations for {rep.name}")

    try:
        n = level(rep)
        report.add("rho(1) is an integer scalar", True, f"level {n}")
    except LevelError as exc:
        report.add("rho(1) is an integer scalar", False, str(exc))
        return report
    dominance = dominance_check(copy, mode=mode, samples=samples, seed=seed)

    t = copy.square_failure()
    report.add("square commutation, polarized", t is None,
               "" if t is None else "fails at (%d,%d,%d)" % t)

    def a_bc_minus_b_ac(a, b, c):
        return add_into(table_product(J.table, {a: 1}, J.table[b][c]),
                        table_product(J.table, {b: 1}, J.table[a][c]), -1)

    t = _double_commutator_failure(copy, combinations(range(J.dim), 2), a_bc_minus_b_ac)
    report.add("cubic rearrangement relation", t is None,
               "" if t is None else "fails at (%d,%d,%d)" % t)

    report.merge(dominance)
    return report


# ---------------------------------------------------------------------------
# builtin representations


def newton_rep(n, cutoff):
    """Power-sum multiplication on symmetric polynomials, degree-truncated.

    The module is spanned by monomial symmetric polynomials in n variables
    of total degree at most `cutoff`; the algebra generator of degree l acts
    by multiplication by the l-th power sum, truncated.  Level is n.
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
    m = len(lams)

    def pad(lam):
        return tuple(lam) + (0,) * (n - len(lam))

    # SymPoly's product, with each factor expanded once rather than per product
    msyms = [SymPoly(n, {pad(lam): 1}).to_poly() for lam in lams]
    rho = []
    for ell in range(cutoff + 1):
        N = newton(ell, n).to_poly()
        mat = [[0] * m for _ in range(m)]
        for lam, msym in zip(lams, msyms):
            prod = SymPoly.from_poly(N * msym, check=False)
            for mu, c in prod.terms.items():
                mu_trim = tuple(p for p in mu if p)
                if sum(mu_trim) <= cutoff:
                    mat[index[mu_trim]][index[lam]] = c
        rho.append(Matrix(m, m, [[Fraction(x) for x in row] for row in mat]))
    return JSpaceRep(J, module, rho, name=f"newton-rep(n={n}, cutoff={cutoff})")


def zero_rep(J, module_dim=1):
    """The zero map on a trivial module; the unique dominant level-0 shape."""
    labels = tuple(f"m{i}" for i in range(module_dim))
    module = LabeledSpace(labels, (0,) * module_dim)
    z = Matrix.zeros(module_dim, module_dim)
    return JSpaceRep(J, module, [z] * J.dim, name=f"zero rep over {J.name}")


def regular_rep(J):
    """J acting on itself by multiplication operators; level 1.

    Satisfies the J-space identities only when all inner derivations vanish
    (the derivation identity carries a factor 4 that the multiplication
    operators do not), so this is a J-space for commutative associative J.
    """
    from .jordan import L_op
    rho = [L_op(J, unit_vector(J.dim, i)) for i in range(J.dim)]
    return JSpaceRep(J, J.space, rho, name=f"regular rep of {J.name}")


def doubled_regular_rep(J):
    """Twice the multiplication operators: a level-2 J-space on any Jordan
    algebra.  The derivation identity picks up exactly the needed factor,
    and the operator consequence of the Jordan identity
    2 L_a^3 - 3 L_{a^2} L_a + L_{a^3} = 0 makes it dominant."""
    from .jordan import L_op
    rho = [L_op(J, unit_vector(J.dim, i)).scale(Fraction(2)) for i in range(J.dim)]
    return JSpaceRep(J, J.space, rho, name=f"doubled regular rep of {J.name}")


def matrix_defining_rep(m):
    """The symmetrized matrix algebra acting on columns; level 1, dominant."""
    from .jordan import matrix_jordan
    J = matrix_jordan(m)
    labels = tuple(f"c{i + 1}" for i in range(m))
    module = LabeledSpace(labels, (0,) * m)
    rho = []
    for p in range(m):
        for q in range(m):
            mat = Matrix.zeros(m, m)
            mat.data[p][q] = Fraction(1)
            rho.append(mat)
    return JSpaceRep(J, module, rho, name=f"defining rep of M{m}(k)+")


def tensor_rep(r1, r2, name=""):
    """Tensor product of two representations over the same algebra;
    the action is rho1 x 1 + 1 x rho2, and levels add."""
    if r1.jordan is not r2.jordan:
        raise InputError("tensor factors must share the algebra")
    m1, m2 = r1.mdim, r2.mdim
    labels = tuple(f"{a}*{b}" for a in r1.module.labels for b in r2.module.labels)
    degrees = tuple(da + db for da in r1.module.degrees for db in r2.module.degrees)
    module = LabeledSpace(labels, degrees)
    i1 = Matrix.identity(m1)
    i2 = Matrix.identity(m2)
    rho = [kron(a, i2) + kron(i1, b) for a, b in zip(r1.rho, r2.rho)]
    return JSpaceRep(r1.jordan, module, rho, name or f"({r1.name}) tensor ({r2.name})")


# ---------------------------------------------------------------------------
# JSON representation format


def rep_to_dict(rep, algebra_ref=None):
    return {
        "algebra": algebra_ref or "inline",
        "module": {"labels": list(rep.module.labels),
                   "degrees": list(rep.module.degrees)},
        "rho": [[[q_str(x) for x in row] for row in mat.data] for mat in rep.rho],
    }


def _algebra_from_ref(ref, base_dir=None):
    if isinstance(ref, dict):
        from .jordan import algebra_from_dict
        return algebra_from_dict(ref)
    if not isinstance(ref, str):
        raise InputError("algebra reference must be a string or object")
    if ":" in ref and not Path(ref).exists():
        family, _, arg = ref.partition(":")
        params = {}
        if family in ("truncated-poly", "truncated_poly"):
            params["degree"] = arg
        elif family == "matrix":
            params["size"] = arg
        elif family in ("spin-factor", "spin_factor"):
            params["dim"] = arg
        else:
            raise InputError(f"unknown builtin algebra {ref!r}")
        return builtin(family, **params)
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return load_algebra(path)


def rep_from_dict(data, base_dir=None, name=""):
    try:
        J = _algebra_from_ref(data["algebra"], base_dir)
        mod = data["module"]
        module = LabeledSpace(tuple(as_list(mod["labels"], "module labels")),
                              tuple(as_int(x) for x in as_list(mod["degrees"], "module degrees")))
        mats = []
        for rows in as_list(data["rho"], "rho"):
            mats.append(Matrix(module.dim, module.dim,
                               [[as_q(x) for x in as_list(row, "rho row")]
                                for row in as_list(rows, "rho matrix")]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad representation data: {exc}") from exc
    return JSpaceRep(J, module, mats, name=name or "loaded rep")


def load_rep(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read representation file {path}: {exc}") from exc
    return rep_from_dict(data, base_dir=Path(path).parent, name=str(path))
