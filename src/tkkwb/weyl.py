"""Truncated generalized Verma modules, straightening, and Weyl dimensions.

The induced module of a J-space sits on lowering monomials times the module:
the weight space at depth l is spanned by size-l multisets of algebra basis
indices paired with module basis vectors.  Raising generators act by
straightening: each commutator past a lowering factor produces a
weight-zero element, which is pushed to the right and applied through the
weight-zero extension.

One rule, _StraightData.raise_basis, does all straightening: efr_powers
uses it for e(1)^r f(a)^(n+1) at several depths r from one raising pass,
and TruncatedVerma for the windowed action of the raising generators.  Two
routes check it independently: the coefficient extraction from the
classical generating function of Garland (garland_coefficients, one
expansion per element a for all depths) must equal efr_powers exactly at
every depth r, and bracket_fidelity checks the windowed action against the
bracket table of the extension.  efr_power and garland_coefficient are the
single-depth forms.

efr_vanishes decides e(1)^(n+1) f(a)^(n+1) = 0 for every a exactly, one
basis multiset mu at a time, with no sample and no polynomial.

What straightening needs of a multiset of lowering factors but not of the
raising generator (its distinct factors, their multiplicities, the pair
counts and the sorted insertions) is planned once per multiset, and the
windowed lowering and weight-zero actions read the same plans, writing
each image straight into the positions of its target cell.  `straightening`
keeps one _StraightData per extension, so the samples of one check and
every window share its memos, the h and brace actions among them.

Straightening runs in integers: every coefficient that raise_basis and the
windowed action produce is an int, den times the true rational, over the
one denominator den of _StraightData, the lcm of the extension's
denominator and of the square of the algebra table's.  action_columns
hands the windowed action on over den as it is built.  Both routes of the
element a are homogeneous of degree n+1 in it, so both run on its integer
copy a_int = A a (`linalg.integer_vector`).  Each route has an integer core
that returns {r: (D_r, X_r)}, its value at depth r being X_r / D_r:
efr_powers_int raises f(a_int)^(n+1), with D_r = (den uden)^r A^(n+1), uden
the unit's denominator; garland_coefficients_int sums its expansion in ints
(in Fractions only where J's table has denominators), with
D_r = (n+1-r)! (den A)^(n+1).  efr_powers and garland_coefficients divide
their core once per depth; `garland verify` compares the two cores without
dividing, by cross-multiplication (`same_ratio`).  The results are sparse
operators of `linalg`, or lowering polynomials {multiset: operator} with no
empty operator and no zero entry, and so are the cores: canonical, so
results agree exactly when they are ==, and cores exactly when same_ratio
holds.

Weyl dimension tables come from a raising-closure of the below-band cells
of a degree-and-depth window, closed under the raising generators by
construction (so meta's stable always holds), with a submodule
certificate for the lowering and weight-zero generators checked after the
fact, and are cross-checked against a pure enumeration oracle for the
symmetric power of the natural current module.

A window of degrees <= D_max reads the extension only in degrees
<= D_max - m, m the least module degree, since no module vector sits lower:
a generator of higher degree maps every window vector out of the window.
So TruncatedVerma and weyl_dimensions pass that degree to checked_extension,
which extends a J-space cut at max(D_max - m, the module's spread) =
max(D_max, the largest module degree) - m (`jspace.degree_cut`), or uncut
when the algebra has a negative degree or rho breaks the grading.  The
table, meta and every verdict are those of the uncut extension, and a cut
extension refuses any computation that would read above its cut
(WindowError).  bracket_fidelity reads the whole bracket table, so it takes
an extension made with ext=build_sl2(J).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import factorial, lcm

from .jordan import InputError, derivation_column, jpower
from .linalg import (Matrix, RowSpan, add_into, add_operator, columns, combine,
                     commutator, int_if_integral, integer_rows, integer_vector,
                     operator_product, scalar_operator)
from .report import Report
from .jspace import G0Rep, LevelError, degree_cut, extend_to_g0, grading_breach, level


class WindowError(Exception):
    """The requested computation does not fit the degree/depth window."""


class NoncommutingPowersError(Exception):
    """The rho images of the powers of one element fail to commute, so the
    exponential generating function is meaningless for this input."""


class ExtensionError(Exception):
    """The weight-zero extension fails its checks, so no computation here is
    defined; item is the first failed CheckItem of the extension report."""

    def __init__(self, report):
        self.item = report.first_failure()
        super().__init__(f"{report.title}: FAIL {self.item.name}  [{self.item.detail}]")


def checked_extension(rep_or_g0, bound=None):
    """(g0, n): the checked weight-zero extension of a J-space or G0Rep, exact
    in every degree <= bound (in every degree when bound is None), and its
    level: the entry of every computation here.  A J-space is extended cut
    at `degree_cut(rep, bound)`, so uncut where a cut would not be exact; a
    G0Rep cut below bound raises WindowError.  Raises ExtensionError, or
    LevelError unless the level is a nonnegative integer."""
    if isinstance(rep_or_g0, G0Rep):
        g0 = rep_or_g0
        if g0.bound is not None and (bound is None or bound > g0.bound):
            raise WindowError(f"the extension is cut at degree {g0.bound}; this computation "
                              f"reads {'every degree' if bound is None else f'degree {bound}'}")
    else:
        g0 = extend_to_g0(rep_or_g0, bound=degree_cut(rep_or_g0, bound))
    if not g0.report.ok:
        raise ExtensionError(g0.report)
    n = level(g0.rep)
    if n < 0:
        raise LevelError(f"level {n} is negative")
    return g0, n


def _window_bound(rep_or_g0, D_max):
    """D_max minus the least module degree: the highest algebra degree that a
    window of degrees <= D_max reads, since no module vector sits lower."""
    rep = rep_or_g0.rep if isinstance(rep_or_g0, G0Rep) else rep_or_g0
    return D_max - min(rep.module.degrees, default=0)


# ---------------------------------------------------------------------------
# straightening data shared by the window-free and windowed engines:
# raise_basis is the one straightening rule.  Garland's generating function
# checks it through efr_powers, bracket_fidelity through the windowed action.
# Multisets of algebra basis indices are index-sorted tuples.


def _fkey_insert(fkey, value):
    out = list(fkey)
    out.append(value)
    out.sort()
    return tuple(out)


class _Memo(dict):
    """key -> make(key), made on the first lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _StraightData:
    """The straightening rule of the extension g0, in integers.

    Every coefficient handed out here is an int, den times the true
    rational: the weight-zero columns g0mat, the lowering elements repl,
    raise_basis and the h and brace actions weight_zero.  raised is over
    den * uden, uden the lcm of the denominators of the unit.  den is the lcm of
      - g0.den = 4 rden^2, rden the lcm of the denominators of rho, over
        which the h and brace operators of the extension are integers;
      - tden^2, tden = J.den, the denominator of J's integer form
        T = J.products: repl and the brace action on J are quadratic in the
        table.
    The weight-zero columns need no more.  On a checked extension the brace
    {e_x, e_b} acts by (1/4)[rho(e_x), rho(e_b)], so [e(e_x), f(e_b)] acts
    by rho(e_x e_b) + (1/2)[rho(e_x), rho(e_b)], whose denominators divide
    rden tden and 2 rden^2, hence den; `columns` raises ArithmeticError
    should an entry ever be left fractional.

    What does not depend on the raising generator is made once per
    multiset and kept: plans[fkey] (see _plan), and insertions[nu][k], the
    multiset nu with k inserted.  So are the lowering elements repl[x, b, c],
    the raised units raised[fkey, mi] and the h and brace actions
    weight_zero[kind, i] that every window reads (see _weight_zero_action).
    Everything here is kept for the life of the object, which
    `straightening` makes once per extension.
    """

    def __init__(self, g0):
        self.g0 = g0
        J = g0.rep.jordan
        d = J.dim
        bs = g0.brace
        self.tden, self.T = tden, T = J.den, J.products
        self.den = lcm(g0.den, tden * tden)
        # the scale of the terms quadratic in the table
        self.tscale = self.den // (tden * tden)
        # [e(e_x), f(e_b)] = h(e_x e_b) + 2 {e_x, e_b}, applied on the module,
        # is 1/base times an integer operator read from g0's and the brace
        # coordinates, ints over cden; g0mat[x][b] holds its sparse columns
        # over den.  A window reads none of degree above the extension's
        # cut, so those are left empty
        cden = bs.pair_den
        base = g0.den * tden * cden
        scale = Fraction(self.den, base)
        degs, bound = J.space.degrees, g0.bound
        self.g0mat = [[columns(add_operator(combine(g0.rho, T[x][b], cden),
                                            combine(g0.braces, bs.pair_coords.get((x, b), {}),
                                                    2 * tden)),
                               scale)
                       if bound is None or degs[x] + degs[b] <= bound else {}
                       for b in range(d)] for x in range(d)]
        self.repl = _Memo(self._repl)
        self.uden, (self._unit,) = integer_rows((dict(enumerate(J.unit)),))
        self.raised = _Memo(self._raise_unit)
        self.weight_zero = _Memo(self._weight_zero_action)
        self.insertions = _Memo(lambda nu: _Memo(lambda k: _fkey_insert(nu, k)))
        self.plans = _Memo(self._plan)

    def _plan(self, fkey):
        """One term (b, mult, nu, insertions[nu], pairs) per distinct factor
        b of fkey, in increasing order, with multiplicity mult and
        nu = fkey - b, and one pair (c, count, insertions[fkey - b - c]) per
        factor c >= b that a weight-zero element left by passing b meets
        next: count = mult (mult - 1) / 2 for c = b, else mult times the
        multiplicity of c.

        All of it is read from the runs of equal entries of the sorted
        fkey: a run starting at i gives b and mult, nu drops position i, and
        nu - c drops the start of c's run in nu, which is i again for c = b
        and one place before its start in fkey for c > b."""
        runs = []
        start = 0
        for b, run in groupby(fkey):
            mult = sum(1 for _ in run)
            runs.append((start, b, mult))
            start += mult
        insertions = self.insertions
        terms = []
        for k, (i, b, mult) in enumerate(runs):
            nu = fkey[:i] + fkey[i + 1:]
            pairs = []
            if mult > 1:
                pairs.append((b, mult * (mult - 1) // 2, insertions[nu[:i] + nu[i + 1:]]))
            for j, c, cmult in runs[k + 1:]:
                pairs.append((c, mult * cmult, insertions[nu[:j - 1] + nu[j:]]))
            terms.append((b, mult, nu, insertions[nu], pairs))
        return terms

    def _repl(self, key):
        """[h(e_x e_b) + 2{e_x,e_b}, f(e_c)] = f(-2 (e_x e_b) e_c + 2 da_{x,b} e_c)
        for key = (x, b, c): the lowering element, as {index: int}."""
        x, b, c = key
        T, s = self.T, self.tscale
        out = {}
        for m, cm in T[x][b].items():
            add_into(out, T[m][c], -2 * s * cm)
        return add_into(out, derivation_column(T, x, b, c), 2 * s)

    def raise_basis(self, x, fkey, mi):
        """e(e_x) f(fkey) m_mi straightened, as {(multiset, module index): coeff}.

        Passing one lowering factor f(e_b) leaves the weight-zero element
        g0mat[x][b], which acts on m_mi; passing a second factor f(e_c) first
        turns it into the lowering element repl[x, b, c].
        """
        # summed term by term, not through add_into: the innermost loop of
        # the closure, where a dict per term costs more than the sum
        out = {}
        g0x = self.g0mat[x]
        repl = self.repl
        for b, mult, nu, _, pairs in self.plans[fkey]:
            col = g0x[b].get(mi)
            if col:
                for r, c in col.items():
                    key = (nu, r)
                    v = out.get(key, 0) + mult * c
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
            # pair terms: the weight-zero element continues rightward and
            # commutes with one more lowering factor
            for c, count, ins in pairs:
                for k, ck in repl[x, b, c].items():
                    key = (ins[k], mi)
                    v = out.get(key, 0) + count * ck
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
        return out

    def _raise_unit(self, key):
        """e(1) f(fkey) m_mi straightened, over den * uden, for key = (fkey, mi)."""
        out = {}
        for x, c in self._unit.items():
            add_into(out, self.raise_basis(x, *key), c)
        return out

    def _weight_zero_action(self, key):
        """(on_J, on_module) of h(e_i) or of the brace basis element i, for
        key = (kind, i) with kind "h" or "d".

        on_J[b] is the sparse image of e_b under the operator on J: -2 e_i e_b
        for h(e_i), the inner derivation [L_{e_a}, L_{e_a'}] e_b for a brace
        with representative pair (a, a').  Both are lookups in the integer
        form T of J's table (J is validated, so commutative), never in the
        extension's bracket table, which bracket_fidelity checks this action
        against.  on_module holds the sparse columns of rho[i] or of the
        brace's operator.  All are ints over den.
        """
        kind, i = key
        g0, T = self.g0, self.T
        if kind == "h":
            s = -2 * self.tscale * self.tden
            on_J = [{r: s * c for r, c in row.items()} for row in T[i]]
            return on_J, columns(g0.rho[i], self.den // g0.den)
        a, a2 = g0.brace.rep_pairs[i]
        on_J = [{r: self.tscale * c for r, c in derivation_column(T, a, a2, b).items()}
                for b in range(len(T))]
        return on_J, columns(g0.braces[i], self.den // g0.den)


def straightening(g0):
    """The _StraightData of the extension g0, made on first use and kept on
    g0, so that every computation on one extension shares its memos."""
    if g0.straightening is None:
        g0.straightening = _StraightData(g0)
    return g0.straightening


# ---------------------------------------------------------------------------
# window-free engine: formal lowering polynomials with operator coefficients
#
# An element sum_mu f(mu) X_mu, with mu a multiset of algebra basis indices
# and X_mu a sparse operator on the module, represents m -> sum f(mu) (X_mu m);
# it is stored as {mu: X_mu} without empty operators.


def lowering_power(a, k):
    """f(a)^k expanded over basis multisets: {multiset: scalar}, each scalar
    an int multinomial times coordinates of a."""
    support = [i for i, c in enumerate(a) if c]
    fp = {}
    for combo in combinations_with_replacement(support, k):
        counts = Counter(combo)
        scalar = factorial(k)
        for c in counts.values():
            scalar //= factorial(c)
        for i, c in counts.items():
            for _ in range(c):
                scalar = scalar * a[i]
        if scalar:
            fp[combo] = scalar
    return fp


def _check_depths(rrs, n):
    """The depths rrs sorted without repeats; each must lie in 0..n+1."""
    rrs = sorted(set(rrs))
    if rrs and not 0 <= rrs[0] <= rrs[-1] <= n + 1:
        raise ValueError(f"need 0 <= rr <= {n + 1}")
    return rrs


def efr_powers_int(g0, a, rrs):
    """{rr: (D_rr, X_rr)}: the integer core of efr_powers, whose value at rr
    is X_rr / D_rr, with D_rr = (den uden)^rr A^(n+1).

    X_rr is a sparse operator on the module for rr = n+1 (the result has no
    lowering factors left) and a formal lowering polynomial with sparse
    operator coefficients for rr <= n, with int entries (Poly entries at a
    point with polynomial coordinates), none zero.  Column mi of each comes
    from one pass that raises the sparse vector f(a)^(n+1) m_mi up to the
    deepest rr, keeping it at every requested depth.  The pass starts from
    f(a_int)^(n+1), a_int = A a the integer copy of a (`integer_vector`),
    which is A^(n+1) f(a)^(n+1) since the power is homogeneous, and each
    raising step is over den uden (`_StraightData.raised`).
    """
    g0, n = checked_extension(g0)
    rrs = _check_depths(rrs, n)
    data = straightening(g0)
    m = g0.rep.mdim
    A, a_int = integer_vector(a)
    power = lowering_power(a_int, n + 1)
    fps = {rr: {} for rr in rrs}
    for mi in range(m):
        vecs = [{(fkey, mi): c for fkey, c in power.items()}]
        for _ in range(max(rrs, default=0)):
            nxt = {}
            for bm, c in vecs[-1].items():
                add_into(nxt, data.raised[bm], c)
            vecs.append(nxt)
        for rr, fp in fps.items():
            for (fkey, r), c in vecs[rr].items():
                fp.setdefault(fkey, {}).setdefault(r, {})[mi] = c
    if n + 1 in fps:
        top = fps[n + 1]
        if any(key != () for key in top):
            raise AssertionError("depth-0 result kept lowering factors")
        fps[n + 1] = top.get((), {})
    step, top = data.den * data.uden, A ** (n + 1)
    return {rr: (step ** rr * top, fp) for rr, fp in fps.items()}


def _divided(x, D):
    """x / D for an entry x, or entrywise for nested dicts of entries; an
    entry may be a Poly, so it is multiplied by 1/D rather than divided."""
    if isinstance(x, dict):
        return {k: _divided(v, D) for k, v in x.items()}
    return x * Fraction(1, D)


def same_ratio(left, right):
    """Whether X1 / D1 == X2 / D2 for two (D, X) cores of one depth, without
    dividing: equal key sets at every level of the nested dicts and
    x D2 == y D1 at every entry.  Exact since neither core holds a zero
    entry or an empty operator."""
    (D1, x), (D2, y) = left, right
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and \
            all(same_ratio((D1, x[k]), (D2, y[k])) for k in x)
    return not isinstance(y, dict) and x * D2 == y * D1


def efr_powers(g0, a, rrs):
    """{rr: the straightened action of e(1)^rr f(a)^(n+1)} for each rr in rrs:
    each core of efr_powers_int divided once by its D_rr, a sparse operator
    for rr = n+1 and a lowering polynomial {multiset: operator} for rr <= n."""
    return {rr: _divided(x, D) for rr, (D, x) in efr_powers_int(g0, a, rrs).items()}


def efr_power(g0, a, rr):
    """efr_powers at the single depth rr."""
    return efr_powers(g0, a, [rr])[rr]


def efr_vanishes(rep_or_g0):
    """(True, None) when e(1)^(n+1) f(a)^(n+1) kills the module for every a,
    else (False, (mu, i)) for the first size-(n+1) multiset mu of basis
    indices and module index i, in the order of the sweep below, with
    e(1)^(n+1) f(e_mu) m_i != 0.

    Exact: the f(e_i) commute, so f(a)^(n+1) sums a nonzero multinomial
    times a^mu f(e_mu) over those mu, each a distinct monomial in a.
    top[(fkey, mi)] is the image of a basis vector under e(1)^len(fkey),
    ints over a power of den uden read from `_StraightData.raised`.
    """
    g0, n = checked_extension(rep_or_g0)
    raised = straightening(g0).raised
    top = _Memo(lambda bm: _image(top, raised[bm]) if bm[0] else {bm[1]: 1})
    for mu, i in product(combinations_with_replacement(range(g0.rep.jordan.dim), n + 1),
                         range(g0.rep.mdim)):
        if top[mu, i]:
            return (False, (mu, i))
    return (True, None)


# ---------------------------------------------------------------------------
# the generating-function route


def garland_coefficients_int(g0, a, rrs):
    """{rr: (D_rr, X_rr)}: the integer core of garland_coefficients, the
    coefficient extraction from the classical generating function X_rr / D_rr
    for each rr in rrs, with D_rr = (n+1-rr)! (den A)^(n+1).

    Expands (sum_s f(a^s) u^s)^(n+1-rr) * exp(-sum_t rho(a^t)/t u^t) to
    order u^(n+1), keeping lowering symbols formal on the left and letting
    the weight-zero symbols act on the module, then scales by
    (-1)^rr rr! (n+1)!/(n+1-rr)!.  X_rr has the shape of efr_powers_int's,
    with no zero entry and no empty operator.  The rho images of the powers
    of a must commute, which is validated first.  The exponential series depends on
    a alone and the lowering sum is raised to successive powers once, so
    every depth reads both from one expansion.  The rho images are read
    from the rep's own integer operators rho / den, not from the
    straightening data or the weight-zero extension.

    Both factors are homogeneous in a, so the expansion runs on the integer
    copy a_int = A a (`integer_vector`): G_t = den rho(a_int^t) is
    den A^t rho(a^t), an int operator when J's table is integral.  The
    exponential E = sum_p e_p u^p satisfies E' = -S' E for its exponent S,
    so E_p = p! den^p A^p e_p follows the integer recurrence
        E_0 = 1,  E_p = -sum_{t=1..p} (p-1)!/(p-t)! den^(t-1) G_t E_{p-t}.
    The u^p part of the lowering sum's powers is A^p times the true one, so
    each depth sums its u^(n+1) coefficient over the common denominator
    (n+1)! den^(n+1) A^(n+1), whose (n+1)! cancels against the prefactor's;
    the prefactor's (-1)^rr rr! goes into the ints and its (n+1-rr)! into
    D_rr.  The entries are ints, or Fractions where J's table has
    denominators, or Polys at a point with polynomial coordinates.
    """
    g0, n = checked_extension(g0)
    rep = g0.rep
    rrs = _check_depths(rrs, n)
    J = rep.jordan
    m = rep.mdim
    den = rep.den
    order = n + 1
    A, a_int = integer_vector(a)

    # lower[s]: index i -> coordinate i of a_int^s, an int where integral
    lower = [{}] + [{i: int_if_integral(c) for i, c in enumerate(jpower(J, a_int, s)) if c}
                    for s in range(1, order + 1)]
    # G[t] = den A^t rho(a^t); the rho(a^t) commute exactly when these do
    G = [{}] + [combine(rep.rho, lower[t]) for t in range(1, order + 1)]
    for s in range(1, order + 1):
        for t in range(s + 1, order + 1):
            if commutator(G[s], G[t]):
                raise NoncommutingPowersError(
                    f"[rho(a^{s}), rho(a^{t})] != 0; the exponential series "
                    "is undefined for this element")

    # expo[p] = p! den^p A^p times the u^p coefficient of
    # exp(-sum_t rho(a^t)/t u^t)
    expo = [scalar_operator(m)]
    for p in range(1, order + 1):
        acc = {}
        for t in range(1, p + 1):
            add_operator(acc, operator_product(G[t], expo[p - t]),
                         -(factorial(p - 1) // factorial(p - t)) * den ** (t - 1))
        expo.append(acc)

    # apows[k] = (sum_s f(a_int^s) u^s)^k, k up to n+1-rr for the least rr:
    # per u-power, multiset -> scalar
    apows = [[{(): 1}] + [dict() for _ in range(order)]]
    for _ in range(n + 1 - min(rrs, default=n + 1)):
        nxt = [dict() for _ in range(order + 1)]
        for p in range(order + 1):
            for key, c in apows[-1][p].items():
                for q in range(1, order + 1 - p):
                    add_into(nxt[p + q],
                             {_fkey_insert(key, i): c2 for i, c2 in lower[q].items()}, c)
        apows.append(nxt)

    results = {}
    for rr in rrs:
        # sum over the common denominator (n+1)! den^(n+1) A^(n+1), times
        # (-1)^rr rr! (n+1)!, whose (n+1)! cancels against it
        sign = (-1) ** rr * factorial(rr)
        out = {}
        for k, terms in enumerate(apows[n + 1 - rr]):
            bmat = expo[order - k]
            if not bmat:
                continue
            weight = sign * (factorial(order) // factorial(order - k)) * den ** k
            for key, c in terms.items():
                add_operator(out.setdefault(key, {}), bmat, c * weight)
        out = {key: op for key, op in out.items() if op}
        results[rr] = (factorial(order - rr) * (den * A) ** order,
                       out.get((), {}) if rr == n + 1 else out)
    return results


def garland_coefficients(g0, a, rrs):
    """{rr: coefficient extraction from the classical generating function}
    for each rr in rrs: each core of garland_coefficients_int divided once
    by its D_rr, in the shape of efr_powers' results."""
    return {rr: _divided(x, D) for rr, (D, x) in garland_coefficients_int(g0, a, rrs).items()}


def garland_coefficient(g0, a, rr):
    """garland_coefficients at the single depth rr."""
    return garland_coefficients(g0, a, [rr])[rr]


# ---------------------------------------------------------------------------
# windowed cells


def _multisets(order, degs, size, bound):
    """The size-`size` multisets over `order`, which is sorted by degree,
    whose degrees sum to at most bound, in combinations_with_replacement
    order.  Degrees are nonnegative, so a branch stops at the first element
    that overshoots."""
    if size == 0:
        yield ()
        return
    # a depth-first walk without recursion, since the depth is the size:
    # pos[k] is the position in order of element k, left[k] the degree left
    # for the elements k, ..., size - 1
    pos = [0] * size
    left = [bound] * (size + 1)
    k = 0
    while k >= 0:
        p = pos[k]
        if p < len(order) and degs[order[p]] * (size - k) <= left[k]:
            left[k + 1] = left[k] - degs[order[p]]
            if k + 1 < size:
                k += 1
                pos[k] = p
                continue
            yield tuple(order[q] for q in pos)
        else:
            k -= 1
        if k >= 0:
            pos[k] += 1


class TruncatedVerma:
    """Degree/depth window of the induced module, with generator actions.

    Cells are indexed by (depth l, total degree d); the weight is n - 2l.
    Cell bases are pairs (index-sorted multiset of algebra indices, module
    index), ordered as _multisets enumerates them over the basis sorted by
    (degree, index), then by module index.
    """

    def __init__(self, g0, D_max, W):
        if W < 1:
            raise WindowError("window depth must be >= 1")
        if D_max < 0:
            raise InputError("max degree must be >= 0")
        bound = _window_bound(g0, D_max)
        g0, self.n = checked_extension(g0, bound)
        self.g0 = g0
        rep = g0.rep
        self.rep = rep
        J = rep.jordan
        self.J = J
        if any(x < 0 for x in J.space.degrees):
            raise InputError("algebra degrees must be nonnegative")
        breach = grading_breach(rep)
        if breach:
            raise InputError(breach)
        self.D_max = D_max
        self.W = W
        self.ell_max = self.n + W
        self.data = straightening(g0)

        degs = J.space.degrees
        order = sorted(range(J.dim), key=lambda i: (degs[i], i))

        mdegs = rep.module.degrees
        self.cells = {}
        self.cell_pos = {}
        for ell in range(self.ell_max + 1):
            for combo in _multisets(order, degs, ell, bound):
                fdeg = sum(degs[i] for i in combo)
                fkey = tuple(sorted(combo))
                for mi in range(rep.mdim):
                    d = fdeg + mdegs[mi]
                    if d > D_max:
                        continue
                    key = (ell, d)
                    self.cells.setdefault(key, []).append((fkey, mi))
        for key, basis in self.cells.items():
            self.cell_pos[key] = {bm: t for t, bm in enumerate(basis)}
        self._columns = _Memo(self._block)

        d = J.dim
        self.generators = [("e", i) for i in range(d)] + \
                          [("f", i) for i in range(d)] + \
                          [("h", i) for i in range(d)] + \
                          [("d", k) for k in range(len(g0.braces))]

    def cell_dim(self, key):
        return len(self.cells.get(key, []))

    def weight(self, ell):
        return self.n - 2 * ell

    def gen_degree(self, gen):
        kind, i = gen
        if kind == "d":
            ext = self.g0.ext
            return ext.degrees[ext.tail_index(i)]
        return self.J.space.degrees[i]

    def target_of(self, gen, cell):
        """("ok", key) if the image cell is in the window, ("zero", None) if
        the action is identically zero, ("out", None) if truncated away."""
        kind, i = gen
        ell, d = cell
        gdeg = self.gen_degree(gen)
        if kind == "e":
            if ell == 0:
                return ("zero", None)
            tgt = (ell - 1, d + gdeg)
        elif kind == "f":
            tgt = (ell + 1, d + gdeg)
            if tgt[0] > self.ell_max:
                return ("out", None)
        else:
            tgt = (ell, d + gdeg)
        if tgt[1] > self.D_max:
            return ("out", None)
        return ("ok", tgt)

    def action_columns(self, gen, cell):
        """(den, columns) of the generator from cell to its target cell, cached.

        Column j is den times the image of basis vector j, a sparse {target
        position: int}: the action is columns / den, with the same spans.
        den is the denominator of the straightening data, and the columns
        are the straightened ints as they were built: no reader needs a
        least denominator, since the closure reads only spans and every
        other reader divides by the den it is given.
        """
        return self._columns[gen, cell]

    def _block(self, key):
        """action_columns for key = (gen, cell), made afresh: (data.den, the
        _images of the cell's basis)."""
        gen, cell = key
        status, tgt = self.target_of(gen, cell)
        if status != "ok":
            raise WindowError(f"generator {gen} leaves the window from cell {cell}")
        try:
            images = self._images(gen, self.cells.get(cell, []), self.cell_pos.get(tgt, {}))
        except KeyError:
            # complete cells: a missing target means it fell outside the
            # window, which target_of already excluded
            raise AssertionError("image outside computed cell basis") from None
        return self.data.den, images

    def action_matrix(self, gen, cell):
        """The action_columns of the generator as a dense Fraction matrix."""
        den, cols = self.action_columns(gen, cell)
        tdim = self.cell_dim(self.target_of(gen, cell)[1])
        rows = [[Fraction(0)] * len(cols) for _ in range(tdim)]
        for j, col in enumerate(cols):
            for t, c in col.items():
                rows[t][j] = Fraction(c, den)
        return Matrix(tdim, len(cols), rows)

    def _images(self, gen, basis, tgt_pos):
        """The generator on each (multiset, module index) of basis, as
        {target position: int} over the denominator of the straightening
        data; KeyError when an image leaves tgt_pos.  The f, h and d images
        are written straight into positions from the insertions and the
        multiset plans of the straightening data, the h and d images from
        its weight_zero actions too, the e images come from raise_basis."""
        kind, i = gen
        data = self.data
        if kind == "e":
            return [{tgt_pos[bm]: c for bm, c in data.raise_basis(i, fkey, mi).items()}
                    for fkey, mi in basis]
        if kind == "f":
            return [{tgt_pos[(data.insertions[fkey][i], mi)]: data.den} for fkey, mi in basis]
        if kind not in ("h", "d"):
            raise ValueError(f"unknown generator kind {kind}")
        # a weight-zero generator acts on each lowering factor through its
        # operator on J, then on the module vector
        on_J, on_module = data.weight_zero[kind, i]
        images = []
        for fkey, mi in basis:
            img = {}
            for b, mult, _, ins, _ in data.plans[fkey]:
                for r, c in on_J[b].items():
                    t = tgt_pos[(ins[r], mi)]
                    v = img.get(t, 0) + mult * c
                    if v:
                        img[t] = v
                    elif t in img:
                        del img[t]
            col = on_module.get(mi)
            if col:
                add_into(img, {tgt_pos[(fkey, r)]: c for r, c in col.items()})
            images.append(img)
        return images


def apply_generator(verma, vec_by_cell, gen):
    """One homogeneous generator applied to a vector given per cell.

    Raises WindowError when any nonzero component would leave the window.
    """
    out = {}
    for cell, vec in vec_by_cell.items():
        if all(not x for x in vec):
            continue
        status, tgt = verma.target_of(gen, cell)
        if status == "zero":
            continue
        if status == "out":
            raise WindowError(f"image of cell {cell} under {gen} leaves the window")
        img = verma.action_matrix(gen, cell).apply(vec)
        if any(img):
            if tgt in out:
                out[tgt] = [x + y for x, y in zip(out[tgt], img)]
            else:
                out[tgt] = img
    return out


# ---------------------------------------------------------------------------
# Weyl dimension tables


class WeylTable:
    """Graded dimensions dim (w, d) of the universal bounded quotient, with
    window metadata and certificate flags."""

    def __init__(self, n, D_max, W, dims, meta=None):
        self.n = n
        self.D_max = D_max
        self.W = W
        self.dims = dict(dims)
        self.meta = dict(meta or {})

    def dim(self, w, d):
        return self.dims.get((w, d), 0)

    def keys_sorted(self):
        return sorted(self.dims, key=lambda wd: (-wd[0], wd[1]))

    def to_csv_lines(self):
        lines = ["weight,degree,dim"]
        for (w, d) in self.keys_sorted():
            lines.append(f"{w},{d},{self.dims[(w, d)]}")
        return lines

    def to_json_dict(self):
        return {
            "level": self.n,
            "max_degree": self.D_max,
            "window": self.W,
            "dims": [[w, d, self.dims[(w, d)]] for (w, d) in self.keys_sorted()],
            "meta": self.meta,
        }

    def diff(self, other):
        """(w, d, self_dim, other_dim) triples where the tables disagree."""
        out = []
        keys = set(self.dims) | set(other.dims)
        for key in sorted(keys, key=lambda wd: (-wd[0], wd[1])):
            a, b = self.dims.get(key, 0), other.dims.get(key, 0)
            if a != b:
                out.append((key[0], key[1], a, b))
        return out

    def __eq__(self, other):
        if not isinstance(other, WeylTable):
            return NotImplemented
        return not self.diff(other)

    def __repr__(self):
        return f"WeylTable(level={self.n}, D={self.D_max}, cells={len(self.dims)})"


def _image(cols, vec):
    """sum_j vec[j] cols[j] for a sparse vector and columns, {index: coeff}."""
    out = {}
    for j, c in vec.items():
        add_into(out, cols[j], c)
    return out


def _open_target(verma, X, gen, cell):
    """The target cell of gen from cell, or None when the action is zero,
    leaves the window, or lands in a cell that the killed part X fills,
    where every image is already killed.  Cells deeper than n are killed
    whole and are not stored in X."""
    status, tgt = verma.target_of(gen, cell)
    if status != "ok" or tgt[0] > verma.n or \
            (tgt in X and X[tgt].dim == verma.cell_dim(tgt)):
        return None
    return tgt


def _leaves(verma, X, gen, cell):
    """Whether gen maps some row of the killed part X[cell] outside X."""
    tgt = _open_target(verma, X, gen, cell)
    if tgt is None:
        return False
    _, cols = verma.action_columns(gen, cell)
    for row in X[cell].rows.values():
        img = _image(cols, row)
        if img and (tgt not in X or not X[tgt].contains(img)):
            return True
    return False


def weyl_dimensions(rep_or_g0, D_max, W=None):
    """Graded dimensions of the universal bounded quotient, windowed.

    The killed part is the raising-closure of the full below-band cells
    (lowering and weight-zero generators keep those cells below the band,
    so the closure under raising generators alone spans the submodule).
    Raising lowers the depth by one, so only the depth-(n+1) cells feed rows
    into the cells of depth <= n: the closure runs on depths 0..n+1, the
    cells deeper than n count as full and are never stored, and the table
    does not depend on the window depth W >= 1, which is only checked and
    recorded.  Each sweep applies the raising generators to the rows the
    previous sweep added, in a fixed cell order, and skips a generator whose
    target cell is full: every insert there would be rejected.  Each sweep
    reaches one depth higher, so at most n + 2 sweeps run.

    Once a sweep adds nothing, the killed part X, together with the full
    cells deeper than n, is closed under the raising generators by
    construction: every row inserted into X has had all its raising images
    inserted, accepted or rejected as already inside, and X only grows, so
    they stay inside; a target that a sweep skips is full, deeper than n, or
    outside the window.  So meta's stable is always True.  One closing pass
    then applies the lowering and weight-zero generators (f, h and d) to the
    whole killed part: an image outside it fails the submodule certificate.
    meta also says whether the top cells survive (top_weight_preserved, the
    exact closure-side reading of dominance); nothing depends on a seed.
    """
    g0, n = checked_extension(rep_or_g0, _window_bound(rep_or_g0, D_max))
    if W is None:
        W = n + 2
    elif W < 1:
        raise WindowError("window depth must be >= 1")
    verma = TruncatedVerma(g0, D_max, 1)

    raise_gens = [g for g in verma.generators if g[0] == "e"]

    # frontier rows and the rows of the killed parts are sparse {position: int}
    X = {}
    frontier = {cell: [{t: 1} for t in range(len(basis))]
                for cell, basis in verma.cells.items() if cell[0] == n + 1}

    sweeps = 0
    added = 1
    while added:
        sweeps += 1
        added = 0
        new_frontier = {}
        for cell, rows in sorted(frontier.items()):
            for gen in raise_gens:
                tgt = _open_target(verma, X, gen, cell)
                if tgt is None:
                    continue
                _, cols = verma.action_columns(gen, cell)
                for v in rows:
                    img = _image(cols, v)
                    if not img:
                        continue
                    if tgt not in X:
                        X[tgt] = RowSpan(verma.cell_dim(tgt))
                    if X[tgt].insert(img):
                        new_frontier.setdefault(tgt, []).append(img)
                        added += 1
        frontier = new_frontier

    # the closing pass, for the generators the sweeps do not close X under
    certificate_ok = not any(_leaves(verma, X, gen, cell)
                             for cell, gen in product(sorted(X), verma.generators)
                             if gen[0] != "e")

    dims = {}
    top_preserved = True
    for cell, basis in verma.cells.items():
        ell, d = cell
        if ell > n:
            continue
        xdim = X[cell].dim if cell in X else 0
        dims[(verma.weight(ell), d)] = len(basis) - xdim
        if ell == 0 and xdim:
            top_preserved = False

    meta = {
        "sweeps": sweeps,
        "stable": True,
        "certificate_ok": certificate_ok,
        "top_weight_preserved": top_preserved,
    }
    return WeylTable(n, D_max, W, dims, meta)


def snlt_oracle(n, D_max):
    """Pure enumeration of the symmetric power of the natural current module.

    Basis: size-n multisets over signed degrees (+,i)/(-,i), 0 <= i <= D_max;
    a multiset contributes to weight (#plus - #minus) and degree sum(i).
    Level 0 has the one empty multiset: the trivial table.
    """
    if n < 0:
        raise InputError("level must be >= 0")
    symbols = [(1, i) for i in range(D_max + 1)] + [(-1, i) for i in range(D_max + 1)]
    dims = Counter()
    for combo in combinations_with_replacement(range(len(symbols)), n):
        w = 0
        d = 0
        for s in combo:
            sgn, deg = symbols[s]
            w += sgn
            d += deg
        if d <= D_max:
            dims[(w, d)] += 1
    meta = {"oracle": "symmetric-power enumeration"}
    return WeylTable(n, D_max, None, dims, meta)


def bracket_fidelity(verma):
    """Check action(g1)action(g2) - action(g2)action(g1) = action([g1, g2])
    on window-interior cells, against the bracket table of the extension.

    It checks the cached action_columns, which the closure runs on, against
    the structure constants.
    """
    ext = verma.g0.ext
    if ext.weight_zero_only:
        raise ValueError("bracket fidelity reads the whole bracket table: "
                         "extend with ext=build_sl2(J)")
    rep = Report(f"bracket fidelity for {verma.rep.name}")

    def ext_index(gen):
        kind, i = gen
        return {"e": ext.e_index, "f": ext.f_index,
                "h": ext.h_index, "d": ext.tail_index}[kind](i)

    def gen_of_index(p):
        kind, i = ext.basis_kind(p)
        return (("d", i) if kind == "tail" else (kind, i))

    def path(first, second, cell):
        """(middle cell, target cell) of second after first, or None when
        either step leaves the window."""
        s1, t1 = verma.target_of(first, cell)
        if s1 == "ok":
            s2, t2 = verma.target_of(second, t1)
            if s2 == "ok":
                return t1, t2
        return None

    # both composition orders and every bracket term must stay inside
    cases = []
    for g1, g2 in product(verma.generators, repeat=2):
        bkt = ext.bracket_basis(ext_index(g1), ext_index(g2))
        for cell in sorted(verma.cells):
            p21, p12 = path(g2, g1, cell), path(g1, g2, cell)
            if p21 and p12 and p21[1] == p12[1] and \
                    all(verma.target_of(gen_of_index(p), cell)[0] != "out" for p in bkt):
                cases.append((g1, g2, bkt, cell, p21[0], p12[0], p21[1]))

    def mismatch(case):
        g1, g2, bkt, cell, t21, t12, tgt = case
        # lhs - rhs on each basis vector of the cell: (scale, outer, inner)
        products = [(1, verma.action_columns(g1, t21), verma.action_columns(g2, cell)),
                    (-1, verma.action_columns(g2, t12), verma.action_columns(g1, cell))]
        for j in range(verma.cell_dim(cell)):
            diff = {}
            for s, (den1, cols1), (den2, cols2) in products:
                add_into(diff, _image(cols1, cols2[j]), Fraction(s, den1 * den2))
            for p, c in bkt.items():
                gb = gen_of_index(p)
                if verma.target_of(gb, cell)[1] == tgt:
                    den, cols = verma.action_columns(gb, cell)
                    add_into(diff, cols[j], Fraction(-c, den))
            if diff:
                return f"generators {g1},{g2} on cell {cell}"

    rep.check(f"commutators match the bracket table ({len(cases)} cases)", cases, mismatch)
    return rep
