"""The TKK Lie algebra of a Jordan algebra and its universal central extension.

Both algebras live on sl2(k) tensor J plus a weight-zero tail: the span of
inner derivations for the classical construction, and the quotient
wedge^2(J) / span{a ^ a^2} (the "brace space") for the central extension.
Each construction computes its tail data once, as plain data (the tail
coordinates `pair_coords` of every pair of Jordan basis elements, the
sparse columns of the derivation of every tail element, the brackets among
tail elements) and hands it to one table filler, which writes each entry
straight at its block offset.  Inner derivations are only ever sparse
columns read from the Jordan table (`derivation_column`).  The tails are
summed in integers: the derivations from the integer form J.products of
the Jordan table, the brace space's classes and the inner-derivation basis
each scaled once, where they are made, to ints over one denominator
(`linalg.integer_rows`), and each block is handed to the filler as ints
with its scale.  The filler scales every block once to the common
denominator `den` and stores the bracket table in that one integer form,
`brackets`: {(p, q): {t: int}}, den times the true brackets, with no zero
entry and no zero bracket.  `table` is a read-only Fraction view of it,
made when read; `pair_coords` holds ints over `pair_den`.  The central
epimorphism reads the classical pair coordinates as stored and returns its
map and kernel as sparse columns and rows; no dense matrix or vector is
built here.  Structure constants are built from the bracket rules and
re-verified rather than trusted, exhaustively, with no sampled verdict:
antisymmetry is checked on all ordered pairs, and the Jacobi identity on all
basis triples, decided on the sorted triples of distinct indices once
antisymmetry holds.  Both sweeps skip only what is zero by construction:
a pair with neither order stored is antisymmetric (0 = -0), and a triple
(p, q, r) with none of [q, r], [r, p], [p, q] stored has jacobiator 0.
Jacobi takes one case per leading basis element p, with every (q, r) summed at once and each of its three
terms only over stored brackets, read through adjacency lists built once
per sweep (`_jacobi_sweep`); the homomorphism identity of the central
epimorphism takes one case per pair of basis elements.  Every check reads
`brackets` itself, so none makes a copy of a table at call time, and the
antisymmetry verdict of a whole table is decided once per algebra
(`TKKAlgebra.antisymmetric`): the table is written once, by the filler.
Both tails and the kernel of the central epimorphism come from the
canonical RREF of a sparse RowSpan.

The central extension can be built in part, for consumers that read no
more.  With a degree bound B (`build_sl2(J, bound=B)`) it is cut at B: the
brace space enumerates only the pairs and defining triples of degree sum at
most B, and only the brackets of degree sum at most B are written.  This is
exact.  The defining rows are homogeneous, so the canonical RREF splits by
degree, and the representatives, classes and `s_rows` in degrees <= B are
the whole space's; every bracket kept is the whole algebra's, and when J's
degrees are nonnegative the part above B is an ideal, so the cut algebra is
the quotient by it (its elements above B bracket to zero).
With weight_zero, `build_sl2` writes, from the same rules of the one
filler, only the weight-zero block: h x h, tail x h, h x tail and tail x
tail.  `tkk build` and `tkk check` build the whole algebra.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import itemgetter

from .jordan import InputError, derivation_column, ensure_valid
from .linalg import RowSpan, add_into, integer_rows, q_str, quotient
from .report import Report

_SL2_BASIS = ("e", "f", "h")
_KEY = itemgetter(0)

# brackets of the standard basis: [h,e]=2e, [h,f]=-2f, [e,f]=h
_SL2_SC = {
    ("e", "f"): {"h": 1},
    ("f", "e"): {"h": -1},
    ("h", "e"): {"e": 2},
    ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2},
    ("f", "h"): {"f": 2},
    ("e", "e"): {},
    ("f", "f"): {},
    ("h", "h"): {},
}


def half_killing_sl2():
    """Half the Killing form of sl2(k): tr(ad_x ad_y) / 2, summed from the
    structure constants, where entry (z, w) of ad_x is the z-coefficient of
    [x, w]."""
    return {(x, y): Fraction(sum(c * _SL2_SC[(x, w)].get(z, 0)
                                 for z in _SL2_BASIS for w, c in _SL2_SC[(y, z)].items()), 2)
            for x in _SL2_BASIS for y in _SL2_BASIS}


class BraceSpace:
    """wedge^2(J) modulo the span of all a ^ a^2, in the degrees <= bound.

    The defining span is generated, over a field of characteristic zero, by
    the trilinear polarization x^(yz) + y^(xz) + z^(xy) on basis triples,
    read from J.products; `quotient` of its RowSpan gives the
    representatives (non-pivot pairs), the sparse classes, kept as ints
    over `pair_den` in `pair_coords`, and `s_rows`, its RREF rows.

    With a degree bound B only the pairs and defining triples of degree sum
    at most B are enumerated, the triples in (degree, index) order with
    each loop stopped once the sum passes B.  The cut is exact: J is graded
    (`ensure_valid` checks degree additivity), so the row of the triple
    (i, j, k) is homogeneous of degree deg i + deg j + deg k, the span and
    its canonical RREF split by degree, and the representatives, classes
    and `s_rows` of degree <= B are exactly those of the whole space.  A
    pair above B has class zero here (absent from `pair_coords`).  Without a bound every
    triple is enumerated; the row of a triple does not depend on its order,
    since J is commutative, nor the canonical RREF on the order of insertion.
    """

    def __init__(self, J, bound=None):
        ensure_valid(J)
        self.jordan = J
        d = J.dim
        degs = J.space.degrees
        self.pairs = [(i, j) for i in range(d) for j in range(i + 1, d)
                      if bound is None or degs[i] + degs[j] <= bound]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}

        def wedge(i, sparse):
            """Sparse wedge coordinates of e_i ^ sum_m c_m e_m."""
            return {self.pair_index[(min(i, m), max(i, m))]: c if i < m else -c
                    for m, c in sparse.items() if m != i}

        # no triple's degree sum passes 3 max deg, so without a bound no
        # loop stops early
        top = 3 * max(degs, default=0) if bound is None else bound
        span = RowSpan(len(self.pairs))
        P = J.products
        order = sorted(range(d), key=lambda i: (degs[i], i))
        for p, i in enumerate(order):
            if 3 * degs[i] > top:
                break
            for q in range(p, d):
                j = order[q]
                if degs[i] + 2 * degs[j] > top:
                    break
                for k in order[q:]:
                    if degs[i] + degs[j] + degs[k] > top:
                        break
                    row = add_into(add_into(wedge(i, P[j][k]), wedge(j, P[i][k])),
                                   wedge(k, P[i][j]))
                    if row:
                        span.insert(row)
        self.reps, coords = quotient(span)
        self.rep_pairs = [self.pairs[t] for t in self.reps]
        # the RREF row of pivot t is e_t minus the class of e_t
        rep_set = set(self.reps)
        self.s_rows = [{t: Fraction(1), **{self.reps[k]: -c for k, c in col.items()}}
                       for t, col in enumerate(coords) if t not in rep_set]
        # sparse brace coordinates of every ordered pair of distinct elements
        self.pair_den, ints = integer_rows(coords)
        self.pair_coords = {}
        for col, (i, j) in zip(ints, self.pairs):
            self.pair_coords[(i, j)] = col
            self.pair_coords[(j, i)] = {k: -c for k, c in col.items()}

    @property
    def dim(self):
        return len(self.reps)


class _FractionTable(Mapping):
    """The read-only view {(p, q): {t: Fraction}} of an algebra's integer
    bracket table: each bracket divided by den when it is read."""

    __slots__ = ("_g",)

    def __init__(self, g):
        self._g = g

    def __getitem__(self, pq):
        den = self._g.den
        return {t: Fraction(x, den) for t, x in self._g.brackets[pq].items()}

    def __contains__(self, pq):
        return pq in self._g.brackets

    def __iter__(self):
        return iter(self._g.brackets)

    def __len__(self):
        return len(self._g.brackets)


class TKKAlgebra:
    """Lie algebra on e(J) + f(J) + h(J) + tail, with an explicit bracket table.

    Basis indices: e(i) = i, f(i) = dim+i, h(i) = 2*dim+i, tail(k) = 3*dim+k.
    `brackets[(p, q)]` is den times the bracket of basis elements p and q,
    as a sparse {index: int} dict with no zero entry; a zero bracket is not
    stored.  `table` is the read-only Fraction view of it.
    `pair_coords[(i, j)]`, for i != j, holds pair_den times the sparse tail
    coordinates of the Jordan basis pair i, j, as ints: its brace for the
    central extension, its inner derivation for the classical algebra.
    """

    def __init__(self, jordan, kind, tail_dim, tail_labels, tail_degrees, kappa):
        self.jordan = jordan
        self.kind = kind
        d = jordan.dim
        self.jdim = d
        self.tail_dim = tail_dim
        self.dim = 3 * d + tail_dim
        self.kappa = kappa
        labels = []
        weights = []
        degrees = []
        for prefix, w in (("e", 2), ("f", -2), ("h", 0)):
            for i in range(d):
                labels.append(f"{prefix}({jordan.space.labels[i]})")
                weights.append(w)
                degrees.append(jordan.space.degrees[i])
        labels.extend(tail_labels)
        weights.extend([0] * tail_dim)
        degrees.extend(tail_degrees)
        self.labels = tuple(labels)
        self.weights = tuple(weights)
        self.degrees = tuple(degrees)
        self.den = 1
        self.brackets = {}
        self.pair_den = 1
        self.pair_coords = {}
        self.brace = None       # set for the central extension
        # what _fill_table writes: the brackets of degree sum <= bound
        # (every degree when None), only the weight-zero block when set
        self.bound = None
        self.weight_zero_only = False
        # the antisymmetry verdict on the whole table, once decided
        self._antisymmetric = None

    @property
    def table(self):
        """The bracket table as a read-only {(p, q): {t: Fraction}} view."""
        return _FractionTable(self)

    def e_index(self, i):
        return i

    def f_index(self, i):
        return self.jdim + i

    def h_index(self, i):
        return 2 * self.jdim + i

    def tail_index(self, k):
        return 3 * self.jdim + k

    def basis_kind(self, p):
        d = self.jdim
        if p < d:
            return ("e", p)
        if p < 2 * d:
            return ("f", p - d)
        if p < 3 * d:
            return ("h", p - 2 * d)
        return ("tail", p - 3 * d)

    def bracket_basis(self, p, q):
        """[p, q] as a sparse {index: Fraction} dict, {} when zero."""
        return self.table.get((p, q), {})

    def antisymmetric_on(self, indices):
        """Whether [p, q] = -[q, p] exactly, as sparse dicts, for all p, q in indices.

        Only stored pairs are visited, each once: a pair with neither order
        stored satisfies 0 = -0, and the condition is the same in both
        orders, so one stored order decides its pair.
        """
        return _antisymmetric(self.brackets, set(indices))

    @property
    def antisymmetric(self):
        """Whether the whole bracket table is antisymmetric: decided on first
        use, or by validate_lie's antisymmetry item, and kept, since the
        table is written once."""
        if self._antisymmetric is None:
            self._antisymmetric = self.antisymmetric_on(range(self.dim))
        return self._antisymmetric

    def weight_block(self, w):
        return [p for p in range(self.dim) if self.weights[p] == w]

    def __repr__(self):
        return f"TKKAlgebra({self.kind} of {self.jordan.name}, dim={self.dim})"


def _asymmetric(table, p, q):
    """Whether [p, q] != -[q, p] in a sparse table keyed by ordered pairs."""
    return table.get((p, q), {}) != {t: -c for t, c in table.get((q, p), {}).items()}


def _antisymmetric(table, inside):
    """Whether [p, q] = -[q, p] in a sparse table keyed by ordered pairs, for
    all p, q in inside.  Only stored pairs are visited, each once: a pair
    with neither order stored satisfies 0 = -0, and the condition is the
    same in both orders, so one stored order decides its pair."""
    return not any(_asymmetric(table, p, q) for p, q in table
                   if p in inside and q in inside and (p <= q or (q, p) not in table))


def _fill_table(g, pairs, cols, tails):
    """Record the pair coordinates on g and write its bracket table.

    [x(a), y(b)] = [x, y](ab) + kappa(x, y) pair_coords[(a, b)] on e/f/h;
    tail element k acts on e/f/h by the derivation whose sparse column j,
    {row: entry}, is column j of cols, and brackets with tail element l to
    tails[(k, l)] (absent when zero).  The reversed order against e/f/h is
    filled by antisymmetry, which validate_lie re-checks rather than
    trusts.  A zero bracket is not stored: bracket_basis reads an absent
    pair as zero.  Each entry is written straight at its block offset (e at
    0, f at d, h at 2d, the tail at 3d), and the blocks of one bracket never
    overlap, so nothing is summed.

    The Jordan products are read from J.products over J.den; pairs, cols and
    tails are each (scale, ints): pair_coords, the tail columns [k][j] and
    the tail brackets, scale times the true values, with no zero entry.
    g.den is the lcm of the four scales (with kappa's denominators on
    pairs), and each block is multiplied once by den over its scale as it
    is written into g.brackets.

    With g.weight_zero_only only the weight-zero block is written: the rules
    for x = y = h and the tail's brackets against h and itself.  With a
    degree bound g.bound only the Jordan pairs of degree sum at most the
    bound are written, and the builder hands over tail data only within it.
    """
    g.pair_den, g.pair_coords = pairs
    tden, T = g.jordan.den, g.jordan.products
    (pden, P), (cden, C), (bden, B) = pairs, cols, tails
    kden = lcm(*(k.denominator for k in g.kappa.values()))
    g.den = den = lcm(tden, pden * kden, cden, bden)
    bound = g.bound
    blocks = ("h",) if g.weight_zero_only else _SL2_BASIS
    d = g.jdim
    degs = g.degrees
    brackets = g.brackets
    offset = {x: o for x, o in zip(_SL2_BASIS, (0, d, 2 * d)) if x in blocks}
    t0 = 3 * d
    tscale = den // tden
    rules = [(offset[x], offset[y],
              [(offset[z], c * tscale) for z, c in _SL2_SC[(x, y)].items()],
              int(g.kappa[(x, y)] * (den // pden))) for x in blocks for y in blocks]
    jpairs = [(i, j) for i in range(d) for j in range(d)
              if bound is None or degs[i] + degs[j] <= bound]
    for ox, oy, terms, kap in rules:
        for i, j in jpairs:
            out = {oz + k: c * x for oz, c in terms for k, x in T[i][j].items()}
            if kap and i != j:
                out.update((t0 + k, kap * x) for k, x in P[(i, j)].items())
            if out:
                brackets[(ox + i, oy + j)] = out
    cscale, bscale = den // cden, den // bden
    for k, der in enumerate(C):
        tk = t0 + k
        for ox in offset.values():
            for j in range(d):
                out = {ox + r: cscale * x for r, x in der[j].items()}
                if out:
                    brackets[(tk, ox + j)] = out
                    brackets[(ox + j, tk)] = {p: -x for p, x in out.items()}
        for l in range(g.tail_dim):
            bracket = B.get((k, l))
            if bracket:
                brackets[(tk, t0 + l)] = {t0 + r: bscale * x for r, x in bracket.items()}


def build_sl2(J, bound=None, weight_zero=False):
    """Universal-central-extension presentation: tail = the brace space.

    With a degree bound B, the quotient by the part of degree > B, which is
    an ideal when J's degrees are nonnegative: the brace space cut at B
    (`BraceSpace`), and only the brackets of degree sum at most B.  The
    basis stays that of the whole e/f/h part and of the tail's
    representatives of degree <= B, and every bracket of degree <= B is the
    whole algebra's.  With weight_zero only the weight-zero block is
    written, from the same rules: the brackets among h(J) and the brace
    space and nothing else, all that the weight-zero extension of a J-space
    reads.
    """
    ensure_valid(J)
    bs = BraceSpace(J, bound)
    kappa = half_killing_sl2()
    degs = J.space.degrees
    tail_labels = [f"{{{J.space.labels[a]},{J.space.labels[b]}}}" for a, b in bs.rep_pairs]
    tail_degrees = [degs[a] + degs[b] for a, b in bs.rep_pairs]
    g = TKKAlgebra(J, "sl2", bs.dim, tail_labels, tail_degrees, kappa)
    g.brace, g.bound, g.weight_zero_only = bs, bound, weight_zero

    def within(*ds):
        return bound is None or sum(ds) <= bound

    # tden^2 times the sparse columns of D_{a,b} = [L_a, L_b] for each
    # representative pair, within the bound, and the brace coordinates over bden
    tden, T = J.den, J.products
    ders = [[derivation_column(T, a, b, c) if within(dk, degs[c]) else {} for c in range(J.dim)]
            for (a, b), dk in zip(bs.rep_pairs, tail_degrees)]
    bden, braces = bs.pair_den, bs.pair_coords
    # [{a,b},{c,d}] = {D_{a,b} c, d} + {c, D_{a,b} d}, summed in ints over
    # tden^2 bden
    tail_brackets = {}
    for k, der in enumerate(ders):
        for l, (a_l, b_l) in enumerate(bs.rep_pairs):
            if not within(tail_degrees[k], tail_degrees[l]):
                continue
            out = {}
            for r, c in der[a_l].items():
                for t, x in braces.get((r, b_l), {}).items():
                    out[t] = out.get(t, 0) + c * x
            for r, c in der[b_l].items():
                for t, x in braces.get((a_l, r), {}).items():
                    out[t] = out.get(t, 0) + c * x
            tail_brackets[(k, l)] = {t: x for t, x in out.items() if x}

    _fill_table(g, (bden, braces), (tden * tden, ders), (tden * tden * bden, tail_brackets))
    return g


def build_tkk(J):
    """Classical construction: tail = the span of inner derivations.

    Computed in integers: the derivations are read from the integer form
    J.products over tden = J.den, so each is tden^2 times over, and the
    canonical RREF basis rows of their span are scaled once to ints over the
    lcm s of their denominators.  Commutators of basis elements are then s^2
    times over.  The pair coordinates (tden^2 times over, then divided by
    their gcd with tden^2, so kept in pair_coords over their least
    denominator pair_den), the basis columns (s times) and the tail
    brackets (s^2 times) go to the filler as ints.
    """
    ensure_valid(J)
    d = J.dim
    tden, T = J.den, J.products

    # tden^2 D_{a,b} = tden^2 [L_a, L_b] for a < b as flat {r * d + c: int}
    # dicts; their span's canonical RREF basis is the tail
    ders = {}
    span = RowSpan(d * d)
    for a, b in combinations(range(d), 2):
        ders[(a, b)] = flat = {r * d + c: x for c in range(d)
                               for r, x in derivation_column(T, a, b, c).items()}
        if flat:
            span.insert(flat)
    red = span.reduced()
    pivots, basis_rows = list(red), list(red.values())
    rank = len(basis_rows)
    s, int_rows = integer_rows(basis_rows)
    # int_cols[k][c] is s times column c of basis element k, as {row: int}
    int_cols = [[{} for _ in range(d)] for _ in range(rank)]
    for k, row in enumerate(int_rows):
        for t, x in row.items():
            r, c = divmod(t, d)
            int_cols[k][c][r] = x
    kappa = half_killing_sl2()

    degrees = []
    degs = J.space.degrees
    for row in basis_rows:
        shifts = {degs[t // d] - degs[t % d] for t in row}
        if len(shifts) > 1:
            raise InputError("inner derivation basis is not degree-homogeneous")
        degrees.append(shifts.pop() if shifts else 0)

    g = TKKAlgebra(J, "tkk", rank, [f"inn{k}" for k in range(rank)], degrees, kappa)

    def commutator(k, l):
        """s^2 times the flat commutator of basis elements k and l: column c
        of D_u D_v sums the columns m of D_u, each scaled by entry (m, c) of
        D_v."""
        out = {}
        for u, v, sign in ((k, l, 1), (l, k, -1)):
            cols = int_cols[u]
            for t, b in int_rows[v].items():
                m, c = divmod(t, d)
                b *= sign
                for r, a in cols[m].items():
                    out[r * d + c] = out.get(r * d + c, 0) + b * a
        return out

    pivot_index = {t: k for k, t in enumerate(pivots)}

    def inn_coords(resid):
        """Sparse coordinates over the inner-derivation basis of the flat
        matrix resid, a flat {t: int} dict, as ints on resid's scale and
        ascending in k.

        Basis row k is 1 at pivot k and 0 at every other pivot, so the
        coordinates are the entries of the matrix at the pivots, read by
        walking resid's entries, and the matrix lies in the span exactly when
        s resid - sum_k resid[pivot_k] int_rows[k] vanishes.
        """
        coords = dict(sorted((pivot_index[t], x) for t, x in resid.items()
                             if x and t in pivot_index))
        acc = {t: s * x for t, x in resid.items()}
        for k, c in coords.items():
            for t, x in int_rows[k].items():
                acc[t] = acc.get(t, 0) - c * x
        if any(acc.values()):
            raise InputError("matrix outside the inner-derivation span")
        return coords

    # D_{b,a} = -D_{a,b} and [D_k, D_l] = -[D_l, D_k] exactly, so each
    # unordered pair is computed once; the pair ints over tden^2 are divided
    # by their common gcd with it, leaving them over their least denominator
    cols = {pair: inn_coords(flat) for pair, flat in ders.items()}
    common = gcd(tden * tden, *(c for col in cols.values() for c in col.values()))
    pden = tden * tden // common
    pair_ints = {}
    for (a, b), coords in cols.items():
        pair_ints[(a, b)] = col = {k: c // common for k, c in coords.items()}
        pair_ints[(b, a)] = {k: -c for k, c in col.items()}
    tail_brackets = {}
    for k in range(rank):
        for l in range(k, rank):
            out = inn_coords(commutator(k, l))
            tail_brackets[(k, l)] = out
            tail_brackets[(l, k)] = {t: -c for t, c in out.items()}

    _fill_table(g, (pden, pair_ints), (s, int_cols), (s * s, tail_brackets))
    return g


def _cut(entries, lo, hi=None):
    """The (key, value) entries of a list ascending in key with lo <= key,
    and key < hi when hi is given."""
    return entries[bisect_left(entries, lo, key=_KEY):
                   None if hi is None else bisect_left(entries, hi, key=_KEY)]


def _jacobi_sweep(itable, labels, sorted_only):
    """The case of leading index p of the full Jacobi sweep, for Report.check:
    the witness of the least (q, r), in product order, whose jacobiator
    [p, [q, r]] + [q, [r, p]] + [r, [p, q]] is nonzero, or None.  With
    sorted_only only the (q, r) with p < q < r are summed.

    Every (q, r) of p is summed at once, into acc[(q n + r) n + t], the
    e_t coefficient at (q, r), and only over stored brackets of the integer
    copy itable: [p, [a, b]] lands at (a, b) from each s with [p, s] stored
    and each stored [a, b] that holds e_s; [c, [p, b]] at (b, c) and
    [c, [a, p]] at (c, a) from each s in [p, b] or [a, p] and each c with
    [c, s] stored.  The adjacency lists are built once, ascending in their
    keys, so bisect cuts each to p < q < r.
    """
    n = len(labels)
    # row[p] holds (b, [p, b]) for the stored [p, b], col[s] (c, [c, s]) for
    # the stored [c, s], and hits[s] (a n + b, the e_s coefficient of [a, b])
    # for the stored [a, b] that hold e_s, with a < b alone when sorted_only
    row, col, hits = ([[] for _ in range(n)] for _ in range(3))
    for a, b in sorted(itable):
        ab = itable[(a, b)]
        row[a].append((b, ab))
        col[b].append((a, ab))
        if a < b or not sorted_only:
            for s, x in ab.items():
                hits[s].append((a * n + b, x))

    def case(p):
        acc = defaultdict(int)
        lo = p + 1 if sorted_only else 0        # the least q
        for s, ps in row[p]:                    # [p, [a, b]] at (a, b)
            for ab, k in _cut(hits[s], lo * n):
                base = ab * n
                for t, x in ps.items():
                    acc[base + t] += k * x
        for b, pb in _cut(row[p], lo):          # [c, [p, b]] at (b, c)
            for s, k in pb.items():
                for c, cs in _cut(col[s], b + 1 if sorted_only else 0):
                    base = (b * n + c) * n
                    for t, x in cs.items():
                        acc[base + t] += k * x
        for a, ap in _cut(col[p], lo):          # [c, [a, p]] at (c, a)
            for s, k in ap.items():
                for c, cs in _cut(col[s], lo, a if sorted_only else None):
                    base = (c * n + a) * n
                    for t, x in cs.items():
                        acc[base + t] += k * x
        failing = [key for key, x in acc.items() if x]
        if failing:
            q, r = divmod(min(failing) // n, n)
            return f"triple ({labels[p]},{labels[q]},{labels[r]})"

    return case


def validate_lie(g):
    """Antisymmetry on all pairs, Jacobi on basis triples, grading compatibility.

    Both sweeps skip only cases that are zero by construction, so they find
    the same first failure as a sweep over every case:
    - antisymmetry visits, in product order, the pairs p <= q with at least
      one order stored, since a pair with neither order stored satisfies
      0 = -0.  [p, q] = -[q, p] and [q, p] = -[p, q] are one condition, so
      the first failing ordered pair of a full sweep is a sorted one;
    - full Jacobi takes one case per leading index p and sums the jacobiator
      [p, [q, r]] + [q, [r, p]] + [r, [p, q]] for every (q, r) at once, each
      term only over the stored brackets of adjacency lists of the table
      (`_jacobi_sweep`).  A triple with none of [q, r], [r, p], [p, q]
      stored gets no term, as its jacobiator is 0.  The witness is the least
      failing (q, r) of the least failing p.  None of this assumes
      antisymmetry.
    Once antisymmetry holds the jacobiator is alternating: it vanishes on a
    repeated index and changes sign under a swap, so the sorted triples of
    distinct indices decide it (q > p, then r > q), and the first failing
    triple in product order is sorted, giving the same witness.  Without
    antisymmetry every ordered triple is summed.
    Every item reads the integer form g.brackets, den times the table:
    antisymmetry and the jacobiator are linear and bilinear in the table,
    so they hold exactly when they hold on the scaled form, with the same
    witness.  The antisymmetry verdict is kept on g (`g.antisymmetric`).
    """
    rep = Report(f"lie axioms for {g.kind}({g.jordan.name})")
    n = g.dim
    itable = g.brackets

    def asymmetric(pq):
        p, q = pq
        if _asymmetric(itable, p, q):
            return f"[{g.labels[p]},{g.labels[q]}] != -[{g.labels[q]},{g.labels[p]}]"

    stored_pairs = sorted({(min(p, q), max(p, q)) for p, q in itable})
    g._antisymmetric = antisymmetric = rep.check("antisymmetry (all pairs)", stored_pairs,
                                                 asymmetric)

    rep.check("jacobi identity (all basis triples)", range(n),
              _jacobi_sweep(itable, g.labels, antisymmetric))

    def off_grade(item):
        (p, q), out = item
        for t in out:
            if g.weights[t] != g.weights[p] + g.weights[q] or \
                    g.degrees[t] != g.degrees[p] + g.degrees[q]:
                return f"[{g.labels[p]},{g.labels[q]}] leaves the graded component"

    rep.check("bracket adds weights and degrees", itable.items(), off_grade)
    return rep


def short_grading(g):
    """Eigenspace decomposition under ad of half h(1), with block dimensions.
    Reads the integer form g.brackets, den times the table."""
    rep = Report(f"short grading of {g.kind}({g.jordan.name})")
    d = g.jdim
    h1 = {g.h_index(i): c for i, c in enumerate(g.jordan.unit) if c}
    brackets = g.brackets

    def off_diagonal(q):
        acc = {}
        for p, c in h1.items():
            add_into(acc, brackets.get((p, q), {}), c)
        if acc != ({q: g.weights[q] * g.den} if g.weights[q] else {}):
            return f"ad h(1) not diagonal at {g.labels[q]}"

    rep.check("ad(h(1)) acts by the weight on every basis vector", range(g.dim), off_diagonal)

    dims = {w // 2: len(g.weight_block(w)) for w in (-2, 0, 2)}
    rep.add("blocks are f(J) / h(J)+tail / e(J)",
            dims[-1] == d and dims[1] == d and dims[0] == d + g.tail_dim,
            f"dims {dims[-1]}/{dims[0]}/{dims[1]}")

    def misplaced(item):
        (p, q), out = item
        i, j = g.weights[p] // 2, g.weights[q] // 2
        if abs(i + j) > 1:
            if out:
                return f"[{g.labels[p]},{g.labels[q]}] nonzero outside the grading"
        elif any(g.weights[t] // 2 != i + j for t in out):
            return f"[{g.labels[p]},{g.labels[q]}] misplaces weight"

    rep.check("[G_i, G_j] inside G_{i+j}", brackets.items(), misplaced)
    return rep


def center_map(g_ext, g_tkk):
    """The epimorphism from the central extension onto the classical algebra.

    Identity on e/f/h; the brace of a representative pair (a, b) maps to the
    inner derivation D_{a,b}, read from the classical algebra's pair_coords.
    Returns (phi, kernel, report): phi[p] is the image of basis element p as
    a sparse {index: Fraction} column, and the kernel is its canonical basis
    as sparse rows, checked central.

    When both bracket tables are exactly antisymmetric, both sides of the
    homomorphism identity are antisymmetric in (p, q) and vanish at p = q,
    so pairs p < q decide it and the first failing pair in product order is
    one of them; otherwise every ordered pair is swept.  Each table's
    antisymmetry verdict is the one kept on it (`TKKAlgebra.antisymmetric`),
    so a table that validate_lie has checked is not swept again.  The sweep
    reads the integer forms of both tables, d1 and d2 times over, and the
    sparse columns of the map as stored, ints over cden, the classical
    pair_den.  The left side phi [p, q] is then d1 cden times the true one
    and the right side [phi p, phi q] cden^2 d2 times, so the identity
    holds exactly when lhs (cden d2) - rhs d1 vanishes.  The kernel comes
    from the span of the same int columns, and its centrality reads the
    integer form too.
    """
    if g_ext.kind != "sl2" or g_tkk.kind != "tkk":
        raise InputError("center_map expects (central extension, classical TKK)")
    if g_ext.jordan is not g_tkk.jordan:
        raise InputError("the two algebras must come from the same Jordan algebra")
    rep = Report(f"central epimorphism for {g_ext.jordan.name}")
    # e/f/h sit at the same indices in both algebras
    t0, s0 = g_ext.tail_index(0), g_tkk.tail_index(0)
    cden = g_tkk.pair_den
    icols = [{p: cden} for p in range(t0)]
    icols += [{s0 + k: x for k, x in g_tkk.pair_coords[pair].items()}
              for pair in g_ext.brace.rep_pairs]

    d1, ext_table = g_ext.den, g_ext.brackets
    d2, tkk_table = g_tkk.den, g_tkk.brackets
    lscale = cden * d2

    def nonhomomorphic(pq):
        p, q = pq
        acc = {}    # lhs (cden d2) - rhs d1
        for t, c in ext_table.get(pq, {}).items():
            c *= lscale
            for r, x in icols[t].items():
                acc[r] = acc.get(r, 0) + c * x
        for s, cs in icols[p].items():
            for t, ct in icols[q].items():
                out = tkk_table.get((s, t))
                if out:
                    c = cs * ct * d1
                    for r, x in out.items():
                        acc[r] = acc.get(r, 0) - c * x
        if any(acc.values()):
            return f"not a homomorphism at ({g_ext.labels[p]},{g_ext.labels[q]})"

    n = g_ext.dim
    pairs = combinations(range(n), 2) if g_ext.antisymmetric and g_tkk.antisymmetric \
        else product(range(n), repeat=2)
    rep.check("lie algebra homomorphism (all pairs)", pairs, nonhomomorphic)

    # phi is the identity on e/f/h and maps the tail into the tail, so its
    # kernel is that of the tail block, shifted past e/f/h; the shifted rows
    # are the canonical kernel basis of the whole of phi
    block = [{} for _ in range(g_tkk.tail_dim)]
    for j in range(g_ext.tail_dim):
        for t, x in icols[t0 + j].items():
            block[t - s0][j] = x
    span = RowSpan(g_ext.tail_dim)
    for row in block:
        span.insert(row)
    reps, coords = quotient(span)
    ker = [{t0 + j: col[k] for j, col in enumerate(coords) if k in col}
           for k in range(len(reps))]
    rank = g_ext.dim - len(ker)
    rep.add("surjective", rank == g_tkk.dim, f"rank {rank} vs dim {g_tkk.dim}")

    rep.add("kernel dimension = dim tail difference",
            len(ker) == g_ext.tail_dim - g_tkk.tail_dim,
            f"kernel dim {len(ker)}")

    def noncentral(rq):
        r, q = rq
        acc = {}
        for p, c in ker[r].items():
            add_into(acc, ext_table.get((p, q), {}), c)
        if acc:
            return f"kernel vector {r} not central against {g_ext.labels[q]}"

    rep.check("kernel is central", product(range(len(ker)), range(g_ext.dim)), noncentral)
    return [{p: Fraction(x, cden) for p, x in col.items()} for col in icols], ker, rep


def algebra_to_dict(g):
    """JSON-ready export: labels, weights, degrees, nonzero structure constants."""
    brackets = [[p, q, t, q_str(Fraction(x, g.den))]
                for (p, q), out in sorted(g.brackets.items()) for t, x in sorted(out.items())]
    return {
        "kind": g.kind,
        "jordan": g.jordan.name,
        "labels": list(g.labels),
        "weights": list(g.weights),
        "degrees": list(g.degrees),
        "brackets": brackets,
    }
