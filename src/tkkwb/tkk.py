"""The TKK Lie algebra of a Jordan algebra and its universal central extension.

Both algebras live on sl2(k) tensor J plus a weight-zero tail: the span of
inner derivations for the classical construction, and the quotient
wedge^2(J) / span{a ^ a^2} (the "brace space") for the central extension.
Each construction computes its tail data once, as plain data (the tail
coordinates `pair_coords` of every pair of Jordan basis elements, the
sparse columns of the derivation of every tail element, the brackets among
tail elements) and hands it to one table filler.  Inner derivations are
only ever sparse columns read from the Jordan table (`derivation_column`).
The central epimorphism reads the classical pair coordinates.  Structure
constants are built from the bracket rules, stored sparsely per ordered
basis pair (a zero bracket is not stored), and re-verified rather than
trusted: antisymmetry is checked on all ordered pairs, and the Jacobi
identity on all basis triples, decided on the sorted triples of distinct
indices once antisymmetry holds.  Both sweeps skip only what is zero by
construction: a pair with neither order stored is antisymmetric (0 = -0),
and a triple (p, q, r) with none of [q, r], [r, p], [p, q] stored has
jacobiator 0.  Jacobi runs on a copy of the table scaled to integers, one
case per pair (p, q) with every r summed at once.  Both tails and the kernel
of the central epimorphism come from the canonical RREF of a sparse RowSpan,
and the epimorphism checks the homomorphism identity on sparse columns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .jordan import InputError, derivation_column, ensure_valid
from .linalg import Matrix, RowSpan, add_into, dense_vector, q_str, quotient
from .report import Report

_SL2_BASIS = ("e", "f", "h")

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
    """wedge^2(J) modulo the span of all a ^ a^2.

    The defining span is generated, over a field of characteristic zero, by
    the trilinear polarization x^(yz) + y^(xz) + z^(xy) on basis triples;
    `quotient` of its RowSpan gives the representatives (non-pivot pairs)
    and the sparse classes `pair_coords`, and `s_rows` are its RREF rows.
    """

    def __init__(self, J):
        ensure_valid(J)
        self.jordan = J
        d = J.dim
        self.pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}

        def wedge(i, sparse):
            """Sparse wedge coordinates of e_i ^ sum_m c_m e_m."""
            return {self.pair_index[(min(i, m), max(i, m))]: c if i < m else -c
                    for m, c in sparse.items() if m != i}

        span = RowSpan(len(self.pairs))
        for i in range(d):
            for j in range(i, d):
                for k in range(j, d):
                    row = add_into(add_into(wedge(i, J.table[j][k]), wedge(j, J.table[i][k])),
                                   wedge(k, J.table[i][j]))
                    if row:
                        span.insert(row)
        self.reps, coords = quotient(span)
        self.rep_pairs = [self.pairs[t] for t in self.reps]
        # the RREF row of pivot t is e_t minus the class of e_t
        rep_set = set(self.reps)
        self.s_rows = [{t: Fraction(1), **{self.reps[k]: -c for k, c in col.items()}}
                       for t, col in enumerate(coords) if t not in rep_set]
        # sparse brace coordinates of every ordered pair of distinct basis elements
        self.pair_coords = {}
        for col, (i, j) in zip(coords, self.pairs):
            self.pair_coords[(i, j)] = col
            self.pair_coords[(j, i)] = {k: -c for k, c in col.items()}

    @property
    def dim(self):
        return len(self.reps)

    def brace_pair(self, i, j):
        """Sparse quotient coordinates of the class of e_i ^ e_j."""
        if i == j:
            return {}
        return self.pair_coords[(i, j)]


class TKKAlgebra:
    """Lie algebra on e(J) + f(J) + h(J) + tail, with an explicit bracket table.

    Basis indices: e(i) = i, f(i) = dim+i, h(i) = 2*dim+i, tail(k) = 3*dim+k.
    `table[(p, q)]` is the sparse coordinate dict of the bracket of basis
    elements p and q.  `pair_coords[(i, j)]`, for i != j, holds the sparse
    tail coordinates of the pair of Jordan basis elements i, j: its brace
    for the central extension, its inner derivation for the classical
    algebra.
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
        self.table = {}
        self.pair_coords = {}
        self.brace = None       # set for the central extension

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
        return self.table.get((p, q), {})

    def antisymmetric_on(self, indices):
        """Whether [p, q] = -[q, p] exactly, as sparse dicts, for all p, q in indices.

        Only stored pairs are visited, each once: a pair with neither order
        stored satisfies 0 = -0, and the condition is the same in both
        orders, so one stored order decides its pair.
        """
        inside = set(indices)
        return all(out == {t: -c for t, c in self.bracket_basis(q, p).items()}
                   for (p, q), out in self.table.items()
                   if p in inside and q in inside and (p <= q or (q, p) not in self.table))

    def bracket(self, u, v):
        """Bracket of two dense coordinate vectors."""
        out = [0] * self.dim
        for p, up in enumerate(u):
            if not up:
                continue
            for q, vq in enumerate(v):
                if not vq:
                    continue
                c = up * vq
                for r, cr in self.table.get((p, q), {}).items():
                    out[r] = out[r] + c * cr
        return out

    def weight_block(self, w):
        return [p for p in range(self.dim) if self.weights[p] == w]

    def __repr__(self):
        return f"TKKAlgebra({self.kind} of {self.jordan.name}, dim={self.dim})"


def _fill_table(g, pair_coords, tail_cols, tail_brackets):
    """Record the tail data on g and write its bracket table.

    [x(a), y(b)] = [x, y](ab) + kappa(x, y) pair_coords[(a, b)] on e/f/h;
    tail element k acts on e/f/h by the derivation whose sparse column j,
    {row: entry}, is tail_cols[k][j], and brackets with tail element l to
    tail_brackets[(k, l)].  The reversed order against e/f/h is
    filled by antisymmetry, which validate_lie re-checks rather than trusts.
    A zero bracket is not stored: bracket_basis reads an absent pair as zero.
    """
    g.pair_coords = pair_coords
    d = g.jdim
    idxmap = {"e": g.e_index, "f": g.f_index, "h": g.h_index}
    for xt in _SL2_BASIS:
        for yt in _SL2_BASIS:
            sc = _SL2_SC[(xt, yt)]
            kap = g.kappa[(xt, yt)]
            for i in range(d):
                for j in range(d):
                    out = {}
                    prod = g.jordan.table[i][j]
                    for z, cz in sc.items():
                        add_into(out, {idxmap[z](k): c for k, c in prod.items()}, cz)
                    if kap and i != j:
                        add_into(out, {g.tail_index(k): c
                                       for k, c in pair_coords[(i, j)].items()}, kap)
                    if out:
                        g.table[(idxmap[xt](i), idxmap[yt](j))] = out
    for k, cols in enumerate(tail_cols):
        for xt in _SL2_BASIS:
            for j in range(d):
                out = {idxmap[xt](r): c for r, c in cols[j].items()}
                if out:
                    g.table[(g.tail_index(k), idxmap[xt](j))] = out
                    g.table[(idxmap[xt](j), g.tail_index(k))] = {p: -c for p, c in out.items()}
        for l in range(g.tail_dim):
            if tail_brackets[(k, l)]:
                g.table[(g.tail_index(k), g.tail_index(l))] = \
                    {g.tail_index(r): c for r, c in tail_brackets[(k, l)].items()}


def build_sl2(J):
    """Universal-central-extension presentation: tail = the brace space."""
    ensure_valid(J)
    bs = BraceSpace(J)
    kappa = half_killing_sl2()
    tail_labels = [f"{{{J.space.labels[a]},{J.space.labels[b]}}}" for a, b in bs.rep_pairs]
    tail_degrees = [J.space.degrees[a] + J.space.degrees[b] for a, b in bs.rep_pairs]
    g = TKKAlgebra(J, "sl2", bs.dim, tail_labels, tail_degrees, kappa)
    g.brace = bs

    # the sparse columns of D_{a,b} = [L_a, L_b] for each representative pair
    ders = [[derivation_column(J.table, a, b, c) for c in range(J.dim)] for a, b in bs.rep_pairs]
    # [{a,b},{c,d}] = {D_{a,b} c, d} + {c, D_{a,b} d}
    tail_brackets = {}
    for k, der in enumerate(ders):
        for l, (a_l, b_l) in enumerate(bs.rep_pairs):
            out = {}
            for r, c in der[a_l].items():
                add_into(out, bs.brace_pair(r, b_l), c)
            for r, c in der[b_l].items():
                add_into(out, bs.brace_pair(a_l, r), c)
            tail_brackets[(k, l)] = out

    _fill_table(g, bs.pair_coords, ders, tail_brackets)
    return g


def build_tkk(J):
    """Classical construction: tail = the span of inner derivations."""
    ensure_valid(J)
    d = J.dim

    # D_{a,b} = [L_a, L_b] for a < b as flat {r * d + c: entry} dicts; their
    # span's canonical RREF basis is the tail
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
    # tail_cols[k][c] is column c of basis element k, as {row: entry}
    tail_cols = [[{} for _ in range(d)] for _ in range(rank)]
    for k, row in enumerate(basis_rows):
        for t, x in row.items():
            r, c = divmod(t, d)
            tail_cols[k][c][r] = x
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
        """The flat entries of the commutator of basis elements k and l:
        column c of D_u D_v sums the columns m of D_u, each scaled by
        entry (m, c) of D_v."""
        out = {}
        for u, v, sign in ((k, l, 1), (l, k, -1)):
            for t, b in basis_rows[v].items():
                m, c = divmod(t, d)
                add_into(out, {r * d + c: a for r, a in tail_cols[u][m].items()}, sign * b)
        return out

    def inn_coords(resid):
        """Sparse coordinates over the inner-derivation basis of the flat
        matrix resid, which is reduced in place.

        Basis row k is 1 at pivot k and 0 at every other pivot, so the
        coordinates are the entries of resid at the pivots, and subtracting
        the rows leaves it empty exactly when the matrix lies in the span.
        """
        coords = {k: resid[t] for k, t in enumerate(pivots) if t in resid}
        for k, c in coords.items():
            add_into(resid, basis_rows[k], -c)
        if resid:
            raise InputError("matrix outside the inner-derivation span")
        return coords

    # D_{b,a} = -D_{a,b} and [D_k, D_l] = -[D_l, D_k] exactly, so each
    # unordered pair is computed once
    pair_coords = {}
    for (a, b), flat in ders.items():
        pair_coords[(a, b)] = col = inn_coords(flat)
        pair_coords[(b, a)] = {k: -c for k, c in col.items()}
    tail_brackets = {}
    for k in range(rank):
        for l in range(k, rank):
            out = inn_coords(commutator(k, l))
            tail_brackets[(k, l)] = out
            tail_brackets[(l, k)] = {t: -c for t, c in out.items()}

    _fill_table(g, pair_coords, tail_cols, tail_brackets)
    return g


def validate_lie(g, jacobi="full", seed=0, samples=200):
    """Antisymmetry on all pairs, Jacobi on basis triples, grading compatibility.

    Both sweeps skip only cases that are zero by construction, so they find
    the same first failure as a sweep over every case:
    - antisymmetry visits, in product order, the pairs p <= q with at least
      one order stored, since a pair with neither order stored satisfies
      0 = -0.  [p, q] = -[q, p] and [q, p] = -[p, q] are one condition, so
      the first failing ordered pair of a full sweep is a sorted one;
    - full Jacobi takes one case per pair (p, q) and sums the jacobiator
      [p, [q, r]] + [q, [r, p]] + [r, [p, q]] for every r at once, each
      term only over the stored brackets of an adjacency copy of the table.
      A triple with none of [q, r], [r, p], [p, q] stored gets no term, as
      its jacobiator is 0.  The witness is the least failing r.
    Once antisymmetry holds the jacobiator is alternating: it vanishes on a
    repeated index and changes sign under a swap, so the sorted triples of
    distinct indices decide it (pairs p < q, then r > q), and the first
    failing triple in product order is sorted, giving the same witness.
    Without antisymmetry every ordered pair, and every r, is swept.  Spot
    Jacobi sums the same terms at each sampled triple.  Both Jacobi modes
    run on an integer copy of g.table, scaled by the lcm of its denominators
    and made at call time; the jacobiator is bilinear, so it vanishes
    exactly when the scaled one does, with the same witness.
    """
    rep = Report(f"lie axioms for {g.kind}({g.jordan.name})")
    n = g.dim

    def asymmetric(pq):
        p, q = pq
        if g.bracket_basis(p, q) != {k: -c for k, c in g.bracket_basis(q, p).items()}:
            return f"[{g.labels[p]},{g.labels[q]}] != -[{g.labels[q]},{g.labels[p]}]"

    stored_pairs = sorted({(min(p, q), max(p, q)) for p, q in g.table})
    antisymmetric = rep.check("antisymmetry (all pairs)", stored_pairs, asymmetric)

    # the integer copy of the table as it stands now (see the docstring), as
    # adjacency: ib[p][r] is [p, r] and left[p] the r with [r, p] stored
    den = lcm(*(c.denominator for out in g.table.values() for c in out.values()))
    ib = [{} for _ in range(n)]
    left = [set() for _ in range(n)]
    for (p, q), out in g.table.items():
        if out:
            ib[p][q] = {t: c.numerator * (den // c.denominator) for t, c in out.items()}
            left[q].add(p)

    def jacobi_fails(p, q, lo, hi):
        """The witness of the least r in lo..hi-1 where the jacobiator of
        (p, q, r) is nonzero, summed for every such r at once."""
        ib_p, ib_q = ib[p], ib[q]
        acc = {}    # acc[r * n + t]: the e_t coefficient of the jacobiator at r

        def add(r, bc, ib_a):
            base = r * n
            for s, cs in bc.items():
                a_s = ib_a.get(s)
                if a_s:
                    for t, c in a_s.items():
                        acc[base + t] = acc.get(base + t, 0) + cs * c

        for r, qr in ib_q.items():          # [p, [q, r]]
            if lo <= r < hi:
                add(r, qr, ib_p)
        for r in left[p]:                   # [q, [r, p]]
            if lo <= r < hi:
                add(r, ib[r][p], ib_q)
        pq = ib_p.get(q)
        if pq:                              # [r, [p, q]]
            for r in range(lo, hi):
                add(r, pq, ib[r])
        failing = [key for key, c in acc.items() if c]
        if failing:
            r = min(failing) // n
            return f"triple ({g.labels[p]},{g.labels[q]},{g.labels[r]})"

    if jacobi == "full":
        pairs = combinations(range(n), 2) if antisymmetric else product(range(n), repeat=2)
        rep.check("jacobi identity (all basis triples)", pairs,
                  lambda pq: jacobi_fails(*pq, pq[1] + 1 if antisymmetric else 0, n))
    else:
        import random
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(samples))
        rep.check(f"jacobi identity ({samples} sampled triples)", triples,
                  lambda pqr: jacobi_fails(pqr[0], pqr[1], pqr[2], pqr[2] + 1))

    def off_grade(item):
        (p, q), out = item
        for t, c in out.items():
            if c and (g.weights[t] != g.weights[p] + g.weights[q] or
                      g.degrees[t] != g.degrees[p] + g.degrees[q]):
                return f"[{g.labels[p]},{g.labels[q]}] leaves the graded component"

    rep.check("bracket adds weights and degrees", g.table.items(), off_grade)
    return rep


def short_grading(g):
    """Eigenspace decomposition under ad of half h(1), with block dimensions."""
    rep = Report(f"short grading of {g.kind}({g.jordan.name})")
    d = g.jdim
    h1 = [0] * g.dim
    for i, c in enumerate(g.jordan.unit):
        if c:
            h1[g.h_index(i)] = c

    def off_diagonal(q):
        basis_q = [0] * g.dim
        basis_q[q] = 1
        if g.bracket(h1, basis_q) != [g.weights[q] * x for x in basis_q]:
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
        elif any(c and g.weights[t] // 2 != i + j for t, c in out.items()):
            return f"[{g.labels[p]},{g.labels[q]}] misplaces weight"

    rep.check("[G_i, G_j] inside G_{i+j}", g.table.items(), misplaced)
    return rep


def center_map(g_ext, g_tkk):
    """The epimorphism from the central extension onto the classical algebra.

    Identity on e/f/h; the brace of a representative pair (a, b) maps to the
    inner derivation D_{a,b}, read from the classical algebra's pair_coords.
    Returns (matrix, kernel_basis, report); the kernel is checked central.

    When both bracket tables are exactly antisymmetric, both sides of the
    homomorphism identity are antisymmetric in (p, q) and vanish at p = q,
    so pairs p < q decide it and the first failing pair in product order is
    one of them; otherwise every ordered pair is swept.  The columns of the
    map are sparse dicts, and both sides of the identity are summed from
    them over the sparse bracket tables.
    """
    if g_ext.kind != "sl2" or g_tkk.kind != "tkk":
        raise InputError("center_map expects (central extension, classical TKK)")
    if g_ext.jordan is not g_tkk.jordan:
        raise InputError("the two algebras must come from the same Jordan algebra")
    rep = Report(f"central epimorphism for {g_ext.jordan.name}")
    unit_index = {"e": g_tkk.e_index, "f": g_tkk.f_index, "h": g_tkk.h_index}
    cols = []
    for p in range(g_ext.dim):
        kind, i = g_ext.basis_kind(p)
        if kind == "tail":
            cols.append({g_tkk.tail_index(k): c for k, c in
                         g_tkk.pair_coords[g_ext.brace.rep_pairs[i]].items()})
        else:
            cols.append({unit_index[kind](i): Fraction(1)})
    phi = Matrix(g_ext.dim, g_tkk.dim,
                 [dense_vector(g_tkk.dim, col) for col in cols]).transpose()

    def nonhomomorphic(pq):
        p, q = pq
        lhs = {}
        for t, c in g_ext.bracket_basis(p, q).items():
            add_into(lhs, cols[t], c)
        rhs = {}
        for s, cs in cols[p].items():
            for t, ct in cols[q].items():
                add_into(rhs, g_tkk.bracket_basis(s, t), cs * ct)
        if lhs != rhs:
            return f"not a homomorphism at ({g_ext.labels[p]},{g_ext.labels[q]})"

    n = g_ext.dim
    antisymmetric = g_ext.antisymmetric_on(range(n)) and g_tkk.antisymmetric_on(range(g_tkk.dim))
    pairs = combinations(range(n), 2) if antisymmetric else product(range(n), repeat=2)
    rep.check("lie algebra homomorphism (all pairs)", pairs, nonhomomorphic)

    # phi is the identity on e/f/h and maps the tail into the tail, so its
    # kernel is that of the tail block, padded with zeros on e/f/h; the
    # padded rows are the canonical kernel basis of the whole of phi
    t0 = g_ext.tail_index(0)
    span = RowSpan(g_ext.tail_dim)
    for k in range(g_tkk.tail_dim):
        span.insert(phi.data[g_tkk.tail_index(k)][t0:])
    reps, coords = quotient(span)
    pad = [Fraction(0)] * t0
    ker = Matrix(len(reps), g_ext.dim,
                 [pad + [col.get(k, Fraction(0)) for col in coords] for k in range(len(reps))])
    rank = phi.cols - ker.rows
    rep.add("surjective", rank == g_tkk.dim, f"rank {rank} vs dim {g_tkk.dim}")

    rep.add("kernel dimension = dim tail difference",
            ker.rows == g_ext.tail_dim - g_tkk.tail_dim,
            f"kernel dim {ker.rows}")

    def noncentral(rq):
        r, q = rq
        basis_q = [0] * g_ext.dim
        basis_q[q] = 1
        if any(g_ext.bracket(ker.row(r), basis_q)):
            return f"kernel vector {r} not central against {g_ext.labels[q]}"

    rep.check("kernel is central", product(range(ker.rows), range(g_ext.dim)), noncentral)
    return phi, ker, rep


def algebra_to_dict(g):
    """JSON-ready export: labels, weights, degrees, nonzero structure constants."""
    brackets = []
    for (p, q), out in sorted(g.table.items()):
        for t, c in sorted(out.items()):
            if c:
                brackets.append([p, q, t, q_str(c)])
    return {
        "kind": g.kind,
        "jordan": g.jordan.name,
        "labels": list(g.labels),
        "weights": list(g.weights),
        "degrees": list(g.degrees),
        "brackets": brackets,
    }
