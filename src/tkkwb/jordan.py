"""Finite-dimensional graded Jordan algebras by structure constants.

An algebra is given by a labeled graded basis, a unit vector, and the
structure-constant table e_i * e_j.  Validation checks commutativity, the
unit axiom, degree additivity and the Jordan identity, fully polarized on
all basis 4-tuples on every algebra.  The identity sweep touches only
structure constants that can be nonzero: the polarized identity is a sum
of three associators read from a table of the nonzero basis associators
made once per call (empty for a commutative associative algebra), and
only the triples whose products meet a nonzero associator get a case.
Every sweep here and in `tkk`, `jspace` and `weyl` reads the one integer
form of the table that the constructor makes; only `algebra_to_dict` and
Garland's `jmul`/`jpower` read the given `table`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .linalg import (LabeledSpace, add_into, as_int, as_list, as_q, dense_vector, integer_rows,
                     q_str, unit_vector, zero_vector)
from .report import Report


class InputError(Exception):
    """Malformed algebra / representation input."""


class JordanAlgebra:
    """Commutative algebra with unit, given by a sparse multiplication table.

    table[i][j] is a dict {k: coefficient} for the product e_i * e_j, as
    given; products[i][j] is den times it as a {k: int} dict with no zero
    entry (`integer_rows`), and commutative whether products is symmetric.
    Both are made here, and neither table is edited afterwards.
    """

    def __init__(self, space, unit, table, name=""):
        self.space = space
        self.unit = [as_q(x) for x in unit]
        if len(self.unit) != space.dim:
            raise InputError("unit vector has wrong length")
        self.table = table
        self.den, rows = integer_rows(out for row in table for out in row)
        d = len(table)
        self.products = P = [rows[i * d:(i + 1) * d] for i in range(d)]
        self.commutative = all(P[i][j] == P[j][i] for i in range(d) for j in range(i))
        self.name = name or "jordan algebra"
        self._validated = None

    @property
    def dim(self):
        return self.space.dim

    @property
    def degrees(self):
        return self.space.degrees

    def __repr__(self):
        return f"JordanAlgebra({self.name}, dim={self.dim})"


def jmul(J, u, v):
    """Bilinear extension of the multiplication table.

    Entries may be Fractions or any ring elements supporting + and *.
    """
    out = [0] * J.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = J.table[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            for k, ck in row[j].items():
                out[k] = out[k] + c * ck
    return out


def jpower(J, a, k):
    """Left-iterated power a^k, with a^0 the unit."""
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return list(J.unit)
    acc = list(a)
    for _ in range(k - 1):
        acc = jmul(J, a, acc)
    return acc


def derivation_column(table, i, j, k):
    """Sparse coordinates of [L_{e_i}, L_{e_j}] applied to e_k under a
    structure table, via table lookups only: e_i (e_k e_j) - (e_i e_k) e_j.
    It is quadratic in the table, so on J.products it is J.den^2 times the
    true column."""
    out = {}
    for m, c in table[k][j].items():
        add_into(out, table[i][m], c)
    for m, c in table[i][k].items():
        add_into(out, table[m][j], -c)
    return out


def associator_table(T):
    """assoc[k][w] = {b * d + t: c}: the nonzero coefficients c of e_t in
    the associators (e_k e_b) e_w - e_k (e_b e_w) for every b, under a
    structure table of dimension d.  Both products are summed only over the
    stored entries of the table, so an associative table gives empty
    dicts.  Quadratic in the table: on J.products it is J.den^2 times the
    true associators."""
    d = len(T)
    stored = [[(j, out) for j, out in enumerate(row) if out] for row in T]
    # (b, w, e_b e_w) for every stored product
    pairs = [(b * d, w, out) for b, row in enumerate(stored) for w, out in row]
    assoc = []
    for k in range(d):
        acc = [{} for _ in range(d)]
        for b, kb in stored[k]:
            base = b * d
            for m, c in kb.items():
                for w, mw in stored[m]:
                    a = acc[w]
                    for t, e in mw.items():
                        a[base + t] = a.get(base + t, 0) + c * e
        row_k = T[k]
        for base, w, bw in pairs:
            a = acc[w]
            for m, c in bw.items():
                for t, e in row_k[m].items():
                    a[base + t] = a.get(base + t, 0) - c * e
        assoc.append([{key: c for key, c in a.items() if c} for a in acc])
    return assoc


def validate(J):
    """Axiom report: commutativity, unit, degree additivity, Jordan identity.

    The Jordan identity is decided on every algebra through its full
    polarization
    ((xy)b)z + ((xz)b)y + ((yz)b)x = (xy)(bz) + (xz)(by) + (yz)(bx)
    on all basis 4-tuples (equivalent over the rationals).  It runs on the
    integer form J.products; both sides are cubic in the table, so they
    agree exactly when the scaled sides agree, with the same witness.
    lhs - rhs at (x, y, z, b) is
    assoc(e_x e_y, e_b, e_z) + assoc(e_x e_z, e_b, e_y) + assoc(e_y e_z, e_b, e_x)
    with assoc(p, q, r) = (pq)r - p(qr), so the nonzero basis associators
    are tabulated once per call (`associator_table`), and each sorted
    triple (x, y, z) is one case that decides every b at once: it sums
    c assoc(e_k, e_b, e_w) over the entries c e_k of the three products
    into one difference keyed by (b, coordinate).  So a triple can fail
    only where one of its products e_p e_q (p <= q) has an entry e_k with
    assoc(e_k, e_b, e_w) nonzero for some b, w its third index; the sweep
    visits just those triples, sorted((p, q, w)) for each such p <= q, k
    and w, in the ascending order of all sorted triples, so its first
    failure is the full sweep's.  The least b with a nonzero entry is the
    witness, the first failing b of a sweep over b.
    """
    rep = Report(f"jordan axioms for {J.name}")
    d = J.dim
    labels = J.space.labels
    T = J.products

    def noncommuting(ij):
        i, j = ij
        if T[i][j] != T[j][i]:
            return f"e{i}*e{j} != e{j}*e{i} ({labels[i]},{labels[j]})"

    # J.commutative decided it at construction; the sweep finds the witness
    rep.check("commutativity", () if J.commutative else product(range(d), repeat=2),
              noncommuting)
    unit = {i: c for i, c in enumerate(J.unit) if c}
    rep.check("unit axiom", range(d),
              lambda i: table_product(T, unit, {i: 1}) != {i: J.den}
              and f"1*{labels[i]} != {labels[i]}")

    degs = J.space.degrees

    def off_degree(ij):
        i, j = ij
        for k in T[i][j]:
            if degs[k] != degs[i] + degs[j]:
                return f"deg({labels[i]}*{labels[j]}) hits degree {degs[k]} != {degs[i] + degs[j]}"

    rep.check("degree additivity", product(range(d), repeat=2), off_degree)

    assoc = associator_table(T)
    # reach[k]: the w with assoc(e_k, e_b, e_w) nonzero for some b
    reach = [[w for w, a in enumerate(row) if a] for row in assoc]
    triples = sorted({tuple(sorted((p, q, w)))
                      for p, q in combinations_with_replacement(range(d), 2)
                      for k in T[p][q] for w in reach[k]})

    def polarized(xyz):
        x, y, z = xyz
        # diff[b * d + t]: the e_t coefficient of lhs - rhs at b, the sum
        # of c assoc(e_k, e_b, e_w) over the entries c e_k of u
        diff = {}
        for u, w in ((T[x][y], z), (T[x][z], y), (T[y][z], x)):
            for k, c in u.items():
                for key, e in assoc[k][w].items():
                    diff[key] = diff.get(key, 0) + c * e
        failing = [key for key, c in diff.items() if c]
        if failing:
            return f"polarized identity fails at (x,y,z,b)=({x},{y},{z},{min(failing) // d})"

    rep.check("jordan identity (polarized, all basis 4-tuples)", triples, polarized)

    if J._validated is None:
        J._validated = rep.ok
    return rep


def ensure_valid(J):
    if J._validated is None:
        validate(J)
    if not J._validated:
        raise InputError(f"{J.name} fails the Jordan axioms")


# ---------------------------------------------------------------------------
# builtin families


def truncated_poly(D, graded=True):
    """k[t]/(t^(D+1)) with deg t^i = i; products past degree D are zero.

    graded=False keeps the same multiplication but concentrates everything
    in degree 0, for modules that carry no compatible grading.
    """
    if D < 0:
        raise InputError("degree bound must be >= 0")
    labels = tuple("1" if i == 0 else (f"t^{i}" if i > 1 else "t") for i in range(D + 1))
    degrees = tuple(range(D + 1)) if graded else (0,) * (D + 1)
    space = LabeledSpace(labels, degrees)
    table = [[({i + j: Fraction(1)} if i + j <= D else {}) for j in range(D + 1)]
             for i in range(D + 1)]
    unit = unit_vector(D + 1, 0)
    return JordanAlgebra(space, unit, table, f"truncated-poly({D})")


def special_from_associative(labels, unit, assoc_table, name=None):
    """Jordan algebra a o b = (ab + ba)/2 from an associative table.

    assoc_table[i][j] is a dict {k: coeff} for the associative product; it is
    verified to be associative and unital before symmetrizing.  The triple
    (i, j, k) compares e_i (e_j e_k) with (e_i e_j) e_k, so where both e_i e_j
    and e_j e_k are empty both sides are 0: the sweep visits, in product
    order, only the triples where one of them is stored.
    """
    d = len(labels)
    stored = [[k for k in range(d) if assoc_table[j][k]] for j in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d) if assoc_table[i][j] else stored[j]:
                lhs = table_product(assoc_table, {i: 1}, assoc_table[j][k])
                rhs = table_product(assoc_table, assoc_table[i][j], {k: 1})
                if lhs != rhs:
                    raise InputError(f"input table not associative at ({i},{j},{k})")
    unit_sparse = {i: c for i, c in enumerate(unit) if c}
    for i in range(d):
        if table_product(assoc_table, unit_sparse, {i: 1}) != {i: 1}:
            raise InputError("input unit is not a left unit")
    half = Fraction(1, 2)
    table = [[{} for _ in range(d)] for _ in range(d)]
    for i, j in product(range(d), repeat=2):
        add_into(table[i][j], assoc_table[i][j], half)
        add_into(table[i][j], assoc_table[j][i], half)
    space = LabeledSpace(tuple(labels), (0,) * d)
    return JordanAlgebra(space, unit, table, name or "special jordan algebra")


def table_product(table, u, v):
    """The bilinear product of two sparse {index: coeff} vectors under a
    structure table, where table[i][j] is the sparse product of basis
    elements i and j (any table: commutative, associative or neither)."""
    out = {}
    for i, ui in u.items():
        for j, vj in v.items():
            add_into(out, table[i][j], ui * vj)
    return out


def matrix_jordan(m):
    """The full matrix algebra M_m(k) symmetrized: a o b = (ab+ba)/2.

    The basis is labeled E11, E12, ...; from m = 10 on a comma separates
    the indices (E1,11 and E11,1 would both read E111 without it)."""
    if m < 1:
        raise InputError("matrix size must be >= 1")
    sep = "," if m > 9 else ""
    labels = [f"E{p + 1}{sep}{q + 1}" for p in range(m) for q in range(m)]
    d = m * m

    def idx(p, q):
        return p * m + q

    assoc = [[{} for _ in range(d)] for _ in range(d)]
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    if q == r:
                        assoc[idx(p, q)][idx(r, s)] = {idx(p, s): 1}
    unit = zero_vector(d)
    for p in range(m):
        unit[idx(p, p)] = Fraction(1)
    return special_from_associative(labels, unit, assoc, f"M{m}(k)+")


def spin_factor(gram):
    """k1 + V with (a1+v)(b1+w) = (ab + <v,w>)1 + aw + bv.

    gram is the symmetric matrix of the bilinear form on V.
    """
    k = len(gram)
    g = [[as_q(x) for x in row] for row in gram]
    for row in g:
        if len(row) != k:
            raise InputError("gram matrix must be square")
    for i in range(k):
        for j in range(k):
            if g[i][j] != g[j][i]:
                raise InputError("gram matrix must be symmetric")
    d = k + 1
    labels = ("1",) + tuple(f"v{i + 1}" for i in range(k))
    table = [[{} for _ in range(d)] for _ in range(d)]
    for j in range(d):
        table[0][j] = {j: Fraction(1)}
        table[j][0] = {j: Fraction(1)}
    for i in range(k):
        for j in range(k):
            table[i + 1][j + 1] = {0: g[i][j]} if g[i][j] else {}
    space = LabeledSpace(labels, (0,) * d)
    return JordanAlgebra(space, unit_vector(d, 0), table, f"spin-factor({k})")


def _identity_spin_factor(k):
    if k < 0:
        raise InputError("spin-factor dimension must be >= 0")
    return spin_factor([[Fraction(int(i == j)) for j in range(k)] for i in range(k)])


# builtin family -> (its one parameter, the default, the constructor); the
# underscore spellings are aliases.  `builtin` reads it, and so do the JSON
# algebra references "family:value" of `jspace`
BUILTIN_FAMILIES = {
    "truncated-poly": ("degree", 3, truncated_poly),
    "truncated_poly": ("degree", 3, truncated_poly),
    "matrix": ("size", 2, matrix_jordan),
    "spin-factor": ("dim", 2, _identity_spin_factor),
    "spin_factor": ("dim", 2, _identity_spin_factor),
}


def builtin(family, **params):
    """Builtin algebra lookup used by the CLI and the JSON loader; reads
    only the family's own parameter from params."""
    if family not in BUILTIN_FAMILIES:
        raise InputError(f"unknown builtin family {family!r}")
    param, default, make = BUILTIN_FAMILIES[family]
    return make(int(params.get(param, default)))


# ---------------------------------------------------------------------------
# JSON serialization: rationals as "p/q" strings


def algebra_to_dict(J):
    mult = []
    for i in range(J.dim):
        for j in range(i, J.dim):
            if J.table[i][j]:
                coords = dense_vector(J.dim, J.table[i][j])
                mult.append({"i": i, "j": j, "coords": [q_str(x) for x in coords]})
    return {
        "labels": list(J.space.labels),
        "degrees": list(J.space.degrees),
        "unit": [q_str(x) for x in J.unit],
        "mult": mult,
    }


def algebra_from_dict(data, name=""):
    try:
        labels = tuple(as_list(data["labels"], "labels"))
        degrees = tuple(as_int(x) for x in as_list(data["degrees"], "degrees"))
        unit = [as_q(x) for x in as_list(data["unit"], "unit")]
        entries = as_list(data["mult"], "mult")
        space = LabeledSpace(labels, degrees)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad algebra data: {exc}") from exc
    d = len(labels)
    table = [[None] * d for _ in range(d)]
    for ent in entries:
        try:
            i, j = as_int(ent["i"]), as_int(ent["j"])
            coords = [as_q(x) for x in as_list(ent["coords"], "coords")]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad mult entry: {exc}") from exc
        if not (0 <= i < d and 0 <= j < d):
            raise InputError(f"mult entry out of range: i={i}, j={j}")
        if len(coords) != d:
            raise InputError(f"mult entry i={i}, j={j} has {len(coords)} coords, expected {d}")
        sparse = {k: c for k, c in enumerate(coords) if c}
        table[i][j] = sparse
        if table[j][i] is None:
            table[j][i] = dict(sparse)
    for i in range(d):
        for j in range(d):
            if table[i][j] is None:
                table[i][j] = {}
    return JordanAlgebra(space, unit, table, name or data.get("name", "loaded algebra"))


def load_algebra(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read algebra file {path}: {exc}") from exc
    return algebra_from_dict(data, name=str(path))
