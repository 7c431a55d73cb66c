"""Exact linear algebra over the rationals.

There are no floats anywhere, so ranks, kernels and quotient coordinates are
exact, and equality tests mean actual equality.  A `Matrix` is dense; it
holds `action_matrix` and the dense references of the tests, and no check
of the package computes with one.  Its entries may be any ring element
supporting +, -, * (matrices of polynomials too).  The product `@` skips
zero products: it reads each row of the right factor as its nonzero entries
and multiplies them only by nonzero entries of the left.

Every operator a check computes or keeps is a sparse operator instead: a
{row: {column: coeff}} dict with no zero entry and no empty row, so that two
operators are equal exactly when they are == and one vanishes exactly when
it is empty.  Every integer copy of rational data is made by
`integer_rows`, which scales sparse rows by the lcm of their denominators:
rho itself is one (`integer_operators` scales a list of rational operators
to integers by one common denominator, the form a J-space keeps), and so
are the integer form of a Jordan table and of the brace space's classes,
each made once where it is built, the tail data from which a TKK bracket
table is written in its one integer form, and the copy A a of a point
(`integer_vector`) on which the homogeneous routes of `weyl` and the
dominance sum run.
`operator_product`, `commutator`, `combine` and `add_operator` sum through
`add_into`, `scalar_operator` makes c times the identity, and `columns`
turns an integer operator into integer columns at a new scale, for the
straightening in `weyl`.  Coefficients may be ints, Fractions or
polynomials.  Every echelon form comes from `RowSpan`, sparse and
fraction-free (primitive integer rows), whose canonical RREF `quotient`
reads.  The dense `rref` is only the independent reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def as_q(x):
    """Coerce ints (not bools), 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {x!r}") from exc
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def as_int(x):
    """Read an int or an integer string, refusing (not truncating) floats and bools."""
    if type(x) is int or isinstance(x, str):
        return int(x)
    raise TypeError(f"cannot interpret {x!r} as an integer")


def as_list(x, what):
    """Read a JSON array, refusing strings, objects and scalars, which would
    otherwise be read character by character or key by key."""
    if isinstance(x, list):
        return x
    raise TypeError(f"{what} must be a list, not {type(x).__name__}")


def q_str(x):
    """Serialize a rational as 'p' or 'p/q'."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _bits(x):
    # pivot size heuristic: total bit length of numerator and denominator
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return abs(x).bit_length()


class Matrix:
    """Dense matrix, row-major, immutable by convention."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for r in data:
            if len(r) != cols:
                raise ValueError("column count mismatch")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[Q(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)])

    def row(self, i):
        return list(self.data[i])

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def scale(self, c):
        return Matrix(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        # each (i, j) entry sums a * b over k in increasing order, as the
        # textbook triple loop does, but only over the nonzero a and b
        brows = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for ra in self.data:
            acc = [0] * other.cols
            for a, brow in zip(ra, brows):
                if a:
                    for j, b in brow:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.data:
            acc = 0
            for a, v in zip(r, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = 0
        for i in range(self.rows):
            acc = acc + self.data[i][i]
        return acc

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m):
    """Reduced row echelon form.

    Returns (rank, reduced, pivot_columns).  The pivot chosen within each
    column minimizes the bit size of the entry, which keeps coefficient
    growth in check; the final RREF is the canonical one regardless.
    """
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    prow = 0
    for pcol in range(ncols):
        if prow >= nrows:
            break
        best = None
        for i in range(prow, nrows):
            if a[i][pcol]:
                sz = _bits(a[i][pcol])
                if best is None or sz < best[0]:
                    best = (sz, i)
        if best is None:
            continue
        i = best[1]
        if i != prow:
            a[prow], a[i] = a[i], a[prow]
        inv = 1 / a[prow][pcol]
        a[prow] = [x * inv for x in a[prow]]
        for r in range(nrows):
            if r != prow and a[r][pcol]:
                f = a[r][pcol]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
        pivots.append(pcol)
        prow += 1
    return prow, Matrix(nrows, ncols, a), pivots


def integer_rows(rows):
    """(den, out): out[k] is den * rows[k] as a new {key: int} dict, for an
    iterable of {key: value} dicts of ints or Fractions, den the lcm of the
    denominators of every entry (1 when there is none).  Zero entries are
    dropped and the other keys keep their order.  The one place where
    rational data is scaled to integers."""
    rows = list(rows)
    den = lcm(*(x.denominator for row in rows for x in row.values()))
    return den, [{k: x.numerator * (den // x.denominator) for k, x in row.items() if x}
                 for row in rows]


def integer_vector(vec):
    """(A, ints): ints is A * vec as a new list of ints, for a list of ints
    or Fractions, A the least positive int that clears every denominator (1
    for an empty or all-zero list).  A list that holds anything else, such
    as the polynomial coordinates of a generic element, comes back
    unchanged over 1."""
    if not all(isinstance(x, (int, Fraction)) for x in vec):
        return 1, vec
    den, (row,) = integer_rows((dict(enumerate(vec)),))
    return den, [row.get(i, 0) for i in range(len(vec))]


def _integer_row(vec):
    """The nonzero entries of a dense list or {column: value} dict of ints or
    Fractions, as a new {column: int} dict scaled by the lcm of the
    denominators.  A dict of ints only is copied without its zeros, unscaled:
    its lcm is 1."""
    if isinstance(vec, dict):
        if set(map(type, vec.values())) <= {int}:
            return {j: x for j, x in vec.items() if x}
    else:
        vec = dict(enumerate(vec))
    return integer_rows((vec,))[1][0]


class RowSpan:
    """Incrementally maintained row space, sparse and fraction-free.

    Rows are primitive {column: int} dicts (content 1, positive pivot) keyed
    by pivot column, in echelon form without back-elimination: a row has no
    entry left of its pivot.  Inputs are dense lists or sparse dicts of ints
    or Fractions; only the span matters, so each is scaled to integers and
    reduced by integer row operations, and the gcd of a reduced vector is
    divided out once, when it is stored.
    insert() returns True when the vector enlarged the span.  Used heavily
    by closure sweeps, where thousands of candidate vectors are reduced
    against the current span.
    """

    def __init__(self, ambient_dim):
        self.ambient = ambient_dim
        self.rows = {}      # pivot column -> primitive row

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """(v, pivot): v is vec minus a combination of rows, up to a positive
        scale, whose leading column pivot is no row's pivot; ({}, None) when
        vec lies in the span.  A step scales v by row[p] / gcd(row[p], v[p]),
        so no gcd is taken when the pivot entry is 1, and none of v: the
        result is fixed only up to scale, and insert divides it out once."""
        v = _integer_row(vec)
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                return v, p
            a, b = row[p], v[p]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    v = {j: a * x for j, x in v.items()}
            for j, y in row.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
        return v, None

    def contains(self, vec):
        return not self._reduce(vec)[0]

    def insert(self, vec):
        v, p = self._reduce(vec)
        if not v:
            return False
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        self.rows[p] = {j: x // g for j, x in v.items()}
        return True

    def reduced(self):
        """The canonical RREF, {pivot: {column: Fraction}} in pivot order:
        the echelon rows back-eliminated sparsely from the last pivot."""
        red = {}
        for p, row in sorted(self.rows.items(), reverse=True):
            r = {j: Fraction(x, row[p]) for j, x in row.items()}
            for q in [q for q in r if q != p and q in red]:
                add_into(r, red[q], -r[q])
            red[p] = r
        return dict(reversed(red.items()))


def quotient(span):
    """Quotient of k^ambient by a RowSpan, read from its canonical RREF.

    Returns (reps, coords): reps are the non-pivot columns and coords[j] is
    the class of e_j as a sparse {k: c} dict over the classes of
    e_{reps[k]}.  Transposed, {j: coords[j][k]} for each k, they are the
    canonical kernel basis of a matrix whose rows span the RowSpan.
    """
    red = span.reduced()
    reps = tuple(j for j in range(span.ambient) if j not in red)
    pos = {j: k for k, j in enumerate(reps)}
    coords = [{pos[t]: -c for t, c in red[j].items() if t != j} if j in red
              else {pos[j]: Fraction(1)} for j in range(span.ambient)]
    return reps, coords


@dataclass(frozen=True)
class LabeledSpace:
    """A finite-dimensional graded vector space with named basis vectors."""

    labels: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")

    @property
    def dim(self):
        return len(self.labels)


def add_into(acc, sparse, scale=None):
    """acc += scale * sparse (acc += sparse without a scale) for {key: coeff}
    dicts, keeping no zero term.

    The one place where sparse sums are accumulated: structure constants,
    bracket tables, brace coordinates, polynomial terms and series
    coefficients all go through it.  Leaving out the scale saves a
    multiplication per term, which polynomial addition feels.  Returns acc.
    """
    for k, c in sparse.items():
        v = acc.get(k, 0) + (c if scale is None else scale * c)
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]
    return acc


def integer_operators(ops):
    """(den, out): out[k] is den * ops[k] for sparse operators {row: {col:
    c}} of ints or Fractions, den the lcm of the denominators of every
    entry; each out[k] is an int operator with no zero entry and no empty
    row, its rows and each row's columns in increasing order."""
    keys = [(k, r) for k, op in enumerate(ops) for r in sorted(op)]
    den, rows = integer_rows(dict(sorted(ops[k][r].items())) for k, r in keys)
    out = [{} for _ in ops]
    for (k, r), row in zip(keys, rows):
        if row:
            out[k][r] = row
    return den, out


def add_operator(acc, op, scale=None):
    """acc += scale * op for sparse operators, keeping no empty row; returns acc."""
    for r, row in op.items():
        out = add_into(acc.get(r, {}), row, scale)
        if out:
            acc[r] = out
        elif r in acc:
            del acc[r]
    return acc


def operator_product(a, b):
    """The sparse operator a b."""
    out = {}
    for r, row in a.items():
        acc = {}
        for k, x in row.items():
            if k in b:
                add_into(acc, b[k], x)
        if acc:
            out[r] = acc
    return out


def commutator(a, b):
    """The sparse operator a b - b a."""
    return add_operator(operator_product(a, b), operator_product(b, a), -1)


def combine(ops, coords, scale=1):
    """The sparse operator sum_k scale c_k ops[k] over a sparse {k: c_k} dict
    of rationals or polynomials; an integral coefficient is applied as an int."""
    out = {}
    for k, c in coords.items():
        add_operator(out, ops[k], int_if_integral(scale * c))
    return out


def int_if_integral(c):
    """c as an int when it is a Fraction of denominator 1, else c unchanged:
    the same value, which multiplies faster."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def scalar_operator(n, c=1):
    """c times the identity on k^n, as a sparse operator."""
    return {r: {r: c} for r in range(n)} if c else {}


def columns(op, scale):
    """The columns of scale * op as integer columns {col: {row: int}}, for an
    integer operator op and an int scale, or a Fraction scale p/q such that
    q divides every p x; ArithmeticError when it does not."""
    p, q = scale.numerator, scale.denominator
    out = {}
    for r, row in op.items():
        for s, x in row.items():
            v, rem = divmod(x * p, q)
            if rem:
                raise ArithmeticError("scale leaves a fraction in an integer column")
            out.setdefault(s, {})[r] = v
    return out


def zero_vector(n):
    return [Q(0)] * n


def unit_vector(n, i):
    v = zero_vector(n)
    v[i] = Q(1)
    return v


def dense_vector(n, sparse):
    """The length-n list with the entries of a {index: value} dict."""
    v = zero_vector(n)
    for k, c in sparse.items():
        v[k] = c
    return v


# the set a sampled rational is drawn from: numerator uniform in
# -DRAW_NUM..DRAW_NUM, then denominator uniform in 1..DRAW_DEN
DRAW_NUM = 12
DRAW_DEN = 6


def random_fraction(rng):
    """A rational drawn from the DRAW_NUM/DRAW_DEN set, for sampling checks."""
    return Fraction(rng.randint(-DRAW_NUM, DRAW_NUM), rng.randint(1, DRAW_DEN))


def random_vector(rng, n):
    """n coordinates, each drawn by random_fraction."""
    return [random_fraction(rng) for _ in range(n)]

