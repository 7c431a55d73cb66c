"""Partitions, symmetric-group class data and symmetric polynomials.

Contains the combinatorial side of the workbench: partition enumeration,
conjugacy class sizes and signs, power sums (Newton polynomials), Schur
polynomials by semistandard tableaux with a Jacobi-Trudi cross-check,
Murnaghan-Nakayama characters, and the verifiers for the unique linear
dependence among the N_sigma and its Frobenius-decomposition refinement.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .linalg import RowSpan, add_into, add_operator, random_fraction
from .multipoly import Poly
from .report import Report


# ---------------------------------------------------------------------------
# partitions and class data


def partitions(n):
    """All partitions of n, reverse-lexicographic, each exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(maxpart, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def is_partition(sigma):
    return all(isinstance(p, int) and p > 0 for p in sigma) and \
        all(sigma[i] >= sigma[i + 1] for i in range(len(sigma) - 1))


def class_size(sigma):
    """Number of permutations of cycle type sigma in S_{|sigma|}."""
    if not sigma:
        raise ValueError("empty partition has no conjugacy class")
    if not is_partition(sigma):
        raise ValueError(f"not a partition: {sigma}")
    n = sum(sigma)
    denom = 1
    for p in sigma:
        denom *= p
    for m in Counter(sigma).values():
        denom *= factorial(m)
    return factorial(n) // denom


def sign(sigma):
    """Signature of any permutation with cycle type sigma."""
    return -1 if (sum(sigma) - len(sigma)) % 2 else 1


def cycle_type(perm):
    """Cycle type of a permutation given as a tuple of images of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def permutation_of_type(sigma):
    """A concrete permutation of 0..n-1 with cycle type sigma (consecutive cycles)."""
    images = []
    start = 0
    for p in sigma:
        for i in range(p):
            images.append(start + (i + 1) % p)
        start += p
    return tuple(images)


# ---------------------------------------------------------------------------
# symmetric polynomials, stored compressed


def _canonical(expo):
    return tuple(sorted(expo, reverse=True))


def _orbit(expo):
    """Distinct permutations of an exponent vector: each distinct order of the
    entries other than the most common value v (found the same way) goes on
    each choice of their slots, and v fills the rest.  The work grows with
    the orbit, not with len(expo)!."""
    values = set(expo)
    if len(values) <= 1:
        return {tuple(expo)}
    v = max(values, key=expo.count)
    rest = [x for x in expo if x != v]
    out = set()
    for order in _orbit(rest):
        for pos in combinations(range(len(expo)), len(rest)):
            slots = [v] * len(expo)
            for i, x in zip(pos, order):
                slots[i] = x
            out.add(tuple(slots))
    return out


class SymPoly:
    """Symmetric polynomial in a fixed number of variables.

    Stored compressed: one exponent vector per orbit (sorted descending)
    with the per-monomial coefficient, which is constant along the orbit.
    The full expansion is available on demand.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    if e != _canonical(e):
                        raise ValueError(f"non-canonical exponent {e}")
                    self.terms[e] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def from_poly(cls, p, check=True):
        """Compress a Poly; with check=True verify it actually is symmetric."""
        terms = {}
        for e, c in p.terms.items():
            k = _canonical(e)
            if k == e:
                terms[k] = c
        if check:
            for e, c in p.terms.items():
                if terms.get(_canonical(e), 0) != c:
                    raise ValueError("polynomial is not symmetric")
            for k, c in terms.items():
                for e in _orbit(k):
                    if p.terms.get(e, 0) != c:
                        raise ValueError("polynomial is not symmetric")
        return cls(p.nvars, terms)

    def to_poly(self):
        full = {}
        for k, c in self.terms.items():
            for e in _orbit(k):
                full[e] = c
        return Poly(self.nvars, full)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return SymPoly(self.nvars, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return SymPoly(self.nvars)
        return SymPoly(self.nvars, {e: c * x for e, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        # a product of symmetric polynomials is symmetric
        return SymPoly.from_poly(self.to_poly() * other.to_poly(), check=False)

    __rmul__ = scale

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        acc = 0
        for k, c in self.terms.items():
            for e in _orbit(k):
                t = c
                for x, m in zip(point, e):
                    for _ in range(m):
                        t = t * x
                acc = acc + t
        return acc

    def coefficient_vector(self, keys):
        return [self.terms.get(k, 0) for k in keys]

    def __repr__(self):
        return f"SymPoly({self.nvars} vars, {len(self.terms)} orbits)"


def newton(ell, nvars):
    """Power sum N_ell = x_1^ell + ... + x_nvars^ell; N_0 is the constant nvars."""
    if ell < 0:
        raise ValueError("negative power sum")
    if nvars < 1:
        raise ValueError("need at least one variable")
    if ell == 0:
        return SymPoly.const(nvars, nvars)
    key = (ell,) + (0,) * (nvars - 1)
    return SymPoly(nvars, {key: 1})


def newton_product(sigma, nvars):
    """Product of power sums over the parts of sigma."""
    out = SymPoly.const(nvars, 1)
    for p in sigma:
        out = out * newton(p, nvars)
    return out


def complete_homogeneous(k, nvars):
    """h_k: sum of all monomials of total degree k."""
    if k < 0:
        return SymPoly.zero(nvars)
    terms = {}
    for lam in partitions(k):
        if len(lam) <= nvars:
            key = tuple(lam) + (0,) * (nvars - len(lam))
            terms[key] = 1
    if k == 0:
        terms[(0,) * nvars] = 1
    return SymPoly(nvars, terms)


def _ssyt_fill(shape, row, prev_row, nvars, content, out):
    # fill rows top to bottom; weakly increasing rows, strictly increasing columns
    if row == len(shape):
        out.append(tuple(content))
        return
    width = shape[row]

    def fill(col, minval, current):
        if col == width:
            for v in current:
                content[v - 1] += 1
            _ssyt_fill(shape, row + 1, current, nvars, content, out)
            for v in current:
                content[v - 1] -= 1
            return
        lo = minval
        if prev_row is not None and col < len(prev_row):
            lo = max(lo, prev_row[col] + 1)
        for v in range(lo, nvars + 1):
            current.append(v)
            fill(col + 1, v, current)
            current.pop()

    fill(0, 1, [])


def schur(lam, nvars):
    """Schur polynomial of shape lam in nvars variables, by tableau sums.

    Zero when lam has more than nvars rows.
    """
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    if len(lam) > nvars:
        return SymPoly.zero(nvars)
    if not lam:
        return SymPoly.const(nvars, 1)
    contents = []
    _ssyt_fill(tuple(lam), 0, None, nvars, [0] * nvars, contents)
    full = Counter(contents)
    return SymPoly(nvars, {e: c for e, c in full.items() if e == _canonical(e)})


def schur_jacobi_trudi(lam, nvars):
    """Schur polynomial via the h-determinant; independent of the tableau route."""
    if not lam:
        return SymPoly.const(nvars, 1)
    r = len(lam)
    h = {}

    def hk(k):
        if k not in h:
            h[k] = complete_homogeneous(k, nvars) if k >= 0 else SymPoly.zero(nvars)
        return h[k]

    mat = [[hk(lam[i] - i + j) for j in range(r)] for i in range(r)]

    def det(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        acc = SymPoly.zero(nvars)
        i = rows[0]
        rest = rows[1:]
        for pos, j in enumerate(cols):
            sub = det(rest, cols[:pos] + cols[pos + 1:])
            term = mat[i][j] * sub
            acc = acc + (term if pos % 2 == 0 else term.scale(-1))
        return acc

    return det(tuple(range(r)), tuple(range(r)))


# ---------------------------------------------------------------------------
# characters


def _betas(lam):
    r = len(lam)
    return tuple(lam[i] + (r - 1 - i) for i in range(r))


def _partition_from_betas(betas):
    bs = sorted(betas, reverse=True)
    r = len(bs)
    lam = [bs[i] - (r - 1 - i) for i in range(r)]
    return tuple(p for p in lam if p > 0)


@lru_cache(maxsize=None)
def _mn(lam, sigma):
    if not sigma:
        return 1 if not lam else 0
    k = sigma[0]
    rest = sigma[1:]
    betas = _betas(lam)
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = tuple(sorted((bset - {b}) | {nb}, reverse=True))
        val = _mn(_partition_from_betas(new), rest)
        total += -val if height % 2 else val
    return total


def mn_character(lam, sigma):
    """Irreducible character of S_n: shape lam evaluated on cycle type sigma.

    Murnaghan-Nakayama recursion over border strips, memoized.
    """
    if sum(lam) != sum(sigma):
        raise ValueError(f"size mismatch: |{lam}| != |{sigma}|")
    if not is_partition(lam) or not is_partition(sigma):
        raise ValueError("arguments must be partitions")
    return _mn(tuple(lam), tuple(sigma))


# ---------------------------------------------------------------------------
# the dominance coefficients and the two verifiers


def dominance_coeffs(n):
    """sigma -> sign(sigma) * |C_sigma| over partitions of n+1.

    These integers are the coefficients of the operator sum deciding
    dominance, and of the unique linear dependence among the N_sigma.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return {sigma: sign(sigma) * class_size(sigma) for sigma in partitions(n + 1)}


def relation_string(n):
    """Human-readable form of the dependence relation in degree n+1."""
    parts = []
    for sigma, c in dominance_coeffs(n).items():
        mono = "".join(f"N{p}^{m}" if m > 1 else f"N{p}"
                       for p, m in sorted(Counter(sigma).items(), reverse=True))
        if not parts:
            lead = "" if c == 1 else ("-" if c == -1 else str(c))
            parts.append(f"{lead}{mono}")
        else:
            op = " + " if c > 0 else " - "
            mag = abs(c)
            parts.append(f"{op}{'' if mag == 1 else mag}{mono}")
    return "".join(parts) + " = 0"


def verify_newton_dependence(n):
    """Check that the signed-class-size combination of the N_sigma vanishes
    identically in n variables, and that it is the only dependence.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rep = Report(f"power-sum dependence in {n} variables")
    coeffs = dominance_coeffs(n)
    sigmas = list(coeffs)
    polys = {s: newton_product(s, n) for s in sigmas}
    acc = SymPoly.zero(n)
    for s in sigmas:
        acc = acc + polys[s].scale(coeffs[s])
    rep.add("signed combination vanishes", acc.is_zero(),
            relation_string(n) if acc.is_zero() else f"residual orbits: {len(acc.terms)}")
    keys = sorted({k for p in polys.values() for k in p.terms}, reverse=True)
    span = RowSpan(len(keys))
    for s in sigmas:
        span.insert(polys[s].coefficient_vector(keys))
    rank = span.dim
    expected = len(sigmas) - 1
    rep.add("rank is p(n+1)-1", rank == expected, f"rank {rank}, expected {expected}")
    return rep


def verify_frobenius(n):
    """Check N_sigma = sum over lam of chi_lam(sigma) * S_lam in n variables,
    for every sigma of size n+1; lam runs over shapes with at most n rows
    (taller shapes give the zero Schur polynomial in n variables).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rep = Report(f"character decomposition of power sums, degree {n + 1} in {n} variables")
    lams = [lam for lam in partitions(n + 1) if len(lam) <= n]
    schurs = {lam: schur(lam, n) for lam in lams}
    for sigma in partitions(n + 1):
        acc = SymPoly.zero(n)
        for lam in lams:
            chi = mn_character(lam, sigma)
            if chi:
                acc = acc + schurs[lam].scale(chi)
        lhs = newton_product(sigma, n)
        rep.add(f"sigma={sigma}", lhs == acc)
    return rep


def trace_oracle(sigma, point):
    """Trace of the explicit diagonal-then-permute operator on the (n+1)-fold
    tensor power of an n-dimensional space, with diagonal entries `point`.

    Built entry by entry as an actual sparse operator, whose diagonal is
    then summed, so it is an independent check that the trace equals
    N_sigma evaluated at `point`.
    """
    n = len(point)
    if sum(sigma) != n + 1:
        raise ValueError(f"need |sigma| = len(point)+1, got {sum(sigma)} vs {n + 1}")
    if n == 0:
        raise ValueError("need at least one variable")
    perm = permutation_of_type(sigma)
    size = n ** (n + 1)

    def unrank(t):
        idx = []
        for _ in range(n + 1):
            idx.append(t % n)
            t //= n
        return tuple(idx)

    def rank(idx):
        t = 0
        for k in reversed(idx):
            t = t * n + k
        return t

    op = {}
    for src in range(size):
        idx = unrank(src)
        # permute tensor positions, then scale by the diagonal
        permuted = tuple(idx[perm[pos]] for pos in range(n + 1))
        coeff = Fraction(1)
        for k in permuted:
            coeff *= Fraction(point[k])
        add_operator(op, {rank(permuted): {src: coeff}})
    return sum((row.get(r, 0) for r, row in op.items()), Fraction(0))


def verify_trace_oracle(n, samples=5, seed=0):
    """Compare the tensor-operator trace with N_sigma at random points."""
    rng = random.Random(seed)
    rep = Report(f"tensor trace vs power sums, n={n}")
    sigmas = partitions(n + 1)
    for _ in range(samples):
        point = [random_fraction(rng) for _ in range(n)]
        for sigma in sigmas:
            got = trace_oracle(sigma, point)
            want = newton_product(sigma, n).evaluate(point)
            rep.add(f"sigma={sigma} at {[str(x) for x in point]}", got == want,
                    "" if got == want else f"{got} != {want}")
    return rep
