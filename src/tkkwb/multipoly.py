"""Sparse multivariate polynomials with exact coefficients.

Terms are stored as a dict from exponent tuples to coefficients (ints or
Fractions, never floats).  They are left for `SymPoly`'s products and for
points with polynomial coordinates, such as the tests' `Poly.variables(d)`,
which `dominance_operator`, `efr_powers` and `garland_coefficients` accept.
No verdict of the package builds one.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import add_into


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def variables(cls, nvars):
        return [cls.variable(nvars, i) for i in range(nvars)]

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.nvars, add_into(dict(self.terms), o.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            add_into(out, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                           for e2, c2 in o.terms.items()})
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        acc = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                for _ in range(k):
                    t = t * x
            acc = acc + t
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)
