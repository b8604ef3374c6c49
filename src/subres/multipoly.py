"""Sparse multivariate polynomials over the exact scalar domain."""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from .combinat import canon_key
from .errors import DomainError
from .scalar import Rat, Scalar, as_scalar

Expo = Tuple[int, ...]


class MultiPoly:
    """Polynomial in n indexed variables, keyed by exponent tuple."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Expo, Scalar] | None = None):
        if not isinstance(n, int) or n < 1:
            raise DomainError("variable count must be a positive int")
        clean = {}
        if terms:
            for expo, c in terms.items():
                expo = tuple(expo)
                if len(expo) != n or any(not isinstance(e, int) or e < 0 for e in expo):
                    raise DomainError("bad exponent vector %r for %d variables" % (expo, n))
                c = as_scalar(c)
                if c:
                    clean[expo] = c
        self.n = n
        self.terms = clean

    @classmethod
    def monomial(cls, expo: Expo, c: Scalar = 1) -> "MultiPoly":
        return cls(len(expo), {tuple(expo): c})

    @classmethod
    def constant(cls, n: int, c: Scalar) -> "MultiPoly":
        return cls(n, {(0,) * n: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=float("-inf"))

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def _check(self, other: "MultiPoly"):
        if self.n != other.n:
            raise DomainError("mixing polynomials in %d and %d variables" % (self.n, other.n))

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            out = dict(self.terms)
            for k, c in other.terms.items():
                out[k] = out.get(k, Rat(0)) + c
            return MultiPoly(self.n, out)
        return MultiPoly(self.n, {**self.terms}) + MultiPoly.constant(self.n, as_scalar(other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return self + (-other)
        return self + (-as_scalar(other))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            out: dict = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    k = tuple(x + y for x, y in zip(ka, kb))
                    out[k] = out.get(k, Rat(0)) + ca * cb
            return MultiPoly(self.n, out)
        c = as_scalar(other)
        return MultiPoly(self.n, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def shift(self, expo: Expo) -> "MultiPoly":
        """Multiply by the monomial x^expo."""
        expo = tuple(expo)
        if len(expo) != self.n:
            raise DomainError("shift exponent %r for %d variables" % (expo, self.n))
        return MultiPoly(self.n, {tuple(a + b for a, b in zip(k, expo)): c for k, c in self.terms.items()})

    def coeff(self, expo: Expo) -> Scalar:
        return self.terms.get(tuple(expo), Rat(0))

    def __call__(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.n:
            raise DomainError("point has %d coordinates, expected %d" % (len(point), self.n))
        pt = [as_scalar(v) for v in point]
        acc: Scalar = Rat(0)
        for expo, c in self.terms.items():
            v = c
            for x, e in zip(pt, expo):
                if e:
                    v = v * x**e
            acc = acc + v
        return acc

    def homogeneous_part(self, degree: int) -> "MultiPoly":
        return MultiPoly(self.n, {k: c for k, c in self.terms.items() if sum(k) == degree})

    def homogenize(self, degree: int) -> "MultiPoly":
        """Append one variable raised to degree - |expo|; needs deg <= degree."""
        if self.total_degree() > degree:
            raise DomainError("cannot homogenize to degree below the actual degree")
        out = {}
        for expo, c in self.terms.items():
            out[expo + (degree - sum(expo),)] = c
        return MultiPoly(self.n + 1, out)

    def __str__(self):
        if not self.terms:
            return "0"
        names = ["x%d" % (i + 1) for i in range(self.n)]
        parts = []
        for expo in sorted(self.terms, key=canon_key):
            c = self.terms[expo]
            mono = "*".join(
                names[i] if e == 1 else "%s^%d" % (names[i], e)
                for i, e in enumerate(expo)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-%s" % mono)
            else:
                parts.append("%s*%s" % (c, mono))
        return " + ".join(parts)

    def __repr__(self):
        return "MultiPoly(%d, %s)" % (self.n, self.terms)
