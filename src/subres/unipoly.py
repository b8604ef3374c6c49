"""Dense univariate polynomials over the exact scalar domain.

Coefficients are stored ascending with no trailing zeros; the zero
polynomial has an empty coefficient tuple and degree -inf.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .errors import DomainError
from .scalar import ParamPoly, Rat, Scalar, as_scalar, is_rational

NEG_INF = float("-inf")


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "UniPoly":
        return cls([0] * k + [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Rat(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return len(self.coeffs) == len(other.coeffs) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if is_rational(other) or isinstance(other, ParamPoly):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if is_rational(other) or isinstance(other, ParamPoly):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers take nonnegative int exponents")
        out = UniPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def mul_xk(self, k: int) -> "UniPoly":
        """Multiply by x^k (coefficient shift)."""
        if not self.coeffs:
            return self
        return UniPoly((Rat(0),) * k + self.coeffs)

    def __call__(self, value: Scalar) -> Scalar:
        acc: Scalar = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append("(%s)" % c)
            elif k == 1:
                parts.append("(%s)*x" % c)
            else:
                parts.append("(%s)*x^%d" % (c, k))
        return " + ".join(parts)

    def __repr__(self):
        return "UniPoly(%r)" % (list(self.coeffs),)


def _coerce(other):
    if isinstance(other, UniPoly):
        return other
    if is_rational(other) or isinstance(other, ParamPoly):
        return UniPoly([other])
    return None


def taylor_coeff(p: UniPoly, a: Scalar, j: int) -> Scalar:
    """Coefficient of (x-a)^j in the expansion of p around a.

    Equals the j-th derivative at a divided by j!, computed without
    factorials so it stays exact over any scalar domain.
    """
    if j < 0:
        raise DomainError("negative derivative order")
    acc: Scalar = Rat(0)
    for k in range(j, len(p.coeffs)):
        c = p.coeffs[k]
        if not c:
            continue
        if k == j:
            acc = acc + c
        else:
            acc = acc + c * comb(k, j) * a ** (k - j)
    return acc

