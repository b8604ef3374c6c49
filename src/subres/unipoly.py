"""Dense univariate polynomials over the exact scalar domain.

A polynomial holds its coefficients, ascending, as integer numerators over
one positive int denominator, in lowest terms: ``_num`` is a tuple of
Python ints, or of ``ParamPoly``s with integer coefficients where a
coefficient carries parameters, with no trailing zero, and ``_den`` is an
int, with the gcd of ``_den`` and the content of every numerator equal to
1.  That form is canonical, so equal polynomials have equal numerators and
denominators.  Sums, negation, products, scalar multiples and quotients,
powers, derivatives, and evaluation and Taylor coefficients at a scalar
run on the numerators and reduce once per result, by the gcd of the
denominator and the contents (content and primitive part as in Knuth,
TAOCP vol. 2, 4.6.1).

A polynomial built from scalars takes its numerators from them at once
(``_numerators``) and keeps the scalars as its coefficients, so they keep
the types they were given.  ``coeffs`` of any other polynomial reads them
back from the numerators when first read: a ``Rat`` for an int numerator,
a ``ParamPoly`` for a ``ParamPoly`` one, so each coefficient has the type
that per-coefficient arithmetic would give it.  The zero polynomial has
no coefficients and degree -inf.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from math import comb
from typing import Iterable, Optional, Tuple

from .errors import DomainError
from .scalar import ParamPoly, Rat, Scalar, _content, _numerators, _quotient, as_scalar, is_rational

NEG_INF = float("-inf")


class UniPoly:
    # _coeffs is None until the coefficients are first read.
    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        num, self._den = _numerators(cs)
        self._num = tuple(num)
        self._coeffs = tuple(cs)

    @classmethod
    def from_integers(cls, num: Iterable, den: int = 1) -> "UniPoly":
        """The polynomial whose coefficient of x^k is num[k] / den, for
        Python-int or integer-coefficient ``ParamPoly`` numerators and a
        nonzero int ``den``."""
        if not den:
            raise ZeroDivisionError("polynomial with denominator zero")
        return _reduced(list(num), den)

    @classmethod
    def zero(cls) -> "UniPoly":
        return _make((), 1)

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "UniPoly":
        return cls([0] * k + [c])

    @classmethod
    def root_factor(cls, root: Scalar) -> "UniPoly":
        """The monic linear factor x - root."""
        (n,), d = _numerators([root])
        return _make((-n, d), d)

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        """The coefficients, ascending, as scalars; read-only."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(_quotient(z, den) for z in self._num)
        return self._coeffs

    @property
    def numerators(self) -> Tuple:
        """The numerator of each coefficient, ascending: a Python int, or a
        ``ParamPoly`` with integer coefficients."""
        return self._num

    @property
    def denominator(self) -> int:
        """The one positive denominator of every coefficient."""
        return self._den

    @property
    def degree(self):
        n = len(self._num)
        return n - 1 if n else NEG_INF

    def coeff(self, k: int) -> Scalar:
        coeffs = self.coeffs
        return coeffs[k] if 0 <= k < len(coeffs) else Rat(0)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, da = self._num, self._den
        b, db = other._num, other._den
        if da != db:
            g = math.gcd(da, db)
            ours, theirs = db // g, da // g
            a = [z * ours for z in a]
            b = [z * theirs for z in b]
            da *= ours
        return _reduced([x + y for x, y in zip_longest(a, b, fillvalue=0)], da)

    __radd__ = __add__

    def __neg__(self):
        a, da = self._num, self._den
        return _make(tuple(-z for z in a), da)

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
        a, da = self._num, self._den
        if not isinstance(other, UniPoly):
            scalar = _split(other)
            if scalar is None:
                return NotImplemented
            n, d = scalar
            return _reduced([z * n for z in a], da * d)
        b, db = other._num, other._den
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return _reduced(out, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar.  A ``ParamPoly`` divisor divides
        each coefficient, exactly or with ``DomainError``."""
        if not (is_rational(other) or isinstance(other, ParamPoly)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if isinstance(other, ParamPoly):
            return UniPoly([c / other for c in self.coeffs])
        n, d = _split(other)
        a, da = self._num, self._den
        return _reduced([z * d for z in a], da * n)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers take nonnegative int exponents")
        out = _make((1,), 1)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value: Scalar) -> Scalar:
        """Horner's rule on the numerators: with value = v / w and degree
        n, the sum of num[k] v^k w^(n-k), over den w^n."""
        scalar = _split(value)
        if scalar is None:
            raise DomainError("a polynomial is evaluated at an exact scalar, not %r" % (value,))
        v, w = scalar
        a, da = self._num, self._den
        if not a:
            return Rat(0)
        acc = 0
        power = 1
        for z in reversed(a):
            acc = acc * v + z * power
            power *= w
        return _quotient(acc, da * power // w)

    def __str__(self):
        if not self:
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


def _make(num: tuple, den: int) -> UniPoly:
    """A polynomial with these numerators and denominator, taken as
    already in lowest terms with no trailing zero."""
    out = UniPoly.__new__(UniPoly)
    out._num = num
    out._den = den
    out._coeffs = None
    return out


def _reduced(num: list, den: int) -> UniPoly:
    """num / den in lowest terms, for a list of int or integer-coefficient
    ``ParamPoly`` numerators, which the result may keep, and a nonzero int
    den; trailing zeros are dropped."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *[_content(z) for z in num])
            if den < 0:
                g = -g
            if g != 1:
                num = [z // g for z in num]
                den //= g
    return _make(tuple(num), den)


def _split(s) -> Optional[Tuple[object, int]]:
    """(numerator, denominator) of a scalar operand, None for others."""
    if is_rational(s) or isinstance(s, ParamPoly):
        (n,), d = _numerators([s])
        return n, d
    return None


def _coerce(other) -> Optional[UniPoly]:
    if isinstance(other, UniPoly):
        return other
    scalar = _split(other)
    if scalar is None:
        return None
    n, d = scalar
    return _make((n,) if n else (), d)


def taylor_coeff(p: UniPoly, a: Scalar, j: int) -> Scalar:
    """Coefficient of (x-a)^j in the expansion of p around a.

    Equals the j-th derivative at a divided by j!, computed without
    factorials so it stays exact over any scalar domain: with a = v / w
    and p of degree n, the sum over k >= j of num[k] C(k, j) v^(k-j)
    w^(n-k), over den w^(n-j).  The package reads Taylor data from
    Wronskian rows (``confluent``); tests check those rows against this.
    """
    if j < 0:
        raise DomainError("negative derivative order")
    scalar = _split(a)
    if scalar is None:
        raise DomainError("a Taylor expansion is taken at an exact scalar, not %r" % (a,))
    v, w = scalar
    num, den = p._num, p._den
    n = len(num) - 1
    if j > n:
        return Rat(0)
    acc = 0
    for k in range(j, n + 1):
        z = num[k]
        if not z:
            continue
        if k == j:
            acc = acc + z * w ** (n - j)
        else:
            acc = acc + z * comb(k, j) * v ** (k - j) * w ** (n - k)
    return _quotient(acc, den * w ** (n - j))
