"""Exact scalar domain: rationals plus polynomials in named parameters.

Every scalar in the package is either a rational number (``Rat``) or a
``ParamPoly``, a multivariate polynomial in named parameters with rational
coefficients.  A ParamPoly holds Python-int numerators, one per monomial,
over one positive int denominator, in lowest terms: no numerator is 0 and
the gcd of the denominator and every numerator is 1.  So its arithmetic
runs on ints, and a result over the denominator 1, as every polynomial
with integer coefficients is, takes no gcd at all.  ``terms`` reads the
coefficients back as rationals.  There is no floating point anywhere and
no implicit collapse between the two kinds: a ParamPoly that happens to be
constant still compares equal to, and hashes like, the matching rational
but keeps its type.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Tuple, Union

from .errors import DomainError

# Two supported rational backends: gmpy2's mpq when it is installed (the
# optional "gmpy2" extra; faster), else the standard library's Fraction.
# `sres --version` names the one in use.
try:
    from gmpy2 import mpq as Rat
except ImportError:
    from fractions import Fraction as Rat

_RAT_T = type(Rat(0))


def rat(p, q=1):
    """Build a rational from ints or a "p/q" string; floats are rejected."""
    if isinstance(p, float) or isinstance(q, float):
        raise DomainError("floats are not exact; pass ints, strings or rationals")
    return Rat(p) / Rat(q) if q != 1 else Rat(p)


def is_rational(s) -> bool:
    return isinstance(s, (int, _RAT_T))


# A monomial key is a tuple of (name, exponent) pairs, sorted by name,
# exponents strictly positive.  The empty tuple is the constant monomial.
Key = tuple


def _key_mul(a: Key, b: Key) -> Key:
    # Most monomial products have a constant factor or two factors in one
    # parameter each: 85% of them on a block of symbolic root pairs.
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (na, ea), (nb, eb) = a[0], b[0]
        if na == nb:
            return ((na, ea + eb),)
        return (a[0], b[0]) if na < nb else (b[0], a[0])
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


class _Terms(Mapping):
    """The coefficients of a ``ParamPoly`` as rationals, read-only: each is
    its numerator over the one denominator, made when it is read."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key: Key):
        return Rat(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class ParamPoly:
    """Polynomial in named parameters over the rationals: int numerators
    keyed by monomial over one positive int denominator, in lowest terms."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Key, object] | None = None):
        items = [(key, c if isinstance(c, _RAT_T) else Rat(c)) for key, c in (terms or {}).items()]
        nums, self._den = _numerators([c for _, c in items])
        self._num = {key: z for (key, _), z in zip(items, nums) if z}

    @classmethod
    def from_integers(cls, num: Mapping[Key, int], den: int = 1) -> "ParamPoly":
        """The polynomial whose coefficient of each monomial key is
        num[key] / den, for int numerators and a nonzero int ``den``."""
        return _poly(dict(num), den)

    @classmethod
    def constant(cls, c) -> "ParamPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): 1})

    @property
    def terms(self) -> Mapping[Key, object]:
        return _Terms(self._num, self._den)

    @property
    def numerators(self) -> Mapping[Key, int]:
        """The int numerator of each monomial's coefficient, read-only."""
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        """The one positive denominator of every coefficient."""
        return self._den

    def parameters(self) -> set:
        return {name for key in self._num for name, _ in key}

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and () in num)

    def constant_value(self):
        if not self.is_constant():
            raise DomainError("not a constant: %s" % self)
        return Rat(self._num.get((), 0), self._den)

    def substitute(self, assignment: Mapping[str, object]):
        """Total substitution; returns a rational.

        Every parameter appearing in the polynomial must be assigned,
        partial substitution is an error.
        """
        missing = self.parameters() - set(assignment)
        if missing:
            raise DomainError("unassigned parameters: %s" % sorted(missing))
        total = Rat(0)
        for key, z in self._num.items():
            v = Rat(z)
            for name, e in key:
                a = assignment[name]
                a = a if isinstance(a, _RAT_T) else Rat(a)
                v = v * a**e
            total += v
        return total / self._den

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _operand(other):
        """(numerators, denominator) of a scalar operand, None for others."""
        if isinstance(other, ParamPoly):
            return other._num, other._den
        if is_rational(other):
            n = int(other.numerator)
            return ({(): n} if n else {}), int(other.denominator)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        onum, oden = o
        den = self._den
        if den == oden:
            out = dict(self._num)
            for key, z in onum.items():
                out[key] = out.get(key, 0) + z
            return _poly(out, den)
        g = math.gcd(den, oden)
        ours, theirs = oden // g, den // g
        out = {key: z * ours for key, z in self._num.items()}
        for key, z in onum.items():
            out[key] = out.get(key, 0) + z * theirs
        return _poly(out, den * ours)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -z for k, z in self._num.items()}, self._den)

    def __sub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        anum, (bnum, bden) = self._num, o
        if not anum or not bnum:
            return ParamPoly()
        if len(bnum) == 1 and () in bnum:
            c = bnum[()]
            out = {k: z * c for k, z in anum.items()}
        elif len(anum) == 1 and () in anum:
            c = anum[()]
            out = {k: z * c for k, z in bnum.items()}
        else:
            out = {}
            for ka, za in anum.items():
                for kb, zb in bnum.items():
                    k = _key_mul(ka, kb)
                    out[k] = out.get(k, 0) + za * zb
        return _poly(out, self._den * bden)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("ParamPoly powers take nonnegative int exponents")
        out = ParamPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, ParamPoly):
            if not other._num:
                raise ZeroDivisionError("scalar division by zero")
            if not other.is_constant():
                return _divide_exact(self, other)
            n, d = other._num[()], other._den
        elif is_rational(other):
            n, d = int(other.numerator), int(other.denominator)
            if not n:
                raise ZeroDivisionError("scalar division by zero")
        else:
            return NotImplemented
        return _poly({k: z * d for k, z in self._num.items()}, self._den * n)

    def __floordiv__(self, other):
        """The exact quotient, as ``/``: it never rounds.  Only
        ``matrix._GaussJordan`` divides ``ParamPoly`` values with ``//``,
        so that its integer and parameter columns share one loop."""
        return self / other

    def __rtruediv__(self, other):
        if not is_rational(other):
            return NotImplemented
        return ParamPoly.constant(other) / self

    def __eq__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._den == o[1] and self._num == o[0]

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((frozenset(self._num.items()), self._den))

    def __bool__(self):
        return bool(self._num)

    # -- printing ------------------------------------------------------

    def _sorted_terms(self):
        names = sorted(self.parameters())

        def rank(item):
            key, _ = item
            vec = dict(key)
            dense = tuple(vec.get(n, 0) for n in names)
            return (sum(e for _, e in key), dense)

        return sorted(self.terms.items(), key=rank, reverse=True)

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for key, c in self._sorted_terms():
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e) for name, e in key
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text[0] + text[2:]

    def __repr__(self):
        return "ParamPoly(%s)" % self


def _poly(num: dict, den: int) -> ParamPoly:
    """num / den in lowest terms, for a dict of int numerators, which the
    result may keep as its own, and a nonzero int den; zero numerators are
    dropped."""
    if not all(num.values()):
        num = {k: z for k, z in num.items() if z}
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if den < 0:
                g = -g
            if g != 1:
                num = {k: z // g for k, z in num.items()}
                den //= g
    out = ParamPoly.__new__(ParamPoly)
    out._num = num
    out._den = den
    return out


def _grlex(vec):
    return (sum(vec), vec)


def _divide_exact(num: ParamPoly, den: ParamPoly) -> ParamPoly:
    """Exact multivariate division; raises if the quotient is not polynomial."""
    names = sorted(num.parameters() | den.parameters())
    idx = {n: i for i, n in enumerate(names)}

    def dense(key):
        v = [0] * len(names)
        for name, e in key:
            v[idx[name]] = e
        return tuple(v)

    def sparse(vec):
        return tuple((names[i], e) for i, e in enumerate(vec) if e)

    work = {dense(k): c for k, c in num.terms.items()}
    dterms = {dense(k): c for k, c in den.terms.items()}
    dlead = max(dterms, key=_grlex)
    dval = dterms[dlead]
    quo = {}
    while work:
        lead = max(work, key=_grlex)
        if any(l < d for l, d in zip(lead, dlead)):
            raise DomainError("inexact polynomial division: %s by %s" % (num, den))
        q = tuple(l - d for l, d in zip(lead, dlead))
        c = work[lead] / dval
        quo[q] = quo.get(q, Rat(0)) + c
        for dvec, dc in dterms.items():
            k = tuple(a + b for a, b in zip(q, dvec))
            v = work.get(k, Rat(0)) - c * dc
            if v == 0:
                work.pop(k, None)
            else:
                work[k] = v
    return ParamPoly({sparse(v): c for v, c in quo.items()})


Scalar = Union[int, _RAT_T, ParamPoly]


def param(name: str) -> ParamPoly:
    return ParamPoly.variable(name)


def as_scalar(v) -> Scalar:
    if isinstance(v, ParamPoly) or isinstance(v, _RAT_T):
        return v
    if isinstance(v, int):
        return Rat(v)
    raise DomainError("not an exact scalar: %r" % (v,))


def _numerators(values: Sequence[Scalar]) -> Tuple[list, int]:
    """(nums, d) with values[j] = nums[j] / d, d the int lcm of every
    denominator (a ``ParamPoly`` has one): each num is a Python int, or a
    ``ParamPoly`` with integer coefficients.  This is the one place where
    scalars become integer numerators: determinant rows, polynomial
    coefficients, the dual side's coefficients and the coefficients a
    ``ParamPoly`` is built from all go through it.

    For values in lowest terms no prime divides d and every num, so a
    polynomial's numerators over d are in lowest terms too.  gmpy2's mpq
    has mpz parts; one int() per entry makes its numerator a Python int,
    whatever the backend, so integer kernels never see an mpz."""
    # A list, not a generator: unpacking a generator resizes the argument
    # tuple, and CPython parks the resized tuples on its free lists until
    # a full collection: ~1.7 MiB more peak memory over a benchmark run.
    dens = [v.denominator for v in values]
    d = math.lcm(*dens)
    if d == 1:
        return [v if isinstance(v, ParamPoly) else int(v.numerator) for v in values], d
    return [
        v * d if isinstance(v, ParamPoly) else int(v.numerator * (d // den))
        for v, den in zip(values, dens)
    ], d


def _collapse(s: Scalar) -> Scalar:
    """s, or its rational value when s is a constant ``ParamPoly``: the one
    place where a constant ``ParamPoly`` becomes a rational."""
    return s.constant_value() if isinstance(s, ParamPoly) and s.is_constant() else s


def _content(num) -> int:
    """The gcd of the integer coefficients of an int or of a ``ParamPoly``
    with integer coefficients, up to sign; 0 for zero."""
    return math.gcd(*num._num.values()) if isinstance(num, ParamPoly) else num


def _quotient(num, den) -> Scalar:
    """num / den back in the scalar domain, for an int num and a nonzero int
    den, or a ``ParamPoly`` num and an int or exact ``ParamPoly`` den."""
    return num / den if isinstance(num, ParamPoly) else Rat(num, den)


def substitute_scalar(s: Scalar, assignment: Mapping[str, object]):
    """Apply a parameter assignment; rationals pass through unchanged."""
    if isinstance(s, ParamPoly):
        return s.substitute(assignment)
    return as_scalar(s)
