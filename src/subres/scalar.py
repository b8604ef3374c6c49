"""Exact scalar domain: rationals plus polynomials in named parameters.

Every scalar in the package is either a rational number (``Rat``) or a
``ParamPoly``, a multivariate polynomial in named parameters with rational
coefficients.  There is no floating point anywhere and no implicit collapse
between the two kinds: a ParamPoly that happens to be constant still
compares equal to the matching rational but keeps its type.
"""

from __future__ import annotations

from typing import Mapping, Union

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
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


class ParamPoly:
    """Polynomial in named parameters over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, object] | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = c if isinstance(c, _RAT_T) else Rat(c)
                if c != 0:
                    clean[key] = c
        self._terms = clean

    @classmethod
    def _from_terms(cls, terms: dict) -> "ParamPoly":
        """Take a dict whose coefficients are already ``Rat`` as it is, but
        for the ones that cancelled to 0; the operators build through it."""
        out = cls.__new__(cls)
        out._terms = {key: c for key, c in terms.items() if c}
        return out

    @classmethod
    def constant(cls, c) -> "ParamPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): 1})

    @property
    def terms(self) -> Mapping[Key, object]:
        return self._terms

    def parameters(self) -> set:
        return {name for key in self._terms for name, _ in key}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == () for key in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise DomainError("not a constant: %s" % self)
        return self._terms.get((), Rat(0))

    def substitute(self, assignment: Mapping[str, object]):
        """Total substitution; returns a rational.

        Every parameter appearing in the polynomial must be assigned,
        partial substitution is an error.
        """
        missing = self.parameters() - set(assignment)
        if missing:
            raise DomainError("unassigned parameters: %s" % sorted(missing))
        total = Rat(0)
        for key, c in self._terms.items():
            v = c
            for name, e in key:
                a = assignment[name]
                a = a if isinstance(a, _RAT_T) else Rat(a)
                v = v * a**e
            total += v
        return total

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if is_rational(other):
            return ParamPoly({(): other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in o._terms.items():
            out[key] = out.get(key, Rat(0)) + c
        return ParamPoly._from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._from_terms({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return ParamPoly()
        if o.is_constant():
            c = o._terms.get((), Rat(0))
            return ParamPoly._from_terms({k: v * c for k, v in self._terms.items()})
        if self.is_constant():
            c = self._terms.get((), Rat(0))
            return ParamPoly._from_terms({k: v * c for k, v in o._terms.items()})
        out = {}
        for ka, ca in self._terms.items():
            for kb, cb in o._terms.items():
                k = _key_mul(ka, kb)
                out[k] = out.get(k, Rat(0)) + ca * cb
        return ParamPoly._from_terms(out)

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
        if is_rational(other):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            inv = Rat(1) / Rat(other)
            return ParamPoly({k: c * inv for k, c in self._terms.items()})
        if isinstance(other, ParamPoly):
            if other.is_zero():
                raise ZeroDivisionError("scalar division by zero")
            if other.is_constant():
                return self / other.constant_value()
            return _divide_exact(self, other)
        return NotImplemented

    def __floordiv__(self, other):
        """The exact quotient, as ``/``: it never rounds.  The fraction-free
        eliminations write their exact divisions as ``//``, so integer and
        parameter entries share one loop."""
        return self / other

    def __rtruediv__(self, other):
        if not is_rational(other):
            return NotImplemented
        return ParamPoly.constant(other) / self

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self._terms == other._terms
        if is_rational(other):
            if other == 0:
                return not self._terms
            return self.is_constant() and self._terms.get((), Rat(0)) == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self._terms.get((), Rat(0)))
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- printing ------------------------------------------------------

    def _sorted_terms(self):
        def rank(item):
            key, _ = item
            names = sorted(self.parameters())
            vec = dict(key)
            dense = tuple(vec.get(n, 0) for n in names)
            return (sum(e for _, e in key), dense)

        return sorted(self._terms.items(), key=rank, reverse=True)

    def __str__(self):
        if not self._terms:
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


def substitute_scalar(s: Scalar, assignment: Mapping[str, object]):
    """Apply a parameter assignment; rationals pass through unchanged."""
    if isinstance(s, ParamPoly):
        return s.substitute(assignment)
    return as_scalar(s)
