"""JSON-friendly serialization of every value the package computes.

All rationals cross this boundary as strings ("p/q", with "/q" omitted when
the denominator is 1); parameterized scalars use the same infix form their
str() produces, and parse back exactly.  Floats are rejected everywhere:
exactness is the point of the package.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from .errors import DomainError
from .matrix import ExactMatrix
from .multipoly import MultiPoly
from .mv.duality import DualFunctional, Point
from .mv.macaulay import MVSystem
from .rootsets import MultiRootSet
from .scalar import ParamPoly, Rat, Scalar, _collapse, as_scalar
from .unipoly import UniPoly

__all__ = [
    "scalar_to_str",
    "parse_scalar",
    "scalar_from_json",
    "unipoly_to_json",
    "parse_unipoly",
    "parse_rootset",
    "matrix_to_json",
    "parse_multipoly",
    "point_to_json",
    "parse_point",
    "functional_to_json",
    "parse_functional",
    "SystemDocument",
    "parse_system",
]


# Parse errors echo the offending input, cut past this many characters.
_ECHO_LIMIT = 200


def _cut(text: str) -> str:
    """text, cut after _ECHO_LIMIT characters with a visible "..."."""
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


# ---------------------------------------------------------------------------
# scalars

def scalar_to_str(s: Scalar) -> str:
    """Canonical string form: "p/q" for rationals, infix for parameters."""
    return _within_digit_limit(str, _collapse(as_scalar(s)))


def _within_digit_limit(convert, value):
    """convert(value), int of a literal or str of a scalar, with Python's
    limit for integer string conversion as a ``DomainError`` (gmpy2's mpq
    prints without one)."""
    try:
        return convert(value)
    except ValueError:
        raise DomainError(
            "integer with more than %d digits, the limit for integer string conversion"
            % sys.get_int_max_str_digits()
        ) from None


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise DomainError(
                "scalar parse error at position %d: unexpected %r" % (pos, rest[0])
            )
        if m.group(1):
            out.append(("int", _within_digit_limit(int, m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    out.append(("end", None))
    return out


# Each parenthesis level costs four Python frames in the recursive descent
# below; this keeps the parser well inside the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, val = self.peek()
        got = "end of input" if kind == "end" else _cut(repr(val))
        raise DomainError(
            "scalar parse error in %s: expected %s, got %s" % (_cut(repr(self.text)), expected, got)
        )

    def expr(self) -> Scalar:
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        elif self.peek() == ("op", "+"):
            self.take()
        value = self.term() * sign if sign < 0 else self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.power()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            rhs = self.power()
            if op == "*":
                value = value * rhs
            else:
                value = _exact_div(value, rhs)
        return value

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                self.fail("an integer exponent after '^'")
            return base ** val
        return base

    def atom(self) -> Scalar:
        kind, val = self.peek()
        if kind == "int":
            self.take()
            return Rat(val)
        if kind == "name":
            self.take()
            return ParamPoly.variable(val)
        if (kind, val) == ("op", "("):
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise DomainError(
                    "scalar parse error: parentheses nested deeper than %d" % MAX_NESTING
                )
            inner = self.expr()
            self.depth -= 1
            if self.peek() != ("op", ")"):
                self.fail("')'")
            self.take()
            return inner
        self.fail("a number, a parameter name, or '('")


def _exact_div(num: Scalar, den: Scalar) -> Scalar:
    den = _collapse(den)
    if not den:
        raise DomainError("division by zero in scalar expression")
    return num / den  # parameterized division raises when inexact


def parse_scalar(text: str) -> Scalar:
    """Parse the infix scalar grammar: rationals, parameter names, + - * / ^ ()."""
    if not isinstance(text, str):
        raise DomainError("expected a scalar string, got %s" % (_cut(repr(text)),))
    if "." in text:
        raise DomainError("floats are not accepted; write rationals as p/q")
    p = _Parser(text)
    value = p.expr()
    if p.peek()[0] != "end":
        p.fail("end of input")
    return _collapse(value)


def scalar_from_json(v) -> Scalar:
    """Accept ints and scalar strings from decoded JSON; reject floats."""
    if isinstance(v, bool):
        raise DomainError("expected a scalar, got a boolean")
    if isinstance(v, int):
        return Rat(v)
    if isinstance(v, float):
        raise DomainError("floats are not accepted; write rationals as strings \"p/q\"")
    if isinstance(v, str):
        return parse_scalar(v)
    raise DomainError("expected an int or a scalar string, got %s" % (_cut(repr(v)),))


# ---------------------------------------------------------------------------
# univariate polynomials: ascending coefficient arrays

def unipoly_to_json(p: UniPoly) -> list:
    return [scalar_to_str(c) for c in p.coeffs]


def parse_unipoly(doc) -> UniPoly:
    if not isinstance(doc, (list, tuple)):
        raise DomainError("a polynomial document is an array of ascending coefficients")
    return UniPoly([scalar_from_json(c) for c in doc])


# ---------------------------------------------------------------------------
# root sets: [[root, multiplicity], ...]

def parse_rootset(doc) -> MultiRootSet:
    if not isinstance(doc, (list, tuple)) or not doc:
        raise DomainError("a root set document is a nonempty array of [root, multiplicity] pairs")
    pairs = []
    for entry in doc:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DomainError(
                "each root entry must be a [root, multiplicity] pair, got %s" % (_cut(repr(entry)),)
            )
        root, mult = entry
        if not isinstance(mult, int) or isinstance(mult, bool):
            raise DomainError("multiplicity must be an integer, got %s" % (_cut(repr(mult)),))
        pairs.append((scalar_from_json(root), mult))
    return MultiRootSet(pairs)


# ---------------------------------------------------------------------------
# matrices: arrays of row arrays

def matrix_to_json(m: ExactMatrix) -> list:
    return [[scalar_to_str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


# ---------------------------------------------------------------------------
# multivariate polynomials: arrays of {exponents, coeff} records

def _exponent_vector(doc, n: Optional[int]) -> Tuple[int, ...]:
    if not isinstance(doc, (list, tuple)):
        raise DomainError("an exponent vector must be an array of nonnegative integers")
    expo = tuple(doc)
    if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in expo):
        raise DomainError("exponents must be nonnegative integers, got %s" % (_cut(repr(doc)),))
    if n is not None and len(expo) != n:
        raise DomainError("exponent vector %s must have %d entries" % (_cut(repr(doc)), n))
    return expo


def parse_multipoly(doc, n: Optional[int] = None) -> MultiPoly:
    if not isinstance(doc, (list, tuple)):
        raise DomainError("a multivariate polynomial document is an array of term records")
    terms = {}
    for rec in doc:
        if not isinstance(rec, Mapping) or set(rec) != {"exponents", "coeff"}:
            raise DomainError(
                "each term record must be {\"exponents\": [...], \"coeff\": ...}, got %s"
                % (_cut(repr(rec)),)
            )
        expo = _exponent_vector(rec["exponents"], n)
        if n is None:
            n = len(expo)
        terms[expo] = terms.get(expo, Rat(0)) + scalar_from_json(rec["coeff"])
    if n is None:
        raise DomainError("cannot infer the variable count of an empty polynomial; pass n")
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------------
# points and dual functionals

def point_to_json(p: Point) -> list:
    return [scalar_to_str(c) for c in p.coords]


def parse_point(doc) -> Point:
    if not isinstance(doc, (list, tuple)) or not doc:
        raise DomainError("a point document is a nonempty array of coordinates")
    return Point([scalar_from_json(c) for c in doc])


def functional_to_json(f: DualFunctional) -> dict:
    return {
        "terms": [
            {"alpha": list(expo), "coeff": scalar_to_str(c)} for expo, c in f.terms
        ]
    }


def parse_functional(doc, point: Point) -> DualFunctional:
    if not isinstance(doc, Mapping) or "terms" not in doc:
        raise DomainError("a functional document is {\"terms\": [{\"alpha\", \"coeff\"}...]}")
    terms = []
    for rec in doc["terms"]:
        if not isinstance(rec, Mapping) or set(rec) != {"alpha", "coeff"}:
            raise DomainError(
                "each functional term must be {\"alpha\": [...], \"coeff\": ...}, got %s"
                % (_cut(repr(rec)),)
            )
        terms.append((_exponent_vector(rec["alpha"], point.n), scalar_from_json(rec["coeff"])))
    return DualFunctional(point, terms)


# ---------------------------------------------------------------------------
# system documents

@dataclass(frozen=True)
class SystemDocument:
    """A parsed system description: the system plus optional run parameters."""

    system: MVSystem
    t: Optional[int] = None
    s_cols: Optional[Tuple[Tuple[int, ...], ...]] = None
    roots: Optional[Tuple[Tuple[Point, Optional[Tuple[DualFunctional, ...]]], ...]] = None
    t_override: Optional[Mapping[int, Sequence[Tuple[int, ...]]]] = None


def _opt_int(doc, key):
    v = doc.get(key)
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        raise DomainError("%s must be an integer" % (_cut(repr(key)),))
    return v


def parse_system(doc) -> SystemDocument:
    """Decode {n, variables?, polynomials, degrees?, t?, S?, roots?, T_override?}."""
    if not isinstance(doc, Mapping):
        raise DomainError("a system document is a JSON object")
    known = {"n", "variables", "polynomials", "degrees", "t", "S", "roots", "T_override"}
    extra = set(doc) - known
    if extra:
        raise DomainError("unknown system document keys: %s" % _cut(", ".join(sorted(extra))))
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError("\"n\" must be a positive integer")
    variables = doc.get("variables")
    if variables is not None and (
        not isinstance(variables, (list, tuple))
        or len(variables) != n
        or any(not isinstance(v, str) for v in variables)
    ):
        raise DomainError("\"variables\" must list %d names" % n)
    raw_polys = doc.get("polynomials")
    if not isinstance(raw_polys, (list, tuple)) or len(raw_polys) != n + 1:
        raise DomainError("\"polynomials\" must list exactly n+1 = %d entries" % (n + 1))
    polys = [parse_multipoly(rec, n) for rec in raw_polys]
    # f_1..f_n define the roots, so a zero one leaves none isolated; only
    # the last polynomial, whose values the subresultant is taken of, may
    # vanish.
    for i, p in enumerate(polys[:n]):
        if p.is_zero():
            raise DomainError(
                "polynomial %d is zero; of the n+1 polynomials only the last may be zero" % (i + 1)
            )
    degrees = doc.get("degrees")
    if degrees is None:
        degrees = [max(int(p.total_degree()), 1) if not p.is_zero() else 1 for p in polys]
    if (
        not isinstance(degrees, (list, tuple))
        or len(degrees) != n + 1
        or any(not isinstance(d, int) or isinstance(d, bool) for d in degrees)
    ):
        raise DomainError("\"degrees\" must list exactly n+1 = %d integers" % (n + 1))
    system = MVSystem(n, polys, degrees)

    t = _opt_int(doc, "t")
    s_cols = None
    if doc.get("S") is not None:
        if not isinstance(doc["S"], (list, tuple)):
            raise DomainError("\"S\" must be an array of exponent vectors")
        s_cols = tuple(_exponent_vector(g, n) for g in doc["S"])
    roots = None
    if doc.get("roots") is not None:
        if not isinstance(doc["roots"], (list, tuple)):
            raise DomainError("\"roots\" must be an array of {point, dual?} records")
        groups = []
        for rec in doc["roots"]:
            if not isinstance(rec, Mapping) or "point" not in rec or set(rec) - {"point", "dual"}:
                raise DomainError("each root record must be {\"point\": [...], \"dual\"?: [...]}")
            point = parse_point(rec["point"])
            if point.n != n:
                raise DomainError(
                    "root point %s must have %d coordinates" % (_cut(repr(rec["point"])), n)
                )
            dual = rec.get("dual")
            if dual is not None:
                dual = tuple(parse_functional(f, point) for f in dual)
            groups.append((point, dual))
        roots = tuple(groups)
    t_override = None
    if doc.get("T_override") is not None:
        if not isinstance(doc["T_override"], Mapping):
            raise DomainError("\"T_override\" maps degree -> array of exponent vectors")
        t_override = {}
        for key, mons in doc["T_override"].items():
            try:
                j = int(key)
            except (TypeError, ValueError):
                raise DomainError(
                    "T_override keys must be degrees, got %s" % (_cut(repr(key)),)
                ) from None
            if not isinstance(mons, (list, tuple)):
                raise DomainError(
                    "T_override[%s] must be an array of exponent vectors" % (_cut(repr(key)),)
                )
            t_override[j] = [_exponent_vector(g, n) for g in mons]
    return SystemDocument(system, t, s_cols, roots, t_override)
