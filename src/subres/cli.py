"""Command-line front end: every computation on serialized inputs.

One invocation runs one subcommand; the result document goes to standard
output as a single JSON value and diagnostics go to standard error.  All
rationals cross the boundary as strings.  Exit status: 0 on success, 1 when
`verify` finds a disagreement, 2 on domain or parse errors, 3 when the
quotient-basis matrix V_T is singular (a structural error), 4 on an internal
error, any other exception, reported on standard error as
``error: internal: <Type>: <message>`` so that it never reads as a failed
check.  ``sres --version`` prints the version and the rational backend.

Every flag that takes a document accepts inline JSON or an ``@file``
reference to a UTF-8 JSON file interchangeably.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import __version__
from .confluent import wronskian
from .errors import DomainError, StructuralError
from .matrix import det_exact
from .mv.duality import assemble_dual_basis, inverse_system
from .mv.hilbert import build_monomial_sets
from .mv.macaulay import delta_s
from .mv.poisson import poisson_delta
from .roots_formulas import VARIANTS, sres_dm1_hermite, sres_one, sres_roots
from .scalar import Rat
from .serialize import (
    SystemDocument,
    _exponent_vector,
    _within_digit_limit,
    functional_to_json,
    matrix_to_json,
    parse_multipoly,
    parse_point,
    parse_rootset,
    parse_system,
    parse_unipoly,
    point_to_json,
    scalar_to_str,
    unipoly_to_json,
)
from .subresultants import sres_coeff, sylv_double_sum
from .unipoly import UniPoly
from .verify import mv_checks, resolved_groups, univariate_checks

__all__ = ["main"]


# One decoder for every flag value; json.loads with a keyword builds a new one per call.
_DECODER = json.JSONDecoder(parse_int=functools.partial(_within_digit_limit, int))


def _load(value: str):
    """Decode a flag value: inline JSON, or @path to a UTF-8 JSON file."""
    if value.startswith("@"):
        path = value[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as ex:  # ValueError: undecodable bytes, a NUL in the path
            raise DomainError("cannot read %s: %s" % (path, ex)) from None
    else:
        text = value
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as ex:
        raise DomainError(
            "malformed JSON at line %d column %d: %s" % (ex.lineno, ex.colno, ex.msg)
        ) from None
    except RecursionError:
        raise DomainError("malformed JSON: arrays or objects nested too deeply") from None


def _pair(args):
    """The root sets --A and --B."""
    return parse_rootset(_load(args.A)), parse_rootset(_load(args.B))


def _system_document(args) -> SystemDocument:
    doc = parse_system(_load(args.system))
    t = args.t if args.t is not None else doc.t
    s_cols = doc.s_cols
    if getattr(args, "S", None) is not None:
        raw = _load(args.S)
        if not isinstance(raw, list):
            raise DomainError("--S must be an array of exponent vectors")
        s_cols = tuple(_exponent_vector(g, doc.system.n) for g in raw)
    return SystemDocument(doc.system, t, s_cols, doc.roots, doc.t_override)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (document, exit_status)

def _cmd_coeffs(args):
    f = parse_unipoly(_load(args.f))
    g = parse_unipoly(_load(args.g))
    return unipoly_to_json(sres_coeff(f, g, args.t)), 0


def _cmd_pair(args):
    """Serves `roots`, `hermite`, `one` and `dsum`: the command's route on --A and --B."""
    return unipoly_to_json(args.route(*_pair(args), args)), 0


def _cmd_wronskian(args):
    """Also serves `vandermonde`: the confluent Vandermonde matrix is the Wronskian of 1."""
    a = parse_rootset(_load(args.A))
    h = parse_unipoly(_load(args.h)) if args.h is not None else UniPoly([1])
    u = args.u if args.u is not None else a.total
    m = wronskian(h, a, u)
    doc = {"matrix": matrix_to_json(m)}
    if m.nrows == m.ncols:
        doc["det"] = scalar_to_str(det_exact(m))
    return doc, 0


def _cmd_mv(args):
    doc = _system_document(args)
    if doc.t is None:
        raise DomainError("fix t with -t or a \"t\" entry in the system document")
    if doc.s_cols is None:
        raise DomainError("fix S with --S or an \"S\" entry in the system document")
    if args.route == "macaulay":
        value = delta_s(doc.system, doc.t, doc.s_cols)
    else:
        sets = build_monomial_sets(doc.system.degrees, doc.t, doc.t_override)
        groups = resolved_groups(doc)
        basis = assemble_dual_basis(groups, expected_total=sets.combinatorics.bezout)
        value = poisson_delta(doc.system, doc.t, doc.s_cols, basis, sets=sets)
    return scalar_to_str(value), 0


def _cmd_dual(args):
    raw = _load(args.generators)
    if not isinstance(raw, list) or not raw:
        raise DomainError("--generators must be a nonempty array of polynomial documents")
    point = parse_point(_load(args.point))
    generators = [parse_multipoly(rec, point.n) for rec in raw]
    result = inverse_system(generators, point, order_bound=args.order_bound)
    doc = {
        "point": point_to_json(point),
        "dimension": result.dimension,
        "order": result.order_stabilized,
        "truncated": result.truncated,
        "functionals": [functional_to_json(f) for f in result.functionals],
    }
    return doc, 0


def _cmd_verify(args):
    if args.system is not None:
        if args.A is not None or args.B is not None:
            raise DomainError("pass either --system or the pair --A/--B, not both")
        checks = mv_checks(_system_document(args))
    else:
        if args.A is None or args.B is None:
            raise DomainError("pass either --system or the pair --A/--B")
        if args.t is not None or args.S is not None:
            raise DomainError("-t and --S apply to --system only")
        checks = univariate_checks(*_pair(args))
    ok = all(c.ok for c in checks)
    doc = {
        "ok": ok,
        "checks": [
            {"name": c.name, "ok": c.ok} | ({} if c.ok else {"detail": c.detail})
            for c in checks
        ],
    }
    return doc, 0 if ok else 1


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The ``sres`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sres",
        description="Exact subresultants from coefficients and from roots, cross-checked.",
    )
    backend = type(Rat(0))
    parser.add_argument(
        "--version",
        action="version",
        version="sres %s (rational backend: %s.%s)"
        % (__version__, backend.__module__, backend.__qualname__),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="subresultant from coefficient determinants")
    p.add_argument("--f", required=True, help="ascending coefficients of f (JSON or @file)")
    p.add_argument("--g", required=True, help="ascending coefficients of g (JSON or @file)")
    p.add_argument("-t", type=int, required=True, help="subresultant order")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("roots", help="subresultant from root-side determinant formulas")
    p.add_argument("--A", required=True, help="root set of f as [[root, mult], ...]")
    p.add_argument("--B", required=True, help="root set of g as [[root, mult], ...]")
    p.add_argument("-t", type=int, required=True, help="subresultant order")
    p.add_argument("--variant", choices=VARIANTS, default="compact")
    # Each route names its function at call time, so a function patched in this
    # module's namespace (a tracer, a test) is the one that runs.
    p.set_defaults(func=_cmd_pair, route=lambda a, b, o: sres_roots(a, b, o.t, o.variant))

    p = sub.add_parser("hermite", help="order d-1 subresultant as a Hermite interpolant")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.set_defaults(func=_cmd_pair, route=lambda a, b, o: sres_dm1_hermite(a, b))

    p = sub.add_parser("one", help="order 1 subresultant in closed form")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.set_defaults(func=_cmd_pair, route=lambda a, b, o: sres_one(a, b))

    p = sub.add_parser("dsum", help="Sylvester-type double sum over subset pairs")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("-p", type=int, required=True, help="subset size taken from A")
    p.add_argument("-q", type=int, required=True, help="subset size taken from B")
    p.set_defaults(func=_cmd_pair, route=lambda a, b, o: sylv_double_sum(a, b, o.p, o.q))

    p = sub.add_parser("vandermonde", help="confluent Vandermonde matrix of a root set")
    p.add_argument("--A", required=True)
    p.add_argument("-u", type=int, default=None, help="row count (default: total multiplicity)")
    p.set_defaults(func=_cmd_wronskian, h=None)

    p = sub.add_parser("wronskian", help="generalized Wronskian matrix of z^k h at a root set")
    p.add_argument("--A", required=True)
    p.add_argument("--h", default=None, help="ascending coefficients of h (default: 1)")
    p.add_argument("-u", type=int, default=None, help="row count (default: total multiplicity)")
    p.set_defaults(func=_cmd_wronskian)

    p = sub.add_parser("mv", help="multivariate subresultant of a system document")
    p.add_argument("--system", required=True, help="system document (JSON or @file)")
    p.add_argument("-t", type=int, default=None, help="matrix degree (overrides the document)")
    p.add_argument("--S", default=None, help="deleted monomials (overrides the document)")
    p.add_argument(
        "--route",
        choices=("macaulay", "poisson"),
        default="macaulay",
        help="coefficient-side matrix quotient, or root-side dual-basis quotient",
    )
    p.set_defaults(func=_cmd_mv)

    p = sub.add_parser("dual", help="inverse system (local dual space) at a point")
    p.add_argument("--generators", required=True, help="array of polynomial documents")
    p.add_argument("--point", required=True, help="common root as an array of coordinates")
    p.add_argument("--order-bound", type=int, default=None)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run the cross-check battery on one input")
    p.add_argument("--A", default=None)
    p.add_argument("--B", default=None)
    p.add_argument("--system", default=None)
    p.add_argument("-t", type=int, default=None)
    p.add_argument("--S", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        document, status = args.func(args)
    except DomainError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except StructuralError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 3
    except Exception as ex:
        print("error: internal: %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return 4
    sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
