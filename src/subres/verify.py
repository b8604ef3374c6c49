"""Cross-check batteries: every quantity computed two independent ways.

The univariate battery compares the coefficient-side determinant with all
root-side formulas on one pair of root sets; the multivariate battery
compares the Macaulay route with the dual-basis route on one system.  Both
return a list of named pass/fail records instead of raising on mismatch,
so callers can report every disagreement at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .confluent import (
    _inverse_mismatch,
    vandermonde_det_closed,
    wronskian_det,
    wronskian_det_closed,
)
from .errors import DomainError
from .mv.duality import assemble_dual_basis, inverse_system
from .mv.hilbert import build_monomial_sets
from .mv.macaulay import _det, _divide_out, _macaulay, extraneous_factor
from .mv.poisson import SINGULAR_V_T, _poisson
from .roots_formulas import VARIANTS, sres_dm1_hermite, sres_one, sres_roots_all
from .rootsets import MultiRootSet, pairing_R, poly_from_roots
from .scalar import Rat, _quotient
from .serialize import SystemDocument
from .subresultants import _valid_orders, sres_coeff, sylv_double_sum, sylvester_identity_scale
from .unipoly import UniPoly

__all__ = [
    "Check",
    "univariate_checks",
    "mv_checks",
    "resolved_groups",
    "random_rootset",
    "random_pair",
]


def resolved_groups(doc: SystemDocument):
    """Per-root functional groups, computing missing duals from the root.

    Each document root either carries its dual functionals or just the
    point; in the latter case the inverse system of the first n
    polynomials at that point fills the group in, with the basis its
    integration found (``InverseSystemResult.primitive``), led by the
    evaluation.  The Poisson quotient does not depend on the basis, so
    the canonical form is never built here, and a point whose canonical
    basis needs a division such as 1/a is not refused.
    """
    if doc.roots is None:
        raise DomainError("the system document carries no root data")
    groups = []
    for point, dual in doc.roots:
        if dual is None:
            result = inverse_system(doc.system.polys[:-1], point)
            if result.truncated:
                raise DomainError(
                    "inverse system at %s did not stabilize below the order bound" % (point,)
                )
            dual = result.primitive
        groups.append((point, tuple(dual)))
    return groups


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _record(checks: List[Check], name: str, ok: bool, detail: str = "") -> None:
    checks.append(Check(name, bool(ok), "" if ok else detail))


def _match(checks: List[Check], name: str, got, want) -> None:
    """Record got == want; both values are spelled out only on a mismatch."""
    ok = got == want
    _record(checks, name, ok, "" if ok else "got %s, want %s" % (got, want))


# det V(A) is the generalized Wronskian determinant of 1.
_ONE = UniPoly([1])


def univariate_checks(a: MultiRootSet, b: MultiRootSet) -> List[Check]:
    """Compare coefficient-side and root-side formulas on one pair.

    The pair is oriented so that deg f <= deg g; every cross-check that the
    preconditions allow is run, and each becomes one named record.
    """
    if a.total > b.total:
        a, b = b, a
    d, e = a.total, b.total
    f, g = poly_from_roots(a), poly_from_roots(b)
    checks: List[Check] = []
    coeff_side = {t: sres_coeff(f, g, t) for t in _valid_orders(d, e)}
    root_side = {variant: sres_roots_all(a, b, variant) for variant in VARIANTS}

    for t, want in coeff_side.items():
        for variant in VARIANTS:
            _match(
                checks,
                "t=%d %s matches coefficient determinant" % (t, variant),
                root_side[variant][t],
                want,
            )

    _match(
        checks,
        "t=d-1 Hermite interpolant matches coefficient determinant",
        sres_dm1_hermite(a, b),
        coeff_side[d - 1],
    )

    resultant = pairing_R(a, b)
    if resultant and d >= 2:
        _match(
            checks,
            "t=1 pole formula matches coefficient determinant",
            sres_one(a, b),
            coeff_side[1],
        )

    # The order-0 coefficient determinant is the resultant.
    _match(
        checks,
        "resultant matches the root-difference product",
        coeff_side[0].coeff(0),
        resultant,
    )

    for name, rs in (("A", a), ("B", b)):
        _match(
            checks,
            "confluent Vandermonde determinant of %s matches closed form" % name,
            wronskian_det(_ONE, rs),
            vandermonde_det_closed(rs),
        )
    _match(
        checks,
        "generalized Wronskian determinant matches closed form",
        wronskian_det(g, a),
        wronskian_det_closed(g, a),
    )
    product = _inverse_mismatch(a)
    _record(
        checks,
        "basic Hermite coefficients invert the confluent Vandermonde",
        product is None,
        "" if product is None else "product %s" % product.pretty(),
    )

    if all(m == 1 for _, m in a) and all(m == 1 for _, m in b) and resultant:
        for t, want in coeff_side.items():
            for p in range(0, min(t, d) + 1):
                q = t - p
                sign, scale = sylvester_identity_scale(d, t, p)
                _match(
                    checks,
                    "double sum (p=%d,q=%d) matches scaled subresultant" % (p, q),
                    sylv_double_sum(a, b, p, q),
                    want * (sign * scale),
                )
    return checks


def mv_checks(doc: SystemDocument) -> List[Check]:
    """Compare the Macaulay route with the dual-basis route on one system.

    Needs t and S in the document; when root/dual data is present the
    Poisson-style quotient is compared against the Macaulay quotient, with
    missing dual groups filled in by the inverse-system solver.
    """
    if doc.t is None:
        raise DomainError("the system document must fix t for the cross-check battery")
    if doc.s_cols is None:
        raise DomainError("the system document must fix S for the cross-check battery")
    sys, t, s_cols = doc.system, doc.t, doc.s_cols
    checks: List[Check] = []

    sets = build_monomial_sets(sys.degrees, t, doc.t_override)
    combo = sets.combinatorics
    _record(
        checks,
        "|T| equals the degree product",
        len(sets.T) == combo.bezout,
        "|T|=%d, product=%d" % (len(sets.T), combo.bezout),
    )

    rows, scales = _macaulay(sys, t, s_cols)
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    _record(checks, "subresultant matrix is square", nrows == ncols, "%dx%d" % (nrows, ncols))
    det = _det(rows, scales)
    e_factor = extraneous_factor(sys, t)
    delta = _divide_out(det, e_factor)
    ok = det == e_factor * delta
    _record(
        checks,
        "determinant splits as extraneous factor times subresultant",
        ok,
        "" if ok else "det %s, E*delta %s" % (det, e_factor * delta),
    )

    if doc.roots is not None:
        basis = assemble_dual_basis(resolved_groups(doc), expected_total=combo.bezout)
        # Every L_j(f_i) from the evaluation that gives the quotient, tested
        # for zero on its numerator.
        quotient, (nums, row_dens, col_dens) = _poisson(
            sys, t, s_cols, basis, sets, sys.polys[:-1]
        )
        annihilated, witness = True, ""
        for j, func in enumerate(basis.functionals):
            for i, row in enumerate(nums):
                if row[j]:
                    annihilated = False
                    val = _quotient(row[j], row_dens[i] * col_dens[j])
                    witness = "functional %s on polynomial %d gives %s" % (func, i + 1, val)
        dims = [len(funcs) for _, funcs in basis.groups]
        _record(checks, "dual functionals annihilate the defining polynomials",
                annihilated, witness)
        _record(
            checks,
            "dual dimensions sum to the degree product",
            sum(dims) == combo.bezout,
            "dims %s, product %d" % (dims, combo.bezout),
        )
        if quotient is None:
            ok, detail = False, SINGULAR_V_T
        else:
            ok = quotient == delta or quotient == -delta
            detail = "poisson %s, macaulay %s" % (quotient, delta)
        _record(checks, "dual-basis quotient matches the Macaulay subresultant up to sign", ok,
                detail)
    return checks


# ---------------------------------------------------------------------------
# random inputs for the batteries

_POOL: Tuple = tuple(
    sorted(
        {Rat(num, den) for num in range(-9, 10) for den in range(1, 5)},
        key=lambda r: (r.numerator, r.denominator),
    )
)


def random_rootset(
    rng: random.Random,
    degree: int,
    max_mult: int = 3,
    avoid: Sequence = (),
) -> MultiRootSet:
    """A random rational root set of the given total degree.

    Multiplicities are drawn up to ``max_mult``; roots are distinct rationals
    outside ``avoid``.
    """
    if degree < 1:
        raise DomainError("degree must be positive")
    mults = []
    remaining = degree
    while remaining:
        m = rng.randint(1, min(max_mult, remaining))
        mults.append(m)
        remaining -= m
    candidates = [r for r in _POOL if all(r != av for av in avoid)]
    roots = rng.sample(candidates, len(mults))
    return MultiRootSet(list(zip(roots, mults)))


def random_pair(
    rng: random.Random,
    max_degree: int = 6,
    max_mult: int = 3,
    disjoint: bool = False,
    simple: bool = False,
) -> Tuple[MultiRootSet, MultiRootSet]:
    """A random pair (A, B) with deg A <= deg B, optionally disjoint/simple."""
    e = rng.randint(1, max_degree)
    d = rng.randint(1, e)
    mm = 1 if simple else max_mult
    a = random_rootset(rng, d, mm)
    b = random_rootset(rng, e, mm, avoid=[r for r, _ in a] if disjoint else ())
    return a, b
