"""Subresultants straight from the roots and multiplicities.

Three determinant shapes give the order-t subresultant of the monic
polynomials behind two root sets A and B (total multiplicities d <= e):

- ``compact``: (d+1) rows; a confluent Vandermonde block of A bordered by
  the column (1, x, ..., x^t), on top of a Wronskian block of g over A.
- ``block``: (d+e+1) rows pairing Vandermonde blocks of A and B with the
  same border column.
- ``wronskian-full``: (d+e) rows; a Wronskian block of (x - z) over A on
  top of paired Vandermonde blocks.

In ``compact`` and ``block`` only the border column depends on x, and it
is sum_k x^k e_k over the unit columns of the top t+1 rows, so the
coefficient of x^k is the cofactor of the border's entry in row k.
``det_bordered`` takes all t+1 cofactors in one elimination of the x-free
columns.  In ``wronskian-full`` x sits in t rows, row k being
x V_k - V_(k+1) over A; that layout keeps the evaluation route as an
independent check on the other two.  ``det_in_x`` eliminates the
Vandermonde columns, free of x, once, finishes that elimination at
x = 0, 1, ..., t from the t x t block left over, and interpolates.  x
never enters the scalar domain, so roots may carry any parameter names.  Each
coefficient is divided by the closed-form Vandermonde determinants, a
division that is exact by construction.  The Vandermonde and Wronskian
blocks come from each root set's one integral table (``confluent``), so
every matrix is built of ints, or of integer-coefficient ``ParamPoly``s
for parameter roots, with a known scale per row: q^k on Vandermonde row k
of a set whose denominators have lcm q, its unit border entry included;
l^k, l = lcm(q_A, q_B), on the rows that pair A with B; G q^(deg g + k) on
Wronskian row k, G the common denominator of g's coefficients; and
q^(k+1) on both parts of row k of W(x - z, A).  The product of the row
scales joins the Vandermonde determinants in the divisor ``den``.

Two closed-form specializations avoid determinants entirely: the order
d-1 subresultant is the Hermite interpolant of g on A, from the Taylor
data of g at A (row 0 of its Wronskian), and the order-1 subresultant is
an explicit weighted sum over the roots, its weights one truncated
product of per-slot series (``confluent._pole_weights``).  Both divide by
differences of roots within A and refuse a division they cannot do exactly.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Tuple

from .confluent import (
    _pole_weights,
    _root,
    _vandermonde_rows,
    _wronskian_rows,
    hermite_interpolate,
    vandermonde_det_closed,
)
from .errors import DomainError
from .matrix import det_bordered, det_in_x
from .rootsets import MultiRootSet, pairing_R, poly_from_roots
from .scalar import Rat, _quotient
from .subresultants import _check_t
from .unipoly import UniPoly

VARIANTS = ("compact", "block", "wronskian-full")


def sres_roots(a: MultiRootSet, b: MultiRootSet, t: int, variant: str = "compact") -> UniPoly:
    """Order-t subresultant of the monic polynomials with roots A and B."""
    if variant not in VARIANTS:
        raise DomainError("unknown variant %r; pick one of %s" % (variant, ", ".join(VARIANTS)))
    d, e = a.total, b.total
    _check_t(d, e, t)
    if variant == "compact":
        return _sres_compact(a, b, t)
    if variant == "block":
        return _sres_block(a, b, t)
    return _sres_wronskian_full(a, b, t)


def _sres_compact(a: MultiRootSet, b: MultiRootSet, t: int) -> UniPoly:
    d = a.total
    v, q = _vandermonde_rows(a, t + 1)
    w, scales = _wronskian_rows(poly_from_roots(b), a, d - t)
    rows = [v[k] + _border(k, q**k, t) for k in range(t + 1)]
    rows += [row + [0] * (t + 1) for row in w]
    scale = prod(q**k for k in range(t + 1)) * prod(scales)
    det = det_bordered(rows, vandermonde_det_closed(a) * scale)
    return -det if (d - t) % 2 else det


def _sres_block(a: MultiRootSet, b: MultiRootSet, t: int) -> UniPoly:
    d, e = a.total, b.total
    u = d + e - t
    v, q = _vandermonde_rows(a, t + 1)
    bottom, scale = _paired(a, b, u)
    rows = [v[k] + [0] * e + _border(k, q**k, t) for k in range(t + 1)]
    rows += [row + [0] * (t + 1) for row in bottom]
    scale *= prod(q**k for k in range(t + 1))
    det = det_bordered(rows, vandermonde_det_closed(a) * vandermonde_det_closed(b) * scale)
    return -det if e % 2 or (d - t) % 2 else det


def _border(k: int, s: int, t: int) -> list:
    """Row k of the border columns e_0, ..., e_t, its unit scaled by s: the
    border (1, x, ..., x^t, 0, ..., 0) is sum_k x^k e_k."""
    return [0] * k + [s] + [0] * (t - k)


def _paired(a: MultiRootSet, b: MultiRootSet, u: int) -> Tuple[list, int]:
    """(rows, scale): rows k < u of the confluent Vandermonde blocks of A
    and B side by side, row k scaled by l^k, l the lcm of the two tables'
    q, and the product of these row scales."""
    va, qa = _vandermonde_rows(a, u)
    vb, qb = _vandermonde_rows(b, u)
    l = lcm(qa, qb)
    ra, rb = l // qa, l // qb
    # A table row is shared: it is taken as it is where its scale is 1.
    rows = [
        (va[k] if ra == 1 else [ra**k * x for x in va[k]])
        + (vb[k] if rb == 1 else [rb**k * x for x in vb[k]])
        for k in range(u)
    ]
    return rows, prod(l**k for k in range(u))


def _sres_wronskian_full(a: MultiRootSet, b: MultiRootSet, t: int) -> UniPoly:
    d, e = a.total, b.total
    u = d + e - t
    v, q = _vandermonde_rows(a, t + 1)
    bottom, scale = _paired(a, b, u)
    zero_b = [0] * e
    # Row k of W(x - z, A) is x V_k - V_(k+1), as z^k (x - z) = x z^k - z^(k+1);
    # both parts share the row scale q^(k+1).
    p = [[q * x for x in v[k]] + zero_b for k in range(t)]
    r = [v[k + 1] + zero_b for k in range(t)]
    scale *= prod(q ** (k + 1) for k in range(t))
    det = det_in_x(p, r, bottom, vandermonde_det_closed(a) * vandermonde_det_closed(b) * scale)
    return -det if ((d - t) * e) % 2 else det


def sres_dm1_hermite(a: MultiRootSet, b: MultiRootSet) -> UniPoly:
    """Order d-1 subresultant: the Hermite interpolant of g on A.

    Needs d <= e; the Taylor data is row 0 of g's Wronskian over A.  With
    a single root this is the Taylor expansion of g at that root truncated
    below order d.
    """
    d, e = a.total, b.total
    if d > e:
        raise DomainError("need total multiplicity of A at most that of B (d <= e)")
    (row,), (scale,) = _wronskian_rows(poly_from_roots(b), a, 1)
    keys = [(i, j) for i, (_, d_i) in enumerate(a, start=1) for j in range(d_i)]
    return hermite_interpolate(a, {key: _quotient(v, scale) for key, v in zip(keys, row)})


def sres_one(a: MultiRootSet, b: MultiRootSet) -> UniPoly:
    """Order-1 subresultant as a weighted sum over the roots of A.

    Needs 1 < d <= e and disjoint root sets.  Each root alpha_i
    contributes (x - alpha_i) S_1 + [d_i > 1] S_0, where S_1 and S_0 are
    the pole weights of orders d_i - 1 and d_i - 2 of alpha_i
    (``_pole_weights``) over the roots of B and the other roots of A.
    The roots of B carry p = e_l (d_i - 1), which folds g(alpha_i)^(d_i-1)
    into every weight and keeps its divisions exact for symbolic roots.
    The contribution is scaled by prod_{j != i} g(alpha_j)^(d_j), which is
    ``pairing_R`` of the other roots of A against B, over f_i(alpha_i).
    A division of the weights or of the scale that leaves a remainder,
    possible only where parameter roots of A differ by a non-constant, is
    refused.
    """
    d, e = a.total, b.total
    if not 1 < d <= e:
        raise DomainError("need 1 < d <= e for the order-1 closed form")
    for alpha, _ in a:
        for beta, _ in b:
            if alpha == beta:
                raise DomainError("root sets must be disjoint, %s is shared" % (alpha,))
    total = UniPoly.zero()
    for i, (alpha_i, d_i) in enumerate(a, start=1):
        others = a.pairs[: i - 1] + a.pairs[i:]
        slots = [(beta, e_l, e_l * (d_i - 1)) for beta, e_l in b]
        slots += [(alpha, d_l, 0) for alpha, d_l in others]
        at = _root(a, i)[0]
        try:
            w = _pole_weights(alpha_i, slots, d_i)
            scale = pairing_R(others, b) / at
        except DomainError:
            raise DomainError(
                "the order-1 closed form divides by f_%d(%s) = %s; the roots within "
                "a set must differ by constants" % (i, alpha_i, at)
            ) from None
        s1, s0 = w[d_i - 1], (w[d_i - 2] if d_i > 1 else Rat(0))
        term = (UniPoly.root_factor(alpha_i) * s1 + UniPoly([s0])) * scale
        total = total - term if (d - d_i) % 2 else total + term
    return total
