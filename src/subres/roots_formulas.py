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
coefficient of x^k is the cofactor of the border's entry in row k.  In
``wronskian-full`` x sits in t rows, row k being x V_k - V_(k+1) over A;
that layout keeps the evaluation route as an independent check on the
other two.  x never enters the scalar domain, so roots may carry any
parameter names.

The matrices of one variant are nested across the orders.  With the
x-free block at the bottom moved to the top, order t takes the first
d - t (``compact``) or d + e - t rows of one fixed list, the Wronskian
rows of g over A or the paired Vandermonde rows, and below them rows
built from V_0..V_t of A.  So ``sres_roots_all`` gives every order from
one elimination (``matrix.det_orders``): the bottom rows are pivots in
turn, and after the pivots of order t the rows from V_0..V_t are all
that is left to finish that order, the border by one more elimination
of t steps, the x rows at x = 0, 1, ..., t and interpolated.
``sres_roots`` is the call for one order.  Each coefficient is divided
by the closed-form Vandermonde determinants, a division that is exact
by construction.  The Vandermonde and Wronskian rows come from each root
set's one integral table (``confluent``), so every matrix is built of
ints, or of integer-coefficient ``ParamPoly``s for parameter roots, with
a known scale per row: q^k on Vandermonde row k of a set whose
denominators have lcm q, its unit border entry included; l^k,
l = lcm(q_A, q_B), on the rows that pair A with B; G q^(deg g + k) on
Wronskian row k, G the common denominator of g's coefficients; and
q^(k+1) on both parts of row k of W(x - z, A).  The product of the
scales of the rows an order takes joins the Vandermonde determinants in
its divisor.

Two closed-form specializations avoid determinants entirely: the order
d-1 subresultant is the Hermite interpolant of g on A, from the Taylor
data of g at A (row 0 of its Wronskian), and the order-1 subresultant is
an explicit weighted sum over the roots.  Both rest on the pole weights
of a root of A over the other roots, one truncated product of per-slot
series on integer numerators (``confluent._pole_numerators``), and run
on integer numerators throughout: the interpolant takes the integral
Taylor row with its scale as it is (``confluent._interpolate``) and the
Hermite basis on the set's own table numerators, and the order-1 sum
reads the roots of A and B once over one common denominator and is
reduced once.  Both divide by differences of roots within A, and one
step divides a parameter denominator exactly or refuses the division
(``confluent._exact_weights``).
"""

from __future__ import annotations

from math import lcm, prod
from typing import Dict, Iterable, Optional

from .confluent import (
    _exact_weights,
    _interpolate,
    _pole_numerators,
    _vandermonde_rows,
    _wronskian_rows,
    vandermonde_det_closed,
)
from .errors import DomainError
from .matrix import det_orders
from .rootsets import MultiRootSet, poly_from_roots
from .scalar import _numerators
from .subresultants import _check_t, _valid_orders
from .unipoly import UniPoly

VARIANTS = ("compact", "block", "wronskian-full")


def sres_roots(a: MultiRootSet, b: MultiRootSet, t: int, variant: str = "compact") -> UniPoly:
    """Order-t subresultant of the monic polynomials with roots A and B:
    the one-order call of ``sres_roots_all``."""
    return sres_roots_all(a, b, variant, (t,))[t]


def sres_roots_all(
    a: MultiRootSet,
    b: MultiRootSet,
    variant: str = "compact",
    orders: Optional[Iterable[int]] = None,
) -> Dict[int, UniPoly]:
    """Subresultants of the monic polynomials with roots A and B, by order,
    for each t in ``orders`` (by default every t allowed, ``_valid_orders``),
    all from one layout of the variant and one elimination (``det_orders``).

    The bottom rows come first: the Wronskian rows of g over A for
    ``compact`` (w = d columns), the paired Vandermonde rows of A and B for
    ``block`` and ``wronskian-full`` (w = d + e columns).  Order t takes
    the first s = w - t of them and, from the Vandermonde rows V_0..V_t of
    A, either the bordered rows or the t rows x V_k - V_(k+1) of
    W(x - z, A).  Moving the s bottom rows above the others multiplies the
    variant's sign by (-1)^(s (t+1)), or (-1)^(s t) for ``wronskian-full``.
    The divisor is the Vandermonde determinants times the scales of the
    rows that order takes.
    """
    if variant not in VARIANTS:
        raise DomainError("unknown variant %r; pick one of %s" % (variant, ", ".join(VARIANTS)))
    d, e = a.total, b.total
    orders = list(_valid_orders(d, e) if orders is None else orders)
    for t in orders:
        _check_t(d, e, t)
    if not orders:
        return {}
    low, high = min(orders), max(orders)
    v, q = _vandermonde_rows(a, high + 1)
    top = v[: high + 1]
    if variant == "compact":
        w = d
        bottom, scales = _wronskian_rows(poly_from_roots(b), a, w - low)
        vdet = vandermonde_det_closed(a)
    else:
        w = d + e
        va, qa = _vandermonde_rows(a, w - low)
        vb, qb = _vandermonde_rows(b, w - low)
        l = lcm(qa, qb)
        ra, rb = l // qa, l // qb
        # Row k pairs V_k of A and of B, scaled by l^k.  A table row is
        # shared: it is taken as it is where its scale is 1.
        bottom = [
            (va[k] if ra == 1 else [ra**k * x for x in va[k]])
            + (vb[k] if rb == 1 else [rb**k * x for x in vb[k]])
            for k in range(w - low)
        ]
        scales = [l**k for k in range(w - low)]
        top = [row + [0] * e for row in top]
        vdet = vandermonde_det_closed(a) * vandermonde_det_closed(b)
    dens = {}
    for t in orders:
        s = w - t
        # The variant's sign, then the sign of moving the s bottom rows up.
        if variant == "wronskian-full":
            # Row k of W(x - z, A) is x V_k - V_(k+1), as z^k (x - z) = x z^k -
            # z^(k+1); both parts share the row scale q^(k+1).
            flip = ((d - t) * e + s * t) % 2
            scale = prod(q ** (k + 1) for k in range(t))
        else:
            # Row k of the border (1, x, ..., x^t) shares the row scale q^k.
            own = (d - t) % 2 or (variant == "block" and e % 2)
            flip = bool(own) != bool(s * (t + 1) % 2)
            scale = prod(q**k for k in range(t + 1))
        den = scale * prod(scales[:s])
        dens[t] = vdet * (-den if flip else den)
    if variant == "wronskian-full":
        return det_orders(bottom, top, dens, c=q)
    return det_orders(bottom, top, dens, borders=[q**k for k in range(high + 1)])


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
    return _interpolate(a, zip(keys, row), scale)


def sres_one(a: MultiRootSet, b: MultiRootSet) -> UniPoly:
    """Order-1 subresultant as a weighted sum over the roots of A.

    Needs 1 < d <= e and disjoint root sets.  Each root alpha_i
    contributes (x - alpha_i) S_1 + [d_i > 1] S_0, where S_1 and S_0 are
    the pole weights of orders d_i - 1 and d_i - 2 of alpha_i
    (``_pole_numerators``) over the roots of B and the other roots of A.
    The roots of B carry p = e_l (d_i - 1), which folds g(alpha_i)^(d_i-1)
    into every weight and keeps its divisions exact for symbolic roots;
    the other roots of A carry p = -d_l, which divides every weight by
    f_i(alpha_i).  The contribution is scaled by
    prod_{j != i} g(alpha_j)^(d_j), ``pairing_R`` of the other roots of A
    against B.

    All of it runs on the roots' numerators x / q over one q: with
    G_l = q^e g(alpha_l), the contribution of alpha_i has integer
    numerators over q^(1 + e (d - d_i)) times the weights' denominator.
    The contributions are summed over the lcm of their denominators and
    reduced once.  A parameter denominator divides its contribution
    exactly first, or is refused (``_exact_weights``).
    """
    d, e = a.total, b.total
    if not 1 < d <= e:
        raise DomainError("need 1 < d <= e for the order-1 closed form")
    for alpha, _ in a:
        for beta, _ in b:
            if alpha == beta:
                raise DomainError("root sets must be disjoint, %s is shared" % (alpha,))
    nums, q = _numerators(a.roots + b.roots)
    xs, ys = nums[: a.m], nums[a.m :]
    gs = [prod((x - y) ** e_l for y, e_l in zip(ys, b.mults)) for x in xs]
    parts = []
    for i, (x_i, d_i) in enumerate(zip(xs, a.mults)):
        others = [l for l in range(a.m) if l != i]
        slots = [(x_i - y, e_l, e_l * (d_i - 1)) for y, e_l in zip(ys, b.mults)]
        slots += [(x_i - xs[l], a.mults[l], -a.mults[l]) for l in others]
        w, den = _pole_numerators(slots, q, d_i)
        s1, s0 = w[d_i - 1], (w[d_i - 2] if d_i > 1 else 0)
        scale = prod(gs[l] ** a.mults[l] for l in others)
        if (d - d_i) % 2:
            scale = -scale
        num = [(q * s0 - x_i * s1) * scale, q * s1 * scale]
        den = den * q ** (1 + e * (d - d_i))
        parts.append(_exact_weights(num, den, "order-1 closed form", a, i + 1))
    big = lcm(*(den for _, den in parts))
    total = [0, 0]
    for num, den in parts:
        total = [acc + v * (big // den) for acc, v in zip(total, num)]
    return UniPoly.from_integers(total, big)
