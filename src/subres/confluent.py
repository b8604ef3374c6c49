"""Confluent Vandermonde matrices, generalized Wronskians, Hermite bases.

Root sets carry multiplicities, so the usual Vandermonde rows fan out into
blocks of derivative columns.  Everything here is exact and works over
rational roots as well as parameter-polynomial roots where divisions stay
polynomial.  What depends on a root set alone is derived once and kept in
the set's store (``MultiRootSet._once``): the integral confluent
Vandermonde table, from which every Vandermonde or Wronskian matrix of
the set is read; the closed-form Vandermonde determinant, a product of
root differences (``rootsets.pairing_R``); per root
alpha_i, the product f_i of the other roots' factors, its value
f_i(alpha_i) and the chain (x - alpha_i)^k f_i, k < d_i; and the Hermite
basis, built from that chain.  The basis and the order-1 pole formula
(``roots_formulas``) take their pole weights from one truncated product
of per-slot series, in any slot order (``_pole_weights``).

The table has no rational entries.  With q the lcm of the roots'
denominators (a ``ParamPoly`` root has one), its row k is q^k V_k, ints
for rational roots and integer-coefficient ``ParamPoly``s for parameter
roots, and each row grows from the one above by an integer step
(``_times_z``).  The subresultant builders (``roots_formulas``) read
integral rows from it with known row scales.  The table is the
Wronskian of 1: ``_wronskian_rows`` of 1 are its own rows, so the
confluent Vandermonde matrix is ``wronskian`` of 1, which divides each
row back by its scale, and det V is ``wronskian_det`` of 1.  Row 0 of
the Wronskian of h is the Taylor data of h at A, the one place it is read
from: by the Hermite route (``roots_formulas``) for g, by
``confluent_inverse_holds`` for each Hermite basis polynomial and by
``vprime`` for each f_i.  ``wronskian_det`` divides its integral rows
once at the end; ``confluent_inverse_holds`` compares them with their
scales, and divides them back only to show a product that is not the
identity (``_inverse_mismatch``).
"""

from __future__ import annotations

from math import comb, prod
from typing import Mapping, Optional, Tuple

from .errors import DomainError
from .matrix import ExactMatrix, det_exact
from .rootsets import MultiRootSet, _monic, pairing_R
from .scalar import ParamPoly, Rat, Scalar, _numerators, _quotient
from .unipoly import UniPoly


def vandermonde_confluent(a: MultiRootSet, u: int) -> ExactMatrix:
    """u x d matrix; block i has columns binom(k,j) alpha_i^(k-j), j < d_i.

    This is the generalized Wronskian of the constant 1, read off the set's
    table rows.
    """
    return wronskian(UniPoly([1]), a, u)


def _vandermonde_rows(a: MultiRootSet, u: int) -> Tuple[list, int]:
    """(rows, q): at least u rows of the integral confluent Vandermonde
    table of A, grown once per root set and shared (callers must not
    change them), and q, the lcm of the roots' denominators.

    Row k is q^k V_k: block i, inner column j holds q^k times the
    coefficient of (z-alpha_i)^j in z^k, an int, or a ``ParamPoly`` with
    integer coefficients for a parameter root.  Row 0 is 1 on each block's
    first column, and each later row is ``_times_z`` of the one above.
    """
    rows, q, _ = a._once("vandermonde", _new_table)
    while len(rows) < u:
        rows.append(_times_z(rows[-1], a))
    return rows, q


def _new_table(a: MultiRootSet) -> tuple:
    """The table as stored: its rows, so far row 0; q; and the pairs
    (q alpha_i, d_i) that ``_times_z`` steps by."""
    nums, q = _numerators(a.roots)
    return [[1 if j == 0 else 0 for _, d in a for j in range(d)]], q, list(zip(nums, a.mults))


def _times_z(row: list, a: MultiRootSet) -> list:
    """The row of q z p from the row of p: as z p = (z-alpha) p + alpha p,
    the coefficient of (z-alpha)^j in q z p is q times that of
    (z-alpha)^(j-1) in p plus (q alpha) times that of (z-alpha)^j.  A zero
    entry is not multiplied, so int zeros stay ints."""
    _, q, roots = a._once("vandermonde", _new_table)
    out = []
    for qa, d in roots:
        block = row[len(out) : len(out) + d]
        out += [
            (q * block[j - 1] if j else 0) + (qa * block[j] if block[j] else 0)
            for j in range(d)
        ]
    return out


def vandermonde_det_closed(a: MultiRootSet) -> Scalar:
    """Product of (alpha_j - alpha_i)^(d_i d_j) over i < j, taken once per set."""
    return a._once("vdet", _vandermonde_det)


def _vandermonde_det(a: MultiRootSet) -> Scalar:
    """The product over j of ``pairing_R`` of root j against the roots
    before it."""
    pairs = a.pairs
    return prod(pairing_R(pairs[j : j + 1], pairs[:j]) for j in range(len(pairs)))


def wronskian(h: UniPoly, a: MultiRootSet, u: int) -> ExactMatrix:
    """u x d matrix of normalized derivatives of z^k h at the roots.

    Row k, block i, inner column j holds the coefficient of (z-alpha_i)^j
    in z^k h; the polynomial h may carry extra parameters in its
    coefficients.  Row k is row k of ``_wronskian_rows`` divided by its
    scale.
    """
    if not isinstance(u, int) or u < 0:
        raise DomainError("row count u must be a nonnegative int")
    rows, scales = _wronskian_rows(h, a, u)
    return ExactMatrix([[_quotient(v, s) for v in row] for row, s in zip(rows, scales)])


def _wronskian_rows(h: UniPoly, a: MultiRootSet, u: int) -> Tuple[list, list]:
    """(rows, scales): u integral rows, row k being scales[k] times row k
    of the Wronskian of h over A.

    The table is the Wronskian of 1: for h = 1 the rows are the table's
    first u rows themselves, shared (callers must not change them), with
    scales q^k.  Otherwise, with h = sum_m g_m z^m / G, the g_m integral,
    n = deg h and the set's table rows q^m V_m, row 0 is
    G q^n W_0 = sum_m g_m q^(n-m) (q^m V_m), and each later row is
    ``_times_z`` of the one above, which multiplies the scale by q.
    """
    g, big = h.numerators, h.denominator
    if big == 1 and g == (1,) and type(g[0]) is int:
        v, q = _vandermonde_rows(a, u)
        return v[:u], [q**k for k in range(u)]
    n = max(len(g) - 1, 0)
    v, q = _vandermonde_rows(a, len(g))
    terms = [(c * q ** (n - m), v[m]) for m, c in enumerate(g) if c]
    row = []
    for j in range(a.total):
        acc = 0
        for c, vm in terms:
            x = vm[j]
            if x:
                acc = acc + c * x
        row.append(acc)
    rows = []
    for k in range(u):
        if k:
            row = _times_z(row, a)
        rows.append(row)
    return rows, [big * q ** (n + k) for k in range(u)]


def wronskian_det(h: UniPoly, a: MultiRootSet) -> Scalar:
    """det of the square generalized Wronskian of h over A, eliminated on
    its integral rows (``_wronskian_rows``) and divided by their scales.
    Of h = 1 it is det V(A), read off the set's table rows."""
    rows, scales = _wronskian_rows(h, a, a.total)
    return det_exact(ExactMatrix(rows)) / prod(scales)


def wronskian_det_closed(h: UniPoly, a: MultiRootSet) -> Scalar:
    """Closed form for the square case u = d: det V(A) times prod h(alpha_i)^d_i."""
    return vandermonde_det_closed(a) * prod(h(alpha) ** d for alpha, d in a)


def fiki(a: MultiRootSet, i: int, k: int) -> UniPoly:
    """(x - alpha_i)^k times prod_{j != i} (x - alpha_j)^(d_j); i is 1-based."""
    if not 1 <= i <= a.m:
        raise DomainError("root index i out of range (1-based)")
    if not isinstance(k, int) or not 0 <= k < a.pairs[i - 1][1]:
        raise DomainError("shift order k must satisfy 0 <= k < d_i")
    return _root(a, i)[1][k]


def _root(a: MultiRootSet, i: int) -> tuple:
    """(f_i(alpha_i), [f_i, (x - alpha_i) f_i, ..., (x - alpha_i)^(d_i-1) f_i])
    for the 1-based root i, with f_i = prod_{j != i} (x - alpha_j)^(d_j);
    built once per set."""
    return a._once(("root", i), _root_chain, i)


def _root_chain(a: MultiRootSet, i: int) -> tuple:
    alpha_i, d_i = a.pairs[i - 1]
    f = _monic(a.pairs[: i - 1] + a.pairs[i:])
    chain = [f]
    step = UniPoly.root_factor(alpha_i)
    while len(chain) < d_i:
        chain.append(chain[-1] * step)
    return f(alpha_i), chain


def _pole_weights(alpha: Scalar, slots, n: int) -> list:
    """w_k for k < n: the coefficient of y^k in the product over the slots
    (gamma, m, p) of sum_j s_j y^j, s_j = C(m-1+j, j) (alpha - gamma)^(p-j),
    that is the sum over compositions (k_l) of k of prod_l C(m_l-1+k_l, k_l)
    (alpha - gamma_l)^(p_l-k_l).  With every p = 0, w_k is (-1)^k F(alpha)
    times the coefficient of (x - alpha)^k in 1/F, F = prod_l (x - gamma_l)^m_l.

    Each slot's series is taken times (alpha - gamma)^(t-p), t = max(p, n-1),
    so that it never divides; their product, truncated below y^n and folded
    in any slot order, is divided once per weight by the product of those
    powers, exactly whenever the weight is a polynomial in the parameters.
    """
    w = [Rat(1)] + [Rat(0)] * (n - 1)
    den: Scalar = Rat(1)
    for gamma, m, p in slots:
        diff = alpha - gamma
        top = max(p, n - 1)
        if top > p:
            den = den * diff ** (top - p)
        s = [comb(m - 1 + j, j) for j in range(n)]
        for j in range(min(top, n)):
            s[j] = s[j] * diff ** (top - j)
        for k in range(n - 1, -1, -1):
            acc = w[k] * s[0]
            for j in range(1, k + 1):
                acc = acc + w[k - j] * s[j]
            w[k] = acc
    return [v / den for v in w]


def basic_hermite(a: MultiRootSet, i: int, j: int) -> UniPoly:
    """The interpolation basis polynomial dual to the (i, j) Taylor datum.

    Degree is below the total multiplicity d, and its coefficient of
    (x-alpha_r)^s at each root alpha_r is 1 exactly at (r, s) = (i, j).
    Index i is 1-based, j counts derivative order from 0.
    """
    if not 1 <= i <= a.m:
        raise DomainError("root index i out of range (1-based)")
    d_i = a.pairs[i - 1][1]
    if not 0 <= j < d_i:
        raise DomainError("derivative order j must satisfy 0 <= j < d_i")
    return _hermite_row(a, i)[j]


def _hermite_row(a: MultiRootSet, i: int) -> list:
    """The basis polynomials (i, j), j < d_i, of the 1-based root i, built
    once per set (``_hermite_basis``)."""
    return a._once(("hermite", i), _hermite_basis, i)


def _hermite_basis(a: MultiRootSet, i: int) -> list:
    """Basis polynomial (i, j) is sum_k (-1)^k w_k (x-alpha_i)^(j+k) f_i / f_i(alpha_i)
    over k < d_i - j, w_k the pole weights of alpha_i over the other roots
    (``_pole_weights``, p = 0): f_i times the expansion of 1/f_i at alpha_i
    truncated below order d_i - j.  Every term is read from the root's one
    chain of (x - alpha_i) multiples of f_i.

    The division by f_i(alpha_i) and the weights' divisions by the root
    differences are exact only when those differences are constants, so a
    parameter set is refused up front otherwise.
    """
    at, chain = _root(a, i)
    if isinstance(at, ParamPoly) and not at.is_constant():
        raise DomainError(
            "the Hermite interpolant divides by f_%d(%s) = %s; the roots within "
            "a set must differ by constants" % (i, a.pairs[i - 1][0], at)
        )
    alpha_i, d_i = a.pairs[i - 1]
    others = [(alpha, d, 0) for idx, (alpha, d) in enumerate(a, start=1) if idx != i]
    weights = _pole_weights(alpha_i, others, d_i)
    row = []
    for j in range(d_i):
        out = UniPoly.zero()
        for k in range(d_i - j):
            if weights[k]:
                term = chain[j + k] * weights[k]
                out = out - term if k % 2 else out + term
        row.append(out / at)
    return row


def hermite_interpolate(a: MultiRootSet, data: Mapping[Tuple[int, int], Scalar]) -> UniPoly:
    """Unique polynomial of degree < d matching the given Taylor data.

    ``data`` maps (i, j) with 1-based root index i and 0 <= j < d_i to the
    coefficient of (x-alpha_i)^j required at that root; the key set must
    cover exactly those pairs.
    """
    wanted = {(i, j) for i in range(1, a.m + 1) for j in range(a.pairs[i - 1][1])}
    got = set(data)
    if got != wanted:
        raise DomainError(
            "interpolation data must cover exactly the (root, order) pairs; "
            "missing %s, extra %s" % (sorted(wanted - got), sorted(got - wanted))
        )
    out = UniPoly.zero()
    for (i, j), y in data.items():
        if y:
            out = out + _hermite_row(a, i)[j] * y
    return out


def confluent_inverse(a: MultiRootSet) -> ExactMatrix:
    """Inverse of the square confluent Vandermonde matrix.

    Row (i, j) holds the monomial coefficients of the basis polynomial
    dual to the (i, j) datum, so the product with vandermonde_confluent(A, d)
    is the identity.
    """
    d = a.total
    rows = []
    for i in range(1, a.m + 1):
        for p in _hermite_row(a, i):
            rows.append([p.coeff(k) for k in range(d)])
    return ExactMatrix(rows)


def confluent_inverse_holds(a: MultiRootSet) -> bool:
    """Whether ``confluent_inverse`` times the square confluent
    Vandermonde matrix is the identity, tested on integers
    (``_inverse_mismatch``)."""
    return _inverse_mismatch(a) is None


def _inverse_mismatch(a: MultiRootSet) -> Optional[ExactMatrix]:
    """None when ``confluent_inverse`` times the square confluent
    Vandermonde matrix is the identity, else that product.

    Row r of the product is the Taylor data at A of basis polynomial r,
    row 0 of its Wronskian (``_wronskian_rows``), so the product is the
    identity exactly when that integral row is its scale at column r and 0
    elsewhere; otherwise the rows divided by their scales are returned.
    """
    rows = []
    for i in range(1, a.m + 1):
        for p in _hermite_row(a, i):
            (row,), (scale,) = _wronskian_rows(p, a, 1)
            rows.append((row, scale))
    if all(v == (s if c == r else 0) for r, (row, s) in enumerate(rows) for c, v in enumerate(row)):
        return None
    return ExactMatrix([[_quotient(v, s) for v in row] for row, s in rows])


def vprime(a: MultiRootSet) -> ExactMatrix:
    """Block-diagonal companion of the confluent Vandermonde matrix.

    Block i is upper-triangular Toeplitz in the normalized derivatives of
    f_i = prod_{j != i}(x - alpha_j)^(d_j) at alpha_i, block i of its
    Taylor data at A, so the determinant is the product of f_i(alpha_i)^(d_i).
    """
    d = a.total
    rows = [[Rat(0)] * d for _ in range(d)]
    offset = 0
    for i, (_, d_i) in enumerate(a, start=1):
        (row,), (scale,) = _wronskian_rows(_root(a, i)[1][0], a, 1)
        taylor = [_quotient(v, scale) for v in row[offset : offset + d_i]]
        for r in range(d_i):
            for c in range(r, d_i):
                rows[offset + r][offset + c] = taylor[c - r]
        offset += d_i
    return ExactMatrix(rows)
