"""Confluent Vandermonde matrices, generalized Wronskians, Hermite bases.

Root sets carry multiplicities, so the usual Vandermonde rows fan out into
blocks of derivative columns.  Everything here is exact and works over
rational roots as well as parameter-polynomial roots where divisions stay
polynomial.  What depends on a root set alone is derived once and kept in
the set's store (``MultiRootSet._once``): the integral confluent
Vandermonde table, from which every Vandermonde or Wronskian matrix of
the set is read; the closed-form Vandermonde determinant, a product of
root differences (``rootsets._difference_product``); per root alpha_i,
the chain (x - alpha_i)^k f_i, k < d_i, f_i the product of the other
roots' factors; and the Hermite basis, built from that chain.  The basis
and the order-1 pole formula (``roots_formulas``) take their pole
weights from one truncated product of per-slot series on integer
numerators, in any slot order (``_pole_numerators``), and read them back
through one step that divides a parameter denominator exactly or
refuses (``_exact_weights``).

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
from: by the Hermite route (``roots_formulas``) for g, by the inverse
check (``_inverse_mismatch``) for each Hermite basis polynomial and by
``vprime`` for each f_i.  ``wronskian_det`` divides its integral rows
once at the end; the inverse check compares them with their scales, and
divides them back only to show a product that is not the identity.

The closed forms run on integer numerators too.  Each reads the roots
once as numerators over one common denominator q (``_numerators``, or
the table's own), forms its products and series in ints, or in
integer-coefficient ``ParamPoly``s for parameter roots, and divides once
per value it returns: the root-difference products once per product,
``wronskian_det_closed`` once for the product of the h(alpha_i)^(d_i),
and the Hermite basis and interpolant once per polynomial, summing
numerators over the lcm of the denominators (``UniPoly.from_integers``);
the basis keeps the pole weights over their one denominator until then.
With p = -d_l on the other roots the weights are the Taylor
coefficients of 1/f_i themselves, so the basis never divides by
f_i(alpha_i) on its own.
"""

from __future__ import annotations

from math import comb, lcm, prod
from typing import Mapping, Optional, Tuple

from .errors import DomainError
from .matrix import ExactMatrix, det_exact
from .rootsets import MultiRootSet, _difference_product, _monic
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
    """The root-difference product (``rootsets._difference_product``) over
    every root j against the roots before it."""
    return _difference_product(a.pairs, [(j, i) for j in range(a.m) for i in range(j)])


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
    """Closed form for the square case u = d: det V(A) times prod h(alpha_i)^d_i.

    With h = sum_k g_k x^k / G of degree n and the roots x_i / q read from
    the set's table, h(alpha_i) is H_i = sum_k g_k x_i^k q^(n-k) over
    G q^n, so the product is that of the H_i^(d_i), divided once by
    (G q^n)^d.
    """
    g, big = h.numerators, h.denominator
    n = max(len(g) - 1, 0)
    _, q, roots = a._once("vandermonde", _new_table)
    coeffs = [c * q ** (n - k) for k, c in enumerate(g)]
    acc = 1
    for x, d in roots:
        v = 0
        for c in reversed(coeffs):
            v = v * x + c
        acc = acc * v**d
    return vandermonde_det_closed(a) * _quotient(acc, (big * q**n) ** a.total)


def fiki(a: MultiRootSet, i: int, k: int) -> UniPoly:
    """(x - alpha_i)^k times prod_{j != i} (x - alpha_j)^(d_j); i is 1-based."""
    if not 1 <= i <= a.m:
        raise DomainError("root index i out of range (1-based)")
    if not isinstance(k, int) or not 0 <= k < a.pairs[i - 1][1]:
        raise DomainError("shift order k must satisfy 0 <= k < d_i")
    return _root(a, i)[k]


def _root(a: MultiRootSet, i: int) -> list:
    """[f_i, (x - alpha_i) f_i, ..., (x - alpha_i)^(d_i-1) f_i] for the
    1-based root i, with f_i = prod_{j != i} (x - alpha_j)^(d_j); built
    once per set."""
    return a._once(("root", i), _root_chain, i)


def _root_chain(a: MultiRootSet, i: int) -> list:
    alpha_i, d_i = a.pairs[i - 1]
    chain = [_monic(a.pairs[: i - 1] + a.pairs[i:])]
    step = UniPoly.root_factor(alpha_i)
    while len(chain) < d_i:
        chain.append(chain[-1] * step)
    return chain


def _pole_numerators(slots, q: int, n: int) -> Tuple[list, Scalar]:
    """(num, den) with w_k = num[k] / den for k < n, the pole weights of
    alpha over the slots (gamma, m, p): w_k is the coefficient of y^k in
    the product over the slots of sum_j s_j y^j, s_j = C(m-1+j, j)
    (alpha - gamma)^(p-j), that is the sum over compositions (k_l) of k
    of prod_l C(m_l-1+k_l, k_l) (alpha - gamma_l)^(p_l-k_l).  With every
    p = 0, w_k is (-1)^k F(alpha) times the coefficient of (x - alpha)^k
    in 1/F, F = prod_l (x - gamma_l)^m_l; with every p = -m, it is (-1)^k
    times that coefficient itself.

    The slots come as (D, m, p) with D = q (alpha - gamma), alpha and the
    gammas read as numerators over one q: an int or an integer-coefficient
    ``ParamPoly``.  A slot's series is taken times q^t (alpha - gamma)^(t-p),
    t = max(p, n-1), and its term at y^j times q^-j, which leaves
    C(m-1+j, j) D^(t-j): never a division.  Every term of the product at
    y^k has lost q^k in all, so the product, truncated below y^n and
    folded in any slot order, is c_k = w_k q^(P-k) prod D^(t-p) at y^k,
    P = sum p.  So num[k] is c_k q^(k-l) and den is q^(P-l) prod D^(t-p),
    l = min(P, 0), an int or a ``ParamPoly``; the division is exact
    whenever the weight is a polynomial in the parameters.
    """
    w = [1] + [0] * (n - 1)
    den, power = 1, 0
    for diff, m, p in slots:
        top = max(p, n - 1)
        power += p
        if top > p:
            den = den * diff ** (top - p)
        s = [comb(m - 1 + j, j) * diff ** (top - j) for j in range(n)]
        for k in range(n - 1, -1, -1):
            acc = w[k] * s[0]
            for j in range(1, k + 1):
                acc = acc + w[k - j] * s[j]
            w[k] = acc
    low = min(power, 0)
    return [v * q ** (k - low) for k, v in enumerate(w)], den * q ** (power - low)


def _exact_weights(num: list, den: Scalar, formula: str, a: MultiRootSet, i: int) -> tuple:
    """num / den over one int denominator: as they are for an int den, else
    each num[k] / den divided exactly (``_numerators``).  A remainder,
    possible only where parameter roots of A differ by a non-constant, is
    refused, naming f_i(alpha_i) of the 1-based root i."""
    if not isinstance(den, ParamPoly):
        return num, den
    try:
        return _numerators([v / den for v in num])
    except DomainError:
        alpha_i = a.pairs[i - 1][0]
        raise DomainError(
            "the %s divides by f_%d(%s) = %s; the roots within a set must differ "
            "by constants" % (formula, i, alpha_i, _root(a, i)[0](alpha_i))
        ) from None


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
    """Basis polynomial (i, j) is sum_k (-1)^k w_k (x-alpha_i)^(j+k) f_i
    over k < d_i - j, w_k the pole weights of alpha_i over the other roots
    with p = -d_l (``_pole_numerators``), (-1)^k w_k being the coefficient
    of (x - alpha_i)^k in 1/f_i: f_i times the expansion of 1/f_i at
    alpha_i truncated below order d_i - j.  Every term is read from the
    root's one chain of (x - alpha_i) multiples of f_i.

    The weights are numerators over one denominator, formed on the roots'
    numerators in the set's table; a parameter denominator is divided out
    exactly or refused (``_exact_weights``).  The weights times the
    chain's numerators, brought to the lcm of the chain's denominators,
    are summed, and each polynomial is reduced once
    (``UniPoly.from_integers``).
    """
    _, q, roots = a._once("vandermonde", _new_table)
    x_i, d_i = roots[i - 1]
    slots = [(x_i - x, d, -d) for idx, (x, d) in enumerate(roots, start=1) if idx != i]
    w, den = _pole_numerators(slots, q, d_i)
    w, den = _exact_weights(w, den, "Hermite interpolant", a, i)
    chain = _root(a, i)
    big = lcm(*(p.denominator for p in chain))
    scaled = [[z * (big // p.denominator) for z in p.numerators] for p in chain]
    den *= big
    row = []
    for j in range(d_i):
        out = [0] * a.total
        for k in range(d_i - j):
            c = w[k]
            if c:
                if k % 2:
                    c = -c
                for t, z in enumerate(scaled[j + k]):
                    out[t] = out[t] + c * z
        row.append(UniPoly.from_integers(out, den))
    return row


def hermite_interpolate(a: MultiRootSet, data: Mapping[Tuple[int, int], Scalar]) -> UniPoly:
    """Unique polynomial of degree < d matching the given Taylor data.

    ``data`` maps (i, j) with 1-based root index i and 0 <= j < d_i to the
    coefficient of (x-alpha_i)^j required at that root; the key set must
    cover exactly those pairs.  The values are read once as numerators
    over one denominator (``_numerators``) for ``_interpolate``.
    """
    wanted = {(i, j) for i in range(1, a.m + 1) for j in range(a.pairs[i - 1][1])}
    got = set(data)
    if got != wanted:
        raise DomainError(
            "interpolation data must cover exactly the (root, order) pairs; "
            "missing %s, extra %s" % (sorted(wanted - got), sorted(got - wanted))
        )
    keys = list(data)
    nums, den = _numerators([data[key] for key in keys])
    return _interpolate(a, zip(keys, nums), den)


def _interpolate(a: MultiRootSet, data, den: int) -> UniPoly:
    """The polynomial of degree < d whose (i, j) Taylor datum is y / den,
    for each ((i, j), y) in ``data``, y an int or an integer-coefficient
    ``ParamPoly``: the numerators of the basis polynomials, brought to the
    lcm of their denominators and times the y, summed and reduced once."""
    terms = [(_hermite_row(a, i)[j], y) for (i, j), y in data if y]
    big = lcm(*(p.denominator for p, _ in terms))
    out = [0] * a.total
    for p, y in terms:
        c = y * (big // p.denominator)
        for k, z in enumerate(p.numerators):
            out[k] = out[k] + c * z
    return UniPoly.from_integers(out, big * den)


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
        (row,), (scale,) = _wronskian_rows(_root(a, i)[0], a, 1)
        taylor = [_quotient(v, scale) for v in row[offset : offset + d_i]]
        for r in range(d_i):
            for c in range(r, d_i):
                rows[offset + r][offset + c] = taylor[c - r]
        offset += d_i
    return ExactMatrix(rows)
