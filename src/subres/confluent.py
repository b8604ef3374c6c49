"""Confluent Vandermonde matrices, generalized Wronskians, Hermite bases.

Root sets carry multiplicities, so the usual Vandermonde rows fan out into
blocks of derivative columns.  Everything here is exact and works over
rational roots as well as parameter-polynomial roots where divisions stay
polynomial.  What depends on a root set alone is derived once and kept in
the set's store (``MultiRootSet._once``): the confluent Vandermonde rows,
from which every Vandermonde or Wronskian matrix of the set is read; the
closed-form Vandermonde determinant; per root alpha_i, the product f_i of
the other roots' factors, its value f_i(alpha_i) and the chain
(x - alpha_i)^k f_i, k < d_i; and the Hermite basis, built from that
chain.  The basis and the order-1 pole formula (``roots_formulas``) take
their pole weights from one truncated product of per-root series
(``_pole_weights``).
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Tuple

from .errors import DomainError
from .matrix import ExactMatrix
from .rootsets import MultiRootSet
from .scalar import ParamPoly, Rat, Scalar
from .unipoly import UniPoly, taylor_coeff


def vandermonde_confluent(a: MultiRootSet, u: int) -> ExactMatrix:
    """u x d matrix; block i has columns binom(k,j) alpha_i^(k-j), j < d_i.

    This is the generalized Wronskian of the constant 1.  The rows are a
    copy of the first u rows of the set's table (``_vandermonde_rows``).
    """
    if not isinstance(u, int) or u < 0:
        raise DomainError("row count u must be a nonnegative int")
    return ExactMatrix(_vandermonde_rows(a, u)[:u])


def _vandermonde_rows(a: MultiRootSet, u: int) -> list:
    """At least u rows of the confluent Vandermonde matrix of A, grown once
    per root set and shared: callers must not change them.

    Row k, block i, inner column j holds the coefficient of
    (z-alpha_i)^j in z^k.  Row 0 is 1 on each block's first column, and
    each later row is ``_times_z`` of the one above.
    """
    rows = a._once(
        "vandermonde", lambda a: [[Rat(1) if j == 0 else Rat(0) for _, d in a for j in range(d)]]
    )
    while len(rows) < u:
        rows.append(_times_z(rows[-1], a))
    return rows


def _times_z(row: list, a: MultiRootSet) -> list:
    """The row of z p from the row of p: as z p = (z-alpha) p + alpha p,
    the coefficient of (z-alpha)^j in z p is that of (z-alpha)^(j-1) in p
    plus alpha times that of (z-alpha)^j.  A zero entry is not multiplied,
    so rational zeros stay rational."""
    out = []
    for alpha, d in a:
        block = row[len(out) : len(out) + d]
        out += [
            (block[j - 1] if j else Rat(0)) + (alpha * block[j] if block[j] else Rat(0))
            for j in range(d)
        ]
    return out


def vandermonde_det_closed(a: MultiRootSet) -> Scalar:
    """Product of (alpha_j - alpha_i)^(d_i d_j) over i < j, taken once per set."""
    return a._once("vdet", _vandermonde_det)


def _vandermonde_det(a: MultiRootSet) -> Scalar:
    acc: Scalar = Rat(1)
    pairs = a.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ai, di = pairs[i]
            aj, dj = pairs[j]
            acc = acc * (aj - ai) ** (di * dj)
    return acc


def wronskian(h: UniPoly, a: MultiRootSet, u: int) -> ExactMatrix:
    """u x d matrix of normalized derivatives of z^k h at the roots.

    Row k, block i, inner column j holds the coefficient of (z-alpha_i)^j
    in z^k h; the polynomial h may carry extra parameters in its
    coefficients.  Since h = sum_m h_m z^m, row 0 is sum_m h_m V_m over the
    rows of the set's confluent Vandermonde matrix, and each later row is
    ``_times_z`` of the one above.
    """
    if not isinstance(u, int) or u < 0:
        raise DomainError("row count u must be a nonnegative int")
    terms = [(m, c) for m, c in enumerate(h.coeffs) if c]
    v = _vandermonde_rows(a, len(h.coeffs))
    row = []
    for j in range(a.total):
        acc: Scalar = Rat(0)
        for m, c in terms:
            x = v[m][j]
            if x:
                acc = acc + c * x
        row.append(acc)
    rows = []
    for k in range(u):
        if k:
            row = _times_z(row, a)
        rows.append(row)
    return ExactMatrix(rows)


def wronskian_det_closed(h: UniPoly, a: MultiRootSet) -> Scalar:
    """Closed form for the square case u = d: det V(A) times prod h(alpha_i)^d_i."""
    acc = vandermonde_det_closed(a)
    for alpha, d in a:
        acc = acc * h(alpha) ** d
    return acc


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
    f = UniPoly([1])
    for idx, (alpha, d) in enumerate(a, start=1):
        if idx != i:
            f = f * UniPoly([-alpha, 1]) ** d
    chain = [f]
    step = UniPoly([-alpha_i, 1])
    while len(chain) < d_i:
        chain.append(chain[-1] * step)
    return f(alpha_i), chain


def _pole_weights(alpha: Scalar, slots, n: int) -> list:
    """w_k for k < n: the coefficient of y^k in the product over the slots
    (gamma, m, p) of sum_k C(m-1+k, k) (alpha - gamma)^(p-k) y^k, that is the
    sum over compositions (k_l) of k of prod_l C(m_l-1+k_l, k_l)
    (alpha - gamma_l)^(p_l-k_l).  With every p = 0, w_k is (-1)^k F(alpha)
    times the coefficient of (x - alpha)^k in 1/F, F = prod_l (x - gamma_l)^m_l.

    A slot divides only for k > p.  Slots with p > 0 go first, so that the
    later divisions act on their folded powers: that keeps them exact for
    symbolic roots.
    """
    w = [Rat(1)] + [Rat(0)] * (n - 1)
    for gamma, m, p in slots:
        diff = alpha - gamma
        # pw[q] = diff^(low + q) holds the factors diff^(p - j), j < p, and,
        # with low = 0, the divisors diff^(j - p), j > p.
        low = max(p - n + 1, 0)
        pw = [diff**low if low else Rat(1)]
        while len(pw) < n:
            pw.append(pw[-1] * diff)
        binom = [comb(m - 1 + j, j) for j in range(n)]
        for k in range(n - 1, -1, -1):
            acc: Scalar = Rat(0)
            for j in range(k + 1):
                term = w[k - j] * binom[j]
                if j < p:
                    term = term * pw[p - j - low]
                elif j > p:
                    term = term / pw[j - p]
                acc = acc + term
            w[k] = acc
    return w


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
    signed = [-w if k % 2 else w for k, w in enumerate(_pole_weights(alpha_i, others, d_i))]
    row = []
    for j in range(d_i):
        out = UniPoly.zero()
        for k in range(d_i - j):
            if signed[k]:
                out = out + chain[j + k] * signed[k]
        row.append(_scale(out, at))
    return row


def _scale(p: UniPoly, denom: Scalar) -> UniPoly:
    return UniPoly([c / denom for c in p.coeffs])


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


def vprime(a: MultiRootSet) -> ExactMatrix:
    """Block-diagonal companion of the confluent Vandermonde matrix.

    Block i is upper-triangular Toeplitz in the normalized derivatives of
    f_i = prod_{j != i}(x - alpha_j)^(d_j) at alpha_i, so the determinant
    is the product of f_i(alpha_i)^(d_i).
    """
    d = a.total
    rows = [[Rat(0)] * d for _ in range(d)]
    offset = 0
    for i, (alpha_i, d_i) in enumerate(a, start=1):
        fi = _root(a, i)[1][0]
        taylor = [taylor_coeff(fi, alpha_i, s) for s in range(d_i)]
        for r in range(d_i):
            for c in range(r, d_i):
                rows[offset + r][offset + c] = taylor[c - r]
        offset += d_i
    return ExactMatrix(rows)
