"""Subresultants from coefficients, and Sylvester-style double sums.

``sres_coeff`` is the definitional route: the order-t subresultant of f
(degree d) and g (degree e) is the determinant of the (d+e-2t)-row matrix
whose rows hold the coefficients of x^(e-t-1)f, ..., f, x^(d-t-1)g, ..., g
on the monomials x^(d+e-t-1), ..., x^(t+1), with the polynomial itself in
the final column.  That column is sum_k x^k (coefficients of x^k), and a
coefficient column of x^k with k > t repeats a monomial column, so the
coefficient of x^k, k <= t, is the determinant with the final column
replaced by the coefficients of x^k: the determinantal polynomial of
Collins (JACM 14, 1967).  ``det_bordered`` takes all t+1 of them in one
elimination of the monomial columns.  The rows hold the coefficients of
G_f f and G_g g, G_f and G_g the common denominators of the coefficients,
so they are integral, and the product of their scales is the divisor.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import DomainError
from .matrix import det_bordered
from .rootsets import MultiRootSet, _monic, pairing_R
from .scalar import Scalar
from .unipoly import UniPoly


def _check_t(d, e, t: int) -> None:
    if d < 0 or e < 0 or d != int(d) or e != int(e):
        raise DomainError("degrees must be nonnegative integers (zero polynomial?)")
    if not isinstance(t, int) or t < 0:
        raise DomainError("order t must be a nonnegative int")
    if not (t <= d <= e):
        raise DomainError("need 0 <= t <= deg f <= deg g, got t=%s d=%s e=%s" % (t, d, e))
    if d == e and t == d:
        raise DomainError("t = deg f = deg g is outside the defined range")


def _valid_orders(d: int, e: int) -> range:
    """Every order t that ``_check_t`` allows for degrees d <= e."""
    return range(d + 1 if d < e else d)


def sres_coeff(f: UniPoly, g: UniPoly, t: int) -> UniPoly:
    """Order-t subresultant of f and g from their coefficients."""
    d, e = f.degree, g.degree
    _check_t(d, e, t)
    d, e = int(d), int(e)
    fs, f_den = f.numerators, f.denominator
    gs, g_den = g.numerators, g.denominator
    monomials = list(range(d + e - t - 1, t, -1)) + list(range(t + 1))
    rows = [_shifted(fs, s, monomials) for s in range(e - t - 1, -1, -1)]
    rows += [_shifted(gs, s, monomials) for s in range(d - t - 1, -1, -1)]
    return det_bordered(rows, f_den ** (e - t) * g_den ** (d - t))


def _shifted(coeffs: list, s: int, monomials: list) -> list:
    """The coefficients of x^s p on the monomials, from those of p."""
    return [coeffs[k - s] if 0 <= k - s < len(coeffs) else 0 for k in monomials]


def resultant(f: UniPoly, g: UniPoly) -> Scalar:
    """Resultant as the constant value of the order-0 subresultant."""
    if f.degree < 1 or g.degree < 1:
        raise DomainError("resultant needs two polynomials of degree >= 1")
    return sres_coeff(f, g, 0).coeff(0)


def sylv_double_sum(a: MultiRootSet, b: MultiRootSet, p: int, q: int) -> UniPoly:
    """Double sum over p-subsets of A and q-subsets of B (simple roots only).

    Each pair (A', B') contributes R(x,A') R(x,B') weighted by
    R(A',B') R(A\\A',B\\B') / (R(A',A\\A') R(B',B\\B')).
    """
    if any(d != 1 for d in a.mults) or any(e != 1 for e in b.mults):
        raise DomainError("double sums undefined for multiple roots")
    d, e = a.m, b.m
    if not (0 <= p <= d and 0 <= q <= e):
        raise DomainError("need 0 <= p <= d and 0 <= q <= e")
    pairs_a = a.pairs
    pairs_b = b.pairs
    total = UniPoly.zero()
    for ia in combinations(range(d), p):
        a_in = [pairs_a[i] for i in ia]
        a_out = [pairs_a[i] for i in range(d) if i not in ia]
        for ib in combinations(range(e), q):
            b_in = [pairs_b[i] for i in ib]
            b_out = [pairs_b[i] for i in range(e) if i not in ib]
            num = pairing_R(a_in, b_in) * pairing_R(a_out, b_out)
            if not num:
                continue
            den = pairing_R(a_in, a_out) * pairing_R(b_in, b_out)
            try:
                weight = num / den
            except DomainError:
                raise DomainError(
                    "the double sum divides by %s inexactly; the roots within a set "
                    "must differ by constants" % (den,)
                ) from None
            total = total + _monic(a_in) * _monic(b_in) * weight
    return total


def sylvester_identity_scale(d: int, t: int, p: int) -> tuple[int, int]:
    """Sign and binomial linking the double sum to the subresultant.

    Sres_t = sign / comb(t, p) * Sylv^(p, t-p); returns (sign, comb(t, p)).
    """
    sign = -1 if (p * (d - t)) % 2 else 1
    return sign, comb(t, p)
