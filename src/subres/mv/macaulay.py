"""Resultant-style square matrices for n+1 polynomials in n variables.

The degree-t matrix has one column per degree-t monomial in the n+1
homogeneous variables, minus a distinguished set S of k columns, and one
row per admissible multiple x^beta f_i^h.  Admissibility (|beta| = t - D_i
with beta_j < D_j for j < i) puts the rows in bijection with the reducible
degree-t monomials x^beta x_i^(D_i), i the first index whose exponent
reaches D_i.  The others number k (``hilbert_function``), as many as S
has, so the matrix is square by construction; so is the leading-form
matrix, whose T_j has tau_j elements.  Both, and the doubly-reducible
corner that each is divided by, come from one row builder,
``_square_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..combinat import monomials_of_degree
from ..errors import DomainError
from ..matrix import ExactMatrix, det_exact
from ..multipoly import MultiPoly
from ..scalar import Rat, Scalar
from .hilbert import hilbert_function, tau

Expo = Tuple[int, ...]


@dataclass(frozen=True)
class MVSystem:
    """n+1 polynomials in n variables with declared degrees.

    Actual degrees may fall below the declared ones; homogenization always
    fills up to the declared degree.
    """

    n: int
    polys: Tuple[MultiPoly, ...]
    degrees: Tuple[int, ...]

    def __init__(self, n: int, polys: Sequence[MultiPoly], degrees: Sequence[int]):
        if not isinstance(n, int) or n < 1:
            raise DomainError("need at least one variable")
        polys = tuple(polys)
        degrees = tuple(degrees)
        if len(polys) != n + 1 or len(degrees) != n + 1:
            raise DomainError("need exactly n+1 polynomials and degrees")
        if any(not isinstance(d, int) or d < 1 for d in degrees):
            raise DomainError("declared degrees must be positive ints")
        for i, p in enumerate(polys):
            if p.n != n:
                raise DomainError("polynomial %d lives in %d variables, expected %d" % (i + 1, p.n, n))
            if p.total_degree() > degrees[i]:
                raise DomainError(
                    "polynomial %d exceeds its declared degree %d" % (i + 1, degrees[i])
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "degrees", degrees)

    def leading_forms(self) -> Tuple[MultiPoly, ...]:
        """Homogeneous parts of the first n polynomials at their declared degrees."""
        return tuple(p.homogeneous_part(d) for p, d in zip(self.polys[:-1], self.degrees[:-1]))


def _row_indices(degrees: Sequence[int], t: int, nvars: int) -> list:
    """The admissible multipliers (i, beta) of all equations, i 0-based:
    |beta| = t - D_i and beta_j < D_j for j < i, each beta in canonical
    order."""
    return [
        (i, beta)
        for i, d_i in enumerate(degrees)
        if t >= d_i
        for beta in monomials_of_degree(nvars, t - d_i)
        if all(beta[j] < degrees[j] for j in range(i))
    ]


def _square_matrix(polys, multipliers, columns) -> ExactMatrix:
    """The rows x^beta p_i for the (i, beta) ``multipliers`` over the
    monomials ``columns``; a term landing off the columns is dropped, and
    absent entries share one zero.  Every caller passes one multiplier per
    column, so the matrix is square."""
    index = {c: j for j, c in enumerate(columns)}
    zero = Rat(0)
    rows = []
    for i, beta in multipliers:
        row = [zero] * len(columns)
        for alpha, c in polys[i].terms.items():
            j = index.get(tuple(a + b for a, b in zip(alpha, beta)))
            if j is not None:
                row[j] = c
        rows.append(row)
    return ExactMatrix(rows)


def _check_s(s_cols: Sequence[Expo], k: int, n: int, t: int) -> list:
    """S as a list of k distinct exponent vectors in n variables of degree <= t."""
    s_list = [tuple(g) for g in s_cols]
    if len(set(s_list)) != len(s_list):
        raise DomainError("S has repeated monomials")
    if len(s_list) != k:
        raise DomainError("S must have exactly k = %d monomials, got %d" % (k, len(s_list)))
    for g in s_list:
        if len(g) != n or any(e < 0 for e in g) or sum(g) > t:
            raise DomainError("S monomial %r must use %d variables with degree <= %d" % (g, n, t))
    return s_list


def macaulay_matrix(sys: MVSystem, t: int, s_cols: Sequence[Expo]) -> ExactMatrix:
    """The square degree-t matrix with the k columns of S deleted.

    ``s_cols`` lists dehomogenized monomials (exponents in the n affine
    variables, |gamma| <= t); each corresponds to the degree-t column
    x^gamma x_{n+1}^(t - |gamma|).
    """
    n = sys.n
    s_list = _check_s(s_cols, hilbert_function(sys.degrees, t), n, t)
    homog = [p.homogenize(d) for p, d in zip(sys.polys, sys.degrees)]
    deleted = {g + (t - sum(g),) for g in s_list}
    columns = [m for m in monomials_of_degree(n + 1, t) if m not in deleted]
    return _square_matrix(homog, _row_indices(sys.degrees, t, n + 1), columns)


def extraneous_factor(sys: MVSystem, t: int) -> Scalar:
    """Determinant of the doubly-reducible corner of the full degree-t
    matrix (``_corner``)."""
    homog = [p.homogenize(d) for p, d in zip(sys.polys, sys.degrees)]
    return _corner(homog, sys.degrees, t, sys.n + 1)


def _corner(forms, degrees: Sequence[int], degree: int, nvars: int) -> Scalar:
    """Determinant of the doubly-reducible corner of the degree-``degree``
    matrix of the homogeneous ``forms`` in ``nvars`` variables: the
    system's extraneous factor, or the leading forms' one level down.

    Rows and columns are the monomials of that degree divisible by
    x_j^(D_j) for at least two indices j; rows enter through the class
    bijection gamma -> x^(gamma - D_i e_i) f_i, i the first such index.
    An empty corner gives 1.
    """
    doubly, multipliers = [], []
    for gamma in monomials_of_degree(nvars, degree):
        hits = [i for i, (e, d) in enumerate(zip(gamma, degrees)) if e >= d]
        if len(hits) >= 2:
            i = hits[0]
            doubly.append(gamma)
            multipliers.append((i, gamma[:i] + (gamma[i] - degrees[i],) + gamma[i + 1 :]))
    if not doubly:
        return Rat(1)
    return det_exact(_square_matrix(forms, multipliers, doubly))


def _divide_out(det: Scalar, corner: Scalar) -> Scalar:
    """det / corner, an exact division, refused when the corner vanishes."""
    if not corner:
        raise DomainError("extraneous factor vanishes; perturb the system before dividing")
    return det / corner


def delta_s(sys: MVSystem, t: int, s_cols: Sequence[Expo]) -> Scalar:
    """Subresultant of order (t, S): det of the S-deleted matrix divided by
    the extraneous factor, an exact division."""
    e = extraneous_factor(sys, t)
    return _divide_out(det_exact(macaulay_matrix(sys, t, s_cols)), e)


def leading_form_subres(
    forms: Sequence[MultiPoly], degrees: Sequence[int], j: int, tj: Sequence[Expo]
) -> Scalar:
    """Same construction one level down: the determinant of n forms in n
    variables at degree j with the tau_j columns of T_j deleted, divided
    by their own corner (``_corner``), as ``delta_s`` divides by the
    extraneous factor."""
    n = len(forms)
    degrees = tuple(degrees)
    if len(degrees) != n:
        raise DomainError("need one declared degree per form")
    if not isinstance(j, int) or j < 0:
        raise DomainError("degree j must be a nonnegative int")
    for i, f in enumerate(forms):
        if f.n != n:
            raise DomainError("form %d lives in %d variables, expected %d" % (i + 1, f.n, n))
        if any(sum(e) != degrees[i] for e in f.terms):
            raise DomainError("form %d is not homogeneous of degree %d" % (i + 1, degrees[i]))
    tau_j = tau(degrees, j)
    t_list = [tuple(m) for m in tj]
    if len(set(t_list)) != len(t_list):
        raise DomainError("T_j has repeated monomials")
    if len(t_list) != tau_j:
        raise DomainError("T_j must have exactly tau_j = %d monomials, got %d" % (tau_j, len(t_list)))
    degree_j = monomials_of_degree(n, j)
    for m in t_list:
        if m not in degree_j:
            raise DomainError("T_j monomial %r is not a degree-%d monomial" % (m, j))
    columns = [m for m in degree_j if m not in t_list]
    det = det_exact(_square_matrix(forms, _row_indices(degrees, j, n), columns))
    return _divide_out(det, _corner(forms, degrees, j, n))
