"""The root-side companion of the Macaulay-style subresultant.

Given a dual basis Lambda of the quotient by the first n equations, the
order-(t, S) subresultant factors as the product of the leading-form
determinants for the free degrees times det(O_S(Lambda)) / det(V_T(Lambda)),
where O_S stacks the monomial evaluations on S and T* over the evaluations
of the last polynomial's multiples indexed by R.  The two routes agree up
to a fixed sign per configuration.  Both kinds of rows come from
``dual_wronskian``, built in local coordinates at each root from the
integer tables of ``duality``: each entry is a sum of integer products
divided once by its functional's denominator times the row's
prod_i v_i^alpha_i.  ``poisson_delta`` evaluates each monomial of
T, S and T* once and takes V_T's rows and O_S's monomial rows from that
one table.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from ..errors import DomainError, StructuralError
from ..matrix import ExactMatrix, det_exact
from ..multipoly import MultiPoly
from ..scalar import Rat, Scalar, _numerators, _quotient
from .duality import DualBasis, _binomial_tables, _translate
from .hilbert import MonomialSets, build_monomial_sets
from .macaulay import MVSystem, _check_s, leading_form_subres

Expo = tuple


def dual_wronskian(h: MultiPoly, monomials: Sequence[Expo], basis: DualBasis) -> ExactMatrix:
    """Rows indexed by monomials, columns by functionals; entry L(x^alpha h).

    Built in local coordinates, group by group.  At the group's point p, h
    is translated once, h_p = h(p + y), and each functional L of the group
    becomes L o h = sum_beta h_p[beta] sigma_beta L, the functional that
    maps F to L(h F).  The entry is (L o h)((p + y)^alpha), whose terms are
    read from the point's integer tables of C(a, k) u_i^(a - k) v_i^k,
    p_i = u_i / v_i.  L o h is kept as integers over one denominator, and
    row alpha adds the one factor prod_i v_i^alpha_i, so every entry is a
    sum of integer products divided once.
    """
    monomials = [tuple(e) for e in monomials]
    n = h.n
    for expo in monomials:
        if len(expo) != n or any(not isinstance(e, int) or e < 0 for e in expo):
            raise DomainError("bad exponent vector %r for %d variables" % (expo, n))
    tops = [max((e[i] for e in monomials), default=0) for i in range(n)]
    columns = []
    for point, funcs in basis.groups:
        if point.n != n:
            raise DomainError("functional in %d variables applied to %d" % (point.n, n))
        h_p, h_den = _translate(h, point)
        h_p = list(h_p.items())
        tables, dens = _binomial_tables(point.coords, tops)
        row_dens = [h_den * prod(v**a for v, a in zip(dens, alpha)) for alpha in monomials]
        for func in funcs:
            l_nums, l_den = _numerators([l for _, l in func.terms])
            composed: dict = {}
            for (gamma, _), l in zip(func.terms, l_nums):
                for beta, c in h_p:
                    delta = tuple(g - b for g, b in zip(gamma, beta))
                    if min(delta) >= 0:
                        composed[delta] = composed.get(delta, 0) + l * c
            terms = [(delta, v) for delta, v in composed.items() if v]
            column = []
            for alpha, den in zip(monomials, row_dens):
                acc = 0
                for delta, v in terms:
                    for table, a, d in zip(tables, alpha, delta):
                        if d > a or not table[a][d]:
                            break
                        v = v * table[a][d]
                    else:
                        acc = acc + v
                column.append(_quotient(acc, l_den * den))
            columns.append(column)
    return ExactMatrix([list(row) for row in zip(*columns)] if columns else [[] for _ in monomials])


def dual_vandermonde(monomials: Sequence[Expo], basis: DualBasis) -> ExactMatrix:
    """dual_wronskian of the constant 1: entry L(x^alpha)."""
    funcs = basis.functionals
    if not funcs:
        return ExactMatrix([[] for _ in monomials])
    return dual_wronskian(MultiPoly.constant(funcs[0].point.n, Rat(1)), monomials, basis)


def poisson_delta(
    sys: MVSystem,
    t: int,
    s_cols: Sequence[Expo],
    basis: DualBasis,
    sets: MonomialSets | None = None,
) -> Scalar:
    """Evaluate the subresultant through a dual basis of the quotient.

    ``sets`` defaults to the canonical monomial choice; pass the result of
    build_monomial_sets with an override to steer the free T_j slices.
    """
    if sets is None:
        sets = build_monomial_sets(sys.degrees, t)
    combo = sets.combinatorics
    if combo.degrees != tuple(sys.degrees) or combo.t != t:
        raise DomainError("monomial sets were built for a different system or order")
    s_list = _check_s(s_cols, combo.k, sys.n, t)
    if len(basis) != combo.bezout:
        raise DomainError(
            "dual basis has %d functionals, expected the degree product %d"
            % (len(basis), combo.bezout)
        )
    t_list, t_star = list(sets.T.monomials), list(sets.T_star.monomials)
    # T* lies in T; S may meet it too.  Each monomial is evaluated once.
    evaluated = list(dict.fromkeys(t_list + s_list + t_star))
    rows = dict(zip(evaluated, dual_vandermonde(evaluated, basis).rows))
    v_t = ExactMatrix([rows[e] for e in t_list])
    det_vt = det_exact(v_t)
    if not det_vt:
        raise StructuralError(
            "V_T is singular: T is not a basis of the quotient for this dual basis; "
            "supply a different T_j override"
        )
    o_s = ExactMatrix(
        [rows[e] for e in s_list + t_star]
        + dual_wronskian(sys.polys[-1], sets.R.monomials, basis).rows
    )
    if o_s.nrows != combo.bezout:
        raise StructuralError(
            "O_S has %d rows, expected %d" % (o_s.nrows, combo.bezout)
        )
    det_os = det_exact(o_s)
    factor: Scalar = Rat(1)
    forms = sys.leading_forms()
    d_last = sys.degrees[-1]
    for j in range(max(0, t - d_last + 1), t + 1):
        factor = factor * leading_form_subres(forms, sys.degrees[:-1], j, sets.tj[j].monomials)
    return factor * det_os / det_vt
