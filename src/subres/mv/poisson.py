"""The root-side companion of the Macaulay-style subresultant.

Given a dual basis Lambda of the quotient by the first n equations, the
order-(t, S) subresultant factors as the product of the leading-form
determinants for the free degrees times det(O_S(Lambda)) / det(V_T(Lambda)),
where O_S stacks the monomial evaluations on S and T* over the evaluations
of the last polynomial's multiples indexed by R.  The two routes agree up
to a fixed sign per configuration.  Both kinds of rows come from
``dual_vandermonde`` and ``dual_wronskian`` of ``duality``, which read
every value L(x^alpha) and L(x^alpha f_(n+1)) through its one evaluator,
from each root's tables built once per matrix.  ``poisson_delta``
evaluates each monomial of T, S and T* once and takes V_T's rows and
O_S's monomial rows from that one table.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import DomainError, StructuralError
from ..matrix import ExactMatrix, det_exact
from ..scalar import Rat, Scalar
from .duality import DualBasis, dual_vandermonde, dual_wronskian
from .hilbert import MonomialSets, build_monomial_sets
from .macaulay import MVSystem, _check_s, leading_form_subres

Expo = tuple


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
