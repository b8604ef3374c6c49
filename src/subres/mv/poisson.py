"""The root-side companion of the Macaulay-style subresultant.

Given a dual basis Lambda of the quotient by the first n equations, the
order-(t, S) subresultant factors as the product of the leading-form
determinants for the free degrees times det(O_S(Lambda)) / det(V_T(Lambda)),
where O_S stacks the monomial evaluations on S and T* over the evaluations
of the last polynomial's multiples indexed by R.  It has one row per
functional (the counts of ``build_monomial_sets``), so it is square by
construction, like V_T.  The two routes agree up to a fixed sign per
configuration.

``poisson_delta`` reads every value L(x^alpha) and L(x^alpha f_(n+1))
from one table per root, one call of ``duality``'s evaluator over the
monomials of T, S and T* and the multiples indexed by R.  V_T and O_S are
integer rows from that table: entry (i, j) is the value times the scale
of row i (1 for a monomial, the lcm of f_(n+1)'s denominators for a
multiple) and of column j (shared by both matrices), so each determinant
is the integer one over the product of its scales.

The two matrices share every row of T that O_S also has: with S inside T
all rows but the |R| of T outside S and T*.  Both determinants come from
one elimination (``matrix._dets``).  Transposed, each row is a column:
the shared ones first, eliminated once, then V_T's own rows as one
border and O_S's (S outside T, then the multiples) as the other, each
finished from the last shared pivot and signed by its row permutation.
Rows with a parameter entry are packed as ``det_exact`` packs them.
Where R is empty O_S is V_T with its rows permuted, and one shared row
serves as both borders.  ``dual_vandermonde`` and ``dual_wronskian``
build the same matrices in rationals, and stay importable from here.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from ..errors import DomainError, StructuralError
from ..matrix import _dets, _read
from ..scalar import Rat, Scalar
from . import duality
from .duality import DualBasis, _values
from .hilbert import MonomialSets, build_monomial_sets
from .macaulay import MVSystem, _check_s, leading_form_subres

# The public dual matrices stay importable from here, beside the quotient.
dual_vandermonde, dual_wronskian = duality.dual_vandermonde, duality.dual_wronskian

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
    # T* lies in T; S may meet it too.  Each monomial is evaluated once, and
    # each root once, over the monomials and the multiples x^alpha f_(n+1).
    evaluated = list(dict.fromkeys(t_list + s_list + t_star))
    last = sys.polys[-1]
    multiples = [last.shift(alpha).terms for alpha in sets.R.monomials]
    nums, row_dens, col_dens = _values(
        sys.n, basis.groups, [{e: 1} for e in evaluated] + multiples
    )
    # The rows of V_T and of O_S (S, T*, then the multiples) by their index
    # into nums; S (degree <= t) and T* (above t) are disjoint.
    index = {e: i for i, e in enumerate(evaluated)}
    v_t = [index[e] for e in t_list]
    o_s = [index[e] for e in s_list + t_star] + list(range(len(evaluated), len(nums)))
    in_t, in_o = set(v_t), set(o_s)
    shared = [i for i in v_t if i in in_o]
    v_only = [i for i in v_t if i not in in_o]
    o_only = [i for i in o_s if i not in in_t]
    if not v_only:
        # O_S is V_T with its rows permuted: one shared row borders both.
        v_only = o_only = [shared.pop()]
    # Transposed, each row is a column: the shared ones, then V_T's border,
    # then O_S's; each determinant is signed by its row permutation.
    columns = [nums[i] for i in shared + v_only + o_only]
    det_vt, det_os = _read(*_dets(list(zip(*columns)), len(v_only)))
    # A monomial row has scale 1; the columns share theirs across V_T and O_S.
    scales = prod(col_dens)
    det_vt /= _sign(v_t, shared + v_only) * scales
    if not det_vt:
        raise StructuralError(
            "V_T is singular: T is not a basis of the quotient for this dual basis; "
            "supply a different T_j override"
        )
    det_os /= _sign(o_s, shared + o_only) * scales * prod(row_dens[len(evaluated) :])
    factor: Scalar = Rat(1)
    forms = sys.leading_forms()
    d_last = sys.degrees[-1]
    for j in range(max(0, t - d_last + 1), t + 1):
        factor = factor * leading_form_subres(forms, sys.degrees[:-1], j, sets.tj[j].monomials)
    return factor * det_os / det_vt


def _sign(rows: Sequence[int], order: Sequence[int]) -> int:
    """The sign of the permutation that takes the distinct ``rows`` to
    ``order``."""
    at = {v: i for i, v in enumerate(rows)}
    perm = [at[v] for v in order]
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return sign
