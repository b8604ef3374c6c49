"""Exact subresultants of polynomials with multiple roots, two ways.

Coefficient side: subresultants as determinants of Sylvester/Macaulay-type
matrices over the rationals (optionally with polynomial parameters in the
coefficients).  Root side: the same subresultants from the roots and their
multiplicities, through confluent Vandermonde matrices, generalized
Wronskians, Hermite interpolation, and dual bases of quotient algebras.
Every value is exact; the two sides cross-check each other.
"""

from .combinat import canon_key, compositions, monomials_of_degree
from .confluent import (
    confluent_inverse,
    vandermonde_confluent,
    vandermonde_det_closed,
    wronskian,
    wronskian_det_closed,
)
from .errors import DomainError, StructuralError, SubresError
from .matrix import ExactMatrix, det_exact
from .multipoly import MultiPoly
from .mv import (
    DualBasis,
    DualFunctional,
    InverseSystemResult,
    MonomialSets,
    MVSystem,
    Point,
    SystemCombinatorics,
    assemble_dual_basis,
    build_monomial_sets,
    delta_s,
    dual_eval,
    dual_vandermonde,
    dual_wronskian,
    extraneous_factor,
    hilbert_function,
    inverse_system,
    leading_form_subres,
    macaulay_matrix,
    poisson_delta,
    tau,
)
from .roots_formulas import VARIANTS, sres_dm1_hermite, sres_one, sres_roots, sres_roots_all
from .rootsets import MultiRootSet, pairing_R, poly_from_roots
from .scalar import ParamPoly, Rat, Scalar, as_scalar, is_rational, param
from .subresultants import resultant, sres_coeff, sylv_double_sum, sylvester_identity_scale
from .unipoly import NEG_INF, UniPoly, taylor_coeff
from .verify import Check, mv_checks, random_pair, random_rootset, univariate_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scalars and polynomials
    "Rat",
    "param",
    "ParamPoly",
    "Scalar",
    "as_scalar",
    "is_rational",
    "UniPoly",
    "NEG_INF",
    "taylor_coeff",
    "MultiPoly",
    # linear algebra
    "ExactMatrix",
    "det_exact",
    # combinatorics
    "canon_key",
    "compositions",
    "monomials_of_degree",
    # root sets
    "MultiRootSet",
    "poly_from_roots",
    "pairing_R",
    # coefficient side
    "sres_coeff",
    "resultant",
    "sylv_double_sum",
    "sylvester_identity_scale",
    # confluent matrices
    "vandermonde_confluent",
    "vandermonde_det_closed",
    "wronskian",
    "wronskian_det_closed",
    "confluent_inverse",
    # root side
    "VARIANTS",
    "sres_roots",
    "sres_roots_all",
    "sres_dm1_hermite",
    "sres_one",
    # multivariate
    "MVSystem",
    "MonomialSets",
    "SystemCombinatorics",
    "hilbert_function",
    "tau",
    "build_monomial_sets",
    "macaulay_matrix",
    "extraneous_factor",
    "delta_s",
    "leading_form_subres",
    "Point",
    "DualFunctional",
    "DualBasis",
    "InverseSystemResult",
    "inverse_system",
    "dual_eval",
    "assemble_dual_basis",
    "dual_vandermonde",
    "dual_wronskian",
    "poisson_delta",
    # cross-checks
    "Check",
    "univariate_checks",
    "mv_checks",
    "random_rootset",
    "random_pair",
    # errors
    "SubresError",
    "DomainError",
    "StructuralError",
]
