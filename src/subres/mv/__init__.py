from .hilbert import (
    MonomialSets,
    SystemCombinatorics,
    build_monomial_sets,
    hilbert_function,
    tau,
)
from .macaulay import MVSystem, delta_s, extraneous_factor, leading_form_subres, macaulay_matrix
from .duality import (
    DualBasis,
    DualFunctional,
    InverseSystemResult,
    Point,
    assemble_dual_basis,
    dual_eval,
    dual_vandermonde,
    dual_wronskian,
    inverse_system,
    sigma_shift,
)
from .poisson import poisson_delta

__all__ = [
    "MonomialSets",
    "SystemCombinatorics",
    "build_monomial_sets",
    "hilbert_function",
    "tau",
    "MVSystem",
    "delta_s",
    "extraneous_factor",
    "leading_form_subres",
    "macaulay_matrix",
    "DualBasis",
    "DualFunctional",
    "InverseSystemResult",
    "Point",
    "assemble_dual_basis",
    "dual_eval",
    "inverse_system",
    "sigma_shift",
    "dual_vandermonde",
    "dual_wronskian",
    "poisson_delta",
]
