"""Exception taxonomy shared by the whole package.

DomainError marks inputs outside a documented precondition (bad degrees,
shared roots, wrong cardinalities).  StructuralError marks a computation
that fell apart structurally: a singular quotient-basis matrix V_T, when
the chosen T is not a basis of the quotient for the dual basis.
"""


class SubresError(Exception):
    pass


class DomainError(SubresError, ValueError):
    pass


class StructuralError(SubresError, RuntimeError):
    pass
