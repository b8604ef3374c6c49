"""Exact dense matrices and a fraction-free determinant.

The determinant uses Bareiss elimination: every division is by the
previous pivot and is exact in the ring of the entries, so one elimination
loop serves two rings.  A rational matrix is scaled row by row to integers
and eliminated with exact integer division, then divided by the product
of the row scales; a matrix with a parameter polynomial entry is
eliminated over the parameter polynomials as it is.  A matrix
with entries polynomial in a main variable x gets its determinant through
``det_in_x``: scalar determinants at integer values of x, then Newton
interpolation, so x never enters the scalar domain.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, List, Sequence

from .errors import DomainError
from .scalar import ParamPoly, Rat, Scalar, as_scalar, is_rational
from .unipoly import UniPoly


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = [[as_scalar(v) for v in row] for row in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DomainError("ragged rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[Rat(0)] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
            )
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise DomainError("dimension mismatch in matrix product")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc: Scalar = Rat(0)
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def submatrix(self, drop_row: int, drop_col: int) -> "ExactMatrix":
        return ExactMatrix(
            [
                [v for j, v in enumerate(row) if j != drop_col]
                for i, row in enumerate(self.rows)
                if i != drop_row
            ]
        )

    def select(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def det(self) -> Scalar:
        return det_exact(self)

    def map(self, fn: Callable[[Scalar], Scalar]) -> "ExactMatrix":
        return ExactMatrix([[fn(v) for v in row] for row in self.rows])

    def nullspace(self) -> List[List[Scalar]]:
        """Kernel basis via Gauss-Jordan; one vector per free column.

        A column whose entries are all zero yields the plain unit vector,
        so distinguished generators survive untouched.
        """
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: List[int] = []
        r = 0
        for c in range(nc):
            p = next((i for i in range(r, nr) if m[i][c]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            inv = m[r][c]
            m[r] = [v / inv for v in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for c in free:
            v: List[Scalar] = [Rat(0)] * nc
            v[c] = Rat(1)
            for i, pc in enumerate(pivots):
                v[pc] = -m[i][c]
            basis.append(v)
        return basis

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.nrows, self.ncols)

    def pretty(self) -> str:
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows)


def det_exact(m: ExactMatrix) -> Scalar:
    """Determinant by fraction-free Bareiss elimination.

    A matrix of rationals is scaled to integers first: each row is
    multiplied by the lcm of its denominators, the integer determinant is
    taken with exact floor division, and the product of the row scales
    divides it back, so the result is always a rational and elimination
    never normalises a fraction.  A matrix with a parameter polynomial
    entry is eliminated as it is, dividing exactly with ``/``.  Both run
    the same loop, ``_bareiss``.  The empty matrix has determinant one.
    """
    if m.nrows != m.ncols:
        raise DomainError("determinant of a non-square matrix (%d x %d)" % (m.nrows, m.ncols))
    if not all(is_rational(v) for row in m.rows for v in row):
        return as_scalar(_bareiss([list(row) for row in m.rows], operator.truediv))
    a = []
    scale = 1
    for row in m.rows:
        # A list, not a generator: unpacking a generator resizes the argument
        # tuple, and CPython parks the resized tuples on its free lists until
        # a full collection: ~1.7 MiB more peak memory over a benchmark run.
        s = math.lcm(*[v.denominator for v in row])
        a.append([v.numerator * (s // v.denominator) for v in row])
        scale *= s
    return Rat(_bareiss(a, operator.floordiv), scale)


def _bareiss(a: List[list], div):
    """Determinant of the square rows ``a``, eliminated in place.

    Step k replaces each entry below and right of the pivot by
    (pivot * a_ij - a_ik * a_kj) / previous pivot, a division that is exact
    in the ring of the entries; ``div`` performs it.  Row swaps track the
    sign; a zero pivot column means determinant 0.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            for j in range(k + 1, n):
                row_i[j] = div(pivot * row_i[j] - aik * row_k[j], prev)
        prev = pivot
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def det_in_x(build: Callable[[Scalar], ExactMatrix], deg: int, den: Scalar = 1) -> UniPoly:
    """det(M(x)) / den as a polynomial in x of degree at most ``deg``.

    ``build(c)`` returns M at x = c.  The determinant is taken at
    x = 0, 1, ..., deg and interpolated in Newton form; with equally spaced
    nodes every divided difference divides by an integer.  ``den`` must
    divide det(M(x)) exactly, as the closed-form Vandermonde determinants
    do.  Coefficients free of parameters come back rational.
    """
    diffs = [det_exact(build(Rat(c))) / den for c in range(deg + 1)]
    for j in range(1, deg + 1):
        for i in range(deg, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / j
    out = UniPoly([diffs[deg]])
    for k in range(deg - 1, -1, -1):
        out = out * UniPoly([-k, 1]) + diffs[k]
    return UniPoly(
        c.constant_value() if isinstance(c, ParamPoly) and c.is_constant() else c
        for c in out.coeffs
    )
