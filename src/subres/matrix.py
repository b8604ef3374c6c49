"""Exact dense matrices and a fraction-free determinant.

The determinant uses Bareiss elimination over one ring, the integers:
every division is by the previous pivot and is exact on any integer
matrix.  A matrix of ints, as the subresultant builders give with their
row scales folded into the divisor, is eliminated as it is.  Another
rational matrix is scaled row by row to integers, eliminated, and divided
by the product of the row scales.  A matrix with a parameter polynomial
entry is scaled the same way and then packed by Kronecker substitution:
each parameter is evaluated at a power of two so large that the
determinant's coefficients occupy disjoint, signed base-2^k digits of one
integer.  Evaluation is a ring homomorphism, so the integer
determinant of the packed matrix is the packed determinant, and its
digits, read back once at the end, give the polynomial.

The same elimination takes bordered determinants (``_dets``): the first
n-r columns of n rows are eliminated once, and each later block of r
columns is then finished from the last shared pivot alone, which gives
the determinant of the shared columns bordered by that block.  With r = 1
the last row already holds them, one per later column (``det_bordered``);
``poisson_delta`` borders the columns its two matrices share by the |R|
columns of each.  A determinant whose last column is a polynomial in a
main variable x, sum_k x^k c_k, is the polynomial whose coefficient of
x^k is the determinant bordered by c_k (the determinantal polynomial of
Collins); with unit columns e_k as borders, the coefficients are the
cofactors of the border.  ``det_in_x`` keeps the other route for x in
several rows, each linear in x: the columns free of x are eliminated once,
after which the same elimination is finished at each integer value of x
from the trailing block alone, and the packed integers are interpolated,
so x never enters the scalar domain and only the coefficients are read
back; only the ``wronskian-full`` layout uses it.

Kernels and reduced echelon forms come from one left-looking
fraction-free Gauss-Jordan elimination on the same integer-scaled rows,
``_GaussJordan``.  It takes the matrix column by column: each pivot step
is recorded and replayed on every later column, so the elimination can be
resumed with more columns, and with more rows as long as they are zero on
every earlier column.  ``_kernel`` and ``reduced_echelon`` feed it a whole
matrix at once; ``inverse_system`` grows one elimination order by order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import DomainError
from .scalar import ParamPoly, Rat, Scalar, _collapse, _numerators, _quotient, as_scalar, is_rational
from .unipoly import UniPoly

Unpack = Optional[Callable[[int], ParamPoly]]  # None for rational rows


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        # An int is an exact scalar with a numerator and a denominator, as
        # the integer kernels read it; it is kept as it is.
        data = [[v if type(v) is int else as_scalar(v) for v in row] for row in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DomainError("ragged rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)])

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

    def nullspace(self) -> List[List[Scalar]]:
        """Kernel basis, one vector per free column: the vectors of
        ``_kernel`` filled in with zeros."""
        basis = []
        for pairs in _kernel(self.rows):
            v: List[Scalar] = [Rat(0)] * self.ncols
            for c, x in pairs:
                v[c] = x
            basis.append(v)
        return basis

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.nrows, self.ncols)

    def pretty(self) -> str:
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows)


def det_exact(m: ExactMatrix) -> Scalar:
    """Determinant by fraction-free Bareiss elimination over the integers.

    Each row is first multiplied by the lcm of the denominators in it, and
    the product of these row scales divides the integer determinant back.
    A matrix of rationals is eliminated as it is and gives a rational.  A
    matrix with a parameter polynomial entry gives a ``ParamPoly``; its
    entries are packed into integers first (``_pack``).  Both run the
    same loop, ``_bareiss``, as the one-border case of ``det_bordered``.
    The empty matrix has determinant one.
    """
    if m.nrows != m.ncols:
        raise DomainError("determinant of a non-square matrix (%d x %d)" % (m.nrows, m.ncols))
    return _read(*_dets(m.rows))[0]


def det_bordered(rows: List[list], den: Scalar = 1) -> UniPoly:
    """det(M(x)) / den, where M(x) is the first n-1 columns of the n
    ``rows`` bordered by the column sum_k x^k c_k over their later columns
    c_0, c_1, ...

    The determinant is linear in its last column, so the coefficient of
    x^k is the determinant of the shared columns bordered by c_k alone:
    the borders of width one of ``_dets``, all taken in one elimination of
    the shared columns.  ``den`` must divide each of them exactly, as the
    closed-form Vandermonde determinants times the row scales of integral
    rows do.  Coefficients free of parameters come back rational.
    """
    if not 0 < len(rows) <= len(rows[0]):
        raise DomainError(
            "bordered determinant of a %d x %d matrix" % (len(rows), len(rows[0]) if rows else 0)
        )
    return _polynomial(*_dets(rows), den)


def _dets(rows: List[list], r: int = 1) -> Tuple[List[int], int, Unpack]:
    """The integer determinants of the first n-r columns of the n ``rows``,
    as ``_integers`` scales or packs them, bordered by each later block of
    r columns, with its scale and unpack map; r is at least 1.

    One ``_bareiss`` phase eliminates the n-r shared columns.  The last r
    rows then hold, in each block, the minors that the rest of the same
    elimination would see, so each block is finished on its own from the
    last shared pivot, as ``det_in_x`` finishes its nodes.  With r = 1 the
    block is one entry of the last row and already the determinant.  The
    empty matrix gives the one determinant 1.
    """
    a, scale, unpack = _integers(rows, r=r)
    n = len(a)
    if n == 0:
        return [1], scale, unpack
    width = len(a[0])
    done = _bareiss(a, n - r)
    if done is None:
        return [0] * ((width - n) // r + 1), scale, unpack
    sign, prev = done
    if r == 1:
        return [sign * v for v in a[n - 1][n - 1 :]], scale, unpack
    tail = a[n - r :]
    values = []
    for j in range(n - r, width, r):
        node = _bareiss([row[j : j + r] for row in tail], r, prev)
        values.append(sign * node[0] * node[1] if node else 0)
    return values, scale, unpack


def _read(values: List[int], scale: int, unpack: Unpack) -> List[Scalar]:
    """The integer determinants of ``_dets`` read back: each over the
    scale, or unpacked when the rows were packed."""
    return [unpack(v) if unpack else Rat(v, scale) for v in values]


def _polynomial(values: List[int], scale: int, unpack: Unpack, den: Scalar) -> UniPoly:
    """The one read-back of ``det_bordered`` and ``det_in_x``: coefficient
    k is values[k] / (scale * den), or unpack(values[k]) / den when the
    rows were packed.  Rational rows and ``den`` give it from the integers,
    over scale times den's numerator; otherwise each coefficient is divided
    in the scalar domain, constant ``ParamPoly`` ones made rational."""
    if unpack is None and is_rational(den):
        (n,), d = _numerators([den])
        return UniPoly.from_integers([v * d for v in values], scale * n)
    return UniPoly(_collapse(v / den) for v in _read(values, scale, unpack))


def _integers(rows: List[list], t: int = 0, r: int = 1) -> Tuple[List[List[int]], int, Unpack]:
    """Integer rows for ``_bareiss``, the product of their row scales, and,
    for rows with a ``ParamPoly`` entry, the map that reads an integer
    determinant of them back as a ``ParamPoly``, None for rational rows,
    whose determinant is the integer one over the scale.

    All-int rows, as the subresultant builders give, are copied as they
    are, with scale 1.  Other rational rows become their Python-int
    numerators over the lcm of their denominators (``_numerators``), on
    either backend.  Rows with a ``ParamPoly`` entry are packed by
    ``_pack``, whose reader divides by the scale itself; ``t`` is its
    count of x columns and ``r`` its border width.
    """
    if all(type(v) is int for row in rows for v in row):
        return [list(row) for row in rows], 1, None
    if not all(is_rational(v) for row in rows for v in row):
        a, unpack = _pack(rows, t, r)
        return a, 1, unpack
    a = []
    scale = 1
    for row in rows:
        ints, s = _numerators(row)
        a.append(ints)
        scale *= s
    return a, scale, None


def _pack(
    rows: List[list], t: int = 0, r: int = 1
) -> Tuple[List[List[int]], Callable[[int], ParamPoly]]:
    """Kronecker substitution for n rows with a ``ParamPoly`` entry: the
    packed integer rows, and the map that reads a packed determinant back.

    The determinants to read are those of the first n-r columns bordered
    by each later block of r columns.  With ``t`` > 0 (and r = 1) the
    last 2t columns are instead p_0..p_(t-1) then q_0..q_(t-1); the values
    read back are the coefficients of det M(x), M's last columns x * p_k -
    q_k, and no value at an integer node.  Each is a Fourier coefficient
    over the unit torus |x| = |p| = 1, where an x column entry is at most
    |p|_1 + |q|_1, so the entry enters the bounds below with that 1-norm
    and the larger of its parts' degrees.

    Each row is taken as its numerators over the lcm of its entries'
    denominators (``_numerators``), so every entry has integer coefficients.
    A bordered determinant's permutation expansion takes one entry from each
    row and each of its columns, so its degree in parameter p is at most
    D_p, the sum over the rows of the largest degree in p of an entry of the
    row (any column), and also the same sum over the shared columns plus the
    largest such sum over a border block; the smaller one is used.  A
    coefficient of the determinant is its mean times a monomial's inverse
    over the unit torus |p| = 1, where an entry is at most its coefficient
    1-norm in absolute value.  So by Hadamard's inequality every coefficient
    is at most sqrt(prod over the rows of the summed squared 1-norms of the
    row's entries), and likewise by columns, the shared ones times the
    largest product over a border block; B is the smaller one, rounded
    down, as the coefficients are integers.  With k = B.bit_length() + 1,
    each coefficient fits one balanced digit in [-2^(k-1), 2^(k-1)).  The
    parameters, in sorted order, are evaluated at
    p_i = 2^(k * prod_{j<i} (D_j + 1)), which gives each monomial of a
    determinant its own digit.  Evaluation is linear, so the packed
    determinants are the integer determinants of the packed entries,
    which ``_bareiss`` takes exactly, and ``_unpack`` reads each back.

    The packed integers have k * prod_p (D_p + 1) bits, dense in the
    monomials however sparse the determinant is, so their size grows
    exponentially with the number of distinct parameters.  A Vandermonde
    matrix in roots a, b, c, d, e packs its determinant into 5^5 digits.
    """
    terms = []
    scale = 1
    for row in rows:
        nums, s = _numerators(row)
        terms.append([_integer_terms(v) for v in nums])
        scale *= s
    names = sorted({name for row in terms for entry in row for key, _ in entry for name, _ in key})
    pos = {name: i for i, name in enumerate(names)}
    shared = len(rows) - r
    width = len(rows[0])
    lead = width - 2 * t
    by_rows = [0] * len(names)
    col_tops = [[0] * len(names) for _ in range(width)]
    col_squares = [0] * (width - t)
    row_product = 1
    for row in terms:
        top = [0] * len(names)
        norms = []
        for j, entry in enumerate(row):
            col = col_tops[j]
            norm = 0
            for key, z in entry:
                norm += abs(z)
                for name, e in key:
                    i = pos[name]
                    if e > top[i]:
                        top[i] = e
                    if e > col[i]:
                        col[i] = e
            norms.append(norm)
        if t:
            norms[lead:] = [p + q for p, q in zip(norms[lead : lead + t], norms[lead + t :])]
        squares = 0
        for j, norm in enumerate(norms):
            square = norm * norm
            squares += square
            col_squares[j] += square
        by_rows = [d + e for d, e in zip(by_rows, top)]
        row_product *= squares
    if t:
        col_tops[lead:] = [
            [max(p, q) for p, q in zip(cp, cq)]
            for cp, cq in zip(col_tops[lead : lead + t], col_tops[lead + t :])
        ]
    tops = list(zip(*col_tops))
    borders, border_tops = col_squares[shared:], [c[shared:] for c in tops]
    if r > 1:
        # Each border block enters the column bounds as one column.
        borders = [math.prod(borders[j : j + r]) for j in range(0, len(borders), r)]
        border_tops = [[sum(c[j : j + r]) for j in range(0, len(c), r)] for c in border_tops]
    bound = math.isqrt(min(row_product, math.prod(col_squares[:shared]) * max(borders)))
    degrees = [
        min(d, sum(c[:shared]) + max(b)) for d, c, b in zip(by_rows, tops, border_tops)
    ]
    k = bound.bit_length() + 1
    shift = {}
    stride = k
    for name, d in zip(names, degrees):
        shift[name] = stride
        stride *= d + 1
    a = [
        [sum(z << sum(shift[name] * e for name, e in key) for key, z in entry) for entry in row]
        for row in terms
    ]
    return a, lambda v: _unpack(v, k, names, degrees, scale)


def _integer_terms(v) -> Iterable[Tuple[tuple, int]]:
    """The (monomial key, int coefficient) pairs of an int or of a
    ``ParamPoly`` with integer coefficients."""
    if isinstance(v, ParamPoly):
        return v.numerators.items()
    return [((), v)] if v else ()


def _unpack(value: int, k: int, names: List[str], degrees: List[int], scale: int) -> ParamPoly:
    """Read a packed determinant back as a ``ParamPoly`` divided by ``scale``.

    Digit i, in balanced base 2^k, is the coefficient of the monomial whose
    exponents are the mixed-radix digits of i with radices D_p + 1.  Adding
    2^(k-1) to each of the n digits turns them into the plain base-2^k
    digits of one nonnegative integer below 2^(n k), which its binary
    string splits in linear time.  A value outside that range has something
    left over after the last digit, broke its bounds, and no polynomial is
    returned for it.
    """
    n = math.prod(d + 1 for d in degrees)
    zero = "1" + "0" * (k - 1)
    value += int(zero * n, 2)
    if value < 0 or value.bit_length() > n * k:
        raise ArithmeticError("packed determinant exceeds its coefficient and degree bounds")
    bits = bin(value)[2:].zfill(n * k)
    half = 1 << (k - 1)
    out = {}
    for index, end in enumerate(range(n * k, 0, -k)):
        chunk = bits[end - k : end]
        if chunk != zero:
            key = []
            rest = index
            for name, d in zip(names, degrees):
                rest, e = divmod(rest, d + 1)
                if e:
                    key.append((name, e))
            out[tuple(key)] = int(chunk, 2) - half
    return ParamPoly.from_integers(out, scale)


def _bareiss(a: List[list], steps: int, prev: int = 1) -> Optional[Tuple[int, int]]:
    """Eliminate the first ``steps`` columns of the integer rows ``a`` in
    place, continuing from the pivot ``prev``.

    Step k replaces each entry below and right of the pivot by
    (pivot * a_ij - a_ik * a_kj) // previous pivot, a division that is
    exact on any integer matrix.  After k steps from prev = 1, entry (i, j)
    of the trailing rows and columns is the minor on rows 0..k-1, i and
    columns 0..k-1, j of the rows as swapped (Sylvester's identity; Bareiss,
    Math. Comp. 22, 1968).  So n-1 steps on n rows leave in the last row
    the determinants of the first n-1 columns bordered by each later
    column, a square matrix being the case of one border; and a trailing
    block taken out after k steps, with prev its last pivot, eliminates
    on as if it had stayed in place: its last pivot is the determinant of
    the whole.  Returns the sign of the row swaps and the last pivot
    (``prev`` after no step), or None when a column has no pivot left, so
    that the eliminated columns are dependent and every such minor is 0.
    """
    n = len(a)
    width = len(a[0]) if a else 0
    sign = 1
    for k in range(steps):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return None
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            for j in range(k + 1, width):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
        prev = pivot
    return sign, prev


def _kernel(rows: List[list]) -> List[List[Tuple[int, Scalar]]]:
    """Kernel basis of ``rows``, one vector per free column, each as its
    nonzero (column, entry) pairs in column order, by one batch of
    ``_GaussJordan``.

    The vector of free column c is 1 at c, 0 at the other free columns,
    and minus the reduced echelon entry in column c of the pivot row at
    each pivot column: the reduced echelon form of the kernel read from
    the last column backwards, which is unique.  A column whose entries
    are all zero yields the plain unit vector, so distinguished generators
    survive untouched.
    """
    g, free = _batch(rows)
    last = g.last
    return [
        [(g.pivots[s], _quotient(-x, last)) for s, x in sorted(entries.items())] + [(c, Rat(1))]
        for c, entries in free
    ]


def reduced_echelon(rows: List[list]) -> List[List[Scalar]]:
    """The nonzero rows of the reduced row echelon form of ``rows``."""
    g, free = _batch(rows)
    last = g.last
    a = [[0] * len(rows[0]) for _ in g.pivots]
    for row, c in zip(a, g.pivots):
        row[c] = last
    for c, entries in free:
        for s, x in entries.items():
            a[s][c] = x
    zero = Rat(0)
    return [[_quotient(v, last) if v else zero for v in row] for row in a]


def _batch(rows: List[list]) -> Tuple[_GaussJordan, List[Tuple[int, dict]]]:
    """``rows`` eliminated in one batch, column by column: the elimination
    and each free column with its entries by step as they stand at the
    last pivot.

    All-int rows, as ``_canonical`` gives, are taken as they are.  Other
    rational rows are taken as their integer numerators, each over the lcm
    of its denominators (``_numerators``), which leaves the row space as it
    is; rows with a ``ParamPoly`` entry are taken over the parameter
    polynomials.  Zero rows are dropped.  These are the rows and the pivot
    rule of a row-by-row Gauss-Jordan loop, so every entry, and every
    inexact division that ``_quotient`` reports, is the same.
    """
    kinds = {type(v) for row in rows for v in row}
    if kinds <= {int}:
        a = rows
    elif ParamPoly not in kinds:
        a = [_numerators(row)[0] for row in rows]
    else:
        a = [[v if isinstance(v, ParamPoly) else ParamPoly.constant(v) for v in row] for row in rows]
    a = [row for row in a if any(row)]
    g = _GaussJordan(len(a))
    free = []
    for column in zip(*a) if a else [()] * (len(rows[0]) if rows else 0):
        entries = g.add({i: x for i, x in enumerate(column) if x})
        if entries is not None:
            free.append((g.width - 1, entries, len(g.steps), g.last))
    # Later steps only scale a free column, by the last pivot over its own.
    last = g.last
    return g, [
        (c, {s: x * last // then for s, x in entries.items()} if k < len(g.steps) else entries)
        for c, entries, k, then in free
    ]


class _GaussJordan:
    """One left-looking fraction-free Gauss-Jordan elimination, fed one
    column at a time; ``_kernel``, ``reduced_echelon`` and
    ``inverse_system`` all run it.

    Rows are numbered in order of arrival, and ``add_rows`` may append
    rows between columns as long as they are zero on every column taken
    so far.  ``add`` first replays each recorded pivot step on the new
    column: at the step with pivot p in row r, after the previous pivot
    prev (1 at the start), every other entry x becomes (p * x - f * x_r) //
    prev, f the pivot column's entry in that row as it stood, and x_r
    stays.  A left-looking elimination takes the same steps in the same
    order as a row-by-row one, so every entry is a minor of the scaled
    matrix up to sign and every division is exact, over the integers and
    over the parameter polynomials alike; a row appended later is one
    whose earlier entries were zero all along.  A step at which the
    column is zero in row r only scales it by p / prev, and a run of such
    steps by the last pivot over the first prev, so the replay divides
    once per run.  The column then takes a pivot in its first nonzero row
    that is not yet a pivot row, in the current order, which is swapped
    into place after the pivot rows, or it is free: zero on every other
    row, its entries on the pivot rows are last times minus its kernel
    vector's entries on their pivot columns, last the last pivot.
    Entries are ints or ``ParamPoly``s; from the first column with a
    ``ParamPoly`` entry on, every column is taken over the parameter
    polynomials, so no int is ever divided by one.
    """

    __slots__ = ("steps", "pivots", "width", "order", "position", "parametric")

    def __init__(self, nrows: int = 0):
        # (pivot row, pivot, previous pivot, the pivot column as it stood)
        self.steps: List[Tuple[int, Scalar, Scalar, dict]] = []
        self.pivots: List[int] = []  # the column of each step
        self.width = 0
        self.parametric = False
        # Rows by position: the pivot rows first, in order of their steps.
        self.order = list(range(nrows))
        self.position = list(range(nrows))

    @property
    def last(self) -> Scalar:
        """The last pivot, 1 before the first; pivot row s holds it on its
        pivot and it times the reduced echelon form elsewhere."""
        return self.steps[-1][1] if self.steps else 1

    def add_rows(self, count: int) -> int:
        """Append ``count`` rows, zero on every column taken so far, and
        return the number of the first."""
        start = len(self.order)
        self.order.extend(range(start, start + count))
        self.position.extend(range(start, start + count))
        return start

    def add(self, column: dict) -> Optional[dict]:
        """Eliminate one more column, given as its nonzero entries by row.
        Returns None when it takes a pivot; else it is free, and its
        entries, all on pivot rows, as they stand after every step so far,
        keyed by the step of their row."""
        if self.parametric or any(isinstance(x, ParamPoly) for x in column.values()):
            self.parametric = True
            column = {i: x if isinstance(x, ParamPoly) else ParamPoly.constant(x) for i, x in column.items()}
        v = self._replay(column)
        self.width += 1
        k = len(self.steps)
        position = self.position
        rows = [i for i in v if position[i] >= k]
        if not rows:
            return {position[i]: x for i, x in v.items()}
        r = min(rows, key=position.__getitem__)
        top, p = self.order[k], position[r]
        self.order[k], self.order[p] = r, top
        position[r], position[top] = k, p
        self.steps.append((r, v[r], self.last, v))
        self.pivots.append(self.width - 1)
        return None

    def _replay(self, column: dict) -> dict:
        """The column after every recorded step, nonzero entries by row."""
        v = column
        scale = 1  # v holds the column as it stood after step ``at``
        at = -1
        for s, (r, pivot, prev, f) in enumerate(self.steps):
            x = v.get(r)
            if not x:
                continue
            # The steps at + 1 .. s - 1 only scaled v by prev / scale, which
            # this step's one division by scale takes along.
            out = {}
            for i, y in v.items():
                if i != r:
                    z = f.get(i)
                    w = (pivot * y - z * x if z else pivot * y) // scale
                    if w:
                        out[i] = w
            for i, z in f.items():
                if i not in v:
                    out[i] = -z * x // scale
            out[r] = x if at == s - 1 else x * prev // scale
            v, scale, at = out, pivot, s
        if at != len(self.steps) - 1:
            last = self.last
            v = {i: y * last // scale for i, y in v.items()}
        return v


def det_in_x(p: List[list], q: List[list], free: List[list], den: Scalar = 1) -> UniPoly:
    """det(M(x)) / den as a polynomial in x of degree at most t, where
    M(x) has the t rows x * p_k - q_k on top of the x-free rows ``free``.

    The columns of M are taken as rows, with the u x-free columns first
    (sign (-1)^(t u)), so x sits in the last t columns only and any row
    may serve as a pivot.  One ``_bareiss`` phase over the u leading
    columns, with p and q carried as separate trailing columns, is shared
    by every node; at x = c = 0, 1, ..., t the trailing t x t block is then
    c * p' - q', which the same elimination finishes from the last shared
    pivot.  The node determinants stay integers, packed by ``_pack`` when
    a row has a ``ParamPoly`` entry; they are interpolated in Newton form
    and expanded by Horner's rule in integers, and only the t + 1
    coefficients are read back, by ``_polynomial``.  ``den`` must divide
    det(M(x)) exactly, as the closed-form Vandermonde determinants do.
    Coefficients free of parameters come back rational.
    """
    t, u = len(p), len(free)
    a, scale, unpack = _integers(list(zip(*free, *p, *q)), t)
    done = _bareiss(a, u)
    if done is None:
        return UniPoly.zero()
    sign, prev = done
    if t * u % 2:
        sign = -sign
    lin = [(row[u : u + t], row[u + t :]) for row in a[u:]]
    diffs = []
    for c in range(t + 1):
        block = [[c * x - y for x, y in zip(pr, qr)] for pr, qr in lin]
        node = _bareiss(block, t, prev)
        diffs.append(sign * node[0] * node[1] if node else 0)
    # The node values are values of det M(x), a polynomial in x with
    # coefficients in Z[params], scaled by the row scales and packed, so of
    # a polynomial in x with integer coefficients.  Every divided difference
    # over nodes one apart is then an integer, Stirling numbers times those
    # coefficients summed, and each // is exact.
    for j in range(1, t + 1):
        for i in range(t, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // j
    # Horner on the Newton form: times (x - k), plus the k-th difference.
    out = [diffs[t]]
    for k in range(t - 1, -1, -1):
        out = [diffs[k] - k * out[0]] + [lo - k * hi for lo, hi in zip(out, out[1:])] + [out[-1]]
    return _polynomial(out, scale, unpack, den)

