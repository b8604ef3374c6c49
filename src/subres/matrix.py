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
cofactors of the border.

``det_orders`` takes a family of nested determinants, one per order t: the
first w - t of a list of bottom rows, w their width, under top rows
0..t, either bordered or as x rows.  One elimination, resumed order by
order, takes the bottom rows as pivots, with column swaps, and each order
is finished from the top rows it leaves and the last pivot, by the border
or, for x in several rows, each linear in x, by ``_in_x``: the same
elimination finished at each integer value of x from the trailing block
alone, and the packed integers interpolated, so x never enters the scalar
domain and only the coefficients are read back.  The root-side
subresultants of every order come from it.  Its rows are packed once,
within the largest of the orders' bounds.

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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import DomainError
from .scalar import ParamPoly, Rat, Scalar, _collapse, _numerators, _quotient, as_scalar, is_rational
from .unipoly import UniPoly

Unpack = Optional[Callable[[int], ParamPoly]]  # None for rational rows
# (entry 1-norms by row, largest degree per parameter by row and by column)
# -> (squared coefficient bound, degree bound per parameter) of the
# determinants ``_pack`` reads back: ``_bordered_bound`` or ``_orders_bound``
Bound = Callable[[List[List[int]], List[List[int]], List[List[int]]], Tuple[int, List[int]]]


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
    The empty matrix has determinant one.  Rows of ints are taken as they
    are: the builders of integral rows, the Wronskian (``wronskian_det``)
    and the Macaulay matrices (``mv.macaulay._det``), divide by their own
    row scales.
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
    last shared pivot, as ``det_orders`` finishes its orders.  With r = 1 the
    block is one entry of the last row and already the determinant.  Only
    the last r rows are read, from column n-r on: the entries that
    ``_bareiss`` leaves up to date.  The empty matrix gives the one
    determinant 1.
    """
    a, scale, unpack = _integers(rows, _bordered_bound(r))
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
    """The one read-back of ``det_bordered`` and ``det_orders``: coefficient
    k is values[k] / (scale * den), or unpack(values[k]) / den when the
    rows were packed.  Rational rows and ``den`` give it from the integers,
    over scale times den's numerator; otherwise each coefficient is divided
    in the scalar domain, constant ``ParamPoly`` ones made rational."""
    if unpack is None and is_rational(den):
        (n,), d = _numerators([den])
        return UniPoly.from_integers([v * d for v in values], scale * n)
    return UniPoly(_collapse(v / den) for v in _read(values, scale, unpack))


def _integers(rows: List[list], bound: Bound) -> Tuple[List[List[int]], int, Unpack]:
    """Integer rows for ``_bareiss``, the product of their row scales, and,
    for rows with a ``ParamPoly`` entry, the map that reads an integer
    determinant of them back as a ``ParamPoly``, None for rational rows,
    whose determinant is the integer one over the scale.

    All-int rows, as the subresultant builders give, are copied as they
    are, with scale 1.  Other rational rows become their Python-int
    numerators over the lcm of their denominators (``_numerators``), on
    either backend.  Rows with a ``ParamPoly`` entry are packed by
    ``_pack`` within ``bound``, and its reader divides by the scale itself.
    """
    if all(type(v) is int for row in rows for v in row):
        return [list(row) for row in rows], 1, None
    if not all(is_rational(v) for row in rows for v in row):
        a, unpack = _pack(rows, bound)
        return a, 1, unpack
    a = []
    scale = 1
    for row in rows:
        ints, s = _numerators(row)
        a.append(ints)
        scale *= s
    return a, scale, None


def _pack(rows: List[list], bound: Bound) -> Tuple[List[List[int]], Callable[[int], ParamPoly]]:
    """Kronecker substitution for rows with a ``ParamPoly`` entry: the
    packed integer rows, and the map that reads a packed determinant back.

    Each row is taken as its numerators over the lcm of its entries'
    denominators (``_numerators``), so every entry has integer coefficients.
    ``bound`` takes each row's entry 1-norms, its largest degree in each
    parameter and each column's, and returns B^2 and D_p: a bound on the
    squared absolute value of every integer coefficient of the
    determinants that will be read back, and on their degree in each
    parameter p.  As the coefficients are integers, B may be rounded
    down.  With k = B.bit_length() + 1, each coefficient fits one balanced
    digit in [-2^(k-1), 2^(k-1)).  The parameters, in sorted order, are
    evaluated at p_i = 2^(k * prod_{j<i} (D_j + 1)), which gives each
    monomial of a determinant its own digit.  Evaluation is linear, so the
    packed determinants are the integer determinants of the packed
    entries, which ``_bareiss`` takes exactly, and ``_unpack`` reads each
    back.

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
    # Each monomial key is resolved once: to its (parameter position,
    # exponent) pairs here, and to its shift once the bound is known.
    keys = {key for row in terms for entry in row for key, _ in entry}
    names = _Names(sorted({name for key in keys for name, _ in key}))
    pos = {name: i for i, name in enumerate(names)}
    places = {key: [(pos[name], e) for name, e in key] for key in keys}
    width = len(rows[0])
    norms, tops = [], []
    col_tops = [[0] * len(names) for _ in range(width)]
    for row in terms:
        top = [0] * len(names)
        row_norms = []
        for j, entry in enumerate(row):
            col = col_tops[j]
            norm = 0
            for key, z in entry:
                norm += abs(z)
                for i, e in places[key]:
                    if e > top[i]:
                        top[i] = e
                    if e > col[i]:
                        col[i] = e
            row_norms.append(norm)
        norms.append(row_norms)
        tops.append(top)
    squares, degrees = bound(norms, tops, col_tops)
    k = math.isqrt(squares).bit_length() + 1
    strides = []
    stride = k
    for d in degrees:
        strides.append(stride)
        stride *= d + 1
    shift = {key: sum(strides[i] * e for i, e in place) for key, place in places.items()}
    a = [[sum(z << shift[key] for key, z in entry) for entry in row] for row in terms]
    return a, lambda v: _unpack(v, k, names, degrees, scale)


def _bordered_bound(r: int) -> Bound:
    """``_pack``'s bound for the determinants of the first n-r columns of n
    rows bordered by each later block of r columns: of the row side and
    the column side of each, the smaller.

    A bordered determinant's permutation expansion takes one entry from
    each row and each of its columns, so its degree in parameter p is at
    most the sum over the rows of the largest degree in p of an entry of
    the row (any column), and also the same sum over the shared columns
    plus the largest such sum over a border block.  A coefficient of the
    determinant is its mean times a monomial's inverse over the unit torus
    |p| = 1, where an entry is at most its coefficient 1-norm in absolute
    value.  So by Hadamard's inequality every coefficient is at most
    sqrt(prod over the rows of the summed squared 1-norms of the row's
    entries), and likewise by columns, the shared ones times the largest
    product over a border block.
    """

    def bound(
        norms: List[List[int]], tops: List[List[int]], col_tops: List[List[int]]
    ) -> Tuple[int, List[int]]:
        shared = len(norms) - r
        col_squares = [0] * len(col_tops)
        row_product = 1
        for row in norms:
            squares = 0
            for j, norm in enumerate(row):
                square = norm * norm
                squares += square
                col_squares[j] += square
            row_product *= squares
        by_rows = [sum(c) for c in zip(*tops)]
        columns = list(zip(*col_tops))
        borders, border_tops = col_squares[shared:], [c[shared:] for c in columns]
        if r > 1:
            # Each border block enters the column bounds as one column.
            borders = [math.prod(borders[j : j + r]) for j in range(0, len(borders), r)]
            border_tops = [[sum(c[j : j + r]) for j in range(0, len(c), r)] for c in border_tops]
        squares = min(row_product, math.prod(col_squares[:shared]) * max(borders))
        degrees = [
            min(d, sum(c[:shared]) + max(b)) for d, c, b in zip(by_rows, columns, border_tops)
        ]
        return squares, degrees

    return bound


def _integer_terms(v) -> Iterable[Tuple[tuple, int]]:
    """The (monomial key, int coefficient) pairs of an int or of a
    ``ParamPoly`` with integer coefficients."""
    if isinstance(v, ParamPoly):
        return v.numerators.items()
    return [((), v)] if v else ()


def _unpack(value: int, k: int, names: List[str], degrees: List[int], scale: int) -> ParamPoly:
    """Read a packed determinant back as a ``ParamPoly`` divided by ``scale``.

    Digit i, in balanced base 2^k, is the coefficient of the monomial whose
    exponents are the mixed-radix digits of i with radices D_p + 1
    (``_Names.keys``; ``_pack`` passes names that keep them).  Adding
    2^(k-1) to each of the n digits turns them into the plain base-2^k
    digits of one nonnegative integer below 2^(n k), which its binary
    string splits in linear time.  A value outside that range has something
    left over after the last digit, broke its bounds, and no polynomial is
    returned for it.  Only the digits up to the value's top one are read:
    a top digit m makes |value| at least 2^(m k) / 3, so m is at most
    |value|.bit_length() // k + 1.
    """
    n = min(math.prod(d + 1 for d in degrees), abs(value).bit_length() // k + 2)
    zero = "1" + "0" * (k - 1)
    value += int(zero * n, 2)
    if value < 0 or value.bit_length() > n * k:
        raise ArithmeticError("packed determinant exceeds its coefficient and degree bounds")
    bits = bin(value)[2:].zfill(n * k)
    half = 1 << (k - 1)
    keys = (names if isinstance(names, _Names) else _Names(names)).keys(degrees, n)
    out = {}
    for index, end in enumerate(range(n * k, 0, -k)):
        chunk = bits[end - k : end]
        if chunk != zero:
            out[keys[index]] = int(chunk, 2) - half
    return ParamPoly.from_integers(out, scale)


class _Names(list):
    """The sorted parameter names of one packing, with the monomial key of
    each digit index read back so far, which every read of the packing
    shares.  It is a list so that ``_unpack`` takes names as a list and can
    be called on its own.  A packing may have many digits, 5^5 for a
    Vandermonde matrix in five roots, so the keys are made only up to the
    highest digit read."""

    __slots__ = ("_keys",)

    def __init__(self, names: Iterable[str]):
        super().__init__(names)
        self._keys = [()]

    def keys(self, degrees: List[int], n: int) -> List[tuple]:
        """The keys of digits 0..n-1 at least.  Digit i is the monomial whose
        exponents are the mixed-radix digits of i with radices D_p + 1: for
        L <= i < L (D_p + 1), L the product of the radices before parameter
        p, it is the key of i mod L times p^(i // L)."""
        keys = self._keys
        if n <= len(keys):
            return keys
        stride = 1
        for name, d in zip(self, degrees):
            top = stride * (d + 1)
            for index in range(max(len(keys), stride), min(n, top)):
                e, rest = divmod(index, stride)
                keys.append(keys[rest] + ((name, e),))
            stride = top
        return keys


def _bareiss(
    a: List[list], steps: int, prev: int = 1, start: int = 0
) -> Optional[Tuple[int, int]]:
    """Eliminate the first ``steps`` columns of the integer rows ``a`` in
    place, continuing from the pivot ``prev``; with ``start`` > 0 the first
    ``start`` steps were taken by an earlier call, which returned ``prev``.

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

    Rows are scaled lazily.  A step with a_ik = 0 only scales row i by
    pivot / prev, and a run of such steps by its last pivot over its first
    prev, as in ``_GaussJordan._replay``; so a row whose entry in the pivot
    column is 0 is skipped, and ``since[i]``, the pivot its row was last
    brought up to date with, takes the run along.  A row that is touched
    becomes (pivot * a_ij - a_ik * a_kj) // since[i], the value above
    exactly, and a pivot row is brought up to date before it serves.  A
    pending factor is never 0, so the pivot search sees the same zeros.
    On return the rows from ``steps`` on are up to date on the columns
    from ``steps`` on, and these are the only entries that a caller may
    read or resume from; earlier columns of later rows are left stale.
    """
    n = len(a)
    width = len(a[0]) if a else 0
    sign = 1
    since = [prev] * n
    for k in range(start, steps):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return None
            a[k], a[p] = a[p], a[k]
            since[k], since[p] = since[p], since[k]
            sign = -sign
        row_k = a[k]
        then = since[k]
        if then != prev:
            for j in range(k, width):
                row_k[j] = row_k[j] * prev // then
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                then = since[i]
                for j in range(k + 1, width):
                    row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // then
                since[i] = pivot
        prev = pivot
    for i in range(steps, n):
        then = since[i]
        if then != prev:
            row_i = a[i]
            for j in range(steps, width):
                row_i[j] = row_i[j] * prev // then
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


def _in_x(lin: List[Tuple[list, list]], prev: int) -> List[int]:
    """The t+1 coefficients in x of the determinant that an elimination
    with last pivot ``prev`` leaves in the t x t block x p_k - q_k, given
    as the pairs (p_k, q_k) of ``lin``: the block is finished by
    ``_bareiss`` at x = 0, 1, ..., t, and the node values are interpolated
    in Newton form and expanded by Horner's rule, all in integers."""
    t = len(lin)
    diffs = []
    for c in range(t + 1):
        block = [[c * x - y for x, y in zip(pr, qr)] for pr, qr in lin]
        node = _bareiss(block, t, prev)
        diffs.append(node[0] * node[1] if node else 0)
    # The node values are values of the determinant, a polynomial in x with
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
    return out


def det_orders(
    bottom: List[list],
    top: List[list],
    dens: Dict[int, Scalar],
    borders: Optional[List[int]] = None,
    c: int = 1,
) -> Dict[int, UniPoly]:
    """det(M_t) / dens[t] as a polynomial in x for each order t in
    ``dens``, all from one elimination.  With w the width of the rows, M_t
    is the first w - t rows of ``bottom`` on top of

    - with ``borders``, the rows ``top`` 0..t, bordered by the column
      sum_k x^k borders[k] e_k, zero on the bottom rows;
    - without, the t rows x c top_k - top_(k+1), k < t.

    Each M_t is square, and a lower order takes more bottom rows and fewer
    top rows, so the matrices are nested.  The rows are taken as columns
    (packed by ``_pack`` when an entry is a ``ParamPoly``, within the
    bounds of ``_orders_bound``), and one ``_bareiss`` elimination,
    resumed order by order, takes the bottom rows in order as pivots, each
    in the first column left where it is nonzero; a swap of columns flips
    the sign.  After the w - t pivots of M_t, the top rows 0..t hold, on
    the t columns left, the minors that the rest of the elimination of M_t
    would see, so M_t is finished from them and the last pivot alone
    (Sylvester's identity, as in ``_dets``).  A border entry is borders[k]
    times that pivot, as the bottom rows are zero in the border, so the
    border is never carried: the t + 1 coefficients, one border entry
    each, come from one more ``_bareiss`` of t steps.  The x rows are
    finished at x = 0, ..., t by ``_in_x``.  Lower orders read fewer top
    rows, and only those are carried on.  A bottom row with no nonzero
    entry left makes every lower order 0.  Each ``dens[t]`` must divide
    det(M_t) exactly, as in ``det_bordered``.  The rows must be integral,
    ints or ``ParamPoly``s with integer coefficients: the orders take
    different rows, so no row scale could be divided back for all of them.
    """
    width, nb = len(top[0]), len(bottom)
    orders = sorted(dens, reverse=True)
    a, scale, unpack = _integers(bottom + top, _orders_bound(nb, width, orders, borders, c))
    cols = [list(col) for col in zip(*a)]
    out = {t: UniPoly.zero() for t in reversed(orders)}
    sign, prev, done = 1, 1, 0
    for i, t in enumerate(orders):
        s = width - t
        step = _bareiss(cols, s, prev, done)
        if step is None:
            break
        sign, prev, done = sign * step[0], step[1], s
        left = cols[s:]
        if borders is None:
            values = _in_x(
                [
                    ([c * row[nb + k] for row in left], [row[nb + k + 1] for row in left])
                    for k in range(t)
                ],
                prev,
            )
        else:
            block = [
                [row[nb + k] for row in left] + [0] * k + [borders[k] * prev] + [0] * (t - k)
                for k in range(t + 1)
            ]
            end = _bareiss(block, t, prev)
            values = [end[0] * v for v in block[t][t:]] if end else [0] * (t + 1)
        out[t] = _polynomial([sign * v for v in values], scale, unpack, dens[t])
        if i + 1 < len(orders):
            keep = nb + orders[i + 1] + 1
            for row in cols:
                del row[keep:]
    return out


def _orders_bound(
    nb: int, width: int, orders: List[int], borders: Optional[List[int]], c: int
) -> Bound:
    """``_pack``'s bound for the determinants of ``det_orders``: the largest
    over the orders of the row side of M_t, the product over its rows of
    the summed squared entry 1-norms, and, for each parameter, the sum over
    its rows of the largest degree; the column side is not used.  A top row
    counts its border entry; an x row x c top_k - top_(k+1) counts c
    |top_k| + |top_(k+1)| for an entry, as over the unit torus in x, and
    the larger of the two degrees."""

    def bound(
        norms: List[List[int]], tops: List[List[int]], col_tops: List[List[int]]
    ) -> Tuple[int, List[int]]:
        squares = [sum(n * n for n in row) for row in norms[:nb]]
        if borders is None:
            rows = [
                sum((c * p + q) ** 2 for p, q in zip(pr, qr))
                for pr, qr in zip(norms[nb:], norms[nb + 1 :])
            ]
            degs = [[max(p, q) for p, q in zip(dp, dq)] for dp, dq in zip(tops[nb:], tops[nb + 1 :])]
        else:
            rows = [sum(n * n for n in row) + b * b for row, b in zip(norms[nb:], borders)]
            degs = tops[nb:]
        most, degrees = 0, [0] * len(tops[0])
        for t in orders:
            s, used = width - t, t if borders is None else t + 1
            most = max(most, math.prod(squares[:s]) * math.prod(rows[:used]))
            sums = [sum(col) for col in zip(*tops[:s], *degs[:used])]
            degrees = [max(d, e) for d, e in zip(degrees, sums)]
        return most, degrees

    return bound
