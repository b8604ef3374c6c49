"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and shares no code path with the
package: determinants by cofactor expansion, Hilbert counting through a
power series and by enumerating exponents, confluent Vandermonde entries
by their binomial formula, Hermite interpolation through the bordered
determinant, and a tiny dense Gaussian solver.  Slow is fine; different is the point.

The subresultant determinants are also kept in the form the package used
before it took them by one bordered elimination: rebuilt at x = 0, ..., t,
each node's matrix eliminated from scratch, and interpolated by
``det_at_nodes``, over matrices from the Taylor-recursion Wronskian below.
Their JSON must match the package's byte for byte.

Likewise the root-set closed forms are kept as the package built them
before each set derived them once: the monic product, the Vandermonde
determinant, and a Hermite basis polynomial per call, with a fresh
``fiki`` product for every term; the confluent inverse, ``vprime``, the
order d-1 interpolant and the order-1 pole formula on top of them.  Their
pole weights are the composition sums the paper displays, where the
package multiplies one truncated series per root.

Dual functionals are applied to multiples x^alpha h by expanding the
multiple and translating it to the functional's point term by term, in
rationals, where the package reads integer binomial tables and translates
h alone.

The dual-basis quotient is kept as the package formed it before it
evaluated each root once into integer rows with known scales
(``poisson_by_matrices``): V_T and O_S as the public rational matrices
``dual_vandermonde`` and ``dual_wronskian`` build them, each determinant
read by ``det_exact``.

Kernels and reduced echelon forms are kept as the package eliminated them
before it took them column by column (``gauss_jordan_by_rows``): one
row-by-row fraction-free Gauss-Jordan loop over the whole matrix.

``RatParamPoly`` is the parameter polynomial as the package held it before
it moved to int numerators over one denominator: one rational per term,
every operation in rationals.  ``CoeffUniPoly`` and ``coeff_taylor`` are the
univariate polynomial and its Taylor coefficients as the package had them
before the same move: a tuple of scalar coefficients, every operation
coefficient by coefficient in the scalar domain.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb

from subres import (
    DomainError,
    ExactMatrix,
    MultiPoly,
    MultiRootSet,
    ParamPoly,
    Rat,
    UniPoly,
    det_exact,
    param,
    taylor_coeff,
)
from subres.scalar import as_scalar, is_rational


def det_cofactor(rows):
    """Cofactor expansion along the first row; rows is a list of lists."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return Rat(1)
    if n == 1:
        return rows[0][0]
    total = Rat(0)
    for j in range(n):
        entry = rows[0][j]
        if entry == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        piece = entry * det_cofactor(minor)
        total = total - piece if j % 2 else total + piece
    return total


def matrix_rows(m: ExactMatrix):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def series_hilbert(degrees, t):
    """Coefficient of z^t in prod (1-z^Di) / (1-z)^len(degrees)."""
    if t < 0:
        return 0
    bound = t + 1
    series = [1] + [0] * t
    for d in degrees:
        nxt = series[:]
        for k in range(d, bound):
            nxt[k] -= series[k - d]
        series = nxt
    # divide len(degrees) times by (1-z): running prefix sums
    for _ in degrees:
        for k in range(1, bound):
            series[k] += series[k - 1]
    return series[t]


def enumerated_hilbert(degrees, t):
    """Count alpha in N^n with |alpha| <= t, alpha_i < D_i for i <= n and
    t - |alpha| < D_{n+1} by running through every such alpha."""
    first, last = degrees[:-1], degrees[-1]
    return sum(
        1 for alpha in iproduct(*(range(d) for d in first)) if sum(alpha) <= t and t - sum(alpha) < last
    )


def solve_gauss(rows, rhs):
    """Solve a square exact system by plain Gaussian elimination."""
    n = len(rows)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def vandermonde_binomial(a: MultiRootSet, u: int):
    """Confluent Vandermonde rows: block i, column j of row k is binom(k,j) alpha_i^(k-j)."""
    return [
        [comb(k, j) * alpha ** (k - j) if k >= j else Rat(0) for alpha, d in a for j in range(d)]
        for k in range(u)
    ]


def hermite_bordered(a: MultiRootSet, data) -> UniPoly:
    """Interpolant via the bordered determinant: det(V) p = -det([V | x-col; y-row | 0])."""
    d = a.total
    v = vandermonde_binomial(a, d)
    x = param("x")
    rows = []
    for k in range(d):
        rows.append(v[k] + [x ** k])
    yrow = []
    for i, (_, mult) in enumerate(a, start=1):
        for j in range(mult):
            yrow.append(data[(i, j)])
    rows.append(yrow + [Rat(0)])
    bordered = det_cofactor(rows)
    detv = det_cofactor(v)
    quotient = (-bordered) / detv
    if not isinstance(quotient, ParamPoly):
        return UniPoly([quotient])
    coeffs = {}
    for key, c in quotient.terms.items():
        names = dict(key)
        assert set(names) <= {"x"}
        coeffs[names.get("x", 0)] = c
    top = max(coeffs, default=0)
    return UniPoly([coeffs.get(k, Rat(0)) for k in range(top + 1)])


def lagrange_interpolant(points, values):
    """Plain Lagrange interpolation for simple nodes."""
    total = UniPoly([Rat(0)])
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = UniPoly([yi])
        for j, xj in enumerate(points):
            if i == j:
                continue
            term = term * UniPoly([-xj / (xi - xj), Rat(1) / (xi - xj)])
        total = total + term
    return total


def monomials_of_degree_naive(nvars, degree):
    """All exponent vectors of the given total degree, unordered generation."""
    return [v for v in iproduct(range(degree + 1), repeat=nvars) if sum(v) == degree]


def nullspace_gauss_jordan(rows, ncols):
    """Kernel basis by Gauss-Jordan over the fractions, one vector per free
    column: 1 there, 0 on the other free columns, minus the reduced entry
    on each pivot column."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [Rat(0)] * ncols
            v[c] = Rat(1)
            for i, pc in enumerate(pivots):
                v[pc] = -m[i][c]
            basis.append(v)
    return basis


def gauss_jordan_by_rows(rows):
    """The row-by-row fraction-free Gauss-Jordan loop that ``matrix``
    eliminated its kernels and echelon forms with before it took them
    column by column: the rows as it left them, the pivot columns and the
    last pivot.  Rows are scaled as ``matrix._batch`` scales them, zero
    rows dropped, and at pivot p every other row becomes (p * row -
    row[c] * pivot_row) // prev."""
    from subres.scalar import _numerators

    kinds = {type(v) for row in rows for v in row}
    if kinds <= {int}:
        a = [list(row) for row in rows]
    elif ParamPoly not in kinds:
        a = [_numerators(row)[0] for row in rows]
    else:
        a = [[v if isinstance(v, ParamPoly) else ParamPoly.constant(v) for v in row] for row in rows]
    a = [row for row in a if any(row)]
    pivots, prev = [], 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot = a[r][c]
        for i in range(len(a)):
            if i != r:
                f = a[i][c]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[r])]
        pivots.append(c)
        prev = pivot
    return a, pivots, prev


def kernel_by_rows(rows):
    """``matrix._kernel`` read from ``gauss_jordan_by_rows``."""
    from subres.scalar import _quotient

    a, pivots, last = gauss_jordan_by_rows(rows)
    basis = []
    for c in range(len(rows[0]) if rows else 0):
        if c not in pivots:
            pairs = [(pc, _quotient(-row[c], last)) for row, pc in zip(a, pivots) if row[c]]
            basis.append(pairs + [(c, Rat(1))])
    return basis


def reduced_echelon_by_rows(rows):
    """``matrix.reduced_echelon`` read from ``gauss_jordan_by_rows``."""
    from subres.scalar import _quotient

    a, pivots, last = gauss_jordan_by_rows(rows)
    return [[_quotient(v, last) if v else Rat(0) for v in row] for row in a[: len(pivots)]]


def _local_coefficients(g, point):
    """Coefficients of g(point + y), by the binomial expansion of each term."""
    out = {}
    for gamma, c in g.terms.items():
        for alpha in iproduct(*(range(e + 1) for e in gamma)):
            term = c
            for e, a, x in zip(gamma, alpha, point):
                term = term * comb(e, a) * x ** (e - a)
            out[alpha] = out.get(alpha, Rat(0)) + term
    return out


def functional_of_multiple(func, h, alpha):
    """L(x^alpha h): x^alpha h expanded, translated to L's point term by
    term (``_local_coefficients``) and read off by L's coefficients."""
    multiple = MultiPoly(
        h.n, {tuple(a + g for a, g in zip(alpha, gamma)): c for gamma, c in h.terms.items()}
    )
    local = _local_coefficients(multiple, func.point.coords)
    total = Rat(0)
    for expo, c in func.terms:
        total = total + c * local.get(expo, Rat(0))
    return total


def poisson_by_matrices(sys, t, s_cols, basis, sets):
    """factor * det_exact(O_S) / det_exact(V_T), O_S stacked from the rows
    of S and T* over the dual Wronskian of f_(n+1) on R, factor the
    product of the leading-form subresultants of the free degrees."""
    from subres.mv.duality import dual_vandermonde, dual_wronskian
    from subres.mv.macaulay import leading_form_subres

    s_list = [tuple(g) for g in s_cols]
    det_vt = det_exact(dual_vandermonde(sets.T.monomials, basis))
    o_s = ExactMatrix(
        dual_vandermonde(s_list + list(sets.T_star.monomials), basis).rows
        + dual_wronskian(sys.polys[-1], sets.R.monomials, basis).rows
    )
    factor = Rat(1)
    forms = sys.leading_forms()
    for j in range(max(0, t - sys.degrees[-1] + 1), t + 1):
        factor = factor * leading_form_subres(forms, sys.degrees[:-1], j, sets.tj[j].monomials)
    return factor * det_exact(o_s) / det_vt


def _up_to_degree(n, order):
    monos = [v for v in iproduct(range(order + 1), repeat=n) if sum(v) <= order]
    return sorted(monos, key=lambda v: (sum(v), tuple(-e for e in v)))


def inverse_system_dialytic(generators, point, order_bound=None):
    """The local dual space by Macaulay's dialytic method (Dayton-Zeng,
    ISSAC 2005): at each order k the kernel of the matrix whose rows are
    y^beta g(point + y), |beta| <= k, over all monomials of degree <= k.

    Returns (functionals, truncated, order_stabilized) as ``inverse_system``
    does, with the same order bound, stall rule and truncation past the
    degree product.
    """
    from subres.mv.duality import DualFunctional, Point

    point = Point(point)
    n = point.n
    local = [_local_coefficients(g, point.coords) for g in generators]
    bezout = 1
    for g in generators:
        bezout *= max(max(sum(e) for e in g.terms), 1)
    if order_bound is None:
        order_bound = bezout

    def functionals(kernel, columns):
        funcs = [DualFunctional(point, {e: c for e, c in zip(columns, v) if c != 0}) for v in kernel]
        funcs.sort(key=lambda f: (f.order, sum(f.terms[-1][0]), tuple(-e for e in f.terms[-1][0])))
        return funcs

    prev = None
    for order in range(order_bound + 1):
        columns = _up_to_degree(n, order)
        rows = []
        for g_p in local:
            for beta in columns:
                shifted = {tuple(a + b for a, b in zip(alpha, beta)): c for alpha, c in g_p.items()}
                rows.append([shifted.get(alpha, Rat(0)) for alpha in columns])
        kernel = nullspace_gauss_jordan(rows, len(columns))
        if prev is not None and len(kernel) == len(prev[0]):
            return functionals(*prev), False, order - 1
        if len(kernel) > bezout:
            return functionals(kernel, columns), True, None
        prev = (kernel, columns)
    return functionals(*prev), True, None


def wronskian_taylor(h: UniPoly, a: MultiRootSet, u: int) -> ExactMatrix:
    """Generalized Wronskian rows by Taylor expansion: row 0 expands h
    around each root, and row k+1 follows from row k as
    z p = (z - alpha) p + alpha p."""
    blocks = [[taylor_coeff(h, alpha, j) for j in range(d)] for alpha, d in a]
    rows = []
    for k in range(u):
        if k:
            blocks = [
                [
                    (block[j - 1] if j else Rat(0)) + (alpha * block[j] if block[j] else Rat(0))
                    for j in range(d)
                ]
                for (alpha, d), block in zip(a, blocks)
            ]
        rows.append([v for block in blocks for v in block])
    return ExactMatrix(rows)


def vandermonde_taylor(a: MultiRootSet, u: int) -> ExactMatrix:
    return wronskian_taylor(UniPoly([1]), a, u)


def det_at_nodes(build, deg: int, den=1) -> UniPoly:
    """det(build(x)) / den as a polynomial in x of degree at most ``deg``:
    the determinant of the matrix ``build(c)`` at each x = c = 0, ..., deg,
    interpolated in Newton form.  Parameter-free coefficients come back
    rational."""
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


def sres_coeff_interpolated(f: UniPoly, g: UniPoly, t: int) -> UniPoly:
    """The Sylvester-type determinant with the polynomials themselves in
    its last column, at x = 0, ..., t."""
    d, e = int(f.degree), int(g.degree)
    polys = [UniPoly.monomial(e - t - 1 - i) * f for i in range(e - t)]
    polys += [UniPoly.monomial(d - t - 1 - i) * g for i in range(d - t)]
    scalar_rows = [[p.coeff(k) for k in range(d + e - t - 1, t, -1)] for p in polys]

    def build(c):
        return ExactMatrix([row + [p(c)] for row, p in zip(scalar_rows, polys)])

    return det_at_nodes(build, t)


def sres_roots_interpolated(a: MultiRootSet, b: MultiRootSet, t: int, variant: str) -> UniPoly:
    """The three root-side layouts, each rebuilt at x = 0, ..., t."""
    d, e = a.total, b.total
    u = d + e - t
    zero_b = [Rat(0)] * e
    va = vandermonde_taylor(a, u).rows
    vb = vandermonde_taylor(b, u).rows
    paired = [ra + rb for ra, rb in zip(va, vb)]
    den = vandermonde_det_product(a) * vandermonde_det_product(b)
    if variant == "compact":
        g = poly_product(b)
        bottom = [row + [Rat(0)] for row in wronskian_taylor(g, a, d - t).rows]

        def build(c):
            return ExactMatrix([row + [c**k] for k, row in enumerate(va[: t + 1])] + bottom)

        det = det_at_nodes(build, t, vandermonde_det_product(a))
        return -det if (d - t) % 2 else det
    if variant == "block":
        top = [row + zero_b for row in va[: t + 1]]
        bottom = [row + [Rat(0)] for row in paired]

        def build(c):
            return ExactMatrix([row + [c**k] for k, row in enumerate(top)] + bottom)

        det = det_at_nodes(build, t, den)
        return -det if e % 2 or (d - t) % 2 else det

    def build(c):
        w = wronskian_taylor(UniPoly([c, -1]), a, t).rows
        return ExactMatrix([row + zero_b for row in w] + paired)

    det = det_at_nodes(build, t, den)
    return -det if ((d - t) * e) % 2 else det


def extremal_sres(alpha, beta, m: int, n: int, t: int) -> UniPoly:
    """Sres_t((x - alpha)^m, (x - beta)^n) for 0 <= t < m <= n in the
    Bernstein basis (x - alpha)^j (x - beta)^(t-j) (Bostan, D'Andrea, Krick,
    Szanto and Valdettaro, "Subresultants in multiple roots: an extremal
    case", Linear Algebra Appl., 2017).  With r = m-t-1 and s = n-t-1 it is

        (alpha - beta)^((m-t)(n-t)) K sum_{j<=t} C(s+j, j) C(r+t-j, t-j)
            (x - alpha)^j (x - beta)^(t-j),

    K the product over 1 <= i <= r, 1 <= j <= t of (s+i+j) / (i+j).  No
    determinant is taken; at t = 0 it is the resultant (alpha - beta)^(mn).
    """
    r, s = m - t - 1, n - t - 1
    k = Rat(1)
    for i in range(1, r + 1):
        for j in range(1, t + 1):
            k = k * Rat(s + i + j, i + j)
    xa, xb = UniPoly([-alpha, Rat(1)]), UniPoly([-beta, Rat(1)])
    out = UniPoly.zero()
    for j in range(t + 1):
        out = out + xa**j * xb ** (t - j) * Rat(comb(s + j, j) * comb(r + t - j, t - j))
    return out * ((alpha - beta) ** ((m - t) * (n - t)) * k)


def poly_product(a: MultiRootSet) -> UniPoly:
    out = UniPoly([1])
    for root, mult in a:
        out = out * UniPoly([-root, 1]) ** mult
    return out


def vandermonde_det_product(a: MultiRootSet):
    acc = Rat(1)
    pairs = a.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ai, di = pairs[i]
            aj, dj = pairs[j]
            acc = acc * (aj - ai) ** (di * dj)
    return acc


def fiki_product(a: MultiRootSet, i: int, k: int) -> UniPoly:
    """(x - alpha_i)^k prod_{j != i} (x - alpha_j)^(d_j), multiplied out afresh."""
    alpha_i = a.pairs[i - 1][0]
    out = UniPoly([-alpha_i, 1]) ** k
    for idx, (alpha, d) in enumerate(a, start=1):
        if idx != i:
            out = out * UniPoly([-alpha, 1]) ** d
    return out


def hermite_weight_sum(a: MultiRootSet, i: int, k: int):
    """w_k of the Hermite basis of root i: over the compositions of k across
    the other roots, the binomials over the powers of the root
    differences."""
    pairs = a.pairs
    others = [idx for idx in range(len(pairs)) if idx != i - 1]
    alpha_i = pairs[i - 1][0]
    total = Rat(0)
    for ks in monomials_of_degree_naive(len(others), k):
        term = Rat(1)
        for idx, kl in zip(others, ks):
            alpha_l, d_l = pairs[idx]
            term = term * comb(d_l - 1 + kl, kl)
            if kl:
                term = term / (alpha_i - alpha_l) ** kl
        total = total + term
    return total


def pole_weight_sum(alpha, slots, k: int):
    """w_k of the slots (gamma, m, p) as a composition sum: over the
    compositions (k_l) of k, prod_l C(m_l-1+k_l, k_l) (alpha - gamma_l)^(p_l-k_l),
    each term's positive powers multiplied out before its negative ones
    divide once."""
    total = Rat(0)
    for ks in monomials_of_degree_naive(len(slots), k):
        num, den = Rat(1), Rat(1)
        for (gamma, m, p), kl in zip(slots, ks):
            num = num * comb(m - 1 + kl, kl)
            if kl < p:
                num = num * (alpha - gamma) ** (p - kl)
            elif kl > p:
                den = den * (alpha - gamma) ** (kl - p)
        total = total + num / den
    return total


def sres_one_sum(a: MultiRootSet, b: MultiRootSet, i: int, k: int, g_at):
    """S_k of the order-1 pole formula as the paper displays it: over the
    compositions of k across the other roots of A and the roots of B, the
    binomials over the powers of the root differences, each term times
    g(alpha_i)^(d_i - 1) so that its divisions stay exact for symbolic
    roots."""
    if k < 0:
        return Rat(0)
    alpha_i, d_i = a.pairs[i - 1]
    slots = [(root, mult, True) for idx, (root, mult) in enumerate(a.pairs) if idx != i - 1]
    slots += [(root, mult, False) for root, mult in b.pairs]
    g_pow = g_at ** (d_i - 1) if d_i > 1 else Rat(1)
    total = Rat(0)
    for ks in monomials_of_degree_naive(len(slots), k):
        num = g_pow
        den_b = Rat(1)
        den_a = Rat(1)
        for (root, mult, in_a), kl in zip(slots, ks):
            num = num * comb(mult - 1 + kl, kl)
            if kl:
                d_fac = (alpha_i - root) ** kl
                if in_a:
                    den_a = den_a * d_fac
                else:
                    den_b = den_b * d_fac
        term = num / den_b if den_b != 1 else num
        term = term / den_a if den_a != 1 else term
        total = total + term
    return total


def basic_hermite_per_call(a: MultiRootSet, i: int, j: int) -> UniPoly:
    """sum_k (-1)^k w_k fiki(i, j+k), k < d_i - j, over f_i(alpha_i)."""
    alpha_i, d_i = a.pairs[i - 1]
    fi_at = fiki_product(a, i, 0)(alpha_i)
    out = UniPoly.zero()
    for k in range(d_i - j):
        w = hermite_weight_sum(a, i, k)
        if not w:
            continue
        if k % 2:
            w = -w
        out = out + fiki_product(a, i, j + k) * w
    return UniPoly([c / fi_at for c in out.coeffs])


def hermite_interpolate_per_call(a: MultiRootSet, data) -> UniPoly:
    out = UniPoly.zero()
    for (i, j), y in data.items():
        if y:
            out = out + basic_hermite_per_call(a, i, j) * y
    return out


def confluent_inverse_per_call(a: MultiRootSet) -> ExactMatrix:
    d = a.total
    rows = []
    for i in range(1, a.m + 1):
        for j in range(a.pairs[i - 1][1]):
            p = basic_hermite_per_call(a, i, j)
            rows.append([p.coeff(k) for k in range(d)])
    return ExactMatrix(rows)


def vprime_per_call(a: MultiRootSet) -> ExactMatrix:
    d = a.total
    rows = [[Rat(0)] * d for _ in range(d)]
    offset = 0
    for i in range(1, a.m + 1):
        alpha_i, d_i = a.pairs[i - 1]
        fi = fiki_product(a, i, 0)
        for r in range(d_i):
            for c in range(r, d_i):
                rows[offset + r][offset + c] = taylor_coeff(fi, alpha_i, c - r)
        offset += d_i
    return ExactMatrix(rows)


def sres_dm1_hermite_per_call(a: MultiRootSet, b: MultiRootSet) -> UniPoly:
    g = poly_product(b)
    data = {}
    for i, (alpha, d_i) in enumerate(a, start=1):
        for j in range(d_i):
            data[(i, j)] = taylor_coeff(g, alpha, j)
    return hermite_interpolate_per_call(a, data)


def sres_one_per_call(a: MultiRootSet, b: MultiRootSet) -> UniPoly:
    """The order-1 pole formula with g evaluated at every pair of roots and
    f_i(alpha_i) as a product of root differences."""
    d = a.total
    g = poly_product(b)
    total = UniPoly.zero()
    for i, (alpha_i, d_i) in enumerate(a, start=1):
        g_at = g(alpha_i)
        s1 = sres_one_sum(a, b, i, d_i - 1, g_at)
        s0 = sres_one_sum(a, b, i, d_i - 2, g_at) if d_i > 1 else Rat(0)
        lin = UniPoly([-alpha_i, 1]) * s1 + UniPoly([s0])
        scale = Rat(1)
        fi_at = Rat(1)
        for idx, (alpha_j, d_j) in enumerate(a, start=1):
            if idx != i:
                scale = scale * g(alpha_j) ** d_j
                fi_at = fi_at * (alpha_i - alpha_j) ** d_j
        term = lin * (scale / fi_at)
        if (d - d_i) % 2:
            term = -term
        total = total + term
    return total


class RatParamPoly:
    """Polynomial in named parameters held as a dict of rationals, keyed by
    sorted (name, exponent) tuples; coefficients that cancel are dropped."""

    def __init__(self, terms=None):
        self.terms = {k: Rat(c) for k, c in (terms or {}).items() if c}

    @staticmethod
    def _lift(other):
        if isinstance(other, RatParamPoly):
            return other
        return RatParamPoly({(): other})

    @staticmethod
    def _key_mul(a, b):
        d = dict(a)
        for name, e in b:
            d[name] = d.get(name, 0) + e
        return tuple(sorted(d.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in self._lift(other).terms.items():
            out[k] = out.get(k, Rat(0)) + c
        return RatParamPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatParamPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in self._lift(other).terms.items():
                k = self._key_mul(ka, kb)
                out[k] = out.get(k, Rat(0)) + ca * cb
        return RatParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = RatParamPoly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        """By a nonzero rational, or exactly by a polynomial: the quotient
        by repeated subtraction of the divisor times the quotient of the
        grlex-leading terms; None when a leading term does not divide."""
        if not isinstance(other, RatParamPoly):
            return RatParamPoly({k: c / other for k, c in self.terms.items()})
        names = sorted({n for p in (self, other) for k in p.terms for n, _ in k})

        def grlex(key):
            vec = tuple(dict(key).get(n, 0) for n in names)
            return (sum(vec), vec)

        dlead = max(other.terms, key=grlex)
        quo, work = RatParamPoly(), self
        while work.terms:
            lead = max(work.terms, key=grlex)
            exps = dict(lead)
            for name, e in dlead:
                exps[name] = exps.get(name, 0) - e
            if any(e < 0 for e in exps.values()):
                return None
            key = tuple(sorted((n, e) for n, e in exps.items() if e))
            mono = RatParamPoly({key: work.terms[lead] / other.terms[dlead]})
            quo, work = quo + mono, work - mono * other
        return quo

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    def __hash__(self):
        if set(self.terms) <= {()}:
            return hash(self.terms.get((), Rat(0)))
        return hash(tuple(sorted(self.terms.items())))

    def __str__(self):
        """The package's infix form: terms by descending total degree, then
        by descending exponent vector over the sorted names."""
        if not self.terms:
            return "0"
        names = sorted({n for k in self.terms for n, _ in k})

        def rank(key):
            return (sum(e for _, e in key), tuple(dict(key).get(n, 0) for n in names))

        text = ""
        for key in sorted(self.terms, key=rank, reverse=True):
            c = self.terms[key]
            mono = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in key)
            body = str(abs(c)) if not mono else mono if abs(c) == 1 else "%s*%s" % (abs(c), mono)
            text += (" - " if c < 0 else " + ") + body
        return text[3:] if text.startswith(" + ") else "-" + text[3:]


class CoeffUniPoly:
    """Dense univariate polynomial as a tuple of scalar coefficients,
    ascending, with no trailing zero; every operation works coefficient by
    coefficient in the scalar domain."""

    def __init__(self, coeffs=()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Rat(0)

    @staticmethod
    def _lift(other):
        if isinstance(other, CoeffUniPoly):
            return other
        if is_rational(other) or isinstance(other, ParamPoly):
            return CoeffUniPoly([other])
        return None

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return CoeffUniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return CoeffUniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, CoeffUniPoly):
            return CoeffUniPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return CoeffUniPoly()
        out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return CoeffUniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return CoeffUniPoly([c / other for c in self.coeffs])

    def __pow__(self, n):
        out = CoeffUniPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value):
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self):
        return CoeffUniPoly([k * c for k, c in enumerate(self.coeffs)][1:])


def coeff_taylor(p: CoeffUniPoly, a, j: int):
    """Coefficient of (x-a)^j in p, as the sum of c_k C(k, j) a^(k-j)."""
    if j < 0:
        raise DomainError("negative derivative order")
    acc = Rat(0)
    for k in range(j, len(p.coeffs)):
        c = p.coeffs[k]
        if not c:
            continue
        if k == j:
            acc = acc + c
        else:
            acc = acc + c * comb(k, j) * a ** (k - j)
    return acc
