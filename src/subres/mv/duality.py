"""Local dual spaces: differential functionals anchored at a point.

A functional is a rational combination of normalized partial derivative
evaluations at one point; normalization divides the alpha-th derivative by
alpha! so that applying d_alpha to x^gamma and evaluating at zero picks
out delta_{alpha,gamma}.  In local coordinates y = x - point, d_alpha
reads the coefficient of y^alpha.  The sigma operators lower derivative
exponents and witness closedness of a local dual space under "division"
by the variables; the integrals raise them, and ``inverse_system`` grows
the dual space order by order with them, on one resumable elimination
(``_Integration``) to which each order adds only the unknowns of the
functionals the order before it found.  Its result keeps the functionals
that elimination found (``primitive``: integer or parameter-polynomial
coefficients, the evaluation first) and builds the canonical reduced
echelon basis from them (``_canonical``) only when ``functionals`` is
read, as ``sres dual`` does.  The Poisson quotient does not depend on the
basis, so ``verify`` and ``mv`` take the primitive one and never build,
or refuse a point for, the canonical form.

The arithmetic runs on integer numerators over one integer denominator,
as ``_numerators`` makes them.  A point coordinate u/v expands through a
table of C(a, k) u^(a - k) v^k (``_binomial_tables``), so every term of
x^alpha shares the denominator prod_i v_i^alpha_i.  Every value L(f), in
``dual_eval``, in the dual Wronskian and Vandermonde matrices and in the
quotient of ``poisson``, comes from one evaluator, ``_values``.  It builds
each root's tables once per call, sums L(x^gamma) once per monomial and
root, reads no translate, and returns integer numerators with one scale
per polynomial and one per functional: L_j(f_i) = nums[i][j] /
(row_dens[i] * col_dens[j]).  The public matrices divide each numerator
back; the Poisson quotient keeps the integer rows and divides each
determinant once, and the same call gives the system battery its
annihilation numerators.  ``inverse_system`` reads translates (``_translate``)
instead, and its elimination runs on their integer numerators.  A
``ParamPoly`` coordinate or coefficient is scaled to integer coefficients
and goes through the same loops.  Every reader of the tables lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd, prod
from typing import Mapping, Optional, Sequence, Tuple

from ..combinat import canon_key
from ..errors import DomainError
from ..matrix import ExactMatrix, _GaussJordan, reduced_echelon
from ..multipoly import MultiPoly
from ..scalar import ParamPoly, Rat, Scalar, _content, _numerators, _quotient, as_scalar

Expo = Tuple[int, ...]


@dataclass(frozen=True)
class Point:
    coords: Tuple[Scalar, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(as_scalar(c) for c in coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __str__(self):
        return "(%s)" % ", ".join(map(str, self.coords))


@dataclass(frozen=True)
class DualFunctional:
    """Combination sum_alpha a_alpha d_alpha |_point, nonzero and anchored."""

    point: Point
    terms: Tuple[Tuple[Expo, Scalar], ...]

    def __init__(self, point, terms):
        if not isinstance(point, Point):
            point = Point(point)
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        clean = {}
        for expo, c in items:
            expo = tuple(expo)
            if len(expo) != point.n or any(not isinstance(e, int) or e < 0 for e in expo):
                raise DomainError("bad derivative exponent %r" % (expo,))
            c = as_scalar(c)
            if c:
                clean[expo] = clean.get(expo, Rat(0)) + c
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            raise DomainError("the zero functional has no representation")
        object.__setattr__(self, "point", point)
        object.__setattr__(
            self, "terms", tuple(sorted(clean.items(), key=lambda kv: canon_key(kv[0])))
        )

    @classmethod
    def _unchecked(cls, point: Point, terms: tuple) -> "DualFunctional":
        """The functional of ``terms`` as the constructor would leave them:
        nonzero scalars on distinct exponents in ``canon_key`` order.  No
        check is made; ``inverse_system`` and ``_canonical`` build them so."""
        func = object.__new__(cls)
        object.__setattr__(func, "point", point)
        object.__setattr__(func, "terms", terms)
        return func

    @property
    def order(self) -> int:
        return max(sum(e) for e, _ in self.terms)

    def is_evaluation(self) -> bool:
        zero = (0,) * self.point.n
        return len(self.terms) == 1 and self.terms[0][0] == zero and self.terms[0][1] == 1

    def __str__(self):
        parts = []
        for expo, c in self.terms:
            d = "d%s" % ",".join(map(str, expo)) if any(expo) else "1"
            parts.append("%s*%s" % (c, d) if c != 1 or d == "1" else d)
        return " + ".join(parts) + " at %s" % (tuple(str(c) for c in self.point.coords),)


def dual_eval(func: DualFunctional, f: MultiPoly) -> Scalar:
    """Apply the functional to a polynomial.  It reads no translate of f,
    so it checks ``inverse_system`` independently."""
    (nums,), (row_den,), (col_den,) = _values(f.n, [(func.point, [func])], [f.terms])
    return _quotient(nums[0], row_den * col_den)


def _values(n: int, groups: Sequence[Tuple], polys: Sequence[Mapping[Expo, Scalar]]) -> Tuple:
    """(nums, row_dens, col_dens) with L_j(f_i) = nums[i][j] / (row_dens[i]
    * col_dens[j]), for the polynomials f_i in n variables, given by their
    terms, and the functionals L_j of the groups (point, functionals), in
    order.

    Each L_j(x^gamma) is summed once per root, over the terms a_alpha
    d_alpha of L_j, as a_alpha C(gamma, alpha) point^(gamma - alpha) in
    integers from one set of the point's tables, lifted to the point's
    v^top scale; nums[i][j] combines them with f_i's coefficients.
    row_dens[i] is the lcm of f_i's coefficient denominators; col_dens[j]
    is the lcm of L_j's times v^top, v the point's coordinate denominators
    and top the largest exponents among the polynomials.  Numerators are
    ints, or ``ParamPoly``s with integer coefficients.
    """
    for point, _ in groups:
        if point.n != n:
            raise DomainError("functional in %d variables applied to %d" % (point.n, n))
    tops = [max((e[i] for f in polys for e in f), default=0) for i in range(n)]
    coefficients = [(list(f), _numerators(list(f.values()))) for f in polys]
    rows = [[] for _ in polys]
    col_dens = []
    for point, funcs in groups:
        tables, dens = _binomial_tables(point.coords, tops)
        powers = [[v**e for e in range(top + 1)] for v, top in zip(dens, tops)]
        scale = prod(p[-1] for p in powers)
        terms = []
        for func in funcs:
            a_nums, a_den = _numerators([a for _, a in func.terms])
            terms.append([(alpha, a) for (alpha, _), a in zip(func.terms, a_nums)])
            col_dens.append(a_den * scale)
        # L(x^gamma) for every functional, at the scale v^top; None where no
        # term of L reaches x^gamma, so that x^gamma's coefficient, maybe a
        # parameter, stays out of the sum, as it does from L(f).
        monomial: dict = {}
        for row, (gammas, (c_nums, _)) in zip(rows, coefficients):
            acc = [0] * len(terms)
            for gamma, c in zip(gammas, c_nums):
                values = monomial.get(gamma)
                if values is None:
                    # C(g, a) x^(g - a) is table[g][a] / v^g: lift to v^top
                    lift = prod(p[top - g] for p, top, g in zip(powers, tops, gamma))
                    values = []
                    for func_terms in terms:
                        total = None
                        for alpha, a in func_terms:
                            term = a
                            for table, g, k in zip(tables, gamma, alpha):
                                if k > g or not table[g][k]:
                                    break
                                term = term * table[g][k]
                            else:
                                total = term if total is None else total + term
                        values.append(None if total is None else total * lift)
                    monomial[gamma] = values
                acc = [x if v is None else x + c * v for x, v in zip(acc, values)]
            row.extend(acc)
    return rows, [d for _, (_, d) in coefficients], col_dens


def sigma_shift(func: DualFunctional, beta: Expo) -> Optional[DualFunctional]:
    """Lower every derivative exponent by beta; None when everything drops."""
    beta = tuple(beta)
    if len(beta) != func.point.n or any(not isinstance(e, int) or e < 0 for e in beta):
        raise DomainError("bad shift exponent %r" % (beta,))
    out = {}
    for alpha, c in func.terms:
        if all(a >= b for a, b in zip(alpha, beta)):
            out[tuple(a - b for a, b in zip(alpha, beta))] = c
    if not out:
        return None
    return DualFunctional(func.point, out)


def _binomial_tables(coords: Sequence[Scalar], tops: Sequence[int]) -> Tuple[list, list]:
    """(tables, dens) for the binomial expansion of each (x_i + y_i)^a, a up
    to tops[i], in integers.

    With x_i = u_i / v_i, v_i = dens[i], tables[i][a][k] = C(a, k)
    u_i^(a - k) v_i^k, so the coefficient of y_i^k is tables[i][a][k] /
    v_i^a, and the expansion of x^alpha has the one denominator
    prod_i v_i^alpha_i."""
    tables, dens = [], []
    for x, top in zip(coords, tops):
        (u,), v = _numerators([x])
        u_pow, v_pow = [1], [1]
        for _ in range(top):
            u_pow.append(u_pow[-1] * u)
            v_pow.append(v_pow[-1] * v)
        tables.append(
            [[comb(a, k) * u_pow[a - k] * v_pow[k] for k in range(a + 1)] for a in range(top + 1)]
        )
        dens.append(v)
    return tables, dens


def _translate(g: MultiPoly, point: Point) -> dict:
    """g(point + y) scaled to integers, by exponent of y, from the tables of
    the binomial expansion of each (x_i + y_i)^gamma_i: every term is lifted
    to one denominator, which is dropped, as no kernel or span depends on it."""
    tops = [max((e[i] for e in g.terms), default=0) for i in range(g.n)]
    tables, dens = _binomial_tables(point.coords, tops)
    nums, _ = _numerators(list(g.terms.values()))
    out: dict = {}
    for gamma, c in zip(g.terms, nums):
        partial = {(): c * prod(v ** (top - e) for v, top, e in zip(dens, tops, gamma))}
        for table, e in zip(tables, gamma):
            partial = {
                key + (k,): w * t for key, w in partial.items() for k, t in enumerate(table[e]) if t
            }
        for alpha, w in partial.items():
            out[alpha] = out.get(alpha, 0) + w
    return {alpha: w for alpha, w in out.items() if w}


def dual_wronskian(h: MultiPoly, monomials: Sequence[Expo], basis: DualBasis) -> ExactMatrix:
    """Rows indexed by monomials, columns by functionals; entry L(x^alpha h),
    read by ``_values`` from one table per root."""
    monomials = [tuple(e) for e in monomials]
    n = h.n
    for expo in monomials:
        if len(expo) != n or any(not isinstance(e, int) or e < 0 for e in expo):
            raise DomainError("bad exponent vector %r for %d variables" % (expo, n))
    multiples = [h.shift(alpha).terms for alpha in monomials]
    nums, row_dens, col_dens = _values(n, basis.groups, multiples)
    return ExactMatrix(
        [_quotient(v, r * c) for v, c in zip(row, col_dens)] for row, r in zip(nums, row_dens)
    )


def dual_vandermonde(monomials: Sequence[Expo], basis: DualBasis) -> ExactMatrix:
    """dual_wronskian of the constant 1: entry L(x^alpha)."""
    funcs = basis.functionals
    if not funcs:
        return ExactMatrix([[] for _ in monomials])
    return dual_wronskian(MultiPoly.constant(funcs[0].point.n, Rat(1)), monomials, basis)


@dataclass(frozen=True)
class InverseSystemResult:
    """Basis of the local dual space, with a truncation marker.

    ``primitive`` is the basis the integration found, in order of arrival:
    the evaluation first, then each functional as its kernel vector gives
    it, with integer or parameter-polynomial coefficients and no common
    content.  ``functionals`` is the canonical basis of the same span,
    built from it on first read (``_canonical``); only that read can
    refuse the point, with the ``DomainError`` of ``inverse_system``.
    ``dimension``, ``len`` and iteration read ``primitive``.  ``truncated``
    is set when the dimension was still growing at the order bound; the
    functionals then span only the bounded-order part.
    """

    primitive: Tuple[DualFunctional, ...]
    truncated: bool
    order_stabilized: Optional[int]

    @cached_property
    def functionals(self) -> Tuple[DualFunctional, ...]:
        try:
            return _canonical(self.primitive)
        except DomainError as ex:
            # Only an inexact ParamPoly division raises there.
            raise DomainError(
                "the dual basis at %s needs a division by a parameter polynomial: %s"
                % (self.primitive[0].point, ex)
            ) from ex

    @property
    def dimension(self) -> int:
        return len(self.primitive)

    def __iter__(self):
        return iter(self.primitive)

    def __len__(self):
        return len(self.primitive)


def inverse_system(
    generators: Sequence[MultiPoly],
    point,
    order_bound: Optional[int] = None,
) -> InverseSystemResult:
    """All functionals up to the stabilization order that kill the ideal.

    Works in local coordinates y = x - point, where d_alpha applied to a
    polynomial reads the coefficient of y^alpha in its translate, and
    grows D_k, the functionals of order at most k, by integration
    (Mourrain, "Isolated points, duality and residues", JPAA 117-118,
    1997; Mantzaflaris-Mourrain, ISSAC 2011).  D_0 is the evaluation.  A
    functional of order at most k + 1 without constant term is
    sum_i integral_i Lambda_i with every Lambda_i in D_k, where integral_i
    raises d_alpha to d_(alpha + e_i) when alpha_1 = ... = alpha_(i-1) = 0
    and drops it otherwise.  It lies in the dual exactly when the
    Lambda_i commute, sigma_j Lambda_i = sigma_i Lambda_j for i < j (then
    sigma_i of it is Lambda_i, so the space stays closed under
    ``sigma_shift``), and it kills each generator g(point + y).  The
    unknowns are the coordinates of the Lambda_i in a basis of D_k: the
    functionals found so far, in order of arrival, each with its n
    unknowns.  As D_k lies in D_(k+1), order k + 1 keeps the elimination
    of order k and adds only the unknowns of the functionals that order k
    found (``_Integration``); the conditions they bring on monomials no
    earlier functional reaches are new rows, zero on the earlier columns.
    So the kernel vectors of the earlier free columns are the earlier
    functionals, and each new free column gives one new functional: dim
    D_(k+1) - dim D_k is the number of new free columns.  The search
    stalls at order k when no new column is free.

    The result carries two bases of the dual space.  ``primitive`` is the
    one the integration found, each functional read from its kernel
    vector with no common content; ``resolved_groups`` hands it to the
    Poisson quotient, which does not depend on the basis.
    ``functionals``, built on first read, is the reduced echelon form of
    the dual space taken from the last monomial of
    ``monomials_up_to_degree`` backwards, which is unique: each
    functional ends in its own monomial with coefficient 1, on which
    every other functional is zero.  ``sres dual`` prints it.

    The default ``order_bound`` is the product of max(deg g, 1); a
    negative one is refused with a ``DomainError``.  An
    isolated root has multiplicity at most the product of the n largest
    generator degrees (refined Bezout), which this product bounds, and
    below the stabilization order the dimension grows by at least one per
    order, so the search stalls by that order.  At a root that is not
    isolated the dimension never stalls: the result is truncated at the
    bound, or as soon as the dimension exceeds the degree product.

    Over parameters, every division of the growing elimination is exact,
    and the functionals it finds have polynomial coefficients.  Only the
    reduced echelon form can need a coefficient outside the parameter
    polynomials (such as 1/a); an inexact division inside that last
    elimination refuses the point with a ``DomainError`` that names it
    and chains the failed division.  That happens on the first read of
    ``functionals`` and nowhere else: a point is refused exactly when its
    canonical basis is not polynomial and is asked for.
    """
    if not generators:
        raise DomainError("need at least one generator")
    if order_bound is not None and order_bound < 0:
        raise DomainError("order bound must be nonnegative, got %s" % (order_bound,))
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise DomainError("generators must share the variable count")
    if any(g.is_zero() for g in generators):
        raise DomainError("zero generator")
    if not isinstance(point, Point):
        point = Point(point)
    if point.n != n:
        raise DomainError("point has %d coordinates, expected %d" % (point.n, n))
    local = [_translate(g, point) for g in generators]
    for g, g_p in zip(generators, local):
        if g_p.get((0,) * n):
            raise DomainError("the point is not a common root: %s does not vanish" % g)
    bezout = prod(max(int(g.total_degree()), 1) for g in generators)
    if order_bound is None:
        order_bound = bezout
    evaluation = {(0,) * n: 1}
    found, new = [evaluation], [evaluation]
    grow = _Integration(local, n)
    stabilized = None
    for order in range(1, order_bound + 1):
        new = [f for func in new for f in grow.add(func)]
        if not new:
            stabilized = order - 1
            break
        found += new
        if len(found) > bezout:
            break
    primitive = []
    for f in found:
        terms = sorted(((a, as_scalar(c)) for a, c in f.items()), key=lambda kv: canon_key(kv[0]))
        primitive.append(DualFunctional._unchecked(point, tuple(terms)))
    return InverseSystemResult(tuple(primitive), stabilized is None, stabilized)


class _Integration:
    """The integration conditions of ``inverse_system`` as one resumable
    ``_GaussJordan`` elimination, its columns the unknowns in order of
    arrival.

    Unknown (i, m) is the coefficient of functional m in Lambda_i; its
    column holds the value of integral_i m on each translated generator
    and its terms in the commutation conditions sigma_j Lambda_i -
    sigma_i Lambda_j = 0, one row per pair i < j and monomial.  A
    monomial that no earlier functional reaches is a new row, zero on
    every earlier column.  Values are ints, or ``ParamPoly``s with
    integer coefficients: scaling a generator, a functional or a kernel
    vector by a nonzero constant, or by a parameter monomial, leaves every
    span as it is, and so the canonical basis.
    """

    def __init__(self, local: Sequence[dict], n: int):
        self.local = local
        self.units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        self.elimination = _GaussJordan(len(local))
        self.integrals: list = []  # integral_i m of each column
        self.rows: dict = {}  # (i, j, monomial) -> commutation row

    def add(self, func: dict) -> list:
        """Add the n unknowns of functional ``func`` and return the
        functionals that their free columns give: the kernel vector of a
        free column c, whose unknowns are the Lambda_i, names the functional
        sum_i integral_i Lambda_i.  Those of earlier free columns are the
        earlier functionals padded with zeros, so these are the new ones."""
        elimination, units = self.elimination, self.units
        found = []
        for i, unit in enumerate(units):
            integral = {
                tuple(a + u for a, u in zip(alpha, unit)): c
                for alpha, c in func.items()
                if not any(alpha[:i])
            }
            self.integrals.append(integral)
            column = {}
            for row, coeff in enumerate(self.local):
                value = sum(c * coeff[beta] for beta, c in integral.items() if beta in coeff)
                if value:
                    column[row] = value
            for j, other in enumerate(units):
                if j == i:
                    continue
                sign, key = (1, (i, j)) if i < j else (-1, (j, i))
                for alpha, c in func.items():
                    if alpha[j]:
                        gamma = tuple(a - u for a, u in zip(alpha, other))
                        row = self.rows.get(key + (gamma,))
                        if row is None:
                            row = self.rows[key + (gamma,)] = elimination.add_rows(1)
                        column[row] = sign * c
            entries = elimination.add(column)
            if entries is not None:
                found.append(self._functional(entries))
        return found

    def _functional(self, entries: dict) -> dict:
        """sum_i integral_i Lambda_i for the kernel vector of the column
        just taken: minus its entries on the pivot columns, and the last
        pivot on itself, made primitive (``_primitive``)."""
        elimination = self.elimination
        cols = [elimination.pivots[s] for s in entries] + [elimination.width - 1]
        lams = _primitive([-x for x in entries.values()] + [elimination.last])
        functional: dict = {}
        for col, lam in zip(cols, lams):
            for alpha, c in self.integrals[col].items():
                functional[alpha] = functional.get(alpha, 0) + lam * c
        return {alpha: c for alpha, c in functional.items() if c}


def _primitive(vector: list) -> list:
    """``vector`` divided by its content: the gcd of its integer
    coefficients, signed like the last entry when that is an int, times
    the largest monomial in the parameters that divides every entry.  On
    ints these are the numerators ``_numerators`` gives for the vector
    over its last entry."""
    g = gcd(*map(_content, vector))
    if type(vector[-1]) is int and vector[-1] < 0:
        g = -g
    if all(isinstance(v, ParamPoly) for v in vector):
        keys = [dict(key) for v in vector for key in v.numerators]
        common = tuple((name, min(k.get(name, 0) for k in keys)) for name, _ in sorted(keys[0].items()))
        common = tuple((name, e) for name, e in common if e)
        if common:
            g = ParamPoly.from_integers({common: g})
    return [v // g for v in vector]


def _canonical(funcs: Sequence[DualFunctional]) -> Tuple[DualFunctional, ...]:
    """The reduced echelon form of the span of ``funcs``, read from the last
    monomial backwards, as functionals sorted by order and then by last
    monomial.  Each functional is taken as its integer numerators, which
    leaves the span as it is; the integration's own are integers already."""
    point = funcs[0].point
    columns = sorted({alpha for f in funcs for alpha, _ in f.terms}, key=canon_key, reverse=True)
    rows = []
    for f in funcs:
        nums, _ = _numerators([c for _, c in f.terms])
        coeffs = {alpha: c for (alpha, _), c in zip(f.terms, nums)}
        rows.append([coeffs.get(alpha, 0) for alpha in columns])
    rows = reduced_echelon(rows)
    # Reversed, the columns are in canon_key order, and every entry of the
    # rows is a rational or a ParamPoly, as the constructor would make it.
    columns.reverse()
    funcs = [
        DualFunctional._unchecked(point, tuple((a, c) for a, c in zip(columns, row[::-1]) if c))
        for row in rows
    ]
    funcs.sort(key=lambda f: (f.order, canon_key(f.terms[-1][0])))
    return tuple(funcs)


@dataclass(frozen=True)
class DualBasis:
    """Functionals grouped by root, each group led by the pure evaluation."""

    groups: Tuple[Tuple[Point, Tuple[DualFunctional, ...]], ...]

    @property
    def functionals(self) -> Tuple[DualFunctional, ...]:
        return tuple(f for _, fs in self.groups for f in fs)

    def __len__(self):
        return sum(len(fs) for _, fs in self.groups)

    def __iter__(self):
        return iter(self.functionals)


def assemble_dual_basis(
    per_root: Sequence[Tuple], expected_total: Optional[int] = None
) -> DualBasis:
    """Stack per-root functional lists into one basis.

    Each entry is (point, functionals); the first functional of every
    group must be the pure evaluation at that point, and when
    ``expected_total`` is given the overall count must match it.
    """
    groups = []
    seen = []
    total = 0
    for point, funcs in per_root:
        if not isinstance(point, Point):
            point = Point(point)
        funcs = tuple(funcs)
        if not funcs:
            raise DomainError("empty functional group at %s" % (point,))
        for q in seen:
            if q.coords == point.coords:
                raise DomainError("repeated root %s" % (point,))
        seen.append(point)
        if any(f.point.coords != point.coords for f in funcs):
            raise DomainError("functional anchored away from its group point")
        if not funcs[0].is_evaluation():
            raise DomainError("each group must start with the pure evaluation functional")
        total += len(funcs)
        groups.append((point, funcs))
    if expected_total is not None and total != expected_total:
        raise DomainError("dual basis has %d functionals, expected %d" % (total, expected_total))
    return DualBasis(tuple(groups))
