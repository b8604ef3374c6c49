"""Values of the dual side: functionals applied to multiples x^alpha h.

``dual_wronskian``, ``dual_vandermonde`` and ``dual_eval`` against an
oracle that expands x^alpha h and translates it to the functional's point
term by term (``oracles.functional_of_multiple``), at points whose
coordinates have different denominators and at a parameter point; the
integer numerators and scales of the one evaluator against the same
entries; then ``inverse_system`` and ``poisson_delta`` on two seeded grid
systems with non-dyadic roots, against values pinned from the rational
implementation they replaced, and ``poisson_delta`` on seeded grid
systems at rational and parameter points against the quotient of the
public matrices' determinants (``oracles.poisson_by_matrices``).
"""

import random
from fractions import Fraction
from math import comb

import pytest

from oracles import functional_of_multiple, poisson_by_matrices
from run_crosschecks import DIVISION_SYSTEM, SYSTEMS
from subres import DomainError, MultiPoly, ParamPoly, Rat, StructuralError, param
from subres.combinat import monomials_up_to_degree
from subres.mv.duality import (
    DualBasis,
    DualFunctional,
    Point,
    _values,
    assemble_dual_basis,
    dual_eval,
    inverse_system,
)
from subres.mv.hilbert import build_monomial_sets
from subres.mv.poisson import dual_vandermonde, dual_wronskian, poisson_delta
from subres.serialize import parse_system, scalar_to_str
from subres.verify import mv_checks, resolved_groups

A, C1, C2 = param("a"), param("c1"), param("c2")


def evaluation(point):
    return DualFunctional(point, {(0,) * point.n: Rat(1)})


def mixed_denominators():
    """Groups at points with coordinate denominators 1, 2, 3 and 5, each
    group with its own pair, one coordinate zero."""
    p = Point((Rat(1, 2), Rat(3)))
    q = Point((Rat(-2, 3), Rat(1, 5)))
    r = Point((Rat(0), Rat(-7, 5)))
    return DualBasis(
        (
            (p, (
                evaluation(p),
                DualFunctional(p, {(1, 0): Rat(2, 3), (0, 1): Rat(-1)}),
                DualFunctional(p, {(2, 1): Rat(5, 7), (0, 2): Rat(1, 2), (1, 0): Rat(3)}),
            )),
            (q, (
                evaluation(q),
                DualFunctional(q, {(0, 1): Rat(1, 5), (1, 1): Rat(-3, 2)}),
                DualFunctional(q, {(3, 0): Rat(1), (1, 2): Rat(-4, 9)}),
            )),
            (r, (evaluation(r), DualFunctional(r, {(1, 0): Rat(1), (0, 2): Rat(2, 5)}))),
        )
    )


def parameter_point():
    """The parameter point (a, 1), beside a rational one."""
    p, r = Point((Rat(1, 3), Rat(-3))), Point((A, Rat(1)))
    return DualBasis(
        (
            (p, (evaluation(p), DualFunctional(p, {(1, 0): Rat(3), (0, 2): Rat(-1, 2)}))),
            (r, (evaluation(r), DualFunctional(r, {(1, 1): Rat(1), (2, 0): Rat(-4)}))),
        )
    )


MULTIPLIERS = [
    MultiPoly.constant(2, Rat(1)),
    MultiPoly(2, {(3, 0): Rat(-2, 5), (1, 2): Rat(7, 3), (0, 1): Rat(1, 3), (0, 0): Rat(4)}),
    MultiPoly(2, {(2, 1): C1 - Rat(2, 3) * C2, (1, 0): Rat(1, 5), (0, 0): C1 * C1}),
]


class TestAgainstExpansionOracle:
    @pytest.mark.parametrize("basis", [mixed_denominators(), parameter_point()])
    @pytest.mark.parametrize("h", MULTIPLIERS)
    def test_dual_wronskian(self, basis, h):
        monos = monomials_up_to_degree(2, 4)
        got = dual_wronskian(h, monos, basis).rows
        assert got == [[functional_of_multiple(f, h, e) for f in basis] for e in monos]

    @pytest.mark.parametrize("basis", [mixed_denominators(), parameter_point()])
    def test_dual_vandermonde(self, basis):
        monos = monomials_up_to_degree(2, 5)
        one = MultiPoly.constant(2, Rat(1))
        got = dual_vandermonde(monos, basis).rows
        assert got == [[functional_of_multiple(f, one, e) for f in basis] for e in monos]

    @pytest.mark.parametrize("basis", [mixed_denominators(), parameter_point()])
    @pytest.mark.parametrize("h", MULTIPLIERS)
    def test_dual_eval(self, basis, h):
        for e in monomials_up_to_degree(2, 3):
            for f in basis:
                assert dual_eval(f, h.shift(e)) == functional_of_multiple(f, h, e)


# Grid roots x1 in xs, x2 - shear * x1 in ys, coordinates thirds and fifths.
POOL = tuple(sorted({Fraction(num, den) for num in range(-5, 6) for den in (3, 5)}))


def _expand(roots):
    """Ascending coefficients of prod (z - r)^m."""
    coeffs = [Fraction(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def _reduced(degrees, j):
    return [[a, j - a] for a in range(j, -1, -1) if a < degrees[0] and j - a < degrees[1]]


def sheared_grid(seed, pattern, t, shear):
    """f1(x1), f2(x2 - shear * x1) and a rational line, roots drawn from POOL.

    In lex order with x2 > x1 the leading terms are x1^D1 and x2^D2, so
    the reduced monomials are a basis of the quotient and make V_T
    invertible; with a nonzero shear the dual bases are not monomial.
    """
    rng = random.Random(seed)
    m1, m2 = pattern
    xs, ys = rng.sample(POOL, len(m1)), rng.sample(POOL, len(m2))
    degrees = (sum(m1), sum(m2))
    f1 = {(i, 0): c for i, c in enumerate(_expand(zip(xs, m1)))}
    f2 = {}
    for i, c in enumerate(_expand(zip(ys, m2))):
        for k in range(i + 1):
            f2[(k, i - k)] = f2.get((k, i - k), 0) + c * comb(i, k) * (-shear) ** k
    f3 = {e: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7)) for e in ((0, 0), (1, 0), (0, 1))}
    k = len(_reduced(degrees, t))
    return {
        "n": 2,
        "polynomials": [
            [{"exponents": list(e), "coeff": str(c)} for e, c in sorted(f.items()) if c]
            for f in (f1, f2, f3)
        ],
        "degrees": [degrees[0], degrees[1], 1],
        "t": t,
        "S": [[a, s - a] for s in range(t + 1) for a in range(s, -1, -1)][:k],
        "T_override": {str(j): _reduced(degrees, j) for j in range(sum(degrees) - 1)},
        "roots": [{"point": [str(x), str(y + shear * x)]} for x in xs for y in ys],
    }


PINNED = [
    (
        (3, ((3, 1), (3,)), Fraction(-3, 5)),
        [
            (("-1/3", "-7/15"), [
                "1*1", "d1,0", "d0,1", "d2,0", "d1,1", "d0,2", "-5/3*d2,1 + d1,2",
                "-25/27*d2,1 + d0,3", "25/54*d2,2 + -5/6*d1,3 + d0,4",
            ]),
            (("4/3", "-22/15"), ["1*1", "d0,1", "d0,2"]),
        ],
        {1: "-4", 4: "-6619798528/151875", 5: "-492500319993856/1793613375"},
    ),
    (
        (7, ((3, 2), (2, 1)), Fraction(2, 3)),
        [
            (("1/5", "8/15"), [
                "1*1", "d1,0", "d0,1", "3*d2,0 + d1,1", "-9/4*d2,0 + d0,2",
                "3/4*d2,1 + d1,2 + d0,3",
            ]),
            (("1/5", "-6/5"), ["1*1", "3/2*d1,0 + d0,1", "9/4*d2,0 + 3/2*d1,1 + d0,2"]),
            (("-2/3", "-2/45"), ["1*1", "d1,0", "d0,1", "3/4*d1,1 + d0,2"]),
            (("-2/3", "-16/9"), ["1*1", "3/2*d1,0 + d0,1"]),
        ],
        {
            1: "1/5",
            5: "2894279603987835097/1854291412353515625",
            6: "218299133148175459459321005184/591649485272219181060791015625",
        },
    ),
]


def canonical_groups(doc):
    """Each root's given dual basis, or the canonical one of ``inverse_system``."""
    generators = doc.system.polys[:-1]
    return [
        (point, dual if dual is not None else inverse_system(generators, point).functionals)
        for point, dual in doc.roots
    ]


class TestPinnedGridSystems:
    """The drawn systems depend on the seed, pattern and shear only; each
    order t below the top one keeps rows of T* in O_S."""

    @pytest.mark.parametrize("system, groups, deltas", PINNED)
    def test_functionals_and_quotients(self, system, groups, deltas):
        seed, pattern, shear = system
        for t, delta in deltas.items():
            doc = parse_system(sheared_grid(seed, pattern, t, shear))
            canonical = canonical_groups(doc)
            assert [
                (tuple(scalar_to_str(c) for c in point.coords), [str(f).split(" at ")[0] for f in funcs])
                for point, funcs in canonical
            ] == [(point, funcs) for point, funcs in groups]
            got = resolved_groups(doc)
            sets = build_monomial_sets(doc.system.degrees, doc.t, doc.t_override)
            basis = assemble_dual_basis(got)
            quotient = poisson_delta(doc.system, doc.t, doc.s_cols, basis, sets=sets)
            assert scalar_to_str(quotient) == delta
            assert all(c.ok for c in mv_checks(doc))


class TestSplitEvaluator:
    @pytest.mark.parametrize("basis", [mixed_denominators(), parameter_point()])
    @pytest.mark.parametrize("h", MULTIPLIERS)
    def test_numerators_over_scales_are_the_wronskian_entries(self, basis, h):
        monos = monomials_up_to_degree(2, 4)
        nums, row_dens, col_dens = _values(2, basis.groups, [h.shift(e).terms for e in monos])
        assert [
            [v / Rat(r * c) for v, c in zip(row, col_dens)] for row, r in zip(nums, row_dens)
        ] == dual_wronskian(h, monos, basis).rows
        assert all(type(d) is int and d > 0 for d in row_dens + col_dens)
        assert all(
            type(v) is int or (isinstance(v, ParamPoly) and v.denominator == 1)
            for row in nums
            for v in row
        )

    def test_row_scale_is_the_polynomials_and_shared_by_every_root(self):
        basis = mixed_denominators()
        h = MULTIPLIERS[1]
        _, row_dens, col_dens = _values(2, basis.groups, [h.terms, {(0, 0): 1}])
        assert row_dens == [15, 1]
        assert len(col_dens) == len(basis)

    def test_wrong_variable_count_names_both(self):
        with pytest.raises(DomainError) as err:
            _values(3, mixed_denominators().groups, [{(0, 0, 0): 1}])
        assert str(err.value) == "functional in 2 variables applied to 3"


# Heavy roots at x1 = a or a half, x2 a half or an integer.
HALVES_AND_INTEGERS = tuple(sorted({Rat(num, den) for num in range(-3, 4) for den in (1, 2)}))


def grid_doc(seed, parametric):
    """(x1 - r)^3 (x1 - r')^m', (x2 - s)^3 (x2 - s')^n' and a line with
    coefficient denominators drawn from 1, 2, 3 and 5, at an order t
    between 1 and D1 + D2 - 3 with S a random k-subset of the monomials of
    degree <= t.  With ``parametric`` the x1 roots are a, and a + 1 or
    a - 1/2 for a second one, so the points have a parameter coordinate."""
    rng = random.Random(seed)
    m1 = (3,) + rng.choice(((), (1,)))
    m2 = (3,) + rng.choice(((), (1,)))
    if parametric:
        xs = [A, A + rng.choice((1, Rat(-1, 2)))][: len(m1)]
    else:
        xs = rng.sample(HALVES_AND_INTEGERS, len(m1))
    ys = rng.sample(HALVES_AND_INTEGERS, len(m2))

    def expand(roots):
        coeffs = [Rat(1)]
        for r, m in roots:
            for _ in range(m):
                coeffs = [Rat(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] = coeffs[i] - r * coeffs[i + 1]
        return coeffs

    degrees = (sum(m1), sum(m2))
    f1 = [[[i, 0], c] for i, c in enumerate(expand(zip(xs, m1))) if c]
    f2 = [[[0, i], c] for i, c in enumerate(expand(zip(ys, m2))) if c]
    f3 = [
        [e, Rat(rng.choice((-7, -1, 1, 11)), den)]
        for e, den in zip(([0, 0], [1, 0], [0, 1]), rng.sample((1, 2, 3, 5), 3))
    ]
    t = rng.randrange(1, sum(degrees) - 2)
    below = [[a, s - a] for s in range(t + 1) for a in range(s, -1, -1)]
    return {
        "n": 2,
        "polynomials": [
            [{"exponents": e, "coeff": scalar_to_str(c)} for e, c in f] for f in (f1, f2, f3)
        ],
        "degrees": [degrees[0], degrees[1], 1],
        "t": t,
        "S": rng.sample(below, len(_reduced(degrees, t))),
        "T_override": {str(j): _reduced(degrees, j) for j in range(sum(degrees) - 1)},
        "roots": [{"point": [scalar_to_str(x), scalar_to_str(y)]} for x in xs for y in ys],
    }


class TestQuotientAgainstMatrices:
    """``poisson_delta`` reads one integer table per root; the oracle
    builds the public rational matrices and divides their determinants."""

    @pytest.mark.parametrize("parametric", [False, True], ids=["rational", "parameter"])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_value_and_text(self, seed, parametric):
        doc = parse_system(grid_doc(seed, parametric))
        sets = build_monomial_sets(doc.system.degrees, doc.t, doc.t_override)
        basis = assemble_dual_basis(resolved_groups(doc))
        assert max(len(funcs) for _, funcs in basis.groups) == 9
        got = poisson_delta(doc.system, doc.t, doc.s_cols, basis, sets=sets)
        want = poisson_by_matrices(doc.system, doc.t, doc.s_cols, basis, sets)
        assert got == want
        assert type(got) is type(want)
        assert scalar_to_str(got) == scalar_to_str(want)

    def test_singular_v_t_message(self):
        doc = parse_system(grid_doc(0, False))
        override = dict(doc.t_override)
        # Modulo f1, x1^D1 is a combination of 1, x1, ..., x1^(D1 - 1), all in T.
        d1 = doc.system.degrees[0]
        override[d1] = [(d1, 0)] + list(override[d1][1:])
        sets = build_monomial_sets(doc.system.degrees, doc.t, override)
        basis = assemble_dual_basis(resolved_groups(doc))
        with pytest.raises(StructuralError) as err:
            poisson_delta(doc.system, doc.t, doc.s_cols, basis, sets=sets)
        assert str(err.value) == (
            "V_T is singular: T is not a basis of the quotient for this dual basis; "
            "supply a different T_j override"
        )
        with pytest.raises(ZeroDivisionError):
            poisson_by_matrices(doc.system, doc.t, doc.s_cols, basis, sets)


INVARIANCE_CASES = (
    [(name, raw) for name, raw in SYSTEMS if raw is not DIVISION_SYSTEM]
    + [("parametric grid", grid_doc(1, True))]
    + [
        ("sheared grid %d" % seed, sheared_grid(seed, pattern, 1, shear))
        for (seed, pattern, shear), _, _ in PINNED
    ]
)


class TestBasisInvariance:
    """A change of dual basis multiplies det V_T and det O_S by one
    determinant, so the canonical basis and the integration's own, which
    ``resolved_groups`` hands over, give the same quotient, sign included."""

    @pytest.mark.parametrize("name, raw", INVARIANCE_CASES, ids=[n for n, _ in INVARIANCE_CASES])
    def test_same_quotient_on_either_basis(self, name, raw):
        doc = parse_system(raw)
        sets = build_monomial_sets(doc.system.degrees, doc.t, doc.t_override)
        canonical, own = canonical_groups(doc), resolved_groups(doc)
        quotients = [
            poisson_delta(doc.system, doc.t, doc.s_cols, assemble_dual_basis(groups), sets=sets)
            for groups in (canonical, own)
        ]
        assert quotients[0] == quotients[1]
        assert scalar_to_str(quotients[0]) == scalar_to_str(quotients[1])
        # On a sheared grid the integration's functionals are not reduced.
        if name.startswith("sheared"):
            assert canonical != own

    @pytest.mark.parametrize("t", [1, 4, 5])
    def test_parameter_shear_needs_no_canonical_basis(self, t):
        # x2 - a*x1 in f2: the canonical basis at the multiplicity-9 root
        # needs a division by a, the integration's own does not.
        doc = parse_system(sheared_grid(3, ((3, 1), (3,)), t, param("a")))
        heavy = doc.roots[0][0]
        with pytest.raises(DomainError):
            inverse_system(doc.system.polys[:-1], heavy).functionals
        assert all(c.ok for c in mv_checks(doc))
