"""The dual-basis route to the Macaulay-style subresultant."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import functional_of_multiple
from subres import DomainError, MultiPoly, ParamPoly, Rat, StructuralError, param
from subres.matrix import ExactMatrix, det_exact
from subres.mv.duality import (
    DualBasis,
    DualFunctional,
    Point,
    assemble_dual_basis,
    dual_eval,
    inverse_system,
)
from subres.combinat import monomials_of_degree, monomials_up_to_degree
from subres.mv.hilbert import build_monomial_sets, hilbert_function
from subres.mv.macaulay import MVSystem, delta_s, leading_form_subres
from subres.mv.poisson import dual_vandermonde, dual_wronskian, poisson_delta

C0, C1, C2 = param("c0"), param("c1"), param("c2")


def circle_line():
    f1 = MultiPoly(2, {(1, 1): Rat(1)})
    f2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1), (0, 1): Rat(-2)})
    f3 = MultiPoly(2, {(0, 0): C0, (1, 0): C1, (0, 1): C2})
    return MVSystem(2, (f1, f2, f3), (2, 2, 1))


def evaluation(point):
    return DualFunctional(point, {(0,) * point.n: Rat(1)})


def circle_line_basis(scale_third=Rat(1)):
    p0, p2 = Point((Rat(0), Rat(0))), Point((Rat(0), Rat(2)))
    third = DualFunctional(p0, {(0, 1): scale_third, (2, 0): 2 * scale_third})
    group0 = [evaluation(p0), DualFunctional(p0, {(1, 0): Rat(1)}), third]
    return assemble_dual_basis([(p0, group0), (p2, [evaluation(p2)])], expected_total=4)


def split_points():
    g1 = MultiPoly(2, {(2, 0): Rat(1), (0, 0): Rat(-1)})
    g2 = MultiPoly(2, {(0, 2): Rat(1), (0, 0): Rat(-4)})
    f3 = MultiPoly(2, {(0, 0): C0, (1, 0): C1, (0, 1): C2})
    sys_ = MVSystem(2, (g1, g2, f3), (2, 2, 1))
    pts = [Point((Rat(sx), Rat(sy))) for sx in (1, -1) for sy in (2, -2)]
    basis = assemble_dual_basis([(p, [evaluation(p)]) for p in pts], expected_total=4)
    return sys_, basis


CIRCLE_DELTA = ParamPoly.constant(Rat(0)) - (C0 * C0 * C0 + 2 * C0 * C0 * C2)


def scattered_basis():
    """Three groups of non-monomial functionals of order up to 3, at
    rational points and at a point with a parameter coordinate."""
    p, q, r = Point((Rat(1, 2), Rat(-3))), Point((Rat(-2, 3), Rat(0))), Point((param("a"), Rat(1)))
    return DualBasis(
        (
            (p, (
                evaluation(p),
                DualFunctional(p, {(1, 0): Rat(3), (0, 2): Rat(-1, 2)}),
                DualFunctional(p, {(2, 1): Rat(1), (0, 3): Rat(5, 7), (0, 1): Rat(-1)}),
            )),
            (q, (evaluation(q), DualFunctional(q, {(0, 1): Rat(2), (1, 1): Rat(-1)}))),
            (r, (evaluation(r), DualFunctional(r, {(1, 1): Rat(1), (2, 0): Rat(-4)}))),
        )
    )


class TestDualWronskian:
    @pytest.mark.parametrize("basis", [circle_line_basis(), split_points()[1], scattered_basis()])
    @pytest.mark.parametrize(
        "h",
        [
            circle_line().polys[-1],
            MultiPoly(2, {(3, 0): Rat(-2, 5), (1, 2): Rat(7), (0, 1): Rat(1, 3), (0, 0): Rat(4)}),
            MultiPoly(2, {(2, 1): C1 - 2 * C2, (0, 0): C0 * C0}),
        ],
    )
    def test_entries_are_functional_values(self, basis, h):
        # Degree 5 lies above every group's top order.
        monos = monomials_up_to_degree(2, 5)
        got = dual_wronskian(h, monos, basis).rows
        assert got == [[dual_eval(f, h.shift(e)) for f in basis] for e in monos]
        # dual_eval shares the evaluator; the oracle translates term by term.
        assert got == [[functional_of_multiple(f, h, e) for f in basis] for e in monos]

    def test_monomial_in_the_wrong_variable_count_rejected(self):
        with pytest.raises(DomainError):
            dual_wronskian(circle_line().polys[-1], [(0, 0), (1, 0, 0)], circle_line_basis())


class TestDualVandermonde:
    def test_frozen_rows(self):
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
        vt = dual_vandermonde(sets.T.monomials, circle_line_basis())
        assert [[str(v) for v in r] for r in vt.rows] == [
            ["1", "0", "0", "1"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "2"],
            ["0", "0", "0", "4"],
        ]
        assert det_exact(vt) == Rat(4)

    @pytest.mark.parametrize("basis", [circle_line_basis(), split_points()[1]])
    def test_entries_are_functional_values(self, basis):
        monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 3)]
        got = dual_vandermonde(monos, basis).rows
        assert got == [[dual_eval(f, MultiPoly.monomial(e)) for f in basis] for e in monos]
        one = MultiPoly.constant(2, Rat(1))
        assert got == [[functional_of_multiple(f, one, e) for f in basis] for e in monos]

    def test_monomial_in_the_wrong_variable_count_rejected(self):
        with pytest.raises(DomainError):
            dual_vandermonde([(1, 0, 0)], circle_line_basis())

    def test_empty_basis_gives_empty_rows(self):
        m = dual_vandermonde([(0, 0), (1, 0)], DualBasis(()))
        assert (m.nrows, m.ncols) == (2, 0)

    def test_wronskian_with_unit_multiplier(self):
        basis = circle_line_basis()
        monos = [(0, 0), (1, 0), (0, 1)]
        one = MultiPoly.constant(2, Rat(1))
        assert dual_wronskian(one, monos, basis).rows == dual_vandermonde(monos, basis).rows

    def test_stacked_determinant(self):
        sys_ = circle_line()
        basis = circle_line_basis()
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
        rows = list(dual_vandermonde([(2, 0)], basis).rows)
        rows += list(dual_wronskian(sys_.polys[-1], sets.R.monomials, basis).rows)
        assert det_exact(ExactMatrix(rows)) == 4 * C0 * C0 * C0 + 8 * C0 * C0 * C2


class TestPoissonDelta:
    def test_matches_matrix_route_with_override(self):
        sys_ = circle_line()
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
        assert poisson_delta(sys_, 2, [(2, 0)], circle_line_basis(), sets) == CIRCLE_DELTA
        assert delta_s(sys_, 2, [(2, 0)]) == CIRCLE_DELTA

    def test_matches_matrix_route_with_default_sets(self):
        assert poisson_delta(circle_line(), 2, [(2, 0)], circle_line_basis()) == CIRCLE_DELTA

    def test_basis_independence(self):
        sys_ = circle_line()
        assert poisson_delta(sys_, 2, [(2, 0)], circle_line_basis(Rat(1, 2))) == CIRCLE_DELTA
        f1, f2 = sys_.polys[0], sys_.polys[1]
        p0, p2 = Point((Rat(0), Rat(0))), Point((Rat(0), Rat(2)))
        computed = assemble_dual_basis(
            [
                (p0, list(inverse_system([f1, f2], p0))),
                (p2, list(inverse_system([f1, f2], p2))),
            ],
            expected_total=4,
        )
        assert poisson_delta(sys_, 2, [(2, 0)], computed) == CIRCLE_DELTA

    def test_numeric_specialization(self):
        f3 = MultiPoly(2, {(0, 0): Rat(1), (1, 0): Rat(1), (0, 1): Rat(1)})
        base = circle_line()
        sys_ = MVSystem(2, (base.polys[0], base.polys[1], f3), (2, 2, 1))
        assert poisson_delta(sys_, 2, [(2, 0)], circle_line_basis()) == Rat(-3)

    def test_zero_last_polynomial(self):
        base = circle_line()
        sys_ = MVSystem(2, (base.polys[0], base.polys[1], MultiPoly(2)), (2, 2, 1))
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
        assert dual_wronskian(MultiPoly(2), sets.R.monomials, circle_line_basis()).rows == [
            [Rat(0)] * 4 for _ in sets.R.monomials
        ]
        assert poisson_delta(sys_, 2, [(2, 0)], circle_line_basis(), sets) == 0
        assert delta_s(sys_, 2, [(2, 0)]) == 0

    def test_singular_quotient_slice_rejected(self):
        sys_ = circle_line()
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(1, 1)]})
        with pytest.raises(StructuralError) as err:
            poisson_delta(sys_, 2, [(2, 0)], circle_line_basis(), sets)
        assert "V_T is singular" in str(err.value)

    def test_split_points_need_the_mixed_slice(self):
        sys_, basis = split_points()
        # x1^2 = 1 and x2^2 = 4 on the variety, so both pure-square slices
        # collapse onto the constant row; only x1x2 stays independent.
        for bad in (None, {2: [(0, 2)]}):
            sets = build_monomial_sets((2, 2, 1), 2, t_override=bad)
            with pytest.raises(StructuralError):
                poisson_delta(sys_, 2, [(2, 0)], basis, sets)
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(1, 1)]})
        got = poisson_delta(sys_, 2, [(2, 0)], basis, sets)
        want = delta_s(sys_, 2, [(2, 0)])
        assert got == want or got == ParamPoly.constant(Rat(0)) - want

    def test_wrong_basis_size(self):
        sys_ = circle_line()
        p0 = Point((Rat(0), Rat(0)))
        small = assemble_dual_basis([(p0, [evaluation(p0)])])
        with pytest.raises(DomainError) as err:
            poisson_delta(sys_, 2, [(2, 0)], small)
        assert "degree product" in str(err.value)

    def test_s_validation(self):
        sys_ = circle_line()
        basis = circle_line_basis()
        with pytest.raises(DomainError):
            poisson_delta(sys_, 2, [], basis)
        with pytest.raises(DomainError):
            poisson_delta(sys_, 2, [(2, 0), (0, 2)], basis)
        with pytest.raises(DomainError):
            poisson_delta(sys_, 2, [(3, 0)], basis)

    def test_sets_must_match_call(self):
        sys_ = circle_line()
        sets = build_monomial_sets((2, 2, 1), 1)
        with pytest.raises(DomainError) as err:
            poisson_delta(sys_, 2, [(2, 0)], circle_line_basis(), sets)
        assert "different system or order" in str(err.value)


def poly(terms):
    return MultiPoly(2, {e: Rat(c) for e, c in terms.items()})


# f1 and f2 meet in the one simple root (1, 2); the leading forms 2x1 + x2
# and x1 - x2 have corner determinant 2 at degree 2.
LINES = (poly({(1, 0): 2, (0, 1): 1, (0, 0): -4}), poly({(1, 0): 1, (0, 1): -1, (0, 0): 1}))
CUBIC = poly({(0, 0): 1, (1, 0): 2, (0, 1): -1, (2, 0): 5, (3, 0): 1, (1, 2): 3, (0, 3): -2})


def routes(sys_, t, s_cols, roots):
    """(poisson, macaulay) with the dual basis at each root from the
    inverse system."""
    f = list(sys_.polys[:-1])
    groups = [(p, list(inverse_system(f, p))) for p in map(Point, roots)]
    basis = assemble_dual_basis(groups)
    return poisson_delta(sys_, t, s_cols, basis), delta_s(sys_, t, s_cols)


@st.composite
def two_root_systems(draw):
    """f1 a line through P, f2 the product of a line through P and a line
    through a second point Q of f1 = 0, f3 of degree 1 to 3, an order t up
    to rho + 2 and a random k-set S: (system, t, S, [P, Q])."""
    small = st.integers(-3, 3)
    p = (draw(small), draw(small))
    a1, b1 = draw(st.tuples(small, small).filter(any))
    step = draw(st.sampled_from([-2, -1, 1, 2]))
    q = (p[0] - step * b1, p[1] + step * a1)

    def line(point):
        # Not parallel to f1, so it meets f1 = 0 at the point alone.
        a, b = draw(st.tuples(small, small).filter(lambda ab: ab[0] * b1 != ab[1] * a1))
        return poly({(1, 0): a, (0, 1): b, (0, 0): -a * point[0] - b * point[1]})

    f1 = poly({(1, 0): a1, (0, 1): b1, (0, 0): -a1 * p[0] - b1 * p[1]})
    f2 = line(p) * line(q)
    d3 = draw(st.integers(1, 3))
    f3 = MultiPoly(2, {
        e: Rat(draw(st.integers(-5, 5)))
        for e in draw(st.lists(st.sampled_from(monomials_up_to_degree(2, d3)), min_size=1, max_size=5))
    })
    degrees = (1, 2, d3)
    t = draw(st.integers(0, d3 + 2))
    below = [e for j in range(t + 1) for e in monomials_of_degree(2, j)]
    k = hilbert_function(degrees, t)
    s_cols = draw(st.permutations(below))[:k]
    return MVSystem(2, (f1, f2, f3), degrees), t, s_cols, [p, q]


class TestLeadingFormCorner:
    """Each leading-form factor is divided by its own corner determinant,
    as the Macaulay side is divided by the extraneous factor."""

    @pytest.mark.parametrize(
        "f3, degrees, s_cols, want",
        [(CUBIC, (1, 1, 3), [(0, 0)], 9), (poly({(0, 0): 3, (1, 0): 1, (0, 1): -1}), (1, 1, 1), [], -6)],
    )
    def test_roadmap_witnesses(self, f3, degrees, s_cols, want):
        sys_ = MVSystem(2, LINES + (f3,), degrees)
        assert routes(sys_, 2, s_cols, [(1, 2)]) == (want, want)

    def test_vanishing_corner_refused(self):
        # At degree 2 the corner of x2 and x1 + x2 is the x1-coefficient of x2.
        with pytest.raises(DomainError) as err:
            leading_form_subres((poly({(0, 1): 1}), poly({(1, 0): 1, (0, 1): 1})), (1, 1), 2, [])
        assert "extraneous factor vanishes" in str(err.value)

    @given(two_root_systems())
    def test_poisson_matches_macaulay_up_to_sign(self, case):
        sys_, t, s_cols, roots = case
        try:
            poisson, macaulay = routes(sys_, t, s_cols, roots)
        except (DomainError, StructuralError):
            return
        assert poisson in (macaulay, -macaulay)
