"""The dual-basis route to the Macaulay-style subresultant."""

import pytest

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
from subres.combinat import monomials_up_to_degree
from subres.mv.hilbert import build_monomial_sets
from subres.mv.macaulay import MVSystem, delta_s
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
