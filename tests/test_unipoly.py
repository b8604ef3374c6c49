"""Univariate polynomials and Taylor coefficients."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from subres import NEG_INF, DomainError, Rat, UniPoly, param, taylor_coeff


def poly(*ascending):
    return UniPoly([Rat(c) if isinstance(c, int) else c for c in ascending])


class TestUniPoly:
    def test_zero_degree_sentinel(self):
        z = UniPoly.zero()
        assert z.is_zero()
        assert z.degree == NEG_INF
        assert not z
        assert UniPoly([0, 0]).is_zero()

    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(1, 2, 0).degree == 1

    def test_arithmetic(self):
        f = poly(1, 2)       # 1 + 2x
        g = poly(0, 0, 3)    # 3x^2
        assert f + g == poly(1, 2, 3)
        assert f * g == poly(0, 0, 3, 6)
        assert f - f == UniPoly.zero()
        assert f ** 3 == f * f * f
        assert poly(-1, 1) ** 2 == poly(1, -2, 1)

    def test_monomial_and_shift(self):
        assert UniPoly.monomial(3, Rat(2)) == poly(0, 0, 0, 2)
        assert poly(1, 1).mul_xk(2) == poly(0, 0, 1, 1)

    def test_evaluation_horner(self):
        f = poly(2, -3, 1)  # (x-1)(x-2)
        assert f(Rat(1)) == 0 and f(Rat(2)) == 0 and f(Rat(3)) == 2

    def test_evaluation_with_parameters(self):
        eps = param("eps")
        f = poly(0, 1) - UniPoly([eps])
        assert f(eps) == 0

    def test_derivative(self):
        f = poly(5, 0, 0, 1)  # 5 + x^3
        assert f.derivative() == poly(0, 0, 3)

    def test_coeff_accessor(self):
        f = poly(7, 0, 9)
        assert f.coeff(0) == 7 and f.coeff(1) == 0 and f.coeff(2) == 9 and f.coeff(5) == 0

    def test_scalar_comparison(self):
        assert poly(4) == 4
        assert poly(0) == 0
        assert poly(0, 1) != 1


class TestTaylorCoeff:
    def test_cubic_first_derivative(self):
        # p = x^3, a = 1, j = 1 -> 3
        assert taylor_coeff(poly(0, 0, 0, 1), Rat(1), 1) == 3

    def test_order_zero_is_evaluation(self):
        f = poly(2, -5, 1, 7)
        for a in (Rat(0), Rat(2), Rat(-1, 3)):
            assert taylor_coeff(f, a, 0) == f(a)

    def test_binomial_square_top(self):
        # p = x^2 - 2x + 1 = (x-1)^2, a = 1, j = 2 -> 1 (shift and read off)
        assert taylor_coeff(poly(1, -2, 1), Rat(1), 2) == 1

    @given(rationals(), st.lists(rationals(), min_size=1, max_size=5))
    def test_shift_identity(self, a, coeffs):
        # sum_j taylor_coeff(p, a, j) (x-a)^j reconstructs p
        p = UniPoly(coeffs)
        shift = poly(-a, 1)
        rebuilt = UniPoly.zero()
        for j in range(len(coeffs)):
            rebuilt = rebuilt + shift ** j * UniPoly([taylor_coeff(p, a, j)])
        assert rebuilt == p

