"""Univariate polynomials and Taylor coefficients."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import rationals
from oracles import CoeffUniPoly, coeff_taylor
from subres import NEG_INF, DomainError, ParamPoly, Rat, UniPoly, param, taylor_coeff


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
        assert UniPoly.monomial(2) * poly(1, 1) == poly(0, 0, 1, 1)

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



# Rationals with denominators up to 12, zero included; ParamPolys over a
# denominator, such as a/2 and b + 1/3, and constant and zero ones, whose
# type per-coefficient arithmetic keeps.
FINE = rationals(num_bound=12, den_bound=12)
PARAMETRIC = st.one_of(
    st.builds(lambda r, s: r * param("a") + s, FINE, FINE),
    st.builds(lambda r, s, u: r * param("b") ** 2 + s * param("a") + u, FINE, FINE, FINE),
    st.builds(ParamPoly.constant, FINE),
    st.just(ParamPoly()),
)
SCALARS = st.one_of(FINE, FINE, PARAMETRIC)
POLYS = st.lists(SCALARS, max_size=5)


def same(got, want):
    """Equal coefficients of the same types, and the hash of their value."""
    assert isinstance(got, UniPoly)
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    rebuilt = UniPoly(want.coeffs)
    assert got == rebuilt and hash(got) == hash(rebuilt)


def same_scalar(got, want):
    assert got == want and type(got) is type(want) and hash(got) == hash(want)


class TestAgainstPerCoefficientArithmetic:
    """Integer numerators over one denominator give what coefficient-by-
    coefficient arithmetic gives (``oracles.CoeffUniPoly``), down to each
    coefficient's type."""

    @given(POLYS, POLYS, SCALARS)
    @example([Rat(1, 2), param("a") / 2], [param("b") + Rat(1, 3), Rat(0), Rat(5, 12)], Rat(7, 12))
    @example([ParamPoly(), Rat(1)], [Rat(0), ParamPoly.constant(3)], ParamPoly())
    def test_ring_operations(self, a, b, s):
        p, q = UniPoly(a), UniPoly(b)
        op, oq = CoeffUniPoly(a), CoeffUniPoly(b)
        same(p + q, op + oq)
        same(p - q, op - oq)
        same(q - p, oq - op)
        same(-p, -op)
        same(p * q, op * oq)
        same(q * p, oq * op)
        same(p + s, op + s)
        same(s - p, s - op)
        same(p * s, op * s)
        same(s * p, s * op)
        assert p == q if op.coeffs == oq.coeffs else p != q

    @given(POLYS, SCALARS)
    def test_scalar_division(self, a, s):
        # A divisor with parameters divides p * s exactly.
        p, op = UniPoly(a), CoeffUniPoly(a)
        if not s:
            with pytest.raises(ZeroDivisionError):
                p / s
        elif isinstance(s, ParamPoly) and not s.is_constant():
            same((p * s) / s, (op * s) / s)
        else:
            same(p / s, op / s)

    @given(POLYS, st.integers(0, 3))
    def test_powers_shifts_and_derivative(self, a, n):
        p, op = UniPoly(a), CoeffUniPoly(a)
        same(p**n, op**n)
        same(p.derivative(), op.derivative())

    @given(POLYS, SCALARS, st.integers(0, 5))
    @example([param("a") / 2, Rat(1, 3)], Rat(5, 12), 0)
    @example([Rat(1, 6)], param("b") + Rat(1, 3), 0)
    def test_evaluation_and_taylor_coefficients(self, a, v, j):
        p, op = UniPoly(a), CoeffUniPoly(a)
        same_scalar(p(v), op(v))
        same_scalar(taylor_coeff(p, v, j), coeff_taylor(op, v, j))

    @given(POLYS)
    def test_canonical_form(self, a):
        p = UniPoly(a)
        num, den = p.numerators, p.denominator
        assert den > 0 and (not num or num[-1])
        contents = [
            z if isinstance(z, int) else math.gcd(*z.numerators.values()) for z in num
        ]
        assert math.gcd(den, *contents) == 1
        assert all(isinstance(z, ParamPoly) and z.denominator == 1 or type(z) is int for z in num)
        back = UniPoly.from_integers(num, den)
        assert back == p and back.coeffs == p.coeffs
        assert [type(c) for c in back.coeffs] == [type(c) for c in p.coeffs]


class TestIntegerNumerators:
    """The numerators are Python ints whatever the rational backend, and a
    scalar times a polynomial does not depend on the order."""

    def test_numerators_are_python_ints(self):
        p = UniPoly([Rat(1, 2), Rat(-3, 4), Rat(5)])
        for r in (p, p * p + p.derivative(), p / Rat(3, 8), p**2 - Rat(1, 3), UniPoly.monomial(1) * p):
            assert all(type(z) is int for z in r.numerators)
            assert type(r.denominator) is int
        q = UniPoly([param("a") / 2, Rat(1, 3)])
        for z in (q * p).numerators:
            values = z.numerators.values() if isinstance(z, ParamPoly) else [z]
            assert all(type(v) is int for v in values)

    def test_scalar_products_commute(self):
        half = UniPoly([Rat(1, 2)])
        for s in (param("a") / 3 + Rat(1, 2), ParamPoly.constant(Rat(2, 3)), Rat(-5, 6)):
            assert (half * s).coeffs == (s * half).coeffs
            assert [type(c) for c in (half * s).coeffs] == [type(c) for c in (s * half).coeffs]

    def test_lowest_terms(self):
        p = UniPoly([Rat(2, 3), Rat(4, 3)]) * UniPoly([Rat(3, 2)])
        assert p.numerators == (1, 2) and p.denominator == 1
        assert UniPoly.from_integers([6, -4], -10) == UniPoly([Rat(-3, 5), Rat(2, 5)])
        assert UniPoly.from_integers([0, 0], 7).is_zero()
        with pytest.raises(ZeroDivisionError):
            UniPoly.from_integers([1], 0)

    def test_root_factor(self):
        for root in (Rat(-3, 4), Rat(0), param("a") / 2 + Rat(1, 3), ParamPoly()):
            want = CoeffUniPoly([-root, 1])
            same(UniPoly.root_factor(root), want)
