"""Rational and parameterized scalar arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from oracles import RatParamPoly
from subres import DomainError, ParamPoly, Rat, as_scalar, is_rational, param, rat, substitute_scalar
from subres.scalar import _numerators

NAMES = ("a", "b", "c")


@st.composite
def poly_pairs(draw, max_terms=4):
    """(ParamPoly, RatParamPoly) built from the same terms: 1-3 parameters,
    exponents up to 2, coefficients over denominators 1-6."""
    names = NAMES[: draw(st.integers(1, 3))]
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = tuple((n, e) for n in names if (e := draw(st.integers(0, 2))))
        terms[key] = Rat(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
    return ParamPoly(terms), RatParamPoly(terms)


def assert_matches(p, ref):
    """p has the reference's value and printed form, in canonical form."""
    assert isinstance(p, ParamPoly)
    assert dict(p.terms) == ref.terms
    assert all(type(c) is type(Rat(0)) for c in p.terms.values())
    assert str(p) == str(ref)
    nums = p.numerators
    assert p.denominator > 0
    assert math.gcd(p.denominator, *nums.values()) == 1
    assert all(nums.values())


class TestRat:
    def test_construction_and_normalization(self):
        assert rat(6, 4) == Rat(3, 2)
        assert rat(5) == 5
        assert rat("7/3") == Rat(7, 3)
        assert rat(-2, -4) == Rat(1, 2)

    def test_floats_rejected(self):
        with pytest.raises((DomainError, TypeError)):
            rat(0.5)

    def test_is_rational(self):
        assert is_rational(Rat(1, 2))
        assert is_rational(3)
        assert not is_rational(param("a"))
        assert not is_rational("3")

    @given(rationals(), rationals())
    def test_field_ops(self, x, y):
        assert x + y - y == x
        assert x * y == y * x
        if y != 0:
            assert (x / y) * y == x


class TestParamPoly:
    def test_construction(self):
        a = param("a")
        assert isinstance(a, ParamPoly)
        assert not a.is_constant()
        c = ParamPoly.constant(Rat(5))
        assert c.is_constant() and c.constant_value() == 5

    def test_arithmetic(self):
        a, b = param("a"), param("b")
        p = (a + b) * (a - b)
        assert p == a * a - b * b
        assert (a + 1) ** 2 == a * a + 2 * a + 1
        assert a - a == 0
        assert bool(a - a) is False

    def test_cancelled_terms_dropped(self):
        a, b = param("a"), param("b")
        assert (a + 1 - a).terms == {(): 1}
        assert (a * b - b * a).terms == {}
        assert ((a + b) * (a - b)).terms == {(("a", 2),): 1, (("b", 2),): -1}
        assert (-(a - a)).terms == {}
        assert all(type(c) is type(Rat(0)) for c in ((a + 2) * (b - Rat(1, 3)) + 3).terms.values())

    def test_exact_division(self):
        a, b = param("a"), param("b")
        p = a * a - b * b
        assert p / (a + b) == a - b
        assert p / (a - b) == a + b
        assert (2 * a) / 2 == a

    def test_inexact_division_raises(self):
        a, b = param("a"), param("b")
        with pytest.raises(DomainError):
            (a * a + b) / (a + b)
        with pytest.raises(DomainError):
            1 / a

    def test_substitution_total(self):
        a, b = param("a"), param("b")
        p = a * b + 2 * a + 1
        assert p.substitute({"a": Rat(3), "b": Rat(-1)}) == -3 + 6 + 1

    def test_partial_substitution_rejected(self):
        a, b = param("a"), param("b")
        with pytest.raises(DomainError):
            (a + b).substitute({"a": Rat(1)})

    def test_substitute_scalar_passthrough(self):
        assert substitute_scalar(Rat(3), {}) == 3
        assert substitute_scalar(param("a") + 1, {"a": Rat(2)}) == 3

    def test_equality_with_numbers(self):
        assert ParamPoly.constant(Rat(4)) == 4
        assert param("a") != 4
        assert param("a") == param("a")

    def test_hash_consistency(self):
        a = param("a")
        assert hash(a * a + 1) == hash(a * a + 1)
        assert len({a, param("a")}) == 1

    def test_str_is_canonical_infix(self):
        c0, c2 = param("c0"), param("c2")
        p = -(c0 ** 3) - 2 * c0 ** 2 * c2
        assert str(p) == "-c0^3 - 2*c0^2*c2"
        assert str(ParamPoly.constant(Rat(0))) == "0"
        assert str(Rat(1, 2) * param("a")) == "1/2*a"

    @given(rationals(), rationals(), rationals())
    def test_substitution_is_a_ring_morphism(self, x, y, z):
        a, b = param("a"), param("b")
        p = a * a * x + b * y + z
        q = a * b + x
        env = {"a": y, "b": z}
        assert (p * q).substitute(env) == p.substitute(env) * q.substitute(env)
        assert (p + q).substitute(env) == p.substitute(env) + q.substitute(env)

    def test_parameters_listed(self):
        p = param("u") * param("v") + 1
        assert p.parameters() == {"u", "v"}

    def test_as_scalar(self):
        assert as_scalar(3) == 3
        assert as_scalar(Rat(1, 2)) == Rat(1, 2)
        assert as_scalar(param("a")) == param("a")
        with pytest.raises(DomainError):
            as_scalar(0.25)


class TestIntegerNumerators:
    """ParamPoly on int numerators over one denominator against the
    dict-of-rationals reference."""

    @given(poly_pairs(), poly_pairs())
    def test_ring_operations(self, x, y):
        (p, rp), (q, rq) = x, y
        assert_matches(p, rp)
        assert_matches(p + q, rp + rq)
        assert_matches(p - q, rp - rq)
        assert_matches(p * q, rp * rq)
        assert_matches(-p, -rp)

    @given(poly_pairs(max_terms=3), st.integers(0, 3))
    def test_powers(self, x, n):
        p, rp = x
        assert_matches(p**n, rp**n)

    @given(poly_pairs(), rationals(num_bound=6, den_bound=6))
    def test_rational_operands(self, x, c):
        p, rp = x
        assert_matches(p + c, rp + c)
        assert_matches(c - p, c - rp)
        assert_matches(p * c, rp * c)
        if c:
            assert_matches(p / c, rp / c)
            assert_matches(p / ParamPoly.constant(c), rp / c)

    @given(poly_pairs(max_terms=3), poly_pairs(max_terms=3))
    def test_exact_division(self, x, y):
        (p, rp), (q, rq) = x, y
        if not q:
            return
        product = p * q
        assert_matches(product / q, rp * rq / rq)
        assert product / q == p

    @given(poly_pairs(), poly_pairs(), rationals(num_bound=6, den_bound=6))
    def test_equality_and_hash(self, x, y, c):
        (p, rp), (q, rq) = x, y
        assert (p == q) == (rp == rq)
        assert (p == c) == (rp == c)
        if p.is_constant():
            assert hash(p) == hash(rp)
        same = p + q - q
        assert same == p and hash(same) == hash(p)
        k = ParamPoly.constant(c)
        assert k == c and hash(k) == hash(c)
        assert (p == k) == (rp == c)
        # Same numerators over another denominator: equal only at zero.
        assert (p / 2 == p) == p.is_zero()
        assert (k / 3 == c) == (c == 0)


    def test_from_integers_takes_lowest_terms(self):
        p = ParamPoly.from_integers({(): 2, (("a", 1),): 4, (("b", 1),): 0}, -6)
        assert_matches(p, RatParamPoly({(): Rat(-1, 3), (("a", 1),): Rat(-2, 3)}))
        assert p.numerators == {(): -1, (("a", 1),): -2} and p.denominator == 3
        zero = ParamPoly.from_integers({(): 0}, 4)
        assert_matches(zero, RatParamPoly())
        assert zero.denominator == 1


class _Wide:
    """An integer that is not a Python int, as gmpy2's mpz is: a product
    or a floor quotient with an int gives another one."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    __int__ = __index__

    def __mul__(self, other):
        return _Wide(self.v * int(other))

    __rmul__ = __mul__

    def __rfloordiv__(self, other):
        return _Wide(int(other) // self.v)


class _WideRat:
    """A rational whose parts are ``_Wide``, as gmpy2's mpq has mpz parts."""

    def __init__(self, p, q):
        self.numerator = _Wide(p)
        self.denominator = _Wide(q)


class TestNumerators:
    """``_numerators`` gives Python ints over an int lcm whatever types the
    rationals' parts have, so no integer kernel sees an mpz."""

    def test_wide_rationals_give_python_int_numerators(self):
        for values, want in (
            ([_WideRat(1, 2), _WideRat(-2, 3), _WideRat(0, 1)], ([3, -4, 0], 6)),
            ([_WideRat(5, 1), _WideRat(-7, 1)], ([5, -7], 1)),
        ):
            nums, d = _numerators(values)
            assert (nums, d) == want
            assert all(type(z) is int for z in nums) and type(d) is int
        (half, third_a), d = _numerators([_WideRat(1, 2), param("a") / 3])
        assert d == 6 and type(d) is int
        assert half == 3 and type(half) is int
        assert third_a == 2 * param("a") and third_a.denominator == 1


class TestMixedWithRat:
    """The active backend's rationals on either side of a ParamPoly."""

    def test_both_operand_orders(self):
        a = param("a")
        cases = [
            (Rat(2, 3) + a, ParamPoly({(("a", 1),): 1, (): Rat(2, 3)})),
            (a - Rat(2, 3), ParamPoly({(("a", 1),): 1, (): Rat(-2, 3)})),
            (Rat(2, 3) * a, ParamPoly({(("a", 1),): Rat(2, 3)})),
            (Rat(2, 3) / ParamPoly.constant(2), ParamPoly.constant(Rat(1, 3))),
            (a / Rat(2, 3), ParamPoly({(("a", 1),): Rat(3, 2)})),
            (Rat(2, 3) - a, ParamPoly({(("a", 1),): -1, (): Rat(2, 3)})),
        ]
        for got, want in cases:
            assert type(got) is ParamPoly
            assert got == want and str(got) == str(want)
        third = Rat(2, 3) / ParamPoly.constant(2)
        assert third == Rat(1, 3) and hash(third) == hash(Rat(1, 3))
        assert str(Rat(2, 3) + a) == "a + 2/3"
        assert str(a / Rat(2, 3)) == "3/2*a"
