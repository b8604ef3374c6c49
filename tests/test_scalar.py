"""Rational and parameterized scalar arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from subres import DomainError, ParamPoly, Rat, as_scalar, is_rational, param, rat, substitute_scalar


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
