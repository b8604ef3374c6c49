"""Root sets with multiplicities, their polynomials, and the pairing."""

import pytest
from hypothesis import given

from conftest import rootsets
from subres import (
    DomainError,
    MultiRootSet,
    Rat,
    UniPoly,
    pairing_R,
    param,
    poly_from_roots,
    taylor_coeff,
)


def rs(*pairs):
    return MultiRootSet([(Rat(r) if isinstance(r, int) else r, m) for r, m in pairs])


class TestMultiRootSet:
    def test_basic_fields(self):
        a = rs((1, 2), (2, 1))
        assert a.m == 2
        assert a.total == 3
        assert list(a) == [(1, 2), (2, 1)]

    def test_duplicate_roots_rejected(self):
        with pytest.raises(DomainError):
            rs((1, 1), (1, 2))

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            rs((1, 0))
        with pytest.raises(DomainError):
            rs((1, -2))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            MultiRootSet([])

    def test_float_roots_rejected(self):
        with pytest.raises(DomainError):
            MultiRootSet([(0.5, 1)])

    def test_symbolic_roots_allowed(self):
        eps = param("eps")
        a = MultiRootSet([(eps, 1), (eps + 1, 2)])
        assert a.total == 3


class TestPolyFromRoots:
    def test_single_simple_root(self):
        assert poly_from_roots(rs((1, 1))) == UniPoly([Rat(-1), Rat(1)])

    def test_double_root(self):
        assert poly_from_roots(rs((1, 2))) == UniPoly([Rat(1), Rat(-2), Rat(1)])

    def test_mixed_product(self):
        # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2
        assert poly_from_roots(rs((1, 2), (2, 1))) == UniPoly([Rat(-2), Rat(5), Rat(-4), Rat(1)])

    @given(rootsets())
    def test_vanishing_orders(self, a):
        f = poly_from_roots(a)
        assert f.coeff(a.total) == 1  # monic
        for alpha, mult in a:
            for j in range(mult):
                assert taylor_coeff(f, alpha, j) == 0
            assert taylor_coeff(f, alpha, mult) != 0


class TestPairing:
    def test_two_by_one(self):
        assert pairing_R(rs((1, 1), (2, 1)), rs((3, 1))) == 2

    def test_shared_root_gives_zero(self):
        assert pairing_R(rs((1, 1), (2, 1)), rs((2, 2))) == 0

    def test_double_root_square(self):
        assert pairing_R(rs((0, 2)), rs((1, 1), (-1, 1))) == 1

    def test_matches_polynomial_evaluation(self):
        a, b = rs((1, 2), (3, 1)), rs((0, 1), (2, 2))
        g = poly_from_roots(b)
        expect = g(Rat(1)) ** 2 * g(Rat(3))
        assert pairing_R(a, b) == expect

    def test_reads_any_pairs_once(self):
        # Generators are read once; multiple roots over coprime denominators
        # give the product its one common denominator 385.
        a = [(Rat(1, 5), 3), (Rat(-2, 7), 2)]
        b = [(Rat(3, 11), 2), (Rat(4), 3)]
        g = poly_from_roots(MultiRootSet(b))
        expect = g(Rat(1, 5)) ** 3 * g(Rat(-2, 7)) ** 2
        assert pairing_R((p for p in a), (p for p in b)) == expect
        assert pairing_R(MultiRootSet(a), iter(b)) == expect
        assert pairing_R([], (p for p in b)) == 1

    @given(rootsets(max_blocks=2), rootsets(max_blocks=2))
    def test_antisymmetry(self, a, b):
        d, e = a.total, b.total
        lhs = pairing_R(a, b)
        rhs = pairing_R(b, a)
        assert lhs == rhs if (d * e) % 2 == 0 else lhs == -rhs
