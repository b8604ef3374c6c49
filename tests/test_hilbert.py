"""Counting functions and the T/T*/R monomial families."""

from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subres import DomainError, MultiPoly, Rat
from subres.combinat import monomials_of_degree, monomials_up_to_degree
from subres.mv.hilbert import (
    MonomialSet,
    build_monomial_sets,
    hilbert_function,
    tau,
)
from subres.mv.macaulay import MVSystem, _row_indices, macaulay_matrix
from oracles import enumerated_hilbert, series_hilbert


class TestHilbertFunction:
    def test_order_zero(self):
        assert hilbert_function((2, 2, 1), 0) == 1
        assert hilbert_function((3, 4, 2), 0) == 1

    def test_top_order_examples(self):
        # only alpha = (1, 1) survives at t = 2 when the last degree is 1
        assert hilbert_function((2, 2, 1), 2) == 1
        assert hilbert_function((2, 2, 1), 1) == 2

    def test_vanishes_beyond_critical_degree(self):
        for degs in ((2, 2, 1), (3, 2, 2), (2, 2, 2, 3)):
            rho = sum(d - 1 for d in degs[:-1])
            for t in range(rho + degs[-1], rho + degs[-1] + 3):
                assert hilbert_function(degs, t) == 0

    def test_matches_series_oracle(self):
        for degs in iproduct((1, 2, 3, 4), repeat=3):
            for t in range(9):
                assert hilbert_function(degs, t) == series_hilbert(degs, t)
        for degs in iproduct((1, 2, 3), repeat=4):
            for t in range(9):
                assert hilbert_function(degs, t) == series_hilbert(degs, t)

    def test_matches_enumeration_oracle(self):
        for degs in iproduct((1, 2, 3, 4), repeat=3):
            for t in range(9):
                assert hilbert_function(degs, t) == enumerated_hilbert(degs, t)
        for degs in iproduct((1, 2, 3), repeat=4):
            for t in range(9):
                assert hilbert_function(degs, t) == enumerated_hilbert(degs, t)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            hilbert_function((2,), 0)
        with pytest.raises(DomainError):
            hilbert_function((2, 0), 1)
        with pytest.raises(DomainError):
            hilbert_function((2, 2), -1)


class TestTau:
    def test_binomial_like_rows(self):
        assert [tau((2, 2), j) for j in range(4)] == [1, 2, 1, 0]
        assert [tau((2, 2, 2), j) for j in range(5)] == [1, 3, 3, 1, 0]
        assert [tau((3,), j) for j in range(4)] == [1, 1, 1, 0]

    def test_total_mass_is_degree_product(self):
        for degs in ((2, 3), (4, 2, 3), (2, 2, 2)):
            total = sum(tau(degs, j) for j in range(sum(degs)))
            prod = 1
            for d in degs:
                prod *= d
            assert total == prod

    def test_validation(self):
        with pytest.raises(DomainError):
            tau((2, 2), -1)
        with pytest.raises(DomainError):
            tau((), 0)


class TestMonomialSet:
    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            MonomialSet([(1, 0), (1, 0)])

    def test_mixed_widths_rejected(self):
        with pytest.raises(DomainError):
            MonomialSet([(1, 0), (1,)])

    def test_iteration_preserves_order(self):
        s = MonomialSet([(0, 1), (1, 0)])
        assert list(s) == [(0, 1), (1, 0)]
        assert len(s) == 2


class TestBuildMonomialSets:
    def test_circle_line_default(self):
        sets = build_monomial_sets((2, 2, 1), 2)
        assert list(sets.tj[0]) == [(0, 0)]
        assert list(sets.tj[1]) == [(1, 0), (0, 1)]
        assert list(sets.tj[2]) == [(2, 0)]
        assert list(sets.T) == [(0, 0), (1, 0), (0, 1), (2, 0)]
        assert list(sets.T_star) == []
        assert list(sets.R) == [(0, 0), (1, 0), (0, 1)]
        c = sets.combinatorics
        assert (c.k, c.s, c.r, c.bezout) == (1, 0, 3, 4)
        assert c.k + c.s + c.r == c.bezout

    def test_circle_line_override(self):
        sets = build_monomial_sets((2, 2, 1), 2, t_override={2: [(0, 2)]})
        assert list(sets.tj[2]) == [(0, 2)]
        assert list(sets.T) == [(0, 0), (1, 0), (0, 1), (0, 2)]

    def test_univariate_case(self):
        for d, e in ((2, 3), (3, 3), (1, 4)):
            sets = build_monomial_sets((d, e), 0)
            assert list(sets.T) == [(j,) for j in range(d)]
            assert sets.combinatorics.bezout == d

    def test_forced_slices_are_reduced_monomials(self):
        sets = build_monomial_sets((3, 2, 1), 3)
        for j in range(3):  # j < t - last + 1 = 3 forces the slice
            for m in sets.tj[j]:
                assert sum(m) == j and m[0] < 3 and m[1] < 2

    def test_no_forced_slices_when_last_degree_large(self):
        sets = build_monomial_sets((2, 2, 3), 2)
        c = sets.combinatorics
        assert (c.k, c.s, c.r) == (4, 0, 0)
        assert list(sets.R) == []

    def test_override_wrong_size_rejected(self):
        with pytest.raises(DomainError) as err:
            build_monomial_sets((2, 2, 1), 2, t_override={2: [(2, 0), (0, 2)]})
        assert "tau" in str(err.value)

    def test_override_wrong_degree_rejected(self):
        with pytest.raises(DomainError):
            build_monomial_sets((2, 2, 1), 2, t_override={2: [(1, 0)]})

    def test_override_on_forced_degree_must_match(self):
        sets = build_monomial_sets((2, 2, 1), 2, t_override={1: [(0, 1), (1, 0)]})
        assert list(sets.tj[1]) == [(1, 0), (0, 1)]
        with pytest.raises(DomainError) as err:
            build_monomial_sets((2, 2, 1), 2, t_override={1: [(1, 0)]})
        assert "forced" in str(err.value)

    def test_override_outside_range_rejected(self):
        with pytest.raises(DomainError):
            build_monomial_sets((2, 2, 1), 2, t_override={9: [(9, 0)]})

    def test_counts_consistent_across_grid(self):
        for degs in iproduct((1, 2, 3), (1, 2, 3), (1, 2)):
            rho = sum(d - 1 for d in degs[:-1])
            for t in range(rho + 1):
                sets = build_monomial_sets(degs, t)
                c = sets.combinatorics
                assert len(sets.T) == c.bezout
                assert c.k + c.s + c.r == c.bezout
                assert c.k == hilbert_function(degs, t)

    @given(st.data())
    def test_counts_hold_for_any_slices_and_any_s(self, data):
        # |T| = prod D_i and k + |T*| + |R| = prod D_i hold for every
        # admissible choice of the free slices, and the Macaulay matrix is
        # square for every k-set S, reducible monomials included.
        n = data.draw(st.integers(1, 3), label="n")
        degs = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1)))
        first, last = degs[:-1], degs[-1]
        rho = sum(d - 1 for d in first)
        t = data.draw(st.integers(0, rho + last + 1), label="t")
        override = {}
        for j in range(max(0, t - last + 1), max(rho, t) + 1):
            if data.draw(st.booleans(), label="override T_%d" % j):
                pool = monomials_of_degree(n, j)
                picked = data.draw(st.permutations(pool), label="T_%d" % j)
                override[j] = picked[: tau(first, j)]
        sets = build_monomial_sets(degs, t, override)
        c = sets.combinatorics
        assert len(sets.T) == c.bezout
        assert c.k + c.s + c.r == c.bezout
        assert c.k == hilbert_function(degs, t)
        pool = monomials_up_to_degree(n, t)
        s_cols = data.draw(st.permutations(pool), label="S")[: c.k]
        polys = [
            MultiPoly(n, {m: Rat(1) for m in monomials_up_to_degree(n, d)}) for d in degs
        ]
        m = macaulay_matrix(MVSystem(n, polys, degs), t, s_cols)
        assert m.nrows == m.ncols
        for j in range(rho + 2):
            assert len(_row_indices(first, j, n)) == len(monomials_of_degree(n, j)) - tau(first, j)
