"""Confluent Vandermonde / Wronskian matrices and Hermite interpolation."""

import fractions
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals, rootsets
from oracles import (
    basic_hermite_per_call,
    hermite_bordered,
    hermite_weight_sum,
    lagrange_interpolant,
    matrix_rows,
    pole_weight_sum,
    poly_product,
    sres_one_sum,
    vandermonde_binomial,
    vandermonde_det_product,
    vandermonde_taylor,
    vprime_per_call,
    wronskian_taylor,
)
from subres import (
    ExactMatrix,
    MultiRootSet,
    ParamPoly,
    Rat,
    UniPoly,
    confluent_inverse,
    det_exact,
    pairing_R,
    param,
    poly_from_roots,
    taylor_coeff,
    vandermonde_confluent,
    vandermonde_det_closed,
    wronskian,
    wronskian_det_closed,
)
from subres import confluent, rootsets as rootset_module
from subres.confluent import (
    _hermite_row,
    _interpolate,
    _inverse_mismatch,
    _pole_numerators,
    _root,
)
from subres.scalar import _numerators
from subres.verify import random_rootset, univariate_checks


def rs(*pairs):
    return MultiRootSet([(Rat(r), m) for r, m in pairs])


def poly(*ascending):
    return UniPoly([Rat(c) if isinstance(c, int) else c for c in ascending])


def pole_numerators(alpha, slots, n):
    """``_pole_numerators`` of alpha over the slots (gamma, m, p), alpha
    and the gammas given as scalars and read as numerators over one q."""
    nums, q = _numerators([alpha] + [gamma for gamma, _, _ in slots])
    return _pole_numerators([(nums[0] - x, m, p) for x, (_, m, p) in zip(nums[1:], slots)], q, n)


def assert_pole_weights(alpha, slots, n, want):
    """The n pole weights of alpha over the slots are want: num[k] is
    want[k] times den."""
    num, den = pole_numerators(alpha, slots, n)
    assert den and len(num) == n
    assert all(v == w * den for v, w in zip(num, want))


def q(rows):
    return ExactMatrix([[Rat(v) for v in row] for row in rows])


def interpolate(a, data):
    """The polynomial of degree < d with Taylor datum data[(i, j)] at each
    (root, order) pair, through the route the order d-1 form runs
    (``confluent._interpolate``), the values read as numerators over one
    denominator."""
    keys = list(data)
    nums, den = _numerators([data[key] for key in keys])
    return _interpolate(a, zip(keys, nums), den)


def taylor_blocks(a):
    """Block i of V': the Taylor data of f_i at alpha_i, read as block i of
    row 0 of f_i's Wronskian over A, where the package reads Taylor data."""
    blocks, offset = [], 0
    for i, (_, d_i) in enumerate(a, start=1):
        row = wronskian(_root(a, i)[0], a, 1).rows[0]
        blocks.append(row[offset : offset + d_i])
        offset += d_i
    return blocks


class TestVandermonde:
    def test_simple_roots_give_classical_vandermonde(self):
        m = vandermonde_confluent(rs((2, 1), (3, 1), (5, 1)), 3)
        assert m == q([(1, 1, 1), (2, 3, 5), (4, 9, 25)])

    def test_displayed_three_by_five(self):
        # blocks (0,3);(1,2), three rows
        m = vandermonde_confluent(rs((0, 3), (1, 2)), 3)
        assert m == q([(1, 0, 0, 1, 0), (0, 1, 0, 1, 1), (0, 0, 1, 1, 2)])

    def test_det_729(self):
        a = rs((2, 3), (5, 2))
        assert det_exact(vandermonde_confluent(a, 5)) == 729
        assert vandermonde_det_closed(a) == 729  # 3^6

    def test_closed_form_single_block(self):
        assert vandermonde_det_closed(rs((7, 4))) == 1

    def test_closed_form_simple(self):
        assert vandermonde_det_closed(rs((0, 1), (1, 1), (2, 1))) == 2

    @given(rootsets(max_blocks=4))
    def test_closed_form_matches_determinant(self, a):
        m = vandermonde_confluent(a, a.total)
        assert det_exact(m) == vandermonde_det_closed(a)


    @given(rootsets(max_blocks=4), st.integers(0, 8))
    def test_matches_binomial_entry_formula(self, a, u):
        assert matrix_rows(vandermonde_confluent(a, u)) == vandermonde_binomial(a, u)

    def test_parametric_roots_match_binomial_entry_formula(self):
        s = param("s")
        a = MultiRootSet([(s, 3), (s + 1, 2), (Rat(-2), 1)])
        for u in range(9):
            assert matrix_rows(vandermonde_confluent(a, u)) == vandermonde_binomial(a, u)


class TestWronskian:
    @given(rootsets(), st.lists(rationals(), min_size=1, max_size=4), st.integers(0, 7))
    def test_rows_are_taylor_data_of_shifted_multiples(self, a, coeffs, u):
        h = UniPoly(coeffs + [param("c")])
        m = wronskian(h, a, u)
        for k in range(u):
            want = [taylor_coeff(UniPoly.monomial(k) * h, alpha, j) for alpha, d in a for j in range(d)]
            assert m.rows[k] == want

    def test_displayed_x_minus_z_block(self):
        x = param("x")
        h = UniPoly([x, Rat(-1)])  # x - z as a polynomial in z
        m = wronskian(h, rs((0, 3)), 3)
        assert m.nrows == 3 and m.ncols == 3
        expect = [[x, -1, 0], [0, x, -1], [0, 0, x]]
        for i in range(3):
            for j in range(3):
                assert m[i, j] == expect[i][j]

    def test_single_row_is_taylor_data(self):
        b = rs((2, 2), (3, 1))
        g = poly_from_roots(b)
        a = rs((1, 2), (4, 1))
        m = wronskian(g, a, 1)
        col = 0
        for alpha, mult in a:
            for j in range(mult):
                assert m[0, col] == taylor_coeff(g, alpha, j)
                col += 1

    def test_z_squared_double_root_det(self):
        h = poly(0, 0, 1)
        a = rs((1, 2))
        m = wronskian(h, a, 2)
        assert m == q([(1, 2), (1, 3)])
        assert det_exact(m) == 1
        assert wronskian_det_closed(h, a) == 1

    def test_constant_h_reduces_to_vandermonde(self):
        a = rs((-1, 2), (2, 1))
        assert wronskian_det_closed(poly(1), a) == vandermonde_det_closed(a)
        assert wronskian(poly(1), a, 3) == vandermonde_confluent(a, 3)

    def test_symbolic_two_simple_roots(self):
        x = param("x")
        h = UniPoly([x, Rat(-1)])
        a = rs((1, 1), (2, 1))
        got = det_exact(wronskian(h, a, 2))
        want = (x - 1) * (x - 2)
        assert got == want
        assert wronskian_det_closed(h, a) == want

    @given(rootsets(max_blocks=3))
    def test_closed_form_matches_determinant(self, a):
        h = poly(2, 0, -1, 1)
        assert det_exact(wronskian(h, a, a.total)) == wronskian_det_closed(h, a)


class TestIntegralTable:
    """Each root set keeps one integral table: row k is q^k V_k, q the lcm
    of the roots' denominators."""

    SETS = {
        "mixed denominators": [(Rat(1, 7), 2), (Rat(2, 9), 3), (Rat(-5, 6), 1)],
        "integers": [(Rat(3), 2), (Rat(-1), 1), (Rat(0), 3)],
        "fractional parameters": [
            (param("a") / 2, 2),
            (param("a") + Rat(1, 3), 2),
            (Rat(-3, 4), 1),
            (param("b"), 1),
        ],
    }

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_row_k_over_q_to_the_k_is_the_binomial_formula(self, name):
        a = MultiRootSet(self.SETS[name])
        rows, q = confluent._vandermonde_rows(a, 7)
        assert q == {"mixed denominators": 126, "integers": 1, "fractional parameters": 12}[name]
        for k, row in enumerate(rows[:7]):
            for v in row:
                assert type(v) is int or (isinstance(v, ParamPoly) and v.denominator == 1)
            assert [v / Rat(q**k) for v in row] == vandermonde_binomial(a, 7)[k]
        assert confluent._vandermonde_rows(a, 3)[0] is rows

    @pytest.mark.parametrize("name", sorted(SETS))
    @pytest.mark.parametrize("u", [0, 3, 8])
    def test_wronskian_rows_of_one_are_the_table_rows(self, name, u):
        # The table is the Wronskian of 1: its rows are shared, not rebuilt.
        a = MultiRootSet(self.SETS[name])
        rows, scales = confluent._wronskian_rows(UniPoly([1]), a, u)
        table, q = confluent._vandermonde_rows(a, u)
        assert len(rows) == u and all(row is table[k] for k, row in enumerate(rows))
        assert scales == [q**k for k in range(u)]

    def test_integer_sets_hold_plain_ints(self):
        a = MultiRootSet(self.SETS["integers"])
        rows, _ = confluent._vandermonde_rows(a, 6)
        assert {type(v) for row in rows for v in row} == {int}

    @pytest.mark.parametrize("name", sorted(SETS))
    @pytest.mark.parametrize("u", [0, 1, 4, 9])
    def test_public_matrices_match_the_taylor_oracles(self, name, u):
        a = MultiRootSet(self.SETS[name])
        assert vandermonde_confluent(a, u) == vandermonde_taylor(a, u)
        hs = (poly(Rat(1, 6), Rat(-2, 35), 0, 1), UniPoly.zero(), poly(Rat(5, 4)), poly_from_roots(a))
        for h in hs:
            assert wronskian(h, a, u) == wronskian_taylor(h, a, u)

    def test_zero_h_and_zero_rows(self):
        a = MultiRootSet(self.SETS["mixed denominators"])
        assert wronskian(UniPoly.zero(), a, 3) == q([[0] * a.total] * 3)
        assert wronskian(poly(2, 1), a, 0) == vandermonde_confluent(a, 0) == ExactMatrix([])

    @given(rootsets(max_blocks=3), st.lists(rationals(den_bound=12), max_size=4), st.integers(0, 6))
    def test_wronskian_rows_scale_back_to_the_oracle(self, a, coeffs, u):
        h = UniPoly(coeffs)
        rows, scales = confluent._wronskian_rows(h, a, u)
        assert all(type(v) is int for row in rows for v in row)
        assert [[v / Rat(s) for v in row] for row, s in zip(rows, scales)] == matrix_rows(
            wronskian_taylor(h, a, u)
        )


class TestRowTable:
    """Each root set grows its integral confluent Vandermonde table once;
    the matrices handed out are new rows divided back from it."""

    @staticmethod
    def types(m):
        return [[type(v) for v in row] for row in m.rows]

    def test_mutating_a_returned_matrix_leaves_the_set_alone(self):
        a = rs((2, 2), (-1, 1))
        h = poly(1, -2, 1)
        v = vandermonde_confluent(a, 4)
        v.rows[1][0] = Rat(99)
        v.rows[0].append(Rat(7))
        w = wronskian(h, a, 3)
        w.rows[0][1] = Rat(-99)
        w.rows[2][:] = []
        assert vandermonde_confluent(a, 4) == vandermonde_taylor(a, 4)
        assert wronskian(h, a, 3) == wronskian_taylor(h, a, 3)
        assert wronskian(poly(1), a, 4) == vandermonde_taylor(a, 4)

    def test_rows_grown_in_any_order_agree(self):
        a = rs((Rat(1, 2), 3), (0, 1))
        for u in (2, 6, 0, 3, 7, 1):
            assert vandermonde_confluent(a, u) == vandermonde_taylor(a, u)
        b = rs((3, 2))
        assert wronskian(poly(0, 0, 0, 0, 1), b, 2) == wronskian_taylor(poly(0, 0, 0, 0, 1), b, 2)
        assert vandermonde_confluent(b, 5) == vandermonde_taylor(b, 5)

    def test_equal_sets_keep_their_own_entry_types(self):
        # Rat(3) and ParamPoly.constant(3) compare and hash equal, so the
        # two sets are equal values; their rows must not be shared.
        plain = MultiRootSet([(Rat(3), 2), (Rat(-1), 1)])
        boxed = MultiRootSet([(ParamPoly.constant(3), 2), (Rat(-1), 1)])
        assert plain == boxed and hash(plain) == hash(boxed)
        h = poly(1, -2, 1)
        for first, second in ((plain, boxed), (boxed, plain)):
            first, second = MultiRootSet(first.pairs), MultiRootSet(second.pairs)
            for a in (first, second):
                for u in (5, 2):
                    assert self.types(vandermonde_confluent(a, u)) == self.types(
                        vandermonde_taylor(a, u)
                    )
                    assert self.types(wronskian(h, a, u)) == self.types(wronskian_taylor(h, a, u))
        rat = type(Rat(0))
        assert {t for row in self.types(vandermonde_confluent(plain, 5)) for t in row} == {rat}
        assert ParamPoly in {t for row in self.types(wronskian(h, boxed, 5)) for t in row}

    def test_equal_sets_keep_their_own_closed_form_types(self):
        # The same holds for the polynomial, the determinant and the Hermite
        # basis, whichever of the two equal sets derives them first.
        plain = [(Rat(3), 2), (Rat(-1), 1)]
        boxed = [(ParamPoly.constant(3), 2), (Rat(-1), 1)]
        rat = type(Rat(0))
        for order in ((plain, boxed), (boxed, plain)):
            sets = [MultiRootSet(pairs) for pairs in order]
            for a in sets:
                assert [type(c) for c in poly_from_roots(a).coeffs] == [
                    type(c) for c in poly_product(a).coeffs
                ]
                assert type(vandermonde_det_closed(a)) is type(vandermonde_det_product(a))
                for i, (_, d_i) in enumerate(a, start=1):
                    for j in range(d_i):
                        assert [type(c) for c in _hermite_row(a, i)[j].coeffs] == [
                            type(c) for c in basic_hermite_per_call(a, i, j).coeffs
                        ]
            first = sets[0]
            types = {type(c) for c in poly_from_roots(first).coeffs}
            types |= {type(vandermonde_det_closed(first))}
            types |= {type(c) for row in confluent_inverse(first).rows for c in row}
            assert (types == {rat}) if order[0] is plain else (ParamPoly in types)


class TestDerivedOnce:
    """One cross-check battery derives each set's polynomial, integral
    table, determinant, root chains and Hermite basis at most once."""

    @staticmethod
    def spy(monkeypatch, module, name):
        calls = []
        build = getattr(module, name)

        def counted(a, *args):
            calls.append((id(a),) + args)
            return build(a, *args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "pairs_a, pairs_b",
        [
            (((0, 2), (1, 1), (Rat(1, 2), 3)), ((2, 3), (-1, 2), (5, 2))),
            (((1, 1), (2, 1)), ((0, 1), (3, 1), (-2, 1))),
            (((4, 3),), ((4, 1), (0, 2))),
        ],
    )
    def test_one_battery_builds_each_value_once(self, monkeypatch, pairs_a, pairs_b):
        a, b = rs(*pairs_a), rs(*pairs_b)
        polys = self.spy(monkeypatch, rootset_module, "_monic")
        tables = self.spy(monkeypatch, confluent, "_new_table")
        dets = self.spy(monkeypatch, confluent, "_vandermonde_det")
        chains = self.spy(monkeypatch, confluent, "_root_chain")
        bases = self.spy(monkeypatch, confluent, "_hermite_basis")
        checks = univariate_checks(a, b)
        assert checks and all(c.ok for c in checks)
        small = a if a.total <= b.total else b
        assert sorted(polys) == sorted([(id(a),), (id(b),)])
        assert sorted(tables) == sorted([(id(a),), (id(b),)])
        assert sorted(dets) == sorted([(id(a),), (id(b),)])
        assert len(chains) == len(set(chains))
        assert sorted(bases) == [(id(small), i) for i in range(1, small.m + 1)]


def fraction_ops(call):
    """(call(), n), n the calls into ``fractions`` made from outside it
    while call runs: constructions and operations, not reads of a value's
    numerator or denominator."""
    path = fractions.__file__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename == path
            and frame.f_back.f_code.co_filename != path
            and code.co_name not in ("numerator", "denominator")
        ):
            count += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, count


@pytest.mark.skipif(type(Rat(0)) is not fractions.Fraction, reason="counts Fraction operations")
class TestOneRationalPerValue:
    """On rational roots the closed forms run on integer numerators: the
    root-difference product takes at most one Fraction operation, and the
    pole weights and the Hermite basis take none."""

    A = ((Rat(1, 5), 3), (Rat(-2, 7), 2), (Rat(3), 1))
    B = ((Rat(3, 11), 2), (Rat(4), 3))

    def test_pairing_is_one_division(self):
        a, b = MultiRootSet(self.A), MultiRootSet(self.B)
        g = poly_product(b)
        value, ops = fraction_ops(lambda: pairing_R(a, b))
        assert value == g(Rat(1, 5)) ** 3 * g(Rat(-2, 7)) ** 2 * g(Rat(3))
        assert ops <= 1

    def test_pole_numerators_take_no_fraction_operation(self):
        alpha, d_i = self.A[0]
        slots = [(beta, e, e * (d_i - 1)) for beta, e in self.B]
        slots += [(gamma, d, 0) for gamma, d in self.A[1:]]
        (num, den), ops = fraction_ops(lambda: pole_numerators(alpha, slots, d_i))
        assert ops == 0
        assert num == [pole_weight_sum(alpha, slots, k) * den for k in range(d_i)]

    def test_hermite_basis_takes_one_per_polynomial(self):
        a = MultiRootSet(self.A)
        for i, (_, d_i) in enumerate(a, start=1):
            row, ops = fraction_ops(lambda: confluent._hermite_row(a, i))
            assert len(row) == d_i and ops == 0
        assert _inverse_mismatch(a) is None


class TestFiki:
    """The chain (x - alpha_i)^k f_i, k < d_i, of each root (``_root``)."""

    def test_single_block_power(self):
        a = rs((3, 4))
        assert _root(a, 1)[2] == poly(9, -6, 1)  # (x-3)^2

    def test_mixed_block(self):
        a = rs((0, 2), (1, 1))
        assert _root(a, 1)[1] == poly(0, -1, 1)  # x(x-1)
        assert _root(a, 2)[0] == poly(0, 0, 1)   # x^2


class TestBasicHermite:
    def test_single_block_is_shifted_power(self):
        a = rs((5, 3))
        for j in range(3):
            assert _hermite_row(a, 1)[j] == poly(-5, 1) ** j

    def test_simple_roots_lagrange(self):
        a = rs((1, 1), (2, 1), (4, 1))
        roots = [Rat(1), Rat(2), Rat(4)]
        for i, alpha in enumerate(roots, start=1):
            values = [Rat(1) if r == alpha else Rat(0) for r in roots]
            assert _hermite_row(a, i)[0] == lagrange_interpolant(roots, values)

    def test_displayed_mixed_case(self):
        # ((0,2);(1,1)), (i,j) = (1,1) -> x - x^2
        assert _hermite_row(rs((0, 2), (1, 1)), 1)[1] == poly(0, 1, -1)

    @given(rootsets(max_blocks=3, max_mult=3))
    def test_cardinal_conditions(self, a):
        for i, (alpha, mult) in enumerate(a, start=1):
            for j in range(mult):
                p = _hermite_row(a, i)[j]
                assert p.is_zero() or p.degree < a.total
                for i2, (alpha2, mult2) in enumerate(a, start=1):
                    for j2 in range(mult2):
                        want = Rat(1) if (i2, j2) == (i, j) else Rat(0)
                        assert taylor_coeff(p, alpha2, j2) == want


class TestHermiteInterpolate:
    def test_reproduces_low_degree_polynomial(self):
        a = rs((0, 2), (1, 2), (3, 1))
        f = poly(1, -2, 0, 5, -1)
        data = {}
        for i, (alpha, mult) in enumerate(a, start=1):
            for j in range(mult):
                data[(i, j)] = taylor_coeff(f, alpha, j)
        assert interpolate(a, data) == f

    def test_single_block_is_taylor_truncation(self):
        a = rs((2, 3))
        g = poly(0, 0, 0, 0, 1)  # x^4
        data = {(1, j): taylor_coeff(g, Rat(2), j) for j in range(3)}
        p = interpolate(a, data)
        # truncated Taylor of x^4 at 2 to order 2: 16 + 32(x-2) + 24(x-2)^2
        shift = poly(-2, 1)
        want = poly(16) + poly(32) * shift + poly(24) * shift ** 2
        assert p == want

    def test_matches_bordered_determinant_oracle(self):
        rng = random.Random(424)
        for _ in range(8):
            a = random_rootset(rng, rng.randint(1, 5))
            data = {}
            for i, (_, mult) in enumerate(a, start=1):
                for j in range(mult):
                    data[(i, j)] = Rat(rng.randint(-6, 6), rng.randint(1, 3))
            assert interpolate(a, data) == hermite_bordered(a, data)


class TestConfluentInverse:
    def test_trivial(self):
        assert confluent_inverse(rs((0, 1))) == q([[1]])

    def test_two_simple_roots(self):
        assert confluent_inverse(rs((0, 1), (1, 1))) == q([(1, -1), (0, 1)])

    def test_product_is_identity_mixed(self):
        assert _inverse_mismatch(rs((0, 2), (1, 1))) is None

    @given(rootsets(max_blocks=3))
    def test_product_is_identity(self, a):
        assert _inverse_mismatch(a) is None


class TestVPrime:
    """The block-diagonal companion V' of the confluent Vandermonde matrix:
    its blocks as the package reads Taylor data (``taylor_blocks``) against
    the per-call oracle (``vprime_per_call``), and its determinant."""

    def test_single_block_is_identity(self):
        a = rs((7, 3))
        assert taylor_blocks(a) == [[1, 0, 0]]
        assert vprime_per_call(a) == q([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_two_simple_roots(self):
        a = rs((0, 1), (1, 1))
        assert taylor_blocks(a) == [[-1], [1]]
        m = vprime_per_call(a)
        assert m == q([(-1, 0), (0, 1)])
        assert det_exact(m) == -1

    def test_block_structure_holds_taylor_data(self):
        a = rs((0, 2), (1, 1))
        m = vprime_per_call(a)
        f1 = _root(a, 1)[0]  # (x-1)
        # upper-left 2x2 block: Toeplitz in the Taylor coefficients of f1 at 0
        assert taylor_blocks(a)[0] == [taylor_coeff(f1, Rat(0), j) for j in range(2)]
        assert m[0, 0] == taylor_coeff(f1, Rat(0), 0)
        assert m[0, 1] == taylor_coeff(f1, Rat(0), 1)
        assert m[1, 0] == 0
        assert m[1, 1] == taylor_coeff(f1, Rat(0), 0)

    def test_mixed_case_determinant_positive(self):
        # ((0,2);(1,1)): det = f1(0)^2 * f2(1)^1 = (-1)^2 * 1 = +1
        a = rs((0, 2), (1, 1))
        assert det_exact(vprime_per_call(a)) == 1
        assert [block[0] for block in taylor_blocks(a)] == [-1, 1]

    @given(rootsets(max_blocks=3))
    def test_true_determinant_identity(self, a):
        # det V' = prod_i fi(alpha_i)^{d_i} = (-1)^{sum_{i<j} d_i d_j} (det V)^2;
        # V' is block upper-triangular, so det V' is the product of the
        # blocks' leading entries to the d_i.
        got = det_exact(vprime_per_call(a))
        mults = a.mults
        cross = sum(
            mults[i] * mults[j] for i in range(len(mults)) for j in range(i + 1, len(mults))
        )
        v2 = vandermonde_det_closed(a) ** 2
        assert got == (v2 if cross % 2 == 0 else -v2)
        prod = Rat(1)
        for i, (alpha, mult) in enumerate(a, start=1):
            prod = prod * _root(a, i)[0](alpha) ** mult
        assert got == prod
        lead = Rat(1)
        for block, mult in zip(taylor_blocks(a), mults):
            lead = lead * block[0] ** mult
        assert got == lead


class TestPoleWeights:
    """The one series product against both composition sums as the paper
    displays them, for every k <= 5."""

    A_SETS = (
        [(Rat(0), 6), (Rat(1), 2), (Rat(1, 2), 1)],
        [(Rat(-2), 6), (Rat(3), 3), (Rat(7, 3), 2)],
        [(param("a"), 6), (param("a") + 1, 1)],
        [(Rat(4), 6)],
    )
    B_SETS = (
        [(Rat(6), 2), (Rat(-1), 1), (Rat(9), 3)],
        [(param("b"), 1), (param("b") - 2, 2)],
    )

    def test_hermite_weights(self):
        for pairs in self.A_SETS:
            a = MultiRootSet(pairs)
            for i, (alpha, _) in enumerate(a, start=1):
                others = [(r, d, 0) for idx, (r, d) in enumerate(a, start=1) if idx != i]
                want = [hermite_weight_sum(a, i, k) for k in range(6)]
                assert_pole_weights(alpha, others, 6, want)

    def test_order_one_sums_with_the_folded_power_of_g(self):
        # Root 1 has multiplicity 6, so its n = 6 weights reach k = 5; the
        # other roots check k < d_i.
        for pairs_a in self.A_SETS:
            for pairs_b in self.B_SETS:
                a, b = MultiRootSet(pairs_a), MultiRootSet(pairs_b)
                g = poly_product(b)
                for i, (alpha, d_i) in enumerate(a, start=1):
                    slots = [(beta, e, e * (d_i - 1)) for beta, e in b]
                    slots += [(r, d, 0) for idx, (r, d) in enumerate(a, start=1) if idx != i]
                    want = [sres_one_sum(a, b, i, k, g(alpha)) for k in range(d_i)]
                    assert_pole_weights(alpha, slots, d_i, want)

    def test_every_slot_order_gives_the_oracle_sums(self):
        # The slots fold by one product, so each of their orders gives the
        # paper's composition sums; root 1 of the first set has 5 slots.
        for pairs_a in self.A_SETS:
            for pairs_b in self.B_SETS:
                a, b = MultiRootSet(pairs_a), MultiRootSet(pairs_b)
                g = poly_product(b)
                for i, (alpha, d_i) in enumerate(a, start=1):
                    slots = [(beta, e, e * (d_i - 1)) for beta, e in b]
                    slots += [(r, d, 0) for idx, (r, d) in enumerate(a, start=1) if idx != i]
                    want = [sres_one_sum(a, b, i, k, g(alpha)) for k in range(d_i)]
                    for order in permutations(slots):
                        assert_pole_weights(alpha, list(order), d_i, want)

    def test_a_slot_that_multiplies_and_divides(self):
        # p = 2 with n = 5: the first slot's series is a power for j < 2 and
        # a division for j > 2.  In the last case (b, 1, 0) alone divides
        # by a - b at j = 1, and (2b - a, 3, 3) brings (2a - 2b)^3 to the
        # same weight, so the weights are polynomials in either order.
        a, b = param("a"), param("b")
        for alpha, slots, n in (
            (Rat(1), [(Rat(3), 2, 2), (Rat(-1), 1, 0), (Rat(1, 2), 3, 4)], 5),
            (a, [(a + 2, 2, 2), (b, 1, 4), (a - 1, 3, 0)], 5),
            (a, [(2 * b - a, 3, 3), (b, 1, 0)], 2),
        ):
            want = [pole_weight_sum(alpha, slots, k) for k in range(n)]
            for order in permutations(slots):
                assert_pole_weights(alpha, list(order), n, want)

    def test_no_division_at_order_zero(self):
        # A slot with p = 0 divides only for k >= 1: a simple root against
        # a symbolic one needs no division, whatever the difference.
        assert pole_numerators(param("a"), [(param("b"), 3, 0)], 1) == ([1], 1)
        assert pole_numerators(Rat(2), [], 3) == ([1, 0, 0], 1)
