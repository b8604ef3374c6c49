"""Exact matrices: fraction-free determinants, kernels, products."""

import math
import random
from itertools import product as iproduct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import rationals
from oracles import (
    bareiss_eager,
    det_cofactor,
    kernel_by_rows,
    kronecker_shift,
    matrix_product,
    matrix_rows,
    nullspace_gauss_jordan,
    pack_per_term,
    reduced_echelon_by_rows,
)
from subres import (
    DomainError,
    ExactMatrix,
    ParamPoly,
    Rat,
    UniPoly,
    det_exact,
    param,
)
from subres import matrix
from subres.confluent import vandermonde_det_closed, wronskian, wronskian_det_closed
from subres.matrix import (
    _GaussJordan,
    _bordered_bound,
    _kernel,
    _pack,
    _unpack,
    det_bordered,
    det_orders,
    reduced_echelon,
)
from subres.rootsets import MultiRootSet


# Integers, zeros (so leading pivots vanish) and rationals whose denominators
# are built negative as often as positive.
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(
        Rat,
        st.integers(-30, 30),
        st.integers(1, 40).flatmap(lambda d: st.sampled_from([d, -d])),
    ),
)

# Rational coefficients: negative, non-integer, and now and then large.
COEFFS = st.builds(
    Rat,
    st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12)),
    st.sampled_from([1, 2, 3, -4, 7]),
)


@st.composite
def param_polys(draw, names):
    """A ParamPoly of up to four terms in ``names``, each exponent at most 2."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = tuple((name, e) for name in names if (e := draw(st.integers(0, 2))))
        terms[key] = draw(COEFFS)
    return ParamPoly(terms)


@st.composite
def integer_param_polys(draw):
    """A ParamPoly in a and b of total degree at most 2, with integer
    coefficients in [-9, 9]."""
    a, b = param("a"), param("b")
    monomials = [a**i * b**j for i in range(3) for j in range(3 - i)]
    return sum((draw(st.integers(-9, 9)) * m for m in monomials), ParamPoly())


@st.composite
def rank_deficient(draw):
    """An m x r times r x c product of ENTRIES, rank at most r, with some
    rows and columns then set to zero."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    left = [[Rat(draw(ENTRIES)) for _ in range(rank)] for _ in range(nrows)]
    right = [[Rat(draw(ENTRIES)) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum((left[i][k] * right[k][j] for k in range(rank)), Rat(0)) for j in range(ncols)]
        for i in range(nrows)
    ]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [Rat(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = Rat(0)
    return rows


RAT = type(Rat(0))


def random_matrix(rng, n, bound=9):
    return ExactMatrix(
        [[Rat(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


class TestDeterminant:
    def test_small_exact_values(self):
        assert det_exact(ExactMatrix([[Rat(2)]])) == 2
        assert det_exact(ExactMatrix([[Rat(1), Rat(2)], [Rat(3), Rat(4)]])) == -2
        eye = ExactMatrix([[Rat(int(i == j)) for j in range(5)] for i in range(5)])
        assert det_exact(eye) == 1

    def test_empty_matrix(self):
        assert det_exact(ExactMatrix([])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            det_exact(ExactMatrix([[Rat(1), Rat(2)]]))

    def test_matches_cofactor_oracle_bulk(self):
        # >= 200 random rational matrices up to 6x6
        rng = random.Random(20260814)
        cases = 0
        for n in range(1, 7):
            for _ in range(40):
                m = random_matrix(rng, n)
                assert det_exact(m) == det_cofactor(matrix_rows(m))
                cases += 1
        assert cases >= 200

    def test_singular_and_zero_pivot_paths(self):
        m = ExactMatrix([[Rat(0), Rat(1)], [Rat(0), Rat(2)]])
        assert det_exact(m) == 0
        m = ExactMatrix([[Rat(0), Rat(1)], [Rat(1), Rat(0)]])
        assert det_exact(m) == -1

    def test_parameterized_entries(self):
        a, b = param("a"), param("b")
        m = ExactMatrix([[a, b], [b, a]])
        assert det_exact(m) == a * a - b * b

    def test_substitution_commutes_with_determinant(self):
        rng = random.Random(99)
        a, b = param("a"), param("b")
        for _ in range(10):
            base = [[Rat(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
            rows = [row[:] for row in base]
            rows[0][0] = rows[0][0] + a
            rows[1][2] = rows[1][2] * b
            rows[3][1] = rows[3][1] - a * b
            m = ExactMatrix(rows)
            sym = det_exact(m)
            env = {"a": Rat(rng.randint(-3, 3)), "b": Rat(rng.randint(-3, 3))}
            subbed_rows = [
                [v.substitute(env) if isinstance(v, ParamPoly) else v for v in row] for row in rows
            ]
            direct = det_exact(ExactMatrix(subbed_rows))
            subbed = sym.substitute(env) if hasattr(sym, "substitute") else sym
            assert subbed == direct

    @given(st.integers(1, 4), st.data())
    def test_transpose_invariance(self, n, data):
        rows = [
            [data.draw(rationals()) for _ in range(n)] for _ in range(n)
        ]
        assert det_exact(ExactMatrix(rows)) == det_exact(ExactMatrix(list(zip(*rows))))


class TestIntegerScaling:
    """Rational matrices are eliminated over the integers after row scaling."""

    @given(st.integers(1, 5), st.data())
    def test_matches_cofactor_oracle(self, n, data):
        rows = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            rows[0][0] = 0
        if n > 1 and data.draw(st.booleans()):
            factor = data.draw(ENTRIES)
            rows[-1] = [factor * v for v in rows[0]]
        m = ExactMatrix(rows)
        got = det_exact(m)
        assert got == det_cofactor(matrix_rows(m))
        assert type(got) is type(Rat(0))

    def test_zero_leading_pivots_swap_rows(self):
        m = ExactMatrix([[0, 0, Rat(1, 3)], [0, Rat(-2, 5), 7], [Rat(3, -4), 1, 0]])
        assert det_exact(m) == det_cofactor(matrix_rows(m)) == Rat(-1, 10)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([], 1),
            ([[Rat(3, 7)]], Rat(3, 7)),
            ([[5]], 5),
            ([[Rat(1, 2), 1], [0, 2]], 1),
            ([[Rat(1, 2), 1], [1, 2]], 0),
        ],
    )
    def test_result_is_always_rational(self, rows, want):
        got = det_exact(ExactMatrix(rows))
        assert got == want
        assert type(got) is type(Rat(0))

    def test_parameter_entries_mixed_with_fractions(self):
        rng = random.Random(4242)
        a, b = param("a"), param("b")
        for n in range(1, 5):
            for _ in range(5):
                rows = [
                    [Rat(rng.randint(-6, 6), rng.choice([1, 2, -3, 5])) for _ in range(n)]
                    for _ in range(n)
                ]
                rows[rng.randrange(n)][rng.randrange(n)] = a * Rat(1, 3) - b
                rows[0][0] = 0
                m = ExactMatrix(rows)
                assert det_exact(m) == det_cofactor(matrix_rows(m))


class TestKroneckerPacking:
    """Matrices with ParamPoly entries go through the same integer loop, packed."""

    @staticmethod
    def expected_type(rows):
        if any(isinstance(v, ParamPoly) for row in rows for v in row):
            return ParamPoly
        return type(Rat(0))

    @given(st.integers(1, 3), st.integers(0, 4), st.data())
    def test_matches_cofactor_oracle(self, n_params, n, data):
        names = ("a", "b", "c")[:n_params]
        entry = st.one_of(ENTRIES, param_polys(names))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n and data.draw(st.booleans()):
            rows[0][0] = ParamPoly()
        if n > 1 and data.draw(st.booleans()):
            factor = data.draw(param_polys(names))
            rows[-1] = [factor * v for v in rows[0]]
        m = ExactMatrix(rows)
        got = det_exact(m)
        assert got == det_cofactor(matrix_rows(m))
        assert type(got) is self.expected_type(m.rows)

    def test_zero_polynomial_pivot_swaps_rows(self):
        a, b = param("a"), param("b")
        m = ExactMatrix([[ParamPoly(), a - 2, 1], [Rat(-1, 3), b, 0], [a * b, 0, Rat(5, 2)]])
        got = det_exact(m)
        assert got == det_cofactor(matrix_rows(m))
        assert isinstance(got, ParamPoly) and got.parameters() == {"a", "b"}

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[param("a")]],
            [[ParamPoly.constant(Rat(-7, 3))]],
            [[ParamPoly()]],
            [[param("a"), param("b")], [2 * param("a"), 2 * param("b")]],
            [[param("a"), Rat(1, 2)], [0, 0]],
            [[0, param("a")], [0, Rat(3)]],
        ],
    )
    def test_small_and_singular_types(self, rows):
        m = ExactMatrix(rows)
        got = det_exact(m)
        assert got == det_cofactor(matrix_rows(m))
        assert type(got) is self.expected_type(m.rows)

    def test_coefficient_bound_met_with_negative_sign(self):
        # B = 3 * 5 and det = -15 p: the one coefficient sits on the bound.
        p = param("p")
        got = det_exact(ExactMatrix([[-3 * p, 0], [0, 5]]))
        assert got == -15 * p
        assert isinstance(got, ParamPoly)

    def test_degree_bound_met_in_every_parameter(self):
        a, b = param("a"), param("b")
        m = ExactMatrix([[a**2 * b, -1], [Rat(1, 3), -(b**2)]])
        assert det_exact(m) == -(a**2) * b**3 + Rat(1, 3)

    def test_leftover_after_last_digit_raises(self):
        # Two 4-bit digits in one parameter of degree 1, then something left.
        p = param("p")
        assert _unpack(-3 << 4, 4, ["p"], [1], 1) == -3 * p
        assert _unpack(7 + (7 << 4), 4, ["p"], [1], 1) == 7 + 7 * p
        assert _unpack(-8 - (8 << 4), 4, ["p"], [1], 1) == -8 - 8 * p
        for value in (1 << 8, 8 + (7 << 4), -(1 << 8), -9 - (8 << 4)):
            with pytest.raises(ArithmeticError):
                _unpack(value, 4, ["p"], [1], 1)

    @staticmethod
    def reader_args(unpack):
        """The (k, names, degrees, scale) a packing's reader passes on."""
        seen = []

        def spy(value, k, names, degrees, scale):
            seen.append((k, names, degrees, scale))
            return _unpack(value, k, names, degrees, scale)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix, "_unpack", spy)
            unpack(0)
        return seen[0]

    @given(st.sampled_from([("a", "b"), ("a", "b", "c")]), st.integers(1, 4), st.data())
    def test_pack_matches_per_term_oracle(self, names, n, data):
        # Entries of mixed degrees and denominators, with rational entries
        # and zeros among them (key ()), and one of degree 3 in the last
        # parameter.
        entry = st.one_of(ENTRIES, param_polys(names))
        rows = [[data.draw(entry) for _ in range(n + 1)] for _ in range(n)]
        rows[0][data.draw(st.integers(0, n))] = param(names[-1]) ** 3 + Rat(1, 5)
        bound = _bordered_bound(data.draw(st.integers(1, n)))
        a, unpack = _pack(rows, bound)
        want, k, want_names, degrees, scale = pack_per_term(rows, bound)
        assert a == want
        assert self.reader_args(unpack) == (k, want_names, degrees, scale)

    @pytest.mark.parametrize("degrees", [[2, 1], [1, 2, 1], [0, 3, 2]])
    def test_unpack_reads_every_digit(self, degrees):
        # Every digit nonzero, each read through one packing's reader: a
        # value of the low digits first, then every digit, then the low
        # ones again, so the reads share and grow one table of keys.
        names = ["a", "b", "c"][: len(degrees)]
        k = 5
        rows = [[sum((param(n) for n in names), ParamPoly())]]
        _, unpack = _pack(rows, lambda norms, tops, col_tops: ((2 ** (k - 2)) ** 2, degrees))
        assert self.reader_args(unpack)[:3] == (k, names, degrees)
        rng = random.Random(len(degrees))
        digits = {}
        for exponents in iproduct(*(range(d + 1) for d in degrees)):
            key = tuple((n, e) for n, e in zip(names, exponents) if e)
            digits[key] = rng.choice([z for z in range(-16, 16) if z])
        low = {key: z for key, z in digits.items() if kronecker_shift(key, names, degrees, k) < 2 * k}
        for coeffs in (low, digits, low):
            value = sum(z << kronecker_shift(key, names, degrees, k) for key, z in coeffs.items())
            got = unpack(value)
            assert got.numerators == coeffs and got.denominator == 1

    @staticmethod
    def packed_degrees(monkeypatch, m):
        seen = []

        def spy(value, k, names, degrees, scale):
            seen.append((names, degrees))
            return _unpack(value, k, names, degrees, scale)

        monkeypatch.setattr(matrix, "_unpack", spy)
        got = det_exact(m)
        return got, seen

    @pytest.mark.parametrize("transpose", [False, True])
    def test_many_parameters_pack_by_the_tighter_side(self, monkeypatch, transpose):
        # A Vandermonde matrix has the powers of one root down a column:
        # degree 4 in each root by columns, 0 + 1 + 2 + 3 + 4 = 10 by rows.
        # With the row bound its five roots pack into 11^5 digits, not 5^5.
        names = ["a", "b", "c", "d", "e"]
        roots = MultiRootSet([(param(n), 1) for n in names])
        rows = [[param(n) ** i for n in names] for i in range(5)]
        if transpose:
            rows = [list(col) for col in zip(*rows)]
        got, seen = self.packed_degrees(monkeypatch, ExactMatrix(rows))
        assert got == vandermonde_det_closed(roots)
        assert seen == [(names, [4] * 5)]

    def test_confluent_wronskian_in_four_parameters(self, monkeypatch):
        # Row k of W(z - 2) holds the Taylor data of z^k (z - 2), of degree
        # k + 1 - j in the root of inner column j.  By columns: 5 + 4 for the
        # double root a and 5 for each simple one; by rows 1 + ... + 5 = 15.
        a = MultiRootSet([(param("a"), 2), (param("b"), 1), (param("c") + 1, 1), (param("d"), 1)])
        h = UniPoly([-2, 1])
        got, seen = self.packed_degrees(monkeypatch, wronskian(h, a, a.total))
        assert got == wronskian_det_closed(h, a)
        assert seen == [(["a", "b", "c", "d"], [9, 5, 5, 5])]


class TestBordered:
    """n x (n-1+k) matrices: the first n-1 columns bordered by each later one."""

    @staticmethod
    def check(rows):
        """Every coefficient is det_exact of the shared columns plus one border."""
        n = len(rows)
        got = det_bordered(rows)
        for j in range(len(rows[0]) - n + 1):
            square = [row[: n - 1] + [row[n - 1 + j]] for row in rows]
            want = det_exact(ExactMatrix(square))
            assert got.coeff(j) == want == det_cofactor(square)
            rational = not isinstance(want, ParamPoly) or want.is_constant()
            assert (type(got.coeff(j)) is RAT) == rational
        return got

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    def test_random_rational_matrices(self, n, k, data):
        rows = [[data.draw(ENTRIES) for _ in range(n - 1 + k)] for _ in range(n)]
        self.check([[Rat(v) for v in row] for row in rows])

    def test_zero_first_shared_column_swaps_rows(self):
        rows = [
            [0, 2, Rat(1, 3), 0, 5],
            [0, Rat(-1, 2), 4, 1, 0],
            [Rat(3, 4), 1, 0, -2, 1],
        ]
        got = self.check([[Rat(v) for v in row] for row in rows])
        assert got.coeff(0) != 0 and got.coeff(2) != 0

    @given(st.integers(2, 5), st.integers(1, 3), st.data())
    def test_rank_deficient_shared_columns_give_zeros(self, n, k, data):
        # Shared columns of rank r < n - 1, an n x r times r x (n-1) product.
        r = data.draw(st.integers(0, n - 2))
        left = [[Rat(data.draw(ENTRIES)) for _ in range(r)] for _ in range(n)]
        right = [[Rat(data.draw(ENTRIES)) for _ in range(n - 1)] for _ in range(r)]
        rows = [
            [sum((left[i][m] * right[m][j] for m in range(r)), Rat(0)) for j in range(n - 1)]
            + [Rat(data.draw(ENTRIES)) for _ in range(k)]
            for i in range(n)
        ]
        assert self.check(rows) == UniPoly.zero()

    def test_one_row(self):
        row = [Rat(3, 2), Rat(0), param("a") - 1, Rat(-4)]
        got = det_bordered([row])
        assert got.coeffs == tuple(row)

    @given(st.integers(1, 5), st.data())
    def test_one_border_is_det_exact(self, n, data):
        rows = [[Rat(data.draw(ENTRIES)) for _ in range(n)] for _ in range(n)]
        got = det_bordered(rows)
        assert got == UniPoly([det_exact(ExactMatrix(rows))])

    def test_shape_rejected(self):
        for rows in ([], [[Rat(1)], [Rat(2)]]):
            with pytest.raises(DomainError):
                det_bordered(rows)

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
    def test_border_with_the_highest_degree_and_largest_coefficients(self, names):
        # The shared columns are linear in the parameters with small
        # coefficients; the border columns carry p^4 q^3 and coefficients
        # near 10^9.  Packing must size its digits for the borders.
        rng = random.Random(len(names))
        big = 10**9 + 7

        def small():
            return Rat(rng.randint(-3, 3)) + sum(
                (rng.randint(-2, 2) * param(p) for p in names), ParamPoly()
            )

        def border():
            p, q = rng.sample(names, 2)
            return rng.choice([-1, 1]) * big * param(p) ** 4 * param(q) ** 3 + rng.randint(-big, big)

        for n in (2, 3, 4):
            rows = [[small() for _ in range(n - 1)] + [border() for _ in range(3)] for _ in range(n)]
            got = self.check(rows)
            assert got.coeff(1).parameters() == set(names)

    def test_exact_divisor_and_rational_constants(self):
        a = param("a")
        rows = [[a, Rat(1), Rat(0)], [Rat(1), Rat(0), Rat(1)]]
        got = det_bordered(rows)
        assert got == UniPoly([Rat(-1), a])
        assert type(got.coeff(0)) is RAT
        scaled = [[v * (a + 1) for v in rows[0]], rows[1]]
        assert det_bordered(scaled, a + 1) == got

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_rational_divisor_folds_into_the_denominator(self, n, k, data):
        # Integer rows and a rational den give den's numerator and
        # denominator folded into one denominator; rational rows too.
        rows = [[data.draw(ENTRIES) for _ in range(n - 1 + k)] for _ in range(n)]
        den = data.draw(st.sampled_from([Rat(-3, 2), Rat(5, 12), Rat(7), Rat(-1)]))
        for entries in (rows, [[Rat(v) for v in row] for row in rows]):
            got = det_bordered(entries, den)
            want = det_bordered(entries)
            assert got.coeffs == tuple(c / den for c in want.coeffs)
            assert all(type(c) is RAT for c in got.coeffs)


# Entries of one domain per matrix: ints, rationals, parameter polynomials.
KINDS = {
    "int": st.integers(-9, 9),
    "rational": ENTRIES.map(Rat),
    "param": param_polys(("a", "b")),
}


class TestWideBorders:
    """``_dets`` with borders of width r: the first n-r columns bordered by
    each later block of r columns, in one elimination of the shared ones."""

    @staticmethod
    def read(rows, r):
        return matrix._read(*matrix._dets(rows, r))

    @staticmethod
    def squares(rows, r):
        """The square matrix of each block: the shared columns, then it."""
        shared = len(rows) - r
        return [
            [row[:shared] + row[j : j + r] for row in rows]
            for j in range(shared, len(rows[0]), r)
        ]

    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(0, 3),
        st.integers(1, 3),
        st.sampled_from(sorted(KINDS)),
        st.data(),
    )
    def test_each_block_is_det_exact(self, r, shared, blocks, kind, data):
        n = shared + r
        rows = [[data.draw(KINDS[kind]) for _ in range(shared + r * blocks)] for _ in range(n)]
        want = [det_exact(ExactMatrix(m)) for m in self.squares(rows, r)]
        assert self.read(rows, r) == want

    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(sorted(KINDS)),
        st.data(),
    )
    def test_singular_shared_columns_give_zeros(self, r, shared, blocks, kind, data):
        # Shared columns of rank below their count: an n x k times k x
        # shared product, k < shared.
        n = shared + r
        k = data.draw(st.integers(0, shared - 1))
        draw = KINDS[kind]
        left = [[data.draw(draw) for _ in range(k)] for _ in range(n)]
        right = [[data.draw(draw) for _ in range(shared)] for _ in range(k)]
        rows = [
            [sum((left[i][m] * right[m][j] for m in range(k)), 0) for j in range(shared)]
            + [data.draw(draw) for _ in range(r * blocks)]
            for i in range(n)
        ]
        assert self.read(rows, r) == [0] * blocks

    @pytest.mark.parametrize("r", [2, 3])
    def test_blocks_with_the_highest_degree_and_largest_coefficients(self, r):
        # Linear shared columns with small coefficients; one block carries
        # a^4 b^3 near 10^9, so packing must size its digits for it.
        rng = random.Random(r)
        big = 10**9 + 7
        a, b = param("a"), param("b")
        n = r + 2
        rows = [
            [rng.randint(-3, 3) + rng.randint(-2, 2) * a + rng.randint(-2, 2) * b for _ in range(2)]
            + [rng.randint(-3, 3) * a for _ in range(r)]
            + [rng.choice([-1, 1]) * big * a**4 * b**3 + rng.randint(-big, big) for _ in range(r)]
            for _ in range(n)
        ]
        want = [det_exact(ExactMatrix(m)) for m in self.squares(rows, r)]
        assert self.read(rows, r) == want
        assert want[1].parameters() == {"a", "b"}

    @pytest.mark.parametrize("r, blocks", [(1, 4), (2, 1), (2, 3), (3, 2)])
    def test_one_shared_phase_and_one_finish_per_wider_block(self, monkeypatch, r, blocks):
        # Width one reads the last row as it is: one _bareiss call and one
        # _pack pass, as det_exact and det_bordered always made.
        calls = []
        for name in ("_bareiss", "_pack"):
            real = getattr(matrix, name)
            monkeypatch.setattr(
                matrix, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
            )
        rng = random.Random(blocks)
        a = param("a")
        rows = [[rng.randint(-5, 5) * a + rng.randint(-5, 5) for _ in range(2 + r * blocks)] for _ in range(2 + r)]
        self.read(rows, r)
        assert calls == ["_pack", "_bareiss"] + ["_bareiss"] * (blocks if r > 1 else 0)


class TestIntegerDeterminants:
    """Integer determinants come back over the row scales whatever the
    rational backend, and a polynomial made of them has Python-int
    numerators."""

    def test_rational_rows_read_back_over_their_scales(self):
        rows = [[Rat(1, 2), Rat(2, 3)], [Rat(-5, 4), Rat(3)]]
        for m, want in ((rows, Rat(7, 3)), ([[Rat(1, 2)]], Rat(1, 2))):
            got = det_exact(ExactMatrix(m))
            assert got == want and type(got) is RAT
        got = det_bordered([rows[0] + [Rat(1, 5)], rows[1] + [0]], Rat(3, 7))
        assert got == UniPoly([Rat(49, 9), Rat(7, 12)])
        assert all(type(z) is int for z in got.numerators)


@st.composite
def sparse_integer_rows(draw, nrows, width):
    """``nrows`` integer rows of ``width`` entries, at least half of them
    0, with now and then a zero on the diagonal (a pivot to search for) and
    a column that is a multiple of another (dependent columns)."""
    cells = nrows * width
    rows = [[0] * width for _ in range(nrows)]
    places = draw(st.permutations(range(cells)))
    count = draw(st.integers(cells // 3, cells // 2))
    values = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=count, max_size=count))
    for place, v in zip(places, values):
        rows[place // width][place % width] = v
    for k in draw(st.sets(st.integers(0, min(nrows, width) - 1), max_size=2)):
        rows[k][k] = 0
    if width > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(width)))[:2]
        m = draw(st.integers(-2, 2))
        for row in rows:
            row[dst] = m * row[src]
    assume(2 * sum(not v for row in rows for v in row) >= cells)
    return rows


class TestLazyKernel:
    """``_bareiss`` skips a row whose pivot-column entry is 0 and scales it
    once when it is next touched; every entry it promises to leave up to
    date is the eager kernel's (``bareiss_eager``)."""

    @staticmethod
    def assert_trailing_equal(got, want, steps):
        assert [row[steps:] for row in got[steps:]] == [row[steps:] for row in want[steps:]]

    @given(st.integers(2, 6), st.integers(0, 3), st.data())
    def test_one_call_and_a_resumed_call_match_the_eager_kernel(self, n, extra, data):
        width = n + extra
        rows = data.draw(sparse_integer_rows(n, width))
        steps = data.draw(st.integers(1, n))
        start = data.draw(st.integers(0, steps))
        whole, eager = [list(r) for r in rows], [list(r) for r in rows]
        done = matrix._bareiss(whole, steps)
        assert done == bareiss_eager(eager, steps)
        if done:
            self.assert_trailing_equal(whole, eager, steps)
        # The same steps in two calls, the second resumed from the first's
        # last pivot on rows cut after some column past ``steps``, as
        # ``det_orders`` cuts them between orders.
        lazy, eager = [list(r) for r in rows], [list(r) for r in rows]
        first = matrix._bareiss(lazy, start)
        assert first == bareiss_eager(eager, start)
        if first is None:
            return
        self.assert_trailing_equal(lazy, eager, start)
        keep = data.draw(st.integers(steps, width))
        for row in lazy + eager:
            del row[keep:]
        second = matrix._bareiss(lazy, steps, first[1], start)
        assert second == bareiss_eager(eager, steps, first[1], start)
        if second:
            self.assert_trailing_equal(lazy, eager, steps)
            assert first[0] * second[0] == done[0] and second[1] == done[1]
        else:
            assert done is None

    @given(st.sampled_from([1, 2]), st.integers(0, 4), st.integers(1, 3), st.data())
    def test_bordered_determinants_of_sparse_rows(self, r, shared, blocks, data):
        n = shared + r
        rows = data.draw(sparse_integer_rows(n, shared + r * blocks))
        values, scale, unpack = matrix._dets([list(row) for row in rows], r)
        assert scale == 1 and unpack is None
        want = [
            det_cofactor([row[:shared] + row[j : j + r] for row in rows])
            for j in range(shared, shared + r * blocks, r)
        ]
        assert values == want


class TestDetOrders:
    """``det_orders`` against the cofactor expansion of each order's matrix,
    built whole: the first w - t bottom rows on top of the bordered top
    rows 0..t, or of the x rows x c top_k - top_(k+1), k < t."""

    @staticmethod
    def whole(bottom, top, t, borders=None, c=1):
        rows = [[UniPoly([v]) for v in row] for row in bottom[: len(top[0]) - t]]
        if borders is None:
            rows += [
                [UniPoly([-y, c * x]) for x, y in zip(top[k], top[k + 1])] for k in range(t)
            ]
            return det_cofactor(rows)
        rows = [row + [UniPoly.zero()] for row in rows]
        rows += [
            [UniPoly([v]) for v in top[k]] + [UniPoly([0] * k + [borders[k]])]
            for k in range(t + 1)
        ]
        return det_cofactor(rows)

    @staticmethod
    def layout(draw_entry, w, bordered):
        bottom = [[draw_entry() for _ in range(w)] for _ in range(w)]
        top = [[draw_entry() for _ in range(w)] for _ in range(w + 1)]
        return bottom, top, ([draw_entry.border() for _ in range(w + 1)] if bordered else None)

    @pytest.mark.parametrize("bordered", [True, False])
    def test_integer_rows_with_zeros_match_cofactor_oracle(self, bordered):
        # Entries are 0 half the time, so pivots are swapped for and bottom
        # rows run out: every lower order is then 0.
        rng = random.Random(1968)
        for _ in range(40):
            w = rng.randint(1, 4)

            def entry():
                return rng.choice([0, 0, 0, 1, -1, 2, -3])

            entry.border = lambda: rng.choice([1, 2, 3])
            bottom, top, borders = self.layout(entry, w, bordered)
            orders = sorted(rng.sample(range(w + 1), rng.randint(1, w + 1)))
            c = rng.choice([1, 2])
            got = det_orders(bottom, top, {t: 1 for t in orders}, borders, c)
            assert got == {t: self.whole(bottom, top, t, borders, c) for t in orders}

    @pytest.mark.parametrize("bordered", [True, False])
    @given(st.integers(1, 3), st.data())
    def test_parameter_rows_match_cofactor_oracle(self, bordered, w, data):
        def entry():
            return data.draw(st.one_of(st.just(0), integer_param_polys()))

        entry.border = lambda: data.draw(st.sampled_from([1, 3, 9]))
        bottom, top, borders = self.layout(entry, w, bordered)
        got = det_orders(bottom, top, {t: 1 for t in range(w + 1)}, borders, 3)
        assert got == {t: self.whole(bottom, top, t, borders, 3) for t in range(w + 1)}

    def test_divisors_and_an_empty_bottom(self):
        a = param("a")
        bottom, top, borders = [[2, 0], [a, 1]], [[a, 1], [1, a], [a + 1, 0]], [1, 2, 4]
        want = {t: self.whole(bottom, top, t, borders) for t in range(3)}
        # The first bottom row times a + 1; orders 0 and 1 take it.
        scaled = [[2 * a + 2, 0], bottom[1]]
        dens = {0: (a + 1) * 3, 1: (a + 1) * Rat(-1, 2), 2: Rat(5)}
        got = det_orders(scaled, top, dens, borders)
        assert got == {0: want[0] * Rat(1, 3), 1: want[1] * Rat(-2), 2: want[2] * Rat(1, 5)}
        assert det_orders([], top, {2: 1}, borders) == {2: want[2]}
        # With no bottom row the x rows are the Hankel pencil
        # det[x c_(i+j) - c_(i+j+1)], from top_k = (c_k, ..., c_(k+t-1)).
        for seq in ([3, -1, 4, 1, -5, 9, 2, -6, 5], [a, 1, a - 2, 0, 3, a, -1, 2 * a, 1]):
            for t in range(1, 5):
                hankel = [
                    [UniPoly([-seq[i + j + 1], seq[i + j]]) for j in range(t)] for i in range(t)
                ]
                top = [seq[k : k + t] for k in range(t + 1)]
                assert det_orders([], top, {t: Rat(-1, 2)}, c=1) == {t: det_cofactor(hankel) * -2}

    @pytest.mark.parametrize(
        "bottom, top, orders, path",
        [
            # bottom[0] leads with 0, so the shared phase swaps columns.
            (
                [[0, 2, 1], [1, 0, 3]],
                [[1, -1, 2], [3, 0, 1]],
                [1],
                [(True, -1), (False, 1), (False, 1)],
            ),
            # The leading entry x - 1 of the x rows vanishes at the node x = 1
            # alone, so ``_in_x`` swaps rows there; with no bottom row, and
            # after the shared step on (2, 1, -1).
            ([], [[1, 2], [1, -1], [2, 3]], [2], [(False, 1), (False, 1), (True, -1), (False, 1)]),
            (
                [[2, 1, -1]],
                [[1, 1, 2], [1, 1, -1], [3, -2, 1]],
                [2],
                [(False, 1), (False, 1), (True, -1), (False, 1)],
            ),
            # Two equal bottom rows: order 2 is finished, then no pivot is
            # left for order 1, and orders 1 and 0 are 0 with no more steps.
            (
                [[1, 2, 0], [1, 2, 0], [0, 0, 1]],
                [[1, 5, 7], [0, 1, -1], [2, 0, 1], [1, 1, 1]],
                [0, 1, 2],
                [(False, 1)] * 4 + [(True, None)],
            ),
        ],
    )
    def test_x_rows_at_zero_pivots_and_dependent_bottom_rows(
        self, monkeypatch, bottom, top, orders, path
    ):
        # Each ``_bareiss`` call as (whether the leading entry of its first
        # step is 0, the sign of its row swaps or None).
        seen = []
        bareiss = matrix._bareiss

        def spy(a, steps, prev=1, start=0):
            zero = steps > start and a[start][start] == 0
            done = bareiss(a, steps, prev, start)
            seen.append((zero, done and done[0]))
            return done

        monkeypatch.setattr(matrix, "_bareiss", spy)
        got = det_orders(bottom, top, {t: 1 for t in orders})
        assert got == {t: self.whole(bottom, top, t) for t in orders}
        assert seen == path

    @pytest.mark.parametrize("t", [2, 3])
    def test_x_rows_read_back_only_the_coefficients(self, monkeypatch, t):
        # Top rows a e_0, a (e_k - e_(k-1)) for 0 < k < t and -a e_(t-1) make
        # the x rows at c = 3 tridiagonal, with determinant a^t sum_k (3x)^k.
        # Each entry is at most c |top_k|_1 + |top_(k+1)|_1 on the unit torus,
        # which bounds the coefficients but not the node values: at the last
        # node, x = t, the value is larger than one digit holds.  The node
        # values stay packed and only the t + 1 coefficients are unpacked.
        seen = []

        def spy(value, k, names, degrees, scale):
            seen.append(k)
            return _unpack(value, k, names, degrees, scale)

        monkeypatch.setattr(matrix, "_unpack", spy)
        a = param("a")
        unit = [[a if i == k else 0 for i in range(t)] for k in range(t)]
        top = [unit[0]] + [[x - y for x, y in zip(unit[k], unit[k - 1])] for k in range(1, t)]
        top.append([-x for x in unit[t - 1]])
        got = det_orders([], top, {t: 1}, c=3)[t]
        assert got == UniPoly([Rat(3**k) for k in range(t + 1)]) * UniPoly([a**t])
        assert got == self.whole([], top, t, c=3)
        assert len(seen) == t + 1
        assert sum((3 * t) ** k for k in range(t + 1)) >= 2 ** (seen[0] - 1)


class TestStructure:
    def test_int_entries_kept(self):
        m = ExactMatrix([[3, Rat(1, 2)], [0, -7]])
        assert [type(v) for row in m.rows for v in row] == [int, RAT, int, int]
        assert det_exact(m) == -21 and type(det_exact(m)) is RAT
        assert ExactMatrix([[1, 2], [2, 4]]).nullspace() == [[Rat(-2), Rat(1)]]

    @pytest.mark.parametrize("bad", [1.5, 0.0, "1", None, [Rat(1)]])
    def test_inexact_and_other_entries_rejected(self, bad):
        with pytest.raises(DomainError):
            ExactMatrix([[Rat(1), bad]])

    def test_minor_from_indexing(self):
        m = ExactMatrix([[Rat(v) for v in row] for row in ((1, 2, 3), (4, 5, 6), (7, 8, 9))])
        minor = ExactMatrix([[m[i, j] for j in (0, 2)] for i in (0, 2)])
        assert minor == ExactMatrix([[Rat(1), Rat(3)], [Rat(7), Rat(9)]])
        assert minor != ExactMatrix([[Rat(1), Rat(3)], [Rat(7), Rat(8)]])

    def test_nullspace_annihilates(self):
        m = ExactMatrix([[Rat(1), Rat(2), Rat(3)], [Rat(2), Rat(4), Rat(6)]])
        kernel = m.nullspace()
        assert len(kernel) == 2
        for vec in kernel:
            prod = matrix_product(m, ExactMatrix([[v] for v in vec]))
            assert all(prod[i, 0] == 0 for i in range(prod.nrows))

    def test_nullspace_full_rank_is_empty(self):
        m = ExactMatrix([[Rat(1), Rat(0)], [Rat(1), Rat(1)]])
        assert m.nullspace() == []

    def test_nullspace_zero_column_gives_unit_vector(self):
        m = ExactMatrix([[Rat(0), Rat(1)], [Rat(0), Rat(2)]])
        kernel = m.nullspace()
        assert len(kernel) == 1
        assert list(kernel[0]) == [1, 0]

    def test_rank_nullity(self):
        rng = random.Random(17)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = ExactMatrix(
                [[Rat(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
            )
            kernel = m.nullspace()
            # rank + nullity = ncols; estimate rank through the kernel of the transpose
            cokernel = ExactMatrix(list(zip(*m.rows))).nullspace()
            rank = ncols - len(kernel)
            assert rank == nrows - len(cokernel)


class TestNullspace:
    @given(rank_deficient())
    def test_matches_gauss_jordan_oracle(self, rows):
        kernel = ExactMatrix(rows).nullspace()
        assert kernel == nullspace_gauss_jordan(rows, len(rows[0]))
        assert all(type(v) is RAT for vec in kernel for v in vec)

    @pytest.mark.parametrize(
        "rows",
        [
            [[Rat(0)]],
            [[Rat(-3, 7)]],
            [[]],
            [[], []],
            [[Rat(0), Rat(0)], [Rat(0), Rat(0)]],
            [[Rat(-1, 2), Rat(3, 4), Rat(0)], [Rat(0), Rat(0), Rat(0)], [Rat(1), Rat(-3, 2), Rat(0)]],
            [[Rat(2, 3), Rat(-5), Rat(7, 9), Rat(-1, 6)]],
            [[Rat(-4)], [Rat(6)], [Rat(0)]],
        ],
    )
    def test_edge_cases_match_the_oracle(self, rows):
        ncols = len(rows[0])
        kernel = ExactMatrix(rows).nullspace()
        assert kernel == nullspace_gauss_jordan(rows, ncols)
        assert all(type(v) is RAT for vec in kernel for v in vec)

    @given(rank_deficient())
    def test_reduced_echelon_form(self, rows):
        ncols = len(rows[0])
        reduced = reduced_echelon(rows)
        assert all(type(v) is RAT for row in reduced for v in row)
        assert len(reduced) == ncols - len(nullspace_gauss_jordan(rows, ncols))
        leads = [next(j for j, v in enumerate(row) if v) for row in reduced]
        assert leads == sorted(set(leads))
        for i, j in enumerate(leads):
            assert [row[j] for row in reduced] == [Rat(int(k == i)) for k in range(len(reduced))]
        assert nullspace_gauss_jordan(reduced, ncols) == nullspace_gauss_jordan(rows, ncols)

    @given(rank_deficient())
    def test_int_rows_as_rats(self, rows):
        """All-int rows skip the scaling to numerators; the kernel and the
        echelon form are those of the same rows as rationals."""
        ints = [[int(v * math.lcm(*(w.denominator for w in row))) for v in row] for row in rows]
        rats = [[Rat(v) for v in row] for row in ints]
        kept = [list(row) for row in ints]
        kernel = ExactMatrix(ints).nullspace()
        assert kernel == ExactMatrix(rats).nullspace()
        assert all(type(v) is RAT for vec in kernel for v in vec)
        reduced = reduced_echelon(ints)
        assert reduced == reduced_echelon(rats)
        assert all(type(v) is RAT for row in reduced for v in row)
        assert ints == kept

    def test_parameter_entries_divide_exactly(self):
        # Dividing the first row by its pivot a leaves 1/a, so elimination
        # with fractions fails here; the fraction-free loop divides only
        # where the quotient is a polynomial.
        a = param("a")
        rows = [
            [a, a * a, Rat(1), a + 1],
            [Rat(2) * a, Rat(2) * a * a, a + 2, Rat(3)],
            [Rat(0), Rat(0), a, Rat(1, 2) - a],
        ]
        kernel = ExactMatrix(rows).nullspace()
        assert kernel == [[-a, Rat(1), Rat(0), Rat(0)]]
        for vec in kernel:
            assert all(sum((x * v for x, v in zip(row, vec)), Rat(0)) == 0 for row in rows)

    def test_parameter_kernel_outside_the_polynomials_raises(self):
        with pytest.raises(DomainError):
            ExactMatrix([[param("a"), Rat(1)]]).nullspace()


@st.composite
def staged_columns(draw):
    """One to four batches of columns, each batch after some rows that are
    zero on every earlier column: a list of (rows appended, columns), each
    column a dict of its nonzero entries by row.  Entries are ints, or
    ints and ParamPolys in a and b."""
    parametric = draw(st.booleans())
    entry = st.one_of(st.just(0), st.integers(-5, 5), *([integer_param_polys()] if parametric else []))
    staged, nrows = [], 0
    for b in range(draw(st.integers(1, 4))):
        added = draw(st.integers(0 if b else 1, 3))
        nrows += added
        columns = []
        for _ in range(draw(st.integers(1, 3))):
            values = [draw(entry) for _ in range(nrows)]
            columns.append({i: v for i, v in enumerate(values) if v})
        staged.append((added, columns))
    return staged


def eliminate(staged, batches):
    """Feed ``staged`` to one elimination, appending each batch's rows
    before its columns, or with every row there from the start; returns
    the elimination and, per column, what ``add`` returned and the last
    pivot after it."""
    g = _GaussJordan(0 if batches else sum(added for added, _ in staged))
    seen = []
    for added, columns in staged:
        if batches:
            g.add_rows(added)
        for column in columns:
            seen.append((g.add(column), g.last))
    return g, seen


class TestResumableElimination:
    @given(staged_columns())
    def test_batches_match_one_batch(self, staged):
        whole, one = eliminate(staged, False)
        parts, many = eliminate(staged, True)
        assert parts.pivots == whole.pivots
        assert [(r, p) for r, p, _, _ in parts.steps] == [(r, p) for r, p, _, _ in whole.steps]
        assert many == one
        # Each free column's vector, last at the column and minus its
        # entries at the pivot columns, is in the kernel.
        columns = [column for _, batch in staged for column in batch]
        for c, (entries, last) in enumerate(one):
            if entries is not None:
                vector = {c: last}
                vector.update({whole.pivots[s]: -x for s, x in entries.items()})
                rows = {i for j in vector for i in columns[j]}
                assert all(
                    not sum((columns[j].get(i, 0) * x for j, x in vector.items()), 0) for i in rows
                )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_batch_reproduces_the_row_loop(self, seed):
        # Values, entry types and the division that a refusal names are
        # those of the row-by-row loop, on ints, rationals and ParamPolys.
        rng = random.Random(seed)
        a, b = param("a"), param("b")
        pool = {
            "int": lambda: rng.randint(-4, 4),
            "rat": lambda: Rat(rng.randint(-4, 4), rng.randint(1, 3)),
            "pp": lambda: rng.choice([Rat(1), Rat(-2), a, a + 1, b, a * b, a * a - 1, a / 2, Rat(3)]),
        }

        def outcome(f, rows):
            try:
                return [[(type(v).__name__, str(v)) for v in vec] for vec in f(rows)]
            except DomainError as ex:
                return str(ex)

        refusals = 0
        for _ in range(150):
            draw = pool[rng.choice(["int", "rat", "pp"])]
            ncols = rng.randint(1, 7)
            rows = [
                [draw() if rng.random() < 0.55 else 0 * draw() for _ in range(ncols)]
                for _ in range(rng.randint(0, 6))
            ]
            got = outcome(_kernel, rows)
            assert got == outcome(kernel_by_rows, rows)
            assert outcome(reduced_echelon, rows) == outcome(reduced_echelon_by_rows, rows)
            refusals += isinstance(got, str)
        assert refusals
