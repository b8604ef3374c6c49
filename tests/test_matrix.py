"""Exact matrices: fraction-free determinants, kernels, products."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from oracles import det_cofactor, matrix_rows
from subres import DomainError, ExactMatrix, ParamPoly, Rat, UniPoly, det_exact, param
from subres.matrix import det_in_x


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


def random_matrix(rng, n, bound=9):
    return ExactMatrix(
        [[Rat(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


class TestDeterminant:
    def test_small_exact_values(self):
        assert det_exact(ExactMatrix([[Rat(2)]])) == 2
        assert det_exact(ExactMatrix([[Rat(1), Rat(2)], [Rat(3), Rat(4)]])) == -2
        assert det_exact(ExactMatrix.identity(5)) == 1

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
            direct = det_exact(m.map(lambda s: s.substitute(env) if hasattr(s, "substitute") else s))
            subbed = sym.substitute(env) if hasattr(sym, "substitute") else sym
            assert subbed == direct

    @given(st.integers(1, 4), st.data())
    def test_transpose_invariance(self, n, data):
        rows = [
            [data.draw(rationals()) for _ in range(n)] for _ in range(n)
        ]
        m = ExactMatrix(rows)
        assert det_exact(m) == det_exact(m.transpose())


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


class TestDetInX:
    @staticmethod
    def x_rows(rng, n, x_rows, extra=Rat(0)):
        """n x n UniPoly rows; the first x_rows rows are linear in x."""
        def entry(i):
            lin = Rat(rng.randint(-3, 3)) if i < x_rows else Rat(0)
            return UniPoly([Rat(rng.randint(-4, 4), rng.randint(1, 2)) + extra, lin])

        return [[entry(i) for _ in range(n)] for i in range(n)]

    @staticmethod
    def at(rows):
        return lambda c: ExactMatrix([[p(c) for p in row] for row in rows])

    def test_matches_cofactor_oracle(self):
        rng = random.Random(314)
        for n in range(1, 6):
            for x_rows in range(n + 1):
                rows = self.x_rows(rng, n, x_rows)
                assert det_in_x(self.at(rows), x_rows) == det_cofactor(rows)

    def test_parameter_entries_and_exact_divisor(self):
        rng = random.Random(2718)
        a = param("a")
        rows = self.x_rows(rng, 4, 3, extra=a)
        want = det_cofactor(rows)
        assert det_in_x(self.at(rows), 3) == want
        scaled = [[p * (a + 1) for p in rows[0]]] + rows[1:]
        assert det_in_x(self.at(scaled), 3, a + 1) == want

    def test_parameter_free_coefficients_are_rational(self):
        a = param("a")
        rows = [[UniPoly([a, 1]), UniPoly([a])], [UniPoly([Rat(1)]), UniPoly([Rat(1)])]]
        got = det_in_x(self.at(rows), 1)
        assert got == UniPoly([Rat(0), Rat(1)])
        assert not any(isinstance(c, ParamPoly) for c in got.coeffs)


class TestStructure:
    def test_matmul_identity(self):
        rng = random.Random(5)
        m = random_matrix(rng, 4)
        assert m @ ExactMatrix.identity(4) == m
        assert ExactMatrix.identity(4) @ m == m

    def test_select_and_submatrix(self):
        m = ExactMatrix([[Rat(v) for v in row] for row in ((1, 2, 3), (4, 5, 6), (7, 8, 9))])
        assert m.submatrix(1, 1) == ExactMatrix([[Rat(1), Rat(3)], [Rat(7), Rat(9)]])
        assert m.select([0, 2], [0, 2]) == ExactMatrix([[Rat(1), Rat(3)], [Rat(7), Rat(9)]])

    def test_nullspace_annihilates(self):
        m = ExactMatrix([[Rat(1), Rat(2), Rat(3)], [Rat(2), Rat(4), Rat(6)]])
        kernel = m.nullspace()
        assert len(kernel) == 2
        for vec in kernel:
            col = ExactMatrix([[v] for v in vec])
            prod = m @ col
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
            cokernel = m.transpose().nullspace()
            rank = ncols - len(kernel)
            assert rank == nrows - len(cokernel)
