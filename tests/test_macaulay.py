"""Square elimination matrices, extraneous factors, and their quotients."""

import random

import pytest

from subres import (
    DomainError,
    MultiPoly,
    ParamPoly,
    Rat,
    UniPoly,
    param,
    resultant,
)
from subres.combinat import monomials_of_degree
from subres.matrix import det_exact
from subres.mv.hilbert import build_monomial_sets
from subres.mv.macaulay import (
    MVSystem,
    _row_indices,
    delta_s,
    extraneous_factor,
    leading_form_subres,
    macaulay_matrix,
)
from subres.serialize import parse_system
from oracles import (
    corner_by_rationals,
    det_cofactor,
    macaulay_by_rationals,
    matrix_rows,
    square_by_rationals,
)
from run_crosschecks import BUNDLED_SYSTEM, MIXED_GRID_SYSTEM, PARAM_SYSTEM

C0, C1, C2 = param("c0"), param("c1"), param("c2")


def circle_line():
    f1 = MultiPoly(2, {(1, 1): Rat(1)})
    f2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1), (0, 1): Rat(-2)})
    f3 = MultiPoly(2, {(0, 0): C0, (1, 0): C1, (0, 1): C2})
    return MVSystem(2, (f1, f2, f3), (2, 2, 1))


def conic_pair():
    # x1^2 + x2^2 = 5 and x2 = x1^2 - 3 meet in the four rational points
    # (1,-2), (-1,-2), (2,1), (-2,1)
    g1 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1), (0, 0): Rat(-5)})
    g2 = MultiPoly(2, {(2, 0): Rat(1), (0, 1): Rat(-1), (0, 0): Rat(-3)})
    g3 = MultiPoly(2, {(0, 0): C0, (1, 0): C1, (0, 1): C2})
    return MVSystem(2, (g1, g2, g3), (2, 2, 1)), [(1, -2), (-1, -2), (2, 1), (-2, 1)]


def mv_from_unipoly(p: UniPoly) -> MultiPoly:
    return MultiPoly(1, {(i,): c for i, c in enumerate(p.coeffs)})


class TestMVSystem:
    def test_field_validation(self):
        f = MultiPoly(2, {(1, 0): Rat(1)})
        with pytest.raises(DomainError):
            MVSystem(2, (f, f), (1, 1, 1))  # needs n+1 polynomials
        with pytest.raises(DomainError):
            MVSystem(2, (f, f, f), (1, 1))  # needs n+1 degrees
        with pytest.raises(DomainError):
            MVSystem(2, (f, f, f), (1, 0, 1))
        with pytest.raises(DomainError):
            MVSystem(1, (MultiPoly(2, {(1, 1): Rat(1)}), f), (2, 2))

    def test_declared_degree_must_cover_actual(self):
        f = MultiPoly(2, {(2, 1): Rat(1)})
        lin = MultiPoly(2, {(1, 0): Rat(1)})
        with pytest.raises(DomainError) as err:
            MVSystem(2, (f, lin, lin), (2, 1, 1))
        assert "declared degree" in str(err.value)

    def test_degrees_may_exceed_actual(self):
        lin = MultiPoly(2, {(1, 0): Rat(1), (0, 0): Rat(-1)})
        sys_ = MVSystem(2, (lin, lin, lin), (3, 2, 1))
        assert sys_.degrees == (3, 2, 1)

    def test_leading_forms(self):
        sys_ = circle_line()
        lf = sys_.leading_forms()
        assert lf[0] == MultiPoly(2, {(1, 1): Rat(1)})
        assert lf[1] == MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})


class TestMacaulayMatrix:
    def test_circle_line_five_by_five(self):
        m = macaulay_matrix(circle_line(), 2, [(2, 0)])
        rows = matrix_rows(m)
        assert [[str(v) for v in r] for r in rows] == [
            ["1", "0", "0", "0", "0"],
            ["0", "0", "1", "-2", "0"],
            ["c2", "c0", "0", "0", "0"],
            ["c1", "0", "c2", "c0", "0"],
            ["0", "c1", "0", "c2", "c0"],
        ]

    def test_univariate_case_is_sylvester(self):
        rng = random.Random(5)
        for _ in range(6):
            e = rng.randint(1, 4)
            d = rng.randint(1, e)
            f = UniPoly([Rat(rng.randint(-4, 4)) for _ in range(d)] + [Rat(1)])
            g = UniPoly([Rat(rng.randint(-4, 4)) for _ in range(e)] + [Rat(1)])
            sys_ = MVSystem(1, (mv_from_unipoly(f), mv_from_unipoly(g)), (d, e))
            m = macaulay_matrix(sys_, d + e - 1, [])
            assert det_exact(m) == resultant(f, g)

    def test_wrong_s_size_rejected(self):
        with pytest.raises(DomainError) as err:
            macaulay_matrix(circle_line(), 2, [])
        assert "k = 1" in str(err.value)

    def test_repeated_s_rejected(self):
        with pytest.raises(DomainError):
            macaulay_matrix(circle_line(), 2, [(2, 0), (2, 0)])

    def test_bad_s_monomial_rejected(self):
        with pytest.raises(DomainError):
            macaulay_matrix(circle_line(), 2, [(3, 0)])  # degree > t
        with pytest.raises(DomainError):
            macaulay_matrix(circle_line(), 2, [(1, -1)])

    def test_always_square_on_grid(self):
        rng = random.Random(9)
        from itertools import product as iproduct

        from subres.mv.hilbert import hilbert_function

        for degs in iproduct((1, 2), (1, 2), (1, 2)):
            polys = []
            for d in degs:
                terms = {}
                for j in range(d + 1):
                    for m in monomials_of_degree(2, j):
                        terms[m] = Rat(rng.randint(-3, 3))
                polys.append(MultiPoly(2, terms))
            sys_ = MVSystem(2, tuple(polys), degs)
            rho = sum(d - 1 for d in degs[:-1])
            for t in range(rho + 1):
                k = hilbert_function(degs, t)
                pool = [m for j in range(t + 1) for m in monomials_of_degree(2, j)]
                m = macaulay_matrix(sys_, t, pool[:k])
                rows = matrix_rows(m)
                assert all(len(r) == len(rows) for r in rows)


class TestExtraneousFactor:
    def test_circle_line_is_one(self):
        assert extraneous_factor(circle_line(), 2) == Rat(1)

    def test_empty_corner_is_one(self):
        lin = MultiPoly(2, {(1, 0): Rat(1), (0, 1): Rat(1)})
        sys_ = MVSystem(2, (lin, lin, lin), (1, 1, 1))
        assert extraneous_factor(sys_, 1) == Rat(1)

    def test_conic_pair_value(self):
        sys_, _ = conic_pair()
        assert extraneous_factor(sys_, 3) == Rat(-1)

    def test_determinant_factors_as_e_times_delta(self):
        sys_, _ = conic_pair()
        det = det_exact(macaulay_matrix(sys_, 3, []))
        assert det == extraneous_factor(sys_, 3) * delta_s(sys_, 3, [])

    def test_vanishing_factor(self):
        g1 = MultiPoly(2, {(1, 1): Rat(1)})
        g2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})
        g3 = MultiPoly(2, {(1, 0): Rat(1)})
        sys_ = MVSystem(2, (g1, g2, g3), (2, 2, 2))
        assert extraneous_factor(sys_, 4) == Rat(0)


class TestDeltaS:
    def test_circle_line_frozen_values(self):
        sys_ = circle_line()
        want = ParamPoly.constant(Rat(0)) - (C0 * C0 * C0 + 2 * C0 * C0 * C2)
        assert delta_s(sys_, 2, [(2, 0)]) == want
        assert delta_s(sys_, 2, [(0, 2)]) == ParamPoly.constant(Rat(0)) - C0 * C0 * C0

    def test_circle_line_numeric(self):
        f3 = MultiPoly(2, {(0, 0): Rat(1), (1, 0): Rat(1), (0, 1): Rat(1)})
        sys_ = circle_line()
        numeric = MVSystem(2, (sys_.polys[0], sys_.polys[1], f3), (2, 2, 1))
        assert delta_s(numeric, 2, [(2, 0)]) == Rat(-3)

    def test_resultant_case_is_root_product(self):
        sys_, roots = conic_pair()
        res = ParamPoly.constant(Rat(1))
        for x, y in roots:
            res = res * (C0 + x * C1 + y * C2)
        assert delta_s(sys_, 3, []) == res

    def test_univariate_reduction(self):
        f = UniPoly([Rat(2), Rat(-3), Rat(1)])
        g = UniPoly([Rat(0), Rat(0), Rat(0), Rat(1)])
        sys_ = MVSystem(1, (mv_from_unipoly(f), mv_from_unipoly(g)), (2, 3))
        assert delta_s(sys_, 4, []) == resultant(f, g) == Rat(8)

    def test_vanishing_factor_raises(self):
        g1 = MultiPoly(2, {(1, 1): Rat(1)})
        g2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})
        g3 = MultiPoly(2, {(1, 0): Rat(1)})
        sys_ = MVSystem(2, (g1, g2, g3), (2, 2, 2))
        with pytest.raises(DomainError) as err:
            delta_s(sys_, 4, [])
        assert "extraneous factor vanishes" in str(err.value)

    def test_illegal_s_size(self):
        with pytest.raises(DomainError):
            delta_s(circle_line(), 2, [(2, 0), (0, 2)])


class TestLeadingFormSubres:
    def test_circle_line_choices(self):
        lf1 = MultiPoly(2, {(1, 1): Rat(1)})
        lf2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})
        assert leading_form_subres((lf1, lf2), (2, 2), 2, [(0, 2)]) == Rat(-1)
        assert leading_form_subres((lf1, lf2), (2, 2), 2, [(2, 0)]) == Rat(1)
        assert leading_form_subres((lf1, lf2), (2, 2), 2, [(1, 1)]) == Rat(0)

    def test_single_univariate_form(self):
        F = MultiPoly(1, {(3,): Rat(1)})
        for j in range(5):
            tj = [(j,)] if j < 3 else []
            assert leading_form_subres((F,), (3,), j, tj) == Rat(1)

    def test_binary_quadric_pair_against_cofactor(self):
        rng = random.Random(41)
        degree2 = monomials_of_degree(2, 2)
        for _ in range(6):
            forms = []
            for _i in range(2):
                forms.append(
                    MultiPoly(2, {m: Rat(rng.randint(-4, 4)) for m in degree2})
                )
            tj = [degree2[rng.randrange(3)]]
            columns = [m for m in degree2 if m != tj[0]]
            rows = []
            for f in forms:
                rows.append([f.coeff(c) for c in columns])
            # the j=2 matrix has exactly one multiplier per form: beta = 0
            got = leading_form_subres(tuple(forms), (2, 2), 2, tj)
            assert got == det_cofactor(rows)

    def test_non_homogeneous_rejected(self):
        f = MultiPoly(2, {(1, 1): Rat(1), (1, 0): Rat(1)})
        with pytest.raises(DomainError) as err:
            leading_form_subres((f, f), (2, 2), 2, [(0, 2)])
        assert "homogeneous" in str(err.value)

    def test_tj_validation(self):
        lf1 = MultiPoly(2, {(1, 1): Rat(1)})
        lf2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1)})
        with pytest.raises(DomainError):
            leading_form_subres((lf1, lf2), (2, 2), 2, [])
        with pytest.raises(DomainError):
            leading_form_subres((lf1, lf2), (2, 2), 2, [(1, 0)])
        with pytest.raises(DomainError):
            leading_form_subres((lf1, lf2), (2, 2), 2, [(0, 2), (0, 2)])


class TestIntegralRows:
    """The Macaulay-type matrices are built as integer rows over one scale
    per polynomial; read back, they are the rational matrices the rows
    were built from before (``macaulay_by_rationals``,
    ``corner_by_rationals``), and every determinant quotient is the one
    ``det_exact`` takes of those."""

    SYSTEMS = [MIXED_GRID_SYSTEM, PARAM_SYSTEM, BUNDLED_SYSTEM]

    @pytest.mark.parametrize("raw", SYSTEMS)
    def test_macaulay_matrix_reads_back_entry_for_entry(self, raw):
        doc = parse_system(raw)
        got = macaulay_matrix(doc.system, doc.t, doc.s_cols)
        want = macaulay_by_rationals(doc.system, doc.t, doc.s_cols)
        assert matrix_rows(got) == matrix_rows(want)
        assert [[type(v) for v in row] for row in got.rows] == [
            [type(v) for v in row] for row in want.rows
        ]

    @pytest.mark.parametrize("raw", SYSTEMS)
    def test_quotients_match_the_rational_matrices(self, raw):
        doc = parse_system(raw)
        sys_, t = doc.system, doc.t
        homog = [p.homogenize(d) for p, d in zip(sys_.polys, sys_.degrees)]
        e = det_exact(corner_by_rationals(homog, sys_.degrees, t, sys_.n + 1))
        assert extraneous_factor(sys_, t) == e
        want = det_exact(macaulay_by_rationals(sys_, t, doc.s_cols)) / e
        got = delta_s(sys_, t, doc.s_cols)
        assert got == want and type(got) is type(want)
        forms, degrees = sys_.leading_forms(), sys_.degrees[:-1]
        sets = build_monomial_sets(sys_.degrees, t, doc.t_override)
        for j, tj in sets.tj.items():
            columns = [m for m in monomials_of_degree(sys_.n, j) if m not in tj.monomials]
            rows = _row_indices(degrees, j, sys_.n)
            m = det_exact(square_by_rationals(forms, rows, columns))
            corner = det_exact(corner_by_rationals(forms, degrees, j, sys_.n))
            if corner:
                assert leading_form_subres(forms, degrees, j, tj.monomials) == m / corner
            else:
                with pytest.raises(DomainError):
                    leading_form_subres(forms, degrees, j, tj.monomials)
