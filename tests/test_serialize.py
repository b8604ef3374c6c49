"""JSON round-trips and the infix scalar grammar."""

import pytest
from hypothesis import given

from subres import DomainError, MultiPoly, ParamPoly, Rat, UniPoly, param
from subres.matrix import ExactMatrix
from subres.mv.duality import DualFunctional, Point
from subres.rootsets import MultiRootSet
from subres.serialize import (
    SystemDocument,
    functional_to_json,
    matrix_to_json,
    parse_functional,
    parse_multipoly,
    parse_point,
    parse_rootset,
    parse_scalar,
    parse_system,
    parse_unipoly,
    point_to_json,
    scalar_from_json,
    scalar_to_str,
    unipoly_to_json,
)
from conftest import rationals


class TestScalarStrings:
    def test_rational_forms(self):
        assert scalar_to_str(Rat(3)) == "3"
        assert scalar_to_str(Rat(-3, 4)) == "-3/4"
        assert scalar_to_str(ParamPoly.constant(Rat(5, 2))) == "5/2"

    def test_parametric_form(self):
        c0, c2 = param("c0"), param("c2")
        v = ParamPoly.constant(Rat(0)) - (c0**3 + 2 * c0**2 * c2)
        assert scalar_to_str(v) == "-c0^3 - 2*c0^2*c2"

    @given(rationals())
    def test_rational_round_trip(self, q):
        assert parse_scalar(scalar_to_str(q)) == q

    def test_parametric_round_trip(self):
        a, b = param("a"), param("b")
        for v in (
            a,
            a * b - 3,
            Rat(1, 2) * a + b**2,
            (a + b) ** 3 - a**3,
            ParamPoly.constant(Rat(0)) - a,
        ):
            assert parse_scalar(scalar_to_str(v)) == v

    def test_grammar_features(self):
        a = param("a")
        assert parse_scalar("3/4") == Rat(3, 4)
        assert parse_scalar("-7") == Rat(-7)
        assert parse_scalar("+5") == Rat(5)
        assert parse_scalar("2^10") == Rat(1024)
        assert parse_scalar("(1+2)*(3-5)") == Rat(-6)
        assert parse_scalar("a^2/2") == Rat(1, 2) * a * a
        assert parse_scalar("(a^2-1)/(a-1)") == a + 1
        assert parse_scalar(" 1 + a * 2 ") == 2 * a + 1

    def test_constant_expressions_collapse(self):
        v = parse_scalar("(2+3)/5")
        assert v == Rat(1)
        assert not isinstance(v, ParamPoly)

    def test_float_notation_rejected(self):
        with pytest.raises(DomainError) as err:
            parse_scalar("1.5")
        assert "p/q" in str(err.value)

    def test_inexact_division_rejected(self):
        with pytest.raises(DomainError):
            parse_scalar("1/a")

    def test_division_by_zero(self):
        with pytest.raises(DomainError) as err:
            parse_scalar("1/0")
        assert "zero" in str(err.value)

    def test_parse_errors_report_context(self):
        with pytest.raises(DomainError) as err:
            parse_scalar("2 @ 3")
        assert "position" in str(err.value)
        with pytest.raises(DomainError) as err:
            parse_scalar("(1+2")
        assert "')'" in str(err.value)
        with pytest.raises(DomainError) as err:
            parse_scalar("2^a")
        assert "exponent" in str(err.value)
        with pytest.raises(DomainError):
            parse_scalar("")
        with pytest.raises(DomainError):
            parse_scalar("1 2")

    def test_scalar_from_json(self):
        assert scalar_from_json(7) == Rat(7)
        assert scalar_from_json("-2/3") == Rat(-2, 3)
        assert scalar_from_json("c0") == param("c0")
        for bad in (True, 0.5, [1], None):
            with pytest.raises(DomainError):
                scalar_from_json(bad)


class TestPolynomialDocuments:
    def test_unipoly_round_trip(self):
        p = UniPoly([Rat(-2), Rat(3), param("a")])
        doc = unipoly_to_json(p)
        assert doc == ["-2", "3", "a"]
        assert parse_unipoly(doc) == p

    def test_unipoly_requires_array(self):
        with pytest.raises(DomainError):
            parse_unipoly({"0": 1})

    def test_rootset_round_trip(self):
        a = MultiRootSet([(Rat(1, 2), 2), (Rat(-3), 1)])
        assert parse_rootset([["1/2", 2], ["-3", 1]]) == a

    def test_rootset_validation(self):
        with pytest.raises(DomainError):
            parse_rootset([])
        with pytest.raises(DomainError):
            parse_rootset([["1"]])
        with pytest.raises(DomainError):
            parse_rootset([["1", "2"]])
        with pytest.raises(DomainError):
            parse_rootset([["1", True]])

    def test_matrix_round_trip(self):
        m = ExactMatrix([[Rat(1), param("a")], [Rat(0), Rat(-1, 3)]])
        doc = matrix_to_json(m)
        assert doc == [["1", "a"], ["0", "-1/3"]]
        assert [[scalar_from_json(v) for v in row] for row in doc] == m.rows

    def test_multipoly_round_trip(self):
        p = MultiPoly(2, {(1, 1): Rat(1), (0, 0): param("c0")})
        doc = [{"exponents": [0, 0], "coeff": "c0"}, {"exponents": [1, 1], "coeff": "1"}]
        assert parse_multipoly(doc) == p
        assert parse_multipoly(doc, n=2) == p

    def test_multipoly_merges_duplicate_terms(self):
        doc = [
            {"exponents": [1, 0], "coeff": "2"},
            {"exponents": [1, 0], "coeff": "-2"},
        ]
        assert parse_multipoly(doc) == MultiPoly(2)

    def test_multipoly_validation(self):
        with pytest.raises(DomainError):
            parse_multipoly([{"exponents": [1, 0]}])
        with pytest.raises(DomainError):
            parse_multipoly([{"exponents": [1, -1], "coeff": "1"}])
        with pytest.raises(DomainError):
            parse_multipoly([{"exponents": [1], "coeff": "1"}], n=2)
        with pytest.raises(DomainError):
            parse_multipoly([])  # no way to infer n
        assert parse_multipoly([], n=3) == MultiPoly(3)


class TestPointsAndFunctionals:
    def test_point_round_trip(self):
        p = Point((Rat(0), Rat(2)))
        assert point_to_json(p) == ["0", "2"]
        assert parse_point(["0", "2"]) == p

    def test_point_validation(self):
        with pytest.raises(DomainError):
            parse_point([])
        with pytest.raises(DomainError):
            parse_point("0,2")

    def test_functional_round_trip(self):
        p = Point((Rat(0), Rat(0)))
        f = DualFunctional(p, {(0, 1): Rat(1), (2, 0): Rat(2)})
        doc = functional_to_json(f)
        assert parse_functional(doc, p) == f

    def test_functional_validation(self):
        p = Point((Rat(0), Rat(0)))
        with pytest.raises(DomainError):
            parse_functional({"alpha": []}, p)
        with pytest.raises(DomainError):
            parse_functional({"terms": [{"alpha": [0, 0]}]}, p)
        with pytest.raises(DomainError):
            parse_functional({"terms": [{"alpha": [0], "coeff": "1"}]}, p)


def circle_line_doc():
    return {
        "n": 2,
        "variables": ["x1", "x2"],
        "polynomials": [
            [{"exponents": [1, 1], "coeff": "1"}],
            [
                {"exponents": [2, 0], "coeff": "1"},
                {"exponents": [0, 2], "coeff": "1"},
                {"exponents": [0, 1], "coeff": "-2"},
            ],
            [
                {"exponents": [0, 0], "coeff": "c0"},
                {"exponents": [1, 0], "coeff": "c1"},
                {"exponents": [0, 1], "coeff": "c2"},
            ],
        ],
        "degrees": [2, 2, 1],
        "t": 2,
        "S": [[2, 0]],
        "T_override": {"2": [[0, 2]]},
        "roots": [
            {
                "point": ["0", "0"],
                "dual": [
                    {"terms": [{"alpha": [0, 0], "coeff": "1"}]},
                    {"terms": [{"alpha": [1, 0], "coeff": "1"}]},
                    {"terms": [{"alpha": [0, 1], "coeff": "1"}, {"alpha": [2, 0], "coeff": "2"}]},
                ],
            },
            {"point": ["0", "2"]},
        ],
    }


# circle_line_doc's system in canonical form: no variable names, and each
# polynomial's terms sorted by exponent vector.
CIRCLE_LINE_CANONICAL = {
    "n": 2,
    "polynomials": [
        [{"exponents": [1, 1], "coeff": "1"}],
        [
            {"exponents": [0, 1], "coeff": "-2"},
            {"exponents": [0, 2], "coeff": "1"},
            {"exponents": [2, 0], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "c0"},
            {"exponents": [0, 1], "coeff": "c2"},
            {"exponents": [1, 0], "coeff": "c1"},
        ],
    ],
    "degrees": [2, 2, 1],
    "t": 2,
    "S": [[2, 0]],
    "roots": [
        {
            "point": ["0", "0"],
            "dual": [
                {"terms": [{"alpha": [0, 0], "coeff": "1"}]},
                {"terms": [{"alpha": [1, 0], "coeff": "1"}]},
                {"terms": [{"alpha": [0, 1], "coeff": "1"}, {"alpha": [2, 0], "coeff": "2"}]},
            ],
        },
        {"point": ["0", "2"]},
    ],
    "T_override": {"2": [[0, 2]]},
}

class TestSystemDocuments:
    def test_parse_circle_line(self):
        doc = parse_system(circle_line_doc())
        assert isinstance(doc, SystemDocument)
        assert doc.system.n == 2
        assert doc.system.degrees == (2, 2, 1)
        assert doc.t == 2
        assert doc.s_cols == ((2, 0),)
        assert doc.t_override == {2: [(0, 2)]}
        assert len(doc.roots) == 2
        point, dual = doc.roots[0]
        assert point == Point((Rat(0), Rat(0)))
        assert len(dual) == 3
        assert doc.roots[1][1] is None

    def test_round_trip(self):
        doc = parse_system(circle_line_doc())
        again = parse_system(CIRCLE_LINE_CANONICAL)
        assert again.system == doc.system
        assert again.t == doc.t
        assert again.s_cols == doc.s_cols
        assert again.t_override == doc.t_override
        assert again.roots == doc.roots

    def test_degrees_inferred_when_missing(self):
        raw = circle_line_doc()
        del raw["degrees"]
        doc = parse_system(raw)
        assert doc.system.degrees == (2, 2, 1)

    def test_unknown_keys_rejected(self):
        raw = circle_line_doc()
        raw["extra"] = 1
        with pytest.raises(DomainError) as err:
            parse_system(raw)
        assert "unknown system document keys: extra" in str(err.value)

    def test_polynomial_count_enforced(self):
        raw = circle_line_doc()
        raw["polynomials"] = raw["polynomials"][:2]
        with pytest.raises(DomainError) as err:
            parse_system(raw)
        assert "n+1 = 3" in str(err.value)

    def test_variables_checked(self):
        raw = circle_line_doc()
        raw["variables"] = ["x1"]
        with pytest.raises(DomainError):
            parse_system(raw)

    def test_root_point_dimension_checked(self):
        raw = circle_line_doc()
        raw["roots"][0]["point"] = ["0"]
        with pytest.raises(DomainError):
            parse_system(raw)

    def test_root_record_keys_checked(self):
        raw = circle_line_doc()
        raw["roots"][0]["weight"] = 1
        with pytest.raises(DomainError):
            parse_system(raw)

    def test_not_a_document(self):
        with pytest.raises(DomainError):
            parse_system([1, 2, 3])
        with pytest.raises(DomainError):
            parse_system({"n": 0, "polynomials": []})
