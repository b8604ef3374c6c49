"""End-to-end command-line behavior: documents in, one JSON document out."""

import copy
import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rationals
from parity import BROKEN_DUAL_SYSTEM
from run_crosschecks import (
    BUNDLED_SYSTEM,
    DIVISION_SYSTEM,
    SHARED_RATIONAL_PAIR,
    SHARED_SYMBOLIC_PAIR,
)
from subres import MultiRootSet, Rat, UniPoly, __version__, param, wronskian_det_closed
from subres import cli
from subres.cli import _build_parser, main
from subres.mv.hilbert import hilbert_function
from subres.roots_formulas import VARIANTS, sres_one, sres_roots_all
from subres.serialize import parse_rootset, scalar_to_str, unipoly_to_json


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, argv, expect=0):
    code, out, err = run(capsys, argv)
    assert code == expect, err
    return json.loads(out)


def system_doc(c=("c0", "c1", "c2"), with_runparams=True, with_roots=True):
    doc = {
        "n": 2,
        "polynomials": [
            [{"exponents": [1, 1], "coeff": "1"}],
            [
                {"exponents": [2, 0], "coeff": "1"},
                {"exponents": [0, 2], "coeff": "1"},
                {"exponents": [0, 1], "coeff": "-2"},
            ],
            [
                {"exponents": [0, 0], "coeff": str(c[0])},
                {"exponents": [1, 0], "coeff": str(c[1])},
                {"exponents": [0, 1], "coeff": str(c[2])},
            ],
        ],
        "degrees": [2, 2, 1],
    }
    if with_runparams:
        doc["t"] = 2
        doc["S"] = [[2, 0]]
    if with_roots:
        doc["roots"] = [{"point": ["0", "0"]}, {"point": ["0", "2"]}]
    return doc


class TestUnivariateCommands:
    def test_coeffs_double_root_against_cube(self, capsys):
        got = out_json(capsys, ["coeffs", "--f", "[1,-2,1]", "--g", "[0,0,0,1]", "-t", "1"])
        assert got == ["-2", "3"]

    def test_coeffs_split_roots_against_cube(self, capsys):
        got = out_json(capsys, ["coeffs", "--f", "[2,-3,1]", "--g", "[0,0,0,1]", "-t", "1"])
        assert got == ["-6", "7"]

    def test_roots_variants_agree(self, capsys):
        for variant in ("compact", "block", "wronskian-full"):
            got = out_json(
                capsys,
                ["roots", "--A", "[[1,2]]", "--B", "[[0,3]]", "-t", "1", "--variant", variant],
            )
            assert got == ["-2", "3"]

    @pytest.mark.parametrize("pair", [SHARED_RATIONAL_PAIR, SHARED_SYMBOLIC_PAIR])
    def test_roots_one_order_is_an_entry_of_all_orders(self, capsys, pair):
        a, b = map(parse_rootset, pair)
        d, e = a.total, b.total
        ab = ["--A", json.dumps(pair[0]), "--B", json.dumps(pair[1])]
        for variant in VARIANTS:
            every = sres_roots_all(a, b, variant)
            assert list(every) == list(range(d + 1 if d < e else d))
            for t, want in every.items():
                argv = ["roots"] + ab + ["-t", str(t), "--variant", variant]
                assert out_json(capsys, argv) == unipoly_to_json(want)

    @pytest.mark.parametrize(
        "a, t, message",
        [
            ("[[1,2]]", "2", "error: t = deg f = deg g is outside the defined range\n"),
            ("[[1,2]]", "3", "error: need 0 <= t <= deg f <= deg g, got t=3 d=2 e=2\n"),
            ("[[1,3]]", "0", "error: need 0 <= t <= deg f <= deg g, got t=0 d=3 e=2\n"),
            ("[[1,2]]", "-1", "error: order t must be a nonnegative int\n"),
        ],
    )
    def test_roots_order_out_of_range_exit_two(self, capsys, a, t, message):
        for variant in VARIANTS:
            argv = ["roots", "--A", a, "--B", "[[0,2]]", "-t", t, "--variant", variant]
            assert run(capsys, argv) == (2, "", message)

    def test_roots_unknown_variant_exit_two(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["roots", "--A", "[[1,1]]", "--B", "[[0,2]]", "-t", "0", "--variant", "fancy"])
        assert ex.value.code == 2
        assert "argument --variant: invalid choice: 'fancy'" in capsys.readouterr().err

    def test_hermite(self, capsys):
        got = out_json(capsys, ["hermite", "--A", "[[1,2]]", "--B", "[[0,3]]"])
        assert got == ["-2", "3"]

    def test_one_matches_library(self, capsys):
        a = MultiRootSet([(Rat(0), 2), (Rat(1), 1)])
        b = MultiRootSet([(Rat(2), 2), (Rat(3), 1)])
        got = out_json(capsys, ["one", "--A", "[[0,2],[1,1]]", "--B", "[[2,2],[3,1]]"])
        assert got == unipoly_to_json(sres_one(a, b))

    def test_dsum(self, capsys):
        got = out_json(capsys, ["dsum", "--A", "[[3,1]]", "--B", "[[1,1],[2,1]]", "-p", "0", "-q", "1"])
        assert got == ["-3", "1"]

    def test_vandermonde_square(self, capsys):
        got = out_json(capsys, ["vandermonde", "--A", "[[0,2],[1,1]]"])
        assert set(got) == {"matrix", "det"}
        assert len(got["matrix"]) == 3

    def test_vandermonde_rectangular_has_no_det(self, capsys):
        got = out_json(capsys, ["vandermonde", "--A", "[[0,2],[1,1]]", "-u", "2"])
        assert set(got) == {"matrix"}
        assert len(got["matrix"]) == 2

    @pytest.mark.parametrize("command", ["vandermonde", "wronskian"])
    def test_empty_matrix_has_determinant_one(self, capsys, command):
        argv = [command, "--A", "[[0,2],[1,1]]", "-u", "0"]
        assert run(capsys, argv) == (0, '{\n  "matrix": [],\n  "det": "1"\n}\n', "")

    def test_wronskian(self, capsys):
        got = out_json(capsys, ["wronskian", "--A", "[[1,2]]", "--h", "[0,0,1]"])
        assert got == {"matrix": [["1", "2"], ["1", "3"]], "det": "1"}

    def test_symbolic_wronskian_det_is_the_closed_form(self, capsys):
        got = out_json(capsys, ["wronskian", "--A", '[["a",2],["b",1]]', "--h", '["c","1"]'])
        a = MultiRootSet([(param("a"), 2), (param("b"), 1)])
        h = UniPoly([param("c"), Rat(1)])
        assert got["det"] == scalar_to_str(wronskian_det_closed(h, a))


class TestMultivariateCommands:
    def test_mv_macaulay_numeric(self, capsys):
        doc = json.dumps(system_doc(c=(1, 1, 1), with_roots=False))
        assert out_json(capsys, ["mv", "--system", doc]) == "-3"

    def test_mv_poisson_numeric(self, capsys):
        doc = json.dumps(system_doc(c=(1, 1, 1)))
        assert out_json(capsys, ["mv", "--system", doc, "--route", "poisson"]) == "-3"

    def test_mv_symbolic_both_routes(self, capsys):
        doc = json.dumps(system_doc())
        want = "-c0^3 - 2*c0^2*c2"
        assert out_json(capsys, ["mv", "--system", doc]) == want
        assert out_json(capsys, ["mv", "--system", doc, "--route", "poisson"]) == want

    def test_mv_flag_overrides(self, capsys):
        doc = json.dumps(system_doc(c=(1, 1, 1), with_runparams=False, with_roots=False))
        got = out_json(capsys, ["mv", "--system", doc, "-t", "2", "--S", "[[0,2]]"])
        assert got == "-1"  # delta with S={x2^2} is -c0^3

    @pytest.mark.parametrize("command", ["mv", "verify"])
    @pytest.mark.parametrize("bad_s", ["[1]", "[[0, -1]]", "[[0, true]]", "[[0, 2, 0]]", "{}"])
    def test_bad_s_flag_is_domain_error(self, capsys, command, bad_s):
        doc = json.dumps(system_doc(c=(1, 1, 1)))
        code, out, err = run(capsys, [command, "--system", doc, "--S", bad_s])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_mv_missing_t_is_domain_error(self, capsys):
        doc = json.dumps(system_doc(with_runparams=False, with_roots=False))
        code, _, err = run(capsys, ["mv", "--system", doc])
        assert code == 2
        assert "fix t" in err

    def test_mv_at_file(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_doc(c=(1, 1, 1))), encoding="utf-8")
        assert out_json(capsys, ["mv", "--system", "@%s" % path]) == "-3"

    def test_mv_singular_quotient_is_structural_error(self, capsys):
        doc = system_doc(c=(1, 1, 1))
        doc["T_override"] = {"2": [[1, 1]]}
        code, _, err = run(capsys, ["mv", "--system", json.dumps(doc), "--route", "poisson"])
        assert code == 3
        assert "V_T is singular" in err

    def test_dual_circle_line(self, capsys):
        gens = json.dumps(
            [
                [{"exponents": [1, 1], "coeff": "1"}],
                [
                    {"exponents": [2, 0], "coeff": "1"},
                    {"exponents": [0, 2], "coeff": "1"},
                    {"exponents": [0, 1], "coeff": "-2"},
                ],
            ]
        )
        got = out_json(capsys, ["dual", "--generators", gens, "--point", '["0","0"]'])
        assert got["dimension"] == 3
        assert got["order"] == 2
        assert got["truncated"] is False
        assert got["point"] == ["0", "0"]
        third = got["functionals"][2]["terms"]
        assert third == [
            {"alpha": [0, 1], "coeff": "1/2"},
            {"alpha": [2, 0], "coeff": "1"},
        ]

    def test_dual_order_bound_truncates(self, capsys):
        gens = json.dumps(
            [
                [{"exponents": [1, 2], "coeff": "2"}, {"exponents": [4, 0], "coeff": "5"}],
                [{"exponents": [2, 1], "coeff": "2"}, {"exponents": [0, 4], "coeff": "5"}],
            ]
        )
        got = out_json(capsys, ["dual", "--generators", gens, "--point", '["0","0"]', "--order-bound", "2"])
        assert got["truncated"] is True
        assert got["order"] is None

    def test_dual_negative_order_bound_exit_two(self, capsys):
        gens = '[[{"exponents":[2],"coeff":"1"}]]'
        argv = ["dual", "--generators", gens, "--point", '["0"]', "--order-bound"]
        assert run(capsys, argv + ["-2"]) == (2, "", "error: order bound must be nonnegative, got -2\n")
        got = out_json(capsys, argv + ["0"])
        assert (got["dimension"], got["order"], got["truncated"]) == (1, None, True)

    def test_dual_default_bound_reaches_stabilization(self, capsys):
        gens = json.dumps(
            [
                [{"exponents": [2, 0], "coeff": "1"}],
                [{"exponents": [0, 3], "coeff": "1"}, {"exponents": [1, 0], "coeff": "1"}],
            ]
        )
        got = out_json(capsys, ["dual", "--generators", gens, "--point", '["0","0"]'])
        assert got["truncated"] is False
        assert got["dimension"] == 6
        assert got["order"] == 5

    def test_dual_three_variable_witness(self, capsys):
        gens = json.dumps(
            [
                [{"exponents": [2, 0, 0], "coeff": "1"}],
                [{"exponents": [0, 7, 0], "coeff": "1"}, {"exponents": [1, 0, 0], "coeff": "1"}],
                [{"exponents": [0, 0, 1], "coeff": "1"}, {"exponents": [0, 1, 1], "coeff": "1"}],
            ]
        )
        got = out_json(capsys, ["dual", "--generators", gens, "--point", '["0","0","0"]'])
        assert got["dimension"] == 14
        assert got["order"] == 13
        assert got["truncated"] is False


class TestVerifyCommand:
    def test_univariate_battery_passes(self, capsys):
        got = out_json(capsys, ["verify", "--A", "[[0,2],[1,1]]", "--B", "[[2,2],[3,2]]"])
        assert got["ok"] is True
        assert all(c["ok"] for c in got["checks"])
        assert len(got["checks"]) >= 5

    def test_system_battery_passes(self, capsys):
        doc = json.dumps(system_doc())
        got = out_json(capsys, ["verify", "--system", doc])
        assert got["ok"] is True

    def test_doctored_dual_fails_with_exit_one(self, capsys):
        doc = system_doc()
        doc["roots"][0]["dual"] = [
            {"terms": [{"alpha": [0, 0], "coeff": "1"}]},
            {"terms": [{"alpha": [1, 0], "coeff": "1"}]},
            {"terms": [{"alpha": [0, 1], "coeff": "1"}]},  # misses the 2*d(2,0) part
        ]
        got = out_json(capsys, ["verify", "--system", json.dumps(doc)], expect=1)
        assert got["ok"] is False
        bad = [c for c in got["checks"] if not c["ok"]]
        assert bad and all("detail" in c for c in bad)

    def test_functional_that_misses_a_generator_fails_two_records(self, capsys):
        got = out_json(capsys, ["verify", "--system", json.dumps(BROKEN_DUAL_SYSTEM)], expect=1)
        assert [c for c in got["checks"] if not c["ok"]] == [
            {
                "name": "dual functionals annihilate the defining polynomials",
                "ok": False,
                "detail": "functional d0,1 + 3*d2,0 at ('0', '0') on polynomial 2 gives 1",
            },
            {
                "name": "dual-basis quotient matches the Macaulay subresultant up to sign",
                "ok": False,
                "detail": "poisson -3/2*c0^3 - 3*c0^2*c2, macaulay -c0^3 - 2*c0^2*c2",
            },
        ]

    @pytest.mark.parametrize("extra", [["-t", "7"], ["--S", "[[9]]"]])
    def test_system_options_refused_in_pair_mode(self, capsys, extra):
        argv = ["verify", "--A", "[[1,1]]", "--B", "[[2,2]]"] + extra
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: -t and --S apply to --system only\n"

    def test_zero_last_polynomial(self, capsys):
        # (x1 - 1/2)^3 and (x2 + 1)^3: one root of multiplicity 9, whose dual
        # basis inverse_system computes; with f3 = 0 both routes give 0.
        doc = {
            "n": 2,
            "polynomials": [
                [{"exponents": [i, 0], "coeff": c} for i, c in enumerate(["-1/8", "3/4", "-3/2", "1"])],
                [{"exponents": [0, i], "coeff": c} for i, c in enumerate(["1", "3", "3", "1"])],
                [],
            ],
            "degrees": [3, 3, 1],
            "t": 2,
            "S": [[0, 0], [1, 0], [0, 1]],
            "T_override": {"2": [[2, 0], [1, 1], [0, 2]], "3": [[2, 1], [1, 2]], "4": [[2, 2]]},
            "roots": [{"point": ["1/2", "-1"]}],
        }
        text = json.dumps(doc)
        for route in ("poisson", "macaulay"):
            assert run(capsys, ["mv", "--system", text, "--route", route]) == (0, '"0"\n', "")
        got = out_json(capsys, ["verify", "--system", text])
        assert got["ok"] is True

    def test_zero_leading_polynomial_refused(self, capsys):
        # A zero f1 or f2 leaves no isolated root: the document is refused
        # when it is parsed, with one message from both routes and verify.
        for i in (0, 1):
            doc = system_doc()
            doc["polynomials"][i] = []
            text = json.dumps(doc)
            message = (
                "error: polynomial %d is zero; of the n+1 polynomials only the last may be zero\n"
                % (i + 1)
            )
            for argv in (["mv", "--route", "poisson"], ["mv", "--route", "macaulay"], ["verify"]):
                assert run(capsys, argv + ["--system", text]) == (2, "", message)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_short_dual_group_refused_by_both_routes(self, capsys, rotate):
        # The (0, 0) group of the circle-line system cut to 1, d1; rotated,
        # it no longer starts with the evaluation.
        doc = copy.deepcopy(BUNDLED_SYSTEM)
        dual = doc["roots"][0]["dual"][:2]
        doc["roots"][0]["dual"] = dual[1:] + dual[:1] if rotate else dual
        message = (
            "error: each group must start with the pure evaluation functional\n"
            if rotate
            else "error: dual basis has 3 functionals, expected 4\n"
        )
        for argv in (["verify"], ["mv", "--route", "poisson"]):
            assert run(capsys, argv + ["--system", json.dumps(doc)]) == (2, "", message)

    def test_vanishing_extraneous_factor_exit_two(self, capsys):
        # f1 = x2, f2 = x1, f3 = 1 + x1 at t = 2: the extraneous factor is 0.
        doc = {
            "n": 2,
            "polynomials": [
                [{"exponents": [0, 1], "coeff": "1"}],
                [{"exponents": [1, 0], "coeff": "1"}],
                [{"exponents": [0, 0], "coeff": "1"}, {"exponents": [1, 0], "coeff": "1"}],
            ],
            "degrees": [1, 1, 1],
            "t": 2,
            "S": [],
        }
        message = "error: extraneous factor vanishes; perturb the system before dividing\n"
        for argv in (["verify"], ["mv"]):
            assert run(capsys, argv + ["--system", json.dumps(doc)]) == (2, "", message)

    @pytest.mark.parametrize(
        "f3, degrees, s_cols, value",
        [
            (
                [([0, 0], "1"), ([1, 0], "2"), ([0, 1], "-1"), ([2, 0], "5"), ([3, 0], "1"),
                 ([1, 2], "3"), ([0, 3], "-2")],
                [1, 1, 3],
                [[0, 0]],
                "9",
            ),
            ([([0, 0], "3"), ([1, 0], "1"), ([0, 1], "-1")], [1, 1, 1], [], "-6"),
        ],
    )
    def test_leading_forms_with_a_corner_verify(self, capsys, f3, degrees, s_cols, value):
        # 2x1 + x2 and x1 - x2 have corner determinant 2 at degree 2, which
        # the Poisson route divides out as the Macaulay route does.
        doc = {
            "n": 2,
            "polynomials": [
                [{"exponents": [1, 0], "coeff": "2"}, {"exponents": [0, 1], "coeff": "1"},
                 {"exponents": [0, 0], "coeff": "-4"}],
                [{"exponents": [1, 0], "coeff": "1"}, {"exponents": [0, 1], "coeff": "-1"},
                 {"exponents": [0, 0], "coeff": "1"}],
                [{"exponents": e, "coeff": c} for e, c in f3],
            ],
            "degrees": degrees,
            "t": 2,
            "S": s_cols,
            "roots": [{"point": ["1", "2"]}],
        }
        system = ["--system", json.dumps(doc)]
        assert out_json(capsys, ["verify"] + system)["ok"] is True
        for route in ("macaulay", "poisson"):
            assert out_json(capsys, ["mv", "--route", route] + system) == value

    def test_requires_one_input_mode(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2
        assert "either --system or the pair" in err
        code, _, err = run(
            capsys,
            ["verify", "--A", "[[1,1]]", "--B", "[[2,1]]", "--system", json.dumps(system_doc())],
        )
        assert code == 2


LIMIT_MESSAGE = (
    "error: integer with more than %d digits, the limit for integer string conversion\n"
    % sys.get_int_max_str_digits()
)


class TestErrorReporting:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, ["coeffs", "--f", "[1,", "--g", "[1]", "-t", "0"])
        assert code == 2
        assert "malformed JSON at line" in err

    def test_float_rejected(self, capsys):
        code, _, err = run(capsys, ["coeffs", "--f", "[0.5, 1]", "--g", "[0,1]", "-t", "0"])
        assert code == 2
        assert "floats are not accepted" in err

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run(capsys, ["coeffs", "--f", "[1,1]", "--g", "[1,1]", "-t", "1"])
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_scalar_exit_two(self, capsys):
        root = "(" * 3000 + "1" + ")" * 3000
        argv = ["roots", "--A", json.dumps([[root, 1]]), "--B", '[["0",2]]', "-t", "0"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error:") and "nested deeper" in err
        assert out == ""

    @pytest.mark.parametrize(
        "a, b, formula",
        [
            ('[["a",1],["b",1]]', '[["c",1],["d",1]]', "the Hermite interpolant divides by"),
            ('[["1",1],["2",1]]', '[["a",1],["b",1],["c",1]]', "the double sum divides by"),
        ],
    )
    def test_symbolic_roots_with_free_differences_exit_two(self, capsys, a, b, formula):
        code, out, err = run(capsys, ["verify", "--A", a, "--B", b])
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + formula)
        assert err.endswith("; the roots within a set must differ by constants\n")
        assert "Traceback" not in err

    def test_order_one_refuses_an_inexact_division_by_a_root_difference(self, capsys):
        # The scale of root a is (b - c)^2 over f_1(a) = a - b.
        code, out, err = run(capsys, ["one", "--A", '[["a",1],["b",1]]', "--B", '[["c",2]]'])
        assert (code, out) == (2, "")
        assert err == (
            "error: the order-1 closed form divides by f_1(a) = a - b; "
            "the roots within a set must differ by constants\n"
        )

    def test_order_one_divides_exactly_by_a_free_root_difference(self, capsys):
        # The scale of root a is (b - (2b - a))^2 = (a - b)^2 over a - b.
        a, b = '[["a",1],["b",1]]', '[["2*b-a",2]]'
        want = ["a^2 - 5*a*b + 4*b^2", "3*a - 3*b"]
        assert out_json(capsys, ["one", "--A", a, "--B", b]) == want
        assert out_json(capsys, ["roots", "--A", a, "--B", b, "-t", "1"]) == want
        f, g = '["a*b","-a-b","1"]', '["(2*b-a)^2","-2*(2*b-a)","1"]'
        assert out_json(capsys, ["coeffs", "--f", f, "--g", g, "-t", "1"]) == want

    def test_order_one_weights_absorb_a_free_root_difference(self, capsys):
        # Root a's weight w_1 = 3 (2a - 2b)^2 + (2a - 2b)^3 / (a - b): the
        # power of g(a) takes up the division by the other root of A.
        a, b = '[["a",2],["b",1]]', '[["2*b-a",3]]'
        want = out_json(capsys, ["roots", "--A", a, "--B", b, "-t", "1"])
        assert out_json(capsys, ["one", "--A", a, "--B", b]) == want

    def test_symbolic_roots_with_constant_differences_pass(self, capsys):
        for a, b in (
            ('[["a",2],["a+1",1]]', '[["b",1],["b-2",2]]'),
            ('[["a",1],["a-3",1]]', '[["1",1],["2",1],["4",1]]'),
        ):
            got = out_json(capsys, ["verify", "--A", a, "--B", b])
            assert got["ok"] is True

    def test_parameter_dual_needing_division_exit_two(self, capsys):
        # a*x1 + x2 and x1^2 at (0, 0): the canonical basis needs 1/a.
        gens = json.dumps(
            [
                [{"exponents": [1, 0], "coeff": "a"}, {"exponents": [0, 1], "coeff": "1"}],
                [{"exponents": [2, 0], "coeff": "1"}],
            ]
        )
        assert run(capsys, ["dual", "--generators", gens, "--point", '["0","0"]']) == (
            2,
            "",
            "error: the dual basis at (0, 0) needs a division by a parameter polynomial: "
            "inexact polynomial division: -1 by a\n",
        )

    def test_parameter_dual_needing_division_in_verify_exit_two(self, capsys):
        # f1 = x1^2 - a*x2, f2 = x2^3 at (0, 0): the canonical basis needs
        # 1/a, so `dual` refuses the point.
        gens = json.dumps(
            [
                [{"exponents": [2, 0], "coeff": "1"}, {"exponents": [0, 1], "coeff": "-a"}],
                [{"exponents": [0, 3], "coeff": "1"}],
            ]
        )
        assert run(capsys, ["dual", "--generators", gens, "--point", '["0","0"]']) == (
            2,
            "",
            "error: the dual basis at (0, 0) needs a division by a parameter polynomial: "
            "inexact polynomial division: a^5 by a^6\n",
        )

    def test_canonical_division_stops_dual_only(self, capsys):
        # a*x1^2 + x1*x2, x2^2 at (0, 0): the canonical basis needs 1/a, but
        # verify and the Poisson route read the integration's own basis.
        system = json.dumps(DIVISION_SYSTEM)
        got = out_json(capsys, ["verify", "--system", system])
        assert got["ok"] is True and len(got["checks"]) == 6
        for route in ("poisson", "macaulay"):
            assert run(capsys, ["mv", "--route", route, "--system", system]) == (0, '"-1"\n', "")
        gens = json.dumps(DIVISION_SYSTEM["polynomials"][:2])
        assert run(capsys, ["dual", "--generators", gens, "--point", '["0","0"]']) == (
            2,
            "",
            "error: the dual basis at (0, 0) needs a division by a parameter polynomial: "
            "inexact polynomial division: 1 by -a\n",
        )

    def test_dual_found_where_the_default_t_is_no_basis(self, capsys):
        # f1 = x1^2 - a*x2, f2 = x2^3, f3 = 1 + x1 at (0, 0): the dual basis
        # is found, and the default T is not a basis of the quotient, so the
        # quotient record fails (exit 1) rather than the point being refused.
        doc = {
            "n": 2,
            "polynomials": [
                [{"exponents": [2, 0], "coeff": "1"}, {"exponents": [0, 1], "coeff": "-a"}],
                [{"exponents": [0, 3], "coeff": "1"}],
                [{"exponents": [0, 0], "coeff": "1"}, {"exponents": [1, 0], "coeff": "1"}],
            ],
            "degrees": [2, 3, 1],
            "t": 2,
            "S": [[2, 0], [1, 1]],
            "roots": [{"point": ["0", "0"]}],
        }
        got = out_json(capsys, ["verify", "--system", json.dumps(doc)], expect=1)
        failed = [c for c in got["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == [
            "dual-basis quotient matches the Macaulay subresultant up to sign"
        ]
        assert failed[0]["detail"].startswith("V_T is singular")

    def test_root_that_is_not_isolated_prints_its_coordinates(self, capsys):
        # x1 x2 and x1^2 x2 vanish on both axes, so the inverse system at
        # (0, 0) never stalls; both routes that need it print the point.
        doc = {
            "n": 2,
            "polynomials": [
                [{"exponents": [1, 1], "coeff": "1"}],
                [{"exponents": [2, 1], "coeff": "1"}],
                [{"exponents": [0, 0], "coeff": "1"}, {"exponents": [1, 0], "coeff": "1"}],
            ],
            "degrees": [2, 3, 1],
            "t": 1,
            "S": [[0, 0], [1, 0]],
            "roots": [{"point": ["0", "0"]}],
        }
        want = (2, "", "error: inverse system at (0, 0) did not stabilize below the order bound\n")
        for command in (["verify"], ["mv", "--route", "poisson"]):
            assert run(capsys, command + ["--system", json.dumps(doc)]) == want

    def test_empty_functional_group_prints_its_coordinates(self, capsys):
        doc = system_doc()
        doc["roots"] = [{"point": ["0", "0"], "dual": []}, {"point": ["0", "2"]}]
        assert run(capsys, ["verify", "--system", json.dumps(doc)]) == (
            2,
            "",
            "error: empty functional group at (0, 0)\n",
        )

    def test_repeated_root_prints_its_coordinates(self, capsys):
        doc = system_doc()
        doc["roots"] = [{"point": ["0", "2"]}, {"point": ["0", "2"]}]
        assert run(capsys, ["mv", "--route", "poisson", "--system", json.dumps(doc)]) == (
            2,
            "",
            "error: repeated root (0, 2)\n",
        )

    def test_json_number_past_the_int_limit_exit_two(self, capsys):
        f = "[%s, 1]" % ("9" * 5000)
        code, _, err = run(capsys, ["coeffs", "--f", f, "--g", "[1,0,1]", "-t", "0"])
        assert (code, err) == (2, LIMIT_MESSAGE)

    def test_scalar_literal_past_the_int_limit_exit_two(self, capsys):
        f = json.dumps(["9" * 5000, 1])
        code, _, err = run(capsys, ["coeffs", "--f", f, "--g", "[1,0,1]", "-t", "0"])
        assert (code, err) == (2, LIMIT_MESSAGE)

    def test_result_past_the_int_limit(self, capsys):
        # The resultant (alpha - 1)^9 has about 7 200 digits.
        alpha = "7" * 800
        argv = ["roots", "--A", json.dumps([[alpha, 3]]), "--B", '[["1",3]]', "-t", "0"]
        code, out, err = run(capsys, argv)
        if code == 0:  # gmpy2's mpq prints past the limit
            assert json.loads(out) == [str(Rat(int(alpha) - 1) ** 9)]
        else:
            assert (code, err) == (2, LIMIT_MESSAGE)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["coeffs", "--f", "@/nonexistent.json", "--g", "[1]", "-t", "0"])
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe[1,2]")
        code, out, err = run(capsys, ["coeffs", "--f", "@%s" % path, "--g", "[1,1]", "-t", "0"])
        assert (code, out) == (2, "")
        assert err == (
            "error: cannot read %s: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n" % path
        )

    def test_null_byte_in_path_exit_two(self, capsys):
        argv = ["coeffs", "--f", "@a\x00b", "--g", "[1,1]", "-t", "0"]
        assert run(capsys, argv) == (2, "", "error: cannot read a\x00b: embedded null byte\n")

    def test_json_nested_past_the_recursion_limit_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 20000 + "]" * 20000)
        want = (2, "", "error: malformed JSON: arrays or objects nested too deeply\n")
        assert run(capsys, ["coeffs", "--f", "@%s" % path, "--g", "[1,1]", "-t", "0"]) == want
        assert run(capsys, ["verify", "--A", "@%s" % path, "--B", "[[1,1]]"]) == want

    def test_byte_order_mark_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf[1,2]")
        want = (
            2,
            "",
            "error: malformed JSON at line 1 column 1: "
            "Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
        )
        for f in ("@%s" % path, "\ufeff[1,2]"):
            assert run(capsys, ["coeffs", "--f", f, "--g", "[1,1]", "-t", "0"]) == want

    @pytest.mark.parametrize(
        "root_set, head",
        [
            (json.dumps([[1] * 100000]), "[1, 1, 1, "),
            ("[" * 900 + "]" * 900, "[[[[[[[[[["),
        ],
        ids=["wide", "deep"],
    )
    def test_long_echo_is_cut(self, capsys, root_set, head):
        code, out, err = run(capsys, ["roots", "--A", root_set, "--B", "[[1,1]]", "-t", "0"])
        prefix = "error: each root entry must be a [root, multiplicity] pair, got "
        assert (code, out) == (2, "")
        assert err.startswith(prefix + head)
        assert err.endswith("...\n")
        assert len(err) == len(prefix) + 200 + len("...\n")

    def test_long_list_of_unknown_keys_is_cut(self, capsys):
        doc = dict(system_doc(), **{"k%05d" % i: 0 for i in range(20000)})
        code, out, err = run(capsys, ["mv", "--system", json.dumps(doc)])
        prefix = "error: unknown system document keys: "
        assert (code, out) == (2, "")
        assert err == prefix + ", ".join("k%05d" % i for i in range(20000))[:200] + "...\n"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["roots", "--A", "[[1,1,1]]", "--B", "[[1,1]]", "-t", "0"],
                "error: each root entry must be a [root, multiplicity] pair, got [1, 1, 1]\n",
            ),
            (
                ["roots", "--A", '[["1","x"]]', "--B", "[[1,1]]", "-t", "0"],
                "error: multiplicity must be an integer, got 'x'\n",
            ),
            (
                ["coeffs", "--f", '["1+"]', "--g", "[1,1]", "-t", "0"],
                "error: scalar parse error in '1+': expected a number, a parameter name, or '(', "
                "got end of input\n",
            ),
        ],
        ids=["entry", "multiplicity", "scalar"],
    )
    def test_short_echo_is_whole(self, capsys, argv, want):
        assert run(capsys, argv) == (2, "", want)

    def test_long_scalar_echo_is_cut(self, capsys):
        text = "1+" * 150 + "*"
        argv = ["coeffs", "--f", json.dumps([text]), "--g", "[1,1]", "-t", "0"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: scalar parse error in '1+1+")
        assert "..." in err and text not in err
        assert len(err) < 300

    def test_parser_reused_after_failed_parse(self, capsys):
        argv = ["verify", "--A", "[[0,2],[1,1]]", "--B", "[[2,2],[3,2]]"]
        first = run(capsys, argv)
        with pytest.raises(SystemExit) as ex:
            main(["verify", "--no-such-flag"])
        assert ex.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == first
        assert _build_parser() is _build_parser()

    def test_internal_error_exit_four(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "sres_coeff", broken)
        code, out, err = run(capsys, ["coeffs", "--f", "[1,-2,1]", "--g", "[0,0,0,1]", "-t", "1"])
        assert code == 4
        assert err == "error: internal: RuntimeError: boom\n"
        assert out == ""

    @pytest.mark.parametrize(
        "route, argv",
        [
            ("sres_roots", ["roots", "-t", "0"]),
            ("sres_dm1_hermite", ["hermite"]),
            ("sres_one", ["one"]),
            ("sylv_double_sum", ["dsum", "-p", "0", "-q", "0"]),
        ],
    )
    def test_pair_route_is_looked_up_per_call(self, capsys, monkeypatch, route, argv):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, route, broken)
        ab = ["--A", "[[1,1]]", "--B", "[[2,1]]"]
        assert run(capsys, argv + ab) == (4, "", "error: internal: RuntimeError: boom\n")

    def test_version_names_the_rational_backend(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["--version"])
        assert ex.value.code == 0
        backend = type(Rat(0))
        want = "sres %s (rational backend: %s.%s)\n" % (
            __version__,
            backend.__module__,
            backend.__qualname__,
        )
        assert capsys.readouterr().out == want
        if backend.__module__ == "fractions":
            assert want == "sres 0.1.0 (rational backend: fractions.Fraction)\n"

    def test_console_scripts_name_importable_callables(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["sres"] == "subres.cli:main"
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            assert callable(getattr(importlib.import_module(module), attr)), name

    def test_output_is_single_json_document(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--f", "[1,-2,1]", "--g", "[0,0,0,1]", "-t", "1"])
        assert code == 0
        json.loads(out)  # exactly one parseable value
        assert out.endswith("\n")


# Small rationals, at most two parameter names, and one literal past the
# 4 300-digit limit of integer string conversion.
_SCALARS = st.one_of(
    rationals().map(str), st.sampled_from(["a", "a+1", "b-1/2", "9" * 4301])
)


@st.composite
def _rootset_doc(draw):
    roots = draw(st.lists(_SCALARS, min_size=1, max_size=3, unique=True))
    return [[r, draw(st.integers(1, 2))] for r in roots]


@st.composite
def _cli_call(draw):
    a, b = draw(_rootset_doc()), draw(_rootset_doc())
    ab = ["--A", json.dumps(a), "--B", json.dumps(b)]
    command = draw(st.sampled_from(["roots", "hermite", "one", "dsum", "wronskian", "verify"]))
    if command == "roots":
        # Every valid order, and the invalid ones up to the larger degree.
        top = max(sum(m for _, m in a), sum(m for _, m in b))
        t = draw(st.integers(0, top))
        return ["roots"] + ab + ["-t", str(t), "--variant", draw(st.sampled_from(VARIANTS))]
    if command == "dsum":
        p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return ["dsum"] + ab + ["-p", str(p), "-q", str(q)]
    if command == "wronskian":
        h = draw(st.lists(_SCALARS, min_size=1, max_size=3))
        return ["wronskian", "--A", json.dumps(a), "--h", json.dumps(h)]
    return [command] + ab


# Arbitrary bytes, and arrays nested deeper than the decoder can follow.
_FILE_BYTES = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 5000).map(lambda k: ("[" * k + "]" * k).encode()),
)

_COEFFS = st.one_of(rationals().map(str), st.just("a"))
_MOSTLY = st.sampled_from([True, True, True, False])


def _exponents(top):
    return st.lists(st.integers(0, top), min_size=2, max_size=2).filter(lambda e: sum(e) <= top)


@st.composite
def _system_call(draw):
    """`mv` on either route or `verify` on a small two-variable system.

    Terms keep to the drawn degrees, and S, when drawn to fit, has the
    Hilbert count of monomials, so that most documents reach the routes.
    """
    degrees = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    terms = [st.fixed_dictionaries({"exponents": _exponents(d), "coeff": _COEFFS}) for d in degrees]
    polys = [draw(st.lists(term, min_size=1, max_size=3)) for term in terms]
    doc = {"n": 2, "polynomials": polys}
    if draw(st.booleans()):
        doc["degrees"] = degrees
    t = draw(st.integers(0, 4))
    if draw(_MOSTLY):
        doc["t"] = t
    if draw(_MOSTLY):
        fit = min(hilbert_function(degrees, t), (t + 1) * (t + 2) // 2)
        size = draw(st.one_of(st.just(fit), st.integers(0, 4)))
        doc["S"] = draw(st.lists(_exponents(t), min_size=size, max_size=size, unique_by=tuple))
    if draw(st.booleans()):
        points = draw(st.lists(st.lists(rationals().map(str), min_size=2, max_size=2), max_size=2))
        doc["roots"] = [{"point": p} for p in points]
        for root in doc["roots"]:
            if draw(st.booleans()):
                term = st.fixed_dictionaries({"alpha": _exponents(2), "coeff": _COEFFS})
                terms = st.lists(term, max_size=3)
                root["dual"] = draw(st.lists(terms.map(lambda ts: {"terms": ts}), max_size=4))
    if draw(st.booleans()):
        tops = draw(st.lists(st.integers(0, 4), max_size=2, unique=True))
        doc["T_override"] = {str(j): draw(st.lists(_exponents(j), max_size=3)) for j in tops}
    command = draw(
        st.sampled_from([["mv", "--route", "macaulay"], ["mv", "--route", "poisson"], ["verify"]])
    )
    return command + ["--system", json.dumps(doc)]


def _keeps_the_exit_code_promise(argv, codes=(0, 1, 2, 3)):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in codes, err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: ")
        assert not err.getvalue().startswith("error: internal")


class TestFuzzedArguments:
    @given(_cli_call())
    def test_exit_code_promise(self, argv):
        _keeps_the_exit_code_promise(argv, codes=(0, 2, 3))

    @given(_cli_call(), _FILE_BYTES)
    def test_file_documents(self, tmp_path_factory, argv, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(data)
        argv[argv.index("--A") + 1] = "@%s" % path
        _keeps_the_exit_code_promise(argv)

    @given(_system_call())
    def test_system_documents(self, argv):
        _keeps_the_exit_code_promise(argv)
