"""The cross-check batteries and their random input generators."""

import json
import random
import sys

import pytest

from subres import (
    DomainError,
    MultiRootSet,
    Rat,
    UniPoly,
    confluent_inverse,
    det_exact,
    param,
    vandermonde_confluent,
    wronskian,
)
from subres import cli, confluent
from subres.confluent import _inverse_mismatch, wronskian_det
from subres.mv import duality
from subres.serialize import parse_system
from subres.verify import (
    Check,
    mv_checks,
    random_pair,
    random_rootset,
    resolved_groups,
    univariate_checks,
)
from oracles import matrix_product
from run_crosschecks import DIVISION_SYSTEM, GRID_SYSTEM, MIXED_GRID_SYSTEM
from test_serialize import circle_line_doc


def spy(monkeypatch, module, name):
    """Count the calls of ``module.name`` wherever a subres module bound it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "subres" and mod.__dict__.get(name) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def rs(*pairs):
    return MultiRootSet([(Rat(r), m) for r, m in pairs])


class TestUnivariateBattery:
    def test_mixed_multiplicities_all_green(self):
        checks = univariate_checks(rs((0, 2), (1, 1)), rs((2, 2), (3, 2)))
        assert checks and all(c.ok for c in checks)
        names = [c.name for c in checks]
        assert len(names) == len(set(names))

    def test_orientation_swap(self):
        big_first = univariate_checks(rs((2, 2), (3, 2)), rs((0, 2), (1, 1)))
        small_first = univariate_checks(rs((0, 2), (1, 1)), rs((2, 2), (3, 2)))
        assert [c.name for c in big_first] == [c.name for c in small_first]
        assert all(c.ok for c in big_first)

    def test_simple_disjoint_pair_adds_double_sums(self):
        checks = univariate_checks(rs((0, 1), (1, 1)), rs((2, 1), (3, 1), (5, 1)))
        assert all(c.ok for c in checks)
        names = [c.name for c in checks]
        assert any("double sum" in n for n in names)
        assert any("pole formula" in n for n in names)

    def test_multiple_roots_skip_double_sums(self):
        checks = univariate_checks(rs((0, 2)), rs((2, 2)))
        names = [c.name for c in checks]
        assert not any("double sum" in n for n in names)

    def test_shared_root_skips_pole_formula(self):
        checks = univariate_checks(rs((0, 1), (1, 1)), rs((1, 1), (2, 1), (3, 1)))
        assert all(c.ok for c in checks)
        assert not any("pole formula" in c.name for c in checks)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(Rat(1, 2), 2), (Rat(-1, 3), 1)],
            [(Rat(0), 3), (Rat(2), 1), (Rat(-5, 4), 2)],
            [(param("a") / 2, 2), (param("a") / 2 + Rat(1, 3), 1)],
        ],
    )
    def test_integral_matrix_checks_match_the_public_matrices(self, pairs):
        # The checks read the integral table and its row scales; their
        # determinants and inverse test agree with the rational matrices.
        a = MultiRootSet(pairs)
        d = a.total
        public = vandermonde_confluent(a, d)
        assert wronskian_det(UniPoly([1]), a) == det_exact(public)
        h = UniPoly([Rat(2, 3), param("b"), Rat(-1, 6)])
        assert wronskian_det(h, a) == det_exact(wronskian(h, a, d))
        assert _inverse_mismatch(a) is None

    def test_inverse_check_can_fail(self, monkeypatch):
        # A basis polynomial off by 1/3 no longer inverts the Vandermonde
        # matrix, and the t=d-1 interpolant built on it goes wrong too; the
        # inverse record fails with the product as its detail.
        hermite_row = confluent._hermite_row

        def shifted(a, i):
            row = hermite_row(a, i)
            return [row[0] + Rat(1, 3)] + row[1:] if i == 1 else row

        monkeypatch.setattr(confluent, "_hermite_row", shifted)
        checks = univariate_checks(rs((0, 2), (1, 1)), rs((2, 2), (3, 2)))
        failed = [c for c in checks if not c.ok]
        assert [c.name for c in failed] == [
            "t=d-1 Hermite interpolant matches coefficient determinant",
            "basic Hermite coefficients invert the confluent Vandermonde",
        ]
        assert failed[1].detail.startswith("product [")

    @pytest.mark.parametrize(
        "pairs",
        [
            [(Rat(1, 2), 2), (Rat(-3), 1)],
            [(param("a"), 2), (param("a") + 1, 1)],
        ],
    )
    def test_inverse_failure_prints_the_matrix_product(self, monkeypatch, pairs):
        # The record's ok and its detail come from the same integral Taylor
        # rows; the detail reads as the product of the public matrices.
        hermite_basis = confluent._hermite_basis

        def off(a, i):
            row = hermite_basis(a, i)
            return [row[0] + UniPoly([Rat(1, 3), Rat(1, 3)])] + row[1:] if i == 1 else row

        monkeypatch.setattr(confluent, "_hermite_basis", off)
        a = MultiRootSet(pairs)
        checks = univariate_checks(a, rs((2, 2), (5, 2)))
        record = next(
            c for c in checks if c.name == "basic Hermite coefficients invert the confluent Vandermonde"
        )
        assert not record.ok
        product = matrix_product(confluent_inverse(a), vandermonde_confluent(a, a.total))
        assert record.detail == "product " + product.pretty()

    def test_failed_check_carries_detail(self):
        assert Check("x", False, "why").detail == "why"
        assert Check("x", True).detail == ""


class TestMVBattery:
    def test_circle_line_all_green(self):
        checks = mv_checks(parse_system(circle_line_doc()))
        assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]
        names = [c.name for c in checks]
        assert "dual-basis quotient matches the Macaulay subresultant up to sign" in names

    def test_grid_system_builds_each_table_once_per_evaluation(self, monkeypatch):
        builds = []
        real = duality._binomial_tables

        def spy(coords, tops):
            builds.append(coords)
            return real(coords, tops)

        monkeypatch.setattr(duality, "_binomial_tables", spy)
        assert all(c.ok for c in mv_checks(parse_system(GRID_SYSTEM)))
        # One root: two translates for inverse_system, and one evaluation
        # shared by the annihilation record and V_T and O_S.
        assert len(builds) == 3

    def test_one_evaluation_per_system(self, monkeypatch):
        # Two roots, dual bases left to inverse_system: the annihilation
        # record and the quotient share one call of the evaluator.
        calls = spy(monkeypatch, duality, "_values")
        checks = mv_checks(parse_system(MIXED_GRID_SYSTEM))
        assert all(c.ok for c in checks)
        assert len(calls) == 1

    @pytest.mark.parametrize("raw", [MIXED_GRID_SYSTEM, DIVISION_SYSTEM])
    def test_verify_never_builds_the_canonical_basis(self, monkeypatch, capsys, raw):
        calls = spy(monkeypatch, duality, "_canonical")
        assert cli.main(["verify", "--system", json.dumps(raw)]) == 0
        assert cli.main(["mv", "--route", "poisson", "--system", json.dumps(raw)]) == 0
        assert calls == []

    def test_dual_builds_the_canonical_basis_once_per_point(self, monkeypatch, capsys):
        calls = spy(monkeypatch, duality, "_canonical")
        gens = json.dumps(MIXED_GRID_SYSTEM["polynomials"][:2])
        points = [root["point"] for root in MIXED_GRID_SYSTEM["roots"]]
        for point in points:
            assert cli.main(["dual", "--generators", gens, "--point", json.dumps(point)]) == 0
        assert len(calls) == len(points) == 2

    def test_without_roots_runs_matrix_checks_only(self):
        raw = circle_line_doc()
        del raw["roots"]
        checks = mv_checks(parse_system(raw))
        assert all(c.ok for c in checks)
        assert not any("dual" in c.name for c in checks)

    def test_requires_t_and_s(self):
        raw = circle_line_doc()
        del raw["t"]
        with pytest.raises(DomainError):
            mv_checks(parse_system(raw))
        raw = circle_line_doc()
        del raw["S"]
        with pytest.raises(DomainError):
            mv_checks(parse_system(raw))

    def test_singular_override_reports_failure_not_crash(self):
        raw = circle_line_doc()
        raw["T_override"] = {"2": [[1, 1]]}
        checks = mv_checks(parse_system(raw))
        bad = [c for c in checks if not c.ok]
        assert bad
        assert any("V_T is singular" in c.detail for c in bad)


class TestResolvedGroups:
    def test_fills_missing_duals(self):
        raw = circle_line_doc()
        raw["roots"] = [{"point": ["0", "0"]}, {"point": ["0", "2"]}]
        groups = resolved_groups(parse_system(raw))
        assert [len(dual) for _, dual in groups] == [3, 1]
        assert all(dual[0].is_evaluation() for _, dual in groups)

    def test_preserves_provided_duals(self):
        doc = parse_system(circle_line_doc())
        groups = resolved_groups(doc)
        assert groups[0][1] == doc.roots[0][1]

    def test_requires_root_data(self):
        raw = circle_line_doc()
        del raw["roots"]
        with pytest.raises(DomainError):
            resolved_groups(parse_system(raw))


class TestRandomInputs:
    def test_rootset_respects_bounds(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_rootset(rng, 5, max_mult=2)
            assert a.total == 5
            assert all(1 <= m <= 2 for _, m in a)

    def test_rootset_avoid(self):
        rng = random.Random(4)
        avoid = [Rat(1), Rat(2), Rat(-1, 2)]
        for _ in range(20):
            a = random_rootset(rng, 4, avoid=avoid)
            assert not any(r in avoid for r, _ in a)

    def test_pair_flags(self):
        rng = random.Random(6)
        for _ in range(20):
            a, b = random_pair(rng, max_degree=5, disjoint=True, simple=True)
            assert a.total <= b.total
            assert all(m == 1 for _, m in a) and all(m == 1 for _, m in b)
            assert not any(ra == rb for ra, _ in a for rb, _ in b)

    def test_seeded_determinism(self):
        one = random_pair(random.Random(11))
        two = random_pair(random.Random(11))
        assert one == two

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            random_rootset(random.Random(0), 0)
