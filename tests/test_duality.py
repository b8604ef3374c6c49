"""Local dual spaces: functionals, shifts, and inverse systems."""

import json
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import rationals
from oracles import inverse_system_dialytic, monomials_up_to, sigma_shift
from subres import DomainError, MultiPoly, Rat, param
from subres.matrix import ExactMatrix
from subres.mv.duality import (
    DualBasis,
    DualFunctional,
    Point,
    assemble_dual_basis,
    dual_eval,
    inverse_system,
)
from subres.serialize import functional_to_json

ORIGIN = Point((Rat(0), Rat(0)))


def functional(terms, point=ORIGIN):
    return DualFunctional(point, {tuple(k): Rat(v) if isinstance(v, int) else v for k, v in terms.items()})


def circle_line_pair():
    f1 = MultiPoly(2, {(1, 1): Rat(1)})
    f2 = MultiPoly(2, {(2, 0): Rat(1), (0, 2): Rat(1), (0, 1): Rat(-2)})
    return f1, f2


def quartic_pair():
    f1 = MultiPoly(2, {(1, 2): Rat(2), (4, 0): Rat(5)})
    f2 = MultiPoly(2, {(2, 1): Rat(2), (0, 4): Rat(5)})
    return f1, f2


def moved(g, point):
    """g(x - point): at the point it has the local structure g has at the origin."""
    out = MultiPoly(g.n)
    for expo, c in g.terms.items():
        term = MultiPoly.constant(g.n, c)
        for i, (e, p) in enumerate(zip(expo, point)):
            unit = tuple(int(k == i) for k in range(g.n))
            for _ in range(e):
                term = term * MultiPoly(g.n, {unit: Rat(1), (0,) * g.n: -p})
        out = out + term
    return out


def witness(k=7):
    """(x^2, y^k + x, z + yz): at the origin 1 + y is a unit, so z and x are
    multiples of y^k there, and the local ring is C[y]/(y^(2k))."""
    return [
        MultiPoly(3, {(2, 0, 0): Rat(1)}),
        MultiPoly(3, {(0, k, 0): Rat(1), (1, 0, 0): Rat(1)}),
        MultiPoly(3, {(0, 0, 1): Rat(1), (0, 1, 1): Rat(1)}),
    ]


def moved_to(gens, point):
    return [moved(g, point) for g in gens], point, None


@st.composite
def moved_systems(draw):
    """n generators, each of one to three terms of degree at most 3 (2
    variables) or 2 (3 variables) with rational coefficients, and half of
    them without linear terms, moved from the origin to a random rational
    point; with an order bound of None, 0, 1 or 2."""
    n = draw(st.sampled_from([2, 3]))
    top = 3 if n == 2 else 2
    gens = []
    for _ in range(n):
        low = draw(st.integers(1, 2))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            expo = draw(
                st.tuples(*[st.integers(0, top)] * n).filter(lambda e: low <= sum(e) <= top)
            )
            terms[expo] = draw(rationals().filter(bool))
        gens.append(MultiPoly(n, terms))
    point = tuple(draw(rationals()) for _ in range(n))
    bound = draw(st.sampled_from([None, 0, 1, 2]))
    return [moved(g, point) for g in gens], point, bound


def dual_outcome(solve, gens, point, bound):
    """What `sres dual` prints, or the DomainError it exits on."""
    try:
        funcs, truncated, order = solve(gens, point, bound)
    except DomainError:
        return "DomainError"
    return json.dumps([[functional_to_json(f) for f in funcs], truncated, order])


def integration(gens, point, bound):
    res = inverse_system(gens, point, order_bound=bound)
    return res.functionals, res.truncated, res.order_stabilized


A, B = param("a"), param("b")
PARAM_COEFFS = (Rat(1), Rat(-1), Rat(2), Rat(-3), Rat(1, 2), A, -A, A + 1, B, 2 * A, A * B, A * A)


@st.composite
def parametric_pairs(draw):
    """Two generators in two variables, each of one to four terms of
    degree 1 to 3 with coefficients from PARAM_COEFFS, so both vanish at
    the origin."""
    gens = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            degree = draw(st.integers(1, 3))
            i = draw(st.integers(0, degree))
            terms[(i, degree - i)] = draw(st.sampled_from(PARAM_COEFFS))
        gens.append(MultiPoly(2, terms))
    return gens


def rank(rows):
    if not rows:
        return 0
    return len(rows[0]) - len(ExactMatrix(rows).nullspace())


def as_vector(func, order):
    monos = monomials_up_to(2, order)
    lookup = dict(func.terms)
    return [lookup.get(m, Rat(0)) for m in monos]


class TestDualFunctional:
    def test_terms_merge_and_zero_drops(self):
        f = DualFunctional(ORIGIN, [((1, 0), Rat(2)), ((1, 0), Rat(-1)), ((0, 1), Rat(0))])
        assert f.terms == (((1, 0), Rat(1)),)

    def test_zero_functional_rejected(self):
        with pytest.raises(DomainError):
            DualFunctional(ORIGIN, {(1, 0): Rat(0)})

    def test_bad_exponent_rejected(self):
        with pytest.raises(DomainError):
            DualFunctional(ORIGIN, {(1,): Rat(1)})
        with pytest.raises(DomainError):
            DualFunctional(ORIGIN, {(-1, 0): Rat(1)})

    def test_order_and_evaluation_flag(self):
        assert functional({(0, 0): 1}).is_evaluation()
        assert not functional({(0, 0): 2}).is_evaluation()
        assert functional({(2, 1): 1, (0, 0): 3}).order == 3


class TestDualEval:
    def test_pure_evaluation(self):
        f = MultiPoly(2, {(2, 0): Rat(1), (1, 1): Rat(-3), (0, 0): Rat(7)})
        L = functional({(0, 0): 1}, Point((Rat(1), Rat(2))))
        assert dual_eval(L, f) == f([Rat(1), Rat(2)])

    def test_normalization_cancels_factorial(self):
        L = functional({(2, 0): 1})
        assert dual_eval(L, MultiPoly(2, {(2, 0): Rat(1)})) == Rat(1)

    def test_annihilates_second_equation(self):
        _, f2 = circle_line_pair()
        L = functional({(0, 1): 1, (2, 0): 2})
        assert dual_eval(L, f2) == Rat(0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            dual_eval(functional({(0, 0): 1}), MultiPoly(3, {(0, 0, 0): Rat(1)}))

    def test_picks_out_matching_monomial_at_origin(self):
        L = functional({(2, 1): 1})
        assert dual_eval(L, MultiPoly(2, {(2, 1): Rat(5)})) == Rat(5)
        assert dual_eval(L, MultiPoly(2, {(1, 2): Rat(5)})) == Rat(0)


class TestSigmaShift:
    """The shift the closedness check below applies (``oracles.sigma_shift``)."""

    def test_single_lowering(self):
        got = sigma_shift(functional({(2, 0): 1}), (1, 0))
        assert got == functional({(1, 0): 1})

    def test_drops_to_zero(self):
        assert sigma_shift(functional({(0, 1): 1}), (1, 0)) is None

    def test_composite_shift(self):
        got = sigma_shift(functional({(2, 3): 1}), (1, 1))
        assert got == functional({(1, 2): 1})

    def test_partial_survival(self):
        got = sigma_shift(functional({(2, 0): 1, (0, 1): 5}), (1, 0))
        assert got == functional({(1, 0): 1})

    def test_bad_shift_rejected(self):
        with pytest.raises(DomainError):
            sigma_shift(functional({(1, 0): 1}), (1,))


class TestInverseSystem:
    def test_simple_root(self):
        g1 = MultiPoly(2, {(1, 0): Rat(1), (0, 0): Rat(-1)})
        g2 = MultiPoly(2, {(0, 1): Rat(1), (0, 0): Rat(-2)})
        res = inverse_system([g1, g2], (1, 2))
        assert res.dimension == 1
        assert res.functionals[0].is_evaluation()
        assert not res.truncated
        assert res.order_stabilized == 0

    def test_circle_line_origin(self):
        res = inverse_system(list(circle_line_pair()), (0, 0))
        assert res.dimension == 3
        displayed = [
            functional({(0, 0): 1}),
            functional({(1, 0): 1}),
            functional({(0, 1): 1, (2, 0): 2}),
        ]
        order = max(f.order for f in list(res) + displayed)
        rows = [as_vector(f, order) for f in res]
        assert rank(rows) == 3
        assert rank(rows + [as_vector(f, order) for f in displayed]) == 3

    def test_circle_line_far_root(self):
        res = inverse_system(list(circle_line_pair()), (0, 2))
        assert res.dimension == 1 and res.functionals[0].is_evaluation()

    def test_quartic_pair_has_multiplicity_eleven(self):
        f1 = MultiPoly(2, {(1, 2): Rat(2), (4, 0): Rat(5)})
        f2 = MultiPoly(2, {(2, 1): Rat(2), (0, 4): Rat(5)})
        res = inverse_system([f1, f2], (0, 0))
        assert res.dimension == 11
        assert not res.truncated
        assert res.order_stabilized == 5
        assert max(f.order for f in res) == 5

    def test_quartic_pair_annihilation_and_closedness(self):
        f1 = MultiPoly(2, {(1, 2): Rat(2), (4, 0): Rat(5)})
        f2 = MultiPoly(2, {(2, 1): Rat(2), (0, 4): Rat(5)})
        res = inverse_system([f1, f2], (0, 0))
        order = max(f.order for f in res)
        for L in res:
            for g in (f1, f2):
                for beta in monomials_up_to(2, order):
                    assert dual_eval(L, g.shift(beta)) == Rat(0)
        rows = [as_vector(f, order) for f in res]
        base_rank = rank(rows)
        for L in res:
            for unit in ((1, 0), (0, 1)):
                shifted = sigma_shift(L, unit)
                if shifted is not None:
                    assert rank(rows + [as_vector(shifted, order)]) == base_rank

    @pytest.mark.parametrize("pair", [circle_line_pair, quartic_pair])
    def test_moved_to_rational_point_keeps_local_structure(self, pair):
        p = (Rat(3, 2), Rat(-2, 3))
        at_origin = inverse_system(list(pair()), (0, 0))
        at_p = inverse_system([moved(g, p) for g in pair()], p)
        assert at_p.dimension == at_origin.dimension
        assert at_p.order_stabilized == at_origin.order_stabilized
        assert not at_p.truncated
        assert [f.terms for f in at_p] == [f.terms for f in at_origin]
        assert all(f.point.coords == p for f in at_p)

    def test_default_bound_reaches_stabilization(self):
        # Local ring C[x,y]/(x^2, y^3 + x) has basis 1, y, ..., y^5; the
        # dual reaches order 5, beyond sum(deg g - 1) + 1 = 4.
        f1 = MultiPoly(2, {(2, 0): Rat(1)})
        f2 = MultiPoly(2, {(0, 3): Rat(1), (1, 0): Rat(1)})
        res = inverse_system([f1, f2], (0, 0))
        assert not res.truncated
        assert res.dimension == 6
        assert res.order_stabilized == 5
        assert res.dimension == inverse_system([f1, f2], (0, 0), order_bound=6).dimension

    def test_root_on_a_curve_stops_past_degree_product(self):
        # x^3 y^2 and x^2 y^3 share both axes, so the origin is not isolated;
        # the search stops once the dimension exceeds 5 * 5, not at order 25.
        f1 = MultiPoly(2, {(3, 2): Rat(1)})
        f2 = MultiPoly(2, {(2, 3): Rat(1)})
        res = inverse_system([f1, f2], (0, 0))
        assert res.truncated
        assert res.order_stabilized is None
        assert 25 < res.dimension < 35
        assert max(f.order for f in res) < 9

    def test_truncation_flag(self):
        f1 = MultiPoly(2, {(1, 2): Rat(2), (4, 0): Rat(5)})
        f2 = MultiPoly(2, {(2, 1): Rat(2), (0, 4): Rat(5)})
        res = inverse_system([f1, f2], (0, 0), order_bound=2)
        assert res.truncated
        assert res.order_stabilized is None

    def test_negative_order_bound_rejected(self):
        f1, f2 = circle_line_pair()
        with pytest.raises(DomainError) as err:
            inverse_system([f1, f2], (0, 0), order_bound=-2)
        assert str(err.value) == "order bound must be nonnegative, got -2"
        # Order 0 keeps the evaluation alone, truncated.
        res = inverse_system([f1, f2], (0, 0), order_bound=0)
        assert res.truncated and res.order_stabilized is None
        assert [f.terms for f in res] == [(((0, 0), 1),)]

    def test_not_a_root_rejected(self):
        g = MultiPoly(2, {(0, 0): Rat(1), (1, 0): Rat(1)})
        with pytest.raises(DomainError) as err:
            inverse_system([g], (0, 0))
        assert "not a common root" in str(err.value)

    def test_parameter_division_refusal_names_the_point(self):
        # a*x1 + x2 and x1^2 at (0, 0): the canonical basis needs 1/a.
        gens = [MultiPoly(2, {(1, 0): A, (0, 1): Rat(1)}), MultiPoly(2, {(2, 0): Rat(1)})]
        with pytest.raises(DomainError) as err:
            inverse_system(gens, (0, 0)).functionals
        assert str(err.value).startswith(
            "the dual basis at (0, 0) needs a division by a parameter polynomial: "
        )
        assert isinstance(err.value.__cause__, DomainError)
        assert str(err.value.__cause__) == "inexact polynomial division: -1 by a"

    def test_degenerate_inputs_rejected(self):
        g = MultiPoly(2, {(1, 0): Rat(1)})
        with pytest.raises(DomainError):
            inverse_system([], (0, 0))
        with pytest.raises(DomainError):
            inverse_system([g, MultiPoly(2)], (0, 0))
        with pytest.raises(DomainError):
            inverse_system([g, MultiPoly(3, {(1, 0, 0): Rat(1)})], (0, 0))
        with pytest.raises(DomainError):
            inverse_system([g], (0, 0, 0))


    def test_three_variable_witness(self):
        res = inverse_system(witness(), (0, 0, 0))
        assert res.dimension == 14
        assert res.order_stabilized == 13
        assert not res.truncated
        assert max(f.order for f in res) == 13
        assert all(dual_eval(L, g) == 0 for L in res for g in witness())


class TestIntegrationAgainstDialyticOracle:
    """``inverse_system`` against the per-order Macaulay kernel in
    tests/oracles.py, byte for byte on the `sres dual` functionals."""

    @given(moved_systems())
    @example(([MultiPoly(2, {(3, 2): Rat(1)}), MultiPoly(2, {(2, 3): Rat(1)})], (0, 0), None))
    @example(moved_to(quartic_pair(), (Rat(3, 2), Rat(-2, 3))))
    @example(moved_to(witness(3), (Rat(1, 2), Rat(-1), Rat(2))))
    def test_random_moved_systems(self, case):
        gens, point, bound = case
        want = dual_outcome(inverse_system_dialytic, gens, point, bound)
        assert dual_outcome(integration, gens, point, bound) == want

    @pytest.mark.parametrize(
        "gens, point, outcome",
        [
            ([MultiPoly(2, {(1, 0): Rat(1), (0, 2): A}), MultiPoly(2, {(0, 3): Rat(1)})], (0, 0), 3),
            (
                [MultiPoly(2, {(2, 0): Rat(1), (1, 0): -2 * A, (0, 0): A * A}), MultiPoly(2, {(0, 1): Rat(1)})],
                (A, 0),
                2,
            ),
            ([MultiPoly(2, {(1, 0): A, (0, 2): Rat(1)}), MultiPoly(2, {(0, 3): Rat(1)})], (0, 0), "DomainError"),
            # {1, d1,0, d2,0 - 2b d0,1, d3,0 - 2b d1,1}: polynomial, though
            # rebuilding each order through kernel divisions needed 1/b.
            ([MultiPoly(2, {(0, 1): Rat(1, 2), (2, 0): B}), MultiPoly(2, {(0, 2): Rat(2)})], (0, 0), 4),
        ],
    )
    def test_parameter_coefficients(self, gens, point, outcome):
        got = dual_outcome(integration, gens, point, None)
        assert got == dual_outcome(inverse_system_dialytic, gens, point, None)
        assert (got if got == "DomainError" else len(json.loads(got)[0])) == outcome

    @given(parametric_pairs())
    @example([MultiPoly(2, {(0, 1): Rat(1, 2), (2, 0): B}), MultiPoly(2, {(0, 2): Rat(2)})])
    @example([MultiPoly(2, {(2, 0): Rat(1), (0, 1): -A}), MultiPoly(2, {(0, 3): Rat(1)})])
    def test_parametric_pairs_at_the_origin(self, gens):
        # The canonical basis is unique, and both sides divide only to read
        # it, so they agree on every answer and on every refusal.
        got = dual_outcome(integration, gens, (0, 0), None)
        assert got == dual_outcome(inverse_system_dialytic, gens, (0, 0), None)


class TestCanonicalFunctionals:
    """``inverse_system`` builds its functionals without the constructor's
    checks; each must be what the constructor makes of its own terms."""

    @staticmethod
    def check(gens, point, bound=None):
        try:
            res = inverse_system(gens, point, order_bound=bound)
        except DomainError:
            return
        for f in res:
            again = DualFunctional(f.point, dict(f.terms))
            assert f == again
            assert [type(c) for _, c in f.terms] == [type(c) for _, c in again.terms]
            assert not any(type(c) is int for _, c in f.terms)

    @given(moved_systems())
    def test_rational_points(self, case):
        self.check(*case)

    @given(parametric_pairs())
    def test_parameter_coefficients(self, gens):
        self.check(gens, (0, 0))

    def test_parameter_point(self):
        gens = [MultiPoly(2, {(2, 0): Rat(1), (1, 0): -2 * A, (0, 0): A * A}), MultiPoly(2, {(0, 1): Rat(1)})]
        self.check(gens, (A, 0))


class TestTwoBases:
    """``primitive`` is the basis the integration found; ``functionals``,
    the canonical basis of the same span, is built from it on first read,
    and only that read can refuse the point."""

    @pytest.mark.parametrize("pair", [circle_line_pair, quartic_pair])
    def test_same_span(self, pair):
        res = inverse_system(list(pair()), (0, 0))
        assert list(res) == list(res.primitive) and res.primitive[0].is_evaluation()
        order = max(f.order for f in res)
        own = [as_vector(f, order) for f in res.primitive]
        canonical = [as_vector(f, order) for f in res.functionals]
        assert rank(own) == rank(canonical) == rank(own + canonical) == res.dimension
        assert res.functionals is res.functionals

    def test_integer_coefficients_without_content(self):
        res = inverse_system(list(quartic_pair()), (0, 0))
        for f in res.primitive:
            coeffs = [c for _, c in f.terms]
            assert all(c.denominator == 1 for c in coeffs)
            assert gcd(*(int(c) for c in coeffs)) == 1

    def test_refusal_waits_for_the_canonical_read(self):
        # a*x1 + x2 and x1^2 at (0, 0): the integration's basis is
        # polynomial; every read of the canonical one refuses the point.
        gens = [MultiPoly(2, {(1, 0): A, (0, 1): Rat(1)}), MultiPoly(2, {(2, 0): Rat(1)})]
        res = inverse_system(gens, (0, 0))
        assert res.dimension == len(res) == 2 and not res.truncated
        assert all(dual_eval(L, g) == 0 for L in res for g in gens)
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                res.functionals
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "the dual basis at (0, 0) needs a division by a parameter polynomial: "
            "inexact polynomial division: -1 by a"
        )


class TestAssembleDualBasis:
    def evaluation(self, point):
        return DualFunctional(point, {(0,) * len(point.coords): Rat(1)})

    def test_concatenation_in_root_order(self):
        p, q = Point((Rat(0), Rat(0))), Point((Rat(0), Rat(2)))
        fp = [self.evaluation(p), DualFunctional(p, {(1, 0): Rat(1)})]
        fq = [self.evaluation(q)]
        basis = assemble_dual_basis([(p, fp), (q, fq)], expected_total=3)
        assert isinstance(basis, DualBasis)
        assert len(basis) == 3
        assert list(basis) == fp + fq

    def test_count_mismatch(self):
        p = Point((Rat(0), Rat(0)))
        with pytest.raises(DomainError) as err:
            assemble_dual_basis([(p, [self.evaluation(p)])], expected_total=2)
        assert "expected 2" in str(err.value)

    def test_first_functional_must_be_evaluation(self):
        p = Point((Rat(0), Rat(0)))
        with pytest.raises(DomainError):
            assemble_dual_basis([(p, [DualFunctional(p, {(1, 0): Rat(1)})])])

    def test_repeated_root_rejected(self):
        p = Point((Rat(0), Rat(0)))
        with pytest.raises(DomainError):
            assemble_dual_basis([(p, [self.evaluation(p)]), (p, [self.evaluation(p)])])

    def test_anchor_mismatch_rejected(self):
        p, q = Point((Rat(0), Rat(0))), Point((Rat(1), Rat(1)))
        with pytest.raises(DomainError):
            assemble_dual_basis([(p, [self.evaluation(q)])])

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            assemble_dual_basis([(Point((Rat(0), Rat(0))), [])])
