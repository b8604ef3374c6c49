"""Root-side subresultant formulas against the coefficient-side oracle."""

import random
from collections import Counter
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subres import (
    VARIANTS,
    DomainError,
    MultiRootSet,
    Rat,
    UniPoly,
    param,
    poly_from_roots,
    sres_coeff,
    sres_dm1_hermite,
    sres_one,
    sres_roots,
    sres_roots_all,
    taylor_coeff,
)
from subres import matrix
from subres.verify import random_pair
from conftest import rationals
from oracles import extremal_sres, lagrange_interpolant, sres_coeff_interpolated, sres_roots_interpolated


def rs(*pairs):
    return MultiRootSet([(Rat(r), m) for r, m in pairs])


def poly(*ascending):
    return UniPoly([Rat(c) if isinstance(c, int) else c for c in ascending])


class TestSresRoots:
    def test_double_root_against_cube(self):
        got = sres_roots(rs((1, 2)), rs((0, 3)), 1, "compact")
        assert got == poly(-2, 3)

    def test_top_order_returns_input_polynomial(self):
        a, b = rs((2, 1), (-1, 2)), rs((0, 2), (1, 2))
        for variant in VARIANTS:
            assert sres_roots(a, b, 3, variant) == poly_from_roots(a)

    def test_all_variants_match_coefficient_side(self):
        a, b = rs((0, 2), (1, 1)), rs((2, 2), (3, 2))
        f, g = poly_from_roots(a), poly_from_roots(b)
        for t in (0, 1, 2):
            want = sres_coeff(f, g, t)
            for variant in VARIANTS:
                assert sres_roots(a, b, t, variant) == want

    def test_shared_root_between_sets_allowed(self):
        a, b = rs((0, 1), (1, 1)), rs((1, 2), (2, 1))
        f, g = poly_from_roots(a), poly_from_roots(b)
        for t in (0, 1):
            for variant in VARIANTS:
                assert sres_roots(a, b, t, variant) == sres_coeff(f, g, t)

    @pytest.mark.parametrize("root", [Rat(1), param("a")])
    def test_wronskian_full_root_shared_above_and_up_to_the_order(self, monkeypatch, root):
        # A root of multiplicity 2 in both sets: the order-t subresultant is
        # 0 for t < 2, and there the x-free paired Vandermonde rows of
        # wronskian-full are dependent, so its shared elimination finds no
        # pivot; for t >= 2 it is nonzero.
        a = MultiRootSet([(root, 2), (root + 2, 1)])
        b = MultiRootSet([(root, 3), (root - 1, 1)])
        bareiss = matrix._bareiss
        for t in range(4):
            want = sres_roots(a, b, t, "compact")
            assert sres_roots(a, b, t, "block") == want
            seen = []

            def spy(*args):
                seen.append(bareiss(*args))
                return seen[-1]

            monkeypatch.setattr(matrix, "_bareiss", spy)
            got = sres_roots(a, b, t, "wronskian-full")
            monkeypatch.undo()
            assert got == want
            assert (seen[0] is None) == (t < 2) == (want == UniPoly.zero())

    def test_random_battery_small(self):
        rng = random.Random(2024)
        for _ in range(10):
            a, b = random_pair(rng, max_degree=4)
            f, g = poly_from_roots(a), poly_from_roots(b)
            d, e = a.total, b.total
            tmax = d if d < e else d - 1
            for t in range(tmax + 1):
                want = sres_coeff(f, g, t)
                for variant in VARIANTS:
                    assert sres_roots(a, b, t, variant) == want

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            sres_roots(rs((1, 1)), rs((0, 2)), 0, "fancy")

    def test_degree_constraints_enforced(self):
        with pytest.raises(DomainError):
            sres_roots(rs((1, 2)), rs((0, 1)), 0, "compact")  # d > e
        with pytest.raises(DomainError):
            sres_roots(rs((1, 2)), rs((0, 2)), 2, "compact")  # t = d = e

    def test_root_named_x_matches_coefficient_side(self):
        # The main variable never enters the scalar domain, so a root may
        # be the parameter x itself.
        x = param("x")
        a, b = MultiRootSet([(x, 2), (Rat(1), 1)]), rs((0, 1), (2, 2), (3, 1))
        f, g = poly_from_roots(a), poly_from_roots(b)
        for t in range(a.total + 1):
            want = sres_coeff(f, g, t)
            for variant in VARIANTS:
                assert sres_roots(a, b, t, variant) == want


ALPHA, BETA = param("a"), param("b")


def valid_orders(a, b):
    d, e = a.total, b.total
    return range(d + 1 if d < e else d)


def shared_pairs(seed, count):
    """Seeded rational pairs (A, B), d <= e, of roots with denominators up
    to 4 and multiplicities up to 2: A has a root at 0, and B shares one of
    the roots of A."""
    rng = random.Random(seed)
    pool = sorted({Rat(n, q) for n in range(-4, 5) for q in range(1, 5)} - {Rat(0)})
    pairs = []
    for _ in range(count):
        roots_a = [Rat(0)] + rng.sample(pool, rng.randint(0, 2))
        roots_b = [rng.choice(roots_a)]
        roots_b += rng.sample([r for r in pool if r not in roots_a], rng.randint(0, 2))
        a, b = (MultiRootSet([(r, rng.randint(1, 2)) for r in rs]) for rs in (roots_a, roots_b))
        pairs.append((a, b) if a.total <= b.total else (b, a))
    return pairs


class TestAllOrders:
    """``sres_roots_all``: every order of a variant from one elimination,
    against the oracle that rebuilds each order's matrix at x = 0..t."""

    @staticmethod
    def branches(monkeypatch):
        """Counts of the shared elimination's column swaps and zero exits:
        its ``_bareiss`` calls are the ones that resume from a step, and a
        swap there exchanges two rows of the transposed layout."""
        seen = Counter()
        bareiss = matrix._bareiss

        def spy(*args):
            if len(args) < 4:
                return bareiss(*args)
            rows = list(map(id, args[0]))
            got = bareiss(*args)
            if got is None:
                seen["zero"] += 1
            elif rows != list(map(id, args[0])):
                seen["swap"] += 1
            return got

        monkeypatch.setattr(matrix, "_bareiss", spy)
        return seen

    @staticmethod
    def assert_matches_oracle(a, b):
        for variant in VARIANTS:
            want = {t: sres_roots_interpolated(a, b, t, variant) for t in valid_orders(a, b)}
            assert sres_roots_all(a, b, variant) == want

    def test_rational_pairs_sharing_a_root(self, monkeypatch):
        seen = self.branches(monkeypatch)
        for a, b in shared_pairs(5, 12):
            self.assert_matches_oracle(a, b)
        assert seen["swap"] and seen["zero"]

    @pytest.mark.parametrize(
        "a, b",
        [
            ([(ALPHA, 2), (ALPHA + 1, 1)], [(ALPHA, 1), (BETA, 2)]),
            ([(ALPHA, 1), (ALPHA + 2, 1)], [(ALPHA, 2), (ALPHA - 1, 1)]),
            ([(ALPHA + 1, 2)], [(ALPHA + 1, 1), (ALPHA, 2), (ALPHA - 3, 1)]),
        ],
    )
    def test_parameter_clusters_sharing_a_root(self, monkeypatch, a, b):
        seen = self.branches(monkeypatch)
        self.assert_matches_oracle(MultiRootSet(a), MultiRootSet(b))
        assert seen["swap"] and seen["zero"]

    def test_extremal_pair(self):
        a, b = MultiRootSet([(ALPHA, 3)]), MultiRootSet([(BETA, 4)])
        self.assert_matches_oracle(a, b)
        want = [extremal_sres(ALPHA, BETA, 3, 4, t) for t in range(3)] + [poly_from_roots(a)]
        for variant in VARIANTS:
            assert list(sres_roots_all(a, b, variant).values()) == want

    def test_any_set_of_orders_reads_the_same_entries(self):
        a, b = rs((0, 2), (Rat(1, 2), 1)), rs((0, 1), (Rat(1, 2), 2), (Rat(-3, 4), 1))
        for variant in VARIANTS:
            every = sres_roots_all(a, b, variant)
            assert list(every) == list(valid_orders(a, b))
            assert sres_roots_all(a, b, variant, [2, 0, 2]) == {0: every[0], 2: every[2]}
            assert sres_roots_all(a, b, variant, []) == {}

    def test_refusals_keep_their_messages(self):
        a, b = rs((1, 2)), rs((0, 2))
        with pytest.raises(DomainError, match="^unknown variant 'fancy'; pick one of compact, "):
            sres_roots_all(a, b, "fancy")
        with pytest.raises(DomainError, match="^t = deg f = deg g is outside the defined range$"):
            sres_roots_all(a, b, "block", [0, 2])
        with pytest.raises(DomainError, match=r"^need 0 <= t <= deg f <= deg g, got t=0 d=3 e=2$"):
            sres_roots_all(rs((1, 3)), b)
        with pytest.raises(DomainError, match="^order t must be a nonnegative int$"):
            sres_roots_all(a, b, "compact", [-1])


@st.composite
def fine_pairs(draw, max_total=5):
    """(A, B), d <= e <= max_total, roots with denominators up to 12: their
    integral tables have q beyond the battery's pool of denominators 1-4."""
    key = lambda r: (r.numerator, r.denominator)  # noqa: E731
    roots = draw(st.lists(rationals(den_bound=12), min_size=2, max_size=6, unique_by=key))
    cut = draw(st.integers(1, len(roots) - 1))
    sets = []
    for part in (roots[:cut], roots[cut:]):
        pairs, total = [], 0
        for r in part:
            m = draw(st.integers(1, 3))
            if total + m > max_total:
                break
            pairs.append((r, m))
            total += m
        sets.append(MultiRootSet(pairs))
    return tuple(sorted(sets, key=lambda s: s.total))


class TestFineDenominators:
    """Every variant and the coefficient determinant, on integral rows with
    row scales, against the oracles that rebuild each matrix at x = 0..t."""

    @given(fine_pairs())
    # d = e with a root at 0, and coprime q_A = 5, q_B = 7.
    @example((rs((Rat(1, 5), 2)), rs((0, 1), (Rat(3, 7), 1))))
    # d < e, so t = d, where compact has no Wronskian rows; q_A = 3, q_B = 44.
    @example((rs((0, 1), (Rat(2, 3), 1)), rs((Rat(-1, 4), 2), (Rat(5, 11), 1))))
    def test_matches_the_interpolated_oracles(self, pair):
        a, b = pair
        f, g = poly_from_roots(a), poly_from_roots(b)
        d, e = a.total, b.total
        for t in range(d + 1 if d < e else d):
            assert sres_coeff(f, g, t) == sres_coeff_interpolated(f, g, t)
            for variant in VARIANTS:
                assert sres_roots(a, b, t, variant) == sres_roots_interpolated(a, b, t, variant)


@st.composite
def extremal_cases(draw):
    """(alpha, beta, m, n, t), alpha != beta, 0 <= t < m <= n: small
    rationals with m <= 4 and n <= 5, or the roots (a, b) or (a, a+1)
    with m <= 3 and n <= 4."""
    kind = draw(st.sampled_from(("rational", "a, b", "a, a+1")))
    if kind == "rational":
        alpha, beta = draw(st.lists(rationals(), min_size=2, max_size=2, unique=True))
        top_m, top_n = 4, 5
    else:
        alpha = param("a")
        beta = param("b") if kind == "a, b" else alpha + 1
        top_m, top_n = 3, 4
    m = draw(st.integers(1, top_m))
    n = draw(st.integers(m, top_n))
    return alpha, beta, m, n, draw(st.integers(0, m - 1))


class TestExtremalClosedForm:
    """One root on each side: every route against the Bernstein-basis
    closed form, which takes no determinant."""

    @given(extremal_cases())
    @example((Rat(3, 2), Rat(-1, 3), 4, 5, 2))
    @example((param("a"), param("b"), 3, 4, 1))
    @example((param("a"), param("a") + 1, 3, 3, 2))
    def test_every_route_matches(self, case):
        alpha, beta, m, n, t = case
        want = extremal_sres(alpha, beta, m, n, t)
        if t == 0:
            assert want == UniPoly([(alpha - beta) ** (m * n)])
        a, b = MultiRootSet([(alpha, m)]), MultiRootSet([(beta, n)])
        f, g = UniPoly([-alpha, Rat(1)]) ** m, UniPoly([-beta, Rat(1)]) ** n
        assert sres_coeff(f, g, t) == want
        for variant in VARIANTS:
            assert sres_roots(a, b, t, variant) == want
        if t == m - 1:
            assert sres_dm1_hermite(a, b) == want
        if t == 1:
            assert sres_one(a, b) == want


class TestHermiteCase:
    def test_single_block_is_taylor_truncation(self):
        a, b = rs((2, 3)), rs((0, 1), (1, 1), (3, 1), (4, 1))
        g = poly_from_roots(b)
        shift = poly(-2, 1)
        want = UniPoly.zero()
        for j in range(3):
            want = want + UniPoly([taylor_coeff(g, Rat(2), j)]) * shift ** j
        assert sres_dm1_hermite(a, b) == want

    def test_double_root_against_cube(self):
        assert sres_dm1_hermite(rs((1, 2)), rs((0, 3))) == poly(-2, 3)

    def test_simple_roots_lagrange(self):
        a, b = rs((0, 1), (2, 1), (5, 1)), rs((1, 2), (3, 2))
        g = poly_from_roots(b)
        nodes = [Rat(0), Rat(2), Rat(5)]
        assert sres_dm1_hermite(a, b) == lagrange_interpolant(nodes, [g(x) for x in nodes])

    def test_matches_coefficient_side(self):
        rng = random.Random(77)
        for _ in range(8):
            a, b = random_pair(rng, max_degree=5)
            f, g = poly_from_roots(a), poly_from_roots(b)
            assert sres_dm1_hermite(a, b) == sres_coeff(f, g, a.total - 1)

    def test_degree_bound(self):
        a, b = rs((0, 2), (1, 2)), rs((2, 3), (3, 2))
        s = sres_dm1_hermite(a, b)
        assert s.is_zero() or s.degree <= a.total - 1


def composition_sum_single_block(alpha, d, b):
    """The displayed composition-sum form for one root block of order d >= 2.

    Written without any division: the prefactor g(alpha)^(d-1) is folded
    into each composition term, leaving pure polynomial products.
    """
    betas = [beta for beta, _ in b]
    es = [e for _, e in b]
    n = len(betas)

    def folded(total):
        acc = 0
        for ks in iproduct(*(range(total + 1) for _ in range(n))):
            if sum(ks) != total:
                continue
            piece = 1
            for beta, e, k in zip(betas, es, ks):
                piece = piece * comb(e - 1 + k, k) * (alpha - beta) ** (e * (d - 1) - k)
            acc = acc + piece
        return acc

    linear = UniPoly([-alpha, 1]) * UniPoly([folded(d - 1)])
    constant = UniPoly([folded(d - 2)]) if d >= 2 else UniPoly.zero()
    return linear + constant


class TestOrderOne:
    def test_simple_roots_reduce_to_lagrange_style_sum(self):
        a, b = rs((0, 1), (1, 1), (3, 1)), rs((2, 2), (5, 1))
        g = poly_from_roots(b)
        d = a.total
        total = UniPoly.zero()
        for alpha, _ in a:
            weight = Rat(1)
            for other, _ in a:
                if other != alpha:
                    weight = weight * g(other) / (alpha - other)
            total = total + UniPoly([weight]) * poly(-alpha, 1)
        if (d - 1) % 2:
            total = UniPoly.zero() - total
        assert sres_one(a, b) == total
        assert sres_one(a, b) == sres_coeff(poly_from_roots(a), g, 1)

    def test_single_block_displayed_form(self):
        b = rs((2, 2), (4, 2))
        for d in (2, 3, 4):
            a = rs((1, d))
            want = composition_sum_single_block(Rat(1), d, b)
            assert sres_one(a, b) == want
            assert sres_one(a, b) == sres_coeff(poly_from_roots(a), poly_from_roots(b), 1)

    def test_mixed_multiplicities(self):
        a, b = rs((0, 2), (1, 1)), rs((2, 2), (3, 1))
        assert sres_one(a, b) == sres_coeff(poly_from_roots(a), poly_from_roots(b), 1)

    def test_matches_coefficient_side(self):
        rng = random.Random(31)
        done = 0
        while done < 8:
            a, b = random_pair(rng, max_degree=5, disjoint=True)
            if a.total < 2:
                continue
            assert sres_one(a, b) == sres_coeff(poly_from_roots(a), poly_from_roots(b), 1)
            done += 1

    def test_shared_root_rejected(self):
        with pytest.raises(DomainError) as err:
            sres_one(rs((1, 1), (2, 1)), rs((2, 2), (3, 1)))
        assert "disjoint" in str(err.value)

    def test_degree_constraint(self):
        with pytest.raises(DomainError):
            sres_one(rs((1, 1)), rs((0, 2)))  # d = 1

    def test_degree_bound(self):
        s = sres_one(rs((0, 2), (1, 1)), rs((5, 2), (7, 2)))
        assert s.is_zero() or s.degree <= 1


class TestSymbolicSpecializations:
    def test_taylor_form_with_symbolic_root(self):
        alpha = param("a")
        b = rs((0, 1), (2, 2), (5, 1))
        g = poly_from_roots(b)
        for d in (1, 2, 3, 4):
            a = MultiRootSet([(alpha, d)])
            got = sres_dm1_hermite(a, b)
            shift = UniPoly([-alpha, Rat(1)])
            want = UniPoly.zero()
            for j in range(d):
                want = want + UniPoly([taylor_coeff(g, alpha, j)]) * shift ** j
            assert got == want

    def test_composition_form_with_symbolic_root(self):
        alpha = param("a")
        b = rs((2, 2), (4, 2))
        for d in (2, 3, 4):
            a = MultiRootSet([(alpha, d)])
            assert sres_one(a, b) == composition_sum_single_block(alpha, d, b)
