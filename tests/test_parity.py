"""Bordered eliminations, the shared row table and the per-set closed forms
against the constructions they replaced: rebuild-and-interpolate
determinants, the Taylor-recursion Wronskian, and Hermite bases rebuilt per
call from fresh ``fiki`` products (``oracles``).  Both sides are compared as
JSON, byte for byte.  ``scripts/parity.py``'s digests of its fixed CLI calls
are pinned too: a change that alters an output on purpose updates them."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import parity
from conftest import rootsets
from oracles import (
    basic_hermite_per_call,
    confluent_inverse_per_call,
    fiki_product,
    hermite_interpolate_per_call,
    poly_product,
    sres_coeff_interpolated,
    sres_dm1_hermite_per_call,
    sres_one_per_call,
    sres_roots_interpolated,
    vandermonde_det_product,
    vandermonde_taylor,
    vprime_per_call,
    wronskian_taylor,
)
from subres import (
    VARIANTS,
    DomainError,
    MultiRootSet,
    ParamPoly,
    Rat,
    UniPoly,
    basic_hermite,
    confluent_inverse,
    hermite_interpolate,
    param,
    poly_from_roots,
    sres_coeff,
    sres_dm1_hermite,
    sres_one,
    sres_roots,
    vandermonde_confluent,
    vandermonde_det_closed,
    vprime,
    wronskian,
)
from subres.confluent import fiki
from subres.serialize import matrix_to_json, scalar_to_str, unipoly_to_json


def same(got, want, to_json):
    assert json.dumps(to_json(got)) == json.dumps(to_json(want))


@st.composite
def cluster(draw, name, max_roots=2, max_mult=2):
    """Roots name+k for distinct offsets k; with name None, the integers k."""
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=max_roots, unique=True))
    mults = draw(st.lists(st.integers(1, max_mult), min_size=len(offsets), max_size=len(offsets)))
    roots = [Rat(k) if name is None else param(name) + k for k in offsets]
    return MultiRootSet(list(zip(roots, mults)))


# Denominators up to 12, coprime ones among them, so the lcm behind a
# set's numerators, or a pair's, often exceeds every root's own.
RATIONAL_PAIRS = st.tuples(
    rootsets(max_blocks=3, max_mult=2, den_bound=12),
    rootsets(max_blocks=3, max_mult=2, den_bound=12),
)
SYMBOLIC_PAIRS = st.tuples(
    cluster("a"), st.one_of(cluster("b"), cluster(None, max_roots=3))
)

# h = 0, a constant, and a parameter in the constant term.
EXTRA_H = (UniPoly(), UniPoly([Rat(-5, 2)]), UniPoly([param("c"), -1, 3]))


def oriented(a, b):
    return (a, b) if a.total <= b.total else (b, a)


def check_pair(a, b):
    a, b = oriented(a, b)
    d, e = a.total, b.total
    f, g = poly_from_roots(a), poly_from_roots(b)
    for t in range(d + 1) if d < e else range(d):
        same(sres_coeff(f, g, t), sres_coeff_interpolated(f, g, t), unipoly_to_json)
        for variant in VARIANTS:
            same(sres_roots(a, b, t, variant), sres_roots_interpolated(a, b, t, variant),
                 unipoly_to_json)
    for u in range(d + e + 1):
        same(vandermonde_confluent(b, u), vandermonde_taylor(b, u), matrix_to_json)
        for h in (g,) + EXTRA_H:
            same(wronskian(h, a, u), wronskian_taylor(h, a, u), matrix_to_json)


class TestOracleParity:
    @given(RATIONAL_PAIRS)
    def test_rational_root_sets(self, pair):
        check_pair(*pair)

    @given(SYMBOLIC_PAIRS)
    def test_symbolic_root_sets(self, pair):
        check_pair(*pair)

    def test_fixed_extremes(self):
        # One root each side (t = 0 = d - 1), equal totals, a parameter
        # cluster against integers, and a constant ParamPoly root.
        a = param("a")
        for pair in (
            ([(Rat(2), 1)], [(Rat(-1), 1)]),
            ([(Rat(1, 2), 2), (Rat(0), 1)], [(Rat(3), 3)]),
            ([(a, 2), (a - 1, 1)], [(Rat(0), 1), (Rat(2), 2), (Rat(-3), 1)]),
            ([(ParamPoly.constant(3), 2)], [(param("b"), 1), (param("b") + 2, 1)]),
        ):
            check_pair(MultiRootSet(pair[0]), MultiRootSet(pair[1]))


# Taylor data for hermite_interpolate: zeros are skipped, and a parameter
# value keeps its own entry type.
DATA_VALUES = st.sampled_from([Rat(0), Rat(1), Rat(-3, 2), Rat(7), param("c") - 1])
ROOT_PAIRS = st.one_of(
    st.tuples(
        rootsets(max_blocks=3, max_mult=4, den_bound=12),
        rootsets(max_blocks=3, max_mult=4, den_bound=12),
    ),
    st.tuples(
        cluster("a", max_roots=3, max_mult=4),
        st.one_of(cluster("b", max_mult=3), cluster(None, max_roots=3, max_mult=4)),
    ),
)


def check_closed_forms(a, b, values):
    """Every per-set closed form of A (and the polynomial and determinant of
    B) against its per-call construction, then the two interpolants."""
    a, b = oriented(a, b)
    for s in (a, b):
        same(poly_from_roots(s), poly_product(s), unipoly_to_json)
        same(vandermonde_det_closed(s), vandermonde_det_product(s), scalar_to_str)
    same(confluent_inverse(a), confluent_inverse_per_call(a), matrix_to_json)
    for i, (_, d_i) in enumerate(a, start=1):
        for j in range(d_i):
            same(fiki(a, i, j), fiki_product(a, i, j), unipoly_to_json)
            same(basic_hermite(a, i, j), basic_hermite_per_call(a, i, j), unipoly_to_json)
    same(vprime(a), vprime_per_call(a), matrix_to_json)
    keys = [(i, j) for i, (_, d_i) in enumerate(a, start=1) for j in range(d_i)]
    data = {key: values[n % len(values)] for n, key in enumerate(keys)}
    same(hermite_interpolate(a, data), hermite_interpolate_per_call(a, data), unipoly_to_json)
    same(sres_dm1_hermite(a, b), sres_dm1_hermite_per_call(a, b), unipoly_to_json)
    if a.total > 1 and not set(a.roots) & set(b.roots):
        same(sres_one(a, b), sres_one_per_call(a, b), unipoly_to_json)


class TestClosedFormParity:
    @given(ROOT_PAIRS, st.lists(DATA_VALUES, min_size=1, max_size=6))
    def test_root_sets(self, pair, values):
        check_closed_forms(*pair, values)

    def test_fixed_extremes(self):
        # One-root sets (the basis is a shifted power, and sres_one has no
        # other root of A), multiplicity 4 on both sides, and a constant
        # ParamPoly root beside rational ones.
        a, b = param("a"), param("b")
        values = [Rat(2), Rat(0), param("c") - 1]
        for pair in (
            ([(Rat(1, 2), 4)], [(Rat(-1), 4), (Rat(3), 1)]),
            ([(a, 3)], [(b, 2), (b + 1, 2)]),
            ([(a, 4), (a + 2, 1), (a - 1, 2)], [(Rat(0), 4), (Rat(5), 4)]),
            ([(ParamPoly.constant(3), 2), (Rat(-1), 2)], [(b, 1), (b - 2, 4)]),
        ):
            check_closed_forms(MultiRootSet(pair[0]), MultiRootSet(pair[1]), values)

    def test_past_the_drawn_range(self):
        # Four roots of multiplicity 5 on both sides, then one-root sets:
        # against one root (sres_one with B slots alone) and against a
        # symbolic pair.
        a, b = param("a"), param("b")
        values = [Rat(1), Rat(-3, 2), param("c") - 1]
        for pair in (
            (
                [(Rat(1, 2), 5), (Rat(3), 5), (Rat(-2), 5), (Rat(7), 5)],
                [(Rat(0), 5), (Rat(1), 5), (Rat(2), 5), (Rat(5), 5)],
            ),
            ([(Rat(2), 5)], [(Rat(-1), 6)]),
            ([(a, 5)], [(b, 5)]),
            ([(a - 1, 4)], [(b, 2), (b + 3, 3)]),
        ):
            check_closed_forms(MultiRootSet(pair[0]), MultiRootSet(pair[1]), values)

    def test_non_constant_differences_are_refused_on_both_sides(self):
        a = MultiRootSet([(param("a"), 2), (param("b"), 1)])
        b = MultiRootSet([(param("c"), 3)])
        for build in (basic_hermite, basic_hermite_per_call):
            for i, j in ((1, 0), (1, 1), (2, 0)):
                with pytest.raises(DomainError):
                    build(a, i, j)
        for build in (sres_dm1_hermite, sres_dm1_hermite_per_call):
            with pytest.raises(DomainError):
                build(a, b)


def test_cli_output_digests(capsys):
    assert parity.main(["--seeds", "1", "2", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "624 calls, sha256 5ef9adc6494930125c9e422ae1649e9cdb8ce7520fed846be5c7f590dfe7893d",
        "38 grid-system calls, sha256 000b2fd3ae4f6594958d3ecaa035ea35ceee25a02cce23709d38fa6b5b003f03",
        "60 parametric dual calls, sha256 3c1a4516ae8ba7623ab4e5adfeca9644e156443c90b76bc9f24834e11e3ad2cc",
    ]
