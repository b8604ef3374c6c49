"""Bordered eliminations and the shared row table against the constructions
they replaced: rebuild-and-interpolate determinants and the Taylor-recursion
Wronskian (``oracles``).  Both sides are compared as JSON, byte for byte."""

import json

from hypothesis import given
from hypothesis import strategies as st

from conftest import rootsets
from oracles import (
    sres_coeff_interpolated,
    sres_roots_interpolated,
    vandermonde_taylor,
    wronskian_taylor,
)
from subres import (
    VARIANTS,
    MultiRootSet,
    ParamPoly,
    Rat,
    UniPoly,
    param,
    poly_from_roots,
    sres_coeff,
    sres_roots,
    vandermonde_confluent,
    wronskian,
)
from subres.serialize import matrix_to_json, unipoly_to_json


def same(got, want, to_json):
    assert json.dumps(to_json(got)) == json.dumps(to_json(want))


@st.composite
def cluster(draw, name, max_roots=2, max_mult=2):
    """Roots name+k for distinct offsets k; with name None, the integers k."""
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=max_roots, unique=True))
    mults = draw(st.lists(st.integers(1, max_mult), min_size=len(offsets), max_size=len(offsets)))
    roots = [Rat(k) if name is None else param(name) + k for k in offsets]
    return MultiRootSet(list(zip(roots, mults)))


RATIONAL_PAIRS = st.tuples(rootsets(max_blocks=3, max_mult=2), rootsets(max_blocks=3, max_mult=2))
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
