"""Seeded input generators for the three benchmark workloads.

Each workload is an endless stream of `sres verify` argument lists.  The
stream is cut into blocks: a block holds a fixed multiset of case shapes
(degrees; multiplicities too, except in uni_battery; orders in mv_dual) and
the seed draws everything else (roots, offsets, coefficients).  Cost per case depends
almost entirely on its shape, so a fixed shape mix keeps throughput
comparable between seeds while every seed still sends different inputs.
Within a block the shapes are interleaved by smooth weighted round robin,
so a block cut short by the clock still carries the intended mix.

The generators use only the standard library: inputs never depend on the
program under test, and no case is kept or dropped by what it returns.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

Case = List[str]


def interleave(weighted: Sequence[Tuple[object, int]]) -> list:
    """Smooth weighted round robin: each prefix tracks the weights closely."""
    total = sum(w for _, w in weighted)
    current = [0] * len(weighted)
    out = []
    for _ in range(total):
        for i, (_, w) in enumerate(weighted):
            current[i] += w
        best = max(range(len(weighted)), key=lambda i: current[i])
        current[best] -= total
        out.append(weighted[best][0])
    return out


def _rootset_json(pairs) -> str:
    return json.dumps([[str(r), m] for r, m in pairs])


def _verify_pair(a, b) -> Case:
    return ["verify", "--A", _rootset_json(a), "--B", _rootset_json(b)]


# ---------------------------------------------------------------------------
# uni_battery: the rational pairs of scripts/run_crosschecks.py

# Same pool and draw order as subres.verify.random_rootset, so a shape gets
# the same roots the cross-check battery would give it.
_POOL = tuple(
    sorted(
        {Fraction(num, den) for num in range(-9, 10) for den in range(1, 5)},
        key=lambda r: (r.numerator, r.denominator),
    )
)


def random_rootset(rng: random.Random, degree: int, max_mult: int = 3) -> list:
    mults = []
    remaining = degree
    while remaining:
        m = rng.randint(1, min(max_mult, remaining))
        mults.append(m)
        remaining -= m
    return list(zip(rng.sample(_POOL, len(mults)), mults))


# random_pair(max_degree=6) draws e uniformly and then d <= e uniformly, so
# shape (d, e) has probability 1/(6e); weight 12/e rounded keeps that mix
# in a 70-case block.
BATTERY_SHAPES = interleave(
    [((d, e), round(12 / e)) for e in range(1, 7) for d in range(1, e + 1)]
)


def uni_battery(rng: random.Random) -> Iterator[Case]:
    while True:
        for d, e in BATTERY_SHAPES:
            a = random_rootset(rng, d)
            b = random_rootset(rng, e)
            yield _verify_pair(a, b)


# ---------------------------------------------------------------------------
# uni_symbolic: parameter clusters, every determinant entry a ParamPoly


def _cluster(rng: random.Random, name, mults) -> list:
    """Roots name+k for distinct offsets k in [-3, 3] with the given
    multiplicities; with name None the roots are the plain integers k."""
    offsets = rng.sample(range(-3, 4), len(mults))
    if name is None:
        return list(zip(offsets, mults))
    return [("%s%+d" % (name, k) if k else name, m) for k, m in zip(offsets, mults)]


# (multiplicities of A, parameter of B or None for integers, multiplicities
# of B).  Multiplicities are part of the shape, because they set the matrix
# structure and so the cost; the seed draws the offsets.  Parametric B sets
# stop at d + e = 6 and (2, 4); past that a case takes seconds.  An odd
# number of shapes puts the median case inside one shape's cluster of
# latencies rather than on the gap between two.
SYMBOLIC_SHAPES = interleave(
    [
        (shape, 1)
        for shape in (
            ((1,), "b", (1,)),
            ((1,), "b", (1, 1)),
            ((2,), "b", (1, 1)),
            ((1,), "b", (2, 1)),
            ((1, 1), "b", (2, 1)),
            ((2, 1), "b", (1, 2)),
            ((1,), "b", (2, 1, 1)),
            ((2,), "b", (2, 1, 1)),
            ((1,), None, (2,)),
            ((1, 1), None, (1, 1)),
            ((1,), None, (1, 2)),
            ((2,), None, (1, 1, 1)),
            ((1, 2), None, (2, 1)),
            ((1,), None, (2, 1, 1)),
            ((1, 1), None, (2, 2)),
            ((2, 1), None, (1, 2, 1)),
            ((2, 1, 1), None, (2, 2)),
        )
    ]
)


def uni_symbolic(rng: random.Random) -> Iterator[Case]:
    while True:
        for a_mults, b_name, b_mults in SYMBOLIC_SHAPES:
            yield _verify_pair(_cluster(rng, "a", a_mults), _cluster(rng, b_name, b_mults))


# ---------------------------------------------------------------------------
# mv_dual: two-variable grid systems, duals filled in by inverse_system

_GRID_POOL = tuple(sorted({Fraction(num, den) for num in range(-4, 5) for den in (1, 2)}))

# Multiplicity patterns along x1 and x2; the first root of each is the
# heavy one, so every system has a root of multiplicity >= 9 (16 for the
# (4,)x(4,) grid).
GRID_PATTERNS = (
    ((3,), (3,)),
    ((3, 1), (3,)),
    ((4,), (3,)),
    ((3, 1), (3, 1)),
    ((4,), (4,)),
    ((3, 2), (3, 1)),
)

DUAL_SHAPES = interleave(
    [((p, t), 1) for p in GRID_PATTERNS for t in range(sum(p[0]) + sum(p[1]) - 1)]
)


def _expand(roots) -> List[Fraction]:
    """Ascending coefficients of prod (z - r)^m."""
    coeffs = [Fraction(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def _reduced(degrees: Tuple[int, int], j: int) -> list:
    """Degree-j monomials x1^a x2^b with a < D1 and b < D2, canonical order."""
    return [[a, j - a] for a in range(j, -1, -1) if a < degrees[0] and j - a < degrees[1]]


def grid_system(rng: random.Random, pattern, t: int) -> dict:
    """System document for f1(x1) f2(x2) with known grid roots and a
    rational linear f3, at order t.

    f1 and f2 have leading forms x1^D1 and x2^D2, so the reduced monomials
    are a basis of the quotient: T_override takes them, which makes V_T
    invertible, and the extraneous factor is 1.  Roots are points only, so
    verify computes every dual basis with inverse_system.
    """
    m1, m2 = pattern
    xs = rng.sample(_GRID_POOL, len(m1))
    ys = rng.sample(_GRID_POOL, len(m2))
    degrees = (sum(m1), sum(m2))
    f1 = [{"exponents": [i, 0], "coeff": str(c)} for i, c in enumerate(_expand(zip(xs, m1))) if c]
    f2 = [{"exponents": [0, i], "coeff": str(c)} for i, c in enumerate(_expand(zip(ys, m2))) if c]
    f3 = [
        {"exponents": e, "coeff": str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)))}
        for e in ([0, 0], [1, 0], [0, 1])
    ]
    rho = degrees[0] + degrees[1] - 2
    k = len(_reduced(degrees, t))
    s_cols = [[a, s - a] for s in range(t + 1) for a in range(s, -1, -1)][:k]
    return {
        "n": 2,
        "polynomials": [f1, f2, f3],
        "degrees": [degrees[0], degrees[1], 1],
        "t": t,
        "S": s_cols,
        "T_override": {str(j): _reduced(degrees, j) for j in range(max(rho, t) + 1)},
        "roots": [{"point": [str(x), str(y)]} for x in xs for y in ys],
    }


def mv_dual(rng: random.Random) -> Iterator[Case]:
    while True:
        for pattern, t in DUAL_SHAPES:
            yield ["verify", "--system", json.dumps(grid_system(rng, pattern, t))]


WORKLOADS = {
    "uni_battery": (uni_battery, len(BATTERY_SHAPES)),
    "uni_symbolic": (uni_symbolic, len(SYMBOLIC_SHAPES)),
    "mv_dual": (mv_dual, len(DUAL_SHAPES)),
}
