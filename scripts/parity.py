#!/usr/bin/env python3
"""A fixed set of ``sres`` calls and one digest of everything they print.

Each call runs in-process through ``subres.cli.main``.  The script prints
how many calls ran and one sha256 over the argv, exit code, standard output
and standard error of each, in order.  It exits 1, naming the calls on
standard error, if any call ended in exit 4 (an internal error).  Two trees
give the same digest when every call exits and prints the same in both, so

    PYTHONPATH=src python3 scripts/parity.py --seeds 1 2 3
    PYTHONPATH=<other tree>/src python3 scripts/parity.py --seeds 1 2 3

compare this tree's outputs with another commit's.  The inputs come only
from the standard library and the constants of ``run_crosschecks.py``:

- per seed, random rational pairs (total degree <= 6, multiplicity <= 3),
  then once the symbolic pairs and the fine pair.  On each pair: ``verify``,
  ``roots`` in all three variants at every valid t, ``hermite``, ``one``,
  ``dsum`` with p, q in {0, 1}, and ``vandermonde`` and ``wronskian`` of A
  with the default u;
- on the A side of each symbolic pair and of the fine pair, ``wronskian``
  with a parameter in h;
- the five bundled systems other than the mixed grid system and the
  division system.  On each: ``verify``, ``mv`` on both routes, and
  ``dual`` at each root;
- ``verify`` on the first bundled system with two of its dual functionals
  at (0, 0) replaced, so that the annihilation record and the quotient
  record fail (exit 1).

A second line digests the same calls on grid systems: the mixed grid
system of ``run_crosschecks.py``, then per seed two random ones
(``grid_system``).  Each has a root of multiplicity 9 whose dual basis is
left to the inverse-system solver, so ``mv --route poisson`` prints a
dual-basis quotient computed from it.  The first line stays the digest of
the calls above alone, so it compares with trees older than the grid
systems.

A third line digests ``dual`` at the origin on parametric generator pairs,
twenty per seed (``dual_pair``), so that which of them are refused, and
with which message, is pinned too.  The first two lines stay as they were.
"""

import argparse
import copy
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from run_crosschecks import (
    BUNDLED_SYSTEM,
    DIVISION_SYSTEM,
    FINE_PAIR,
    MIXED_GRID_SYSTEM,
    SYMBOLIC_PAIRS,
    SYSTEMS,
)
from subres import cli

PAIRS_PER_SEED = 8
POOL = sorted({Fraction(num, den) for num in range(-9, 10) for den in range(1, 5)})
VARIANTS = ("compact", "block", "wronskian-full")
# h = z^2 - 3z + 1/2 for the wronskian calls, and h = -z^2 + z/2 + c.
H = json.dumps(["1/2", "-3", "1"])
H_PARAM = json.dumps(["c", "1/2", "-1"])

# d1 + 1/2 d2 and d2 + 3 d1^2 in place of d1 and d2 + 2 d1^2 at (0, 0): the
# second does not annihilate f2 = x1^2 + x2^2 - 2 x2.
BROKEN_DUAL_SYSTEM = copy.deepcopy(BUNDLED_SYSTEM)
BROKEN_DUAL_SYSTEM["roots"][0]["dual"][1:] = [
    {"terms": [{"alpha": [1, 0], "coeff": "1"}, {"alpha": [0, 1], "coeff": "1/2"}]},
    {"terms": [{"alpha": [0, 1], "coeff": "1"}, {"alpha": [2, 0], "coeff": "3"}]},
]


def random_rootset(rng, degree):
    """[[root, multiplicity], ...] of the given total degree, distinct roots."""
    mults = []
    while degree:
        m = rng.randint(1, min(3, degree))
        mults.append(m)
        degree -= m
    return [[str(r), m] for r, m in zip(rng.sample(POOL, len(mults)), mults)]


def random_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(PAIRS_PER_SEED):
        e = rng.randint(1, 6)
        pairs.append((random_rootset(rng, rng.randint(1, e)), random_rootset(rng, e)))
    return pairs


def pair_calls(a, b):
    d, e = sum(m for _, m in a), sum(m for _, m in b)
    orders = range(d + 1) if d < e else range(d)
    ab = ["--A", json.dumps(a), "--B", json.dumps(b)]
    calls = [["verify"] + ab]
    calls += [["roots"] + ab + ["-t", str(t), "--variant", v] for v in VARIANTS for t in orders]
    calls += [["hermite"] + ab, ["one"] + ab]
    calls += [["dsum"] + ab + ["-p", str(p), "-q", str(q)] for p in (0, 1) for q in (0, 1)]
    calls += [["vandermonde", "--A", json.dumps(a)], ["wronskian", "--A", json.dumps(a), "--h", H]]
    return calls


def system_calls(doc):
    system = json.dumps(doc)
    generators = json.dumps(doc["polynomials"][: doc["n"]])
    calls = [["verify", "--system", system]]
    calls += [["mv", "--system", system, "--route", r] for r in ("macaulay", "poisson")]
    calls += [
        ["dual", "--generators", generators, "--point", json.dumps(root["point"])]
        for root in doc["roots"]
    ]
    return calls


GRIDS_PER_SEED = 2
# Multiplicity patterns along x1 and x2; the first root of each is the
# heavy one, of multiplicity 9.
GRID_PATTERNS = (((3,), (3,)), ((3, 1), (3,)), ((3,), (3, 1)), ((3, 1), (3, 1)))
INTEGERS = tuple(Fraction(num) for num in range(-4, 5))
HALVES = tuple(Fraction(num, 2) for num in range(-7, 8, 2))


def _expand(roots):
    """Ascending coefficients of prod (z - r)^m."""
    coeffs = [Fraction(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def _reduced(degrees, j):
    """Degree-j monomials x1^a x2^b with a < D1 and b < D2, canonical order."""
    return [[a, j - a] for a in range(j, -1, -1) if a < degrees[0] and j - a < degrees[1]]


def grid_system(rng):
    """A system document for f1(x1) f2(x2) f3 at a random order t from 1
    to D1 + D2 - 3, away from the two ends, where Delta is often 1.

    The heavy root has an x1 coordinate with denominator 2 and an integer
    x2 coordinate; the other coordinates have denominator 1 or 2.  f3 is a
    line whose three coefficients have three different denominators, and
    S is a random k-subset of the monomials of degree <= t.  T takes the
    reduced monomials, which are a basis of the quotient.
    """
    m1, m2 = rng.choice(GRID_PATTERNS)
    x, y = rng.choice(HALVES), rng.choice(INTEGERS)
    xs = [x] + rng.sample([r for r in INTEGERS + HALVES if r != x], len(m1) - 1)
    ys = [y] + rng.sample([r for r in INTEGERS + HALVES if r != y], len(m2) - 1)
    degrees = (sum(m1), sum(m2))
    f1 = [{"exponents": [i, 0], "coeff": str(c)} for i, c in enumerate(_expand(zip(xs, m1))) if c]
    f2 = [{"exponents": [0, i], "coeff": str(c)} for i, c in enumerate(_expand(zip(ys, m2))) if c]
    f3 = [
        {"exponents": e, "coeff": str(Fraction(rng.choice((-1, 1)) * rng.choice((1, 7, 11)), den))}
        for e, den in zip(([0, 0], [1, 0], [0, 1]), rng.sample((1, 2, 3, 5), 3))
    ]
    t = rng.randrange(1, sum(degrees) - 2)
    below = [[a, s - a] for s in range(t + 1) for a in range(s, -1, -1)]
    return {
        "n": 2,
        "polynomials": [f1, f2, f3],
        "degrees": [degrees[0], degrees[1], 1],
        "t": t,
        "S": rng.sample(below, len(_reduced(degrees, t))),
        "T_override": {str(j): _reduced(degrees, j) for j in range(sum(degrees) - 1)},
        "roots": [{"point": [str(x), str(y)]} for x in xs for y in ys],
    }


def grid_calls(seeds):
    calls = system_calls(MIXED_GRID_SYSTEM)
    for seed in seeds:
        rng = random.Random("grid %d" % seed)
        for _ in range(GRIDS_PER_SEED):
            calls += system_calls(grid_system(rng))
    return calls


DUALS_PER_SEED = 20
DUAL_COEFFS = ("1", "-1", "2", "-3", "1/2", "a", "-a", "a+1", "b", "2*a", "a*b", "a^2")


def dual_pair(rng):
    """Two generators in x1, x2, each of one to four terms of degree 1 to
    3 with coefficients from DUAL_COEFFS, so both vanish at the origin."""
    gens = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            degree = rng.randint(1, 3)
            i = rng.randint(0, degree)
            terms[(i, degree - i)] = rng.choice(DUAL_COEFFS)
        gens.append([{"exponents": list(e), "coeff": c} for e, c in terms.items()])
    return gens


def dual_calls(seeds):
    calls = []
    for seed in seeds:
        rng = random.Random("dual %d" % seed)
        for _ in range(DUALS_PER_SEED):
            generators = json.dumps(dual_pair(rng))
            calls.append(["dual", "--generators", generators, "--point", json.dumps(["0", "0"])])
    return calls


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def calls_for(seeds):
    pairs = [pair for seed in seeds for pair in random_pairs(seed)]
    fixed = list(SYMBOLIC_PAIRS) + [FINE_PAIR]
    calls = [call for a, b in pairs + fixed for call in pair_calls(a, b)]
    calls += [["wronskian", "--A", json.dumps(a), "--h", H_PARAM] for a, _ in fixed]
    # The mixed grid system is on the second line.  The division system is
    # on none, so the first line still compares with trees that refuse it.
    calls += [
        call
        for _, doc in SYSTEMS
        if doc is not MIXED_GRID_SYSTEM and doc is not DIVISION_SYSTEM
        for call in system_calls(doc)
    ]
    return calls + [["verify", "--system", json.dumps(BROKEN_DUAL_SYSTEM)]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="digest the outputs of a fixed set of sres calls")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="seeds of the random pairs")
    seeds = parser.parse_args(argv).seeds
    internal = []
    for label, calls in (
        ("calls", calls_for(seeds)),
        ("grid-system calls", grid_calls(seeds)),
        ("parametric dual calls", dual_calls(seeds)),
    ):
        digest = hashlib.sha256()
        for call in calls:
            result = run(call)
            digest.update(json.dumps(result).encode("utf-8") + b"\n")
            if result[1] == 4:
                internal.append(call)
        print("%d %s, sha256 %s" % (len(calls), label, digest.hexdigest()))
    for call in internal:
        print("internal error (exit 4): sres %s" % " ".join(call), file=sys.stderr)
    return 1 if internal else 0


if __name__ == "__main__":
    sys.exit(main())
