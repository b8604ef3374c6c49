#!/usr/bin/env python3
"""Random cross-check battery over the rationals.

Draws random multiple-root pairs, runs every coefficient-side vs root-side
comparison the preconditions allow, replays a few fixed symbolic pairs
(roots a+k against b+k or against integers, and a triple root a against
a quadruple root b, so the determinants carry parameter entries and run
through the packed integer kernel), two fixed rational pairs whose
roots have denominators 7, 9 and 11, and 5, 7 and 11 with every root
multiple, and two pairs that share a root, one
rational and one symbolic, then replays seven bundled
two-variable systems through the document-level battery: the
circle-line example, whose dual basis is given, a grid system with one
root of multiplicity 9, a second grid system with roots of multiplicity
9 and 3 and a line with mixed denominators, a system with two multiple
roots whose coordinates are thirds, a system whose roots lie at a
parameter, one whose dual basis has a parameter coefficient, and one
whose canonical dual basis would need a division by a parameter;
``inverse_system`` computes the dual bases of the last six.
Exits 1 if any check fails.
"""

import argparse
import random
import sys
import time

from subres.serialize import parse_rootset, parse_system
from subres.verify import mv_checks, random_pair, univariate_checks

# Root clusters a+k against b+k and against integers.  Within a set the
# roots differ by constants, which the Hermite closed form divides by.
SYMBOLIC_PAIRS = (
    ([["a", 2], ["a+1", 1]], [["b-1", 1], ["b+2", 2]]),
    ([["a", 1], ["a-2", 1]], [["1", 2], ["-1", 1]]),
    ([["a+1", 2]], [["b", 1], ["b+1", 1], ["b-3", 1]]),
    ([["a", 1], ["a+3", 2]], [["0", 1], ["2", 1], ["-3", 2]]),
    ([["a", 3]], [["b", 1], ["b+1", 2]]),
    # d = 3 < e = 4: wronskian-full packs up to three x rows, its entry
    # bounds taken at the last node x = t.
    ([["a", 2], ["a+1", 1]], [["b", 2], ["b+1", 2]]),
    # Offsets with denominators 2 and 3: parameter coefficients over a
    # denominator other than 1.
    ([["a", 2], ["a+1/2", 1]], [["b-1/3", 1], ["b+2", 2]]),
    # The extremal case: one root on each side, each a bare parameter, so
    # every table entry is a monomial in a or b.
    ([["a", 3]], [["b", 4]]),
)

# Multiplicities up to 3 and denominators beyond the random pool's 1-4:
# the integral Vandermonde tables scale by q = 63 for A and 693 for B,
# and the paired rows by lcm 693.  Under gmpy2 the roots are mpq, so the
# tables are built from int() of their mpz parts.
FINE_PAIR = ([["1/7", 3], ["-2/9", 1]], [["5/11", 2], ["-3/7", 1], ["4/9", 3]])

# Multiple roots with coprime denominators 5 and 7 against 11 and 1: each
# set's q exceeds its roots' own denominators, and the closed forms that
# read both sets (the resultant product, the order-1 pole formula) run on
# numerators over q = 385.
COPRIME_PAIR = ([["1/5", 3], ["-2/7", 2]], [["3/11", 2], ["4", 3]])

# Pairs that share roots, so that the one elimination behind each root-side
# layout meets a zero where it wants a pivot and swaps columns, and meets a
# bottom row with nothing left, which makes every lower order 0: a rational
# pair with a root at 0, and a symbolic pair that shares the parameter root a.
SHARED_RATIONAL_PAIR = ([["0", 2], ["1/2", 1]], [["0", 1], ["1/2", 2], ["-3/4", 1]])
SHARED_SYMBOLIC_PAIR = ([["a", 2], ["a+1", 1]], [["a", 1], ["b", 2]])

BUNDLED_SYSTEM = {
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


# (x1 - 1/2)^3, (x2 + 1)^3 and a rational line: the root (1/2, -1) has
# multiplicity 9, and its dual basis is left to inverse_system.  The leading
# forms are x1^3 and x2^3, so the reduced monomials x1^a x2^b with a, b < 3
# are a basis of the quotient and make V_T invertible.
GRID_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [0, 0], "coeff": "-1/8"},
            {"exponents": [1, 0], "coeff": "3/4"},
            {"exponents": [2, 0], "coeff": "-3/2"},
            {"exponents": [3, 0], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [0, 1], "coeff": "3"},
            {"exponents": [0, 2], "coeff": "3"},
            {"exponents": [0, 3], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "2"},
            {"exponents": [1, 0], "coeff": "-1"},
            {"exponents": [0, 1], "coeff": "3/2"},
        ],
    ],
    "degrees": [3, 3, 1],
    "t": 2,
    "S": [[0, 0], [1, 0], [0, 1]],
    "T_override": {
        "0": [[0, 0]],
        "1": [[1, 0], [0, 1]],
        "2": [[2, 0], [1, 1], [0, 2]],
        "3": [[2, 1], [1, 2]],
        "4": [[2, 2]],
    },
    "roots": [{"point": ["1/2", "-1"]}],
}


# (x1 + 3/2)^3 (x1 - 2), (x2 - 1)^3 and a line whose coefficients have
# denominators 3, 2 and 5: roots (-3/2, 1) of multiplicity 9 and (2, 1) of
# multiplicity 3, dual bases left to inverse_system, S not the first k
# monomials.  The quotient is one integer determinant per matrix over the
# row and column scales of the dual values; under gmpy2 those integers come
# from int() of mpz parts.
MIXED_GRID_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [0, 0], "coeff": "-27/4"},
            {"exponents": [1, 0], "coeff": "-81/8"},
            {"exponents": [2, 0], "coeff": "-9/4"},
            {"exponents": [3, 0], "coeff": "5/2"},
            {"exponents": [4, 0], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "-1"},
            {"exponents": [0, 1], "coeff": "3"},
            {"exponents": [0, 2], "coeff": "-3"},
            {"exponents": [0, 3], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "1/3"},
            {"exponents": [1, 0], "coeff": "-7/2"},
            {"exponents": [0, 1], "coeff": "11/5"},
        ],
    ],
    "degrees": [4, 3, 1],
    "t": 4,
    "S": [[0, 0], [1, 1]],
    "T_override": {
        "0": [[0, 0]],
        "1": [[1, 0], [0, 1]],
        "2": [[2, 0], [1, 1], [0, 2]],
        "3": [[3, 0], [2, 1], [1, 2]],
        "4": [[3, 1], [2, 2]],
        "5": [[3, 2]],
    },
    "roots": [{"point": ["-3/2", "1"]}, {"point": ["2", "1"]}],
}


# (x1 - 1/3)^3, (x2 + 2/3)^2 (x2 - 1/3) and a line with thirds: roots
# (1/3, -2/3) of multiplicity 6 and (1/3, 1/3) of multiplicity 3, whose dual
# bases are left to inverse_system.  Coordinates and coefficients have
# denominators 3, 9 and 27, so the integer tables of the dual side scale
# rows by more than one denominator.
THIRDS_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [0, 0], "coeff": "-1/27"},
            {"exponents": [1, 0], "coeff": "1/3"},
            {"exponents": [2, 0], "coeff": "-1"},
            {"exponents": [3, 0], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "-4/27"},
            {"exponents": [0, 2], "coeff": "1"},
            {"exponents": [0, 3], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "1/3"},
            {"exponents": [1, 0], "coeff": "-1"},
            {"exponents": [0, 1], "coeff": "2/3"},
        ],
    ],
    "degrees": [3, 3, 1],
    "t": 3,
    "S": [[0, 0], [1, 0]],
    "T_override": GRID_SYSTEM["T_override"],
    "roots": [{"point": ["1/3", "-2/3"]}, {"point": ["1/3", "1/3"]}],
}


# (x1 - a)^2, x2 (x2 + 1) and a rational line: roots (a, 0) and (a, -1), each
# of multiplicity 2, with a parameter coordinate, so the translates, the
# integration rows and the dual Wronskian rows carry ParamPoly numerators.
# The Macaulay route gives 2 and the dual-basis route -2.
PARAM_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [2, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "-2*a"},
            {"exponents": [0, 0], "coeff": "a^2"},
        ],
        [
            {"exponents": [0, 2], "coeff": "1"},
            {"exponents": [0, 1], "coeff": "1"},
        ],
        [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [0, 1], "coeff": "2"},
        ],
    ],
    "degrees": [2, 2, 1],
    "t": 1,
    "S": [[0, 0], [1, 0]],
    "T_override": {"0": [[0, 0]], "1": [[1, 0], [0, 1]], "2": [[1, 1]]},
    "roots": [{"point": ["a", "0"]}, {"point": ["a", "-1"]}],
}

# x1^2 + a*x1*x2, x2^2 and a rational line: one root (0, 0) of multiplicity
# 4 with dual basis 1, d1, d2 and d1 d2 - a d1^2, left to inverse_system.
# Its integration kernels carry a parameter, so they run the parametric
# Gauss-Jordan elimination and exact ParamPoly division.  Both routes give
# -a.
KERNEL_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [2, 0], "coeff": "1"},
            {"exponents": [1, 1], "coeff": "a"},
        ],
        [{"exponents": [0, 2], "coeff": "1"}],
        [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [0, 1], "coeff": "2"},
        ],
    ],
    "degrees": [2, 2, 1],
    "t": 2,
    "S": [[2, 0]],
    "roots": [{"point": ["0", "0"]}],
}

# a*x1^2 + x1*x2, x2^2 and a rational line: one root (0, 0) of multiplicity
# 4, left to inverse_system.  Its canonical dual basis needs a coefficient
# 1/a, so `sres dual` refuses the point; the basis the integration finds has
# polynomial coefficients and serves the quotient.  Both routes give -1.
DIVISION_SYSTEM = {
    "n": 2,
    "variables": ["x1", "x2"],
    "polynomials": [
        [
            {"exponents": [2, 0], "coeff": "a"},
            {"exponents": [1, 1], "coeff": "1"},
        ],
        [{"exponents": [0, 2], "coeff": "1"}],
        [
            {"exponents": [0, 0], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [0, 1], "coeff": "2"},
        ],
    ],
    "degrees": [2, 2, 1],
    "t": 2,
    "S": [[2, 0]],
    "roots": [{"point": ["0", "0"]}],
}

SYSTEMS = (
    ("bundled system", BUNDLED_SYSTEM),
    ("grid system", GRID_SYSTEM),
    ("mixed grid system", MIXED_GRID_SYSTEM),
    ("thirds system", THIRDS_SYSTEM),
    ("parameter system", PARAM_SYSTEM),
    ("parameter kernel system", KERNEL_SYSTEM),
    ("parameter division system", DIVISION_SYSTEM),
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cross-check root-side subresultant formulas against determinants"
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--cases", type=int, default=50, help="number of random pairs")
    parser.add_argument(
        "--max-degree", type=int, default=6, help="degree bound for each random pair"
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    started = time.perf_counter()
    total = 0
    failures = []
    for i in range(args.cases):
        a, b = random_pair(rng, max_degree=args.max_degree)
        for check in univariate_checks(a, b):
            total += 1
            if not check.ok:
                failures.append(("pair %d: %s vs %s" % (i, a, b), check))
    symbolic = SYMBOLIC_PAIRS + (SHARED_SYMBOLIC_PAIR,)
    rational = (FINE_PAIR, COPRIME_PAIR, SHARED_RATIONAL_PAIR)
    for a_doc, b_doc in symbolic + rational:
        for check in univariate_checks(parse_rootset(a_doc), parse_rootset(b_doc)):
            total += 1
            if not check.ok:
                failures.append(("fixed pair %s vs %s" % (a_doc, b_doc), check))
    for name, doc in SYSTEMS:
        for check in mv_checks(parse_system(doc)):
            total += 1
            if not check.ok:
                failures.append((name, check))
    elapsed = time.perf_counter() - started

    print(
        "%d checks on %d random pairs + %d symbolic pairs + %d rational pairs + %d bundled "
        "systems in %.2f s"
        % (total, args.cases, len(symbolic), len(rational), len(SYSTEMS), elapsed)
    )
    for origin, check in failures:
        print("FAIL [%s] %s: %s" % (origin, check.name, check.detail), file=sys.stderr)
    if failures:
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
