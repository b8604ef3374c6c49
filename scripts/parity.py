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
- the five bundled systems.  On each: ``verify``, ``mv`` on both routes,
  and ``dual`` at each root;
- ``verify`` on the first bundled system with two of its dual functionals
  at (0, 0) replaced, so that the annihilation record and the quotient
  record fail (exit 1).
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

from run_crosschecks import BUNDLED_SYSTEM, FINE_PAIR, SYMBOLIC_PAIRS, SYSTEMS
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
    calls += [call for _, doc in SYSTEMS for call in system_calls(doc)]
    return calls + [["verify", "--system", json.dumps(BROKEN_DUAL_SYSTEM)]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="digest the outputs of a fixed set of sres calls")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="seeds of the random pairs")
    calls = calls_for(parser.parse_args(argv).seeds)
    digest = hashlib.sha256()
    internal = []
    for call in calls:
        result = run(call)
        digest.update(json.dumps(result).encode("utf-8") + b"\n")
        if result[1] == 4:
            internal.append(call)
    print("%d calls, sha256 %s" % (len(calls), digest.hexdigest()))
    for call in internal:
        print("internal error (exit 4): sres %s" % " ".join(call), file=sys.stderr)
    return 1 if internal else 0


if __name__ == "__main__":
    sys.exit(main())
