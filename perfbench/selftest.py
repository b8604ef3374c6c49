#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on a few cases through run.main, untraced and traced,
and checks that:

- the last output line names every metric of BENCHMARK.json with its unit;
- every traced function is still found where spans.py expects it;
- two traced runs give identical counts and identical output digests;
- the battery generator draws the same root sets as
  subres.verify.random_rootset.

Exits 1 and names the failing check otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import run
import workloads

SMOKE_CASES = 4
# Counts that must repeat exactly between two traced runs of one block.
DETERMINISTIC_COUNTS = (
    "det.rat.calls",
    "det.pp.calls",
    "det.elim_steps",
    "pp.div.calls",
    "verify.checks",
    "inverse_system.orders",
)


def run_main(argv, problems):
    """First and last output lines of run.main, as JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv)
    if status != 0:
        problems.append("%s: exit status %d" % (" ".join(argv), status))
    lines = out.getvalue().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def check_units(result, declared, label, problems):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append("%s: metrics %s, BENCHMARK.json declares %s" % (label, got, want))
    if not result["correct"] or result["failed"]:
        problems.append("%s: %d failed cases" % (label, result["failed"]))


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, str(run.SRC))
    from subres.verify import random_rootset

    problems = []
    for name, (make, _) in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = (make, SMOKE_CASES)
        base = ["--workload", name, "--seed", "0", "--seconds", "0"]

        _, result = run_main(base + ["--trace", "0"], problems)
        check_units(result, bench["end_to_end"], name + " untraced", problems)

        traced = [run_main(base + ["--trace", "1"], problems) for _ in range(2)]
        for info, result in traced:
            check_units(result, bench["per_layer"], name + " traced", problems)
            if info["missing_hooks"]:
                problems.append("%s: traced functions not found: %s" % (name, info["missing_hooks"]))
        (info1, res1), (info2, res2) = traced
        for key in DETERMINISTIC_COUNTS:
            a, b = res1["metrics"][key]["value"], res2["metrics"][key]["value"]
            if a != b:
                problems.append("%s: %s differs between traced runs (%s, %s)" % (name, key, a, b))
        if info1["output_sha256"] != info2["output_sha256"]:
            problems.append("%s: output digests differ between traced runs" % name)

    for seed in range(5):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        for degree in range(1, 7):
            mine = workloads.random_rootset(rng_a, degree)
            theirs = [(r, m) for r, m in random_rootset(rng_b, degree)]
            if mine != theirs:
                problems.append("battery roots differ from subres.verify.random_rootset")

    for problem in problems:
        print("FAIL", problem)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
