#!/usr/bin/env python3
"""Benchmark of the `sres verify` cross-check, run in-process.

    python3 perfbench/run.py --workload uni_battery --seed 1 --seconds 40 --trace 0

Each workload is one single-threaded closed-loop client: the next case
starts when the previous one has returned.  A case is one call of
`subres.cli.main(["verify", ...])` with standard output captured; it counts
as failed unless it returns 0 and prints a JSON document whose "ok" and
every check's "ok" are true.  Failed cases are never retried or dropped.

--trace 0 measures the end-to-end metrics: the loop runs for --seconds
(and at least over the first block, whose outputs are hashed), and set-up
time is the median of several fresh interpreters importing subres and
building the CLI parser.  Every time is scaled to a reference machine speed
with the calibration kernel of calibrate.py; the unscaled figures are
printed on the first output line.

--trace 1 measures the per-layer metrics: the first block runs untraced,
then again with spans and counters installed (see spans.py), which gives
per-layer figures with counts that repeat exactly.  Further rounds on the
following blocks, untraced then traced, refine the tracing overhead while
another round fits in --seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 7
WARMUP_CASES = 3
CALIBRATE_EVERY = 0.1
# Fixed, so a faster or slower commit is compared on the same percentile.
# p90 leaves at least ten cases beyond it on every workload, and it falls
# where case costs are dense; higher percentiles land on the edge of the
# few heaviest shapes and move by 30% between seeds.
TAIL_PERCENTILE = 90

SETUP_CODE = (
    "import sys, subres.cli; "
    "sys.exit(0 if subres.cli.main(['verify']) == 2 else 1)"
)


def run_case(cli_main, argv):
    """One closed-loop case: (seconds, failure reason or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli_main(argv)
    except SystemExit as ex:
        status = "SystemExit(%r)" % (ex.code,)
    except Exception as ex:  # a crash is a failed case, not a benchmark error
        status = "%s: %s" % (type(ex).__name__, ex)
    elapsed = time.perf_counter() - started
    text = out.getvalue()
    return elapsed, gate(status, text, err.getvalue()), text


def gate(status, text: str, stderr: str):
    if status != 0:
        return "exit status %s %s" % (status, stderr.strip()[:200])
    try:
        doc = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return "verify reports ok = %r" % (doc.get("ok") if isinstance(doc, dict) else doc,)
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks or not all(
        isinstance(c, dict) and c.get("ok") is True for c in checks
    ):
        return "check records missing or not all ok"
    return None


class Pass:
    """Latencies, failures and output digest of a run of cases.

    Latencies are kept raw and scaled to reference speed: every
    CALIBRATE_EVERY seconds the calibration kernel runs between two cases,
    and the cases since the previous calibration are scaled by the mean of
    the two kernel times around them.
    """

    def __init__(self, digest_cases=None):
        self.latencies = []
        self.scaled = []
        self.failures = []
        self.digest = hashlib.sha256()
        self.digest_cases = digest_cases
        self._kernel_s = [calibrate.sample()]
        self._since = time.perf_counter()

    def run(self, cli_main, cases):
        for argv in cases:
            self.add(*run_case(cli_main, argv))
        self.finish()

    def add(self, elapsed, failure, text):
        self.latencies.append(elapsed)
        if failure is not None:
            self.failures.append(failure)
        if self.digest_cases is None or len(self.latencies) <= self.digest_cases:
            self.digest.update(text.encode())
            self.digest.update(b"\0")
        if time.perf_counter() - self._since >= CALIBRATE_EVERY:
            self._calibrate()

    def finish(self):
        if len(self.scaled) < len(self.latencies):
            self._calibrate()

    def _calibrate(self):
        kernel_s = calibrate.sample()
        factor = calibrate.REFERENCE_S / ((self._kernel_s[-1] + kernel_s) / 2)
        self.scaled += [v * factor for v in self.latencies[len(self.scaled):]]
        self._kernel_s.append(kernel_s)
        self._since = time.perf_counter()

    @property
    def speed(self) -> float:
        """Median machine speed relative to the reference during the pass."""
        return calibrate.REFERENCE_S / statistics.median(self._kernel_s)


def measure_setup():
    """Median set-up time of fresh interpreters, raw and scaled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    raw, scaled = [], []
    before = calibrate.sample()
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError("set-up interpreter exited with %d" % proc.returncode)
        after = calibrate.sample()
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def nearest_rank(sorted_values, percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def metadata(args) -> dict:
    from subres.scalar import Rat

    backend = type(Rat(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "warmup_seed": "%d-warmup" % args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
    }


def take(stream, n):
    return [next(stream) for _ in range(n)]


def end_to_end(args, cli_main, stream, block_len):
    setup_raw, setup_s = measure_setup()
    cases = Pass(digest_cases=block_len)
    deadline = time.perf_counter() + args.seconds
    while len(cases.latencies) < block_len or time.perf_counter() < deadline:
        cases.add(*run_case(cli_main, next(stream)))
    cases.finish()

    attempted = len(cases.latencies)
    completed = attempted - len(cases.failures)
    pct = TAIL_PERCENTILE
    scaled = sorted(cases.scaled)
    tail = nearest_rank(scaled, pct)
    raw = sorted(cases.latencies)
    metrics = {
        "cases_per_s": completed / sum(scaled),
        "case_p50_ms": 1e3 * statistics.median(scaled),
        "case_tail_ms": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "cases": attempted,
        "fail_ratio": {"value": len(cases.failures) / attempted, "unit": "share"},
        "case_tail": "p%d of %d cases, %d beyond it"
        % (pct, attempted, sum(1 for v in scaled if v > tail)),
        "output_sha256": cases.digest.hexdigest(),
        "digest_cases": block_len,
        "speed_vs_reference": cases.speed,
        "unscaled": {
            "cases_per_s": completed / sum(raw),
            "case_p50_ms": 1e3 * statistics.median(raw),
            "case_tail_ms": 1e3 * nearest_rank(raw, pct),
            "setup_s": setup_raw,
        },
    }
    return metrics, attempted, cases.failures, info


def per_layer(args, cli_main, stream, block_len):
    from spans import Tracer

    started = time.perf_counter()
    rounds = []
    failures = []
    attempted = 0
    layers = None
    info = None
    round_s = 0.0
    # A round is not started when it would end past --seconds.
    while not rounds or time.perf_counter() - started + round_s <= args.seconds:
        round_started = time.perf_counter()
        block = take(stream, block_len)
        plain = Pass()
        plain.run(cli_main, block)
        tracer = Tracer()
        tracer.install()
        traced = Pass()
        try:
            for i, argv in enumerate(block):
                tracer.case = i
                idx = tracer.open("case")
                try:
                    result = run_case(cli_main, argv)
                finally:
                    tracer.close(idx)
                traced.add(*result)
        finally:
            tracer.uninstall()
        traced.finish()
        rounds.append((sum(plain.scaled), sum(traced.scaled)))
        attempted += 2 * len(block)
        failures += plain.failures + traced.failures
        if layers is None:
            layers = tracer.layer_metrics(
                [v / raw for v, raw in zip(traced.scaled, traced.latencies)]
            )
            info = {
                "layer_block_cases": block_len,
                "output_sha256": plain.digest.hexdigest(),
                "digest_cases": block_len,
                "missing_hooks": tracer.missing,
                "traced_outputs_identical": True,
            }
        if plain.digest.digest() != traced.digest.digest():
            info["traced_outputs_identical"] = False
        round_s = time.perf_counter() - round_started
    layers["trace.overhead_ratio"] = sum(p for p, _ in rounds) / sum(t for _, t in rounds)
    info["rounds"] = len(rounds)
    return layers, attempted, failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subres" / "__init__.py").is_file():
        print("error: no subres package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from subres.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; pick one of %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    make_stream, block_len = workloads.WORKLOADS[args.workload]
    for case in take(make_stream(random.Random("%d-warmup" % args.seed)), WARMUP_CASES):
        run_case(cli_main, case)
    stream = make_stream(random.Random(args.seed))

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, info = measure(args, cli_main, stream, block_len)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print(json.dumps({"run": metadata(args), **info}))
    for reason in sorted(set(failures)):
        print("failed: %s" % reason)
    table = [(name, metrics[name], unit) for name, unit in units.items()]
    if "fail_ratio" in info:
        table.append(("fail_ratio", info["fail_ratio"]["value"], info["fail_ratio"]["unit"]))
    for name, value, unit in table:
        print("%-30s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures and info.get("traced_outputs_identical", True),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
