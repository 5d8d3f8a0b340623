#!/usr/bin/env python3
"""Benchmark for ripshadow: seeded closed-loop workloads with exact checks.

    python3 perfbench/run.py --workload shadow_cert --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and nothing is installed.  One client issues requests in a closed
loop (the next starts when the previous returns), in one process with no
threads.  Requests come in blocks that each hold the workload's full mix
of request costs, and a run executes whole blocks only.

`--trace 0` measures the end-to-end metrics.  The run executes whole
blocks until `--seconds` have passed, and at least until the tail
percentile has ten samples beyond it.  Times are wall times scaled to a
reference host speed measured between requests (perfbench/hostspeed.py),
so that the host's drift in speed does not read as a change of the
program; the raw wall-time median is printed beside them.

  setup_s         median of seven set-ups, each a fresh import of the
                  package and request preparation (for loop_queries:
                  building every set's Rips complex and shadow); the
                  inputs are generated before the clock starts
  request_p50_s   median time per request
  request_tail_s  a fixed percentile per workload, fixed so that a
                  faster program is not scored at a higher percentile;
                  a run extends to whole blocks until at least ten
                  samples lie beyond it, and the output states the
                  percentile and the samples beyond it
  throughput_rps  requests completed per second of timed request time
                  (closed loop, one client)
  peak_rss_mb     ru_maxrss of this process
  failed_frac     failed / attempted requests.  It is printed but not in
                  the JSON metrics, being 0 on every correct run; the
                  JSON's `failed` and `attempted` carry it.

`--trace 1` runs each request untraced and then traced, and prints the
per-layer metrics of perfbench/tracing.py plus the tracing overhead
(traced minus untraced median wall time per request).  Spans are written to
perfbench/work/.

Every request is checked; any failure makes `correct` false and the exit
code 1.  `--requests N` stops after N requests, so that `reports_sha256`
(all reports, in request order) can be compared between processes, hash
seeds or commits.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory of a run, so that file names the
# program copies into its reports do not depend on where the checkout is.
WORK = HERE.relative_to(ROOT) / "work"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
BEYOND = 10  # samples a tail percentile must leave above it


def tail(samples, pct: Fraction):
    """Nearest-rank percentile: (value, samples beyond it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_samples(pct: Fraction) -> int:
    """Fewest samples for which the pct percentile has BEYOND above it."""
    n = BEYOND + 1
    while n - math.ceil(pct * n) < BEYOND:
        n += 1
    return n


def import_program():
    """Import ripshadow afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "ripshadow" or m.startswith("ripshadow.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ripshadow")
    importlib.import_module("ripshadow.cli")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"ripshadow was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload, inputs, seed: int):
    """Import the program and prepare the requests: (seconds, package,
    blocks of requests), the seconds scaled to the reference host speed."""
    before = hostspeed.calibrate()
    start = time.perf_counter()
    pkg = import_program()
    workdir = WORK / f"{workload.name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    blocks = workload.prepare(pkg, inputs, workdir)
    wall = time.perf_counter() - start
    return hostspeed.normalise([wall], [0], [before, hostspeed.calibrate()])[0], pkg, blocks


def inputs_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def execute(workload, pkg, req):
    """Time one request and check it: (seconds, report bytes, error or None)."""
    start = time.perf_counter()
    try:
        out = workload.execute(pkg, req)
    except Exception as exc:  # a failed request is counted; the run goes on
        return time.perf_counter() - start, b"failed", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        error = workload.check(req, out)
    except (KeyError, TypeError, ValueError) as exc:
        error = f"malformed output: {exc}"
    return elapsed, workload.report(req, out, error), error


def whole_blocks(blocks, seconds: float, min_blocks: int):
    """Requests of whole blocks, until `seconds` have passed and at least
    `min_blocks` blocks ran; the pool of blocks is cycled if it runs out."""
    start = time.perf_counter()
    n = 0
    while n < min_blocks or time.perf_counter() - start < seconds:
        yield from blocks[n % len(blocks)]
        n += 1


class Result:
    def __init__(self):
        self.times = []  # wall seconds per request
        self.reports = []
        self.failures = []

    def record(self, elapsed: float, report: bytes, error) -> None:
        self.times.append(elapsed)
        self.reports.append(report)
        if error:
            self.failures.append(error)

    def digest(self) -> str:
        return hashlib.sha256(b"".join(r + b"\n" for r in self.reports)).hexdigest()


def requests_for(blocks, seconds: float, min_blocks: int, max_requests: int):
    reqs = whole_blocks(blocks, seconds, min_blocks)
    return itertools.islice(reqs, max_requests) if max_requests else reqs


def timed_run(workload, pkg, blocks, seconds: float, max_requests: int):
    """The end-to-end phase, every request untraced: (result, timeline)."""
    res, timeline = Result(), hostspeed.Timeline()
    min_blocks = 1 if max_requests else math.ceil(min_samples(workload.tail_pct) / len(blocks[0]))
    for req in requests_for(blocks, seconds, min_blocks, max_requests):
        timeline.before_request()
        res.record(*execute(workload, pkg, req))
        timeline.record(res.times[-1])
    return res, timeline


def traced_run(workload, pkg, blocks, seconds: float, max_requests: int, tracer):
    """Each request run untraced, then traced: (untraced, traced)."""
    plain, traced = Result(), Result()
    for rid, req in enumerate(requests_for(blocks, seconds, 1, max_requests)):
        plain.record(*execute(workload, pkg, req))
        with tracer.request(rid):
            elapsed, report, error = execute(workload, pkg, req)
        traced.record(elapsed, report, error)
        if req.kind == "loop":
            tracer.counts["requests.loop"] += 1
        if req.kind == "cli" and not error:
            tracer.counts["cli.report_bytes"] += len(report)
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, setup_times, res: Result, times):
    """End-to-end metrics from the set-up times and the requests' scaled
    `times`; res.times are the same requests' wall times."""
    n = len(times)
    ok = n - len(res.failures)
    tail_value, beyond = tail(times, workload.tail_pct)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "request_p50_s": {"value": statistics.median(times), "unit": "s"},
        "request_tail_s": {"value": tail_value, "unit": "s"},
        "throughput_rps": {"value": ok / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    pct = float(workload.tail_pct * 100)
    notes = {
        "setup_s": f"median of {len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times),
        "request_p50_s": f"{n} requests; wall-time median {statistics.median(res.times):.6g} s",
        "request_tail_s": f"p{pct:.4g} of {n} requests, {beyond} beyond it",
        "throughput_rps": "closed loop, one client",
    }
    lines = [f"{k:16s}{m['value']:.6g} {m['unit']}   {notes.get(k, '')}" for k, m in metrics.items()]
    lines.append(f"failed_frac     {len(res.failures) / n:g}   ({len(res.failures)} failed of {n})")
    return lines, metrics


def per_layer(tracer, plain: Result, traced: Result):
    overhead = statistics.median(traced.times) - statistics.median(plain.times)
    n = len(traced.times)
    loops = tracer.counts["requests.loop"]
    metrics = tracing.per_layer_metrics(tracer, n, loops, overhead)
    builds = tracer.counts["homology.boundary_matrix.calls"]
    lines = [
        f"averaged per traced request ({n}); repeat_ratio base: {builds} boundary_matrix "
        f"builds; calls_per_loop_query base: {loops} loop queries",
    ]
    lines += [f"{name:50s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"tracing overhead: traced p50 {statistics.median(traced.times):.6f} s - "
        f"untraced p50 {statistics.median(plain.times):.6f} s = {overhead:.6f} s"
    )
    return lines, metrics


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--requests", str(args.requests)]
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0, help="stop after N requests (0: no cap)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)

    inputs = workload.generate(args.seed)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            pkg = blocks = None  # free the previous set-up's data first,
            gc.collect()  # so that peak_rss_mb holds one copy of it
            elapsed, pkg, blocks = set_up(workload, inputs, args.seed)
            setup_times.append(elapsed)
    except ImportError as exc:
        print(f"error: cannot import ripshadow from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = traced_run(workload, pkg, blocks, args.seconds, args.requests, tracer)
        lines, metrics = per_layer(tracer, plain, traced)
        spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        lines.append(f"{len(tracer.spans)} spans written to {spans}")
        results = [plain, traced]
    else:
        plain, timeline = timed_run(workload, pkg, blocks, args.seconds, args.requests)
        lines, metrics = end_to_end(workload, setup_times, plain, timeline.finish())
        cal = timeline.calibrations
        lines.append(
            f"host speed: {len(cal)} calibrations, {min(cal) * 1000:.2f}-{max(cal) * 1000:.2f} ms "
            f"(median {statistics.median(cal) * 1000:.2f} ms; reference {hostspeed.REF_S * 1000:g} ms)"
        )
        results = [plain]
    n = len(plain.times)
    print(f"workload {workload.name}, seed {args.seed}: {n} requests "
          f"({math.ceil(n / len(blocks[0]))} blocks of {len(blocks[0])})")
    print(f"inputs_sha256  {inputs_digest(inputs)}")
    print(f"reports_sha256 {plain.digest()}   ({n} reports in request order)")
    for line in lines:
        print(line)
    failures = [f for r in results for f in r.failures]
    for f in sorted(set(failures)):
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(r.times) for r in results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
