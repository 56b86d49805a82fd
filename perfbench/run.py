"""latdist benchmark: one workload, one closed-loop caller, timed from outside.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

The package is imported from the ``src/`` of the checkout that holds this
file. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable summary goes to standard error.

A workload is a fixed list of operations built from the seed, run in
passes. ``--trace 0`` measures set-up in fresh interpreters, then runs
passes until ``--seconds`` have passed (two at least) and reports each
operation's fastest time. ``--trace 1`` runs one pass as a warm-up and
reference, then passes alternately untraced and traced until ``--seconds``
have passed, and reports per-layer numbers per traced pass. Every pass
must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
# On a shared host one CPU can stay slowed for a whole run while another is
# not, so set-up probes and timed passes rotate over the usable CPUs.
CPUS = sorted(os.sched_getaffinity(0))


def _pin(i: int):
    """Pin this process, and the processes it starts, to the i-th usable CPU, round robin."""
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


class Runner:
    """Runs passes over a workload's operations in a closed loop, timing and checking each.

    The digests of the first pass are the reference: every later pass must
    reproduce them, operation by operation.
    """

    def __init__(self, tracer=None, reference: list[str] | None = None):
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0

    def run_pass(self, ops, deadline: float = math.inf) -> list[float | None]:
        """Run ``ops`` in order, stopping early once past ``deadline``.

        Returns the time of each operation run, None where it failed.
        """
        digests, times = [], []
        for i, op in enumerate(ops):
            self.attempted += 1
            try:
                with self.tracer.op() if self.tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = op.run()
                    elapsed = time.perf_counter() - t0
                digest = op.check(out)
                if self.reference is not None and digest != self.reference[i]:
                    raise RuntimeError("output differs from the first run of the same input")
            except Exception:  # any failure counts against the run; the loop goes on
                self.failed += 1
                digest, elapsed = "failed", None
                print(f"operation failed:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                self.busy_s += elapsed
            digests.append(digest)
            times.append(elapsed)
            if time.perf_counter() >= deadline:
                break
        if self.reference is None:
            self.reference = digests
        return times


def probe(args) -> float:
    """Seconds from before ``import latdist`` to the end of the first operation."""
    t0 = time.perf_counter()
    import latdist  # noqa: F401
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny, ROOT, Path(args.probe))
    for op in wl.ops():
        op.run()
        if op.units:
            break
    return time.perf_counter() - t0


def setup_seconds(args, workdir: Path) -> float:
    """Median of fresh-interpreter set-up times, one probe process at a time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--probe", str(workdir),
    ] + (["--tiny"] if args.tiny else [])
    times = []
    for i in range(1 if args.tiny else SETUP_PROBES):
        _pin(i)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    os.sched_setaffinity(0, CPUS)
    return statistics.median(times)


def untraced(args, wl, workdir: Path) -> tuple[int, int, dict]:
    setup_s = setup_seconds(args, workdir)
    ops = wl.ops()
    runner = Runner()
    best = [math.inf] * len(ops)
    deadline = time.perf_counter() + args.seconds
    passes = 0
    # Two whole passes at least, so every input is run twice and checked
    # against its first output; then on until the deadline.
    while passes < 2 or time.perf_counter() < deadline:
        _pin(passes)
        for i, t in enumerate(runner.run_pass(ops, deadline if passes >= 2 else math.inf)):
            if t is not None:
                best[i] = min(best[i], t)
        passes += 1
    os.sched_setaffinity(0, CPUS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each operation's time is the fastest of its runs: this host's speed
    # changes by tens of percent for seconds at a time, and the fastest run
    # of an input repeats from run to run far better than any average.
    timed = [(op, t) for op, t in zip(ops, best) if t < math.inf]
    busy_s = sum(t for _, t in timed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (sum(op.units for op, _ in timed) / busy_s if busy_s else math.nan, "1/s"),
    }
    for group in ("op1", "op2"):
        ms = [t * 1e3 for op, t in timed if op.group == group]
        for q, name in ((0.5, "p50"), (0.9, "p90")):
            metrics[f"{group}_ms.{name}"] = (_percentile(ms, q) if ms else math.nan, "ms")
    print(f"{args.workload}: output digest {_digest(runner.reference)}", file=sys.stderr)
    print(
        f"{args.workload}: passes {passes}, operations per pass "
        f"op1={sum(op.group == 'op1' for op in ops)} op2={sum(op.group == 'op2' for op in ops)} "
        f"other={sum(op.group is None for op in ops)}",
        file=sys.stderr,
    )
    return runner.attempted, runner.failed, metrics


def traced(args, wl) -> tuple[int, int, dict]:
    from spans import LAYERS, Tracer

    import numpy as np

    ops = wl.ops()
    reference = Runner()
    reference.run_pass(ops)  # warms up; its outputs are the reference
    tracer = Tracer()
    plain = Runner(reference=reference.reference)
    runner = Runner(tracer, reference=reference.reference)
    calls = np.zeros(len(tracer.names))
    self_s = np.zeros(len(tracer.names))
    counters: Counter = Counter()
    replays = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        # The same pass untraced, then traced: both see the same machine
        # conditions, so the difference of their times is the tracing overhead.
        plain.run_pass(ops)
        tracer.reset()
        wl.counts.clear()
        tracer.install()
        try:
            runner.run_pass(ops)
        finally:
            tracer.uninstall()
        c, s = tracer.totals()
        calls += c
        self_s += s
        counters.update(tracer.counters)
        counters.update(wl.counts)
        replays += 1
        if time.perf_counter() >= deadline:
            break
    spans = len(tracer.name)
    trace_path = ROOT / ".perfbench-trace" / f"{args.workload}.npz"
    tracer.write(trace_path)

    attempted = reference.attempted + plain.attempted + runner.attempted
    failed = reference.failed + plain.failed + runner.failed
    print(f"{args.workload}: output digest {_digest(reference.reference)}", file=sys.stderr)

    def per_replay(x):
        return float(x) / replays

    def ratio(num, den):
        return float(num) / den if den else 0.0

    index = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (per_replay(calls[index[layer]]), "count")
        metrics[f"{layer}.self_ms"] = (per_replay(self_s[index[layer]] * 1e3), "ms")
    eps_calls = calls[index["channel.epsilon"]]
    metrics.update({
        "codec.index_bits_mean": (
            ratio(counters.get("index_bits", 0), counters.get("index_ranks", 0)), "bits"),
        "optimizer.feasible_ratio": (
            ratio(counters.get("feasible_points", 0), counters.get("points", 0)), "ratio"),
        "optimizer.refine_eps_per_point": (
            ratio(eps_calls, counters.get("refined_points", 0)), "count"),
        "simulator.self_us_per_trial": (
            ratio(self_s[index["simulator.simulate_end_to_end"]] * 1e6,
                  counters.get("trials", 0)), "us"),
        "ingest.rows": (per_replay(counters.get("rows", 0)), "count"),
        "cli.output_bytes": (per_replay(counters.get("cli_output_bytes", 0)), "bytes"),
        "quantizers.wire_bits_per_vector": (
            ratio(counters.get("wire_bits", 0), counters.get("wire_vectors", 0)), "bits"),
        "trace.overhead_s": ((runner.busy_s - plain.busy_s) / replays, "s"),
        "trace.spans": (spans, "count"),
    })
    print(
        f"{args.workload}: traced replays {replays}, pass busy time untraced "
        f"{plain.busy_s / replays:.3f} s, traced {runner.busy_s / replays:.3f} s, "
        f"spans of the last replay written to {trace_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("plan", "transmit", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the self-test")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latdist" / "__init__.py").is_file():
        print(f"error: no latdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "data" / "golden_hull.csv").is_file():
        print("error: tests/data/golden_hull.csv is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.probe:
        print(repr(probe(args)))
        return 0

    import latdist  # noqa: F401
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        wl = workloads.make(args.workload, args.seed, args.tiny, ROOT, workdir)
        wl.prepare()
        if args.trace:
            attempted, failed, metrics = traced(args, wl)
        else:
            attempted, failed, metrics = untraced(args, wl, workdir)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
