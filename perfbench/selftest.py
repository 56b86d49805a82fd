"""Self-test of the benchmark: every workload at a tiny size on two seeds.

    python3 perfbench/selftest.py

For each workload and seed it makes one untraced run and two traced runs,
each with ``--tiny --seconds 0`` (the fewest passes a run makes), and checks that:

* the result line has exactly the contract's keys, every check passed and
  no operation failed;
* the metrics are exactly those named in BENCHMARK.json, with their units,
  and no end-to-end metric is 0;
* the traced run reproduces the untraced run's outputs;
* counts that must repeat do repeat: every ``calls`` count and the other
  exact counts between the two traced runs, and the wire bits per vector
  across seeds;
* each workload reaches the layers it is meant to stress and none of the
  layers it is meant to bypass.

It also checks that the benchmark fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = (1, 2)
EXACT = (
    "codec.index_bits_mean", "optimizer.feasible_ratio", "optimizer.refine_eps_per_point",
    "ingest.rows", "cli.output_bytes", "quantizers.wire_bits_per_vector", "trace.spans",
)
# Layers each workload must reach, and layers it must never reach.
REACHES = {
    "plan": ("budget.bits_real", "channel.coeffs", "channel.q_inv", "channel.epsilon",
             "optimizer.solve_blocklength", "optimizer.sweep_beta_s",
             "codec.composition_count_bits", "cli.main"),
    "transmit": ("codec.rank_composition", "codec.unrank_composition", "codec.rank_subset",
                 "codec.unrank_subset", "quantizers.encode", "quantizers.decode",
                 "quantizers.wire", "quantizers.round_to_lattice", "prob.ProbVector",
                 "ingest.load_dataset", "ingest.recommend_ktop"),
    "simulate": ("simulator.simulate_end_to_end", "simulator.source", "prob.ProbVector",
                 "prob.tv_distance", "quantizers.round_to_lattice", "quantizers.encode",
                 "quantizers.decode"),
}
BYPASSES = {
    "plan": ("quantizers.encode", "quantizers.decode", "quantizers.round_to_lattice",
             "simulator.simulate_end_to_end", "ingest.load_dataset"),
    "transmit": ("optimizer.sweep_beta_s", "optimizer.solve_blocklength", "channel.epsilon",
                 "channel.coeffs", "simulator.simulate_end_to_end"),
    "simulate": ("optimizer.sweep_beta_s", "channel.epsilon", "ingest.load_dataset", "cli.main"),
}

failures: list[str] = []


def expect(ok: bool, what: str):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result(workload: str, seed: int, trace: int, spec: dict):
    label = f"{workload} seed={seed} trace={trace}"
    done = run(workload, seed, trace)
    expect(done.returncode == 0, f"{label}: exit code {done.returncode}\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(out["correct"] is True and out["failed"] == 0, f"{label}: checks failed")
    expect(out["attempted"] >= 1, f"{label}: nothing attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    expect(got == wanted, f"{label}: metric names or units differ from BENCHMARK.json")
    if not trace:
        zero = [n for n, m in out["metrics"].items() if m["value"] == 0]
        expect(not zero, f"{label}: end-to-end metrics at 0: {zero}")
    digest = re.search(r"output digest (\w+)", done.stderr)
    values = {name: m["value"] for name, m in out["metrics"].items()}
    return values, digest.group(1) if digest else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in REACHES:
        wire_bits = set()
        for seed in SEEDS:
            _, plain_digest = result(workload, seed, 0, spec)
            first, traced_digest = result(workload, seed, 1, spec)
            second, _ = result(workload, seed, 1, spec)
            label = f"{workload} seed={seed}"
            expect(plain_digest is not None and plain_digest == traced_digest,
                   f"{label}: traced outputs differ from untraced")
            repeat = [n for n in first if n.endswith(".calls") or n in EXACT]
            changed = [n for n in repeat if first[n] != second[n]]
            expect(not changed, f"{label}: counts changed between runs: {changed}")
            missed = [n for n in REACHES[workload] if first[f"{n}.calls"] == 0]
            expect(not missed, f"{label}: layers not reached: {missed}")
            leaked = [n for n in BYPASSES[workload] if first[f"{n}.calls"] != 0]
            expect(not leaked, f"{label}: layers that should be bypassed: {leaked}")
            wire_bits.add(first["quantizers.wire_bits_per_vector"])
        expect(len(wire_bits) == 1, f"{workload}: wire bits differ across seeds: {wire_bits}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("plan", 1, 0, cwd=bare, script=bare / RUN.parent.name / RUN.name)
        expect(done.returncode != 0, "bare directory: exit code 0")
        expect('"metrics"' not in done.stdout, "bare directory: printed a result")

    print("selftest:", "FAILED" if failures else "passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
