"""The three benchmark workloads: inputs drawn from a seed, operations, and checks.

A workload is a fixed list of operations built from the seed, which the
benchmark runs in passes. Each operation has a ``run`` step, the calls into
latdist that the benchmark times, and a ``check`` step that verifies the
output untimed and returns a digest of it. Operations call latdist through
its module attributes at call time, so the tracer's rebinding reaches them.

op1 and op2 name the two homogeneous groups whose latency percentiles the
benchmark reports; each workload says what they are.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import latdist as ld
import latdist.cli
import latdist.quantizers


class CheckFailed(Exception):
    """An operation's output broke a property the benchmark checks."""


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], str]
    group: str | None  # "op1", "op2", or None for operations outside both groups
    units: int  # grid points, vectors or trials completed


class Workload:
    """A list of operations; ``counts`` collects exact counts made by the checks."""

    def __init__(self):
        self.counts: Counter = Counter()

    def prepare(self):
        """Write any input files; run once per benchmark process, before set-up probes."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# plan: the planner's sweep over the distortion split


_FAMILIES = (
    # family, reference SNR range in dB; the no-CSI model needs high SNR
    (ld.ChannelFamily.AWGN, (0.0, 20.0)),
    (ld.ChannelFamily.FADING_CSI, (0.0, 20.0)),
    (ld.ChannelFamily.FADING_NOCSI, (20.0, 30.0)),
)
_CODERS = (
    (ld.Scheme.UQ, 100, None),
    (ld.Scheme.LQ, 100, None),
    (ld.Scheme.SLQ, 1000, 10),
)
_EPSILON = {
    ld.ChannelFamily.AWGN: lambda n, spec, j: ld.epsilon_awgn(n, spec.gamma, j),
    ld.ChannelFamily.FADING_CSI: lambda n, spec, j: ld.epsilon_fading_csi(
        n, spec.gamma, j, spec.coherence
    ),
    ld.ChannelFamily.FADING_NOCSI: lambda n, spec, j: ld.epsilon_fading_nocsi(
        n, spec.gamma, j, spec.coherence
    ),
}
GOLDEN_HULL_ARGS = [
    "hull", "--scheme", "slq", "-k", "50", "--k-top", "5",
    "--gamma0-db", "5", "--b-hz", "320000", "--beta-t", "lin:0.05:0.3:6",
    "--grid-points", "150",
]
_GOLDEN_HULL_POINTS = 6 * 150


class Plan(Workload):
    """3 channel families x 3 coders x 25 beta_t on lin:0.02:0.5, then the golden hull.

    Each beta_t step sweeps every family once, with the coders rotating so
    that every three steps cover all nine (family, coder) pairs: 75 sweeps.
    op1 is a closed-form sweep and op2 a refined one: every third step is
    refined, so 27 sweeps, three per pair, evaluate the exact epsilon many
    times. The list ends with the golden hull config run through
    ``latdist.cli.main``.
    """

    def __init__(self, seed: int, tiny: bool, root: Path):
        super().__init__()
        self.seed = seed
        self.grid_points = 50 if tiny else 1000
        self.beta_ts = np.linspace(0.02, 0.5, 3 if tiny else 25)
        self.golden = (root / "tests" / "data" / "golden_hull.csv").read_text()

    def ops(self) -> list[Op]:
        # Every sweep gets its own SNR. The seed picks a start point per pair and
        # successive sweeps step through the SNR range by the golden ratio, so
        # the list covers the range evenly and its cost hardly depends on the
        # seed.
        starts = np.random.default_rng([self.seed, 0]).uniform(size=9)
        ops = []
        for step, beta_t in enumerate(self.beta_ts):
            refine = step % 3 == 0
            for f, (family, (lo, hi)) in enumerate(_FAMILIES):
                coder = (step + step // 3 + f) % 3
                scheme, k, k_top = _CODERS[coder]
                c = 3 * f + coder
                gamma0_db = lo + (hi - lo) * ((starts[c] + step * 0.6180339887498949) % 1.0)
                coherence = None if f == 0 else (10, 20, 40)[(step + c) % 3]
                ops.append(Op(
                    run=self._sweep(
                        float(beta_t), (family, gamma0_db, coherence, scheme, k, k_top), refine
                    ),
                    check=self._check_sweep,
                    group="op2" if refine else "op1",
                    units=self.grid_points,
                ))
        ops.append(Op(run=self._hull, check=self._check_hull, group=None,
                      units=_GOLDEN_HULL_POINTS))
        return ops

    def _sweep(self, beta_t, params, refine):
        family, gamma0_db, coherence, scheme, k, k_top = params

        def run():
            spec = ld.ChannelSpec(family, ld.db_to_linear(gamma0_db), 1e4, 3.2e5, coherence)
            budget = ld.BudgetFn(scheme, k, k_top, 1e-5 if k_top else 0.0)
            curve = ld.sweep_beta_s(
                beta_t, budget, spec, grid_points=self.grid_points, refine=refine
            )
            return spec, curve

        return run

    @staticmethod
    def _check_sweep(out) -> str:
        spec, curve = out
        exact = _EPSILON[spec.family]
        feasible = [pt for pt in curve.points if pt.feasible]
        _require(any(pt is curve.best for pt in feasible), "sweep returned no feasible best point")
        for pt in feasible:
            eps = exact(pt.n, spec, pt.j_bits)
            _require(
                eps <= pt.eps_target * (1 + 1e-9),
                f"exact eps {eps} above target {pt.eps_target} at n={pt.n}",
            )
        return _digest(
            [(pt.n, pt.j_bits, pt.feasible) for pt in curve.points],
            curve.best.beta_s,
            curve.best.n,
        )

    @staticmethod
    def _hull():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = latdist.cli.main(GOLDEN_HULL_ARGS)
        return code, out.getvalue()

    def _check_hull(self, out) -> str:
        code, text = out
        _require(code == 0, f"hull exited {code}")
        _require(text == self.golden, "hull output differs from tests/data/golden_hull.csv")
        self.counts["cli_output_bytes"] += len(text.encode())
        return _digest(text)


# ---------------------------------------------------------------------------
# transmit: encode to bytes and decode from bytes, two alternating streams

_LQ_K, _LQ_BETA_S = 100, 0.05
_SLQ_K, _SLQ_BETA_S, _DELTA = 1000, 0.05, 0.01


def _cifar_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Softmax of Gaussian logits with one boosted class, k=100."""
    logits = rng.normal(size=(n, _LQ_K))
    logits[np.arange(n), rng.integers(_LQ_K, size=n)] += rng.uniform(2.0, 8.0, size=n)
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def _imagenet_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """k=1000 vectors with ten heavy classes and a tail of mass below 0.003.

    The heavy classes are Dirichlet(4) shares, so dropping the smallest of
    them discards far more than the 0.01 target: the recommended k_top is
    10 for every seed.
    """
    out = np.empty((n, _SLQ_K))
    for row in out:
        tail = rng.uniform(0.0005, 0.003)
        weights = rng.standard_exponential(_SLQ_K)
        row[:] = tail * weights / weights.sum()
        heavy = rng.choice(_SLQ_K, 10, replace=False)
        row[heavy] = (1.0 - tail) * rng.dirichlet(np.full(10, 4.0))
    return out


class Transmit(Workload):
    """CIFAR-100-like vectors sent with LQ (op1), ImageNet-like with SLQ (op2).

    The list first re-reads both JSONL files through load_dataset and takes
    k_top from recommend_ktop, then alternates the two streams vector by
    vector.
    """

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__()
        self.seed = seed
        self.n = 8 if tiny else 128
        self.lq_path = workdir / "cifar_like.jsonl"
        self.slq_path = workdir / "imagenet_like.jsonl"
        self.lq_ell = ld.budget_lq(_LQ_K, _LQ_BETA_S)[0]
        self.lq_data = self.slq_data = None
        self.k_top = self.slq_ell = None

    def ops(self) -> list[Op]:
        ops = [Op(run=self._ingest, check=self._check_ingest, group=None, units=0)]
        for i in range(self.n):
            ops.append(Op(run=self._lq(i), check=self._check_lq, group="op1", units=1))
            ops.append(Op(run=self._slq(i), check=self._check_slq, group="op2", units=1))
        return ops

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        for path, rows in (
            (self.lq_path, _cifar_like(rng, self.n)),
            (self.slq_path, _imagenet_like(rng, self.n)),
        ):
            path.write_text("".join(json.dumps(row.tolist()) + "\n" for row in rows))

    def _ingest(self):
        self.lq_data = ld.load_dataset(self.lq_path)
        self.slq_data = ld.load_dataset(self.slq_path)
        rec = ld.recommend_ktop(self.slq_data, _DELTA)
        self.k_top = rec.k_top
        self.slq_ell = ld.budget_slq(_SLQ_K, self.k_top, _DELTA, _SLQ_BETA_S)[0]
        return rec

    def _check_ingest(self, rec) -> str:
        _require(len(self.lq_data) == len(self.slq_data) == self.n, "dataset row count")
        _require(rec.satisfied and rec.k_top == 10, f"recommended k_top {rec.k_top}")
        return _digest(self.lq_data.matrix.tobytes(), self.slq_data.matrix.tobytes(), rec)

    def _lq(self, i: int):
        def run():
            p = self.lq_data.vectors[i]
            point = ld.lq_encode(p, self.lq_ell)
            payload = latdist.quantizers.lq_payload(point)
            back = latdist.quantizers.lq_from_payload(payload, _LQ_K, self.lq_ell)
            return p, point, payload, ld.lq_decode(back)

        return run

    def _count_wire(self, payload: bytes):
        self.counts["wire_bits"] += 8 * len(payload)
        self.counts["wire_vectors"] += 1

    def _check_lq(self, out) -> str:
        p, point, payload, received = out
        _require(received == ld.lq_decode(point), "LQ decode from bytes differs")
        tv = ld.tv_distance(p, received)
        _require(tv <= _LQ_K / (4 * self.lq_ell), f"LQ distortion {tv}")
        self._count_wire(payload)
        return _digest(payload, received.values.tobytes())

    def _slq(self, i: int):
        def run():
            p = self.slq_data.vectors[i]
            enc = ld.slq_encode(p, self.k_top, self.slq_ell)
            payload = enc.to_bytes()
            back = ld.SLQEncoding.from_bytes(payload, _SLQ_K, self.k_top, self.slq_ell)
            return p, enc, payload, ld.slq_decode(back)

        return run

    def _check_slq(self, out) -> str:
        p, enc, payload, received = out
        _require(received == ld.slq_decode(enc), "SLQ decode from bytes differs")
        tail = 1.0 - float(p.values[list(enc.positions.indices)].sum())
        tv = ld.tv_distance(p, received)
        _require(tv <= (_SLQ_BETA_S - _DELTA) + tail, f"SLQ distortion {tv}, tail {tail}")
        self._count_wire(payload)
        return _digest(payload, received.values.tobytes())


# ---------------------------------------------------------------------------
# simulate: batched Monte Carlo validation of the distortion bound

_SIM_CONFIGS = (
    # op1: the README reference, LQ k=8
    dict(error_model=ld.ErrorModel.UNIFORM_INDEX, scheme=ld.Scheme.LQ, k=8,
         beta_s=0.1, eps_target=0.2),
    # op2: SLQ k=100, k_top=5
    dict(error_model=ld.ErrorModel.UNIFORM_INDEX, scheme=ld.Scheme.SLQ, k=100,
         beta_s=0.05, eps_target=0.1, k_top=5, delta=1e-3),
    # throughput only: UQ k=20 with adversarial-vertex errors
    dict(error_model=ld.ErrorModel.ADVERSARIAL_VERTEX, scheme=ld.Scheme.UQ, k=20,
         beta_s=0.1, eps_target=0.05),
)


class Simulate(Workload):
    """Small simulate_end_to_end batches, interleaving the three configs.

    op1 is an LQ k=8 batch and op2 an SLQ k=100 batch; the UQ batches count
    toward throughput only. Every batch has its own simulation seed.
    """

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        self.seed = seed
        self.trials = 5 if tiny else 25
        self.batches = 2 if tiny else 100

    def ops(self) -> list[Op]:
        return [
            Op(run=self._batch(i, c), check=self._check_report,
               group=("op1", "op2", None)[c], units=self.trials)
            for i in range(self.batches)
            for c in range(len(_SIM_CONFIGS))
        ]

    def _batch(self, i: int, c: int):
        sim_seed = int(np.random.SeedSequence([self.seed, i, c]).generate_state(1)[0])
        cfg = ld.SimConfig(trials=self.trials, seed=sim_seed, **_SIM_CONFIGS[c])
        return lambda: ld.simulate_end_to_end(cfg)

    @staticmethod
    def _check_report(report) -> str:
        _require(report.violations == 0, f"{report.violations} distortions above 1")
        _require(
            report.empirical_mean_distortion <= report.bound + 3.0 * report.std_error,
            f"mean {report.empirical_mean_distortion} above bound {report.bound}",
        )
        return _digest(report.to_json())


def make(name: str, seed: int, tiny: bool, root: Path, workdir: Path):
    if name == "plan":
        return Plan(seed, tiny, root)
    if name == "transmit":
        return Transmit(seed, tiny, workdir)
    if name == "simulate":
        return Simulate(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

