"""Span tracer installed from outside the package, one span per call into a layer.

The tracer rebinds public functions of ``latdist`` in every ``latdist.*``
namespace that holds them (a caller resolves a name in its own module, so
patching only the defining module would miss ``from .codec import ...``
users), and patches two methods on their classes. Spans are recorded only
inside an operation span opened by the benchmark, so the benchmark's own
checks never show up as layer work.

A span is (name, start, end, parent) in four flat arrays. The self time of
a span is its duration minus the durations of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _sweep_counts(counters, args, kwargs, curve):
    points = len(curve.points)
    counters["points"] += points
    counters["feasible_points"] += sum(1 for pt in curve.points if pt.feasible)
    if kwargs.get("refine"):
        counters["refined_points"] += points


def _index_bits(counters, args, kwargs, index):
    counters["index_ranks"] += 1
    counters["index_bits"] += index.bit_width


def _trials(counters, args, kwargs, report):
    counters["trials"] += report.trials


def _rows(counters, args, kwargs, dataset):
    counters["rows"] += len(dataset)


# layer -> (module, attribute) pairs that make up the layer. Each function is
# rebound wherever a latdist module holds it.
FUNCTIONS = {
    "prob.tv_distance": [("prob", "tv_distance")],
    "codec.rank_composition": [("codec", "rank_composition")],
    "codec.unrank_composition": [("codec", "unrank_composition")],
    "codec.rank_subset": [("codec", "rank_subset")],
    "codec.unrank_subset": [("codec", "unrank_subset")],
    "codec.composition_count_bits": [("codec", "composition_count_bits")],
    "quantizers.round_to_lattice": [("quantizers", "round_to_lattice")],
    "quantizers.encode": [("quantizers", f) for f in ("uq_encode", "lq_encode", "slq_encode")],
    "quantizers.decode": [("quantizers", f) for f in ("uq_decode", "lq_decode", "slq_decode")],
    "quantizers.wire": [("quantizers", "lq_payload"), ("quantizers", "lq_from_payload")],
    "channel.coeffs": [
        ("channel", f) for f in ("awgn_coeffs", "fading_csi_coeffs", "fading_nocsi_coeffs")
    ],
    "channel.q_inv": [("channel", "q_inv")],
    "channel.epsilon": [
        ("channel", f) for f in ("epsilon_awgn", "epsilon_fading_csi", "epsilon_fading_nocsi")
    ],
    "optimizer.solve_blocklength": [("optimizer", "solve_blocklength")],
    "optimizer.sweep_beta_s": [("optimizer", "sweep_beta_s")],
    "simulator.simulate_end_to_end": [("simulator", "simulate_end_to_end")],
    "simulator.source": [("simulator", "random_simplex"), ("simulator", "random_sparse_simplex")],
    "ingest.load_dataset": [("ingest", "load_dataset")],
    "ingest.recommend_ktop": [("ingest", "recommend_ktop")],
    "cli.main": [("cli", "main")],
}

# layer -> (module, class, method) patched on the class itself.
METHODS = {
    "prob.ProbVector": [("prob", "ProbVector", "__init__")],
    "budget.bits_real": [("budget", "BudgetFn", "bits_real")],
    "quantizers.wire": [
        ("quantizers", cls, meth)
        for cls in ("UQEncoding", "SLQEncoding")
        for meth in ("to_bytes", "from_bytes")
    ],
}

OBSERVERS = {
    ("optimizer", "sweep_beta_s"): _sweep_counts,
    ("codec", "rank_composition"): _index_bits,
    ("codec", "rank_subset"): _index_bits,
    ("simulator", "simulate_end_to_end"): _trials,
    ("ingest", "load_dataset"): _rows,
}

LAYERS = sorted(set(FUNCTIONS) | set(METHODS))


def _missing(modname: str, attr: str):
    # A later version of the package may merge or rename a function; its
    # layer then reads 0 calls instead of breaking the traced run.
    print(f"trace: latdist.{modname}.{attr} not found, not traced", file=sys.stderr)


class Tracer:
    """In-memory span recorder; ``install`` patches latdist, ``uninstall`` restores it."""

    def __init__(self):
        self.names = ["bench.op"] + LAYERS
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop recorded spans and counters; the installed wrappers stay valid."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def _wrap(self, fn, layer: str, observe):
        nid = self._ids[layer]
        stack, counters = self.stack, self.counters
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        latdist_modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "latdist" or key.startswith("latdist."))
        ]
        for layer, targets in FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(sys.modules[f"latdist.{modname}"], attr, None)
                if original is None:
                    _missing(modname, attr)
                    continue
                wrapper = self._wrap(original, layer, OBSERVERS.get((modname, attr)))
                for mod in latdist_modules:
                    if vars(mod).get(attr) is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for layer, targets in METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(sys.modules[f"latdist.{modname}"], clsname)
                original = cls.__dict__.get(attr)
                if original is None:
                    _missing(modname, f"{clsname}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, layer, None))
                else:
                    wrapper = self._wrap(original, layer, None)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Root span around one benchmark operation; layer spans nest under it."""
        sid = len(self.name)
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-name call counts and self seconds of the recorded spans."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(
            spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        size = len(self.names)
        calls = np.bincount(spans["name"], minlength=size)
        self_s = np.bincount(spans["name"], weights=own, minlength=size)
        return calls, self_s

    def write(self, path: Path):
        """Write the recorded spans, with the name table, as an .npz archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
