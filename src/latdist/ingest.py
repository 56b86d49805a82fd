"""Load externally produced probability vectors and pick a retention size.

Datasets are newline-delimited JSON arrays or delimited numeric rows, one
vector per line. Rows are renormalized on load to absorb rounding from
upstream softmax outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParseError, RaggedRows
from .prob import ProbVector


@dataclass(frozen=True)
class VectorDataset:
    """Probability vectors of a common dimension, with a provenance label."""

    vectors: tuple[ProbVector, ...]
    source_label: str = ""

    def __post_init__(self):
        if not self.vectors:
            raise ParseError("dataset is empty")
        k = self.vectors[0].k
        if any(v.k != k for v in self.vectors):
            raise RaggedRows("vectors have differing dimensions")

    @property
    def k(self) -> int:
        return self.vectors[0].k

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def matrix(self) -> np.ndarray:
        out = np.stack([v.values for v in self.vectors])
        out.flags.writeable = False
        return out


# The types json.loads gives a JSON number.
_NUMBERS = {int, float}


def _parse_jsonl(lines: list[str], path: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, list):
            raise ParseError(f"{path}:{lineno}: expected a JSON array")
        if not set(map(type, row)) <= _NUMBERS:  # bool, a subclass of int, is refused
            bad = next(x for x in row if type(x) not in _NUMBERS)
            raise ParseError(f"{path}:{lineno}: expected numbers, got {json.dumps(bad)}")
        rows.append(row)
    return rows


def _parse_delimited(lines: list[str], path: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(lines, 1):
        fields = line.split(",") if "," in line else line.split()
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
    return rows


def load_dataset(path: str | Path) -> VectorDataset:
    """Read one probability vector per line; rows are validated and renormalized.

    A .jsonl or .json file holds JSON arrays and a .csv, .txt or .tsv file
    delimited rows; any other file is JSON when its first data line starts
    with "[". The dataset is labelled with the file name.
    """
    path = Path(path)
    text = path.read_text()
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    delimited = path.suffix in (".csv", ".txt", ".tsv")
    jsonl = path.suffix in (".jsonl", ".json") or (not delimited and lines[0].startswith("["))
    rows = (_parse_jsonl if jsonl else _parse_delimited)(lines, str(path))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise RaggedRows(f"{path}: rows have differing lengths")
    vectors = tuple(ProbVector(r, normalize=True) for r in rows)
    return VectorDataset(vectors, path.name)


class TopMassCurve(NamedTuple):
    """Average retained and discarded mass as the retention size grows."""

    k_top_values: tuple[int, ...]
    avg_top_mass: np.ndarray
    delta_avg: np.ndarray


def top_mass_curve(ds: VectorDataset, k_top_values: Sequence[int] | None = None) -> TopMassCurve:
    """Average mass of the k_top largest entries, for each requested k_top.

    The discarded mass is computed directly from the smallest entries, so
    it is exactly zero at k_top = k.
    """
    k = ds.k
    if k_top_values is None:
        k_top_values = range(1, k + 1)
    k_tops = tuple(int(kt) for kt in k_top_values)
    if any(kt < 1 or kt > k for kt in k_tops):
        raise DomainError(f"k_top values must lie in [1, {k}]")
    ascending = np.sort(ds.matrix, axis=1)
    tail_cum = np.concatenate(
        [np.zeros((len(ds), 1)), np.cumsum(ascending, axis=1)], axis=1
    )
    # One contiguous row per k_top, so that each mean sums as its column alone would.
    delta = np.ascontiguousarray(tail_cum[:, k - np.array(k_tops, dtype=int)].T).mean(axis=1)
    return TopMassCurve(k_tops, 1.0 - delta, delta)


class KtopRecommendation(NamedTuple):
    k_top: int
    delta_avg: float
    satisfied: bool  # False when only keeping every entry meets the target


def recommend_ktop(ds: VectorDataset, delta_target: float) -> KtopRecommendation:
    """Smallest k_top whose average discarded mass is below ``delta_target``."""
    if not 0.0 < delta_target < 1.0:
        raise DomainError(f"delta target must be in (0, 1), got {delta_target}")
    delta = top_mass_curve(ds).delta_avg  # k_top = 1, ..., k
    below = np.flatnonzero(delta < delta_target)
    kt = int(below[0]) + 1 if below.size else ds.k  # k_top = k keeps everything
    return KtopRecommendation(kt, float(delta[kt - 1]), kt < ds.k)


def tail_masses(ds: VectorDataset, k_top: int) -> np.ndarray:
    """Per-vector mass of the k - k_top smallest entries."""
    if not 1 <= k_top <= ds.k:
        raise DomainError(f"need 1 <= k_top <= {ds.k}, got {k_top}")
    ascending = np.sort(ds.matrix, axis=1)
    return ascending[:, : ds.k - k_top].sum(axis=1)


def tail_violation_fraction(ds: VectorDataset, k_top: int, delta: float) -> float:
    """Fraction of vectors whose own tail mass exceeds ``delta``.

    The sparse budget assumes a per-vector tail bound; dataset averages can
    hide vectors that break it, so this is reported alongside.
    """
    return float(np.mean(tail_masses(ds, k_top) > delta))
