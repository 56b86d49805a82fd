"""Load externally produced probability vectors and pick a retention size.

Datasets are newline-delimited JSON arrays or delimited numeric rows, one
vector per line. A file is read one line at a time into one float64
matrix, and its rows are renormalized once loaded, to absorb rounding from
upstream softmax outputs.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NonFiniteEntry, ParseError, RaggedRows
from .prob import ProbVector, checked_sums, float_array


@dataclass(frozen=True, eq=False)
class VectorDataset:
    """Probability vectors of a common dimension, the rows of one matrix, with a provenance label.

    Each row must pass as a probability vector. A writable matrix is copied
    and the copy made read-only; a read-only one is held as it is.
    """

    matrix: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        try:
            matrix = float_array(self.matrix)
        except NonFiniteEntry:
            raise
        except ValueError as exc:  # numpy's refusal of rows of differing lengths
            raise RaggedRows(f"rows do not form a matrix: {exc}") from None
        if not matrix.size:
            raise ParseError("dataset is empty")
        if matrix.ndim != 2:
            raise DimensionMismatch(f"need one vector per row of a matrix, got shape {matrix.shape}")
        checked_sums(matrix)
        if matrix.flags.writeable:
            matrix = matrix.copy()
            matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.matrix)

    @cached_property
    def vectors(self) -> tuple[ProbVector, ...]:
        """The rows as ProbVectors, as they are: no copy and no second division."""
        return tuple(map(ProbVector._wrap, self.matrix))


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, text) of each data line: stripped, and neither blank nor a # comment."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# The types json.loads gives a JSON number.
_NUMBERS = {int, float}


def _json_row(line: str, where: str) -> list[float]:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON: {exc}") from exc
    if not isinstance(row, list):
        raise ParseError(f"{where}expected a JSON array")
    if not set(map(type, row)) <= _NUMBERS:  # bool, a subclass of int, is refused
        bad = next(x for x in row if type(x) not in _NUMBERS)
        raise ParseError(f"{where}expected numbers, got {json.dumps(bad)}")
    return row


def _delimited_row(line: str, where: str) -> list[float]:
    fields = line.split(",") if "," in line else line.split()
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"{where}non-numeric field: {exc}") from exc


def load_dataset(path: str | Path) -> VectorDataset:
    """Read one probability vector per line; rows are validated and renormalized.

    A .jsonl or .json file holds JSON arrays and a .csv, .txt or .tsv file
    delimited rows; any other file is JSON when its first data line starts
    with "[". The dataset is labelled with the file name. Blank lines and
    lines starting with "#" are skipped, and each refusal names the file
    line of the first offending row: a parse error on any line comes first,
    then rows of differing lengths, then the first row that is not a
    probability vector.
    """
    path = Path(path)
    delimited = path.suffix in (".csv", ".txt", ".tsv")
    parse = width = ragged = refused = None
    values = array("d")  # the matrix, row after row
    linenos = array("q")  # the file line of each row in values
    with open(path) as lines:
        for lineno, line in data_lines(lines):
            if parse is None:
                jsonl = path.suffix in (".jsonl", ".json") or (
                    not delimited and line.startswith("[")
                )
                parse = _json_row if jsonl else _delimited_row
            row = parse(line, f"{path}:{lineno}: ")
            if width is None:
                width = len(row)
            if len(row) != width:
                ragged = ragged or lineno
            elif not (ragged or refused):
                # Past a ragged or refused row, rows are parsed but not kept:
                # a parse error still comes first, and then a ragged row.
                try:
                    values.frombytes(float_array(row).tobytes())
                except NonFiniteEntry as exc:  # a JSON integer beyond the float range
                    refused = NonFiniteEntry(f"{path}:{lineno}: {exc}")
                else:
                    linenos.append(lineno)
    if width is None:
        raise ParseError(f"{path}: no data rows")
    if ragged:
        raise RaggedRows(f"{path}:{ragged}: rows have differing lengths")
    matrix = np.frombuffer(values, dtype=float).reshape(len(linenos), width)
    totals = checked_sums(matrix, normalize=True, where=lambda i: f"{path}:{linenos[i]}: ")
    if refused:
        raise refused
    np.divide(matrix, totals[:, None], out=matrix)
    matrix.flags.writeable = False
    return VectorDataset(matrix, path.name)


class KtopRecommendation(NamedTuple):
    k_top: int
    delta_avg: float
    satisfied: bool  # False when only keeping every entry meets the target


class TopMassCurve(NamedTuple):
    """Average retained and discarded mass at k_top = 1, ..., k, from each vector's tails."""

    avg_top_mass: np.ndarray
    delta_avg: np.ndarray
    tail_cum: np.ndarray

    def tails(self, k_top: int) -> np.ndarray:
        """Each vector's mass outside its k_top largest entries."""
        k = len(self.delta_avg)
        if not 1 <= k_top <= k:
            raise DomainError(f"need 1 <= k_top <= {k}, got {k_top}")
        if k_top == k:  # every entry kept
            return np.zeros(self.tail_cum.shape[1])
        return self.tail_cum[k - k_top - 1]

    def violation_fraction(self, k_top: int, delta: float) -> float:
        """Share of vectors whose own tail at k_top exceeds ``delta``.

        The sparse budget assumes that none does, and the average can hide them.
        """
        return float(np.mean(self.tails(k_top) > delta))

    def recommend(self, delta_target: float) -> KtopRecommendation:
        """Smallest k_top whose average discarded mass is below ``delta_target``."""
        if not 0.0 < delta_target < 1.0:
            raise DomainError(f"delta target must be in (0, 1), got {delta_target}")
        k = len(self.delta_avg)
        below = np.flatnonzero(self.delta_avg < delta_target)
        kt = int(below[0]) + 1 if below.size else k  # k_top = k keeps everything
        return KtopRecommendation(kt, float(self.delta_avg[kt - 1]), kt < k)


def top_mass_curve(ds: VectorDataset) -> TopMassCurve:
    """The curve of a dataset, with its discarded mass summed from the smallest entries up."""
    # The one sorted copy, transposed, so that after the in-place sum row j
    # holds each vector's j+1 smallest entries summed, and its mean sums one
    # contiguous row, as that column of tail masses alone would be summed.
    tail_cum = ds.matrix.T.copy()
    tail_cum.sort(axis=0)
    np.cumsum(tail_cum, axis=0, out=tail_cum)
    # delta[i] is the mean tail at k_top = i + 1; k_top = k discards exactly zero.
    delta = np.append(tail_cum.mean(axis=1)[-2::-1], 0.0)
    return TopMassCurve(1.0 - delta, delta, tail_cum)


def recommend_ktop(ds: VectorDataset, delta_target: float) -> KtopRecommendation:
    """Smallest k_top whose average discarded mass is below ``delta_target``."""
    return top_mass_curve(ds).recommend(delta_target)
