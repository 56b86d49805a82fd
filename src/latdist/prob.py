"""Probability vectors on the simplex and the total variation between them.

All distortion guarantees elsewhere in the package are stated for total
variation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    ZeroMass,
)

SUM_TOLERANCE = 1e-9


def float_array(raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """``raw`` as a float array; a Python int beyond the float range is refused as non-finite."""
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise NonFiniteEntry("entries must be finite; an integer overflows a float") from None


def checked_sums(rows: np.ndarray, *, normalize: bool = False, where=lambda i: "") -> np.ndarray:
    """The sum of each row of ``rows``, once every row passes as a probability vector.

    A probability vector is 1-D with at least 2 entries, none negative, and
    has a finite nonzero sum, within SUM_TOLERANCE of 1 unless
    ``normalize``. ProbVector checks its one vector as a one-row matrix, so
    the first row that fails raises the error ProbVector raises for that
    row alone, its message led by ``where(i)`` for row i.
    """
    if len(rows) and (rows.ndim != 2 or rows.shape[1] < 2):
        raise DimensionMismatch(
            f"{where(0)}need a 1-D vector with at least 2 entries, got shape {rows.shape[1:]}"
        )
    # NaN entries pass the sign check, so the sum catches them, with
    # infinities, at no extra pass: a NaN sum is in no range. A sum that
    # overflows is refused there too, without a warning.
    with np.errstate(over="ignore"):
        totals = rows.sum(axis=1)
    if normalize:
        in_range = (totals > 0.0) & (totals < math.inf)
    else:
        in_range = abs(totals - 1.0) <= SUM_TOLERANCE
    if not in_range.all() or (rows < 0).any():
        i = int((~in_range | (rows < 0).any(axis=1)).argmax())
        row, total = rows[i], float(totals[i])
        if (row < 0).any():
            raise NegativeEntry(f"{where(i)}negative entries in {row!r}")
        if not math.isfinite(total):
            raise NonFiniteEntry(f"{where(i)}entries must be finite with a finite sum, got {row!r}")
        if total == 0.0:
            raise ZeroMass(f"{where(i)}entries sum to zero")
        raise NotNormalized(f"{where(i)}entries sum to {total!r}, not 1")
    return totals


class ProbVector:
    """A validated point on the k-dimensional probability simplex.

    Entries are nonnegative and are renormalized to sum to one on
    construction. Zero entries are allowed. Instances are immutable.
    """

    __slots__ = ("values",)

    def __init__(
        self, raw: Sequence[float] | np.ndarray, *, normalize: bool = False, _owned: bool = False
    ):
        # _owned: raw is a fresh float array that its caller, a decoder of
        # this package, hands over. It is checked as any input, but normalized
        # in place and kept instead of copied, which spares a large mostly-zero
        # vector its page faults. The values are the same, bit for bit.
        values = float_array(raw)
        total = float(checked_sums(values[None], normalize=normalize)[0])
        if total != 1.0:
            values = np.divide(values, total, out=values if _owned else None)
        elif not _owned:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _wrap(cls, values: np.ndarray) -> ProbVector:
        """A ProbVector over ``values`` as they are: no check, no copy, no division.

        Only for a read-only row that ``checked_sums`` passed, such as a row
        of a dataset, which was divided by its sum once; a second division
        would move last bits.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("ProbVector is immutable")

    @property
    def k(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"ProbVector({self.values.tolist()!r})"


def tv_distance(p: ProbVector | np.ndarray, q: ProbVector | np.ndarray) -> float | np.ndarray:
    """Total variation distance, half the L1 distance. Always in [0, 1].

    On two ProbVectors it is a float. On matrices whose rows are probability
    vectors it is an array with one distance per row.
    """
    a = p.values if isinstance(p, ProbVector) else p
    b = q.values if isinstance(q, ProbVector) else q
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatch(f"dimensions differ: {a.shape[-1]} vs {b.shape[-1]}")
    distance = 0.5 * np.abs(a - b).sum(axis=-1)
    return float(distance) if distance.ndim == 0 else distance
