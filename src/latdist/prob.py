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
        try:
            values = np.asarray(raw, dtype=float)
        except OverflowError:  # a Python int beyond the float range
            raise NonFiniteEntry("entries must be finite; an integer overflows a float") from None
        if values.ndim != 1 or values.size < 2:
            raise DimensionMismatch(
                f"need a 1-D vector with at least 2 entries, got shape {values.shape}"
            )
        if np.any(values < 0):
            raise NegativeEntry(f"negative entries in {values!r}")
        # NaN entries pass the sign check and the sum tolerance, so the sum
        # catches them, with infinities, at no extra pass; a sum that
        # overflows is refused there too, without a warning.
        with np.errstate(over="ignore"):
            total = float(values.sum())
        if not math.isfinite(total):
            raise NonFiniteEntry(f"entries must be finite with a finite sum, got {values!r}")
        if total == 0.0:
            raise ZeroMass("entries sum to zero")
        if not normalize and abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalized(f"entries sum to {total!r}, not 1")
        if total != 1.0:
            values = np.divide(values, total, out=values if _owned else None)
        elif not _owned:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
