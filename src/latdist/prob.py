"""Probability vectors on the simplex and divergence measures between them.

All distortion guarantees elsewhere in the package are stated for total
variation; KL and generic-f divergences are provided as utilities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    SupportMismatch,
    ZeroMass,
)

SUM_TOLERANCE = 1e-9


class ProbVector:
    """A validated point on the k-dimensional probability simplex.

    Entries are nonnegative and are renormalized to sum to one on
    construction. Zero entries are allowed. Instances are immutable.
    """

    __slots__ = ("values",)

    def __init__(self, raw: Sequence[float] | np.ndarray, *, normalize: bool = False):
        values = np.asarray(raw, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise DimensionMismatch(
                f"need a 1-D vector with at least 2 entries, got shape {values.shape}"
            )
        if np.any(values < 0):
            raise NegativeEntry(f"negative entries in {values!r}")
        total = float(values.sum())
        # NaN entries pass the sign check and the sum tolerance, so the sum
        # catches them, with infinities, at no extra pass.
        if not math.isfinite(total):
            raise NonFiniteEntry(f"entries must be finite with a finite sum, got {values!r}")
        if total == 0.0:
            raise ZeroMass("entries sum to zero")
        if not normalize and abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalized(f"entries sum to {total!r}, not 1")
        if total != 1.0:
            values = values / total
        else:
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


def make_prob_vector(raw: Sequence[float], normalize: bool = False) -> ProbVector:
    """Validate ``raw`` as a probability vector, optionally renormalizing it."""
    return ProbVector(raw, normalize=normalize)


def tv_distance(p: ProbVector, q: ProbVector) -> float:
    """Total variation distance, half the L1 distance. Always in [0, 1]."""
    if p.k != q.k:
        raise DimensionMismatch(f"dimensions differ: {p.k} vs {q.k}")
    return 0.5 * float(np.abs(p.values - q.values).sum())


def tv_generator(x: float) -> float:
    """Generator whose f-divergence equals total variation."""
    return 0.5 * abs(x - 1.0)


def kl_generator(x: float) -> float:
    """Generator whose f-divergence equals KL divergence in bits."""
    if x == 0.0:
        return 0.0
    return x * math.log2(x)


def f_divergence(p: ProbVector, q: ProbVector, generator: Callable[[float], float]) -> float:
    """Divergence sum(f(p[i]/q[i]) * q[i]) for a convex generator f with f(1)=0.

    Entries where both p and q are zero contribute nothing. A zero q entry
    under a positive p entry raises SupportMismatch rather than returning
    infinity.
    """
    if p.k != q.k:
        raise DimensionMismatch(f"dimensions differ: {p.k} vs {q.k}")
    total = 0.0
    for pi, qi in zip(p.values, q.values):
        if qi == 0.0:
            if pi > 0.0:
                raise SupportMismatch("q is zero where p is positive")
            continue
        total += generator(pi / qi) * qi
    return total


def kl_divergence(p: ProbVector, q: ProbVector) -> float:
    """KL divergence in bits. Convenience utility, no distortion guarantees."""
    return f_divergence(p, q, kl_generator)


class DivergenceKind(Enum):
    TOTAL_VARIATION = "total-variation"
    KULLBACK_LEIBLER = "kullback-leibler"
    GENERIC_F = "generic-f"


@dataclass(frozen=True)
class Divergence:
    """A computed divergence value tagged with the measure that produced it."""

    kind: DivergenceKind
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"divergence cannot be negative: {self.value}")
        if self.kind is DivergenceKind.TOTAL_VARIATION and self.value > 1 + 1e-12:
            raise ValueError(f"total variation cannot exceed 1: {self.value}")

    @classmethod
    def tv(cls, p: ProbVector, q: ProbVector) -> "Divergence":
        return cls(DivergenceKind.TOTAL_VARIATION, tv_distance(p, q))

    @classmethod
    def kl(cls, p: ProbVector, q: ProbVector) -> "Divergence":
        return cls(DivergenceKind.KULLBACK_LEIBLER, kl_divergence(p, q))

    @classmethod
    def generic(cls, p: ProbVector, q: ProbVector, generator: Callable[[float], float]) -> "Divergence":
        return cls(DivergenceKind.GENERIC_F, f_divergence(p, q, generator))
