"""Source coders for probability vectors: uniform, lattice, and sparse lattice.

Each scheme is an encode/decode pair. Encoders are deterministic: all ties
(rounding residuals, top-k selection) break toward the lower index.
Each quantization rule is stated once and works row by row, so it applies
to one vector and to a block of trials alike.

``UQCoder``, ``LQCoder`` and ``SLQCoder``, built by ``BudgetFn.coder``, fix a
scheme's dimension and width or denominator. Each writes and reads one
vector's payload, and codes a block of rows or decodes a random payload index
into rows that its caller renormalizes; no caller branches on the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .codec import (
    LatticePoint,
    PositionSet,
    _trusted,
    composition_count,
    composition_count_bits,
    rank_composition,
    rank_subset,
    subset_count_bits,
    unrank_composition,
    unrank_subset,
)
from .errors import DimensionMismatch, DomainError, IndexOutOfRange
from .prob import ProbVector


def _check_width(bits_per_entry: int):
    # Bin ids are int64, and the top bin's id 2**j - 1 must fit beside 2**j.
    if not 1 <= bits_per_entry <= 62:
        raise DomainError(f"bits_per_entry must be >= 1 and <= 62, got {bits_per_entry}")


def _check_denominator(denominator: int, name: str = "denominator"):
    # Lattice rounding scales in float64, which counts exactly only up to 2**53.
    if not isinstance(denominator, Integral) or not 1 <= denominator <= 2**53:
        raise DomainError(f"{name} must be >= 1 and <= 2**53 (an integer), got {denominator!r}")


@dataclass(frozen=True)
class UQEncoding:
    """Per-entry bin ids from uniform scalar quantization with 2**bits_per_entry bins."""

    bin_ids: tuple[int, ...]
    bits_per_entry: int

    def __post_init__(self):
        j = self.bits_per_entry
        _check_width(j)
        if any(r < 0 or r >= (1 << j) for r in self.bin_ids):
            raise DomainError(f"bin ids outside [0, 2^{j})")

    def to_bytes(self) -> bytes:
        """Fields packed big-endian, first entry in the most significant bits, zero-padded."""
        # The bits of each id, most significant first: the last j of its 64.
        ids = np.array(self.bin_ids, dtype=">u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(ids, axis=1)
        return np.packbits(bits[:, 64 - self.bits_per_entry:]).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int, bits_per_entry: int) -> "UQEncoding":
        """Inverse of to_bytes; nonzero padding is refused, so one payload is one encoding."""
        if k < 0:
            raise DimensionMismatch(f"need k >= 0 entries, got {k}")
        total_bits = k * bits_per_entry
        expected = (total_bits + 7) // 8
        if len(data) != expected:
            raise DimensionMismatch(f"expected {expected} payload bytes, got {len(data)}")
        bits = np.unpackbits(np.frombuffer(data, np.uint8))
        if bits[total_bits:].any():
            raise IndexOutOfRange(f"the {len(bits) - total_bits} padding bits must be zero")
        _check_width(bits_per_entry)
        # Each j-bit field back in the low bits of its 64: an id below 2**j.
        fields = np.zeros((k, 64), np.uint8)
        fields[:, 64 - bits_per_entry:] = bits[:total_bits].reshape(k, bits_per_entry)
        ids = np.packbits(fields, axis=1).view(">u8").ravel()
        return _trusted(cls, tuple(ids.tolist()), bits_per_entry)


def uq_bins(values: np.ndarray, bits_per_entry: int) -> np.ndarray:
    """Per-entry ids of 2**bits_per_entry half-open bins on [0, 1]; 1.0 is in the top bin."""
    _check_width(bits_per_entry)
    levels = 1 << bits_per_entry
    ids = np.floor(values * levels).astype(np.int64)
    np.minimum(ids, levels - 1, out=ids)
    return ids


def uq_midpoints(ids, bits_per_entry: int) -> np.ndarray:
    """Midpoints of the bins ``ids``, not yet renormalized."""
    return (np.asarray(ids, dtype=float) + 0.5) / (1 << bits_per_entry)


def uq_encode(p: ProbVector, bits_per_entry: int) -> UQEncoding:
    """Map each entry to its bin id."""
    return _trusted(UQEncoding, tuple(uq_bins(p.values, bits_per_entry).tolist()), bits_per_entry)


def uq_decode(enc: UQEncoding) -> ProbVector:
    """Reconstruct bin midpoints and renormalize them onto the simplex."""
    return ProbVector(uq_midpoints(enc.bin_ids, enc.bits_per_entry), normalize=True, _owned=True)


class LatticeRounding(NamedTuple):
    """Output of the lattice rounding with its intermediate quantities."""

    counts: np.ndarray
    initial_counts: np.ndarray
    residuals: np.ndarray


def round_to_lattice(values: np.ndarray, denominator: int) -> LatticeRounding:
    """Round a nonnegative unit-sum vector to integer counts summing to ``denominator``.

    Initial counts are floor(denominator*value + 1/2). If they oversum, the
    surplus entries with the largest residuals count - denominator*value are
    decremented; if they undersum, those with the smallest residuals are
    incremented. Residual ties break toward the lower index. A matrix is
    rounded row by row, each row exactly as it would be on its own.
    """
    _check_denominator(denominator)
    scaled = np.asarray(values, dtype=float) * denominator
    rounded = np.floor(scaled + 0.5)
    counts = rounded.astype(np.int64)
    residuals = rounded - scaled
    deficit = denominator - counts.sum(axis=-1)
    initial = counts.copy()
    if not np.count_nonzero(deficit):
        return LatticeRounding(counts, initial, residuals)
    # A stable sort by the residuals, negated where the counts oversum, puts
    # first the |deficit| entries that move one count toward the target,
    # ties at the lower index. Each row is sorted on its own.
    step = np.sign(deficit)[..., None]
    order = (residuals * step).argsort(axis=-1, kind="stable")
    counts += step * (order.argsort(axis=-1) < np.abs(deficit)[..., None])
    # Entries picked for decrement always started positive: a positive
    # total residual forces at least -deficit entries above their target.
    assert counts.min() >= 0, "lattice rounding drove a count negative"
    return LatticeRounding(counts, initial, residuals)


def lq_encode(p: ProbVector, denominator: int) -> LatticePoint:
    """Nearest point on the fixed-denominator lattice, by residual rounding."""
    counts = round_to_lattice(p.values, denominator).counts
    return _trusted(LatticePoint, tuple(counts.tolist()), denominator)


def lq_decode(pt: LatticePoint) -> ProbVector:
    """Probability vector counts/denominator."""
    return ProbVector(np.array(pt.counts, dtype=float) / pt.denominator, _owned=True)


def lq_payload(pt: LatticePoint) -> bytes:
    """Serialized composition index of a lattice point."""
    return rank_composition(pt).to_bytes()


def lq_from_payload(data: bytes, k: int, denominator: int) -> LatticePoint:
    """Inverse of lq_payload; a wrong length or an index beyond the lattice is refused."""
    expected = (composition_count_bits(k, denominator) + 7) // 8
    if len(data) != expected:
        raise IndexOutOfRange(f"expected {expected} payload bytes, got {len(data)}")
    # unrank_composition refuses an index beyond the lattice, so also one wider than its bits.
    return unrank_composition(int.from_bytes(data, "big"), k, denominator)


@dataclass(frozen=True)
class SLQEncoding:
    """Sparse lattice encoding: the retained positions and a lattice point over them.

    Its sizes are those of ``positions`` and ``point``. It holds no index:
    the subset and composition indices exist only on the wire, ranked by
    ``to_bytes`` and unranked by ``from_bytes``.
    """

    positions: PositionSet
    point: LatticePoint

    def __post_init__(self):
        if self.point.k != self.positions.size:
            raise DimensionMismatch(
                f"{self.positions.size} positions but {self.point.k} lattice counts"
            )

    def to_bytes(self) -> bytes:
        """Subset index bytes followed by composition index bytes."""
        return rank_subset(self.positions).to_bytes() + rank_composition(self.point).to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int, k_top: int, denominator: int) -> "SLQEncoding":
        """Inverse of to_bytes; a wrong length or an index beyond its set is refused."""
        subset_bits = subset_count_bits(k, k_top)
        comp_bits = composition_count_bits(k_top, denominator)
        split = (subset_bits + 7) // 8
        expected = split + (comp_bits + 7) // 8
        if len(data) != expected:
            raise DimensionMismatch(f"expected {expected} payload bytes, got {len(data)}")
        # unrank_* refuse an index beyond its set, so also one wider than its bits.
        positions = unrank_subset(int.from_bytes(data[:split], "big"), k, k_top)
        point = unrank_composition(int.from_bytes(data[split:], "big"), k_top, denominator)
        return _trusted(cls, positions, point)


def top_indices(values: np.ndarray, k_top: int) -> np.ndarray:
    """Ascending positions of each row's k_top largest entries; ties go to the lower index.

    A selection, not a sort: each row keeps its entries at or above its
    k_top-th largest value, and a row with more ties at that value than it
    needs drops the ones at the highest indices.
    """
    k = values.shape[-1]
    if not 1 <= k_top <= k:
        raise DomainError(f"need 1 <= k_top <= {k}, got {k_top}")
    kth = np.partition(values, k - k_top, axis=-1)[..., k - k_top, None]
    keep = values >= kth
    # Every row keeps at least k_top; a row with more has surplus ties.
    if np.count_nonzero(keep) > keep.size // k * k_top:
        rows, kths, marks = values.reshape(-1, k), kth.reshape(-1), keep.reshape(-1, k)
        kept = np.count_nonzero(marks, axis=1)
        for r in np.flatnonzero(kept > k_top):
            # The last kept[r] - k_top ties go.
            ties = np.flatnonzero(rows[r] == kths[r])
            marks[r, ties[k_top - kept[r]:]] = False
    return np.nonzero(keep)[-1].reshape(values.shape[:-1] + (k_top,))


def slq_counts(kept: np.ndarray, denominator: int) -> np.ndarray:
    """Lattice counts of each row of kept entries, first renormalized to unit sum."""
    # Positive mass: the k_top >= 1 largest entries of a unit-sum row hold at least k_top/k.
    return round_to_lattice(kept / kept.sum(axis=-1, keepdims=True), denominator).counts


def slq_encode(p: ProbVector, k_top: int, denominator: int) -> SLQEncoding:
    """Keep the k_top largest entries, renormalize them, and lattice-quantize.

    The transmitted payload is the position-set index plus the composition
    index of the quantized retained entries, ranked by ``to_bytes``.
    """
    top = top_indices(p.values, k_top)
    positions = _trusted(PositionSet, tuple(top.tolist()), p.k)
    counts = slq_counts(p.values[top], denominator)
    point = _trusted(LatticePoint, tuple(counts.tolist()), denominator)
    return _trusted(SLQEncoding, positions, point)


def slq_decode(enc: SLQEncoding) -> ProbVector:
    """Zeros everywhere except the retained positions, which carry counts/denominator."""
    pt = enc.point
    values = np.zeros(enc.positions.dimension)
    values[list(enc.positions.indices)] = np.array(pt.counts, dtype=float) / pt.denominator
    return ProbVector(values, _owned=True)


def _uniform_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) that works beyond 64-bit cardinalities."""
    if bound <= 0:
        raise DomainError(f"need a positive bound, got {bound}")
    if bound <= (1 << 63):
        return int(rng.integers(bound))
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if value < bound:
            return value


@dataclass(frozen=True)
class UQCoder:
    """Uniform coder: k entries of bits_per_entry bits each."""

    k: int
    bits_per_entry: int
    ell = None

    def __post_init__(self):
        _check_width(self.bits_per_entry)

    def to_bytes(self, p: ProbVector) -> bytes:
        return uq_encode(p, self.bits_per_entry).to_bytes()

    def from_bytes(self, data: bytes) -> ProbVector:
        return uq_decode(UQEncoding.from_bytes(data, self.k, self.bits_per_entry))

    def decode_rows(self, rows: np.ndarray) -> np.ndarray:
        return uq_midpoints(uq_bins(rows, self.bits_per_entry), self.bits_per_entry)

    def garbled(self, rng: np.random.Generator) -> np.ndarray:
        ids = rng.integers(0, 1 << self.bits_per_entry, size=self.k)
        return uq_midpoints(ids, self.bits_per_entry)


@dataclass(frozen=True)
class LQCoder:
    """Lattice coder: the composition index of a point with denominator ell."""

    k: int
    ell: int
    bits_per_entry = None

    def __post_init__(self):
        _check_denominator(self.ell, "ell")

    def to_bytes(self, p: ProbVector) -> bytes:
        return lq_payload(lq_encode(p, self.ell))

    def from_bytes(self, data: bytes) -> ProbVector:
        return lq_decode(lq_from_payload(data, self.k, self.ell))

    def decode_rows(self, rows: np.ndarray) -> np.ndarray:
        return round_to_lattice(rows, self.ell).counts / self.ell

    def garbled(self, rng: np.random.Generator) -> np.ndarray:
        idx = _uniform_below(rng, composition_count(self.k, self.ell))
        return np.array(unrank_composition(idx, self.k, self.ell).counts, dtype=float) / self.ell


@dataclass(frozen=True)
class SLQCoder:
    """Sparse lattice coder: k_top positions of k and a lattice point over them."""

    k: int
    k_top: int
    ell: int
    bits_per_entry = None

    def __post_init__(self):
        _check_denominator(self.ell, "ell")

    def to_bytes(self, p: ProbVector) -> bytes:
        return slq_encode(p, self.k_top, self.ell).to_bytes()

    def from_bytes(self, data: bytes) -> ProbVector:
        return slq_decode(SLQEncoding.from_bytes(data, self.k, self.k_top, self.ell))

    def decode_rows(self, rows: np.ndarray) -> np.ndarray:
        top = top_indices(rows, self.k_top)
        counts = slq_counts(np.take_along_axis(rows, top, axis=-1), self.ell)
        received = np.zeros_like(rows)
        np.put_along_axis(received, top, counts / self.ell, axis=-1)
        return received

    def garbled(self, rng: np.random.Generator) -> np.ndarray:
        # Subset index first, then lattice index: simulate reports pin this order.
        subset_idx = _uniform_below(rng, math.comb(self.k, self.k_top))
        lattice_idx = _uniform_below(rng, composition_count(self.k_top, self.ell))
        received = np.zeros(self.k)
        positions = unrank_subset(subset_idx, self.k, self.k_top).indices
        counts = unrank_composition(lattice_idx, self.k_top, self.ell).counts
        received[list(positions)] = np.array(counts, dtype=float) / self.ell
        return received
