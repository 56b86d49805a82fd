"""Exact bijective ranking between combinatorial objects and integer indices.

Two codecs live here:

* compositions of ``total`` into ``k`` nonnegative parts (the points of the
  fixed-denominator lattice on the simplex), ranked in ascending
  lexicographic order on the count sequence, first count most significant;
* k_top-subsets of ``{0..k-1}``, ranked by the standard combinatorial
  number system (colexicographic on the ascending position sequence).

Both orders are codec conventions pinned for determinism; any fixed total
order would be a valid codec. Indices are arbitrary-precision integers and
serialize as big-endian byte strings sized by their declared bit width.

The composition codec follows Reznik's enumerative coder for the lattice of
types (DCC 2011): it moves between neighbouring binomials instead of
recomputing them, so a rank or unrank costs O(k + total) multiply/divide
steps on one big integer rather than O(k log total) fresh ``math.comb``
calls, each of which builds a number of up to ~4000 bits at k=1000.

* ``unrank_composition`` scans the count at each position upward. With r
  the remaining total and m the parts after this one, the compositions
  whose count here is v form a block of C(r - v + m - 1, m - 1); the next
  block is this one times (r - v) // (r - v + m - 1), and the chosen block
  is the next position's total. The last two free parts are closed form:
  with two parts after it, a count is the root of a quadratic (``math.isqrt``),
  and with one, it is what is left of the index.
* ``rank_composition`` builds the suffix binomials C(s + m, m) from the last
  position backward. The b steps from C(n, m) to C(n + b, m) for a count b
  are taken at once, as one multiply and one divide by the falling
  factorials ``math.perm(n + b, b)`` and ``math.perm(n + b - m, b)``.

Fallback rule. A fresh ``math.comb`` costs about one step while its result
fits a machine word and about m/8 steps beyond that, so long runs of steps
go to ``math.comb`` instead:

* ``rank_composition`` jumps only when b <= m // 2 and C(n, m) is wider than
  a word, and otherwise computes C(n + b, m) afresh;
* ``unrank_composition`` prices a bisection on ``math.comb`` at
  cap = (m // 8 + 1) * bit_length(r) steps. It scans only while the mean
  count r / m is below the cap, and bisects over the rest of the range once
  a scan reaches the cap.

So a few parts with a large total (ten parts of 100,000) cost O(log total)
binomials per position instead of a scan over the whole count, a k=1000
point pays for a ~4000-bit ``math.comb`` only at a count above ~1600, and
small spaces stay on word-sized ``math.comb``.

The subset codec steps between neighbouring binomials too (Knuth, TAOCP
4A, 7.2.1.3). ``unrank_subset`` finds the position c_j of each size j, the
largest c below the position above it, n, with C(c, j) <= r for what is
left of the index, r, in one of two ways:

* a scan down from n - 1, one step C(c - 1, j) = C(c, j) (c - j) / c each,
  where the mean scan length (n - j) / (j + 1) is at most ``_SCAN_STEPS``,
  the price of a guess (dense spaces such as 36 of 40);
* otherwise a guess c = (r j!)^(1/j) + (j - 1) / 2 from ``math.log`` and
  ``math.lgamma``, which is never above c_j, then one ``math.comb`` and
  ratio steps to C(c_j, j), seldom more than one.

j = 2 is the root of a quadratic (``math.isqrt``) and j = 1 is what is left.

Validation happens at the boundary. The public constructors of
``LatticePoint`` and ``PositionSet`` check input from outside, with one
integer rule: Python and NumPy integers pass, and anything else, floats
included, is refused. ``unrank_*`` check that the index lies within its
set. What the codec derives itself, the results of ``rank_*`` and
``unrank_*``, is built by ``_trusted`` without a second check, and so are
the quantizers' own encodings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elementwise import brief, lgamma
from .errors import IndexOutOfRange, InvalidSubset, SumMismatch

# Fractional distance from an integer below which the log-gamma bit count
# falls back to exact big-integer arithmetic.
_BOUNDARY_GUARD = 1e-9

# Binomials below this bound fit a machine word, where math.comb is as cheap
# as one multiply/divide step.
_WORD = 1 << 64

# Price of a guessed subset position, in binomial steps: a position whose
# mean scan length is below it is found by a scan instead.
_SCAN_STEPS = 8

# Distinct (k, total) widths kept per bit-count cache. The planner never asks; the
# integer budgets, rank/unrank and payload readers ask for the same few again and again.
_WIDTH_CACHE = 4096


@dataclass(frozen=True)
class LatticePoint:
    """Integer counts summing to ``denominator``; implies probabilities counts/denominator."""

    counts: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        try:
            counts = tuple(map(operator.index, self.counts))
            denominator = operator.index(self.denominator)
        except TypeError:
            raise SumMismatch(
                f"counts and denominator must be integers: {self.counts}, {self.denominator}"
            ) from None
        if denominator < 1:
            raise SumMismatch(f"denominator must be >= 1, got {denominator}")
        if not counts:
            raise SumMismatch("need at least one count")
        if min(counts) < 0:
            raise SumMismatch(f"counts must be nonnegative integers: {counts}")
        if sum(counts) != denominator:
            raise SumMismatch(f"counts sum to {sum(counts)}, expected {denominator}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "denominator", denominator)

    @property
    def k(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class PositionSet:
    """Strictly increasing positions of retained entries within dimension ``dimension``."""

    indices: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        try:
            idx = tuple(map(operator.index, self.indices))
            dimension = operator.index(self.dimension)
        except TypeError:
            raise InvalidSubset(
                f"indices and dimension must be integers: {self.indices}, {self.dimension}"
            ) from None
        if idx != tuple(sorted(set(idx))):
            raise InvalidSubset(f"indices must be strictly increasing: {idx}")
        if idx and (idx[0] < 0 or idx[-1] >= dimension):
            raise InvalidSubset(f"indices {idx} outside [0, {dimension})")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "dimension", dimension)

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class LexIndex:
    """An index into a finite ordered set, with the bit width needed to send it."""

    value: int
    bit_width: int

    def __post_init__(self):
        if self.value < 0:
            raise IndexOutOfRange(f"index cannot be negative: {self.value}")
        if self.value.bit_length() > self.bit_width:
            raise IndexOutOfRange(
                f"value {self.value} does not fit in {self.bit_width} bits"
            )

    def to_bytes(self) -> bytes:
        """Big-endian bytes, sized by the bit width. No header; framing is the caller's job."""
        return self.value.to_bytes((self.bit_width + 7) // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes, bit_width: int) -> "LexIndex":
        expected = (bit_width + 7) // 8
        if len(data) != expected:
            raise IndexOutOfRange(
                f"expected {expected} bytes for {bit_width} bits, got {len(data)}"
            )
        return cls(int.from_bytes(data, "big"), bit_width)


def _trusted(cls, first, second):
    """An instance of a two-field codec dataclass, built without its checks.

    Only for values the codec derived itself, which hold the class's
    invariants by construction; input from outside goes through the class.
    """
    obj = object.__new__(cls)
    name1, name2 = cls.__match_args__
    fields = obj.__dict__
    fields[name1] = first
    fields[name2] = second
    return obj


def composition_count(k: int, total: int) -> int:
    """Number of compositions of ``total`` into ``k`` nonnegative parts."""
    return math.comb(total + k - 1, k - 1)


def _ceil_log2(value: int) -> int:
    """Exact ceil(log2(value)) for a positive integer."""
    return (value - 1).bit_length()


def _ceil_log2_comb(n: int, r: int) -> int:
    """ceil(log2(C(n, r))) via log-gamma, resolved exactly near integer boundaries.

    The log-gamma estimate avoids building the big integer; its error is a
    few ulps, so only results within the guard band of an integer need the
    exact computation.
    """
    if r < 0 or r > n:
        raise ValueError(f"C({n}, {r}) undefined")
    if r == 0 or r == n:
        return 0
    lg = log2_comb(n, r)
    nearest = round(lg)
    if abs(lg - nearest) <= _BOUNDARY_GUARD * max(1.0, abs(lg)):
        return _ceil_log2(math.comb(n, r))
    return math.ceil(lg)


def log2_comb(n: int, r: int) -> float:
    """Real-valued log2(C(n, r)) from log-gamma, without big integers.

    Elementwise over an integer array of n, evaluated once per distinct n:
    on a budget grid n is a lattice size, and sizes repeat.
    """
    if r < 0 or np.any(r > n):
        raise ValueError(f"C({brief(n)}, {r}) undefined")
    distinct, where = n, None
    if isinstance(n, np.ndarray):
        distinct, where = np.unique(n, return_inverse=True)
    bits = (lgamma(distinct + 1) - lgamma(r + 1) - lgamma(distinct - r + 1)) / math.log(2)
    return bits if where is None else bits[where].reshape(n.shape)


@lru_cache(maxsize=_WIDTH_CACHE)
def composition_count_bits(k: int, total: int) -> int:
    """Bits needed for a fixed-length index over compositions of ``total`` into ``k`` parts."""
    if k < 1 or total < 1:
        raise ValueError(f"need k >= 1 and total >= 1, got k={k}, total={total}")
    return _ceil_log2_comb(total + k - 1, k - 1)


@lru_cache(maxsize=_WIDTH_CACHE)
def subset_count_bits(k: int, size: int) -> int:
    """Bits needed for a fixed-length index over ``size``-subsets of ``{0..k-1}``."""
    if size < 0 or size > k:
        raise ValueError(f"need 0 <= size <= k, got size={size}, k={k}")
    return _ceil_log2_comb(k, size)


def rank_composition(pt: LatticePoint) -> LexIndex:
    """Rank of ``pt`` among all compositions of its denominator, ascending lex order."""
    # Python ints throughout (LatticePoint holds them): a NumPy count would
    # overflow the big products.
    counts = pt.counts
    rank = 0
    suffix = counts[-1]  # total of the counts after this position
    top = 1  # C(suffix + m - 1, m - 1): compositions of suffix into m parts
    for m, b in enumerate(reversed(counts[:-1]), 1):
        # Compositions with a smaller count b' < b here, by hockey-stick:
        # sum_{b'<b} C(suffix + b - b' + m - 1, m - 1) = C(n + b, m) - C(n, m).
        n = suffix + m
        base = top * n // m
        if not b:
            top = base
            continue
        if b <= m // 2 and base >= _WORD:
            top = base * math.perm(n + b, b) // math.perm(n + b - m, b)
        else:
            top = math.comb(n + b, m)
        rank += top - base
        suffix += b
    return _trusted(LexIndex, rank, composition_count_bits(len(counts), pt.denominator))


def unrank_composition(idx: LexIndex | int, k: int, total: int) -> LatticePoint:
    """Inverse of rank_composition: the unique composition with the given rank."""
    value = idx.value if isinstance(idx, LexIndex) else operator.index(idx)
    top = composition_count(k, total)
    if value < 0 or value >= top:
        raise IndexOutOfRange(f"index {value} outside [0, {top})")
    counts = []
    remaining = operator.index(total)
    for m in range(k - 1, 2, -1):
        # top = C(remaining + m, m); block = C(remaining - v + m - 1, m - 1)
        # counts the compositions whose count here is v.
        block = top * m // (remaining + m)
        v = 0
        if value >= block:
            cap = (m // 8 + 1) * remaining.bit_length()
            if remaining < cap * m:  # mean count below the cap: scan
                while True:
                    value -= block
                    block = block * (remaining - v) // (remaining - v + m - 1)
                    v += 1
                    if value < block or v == cap:
                        break
            if value >= block:
                v, value, block = _bisect_count(value, remaining, m, v)
            remaining -= v
        counts.append(v)
        top = block
    if k > 2:
        # m = 2: v * (a - v) / 2 compositions, a = 2 * remaining + 3, have a
        # count below v here. The count is the largest v with that many <= value,
        # the lower root of a quadratic; isqrt rounds it up by at most one.
        a = 2 * remaining + 3
        v = (a - math.isqrt(a * a - 8 * value)) // 2
        if v * (a - v) > 2 * value:
            v -= 1
        value -= v * (a - v) // 2
        counts.append(v)
        remaining -= v
    if k > 1:
        counts.append(value)
        remaining -= value
    counts.append(remaining)
    return _trusted(LatticePoint, tuple(counts), operator.index(total))


def _bisect_count(value: int, remaining: int, m: int, start: int) -> tuple[int, int, int]:
    """Count at a position whose scan reached ``start`` with ``value`` left.

    Returns the count, the value left after its predecessor blocks and the
    size of its block, by bisection on fresh binomials.
    """
    # Compositions with count >= u here: C(remaining - u + m, m).
    tail = math.comb(remaining - start + m, m)
    need = tail - value
    lo, hi = start, remaining
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(remaining - mid + m, m) >= need:
            lo = mid
        else:
            hi = mid - 1
    rest = math.comb(remaining - lo + m, m)
    return lo, rest - need, rest * m // (remaining - lo + m)


def rank_subset(s: PositionSet) -> LexIndex:
    """Combinatorial-number-system rank of a subset given ascending positions."""
    value = sum(map(math.comb, s.indices, range(1, s.size + 1)))
    return _trusted(LexIndex, value, subset_count_bits(s.dimension, s.size))


def unrank_subset(idx: LexIndex | int, k: int, size: int) -> PositionSet:
    """Inverse of rank_subset over ``size``-subsets of ``{0..k-1}``."""
    value = idx.value if isinstance(idx, LexIndex) else operator.index(idx)
    k, size = operator.index(k), operator.index(size)
    cardinality = math.comb(k, size)
    if value < 0 or value >= cardinality:
        raise IndexOutOfRange(f"index {value} outside [0, {cardinality})")
    positions = [0] * size
    n, block = k, cardinality  # block = C(n, j): the subsets below position n
    for j in range(size, 2, -1):
        # The position is the largest c < n with C(c, j) <= value.
        if not value:  # the rest is the lowest subset
            positions[:j] = range(j)
            break
        if n - j <= _SCAN_STEPS * (j + 1):  # (n - j) / (j + 1): the mean scan length
            c, b = n - 1, block * (n - j) // n
            while b > value:
                b = b * (c - j) // c
                c -= 1
        else:
            # C(c, j) <= (c - (j - 1) / 2)^j / j!, so but for rounding the
            # guess is at most the position.
            c = int(math.exp((math.log(value) + math.lgamma(j + 1)) / j) + (j - 1) / 2)
            c = j if c < j else n - 1 if c >= n else c
            b = math.comb(c, j)
            while b > value:
                b = b * (c - j) // c
                c -= 1
            while (up := b * (c + 1) // (c + 1 - j)) <= value:
                b, c = up, c + 1
        positions[j - 1] = c
        value -= b
        n, block = c, b * j // (c - j + 1)
    if size > 1:
        # C(c, 2) = c (c - 1) / 2 <= value, solved exactly.
        c = (math.isqrt(8 * value + 1) + 1) // 2
        positions[1] = c
        value -= c * (c - 1) // 2
    if size:
        positions[0] = value  # C(c, 1) = c
    return _trusted(PositionSet, tuple(positions), k)
