"""Exact bijective ranking between combinatorial objects and integer indices.

One codec ranks two kinds of object:

* size-subsets of ``{0..n-1}``, by the combinatorial number system (Knuth,
  TAOCP 4A, 7.2.1.3): the positions c_1 < ... < c_size have the rank
  C(c_1, 1) + ... + C(c_size, size), which orders subsets colexicographically;
* compositions of ``total`` into ``k`` nonnegative parts (the points of the
  fixed-denominator lattice on the simplex), in ascending lexicographic order
  on the count sequence, first count most significant.

Both orders are codec conventions pinned for determinism; any fixed total
order would be a valid codec. Indices are arbitrary-precision integers.
``rank_*`` return a ``LexIndex``, the index with the bit width of its set,
which serializes as a big-endian byte string of that width; ``unrank_*``
take the integer, and a reader turns bytes into it with ``int.from_bytes``.

Stars and bars. A composition c_0, ..., c_(k-1) is the (k-1)-subset of its
N = total + k - 1 slots that holds its bars, r_j = c_(k-1) + ... + c_(k-1-j) + j
for j < k - 1, and its counts are the gaps the bars leave, from the top:
c_0 = N - 1 - r_(k-2), ..., c_(k-1) = r_0. Lexicographic order on the counts
is colexicographic order on the bars reversed, so

    rank_composition(c) = C(N, k - 1) - 1 - (C(r_0, 1) + ... + C(r_(k-2), k - 1)),

and ``unrank_composition`` unranks C(N, k - 1) - 1 - index as a subset, the
bars (``_unrank_subset`` returns positions only), and reads the counts off
the bars: c_i = r_(k-1-i) - r_(k-2-i) - 1 between the sentinels r_(-1) = -1
and r_(k-1) = N.

Both directions step between neighbouring binomials instead of recomputing
them, so a k=1000 point costs O(k + total) multiply/divide steps on one big
integer rather than fresh ``math.comb`` calls of up to ~4000 bits each.

* ``_rank_subset`` steps C(c, j - 1) -> C(c + 1, j) = C(c, j - 1) (c + 1) / j
  and jumps the g free slots to the next position at once, by the falling
  factorials ``math.perm(c + 1 + g, g)`` and ``math.perm(c + 1 + g - j, g)``.
  Across a gap it takes a fresh ``math.comb`` instead while the running
  binomial is 0 or fits a machine word, where ``math.comb`` is as cheap as a
  step, or when the gap is longer than j / 2. A subset count that fits a word
  has every term fit one, and its sum is all fresh ``math.comb``.
* ``_unrank_subset`` finds the position c_j of each size j from the top, the
  largest c below the position above it, n, with C(c, j) <= r for what is
  left of the index, r. It starts from C(n - 1, j) = C(n, j + 1) (j + 1) / n,
  one step from the level above; if that is still above r, it either
  - scans down, one step C(c - 1, j) = C(c, j) (c - j) / c each, where the
    scan, at most about (bits(C(c, j) / r) + 1) c / j steps long, is within
    the price of a guess, ``_SCAN_STEPS`` + j / 4 steps (dense spaces and the
    small counts of a lattice point), or
  - guesses c = (r j!)^(1/j) + (j - 1) / 2 from ``math.log`` and
    ``math.lgamma``, which is never above c_j, then takes one ``math.comb``
    and ratio steps to C(c_j, j), seldom more than one (sparse spaces and
    the heavy counts).

  j = 2 is the root of a quadratic (``math.isqrt``) and j = 1 is what is left.

Validation happens at the boundary. The public constructors of
``LatticePoint`` and ``PositionSet`` check input from outside, with one
integer rule: Python and NumPy integers pass, and anything else, floats
included, is refused. ``unrank_*`` check that the index lies within its
set, which also refuses any index wider than the set's bit width. What the
codec derives itself, the results of ``rank_*`` and ``unrank_*``, is built
by ``_trusted`` without a second check, and so are the quantizers' own
encodings.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from operator import add

import numpy as np

from .elementwise import brief, lgamma
from .errors import IndexOutOfRange, InvalidSubset, SumMismatch

_LN_2 = math.log(2)

# Binomials below this bound fit a machine word, where math.comb is as cheap
# as one multiply/divide step.
_WORD = 1 << 64

# Price of a guessed subset position in binomial steps, besides its fresh
# math.comb: a scan that cannot take longer is tried first.
_SCAN_STEPS = 16

# Distinct (k, total) entries kept per count cache. The planner never asks; the
# integer budgets, rank/unrank and payload readers ask for the same few again and again.
_WIDTH_CACHE = 4096

# Integer totals below this bound take their log2 composition count from a
# table of their k (128 KiB), one per part count: a planner sweep asks for
# the same lattice sizes at every budget. Sizes past it are rare on a grid
# and evaluated afresh. Tables of at most _TABLES part counts are kept.
_TABLE_TOTALS = 1 << 14
_TABLES = 16


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


@dataclass(frozen=True)
class LexIndex:
    """An index into a finite ordered set, with the bit width needed to send it."""

    value: int
    bit_width: int

    def __post_init__(self):
        if self.value < 0:
            raise IndexOutOfRange(f"index cannot be negative: {_decimal(self.value)}")
        if self.value.bit_length() > self.bit_width:
            raise IndexOutOfRange(
                f"value {_decimal(self.value)} does not fit in {self.bit_width} bits"
            )

    def to_bytes(self) -> bytes:
        """Big-endian bytes, sized by the bit width. No header; framing is the caller's job."""
        return self.value.to_bytes((self.bit_width + 7) // 8, "big")


def _decimal(value: int) -> str:
    """``value`` in decimal, or its bit length past the digits Python converts to text."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


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


@lru_cache(maxsize=_WIDTH_CACHE)
def composition_count(k: int, total: int) -> int:
    """Number of compositions of ``total`` into ``k`` nonnegative parts."""
    return math.comb(total + k - 1, k - 1)


def log2_comb(n: int, r: int) -> float:
    """Real-valued log2(C(n, r)) from log-gamma, without big integers.

    Elementwise over an integer array of n, as ``log2_composition_count``:
    C(n, r) counts the compositions of n - r into r + 1 parts.
    """
    if r < 0 or np.any(r > n):
        raise ValueError(f"C({brief(n)}, {r}) undefined")
    return log2_composition_count(r + 1, n - r)


def log2_composition_count(k: int, total: float) -> float:
    """log2 of ``composition_count(k, total)``, C(total + k - 1, k - 1), from log-gamma.

    Elementwise over an array of totals. Integer totals below
    ``_TABLE_TOTALS`` in an int64 or float64 array come from a table of
    this k, which evaluates each total once per process, the first time a
    call asks for it: the lattice sizes of one budget grid recur on the
    grids of other budgets. Other totals are evaluated once per run of
    equal consecutive totals, as the sizes along a grid row are monotone.
    Totals may be integer-valued floats: each log-gamma argument, total + k
    and total + 1, is one rounding from the exact integer, as it is from an
    int total, so the table gives the bits either would.
    """
    if not np.ndim(total):
        return _log2_count(k, total)
    flat = total.ravel()
    if flat.dtype == np.float64:
        inside = (0 <= flat) & (flat < _TABLE_TOTALS) & (np.trunc(flat) == flat)
    elif flat.dtype == np.int64:
        inside = (0 <= flat) & (flat < _TABLE_TOTALS)
    else:
        return _log2_count_runs(k, flat).reshape(total.shape)
    out = np.empty(flat.size)
    if inside.any():
        totals = flat[inside]
        at = totals.astype(np.intp)
        table = _log2_count_table(k)
        values = table[at]
        missing = np.isnan(values)
        if missing.any():
            # Sorted, each missing total is one run.
            fill = np.sort(totals[missing])
            table[fill.astype(np.intp)] = _log2_count_runs(k, fill)
            values = table[at]
        out[inside] = values
    if not inside.all():
        out[~inside] = _log2_count_runs(k, flat[~inside])
    return out.reshape(total.shape)


def _log2_count(k, total):
    """log2 C(total + k - 1, k - 1) from three log-gamma terms; elementwise on an array."""
    return (lgamma(total + k) - lgamma(k) - lgamma(total + 1)) / _LN_2


def _log2_count_runs(k, flat):
    """``_log2_count`` of a 1-D array, evaluated once per run of equal consecutive totals."""
    # The runs' bounds: 0, each element unequal to the one before, and the end.
    edge = np.ones(flat.size + 1, bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return np.repeat(_log2_count(k, flat[bounds[:-1]]), bounds[1:] - bounds[:-1])


@lru_cache(maxsize=_TABLES)
def _log2_count_table(k: int) -> np.ndarray:
    """``log2_composition_count(k, t)`` at index t of [0, _TABLE_TOTALS); NaN until filled."""
    return np.full(_TABLE_TOTALS, np.nan)


@lru_cache(maxsize=_WIDTH_CACHE)
def composition_count_bits(k: int, total: int) -> int:
    """Bits needed for a fixed-length index over compositions of ``total`` into ``k`` parts."""
    _slots(k, total)  # refuses an empty space
    return (composition_count(k, total) - 1).bit_length()


def _slots(k: int, total: int) -> int:
    """Slots of the stars and bars of a composition space: its total plus k - 1 bars."""
    if k < 1 or total < 1:
        raise ValueError(f"need k >= 1 and total >= 1, got k={k}, total={total}")
    return total + k - 1


@lru_cache(maxsize=_WIDTH_CACHE)
def subset_count_bits(k: int, size: int) -> int:
    """Bits needed for a fixed-length index over ``size``-subsets of ``{0..k-1}``."""
    if size < 0 or size > k:
        raise ValueError(f"need 0 <= size <= k, got size={size}, k={k}")
    return (math.comb(k, size) - 1).bit_length()


def rank_composition(pt: LatticePoint) -> LexIndex:
    """Rank of ``pt`` among all compositions of its denominator, ascending lex order."""
    counts = pt.counts
    k = len(counts)
    bars = map(add, accumulate(counts[::-1]), range(k - 1))  # r_j, from the lowest
    bits = composition_count_bits(k, pt.denominator)
    rank = composition_count(k, pt.denominator) - 1 - _rank_subset(bars, bits)
    return _trusted(LexIndex, rank, bits)


def unrank_composition(value: int, k: int, total: int) -> LatticePoint:
    """Inverse of rank_composition: the unique composition with the given rank."""
    value, k, total = operator.index(value), operator.index(k), operator.index(total)
    slots = _slots(k, total)
    top = composition_count(k, total)
    if value < 0 or value >= top:
        raise IndexOutOfRange(f"index {_decimal(value)} outside [0, {_decimal(top)})")
    # Each count is the gap between neighbouring bars, from the sentinel N down to -1.
    counts, hi = [], slots
    for lo in reversed(_unrank_subset(top - 1 - value, slots, k - 1, top)):
        counts.append(hi - lo - 1)
        hi = lo
    counts.append(hi)  # hi - (-1) - 1
    return _trusted(LatticePoint, tuple(counts), total)


def rank_subset(s: PositionSet) -> LexIndex:
    """Combinatorial-number-system rank of a subset given ascending positions."""
    bits = subset_count_bits(s.dimension, len(s.indices))
    return _trusted(LexIndex, _rank_subset(s.indices, bits), bits)


def unrank_subset(value: int, k: int, size: int) -> PositionSet:
    """Inverse of rank_subset over ``size``-subsets of ``{0..k-1}``."""
    value, k, size = operator.index(value), operator.index(k), operator.index(size)
    cardinality = math.comb(k, size)
    if value < 0 or value >= cardinality:
        raise IndexOutOfRange(f"index {_decimal(value)} outside [0, {_decimal(cardinality)})")
    return _trusted(PositionSet, tuple(_unrank_subset(value, k, size, cardinality)), k)


def _rank_subset(positions: Iterable[int], bits: int) -> int:
    """Sum of C(c_j, j) over the ascending positions c_1 < c_2 < ..., j from 1.

    ``bits`` is the width of the subset count, which bounds every term.
    """
    comb = math.comb
    if bits <= 64:  # every binomial fits a word: no steps
        return sum(map(comb, positions, count(1)))
    perm, word = math.perm, _WORD
    rank = b = 0  # b = C(c, j - 1) at the previous position c
    c = -1
    for j, nxt in enumerate(positions, 1):
        gap = nxt - c - 1
        if not gap:
            b = b * nxt // j
        elif b < word or gap > j // 2:
            b = comb(nxt, j)
        else:
            # C(c, j - 1) -> C(c + 1, j) -> C(nxt, j), one multiply and one divide.
            b = b * perm(nxt, gap + 1) // (j * perm(nxt - j, gap))
        rank += b
        c = nxt
    return rank


def _unrank_subset(value: int, n: int, size: int, block: int) -> list[int]:
    """Ascending positions of the ``size``-subset of ``{0..n-1}`` with rank ``value``.

    ``block`` is C(n, size).
    """
    positions = [0] * size
    if size > 2:
        b = block * (n - size) // n  # C(n - 1, size)
    for j in range(size, 2, -1):
        # b = C(n - 1, j), where n is the position above. The position is the
        # largest c < n with C(c, j) <= value.
        if not value:  # the rest is the lowest subset
            positions[:j] = range(j)
            return positions
        c = n - 1
        # A step down divides C(c, j) by c / (c - j) > 2^(j / c), so a scan takes
        # at most (bits(b / value) + 1) c / j steps. Past the price of a guess, guess.
        if b > value and (b.bit_length() - value.bit_length() + 1) * c > (_SCAN_STEPS + j // 4) * j:
            # C(c, j) <= (c - (j - 1) / 2)^j / j!, so but for rounding the
            # guess is at most the position.
            c = int(math.exp((math.log(value) + math.lgamma(j + 1)) / j) + (j - 1) / 2)
            c = j if c < j else n - 1 if c >= n else c
            b = math.comb(c, j)
            while (up := b * (c + 1) // (c + 1 - j)) <= value:
                b, c = up, c + 1
        while b > value:
            b = b * (c - j) // c
            c -= 1
        positions[j - 1] = c
        value -= b
        n, b = c, b * j // c  # C(c - 1, j - 1) = C(c, j) j / c
    if size > 1:
        # C(c, 2) = c (c - 1) / 2 <= value, solved exactly.
        c = (math.isqrt(8 * value + 1) + 1) // 2
        positions[1] = c
        value -= c * (c - 1) // 2
    if size:
        positions[0] = value  # C(c, 1) = c
    return positions
