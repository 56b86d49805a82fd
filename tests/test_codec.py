import itertools
import math

import numpy as np
import pytest

from latdist.budget import BudgetFn, Scheme
from latdist.codec import (
    LatticePoint,
    LexIndex,
    PositionSet,
    composition_count,
    composition_count_bits,
    log2_comb,
    rank_composition,
    rank_subset,
    subset_count_bits,
    unrank_composition,
    unrank_subset,
)
from latdist.elementwise import lgamma
from latdist.errors import IndexOutOfRange, InvalidSubset, SumMismatch
from latdist.optimizer import beta_s_grid


def enumerate_compositions(k, total):
    """Independent oracle: all count sequences in ascending lex order."""
    return [
        c for c in itertools.product(range(total + 1), repeat=k) if sum(c) == total
    ]


def bisect_rank_composition(counts, total):
    """Reference rank: a fresh pair of binomials per position."""
    k = len(counts)
    remaining = total
    rank = 0
    for i, b in enumerate(counts[:-1]):
        parts_left = k - i - 1
        rank += math.comb(remaining + parts_left, parts_left) - math.comb(
            remaining - b + parts_left, parts_left
        )
        remaining -= b
    return rank


def bisect_unrank_composition(value, k, total):
    """Reference unrank: binary search over fresh binomials at each position."""
    counts = []
    remaining = total
    for i in range(k - 1):
        parts_left = k - i - 1
        top = math.comb(remaining + parts_left, parts_left)

        def preceding(v):
            return top - math.comb(remaining - v + parts_left, parts_left)

        lo, hi = 0, remaining
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if preceding(mid) <= value:
                lo = mid
            else:
                hi = mid - 1
        counts.append(lo)
        value -= preceding(lo)
        remaining -= lo
    counts.append(remaining)
    return tuple(counts)


def enumerate_subsets_colex(k, size):
    """Independent oracle: subsets ordered by the combinatorial number system."""
    return sorted(itertools.combinations(range(k), size), key=lambda s: tuple(reversed(s)))


def bisect_unrank_subset(value, k, size):
    """Reference unrank: binary search over fresh binomials at each position."""
    positions = []
    n = k
    for j in range(size, 0, -1):
        lo, hi = j - 1, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j) <= value:
                lo = mid
            else:
                hi = mid - 1
        positions.append(lo)
        value -= math.comb(lo, j)
        n = lo
    return tuple(reversed(positions))


class TestLatticePoint:
    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            LatticePoint((1, 2), 4)

    def test_negative_count(self):
        with pytest.raises(SumMismatch):
            LatticePoint((-1, 5), 4)

    def test_valid(self):
        pt = LatticePoint((1, 3, 1), 5)
        assert len(pt.counts) == 3

    def test_integers_only(self):
        # Floats used to pass here and fail later in rank_composition with a TypeError.
        for counts, denominator in (((2.0, 3.0), 5), ((2, 3), 5.0), ((2, np.float64(3)), 5)):
            with pytest.raises(SumMismatch):
                LatticePoint(counts, denominator)

    def test_numpy_integers_become_python_integers(self):
        pt = LatticePoint((np.int64(2), np.int32(3)), np.int64(5))
        assert pt == LatticePoint((2, 3), 5)
        assert all(type(c) is int for c in (*pt.counts, pt.denominator))
        assert rank_composition(pt).value == 2


class TestPositionSet:
    def test_must_increase(self):
        with pytest.raises(InvalidSubset):
            PositionSet((2, 1), 5)
        with pytest.raises(InvalidSubset):
            PositionSet((1, 1), 5)

    def test_must_fit_dimension(self):
        with pytest.raises(InvalidSubset):
            PositionSet((0, 5), 5)

    def test_integers_only(self):
        # Floats used to pass here and fail later in rank_subset with a TypeError.
        for indices, dimension in (((1.0, 3.0), 5), ((1, 3), 5.0)):
            with pytest.raises(InvalidSubset):
                PositionSet(indices, dimension)
        s = PositionSet((np.int64(1), np.int32(3)), np.int64(5))
        assert s == PositionSet((1, 3), 5)
        assert rank_subset(s).value == 4  # C(1, 1) + C(3, 2)


class TestCompositionRanking:
    def test_k2_l2_enumeration(self):
        assert rank_composition(LatticePoint((0, 2), 2)).value == 0
        assert rank_composition(LatticePoint((1, 1), 2)).value == 1
        assert rank_composition(LatticePoint((2, 0), 2)).value == 2

    def test_k3_l1_unit_vectors(self):
        points = [LatticePoint(c, 1) for c in ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
        ranks = [rank_composition(pt).value for pt in points]
        assert ranks == [0, 1, 2]
        for r, pt in zip(ranks, points):
            assert unrank_composition(r, 3, 1) == pt

    def test_k3_l5_against_enumeration(self):
        oracle = enumerate_compositions(3, 5)
        assert len(oracle) == 21 == composition_count(3, 5)
        idx = rank_composition(LatticePoint((1, 3, 1), 5))
        assert oracle[idx.value] == (1, 3, 1)
        assert 0 <= idx.value < 21
        assert unrank_composition(idx.value, 3, 5).counts == (1, 3, 1)

    def test_exhaustive_roundtrip_k4_l6(self):
        oracle = enumerate_compositions(4, 6)
        assert len(oracle) == 84
        for expected_rank, counts in enumerate(oracle):
            pt = LatticePoint(counts, 6)
            idx = rank_composition(pt)
            assert idx.value == expected_rank
            assert unrank_composition(idx.value, 4, 6) == pt

    def test_empty_space_refused(self):
        # (0, 3, 0) used to give LatticePoint((0, 0, 0), 0), which lq_decode
        # turned into NaN. The rule is composition_count_bits'.
        for k, total in ((3, 0), (0, 5), (0, 0), (-1, 5)):
            with pytest.raises(ValueError, match="need k >= 1 and total >= 1"):
                composition_count_bits(k, total)
            with pytest.raises(ValueError, match="need k >= 1 and total >= 1"):
                unrank_composition(0, k, total)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank_composition(composition_count(2, 2), 2, 2)
        with pytest.raises(IndexOutOfRange):
            unrank_composition(-1, 2, 2)

    def test_index_out_of_range_past_printable_digits(self):
        # The count has more than Python's 4300 printable digits: the refusal
        # used to raise ValueError while formatting its message.
        top = composition_count(1352, 759025)
        with pytest.raises(IndexOutOfRange, match=r"^index <14285-bit integer> outside \[0, <14285-bit"):
            unrank_composition(top, 1352, 759025)
        with pytest.raises(IndexOutOfRange, match="^value <16001-bit integer> does not fit in 16000"):
            LexIndex(1 << 16000, 16000)

    def test_large_space_spot_roundtrip(self):
        rng = np.random.default_rng(11)
        k, total = 40, 100
        cardinality = composition_count(k, total)
        for _ in range(25):
            value = int(rng.integers(0, 1 << 62)) % cardinality
            pt = unrank_composition(value, k, total)
            assert sum(pt.counts) == total
            assert rank_composition(pt).value == value


class TestMatchesBisectionOracle:
    """The composition ranks agree with a binary search over fresh binomials."""

    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
    def test_random_points(self, k):
        rng = np.random.default_rng(100 + k)
        samples = 1 if k == 1000 else 20
        for _ in range(samples):
            total = int(rng.integers(1, 100_001))
            value = int(rng.integers(0, 1 << 62)) % composition_count(k, total)
            pt = unrank_composition(value, k, total)
            assert pt.counts == bisect_unrank_composition(value, k, total)
            assert rank_composition(pt).value == value
            assert bisect_rank_composition(pt.counts, total) == value

    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
    def test_one_heavy_count(self, k):
        # Small counts around one large one: short gaps are scanned, the long one guessed.
        rng = np.random.default_rng(200 + k)
        for total, heavy in itertools.product((5 * k, 50 * k, 100_000), (0, k // 2)):
            counts = [int(c) for c in rng.integers(0, 3, size=k)]
            counts[heavy] += total - sum(counts)
            pt = LatticePoint(tuple(counts), total)
            value = rank_composition(pt).value
            assert value == bisect_rank_composition(pt.counts, total)
            assert unrank_composition(value, k, total) == pt

    def test_numpy_integers(self):
        counts = np.array([3, 0, 400, 97] + [0] * 60)
        pt = LatticePoint(tuple(counts), 500)
        value = rank_composition(pt).value
        assert value == bisect_rank_composition(tuple(int(c) for c in counts), 500)
        assert unrank_composition(value, np.int64(64), np.int64(500)) == pt

    def test_large_roundtrip_k1000_ell5000(self):
        rng = np.random.default_rng(15)
        k, total = 1000, 5000
        cardinality = composition_count(k, total)
        for _ in range(5):
            value = int.from_bytes(rng.bytes(500), "big") % cardinality
            idx = rank_composition(unrank_composition(value, k, total))
            assert idx.value == value
            assert idx.bit_width == composition_count_bits(k, total)
            assert int.from_bytes(idx.to_bytes(), "big") == value


class TestSubsetRanking:
    def test_k3_pairs(self):
        expected = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
        for subset, rank in expected.items():
            assert rank_subset(PositionSet(subset, 3)).value == rank

    def test_exhaustive_k5_size2(self):
        oracle = enumerate_subsets_colex(5, 2)
        assert len(oracle) == 10
        for expected_rank, subset in enumerate(oracle):
            idx = rank_subset(PositionSet(subset, 5))
            assert idx.value == expected_rank
            assert unrank_subset(idx.value, 5, 2).indices == subset

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank_subset(10, 5, 2)
        cardinality = math.comb(20000, 10000)
        with pytest.raises(IndexOutOfRange, match=r"outside \[0, <19993-bit integer>\)$"):
            unrank_subset(cardinality, 20000, 10000)

    def test_large_space_spot_roundtrip(self):
        rng = np.random.default_rng(12)
        k, size = 200, 12
        cardinality = math.comb(k, size)
        for _ in range(25):
            value = int(rng.integers(0, 1 << 62)) % cardinality
            s = unrank_subset(value, k, size)
            assert rank_subset(s).value == value


class TestMatchesSubsetBisectionOracle:
    """The scan and guess unrank agrees with a binary search over fresh binomials."""

    @pytest.mark.parametrize("k, size", [(1000, 10), (10**5, 20), (40, 36), (100, 5), (447, 2)])
    def test_spaces(self, k, size):
        rng = np.random.default_rng(k + size)
        cardinality = math.comb(k, size)
        values = [0, 1, cardinality // 2, cardinality - 1]
        values += [int.from_bytes(rng.bytes(48), "big") % cardinality for _ in range(40)]
        for value in values:
            s = unrank_subset(value, k, size)
            assert s.indices == bisect_unrank_subset(value, k, size)
            assert PositionSet(s.indices, k) == s
            idx = rank_subset(s)
            assert idx.value == value
            assert idx.bit_width == subset_count_bits(k, size)

    def test_numpy_arguments(self):
        s = unrank_subset(np.int64(123_456), np.int64(1000), np.int32(3))
        assert s.indices == bisect_unrank_subset(123_456, 1000, 3)
        assert all(type(i) is int for i in (*s.indices, s.dimension))


class TestBitWidths:
    def test_small_composition_space(self):
        assert composition_count_bits(3, 5) == 5  # 21 points

    def test_single_part_needs_no_bits(self):
        for total in (1, 7, 1000):
            assert composition_count_bits(1, total) == 0

    def test_power_of_two_boundary(self):
        # 8 compositions of 7 into 2 parts: exactly 3 bits, not 4.
        assert composition_count(2, 7) == 8
        assert composition_count_bits(2, 7) == 3
        assert subset_count_bits(8, 1) == 3

    def test_matches_exact_big_integer_log(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            total = int(rng.integers(1, 400))
            exact = (composition_count(k, total) - 1).bit_length()
            assert composition_count_bits(k, total) == exact
        for _ in range(200):
            k = int(rng.integers(1, 300))
            size = int(rng.integers(0, k + 1))
            exact = (math.comb(k, size) - 1).bit_length()
            assert subset_count_bits(k, size) == exact

    def test_huge_space_matches_exact(self):
        k, total = 1000, 10**6
        exact = (composition_count(k, total) - 1).bit_length()
        assert composition_count_bits(k, total) == exact

    @pytest.mark.parametrize("k, total", [
        (2, 2**25), (3, 2**29), (4, 10070227034149), (5, 2**53), (10, 1551891400191),
        (100, 14369778015276), (1000, 4378044529112),
    ])
    def test_large_totals_match_exact(self, k, total):
        # A width estimated from log-gamma terms near total * log(total) lost
        # bits to their rounding here (5 at 2**53: 185 for 208); the count is exact.
        exact = (composition_count(k, total) - 1).bit_length()
        assert composition_count_bits(k, total) == exact

    def test_log2_comb_accuracy(self):
        assert log2_comb(299, 49) == pytest.approx(
            math.log2(math.comb(299, 49)), rel=1e-12
        )

    def test_log2_comb_on_repeated_values_equals_scalar(self):
        # Arrays are evaluated once per run of equal n, then spread back.
        ints = np.random.default_rng(48).integers(10, 60, size=(4, 200))
        big = np.array([2**62, 2**70, 2**62, 11], dtype=object)
        for n in (ints, big):
            got = log2_comb(n, 7)
            assert got.shape == n.shape
            assert got.ravel().tolist() == [log2_comb(v, 7) for v in n.ravel().tolist()]

    def test_log2_comb_runs_give_the_bits_of_a_sorted_dedup(self):
        def by_unique(n, r):
            distinct, where = np.unique(n, return_inverse=True)
            bits = (lgamma(distinct + 1) - lgamma(r + 1) - lgamma(distinct - r + 1)) / math.log(2)
            return bits[where].reshape(n.shape)

        budget = BudgetFn(Scheme.LQ, 100)
        row = budget.ell(beta_s_grid(0.3, budget)) + 99
        # One row per beta_t, as sweep_beta_t lays them out.
        grid = budget.ell(beta_s_grid(np.array([0.05, 0.2, 0.5]), budget, 400)) + 99
        shuffled = np.random.default_rng(49).permutation(row)
        for n in (row, grid, shuffled, row[:0]):
            assert log2_comb(n, 99).tobytes() == by_unique(n, 99).tobytes()


class TestLexIndexSerialization:
    def test_big_endian_layout(self):
        assert LexIndex(0x0102, 16).to_bytes() == b"\x01\x02"
        assert LexIndex(5, 12).to_bytes() == b"\x00\x05"

    def test_zero_width(self):
        assert LexIndex(0, 0).to_bytes() == b""

    def test_roundtrip_random(self):
        # Readers take the index back with int.from_bytes; the LQ and SLQ
        # readers check the length and the range (test_quantizers).
        rng = np.random.default_rng(14)
        for _ in range(200):
            width = int(rng.integers(1, 200))
            value = int(rng.integers(0, 1 << 62)) % (1 << width)
            data = LexIndex(value, width).to_bytes()
            assert len(data) == (width + 7) // 8
            assert int.from_bytes(data, "big") == value

    def test_value_must_fit_width(self):
        with pytest.raises(IndexOutOfRange):
            LexIndex(4, 2)


class TestExhaustiveBijection:
    """Rank and unrank invert each other on every space small enough to enumerate."""

    def test_compositions(self):
        for k in range(1, 6):
            for total in range(1, 9):
                if composition_count(k, total) > 3000:
                    continue
                oracle = enumerate_compositions(k, total)
                for expected_rank, counts in enumerate(oracle):
                    idx = rank_composition(LatticePoint(counts, total))
                    assert idx.value == expected_rank
                    assert unrank_composition(idx.value, k, total).counts == counts

    def test_subsets(self):
        for k in range(1, 13):
            for size in range(0, k + 1):
                oracle = enumerate_subsets_colex(k, size)
                for expected_rank, subset in enumerate(oracle):
                    idx = rank_subset(PositionSet(subset, k))
                    assert idx.value == expected_rank
                    assert unrank_subset(idx.value, k, size).indices == subset
