import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latdist
from latdist.budget import BudgetFn, Scheme, budget_slq
from latdist.codec import (
    LatticePoint,
    PositionSet,
    composition_count,
    composition_count_bits,
    subset_count_bits,
    unrank_composition,
    unrank_subset,
)
from latdist.errors import DimensionMismatch, DomainError, IndexOutOfRange, SumMismatch
from latdist.prob import ProbVector, tv_distance
from latdist.quantizers import (
    LQCoder,
    SLQCoder,
    SLQEncoding,
    UQEncoding,
    lq_decode,
    lq_encode,
    lq_from_payload,
    lq_payload,
    round_to_lattice,
    slq_counts,
    slq_decode,
    slq_encode,
    top_indices,
    uq_bins,
    uq_decode,
    uq_encode,
    uq_midpoints,
)


K100_ROWS = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "vectors_k100.jsonl").read_text().splitlines()
]


def enumerate_compositions(k, total):
    return [
        c for c in itertools.product(range(total + 1), repeat=k) if sum(c) == total
    ]


def brute_force_best_tv(p, ell):
    """Independent oracle: minimum TV to any lattice point, by full enumeration."""
    return min(
        0.5 * sum(abs(c / ell - x) for c, x in zip(counts, p.values))
        for counts in enumerate_compositions(p.k, ell)
    )


class TestUniform:
    def test_half_half_one_bit(self):
        enc = uq_encode(ProbVector([0.5, 0.5]), 1)
        assert enc.bin_ids == (1, 1)
        decoded = uq_decode(enc)
        assert np.array_equal(decoded.values, [0.5, 0.5])
        assert tv_distance(ProbVector([0.5, 0.5]), decoded) == 0.0

    def test_one_maps_to_top_bin(self):
        enc = uq_encode(ProbVector([1.0, 0.0]), 3)
        assert enc.bin_ids == (7, 0)

    def test_eight_bit_error_within_budget_solved_from_width(self):
        # A width j corresponds to source distortion k * 2**(-j/2).
        p = ProbVector([0.3, 0.7])
        decoded = uq_decode(uq_encode(p, 8))
        assert tv_distance(p, decoded) <= 2 * 2 ** (-4)

    def test_prescribed_budget_randomized(self):
        rng = np.random.default_rng(21)
        k, beta_s = 10, 0.05
        j = BudgetFn(Scheme.UQ, k).coder(beta_s).bits_per_entry
        for _ in range(2000):
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            assert tv_distance(p, uq_decode(uq_encode(p, j))) <= beta_s

    def test_payload_bits(self):
        # Width 7 at beta_s = 0.2, since 2 log2(2 / 0.2) = 6.6: two entries send 14 bits.
        budget = BudgetFn(Scheme.UQ, 2)
        assert budget.coder(0.2).bits_per_entry == 7
        assert budget.bits_int(0.2) == 14

    def test_bytes_roundtrip(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            k = int(rng.integers(2, 20))
            j = int(rng.integers(1, 17))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            enc = uq_encode(p, j)
            data = enc.to_bytes()
            assert len(data) == (k * j + 7) // 8
            assert UQEncoding.from_bytes(data, k, j) == enc

    def test_payload_bytes_pinned(self):
        enc = uq_encode(ProbVector([0.18, 0.52, 0.3]), 5)
        assert enc.to_bytes().hex() == "2c12"
        assert UQEncoding.from_bytes(bytes.fromhex("2c12"), 3, 5) == enc

    def test_nonzero_padding_refused(self):
        # Three 3-bit fields leave 7 padding bits; ffff used to decode as ff80 does.
        assert UQEncoding.from_bytes(bytes.fromhex("ff80"), 3, 3).bin_ids == (7, 7, 7)
        with pytest.raises(IndexOutOfRange):
            UQEncoding.from_bytes(bytes.fromhex("ffff"), 3, 3)

    @pytest.mark.parametrize("data", [b"", b"\x00"])
    def test_negative_k_refused(self, data):
        # An empty payload matched the 0 bytes that k=-1 implied, and numpy
        # then refused the negative dimension with a bare ValueError.
        with pytest.raises(DimensionMismatch, match="got -1"):
            UQEncoding.from_bytes(data, -1, 5)

    def test_rejects_zero_width(self):
        with pytest.raises(DomainError):
            uq_encode(ProbVector([0.5, 0.5]), 0)

    @pytest.mark.parametrize("j", [63, 64, 70])
    def test_widths_above_62_refused(self, j):
        # At 63 bits uq_encode refused the bin id it had just made; from 64
        # the int64 cast raised OverflowError.
        p = ProbVector([1.0, 0.0])
        for make in (
            lambda: uq_encode(p, j), lambda: uq_bins(p.values, j), lambda: UQEncoding((0, 0), j)
        ):
            with pytest.raises(DomainError, match="<= 62"):
                make()

    def test_widest_width_roundtrips(self):
        enc = uq_encode(ProbVector([1.0, 0.0]), 62)
        assert enc.bin_ids == (2**62 - 1, 0)
        assert UQEncoding.from_bytes(enc.to_bytes(), 2, 62) == enc

    def test_large_k_payload_pinned(self):
        # k=5000 at the budget's width for beta_s = 0.05: 34-bit fields, each
        # straddling byte boundaries.
        k = 5000
        j = BudgetFn(Scheme.UQ, k).coder(0.05).bits_per_entry
        assert j == 34
        p = ProbVector(np.random.default_rng(k).standard_exponential(k), normalize=True)
        enc = uq_encode(p, j)
        payload = enc.to_bytes()
        assert len(payload) == (k * j + 7) // 8
        assert hashlib.sha256(payload).hexdigest() == (
            "5b0fa7ee2c0997237daab7bd7a719c0efa4f95f2e2f61cbd981c778e493746c2"
        )
        assert UQEncoding.from_bytes(payload, k, j) == enc

    def test_large_k_roundtrip(self):
        # k = 10^5 at 42 bits per entry: 525,000 payload bytes.
        k = 100_000
        j = BudgetFn(Scheme.UQ, k).coder(0.05).bits_per_entry
        assert j == 42
        p = ProbVector(np.random.default_rng(k).standard_exponential(k), normalize=True)
        enc = uq_encode(p, j)
        data = enc.to_bytes()
        assert len(data) == k * j // 8
        assert hashlib.sha256(data).hexdigest() == (
            "97ba447fbca551fd7873bdb16f99d50ec1271a2a8daa02c223c20a61e7a375da"
        )
        back = UQEncoding.from_bytes(data, k, j)
        assert back == enc
        assert uq_decode(back) == uq_decode(enc)


class TestLattice:
    def test_worked_example_with_intermediates(self):
        p = ProbVector([0.18, 0.52, 0.3])
        point = lq_encode(p, 5)
        assert tuple(round_to_lattice(p.values, 5)) == point.counts == (1, 3, 1)
        assert np.array_equal(lq_decode(point).values, np.array([1, 3, 1]) / 5)

    def test_rows_round_as_vectors(self):
        # Dyadic rows give exact residual ties: oversum (0.5, 0.5), undersum
        # (-0.25 four times), and rows already on the lattice of 4.
        exact = np.array([
            [0.125, 0.125, 0.75, 0.0],
            [5 / 16, 5 / 16, 5 / 16, 1 / 16],
            [0.25, 0.25, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        rng = np.random.default_rng(26)
        drawn = rng.standard_exponential((300, 4)) ** 3
        drawn /= drawn.sum(axis=1, keepdims=True)
        signs = set()
        for ell, rows in ((4, exact), (3, drawn), (7, drawn), (50, drawn)):
            whole = round_to_lattice(rows, ell)
            for row, counts in zip(rows, whole):
                assert np.array_equal(counts, round_to_lattice(row, ell))
            # Whether each row's initial counts floor(ell * p + 1/2) over- or undersum.
            initial = np.floor(rows * ell + 0.5).sum(axis=1)
            signs.update(np.sign(initial - ell).astype(int).tolist())
            assert (whole.sum(axis=1) == ell).all()
        assert signs == {-1, 0, 1}
        assert round_to_lattice(exact, 4).tolist() == [
            [0, 1, 3, 0], [2, 1, 1, 0], [1, 1, 2, 0], [0, 0, 0, 4],
        ]

    @pytest.mark.parametrize("values, denominator, miss", [
        ([0.25, 0.25], 100, "by 50"),
        ([[0.5, 0.5], [0.0, 0.25]], 12, r"by \[0 9\]"),
        ([0.0, 0.0, 0.001], 1000, "by 999"),
    ])
    def test_counts_that_cannot_reach_the_denominator_refused(self, values, denominator, miss):
        # The correction moves each entry once: [0.25, 0.25] at 100 used to
        # come back as [26 26], which sums to 52.
        with pytest.raises(SumMismatch, match=f"miss the denominator {denominator} {miss}"):
            round_to_lattice(np.array(values), denominator)

    def test_negative_count_refused_also_without_asserts(self):
        # Initial counts (3, 0, 0) oversum the denominator 1 by 2, within one
        # move per entry, and the tie at residual 0 decrements the zero.
        code = (
            "import numpy as np; from latdist.quantizers import round_to_lattice; "
            "round_to_lattice(np.array([3.0, 0.0, 0.0]), 1)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(latdist.__file__).resolve().parents[1])}
        for flags in ([], ["-O"]):
            run = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 1
            assert "DomainError: values must be nonnegative and sum to 1" in run.stderr

    def test_lattice_point_is_fixed(self):
        p = ProbVector([0.2, 0.6, 0.2])
        point = lq_encode(p, 5)
        assert point.counts == (1, 3, 1)
        assert tv_distance(p, lq_decode(point)) <= 1e-12

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            ell = int(rng.integers(1, 13))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            tv = tv_distance(p, lq_decode(lq_encode(p, ell)))
            assert tv <= brute_force_best_tv(p, ell) + 1e-12

    def test_distortion_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            k = int(rng.integers(2, 65))
            ell = int(rng.integers(1, 513))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            tv = tv_distance(p, lq_decode(lq_encode(p, ell)))
            assert tv <= k / (4 * ell) + 1e-12
            if k % 2 == 1:
                a = k // 2
                assert 2 * tv <= 2 * a * (k - a) / (k * ell) + 1e-12

    def test_idempotent_on_lattice_points(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            ell = int(rng.integers(1, 40))
            counts = np.bincount(rng.integers(0, k, size=ell), minlength=k)
            point = LatticePoint(tuple(int(c) for c in counts), ell)
            assert lq_encode(lq_decode(point), ell) == point

    def test_payload_roundtrip(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            ell = int(rng.integers(1, 30))
            point = lq_encode(ProbVector(rng.standard_exponential(k), normalize=True), ell)
            assert lq_from_payload(lq_payload(point), k, ell) == point

    def test_payload_bytes_pinned(self):
        # k=100, ell=500 with one heavy class: these bytes are the wire format.
        counts = [(37 * i) % 5 for i in range(100)]
        counts[17] += 500 - sum(counts)
        point = LatticePoint(tuple(counts), 500)
        payload = lq_payload(point)
        assert payload.hex() == (
            "073245bc941774b94272fdc50debc26e859e49e6d7aa3660"
            "cb06ee37c44e9b0cd9d5bde408b1a5a8e8cd4f2b15afbe9d"
        )
        assert lq_from_payload(payload, 100, 500) == point

    @pytest.mark.parametrize("k, ell, digest", [
        (1000, 5000, "a63ee374d3f80204089a9afa3225119c7dfaefb7fb3e0226cfc1cf690d336a38"),
        (5000, 25000, "dd8dfec831728b44ddd9b210cd4b9d4d853f78ef5e20950e44a4d7294c65af3d"),
    ])
    def test_large_k_payload_pinned(self, k, ell, digest):
        # Past k=1000 no oracle is fast enough to compare with, so the wire
        # bytes of one seeded point per size are pinned by their digest.
        p = ProbVector(np.random.default_rng(k).standard_exponential(k), normalize=True)
        point = lq_encode(p, ell)
        payload = lq_payload(point)
        assert len(payload) == (composition_count_bits(k, ell) + 7) // 8
        assert hashlib.sha256(payload).hexdigest() == digest
        assert lq_from_payload(payload, k, ell) == point

    @pytest.mark.parametrize("k, ell", [(3, 5), (100, 500), (1000, 5000), (3, 2**53)])
    def test_index_beyond_lattice_refused(self, k, ell):
        # Right length, index at or beyond the lattice size: the boundary's own check.
        width = (composition_count_bits(k, ell) + 7) // 8
        cardinality = composition_count(k, ell)
        assert int.from_bytes(b"\xff" * width, "big") >= cardinality
        for data in (b"\xff" * width, cardinality.to_bytes(width, "big")):
            with pytest.raises(IndexOutOfRange):
                lq_from_payload(data, k, ell)

    @pytest.mark.parametrize("k, ell", [(3, 5), (100, 500)])
    def test_wrong_length_refused(self, k, ell):
        payload = lq_payload(lq_encode(ProbVector(np.ones(k), normalize=True), ell))
        for data in (payload[:-1], payload + b"\x00", b""):
            with pytest.raises(IndexOutOfRange):
                lq_from_payload(data, k, ell)

    def test_integer_denominator_only(self):
        # A float denominator used to give a point that only failed later, on the wire.
        p = ProbVector([0.2, 0.3, 0.5])
        for denominator in (10.0, np.float64(7), 0, np.int64(0)):
            with pytest.raises(DomainError):
                lq_encode(p, denominator)
            with pytest.raises(DomainError):
                slq_encode(p, 2, denominator)
        assert lq_encode(p, np.int64(10)) == LatticePoint((2, 3, 5), 10)

    def test_denominator_at_float_limit_roundtrips(self):
        # Float64 counts exactly up to 2**53: each vector's counts sum to it,
        # and its LQ and SLQ payloads decode to the same points.
        for row in K100_ROWS + [[0.18, 0.52, 0.3]]:
            p = ProbVector(row, normalize=True)
            point = lq_encode(p, 2**53)
            assert sum(point.counts) == 2**53
            assert lq_from_payload(lq_payload(point), p.k, 2**53) == point
            k_top = min(5, p.k - 1)
            enc = slq_encode(p, k_top, 2**53)
            assert SLQEncoding.from_bytes(enc.to_bytes(), p.k, k_top, 2**53) == enc

    def test_scaled_entries_from_2_52_keep_their_sum(self):
        # From 2**52 every float is an integer, and floor(x + 1/2) rounded an
        # odd x up to even: these counts summed to 2**53 + 1. The SLQ property
        # test below keeps the vector that showed it as an example.
        kept = np.array([0.4615548663895384, 0.5384451336104618])
        for rows in (kept, kept[None]):
            assert round_to_lattice(rows, 2**53).sum() == 2**53

    @pytest.mark.parametrize("ell", [2**53 + 1, 2_500_000_000_000_000_000, 2**63, 2**70])
    def test_denominator_beyond_float_limit_refused(self, ell):
        # At 2.5e18, BudgetFn("lq", 100).ell(1e-17), the first k=100 vector's
        # counts summed to ell - 29 and its payload decoded to another point;
        # from 2**63 the int64 cast raised OverflowError.
        p = ProbVector(K100_ROWS[0], normalize=True)
        for encode in (
            lambda: round_to_lattice(p.values, ell),
            lambda: lq_encode(p, ell),
            lambda: slq_encode(p, 5, ell),
        ):
            with pytest.raises(DomainError, match=r"<= 2\*\*53"):
                encode()

    def test_degenerate_vertex(self):
        point = LatticePoint((5, 0, 0), 5)
        assert np.array_equal(lq_decode(point).values, [1.0, 0.0, 0.0])


class TestSparseLattice:
    def test_worked_example(self):
        p = ProbVector([0.05, 0.5, 0.05, 0.4])
        enc = slq_encode(p, 2, 10)
        assert enc.positions.indices == (1, 3)
        decoded = slq_decode(enc)
        assert np.allclose(decoded.values, [0.0, 0.6, 0.0, 0.4])
        # Retained entries renormalize to [5/9, 4/9] before lattice rounding.
        bits = math.ceil(math.log2(math.comb(4, 2))) + math.ceil(math.log2(composition_count(2, 10)))
        assert subset_count_bits(4, 2) + composition_count_bits(2, 10) == bits

    def test_full_retention_costs_no_position_bits(self):
        p = ProbVector([0.18, 0.52, 0.3])
        enc = slq_encode(p, 3, 5)
        # The position term is log2 C(3,3) = 0.
        assert subset_count_bits(3, 3) + composition_count_bits(3, 5) == 5
        assert np.array_equal(slq_decode(enc).values, lq_decode(lq_encode(p, 5)).values)

    def test_uniform_tie_break_keeps_lowest_index(self):
        p = ProbVector([0.25, 0.25, 0.25, 0.25])
        enc = slq_encode(p, 1, 7)
        assert enc.positions.indices == (0,)
        assert np.array_equal(slq_decode(enc).values, [1.0, 0.0, 0.0, 0.0])

    def test_retained_positions_tie_break(self):
        p = ProbVector([0.3, 0.1, 0.3, 0.3])
        assert slq_encode(p, 2, 10).positions.indices == (0, 2)

    def test_roundtrip_on_own_output(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            k = int(rng.integers(3, 12))
            k_top = int(rng.integers(1, k))
            ell = int(rng.integers(k_top, 40))
            # Strictly positive retained counts so re-encoding sees the same support.
            extra = np.bincount(rng.integers(0, k_top, size=ell - k_top), minlength=k_top)
            counts = tuple(int(c) + 1 for c in extra)
            positions = tuple(sorted(rng.choice(k, size=k_top, replace=False).tolist()))
            values = np.zeros(k)
            values[list(positions)] = np.array(counts) / ell
            q = ProbVector(values)
            enc = slq_encode(q, k_top, ell)
            assert enc.positions.indices == positions
            assert slq_encode(slq_decode(enc), k_top, ell) == enc

    def test_decomposition_bound(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            k = int(rng.integers(4, 20))
            k_top = int(rng.integers(1, k))
            ell = int(rng.integers(1, 50))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            enc = slq_encode(p, k_top, ell)
            q_slq = slq_decode(enc)
            selected = p.values[list(enc.positions.indices)]
            tail = 1.0 - float(selected.sum())
            normalized = np.zeros(k)
            normalized[list(enc.positions.indices)] = selected / selected.sum()
            q_bar = ProbVector(normalized)
            assert tv_distance(p, q_bar) <= tail + 1e-12
            assert tv_distance(p, q_slq) <= (
                tv_distance(p, q_bar) + tv_distance(q_bar, q_slq) + 1e-12
            )

    def test_prescribed_budget_with_tail_controlled_inputs(self):
        rng = np.random.default_rng(29)
        k, k_top, delta, beta_s = 12, 4, 0.01, 0.08
        ell, _ = budget_slq(k, k_top, delta, beta_s)
        for _ in range(500):
            heavy = rng.standard_exponential(k_top)
            light = rng.standard_exponential(k - k_top)
            tail = rng.uniform(0, delta)
            values = np.concatenate(
                [(1 - tail) * heavy / heavy.sum(), tail * light / light.sum()]
            )
            p = ProbVector(values[rng.permutation(k)])
            q = slq_decode(slq_encode(p, k_top, ell))
            assert tv_distance(p, q) <= beta_s + 1e-12

    def test_bytes_roundtrip(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            k = int(rng.integers(3, 15))
            k_top = int(rng.integers(1, k + 1))
            ell = int(rng.integers(1, 30))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            enc = slq_encode(p, k_top, ell)
            assert SLQEncoding.from_bytes(enc.to_bytes(), k, k_top, ell) == enc

    def test_metadata_dimension_mismatch(self):
        # The sizes live in the position set and the point; only their counts can disagree.
        enc = slq_encode(ProbVector([0.05, 0.5, 0.05, 0.4]), 2, 10)
        with pytest.raises(DimensionMismatch):
            SLQEncoding(positions=enc.positions, point=LatticePoint((3, 3, 4), 10))

    # (vector, k_top, ell, payload hex): subset index bytes, then composition index bytes.
    PINNED = {
        "k4": ([0.05, 0.5, 0.05, 0.4], 2, 10, "0406"),
        "k1000": (np.arange(1, 1001.0) ** 4, 10, 2000,
                  "37c775fc947f69cac48f00b8dcb98e8f5812e04c17"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_payload_bytes_pinned(self, case):
        values, k_top, ell, payload = self.PINNED[case]
        p = ProbVector(values, normalize=True)
        enc = slq_encode(p, k_top, ell)
        assert enc.to_bytes().hex() == payload
        assert SLQEncoding.from_bytes(bytes.fromhex(payload), p.k, k_top, ell) == enc

    def test_k_top_out_of_range(self):
        with pytest.raises(DomainError):
            slq_encode(ProbVector([0.5, 0.5]), 3, 10)

    @pytest.mark.parametrize("k, k_top, ell", [(4, 2, 10), (1000, 10, 63)])
    def test_index_beyond_its_set_refused(self, k, k_top, ell):
        # Right length, subset or lattice index at or beyond its set size.
        subset_bytes = (subset_count_bits(k, k_top) + 7) // 8
        comp_bytes = (composition_count_bits(k_top, ell) + 7) // 8
        subsets, points = math.comb(k, k_top), composition_count(k_top, ell)
        zero = bytes(subset_bytes + comp_bytes)
        for data in (
            b"\xff" * len(zero),
            b"\xff" * subset_bytes + bytes(comp_bytes),
            bytes(subset_bytes) + b"\xff" * comp_bytes,
            subsets.to_bytes(subset_bytes, "big") + bytes(comp_bytes),
            bytes(subset_bytes) + points.to_bytes(comp_bytes, "big"),
        ):
            with pytest.raises(IndexOutOfRange):
                SLQEncoding.from_bytes(data, k, k_top, ell)
        assert SLQEncoding.from_bytes(zero, k, k_top, ell).positions.indices == tuple(range(k_top))

    def test_large_k_roundtrip(self):
        # k = 10^5, k_top = 20: the big-integer paths of both indices.
        k, k_top = 100_000, 20
        ell, bits = budget_slq(k, k_top, 0.01, 0.05)
        rng = np.random.default_rng(33)
        for _ in range(3):
            p = ProbVector(rng.standard_exponential(k) ** 4, normalize=True)
            enc = slq_encode(p, k_top, ell)
            expected = np.sort(np.argsort(-p.values, kind="stable")[:k_top])
            assert enc.positions.indices == tuple(expected.tolist())
            data = enc.to_bytes()
            subset_bits = subset_count_bits(k, k_top)
            comp_bits = composition_count_bits(k_top, ell)
            assert subset_bits + comp_bits == bits
            assert len(data) == (subset_bits + 7) // 8 + (comp_bits + 7) // 8
            back = SLQEncoding.from_bytes(data, k, k_top, ell)
            assert back == enc
            assert slq_decode(back) == slq_decode(enc)


class TestRowwiseRules:
    """Each rule gives on a matrix exactly what it gives on each row alone."""

    # Dyadic rows: entries on UQ bin edges, exact lattice residual ties, and
    # equal entries straddling the k_top = 2 boundary.
    EXACT = np.array([
        [0.25, 0.125, 0.25, 0.125, 0.25],
        [0.5, 0.25, 0.25, 0.0, 0.0],
        [0.125, 0.125, 0.125, 0.125, 0.5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.2, 0.2, 0.2, 0.2, 0.2],
    ])

    @classmethod
    def rows(cls):
        drawn = np.random.default_rng(31).standard_exponential((200, 5)) ** 3
        return np.concatenate([cls.EXACT, drawn / drawn.sum(axis=1, keepdims=True)])

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_uq_bins_and_midpoints(self, j):
        rows = self.rows()
        ids = uq_bins(rows, j)
        for row, row_ids, row_mid in zip(rows, ids, uq_midpoints(ids, j)):
            assert np.array_equal(row_ids, uq_bins(row, j))
            assert np.array_equal(row_mid, uq_midpoints(tuple(row_ids.tolist()), j))
        assert uq_bins(self.EXACT[1], 2).tolist() == [2, 1, 1, 0, 0]
        assert uq_bins(self.EXACT[3], 2).tolist() == [0, 0, 0, 0, 3]

    @pytest.mark.parametrize("k_top", [1, 2, 4, 5])
    @pytest.mark.parametrize("ell", [1, 3, 8])
    def test_top_indices_and_slq_counts(self, k_top, ell):
        rows = self.rows()
        top = top_indices(rows, k_top)
        counts = slq_counts(np.take_along_axis(rows, top, axis=1), ell)
        for row, row_top, row_counts in zip(rows, top, counts):
            assert np.array_equal(row_top, top_indices(row, k_top))
            assert np.array_equal(row_counts, slq_counts(row[row_top], ell))
            assert row_counts.sum() == ell
        assert top_indices(self.EXACT, 2).tolist() == [
            [0, 2], [0, 1], [0, 4], [0, 4], [0, 1],
        ]
        # [0.5, 0.5] on the lattice of 3: the tied oversum drops the lower index.
        assert slq_counts(np.array([0.25, 0.25]), 3).tolist() == [1, 2]

    @pytest.mark.parametrize("k", [1, 2, 7, 100, 1000])
    def test_top_indices_matches_stable_sort(self, k):
        # The selection keeps what a stable sort by descending value keeps.
        rng = np.random.default_rng(34 + k)
        blocks = [
            rng.standard_exponential((30, k)),  # distinct values
            rng.integers(0, 4, (30, k)).astype(float),  # a grid of 4: heavy ties
            np.full((3, k), 1.0 / k),  # all equal
            np.where(rng.random((30, k)) < 0.5, 0.0, -0.0),  # signed zeros tie
        ]
        for block in blocks:
            for k_top in sorted({1, 2, k // 2, k - 1, k} & set(range(1, k + 1))):
                expected = np.sort(np.argsort(-block, axis=-1, kind="stable")[..., :k_top])
                got = top_indices(block, k_top)
                assert got.shape == expected.shape and np.array_equal(got, expected)
                for row, row_expected in zip(block, expected):
                    assert np.array_equal(top_indices(row, k_top), row_expected)

    def test_top_indices_range(self):
        for k_top in (0, 6):
            with pytest.raises(DomainError):
                top_indices(self.EXACT, k_top)


class TestDecodedVectorsMatchPublicConstructor:
    """The decoders keep the arrays they build; the values are the constructor's."""

    @pytest.mark.parametrize("k", [3, 1000, 100_000])
    def test_decoders(self, k):
        rng = np.random.default_rng(90 + k)
        k_top = min(k - 1, 20)
        for _ in range(4):
            p = ProbVector(rng.dirichlet(np.full(k, 0.05)))
            enc = uq_encode(p, 6)
            expected = ProbVector(uq_midpoints(enc.bin_ids, 6), normalize=True)
            assert np.array_equal(uq_decode(enc).values, expected.values)
            pt = lq_encode(p, 2 * k + 1)
            expected = ProbVector(np.array(pt.counts, dtype=float) / pt.denominator)
            assert np.array_equal(lq_decode(pt).values, expected.values)
            enc = slq_encode(p, k_top, 63)
            values = np.zeros(k)
            values[list(enc.positions.indices)] = np.array(enc.point.counts) / 63
            decoded = slq_decode(enc)
            assert np.array_equal(decoded.values, ProbVector(values).values)
            assert not decoded.values.flags.writeable


def _assert_index_space(count, width, unrank, last):
    """``width`` is the least number of bits that holds every index below ``count``;
    the last index unranks to ``last`` and ``count`` itself is refused."""
    assert count <= 1 << width and (width == 0 or count > 1 << (width - 1))
    assert unrank(count - 1) == last
    with pytest.raises(IndexOutOfRange):
        unrank(count)


def _assert_wire_round_trip(coder, p):
    """The payload decodes to the block decode's row, as a probability vector."""
    payload = coder.to_bytes(p)
    expected = ProbVector(coder.decode_rows(p.values[None])[0]).values
    assert np.array_equal(coder.from_bytes(payload).values, expected)
    return payload


def _source(seed, k):
    # Cubed exponentials: a spread of large and tiny entries, and ties at 0 in the lattice.
    drawn = np.random.default_rng(seed).standard_exponential(k) ** 3
    return ProbVector(drawn, normalize=True)


_SEEDS = st.integers(0, 2**32 - 1)
# Log-uniform denominators: as many examples near 2**53 as near 1.
_ELLS = st.integers(0, 53).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1)).map(
    lambda ell: min(ell, 2**53)
)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(2, 2000), ell=_ELLS, seed=_SEEDS)
@example(k=2, ell=2**53, seed=0)
@example(k=500, ell=2**53, seed=0)
@example(k=2000, ell=1, seed=0)
def test_lq_coder_at_large_k_and_ell(k, ell, seed):
    payload = _assert_wire_round_trip(LQCoder(k, ell), _source(seed, k))
    width = composition_count_bits(k, ell)
    assert len(payload) == (width + 7) // 8
    _assert_index_space(
        composition_count(k, ell), width,
        lambda i: unrank_composition(i, k, ell).counts, (ell,) + (0,) * (k - 1),
    )


@settings(max_examples=10, deadline=None)
@given(
    space=st.integers(2, 2000).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
    ell=_ELLS,
    seed=_SEEDS,
)
@example(space=(2000, 12), ell=2**53, seed=0)
@example(space=(99, 2), ell=2**53, seed=11689)
@example(space=(2000, 1000), ell=1, seed=0)
def test_slq_coder_at_large_k_and_ell(space, ell, seed):
    k, k_top = space
    payload = _assert_wire_round_trip(SLQCoder(k, k_top, ell), _source(seed, k))
    subset_width = subset_count_bits(k, k_top)
    lattice_width = composition_count_bits(k_top, ell)
    assert len(payload) == (subset_width + 7) // 8 + (lattice_width + 7) // 8
    _assert_index_space(
        math.comb(k, k_top), subset_width,
        lambda i: unrank_subset(i, k, k_top).indices, tuple(range(k - k_top, k)),
    )
    _assert_index_space(
        composition_count(k_top, ell), lattice_width,
        lambda i: unrank_composition(i, k_top, ell).counts, (ell,) + (0,) * (k_top - 1),
    )
