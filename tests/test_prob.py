import math

import numpy as np
import pytest

from latdist.errors import (
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    ZeroMass,
)
from latdist.prob import ProbVector, tv_distance


def random_point(rng, k):
    return ProbVector(rng.standard_exponential(k), normalize=True)


class TestConstruction:
    def test_accepts_normalized_input(self):
        p = ProbVector([0.18, 0.52, 0.3])
        assert np.allclose(p.values, [0.18, 0.52, 0.3])
        assert p.k == 3

    def test_normalize_divides_by_sum(self):
        p = ProbVector([2, 2], normalize=True)
        assert np.array_equal(p.values, [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            ProbVector([1, -0.1])
        with pytest.raises(NegativeEntry):
            ProbVector([1, -0.1], normalize=True)

    @pytest.mark.parametrize(
        "raw",
        [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0], [1e308, 1e308], [10**400, 1]],
    )
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rejected(self, raw, normalize):
        # [nan, 1] used to pass every check and become [nan, nan]. The sum of
        # [1e308, 1e308] used to overflow with a RuntimeWarning before the refusal.
        # An int past the float range used to escape as an OverflowError.
        with pytest.raises(NonFiniteEntry):
            ProbVector(raw, normalize=normalize)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMass):
            ProbVector([0.0, 0.0], normalize=True)

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(NotNormalized):
            ProbVector([0.5, 0.6])

    def test_sum_within_tolerance_is_renormalized(self):
        p = ProbVector([0.5, 0.5 + 5e-10])
        assert abs(p.values.sum() - 1.0) < 1e-15

    def test_requires_at_least_two_entries(self):
        with pytest.raises(DimensionMismatch):
            ProbVector([1.0])

    def test_zero_entries_allowed(self):
        p = ProbVector([1.0, 0.0])
        assert p[1] == 0.0

    def test_immutable(self):
        p = ProbVector([0.5, 0.5])
        with pytest.raises((ValueError, AttributeError)):
            p.values[0] = 0.9

    @pytest.mark.parametrize(
        "raw, normalize, error",
        [
            ([1.0, -0.1], True, NegativeEntry),
            ([math.nan, 1.0], False, NonFiniteEntry),
            ([0.0, 0.0], True, ZeroMass),
            ([0.5, 0.6], False, NotNormalized),
            ([[0.5, 0.5]], False, DimensionMismatch),
        ],
        ids=["negative", "nan", "zero-mass", "unnormalized", "2-d"],
    )
    def test_owned_array_checked_as_any_input(self, raw, normalize, error):
        with pytest.raises(error):
            ProbVector(raw, normalize=normalize)
        with pytest.raises(error):
            ProbVector(np.array(raw), normalize=normalize, _owned=True)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_owned_array_normalized_in_place(self, normalize):
        raw = np.array([0.25, 0.5, 0.25 + 4e-10]) * (3.0 if normalize else 1.0)
        expected = ProbVector(raw, normalize=normalize).values
        p = ProbVector(raw, normalize=normalize, _owned=True)
        assert p.values is raw and not raw.flags.writeable
        assert np.array_equal(p.values, expected)


class TestTvDistance:
    def test_identity(self):
        p = ProbVector([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_support(self):
        assert tv_distance(ProbVector([1, 0]), ProbVector([0, 1])) == 1.0

    def test_hand_sum(self):
        p = ProbVector([0.18, 0.52, 0.3])
        q = ProbVector([0.2, 0.6, 0.2])
        assert tv_distance(p, q) == pytest.approx(0.1, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(ProbVector([0.5, 0.5]), ProbVector([1, 0, 0]))

    def test_rows_measure_as_vectors(self):
        rng = np.random.default_rng(2)
        for k in (2, 9, 300):
            ps = [random_point(rng, k) for _ in range(40)]
            qs = [random_point(rng, k) for _ in range(40)]
            rows = tv_distance(np.array([p.values for p in ps]), np.array([q.values for q in qs]))
            assert rows.tolist() == [tv_distance(p, q) for p, q in zip(ps, qs)]
        with pytest.raises(DimensionMismatch):
            tv_distance(np.zeros((3, 2)), np.zeros((3, 4)))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = int(rng.integers(2, 30))
            p, q = random_point(rng, k), random_point(rng, k)
            d = tv_distance(p, q)
            assert d == tv_distance(q, p)
            assert 0.0 <= d <= 1.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            k = int(rng.integers(2, 20))
            p, q, r = (random_point(rng, k) for _ in range(3))
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
