import math

import numpy as np
import pytest

from latdist.errors import (
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    SupportMismatch,
    ZeroMass,
)
from latdist.prob import (
    Divergence,
    DivergenceKind,
    ProbVector,
    f_divergence,
    kl_divergence,
    make_prob_vector,
    tv_distance,
    tv_generator,
)


def random_point(rng, k):
    return ProbVector(rng.standard_exponential(k), normalize=True)


class TestConstruction:
    def test_accepts_normalized_input(self):
        p = make_prob_vector([0.18, 0.52, 0.3])
        assert np.allclose(p.values, [0.18, 0.52, 0.3])
        assert p.k == 3

    def test_normalize_divides_by_sum(self):
        p = make_prob_vector([2, 2], normalize=True)
        assert np.array_equal(p.values, [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            make_prob_vector([1, -0.1])
        with pytest.raises(NegativeEntry):
            make_prob_vector([1, -0.1], normalize=True)

    @pytest.mark.parametrize(
        "raw", [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0], [1e308, 1e308]]
    )
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # numpy, on the last sum
    def test_non_finite_rejected(self, raw, normalize):
        # [nan, 1] used to pass every check and become [nan, nan].
        with pytest.raises(NonFiniteEntry):
            make_prob_vector(raw, normalize=normalize)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMass):
            make_prob_vector([0.0, 0.0], normalize=True)

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(NotNormalized):
            make_prob_vector([0.5, 0.6])

    def test_sum_within_tolerance_is_renormalized(self):
        p = make_prob_vector([0.5, 0.5 + 5e-10])
        assert abs(p.values.sum() - 1.0) < 1e-15

    def test_requires_at_least_two_entries(self):
        with pytest.raises(DimensionMismatch):
            make_prob_vector([1.0])

    def test_zero_entries_allowed(self):
        p = make_prob_vector([1.0, 0.0])
        assert p[1] == 0.0

    def test_immutable(self):
        p = make_prob_vector([0.5, 0.5])
        with pytest.raises((ValueError, AttributeError)):
            p.values[0] = 0.9


class TestTvDistance:
    def test_identity(self):
        p = make_prob_vector([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_support(self):
        assert tv_distance(make_prob_vector([1, 0]), make_prob_vector([0, 1])) == 1.0

    def test_hand_sum(self):
        p = make_prob_vector([0.18, 0.52, 0.3])
        q = make_prob_vector([0.2, 0.6, 0.2])
        assert tv_distance(p, q) == pytest.approx(0.1, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance(make_prob_vector([0.5, 0.5]), make_prob_vector([1, 0, 0]))

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


class TestFDivergence:
    def test_tv_generator_matches_tv_distance_on_example(self):
        p = make_prob_vector([0.18, 0.52, 0.3])
        q = make_prob_vector([0.2, 0.6, 0.2])
        assert f_divergence(p, q, tv_generator) == pytest.approx(0.1, abs=1e-12)

    def test_tv_generator_matches_tv_distance_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 15))
            p, q = random_point(rng, k), random_point(rng, k)
            assert f_divergence(p, q, tv_generator) == pytest.approx(
                tv_distance(p, q), abs=1e-12
            )

    def test_zero_at_equality(self):
        p = make_prob_vector([0.25, 0.75])
        assert f_divergence(p, p, lambda x: x * math.log2(x)) == pytest.approx(0.0)

    def test_vertex_against_uniform(self):
        p = make_prob_vector([1, 0])
        q = make_prob_vector([0.5, 0.5])
        assert f_divergence(p, q, tv_generator) == pytest.approx(0.5, abs=1e-15)

    def test_support_mismatch(self):
        p = make_prob_vector([0.5, 0.5])
        q = make_prob_vector([1.0, 0.0])
        with pytest.raises(SupportMismatch):
            f_divergence(p, q, tv_generator)

    def test_shared_zero_entries_contribute_nothing(self):
        p = make_prob_vector([0.5, 0.5, 0.0])
        q = make_prob_vector([0.25, 0.75, 0.0])
        assert f_divergence(p, q, tv_generator) == pytest.approx(tv_distance(p, q))


class TestKl:
    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_point(rng, 8), random_point(rng, 8)
            assert kl_divergence(p, q) >= -1e-12
        p = random_point(rng, 8)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


class TestDivergenceType:
    def test_tv_kind_bounded(self):
        p = make_prob_vector([1, 0])
        q = make_prob_vector([0, 1])
        d = Divergence.tv(p, q)
        assert d.kind is DivergenceKind.TOTAL_VARIATION
        assert d.value == 1.0

    def test_zero_when_identical(self):
        p = make_prob_vector([0.4, 0.6])
        assert Divergence.tv(p, p).value == 0.0
        assert Divergence.kl(p, p).value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            Divergence(DivergenceKind.GENERIC_F, -0.1)

    def test_rejects_tv_above_one(self):
        with pytest.raises(ValueError):
            Divergence(DivergenceKind.TOTAL_VARIATION, 1.5)
