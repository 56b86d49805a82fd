import math

import numpy as np
import pytest

from latdist.budget import (
    BudgetFn,
    Scheme,
    budget_lq,
    budget_slq,
    budget_uq,
    budget_uq_tight,
    uq_bits_per_entry,
)
from latdist.errors import BetaNotAboveDelta, DomainError


class TestUniformBudget:
    def test_formula(self):
        assert budget_uq(10, 0.1) == pytest.approx(132.877123795, rel=1e-9)
        assert budget_uq(50, 0.05) == pytest.approx(996.578428466, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            budget_uq(10, 10.0)  # beta_s = k is far out of (0, 1)
        with pytest.raises(DomainError):
            budget_uq(10, 0.0)
        with pytest.raises(DomainError):
            budget_uq(1, 0.1)

    def test_tight_variant_never_exceeds_headline(self):
        for k in (2, 10, 100):
            for beta in (0.01, 0.1, 0.5, 0.9):
                assert budget_uq_tight(k, beta) <= budget_uq(k, beta)

    def test_bits_per_entry_ceils(self):
        k, beta = 10, 0.05
        j = uq_bits_per_entry(k, beta)
        assert j == math.ceil(budget_uq(k, beta) / k)


class TestLatticeBudget:
    def test_small_example(self):
        assert budget_lq(3, 0.15) == (5, 5)

    def test_cross_checked_against_exact_combinatorics(self):
        ell, bits = budget_lq(50, 0.05)
        assert ell == 250
        assert bits == (math.comb(299, 49) - 1).bit_length() == 189

    def test_single_class_needs_no_bits(self):
        assert budget_lq(1, 0.25) == (1, 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            budget_lq(3, 0.0)


class TestSparseBudget:
    def test_two_term_example(self):
        assert budget_slq(50, 5, 1e-5, 0.05) == (26, 37)

    def test_full_retention_matches_lattice(self):
        ell, bits = budget_slq(3, 3, 0.0, 0.15)
        assert (ell, bits) == (5, 5)  # position term vanishes at k_top = k

    def test_beta_must_exceed_delta(self):
        with pytest.raises(BetaNotAboveDelta):
            budget_slq(50, 5, 0.05, 0.05)

    def test_k_top_range(self):
        with pytest.raises(DomainError):
            budget_slq(5, 6, 0.0, 0.1)


class TestReductionClaims:
    def test_bit_budget_reductions_at_reference_point(self):
        j_uq = budget_uq(50, 0.05)
        _, j_lq = budget_lq(50, 0.05)
        _, j_slq = budget_slq(50, 5, 1e-5, 0.05)
        assert 0.94 <= 1 - j_slq / j_uq <= 0.98
        assert 0.78 <= 1 - j_slq / j_lq <= 0.82

    def test_uniform_lattice_gap_scales_like_k_log_k(self):
        ratios = []
        gaps = []
        for k in (64, 128, 256):
            gap = budget_uq(k, 0.05) - budget_lq(k, 0.05)[1]
            gaps.append(gap)
            ratios.append(gap / (k * math.log2(k)))
        assert gaps == sorted(gaps)
        assert all(2.0 <= r <= 3.2 for r in ratios)


class TestBudgetFn:
    @pytest.mark.parametrize(
        "fn",
        [
            BudgetFn(Scheme.UQ, 50),
            BudgetFn(Scheme.LQ, 50),
            BudgetFn(Scheme.SLQ, 50, 5, 1e-5),
        ],
        ids=["uq", "lq", "slq"],
    )
    def test_strictly_decreasing_on_log_grid(self, fn):
        grid = np.geomspace(1e-3, 0.3, 12)
        ints = [fn.bits_int(b) for b in grid]
        reals = [fn.bits_real(b) for b in grid]
        assert all(a > b for a, b in zip(ints, ints[1:]))
        assert all(a > b for a, b in zip(reals, reals[1:]))

    def test_real_bound_tracks_integer_bound(self):
        fn = BudgetFn(Scheme.SLQ, 40, 6, 1e-4)
        for beta in (0.01, 0.05, 0.2):
            assert fn.bits_real(beta) <= fn.bits_int(beta) <= fn.bits_real(beta) + 2

    def test_lower_edge(self):
        assert BudgetFn(Scheme.UQ, 10).lower_edge == 0.0
        assert BudgetFn(Scheme.SLQ, 10, 3, 0.01).lower_edge == 0.01

    def test_requires_k_top_for_sparse(self):
        with pytest.raises(DomainError):
            BudgetFn(Scheme.SLQ, 10)

    def test_dimension_checked_at_construction(self):
        # No source distortion makes these budgets defined.
        with pytest.raises(DomainError):
            BudgetFn(Scheme.UQ, 1)
        with pytest.raises(DomainError):
            BudgetFn(Scheme.LQ, 0)

    def test_ell_consistency(self):
        fn = BudgetFn(Scheme.LQ, 20)
        assert fn.ell(0.1) == budget_lq(20, 0.1)[0]
        assert BudgetFn(Scheme.UQ, 20).ell(0.1) is None


# Source distortions at which numpy's log2 of 100 / beta_s differs from
# math.log2 in the last bit (numpy 2.4 on an AVX-512 x86-64 CPU, where numpy
# has its own log2 kernel). The array budget must call math.log2 per element to match the
# scalar formula there.
LOG2_SENSITIVE = [0.5768634782581971, 0.021987443946893337, 0.3482367884655326, 0.450484970265813]


def scalar_bits_real(fn, beta_s):
    """The smooth budget from the scalar formulas, one beta_s at a time."""

    def log2_comb(n, r):
        return (math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)) / math.log(2)

    def ell(parts, beta):
        x = parts / (4.0 * beta)
        nearest = round(x)
        snapped = abs(x - nearest) <= 1e-12 * max(1.0, abs(x))
        return max(1, int(nearest) if snapped else math.ceil(x))

    if fn.scheme is Scheme.UQ:
        return 2.0 * fn.k * math.log2(fn.k / beta_s)
    if fn.scheme is Scheme.LQ:
        return log2_comb(ell(fn.k, beta_s) + fn.k - 1, fn.k - 1)
    lattice = log2_comb(ell(fn.k_top, beta_s - fn.delta) + fn.k_top - 1, fn.k_top - 1)
    return log2_comb(fn.k, fn.k_top) + lattice


class TestArrayBitsReal:
    FNS = [
        BudgetFn(Scheme.UQ, 100),
        BudgetFn(Scheme.LQ, 100),
        BudgetFn(Scheme.SLQ, 1000, 10, 1e-5),
        BudgetFn(Scheme.LQ, 1),
        BudgetFn(Scheme.SLQ, 7, 7, 0.0),
    ]

    @pytest.mark.parametrize("fn", FNS, ids=["uq", "lq", "slq", "lq-k1", "slq-full"])
    def test_equals_scalar_formulas_bit_for_bit(self, fn):
        rng = np.random.default_rng(92)
        beta_s = np.concatenate([
            LOG2_SENSITIVE,
            rng.uniform(fn.lower_edge + 1e-9, 0.999, 4000),
            np.geomspace(fn.lower_edge + 1e-9, 0.999, 500),
        ])
        expected = [scalar_bits_real(fn, b) for b in beta_s.tolist()]
        got = fn.bits_real(beta_s)
        assert isinstance(got, np.ndarray) and got.shape == beta_s.shape
        assert got.tolist() == expected
        scalars = [fn.bits_real(b) for b in beta_s[:200].tolist()]
        assert scalars == expected[:200]
        assert all(type(x) is float for x in scalars)

    @pytest.mark.parametrize("fn", FNS[:3], ids=["uq", "lq", "slq"])
    def test_denominators_beyond_int64(self, fn):
        # ell = k / (4 * beta_s) passes 2**62 here, so the array budget counts
        # in Python ints, as the scalar formula does.
        slack = [1e-17, 3e-19, 1e-250, 0.1] if fn.delta == 0 else [2e-21, 5e-20, 1e-18, 0.1]
        beta_s = fn.delta + np.array(slack)
        assert fn.bits_real(beta_s).tolist() == [scalar_bits_real(fn, b) for b in beta_s.tolist()]

    def test_keeps_array_shape(self):
        fn = BudgetFn(Scheme.LQ, 20)
        grid = np.geomspace(1e-3, 0.5, 12).reshape(3, 4)
        assert fn.bits_real(grid).tolist() == [[fn.bits_real(b) for b in row] for row in grid.tolist()]

    def test_domain_checks_cover_every_element(self):
        with pytest.raises(DomainError):
            BudgetFn(Scheme.UQ, 10).bits_real(np.array([0.1, 1.5]))
        with pytest.raises(DomainError):
            BudgetFn(Scheme.LQ, 10).bits_real(np.array([0.1, np.nan]))
        with pytest.raises(BetaNotAboveDelta):
            BudgetFn(Scheme.SLQ, 10, 3, 0.01).bits_real(np.array([0.5, 0.01]))
