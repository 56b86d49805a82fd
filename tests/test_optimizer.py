import math

import numpy as np
import pytest

from latdist.budget import BudgetFn, Scheme
from latdist.channel import (
    ChannelFamily,
    ChannelSpec,
    db_to_linear,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
)
from latdist.errors import DomainError, EpsilonOutOfRange, NoFeasibleN
from latdist.optimizer import (
    decoding_error_target,
    lower_convex_hull,
    solve_blocklength,
    sweep_beta_s,
    sweep_beta_t,
)

WIDEBAND_SPEC = ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
NARROWBAND_SPEC = ChannelSpec(ChannelFamily.AWGN, db_to_linear(15), 10_000, 100_000)
CSI_SPEC = ChannelSpec(
    ChannelFamily.FADING_CSI, db_to_linear(11), 10_000, 100_000, coherence=20
)
NOCSI_SPEC = ChannelSpec(
    ChannelFamily.FADING_NOCSI, db_to_linear(15), 800_000, 200_000, coherence=20
)


class TestErrorTarget:
    def test_formula(self):
        assert decoding_error_target(0.55, 0.1) == pytest.approx(0.5)
        assert decoding_error_target(0.05, 0.0) == pytest.approx(0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            decoding_error_target(0.1, 0.1)
        with pytest.raises(DomainError):
            decoding_error_target(0.1, 0.2)
        with pytest.raises(DomainError):
            decoding_error_target(1.2, 0.1)


def spec_at(family, gamma, coherence=None):
    """Spec whose operational SNR is exactly ``gamma``."""
    return ChannelSpec(family, gamma, 1.0, 1.0, coherence)


class TestAwgnSolver:
    def test_half_error_collapses_to_capacity(self):
        # beta split giving error target 1/2 zeroes the dispersion term.
        sol = solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.55, 0.1, 100.0)
        assert sol.n == 200
        assert sol.eps_target == pytest.approx(0.5)

    def test_blocklength_grows_without_bound_toward_the_edge(self):
        bf = BudgetFn(Scheme.UQ, 70)
        previous = None
        for gap in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            beta_s = 0.05 - gap
            sol = solve_blocklength(NARROWBAND_SPEC, 0.05, beta_s, bf.bits_real(beta_s))
            if previous is not None:
                assert sol.n > previous
            previous = sol.n

    def test_infeasible_at_the_edge_itself(self):
        with pytest.raises(DomainError):
            solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.05, 0.05, 100.0)

    def test_eps_above_cap_rejected(self):
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.8, 0.1, 100.0)

    def test_wideband_reference_fixture(self):
        bf = BudgetFn(Scheme.UQ, 100)
        sol = solve_blocklength(WIDEBAND_SPEC, 0.05, 0.03, bf.bits_real(0.03))
        assert sol.n == 36869
        assert sol.n_real == pytest.approx(36868.505626352904, rel=1e-9)
        assert epsilon_awgn(sol.n, WIDEBAND_SPEC.gamma, bf.bits_real(0.03)) <= sol.eps_target

    def test_conservative_on_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if decoding_error_target(beta_t, beta_s) > 0.5:
                continue
            j_bits = rng.uniform(10.0, 5000.0)
            gamma = 10 ** rng.uniform(-1.2, 1.5)
            sol = solve_blocklength(spec_at(ChannelFamily.AWGN, gamma), beta_t, beta_s, j_bits)
            assert epsilon_awgn(sol.n, gamma, j_bits) <= sol.eps_target * (1 + 1e-9)


# family -> (seed, log10 SNR range); no-CSI needs high SNR.
REFINE_DRAWS = {
    ChannelFamily.AWGN: (32, (-1.0, 1.0)),
    ChannelFamily.FADING_CSI: (35, (-1.0, 1.5)),
    ChannelFamily.FADING_NOCSI: (36, (1.0, 2.5)),
}


EXACT_EPSILON = {
    ChannelFamily.AWGN: lambda n, gamma, j, f: epsilon_awgn(n, gamma, j),
    ChannelFamily.FADING_CSI: epsilon_fading_csi,
    ChannelFamily.FADING_NOCSI: epsilon_fading_nocsi,
}


@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_refine_shrinks_but_stays_conservative(family):
    seed, (lo, hi) = REFINE_DRAWS[family]
    rng = np.random.default_rng(seed)
    exact = EXACT_EPSILON[family]
    for _ in range(50):
        beta_t = rng.uniform(0.02, 0.5)
        beta_s = rng.uniform(0.0, beta_t * 0.9)
        if decoding_error_target(beta_t, beta_s) >= 0.5:
            continue
        j_bits = rng.uniform(20.0, 2000.0)
        gamma = 10 ** rng.uniform(lo, hi)
        f = None if family is ChannelFamily.AWGN else int(rng.choice([5, 10, 20, 50]))
        spec = spec_at(family, gamma, f)
        plain = solve_blocklength(spec, beta_t, beta_s, j_bits)
        refined = solve_blocklength(spec, beta_t, beta_s, j_bits, refine=True)
        assert 1 <= refined.n <= plain.n
        assert exact(refined.n, gamma, j_bits, f) <= plain.eps_target * (1 + 1e-9)
        if refined.n > 1:
            assert exact(refined.n - 1, gamma, j_bits, f) > plain.eps_target


class TestFadingSolvers:
    def test_csi_half_error_matches_converted_payload(self):
        from latdist.channel import fading_csi_coeffs

        c, _ = fading_csi_coeffs(CSI_SPEC.gamma, 20)
        sol = solve_blocklength(CSI_SPEC, 0.55, 0.1, 100.0)
        assert sol.n == math.ceil(100.0 * math.log(2) / c)

    def test_csi_fixture(self):
        bf = BudgetFn(Scheme.SLQ, 100, 16, 1e-5)
        sol = solve_blocklength(CSI_SPEC, 0.05, 0.02, bf.bits_real(0.02))
        assert sol.n == 228
        assert sol.n_real == pytest.approx(227.19947990137166, rel=1e-9)

    def test_csi_monotone_in_payload(self):
        ns = [
            solve_blocklength(CSI_SPEC, 0.1, 0.02, j).n
            for j in (50.0, 100.0, 400.0, 1600.0)
        ]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_csi_conservative_on_random_grid(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if decoding_error_target(beta_t, beta_s) > 0.5:
                continue
            j_bits = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(-1.0, 1.5)
            coherence = int(rng.choice([5, 10, 20, 50]))
            spec = spec_at(ChannelFamily.FADING_CSI, gamma, coherence)
            sol = solve_blocklength(spec, beta_t, beta_s, j_bits)
            exact = epsilon_fading_csi(sol.n, gamma, j_bits, coherence)
            assert exact <= sol.eps_target * (1 + 1e-9)

    def test_nocsi_excludes_half(self):
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.55, 0.1, 100.0)
        # The bound is strict, with no slack: a target of exactly 1/2, or
        # exactly the cap, is refused although AWGN accepts both.
        assert decoding_error_target(0.5, 0.0) == 0.5
        assert solve_blocklength(WIDEBAND_SPEC, 0.5, 0.0, 100.0).eps_target == 0.5
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.5, 0.0, 100.0)
        assert solve_blocklength(WIDEBAND_SPEC, 0.25, 0.0, 100.0, eps_cap=0.25).n > 0
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.25, 0.0, 100.0, eps_cap=0.25)

    def test_nocsi_fixture(self):
        bf = BudgetFn(Scheme.SLQ, 1000, 70, 1e-5)
        sol = solve_blocklength(NOCSI_SPEC, 0.05, 0.02, bf.bits_real(0.02))
        assert sol.n == 157
        assert sol.n_real == pytest.approx(156.87228326554418, rel=1e-9)

    def test_nocsi_rejects_low_snr(self):
        # The high-SNR information term goes negative at moderate SNR.
        with pytest.raises(NoFeasibleN):
            solve_blocklength(spec_at(ChannelFamily.FADING_NOCSI, 0.2, 20), 0.1, 0.02, 100.0)

    def test_nocsi_conservative_on_random_grid(self):
        rng = np.random.default_rng(34)
        done = 0
        while done < 150:
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if not 0 < decoding_error_target(beta_t, beta_s) < 0.5:
                continue
            j_bits = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(1.0, 2.5)
            coherence = int(rng.choice([5, 10, 20, 50]))
            spec = spec_at(ChannelFamily.FADING_NOCSI, gamma, coherence)
            sol = solve_blocklength(spec, beta_t, beta_s, j_bits)
            exact = epsilon_fading_nocsi(sol.n, gamma, j_bits, coherence)
            assert exact <= sol.eps_target * (1 + 1e-9)
            done += 1


class TestSweeps:
    def test_optimal_split_grows_with_total_budget(self):
        configs = [
            BudgetFn(Scheme.UQ, 70),
            BudgetFn(Scheme.LQ, 70),
            BudgetFn(Scheme.SLQ, 70, 20, 1e-5),
        ]
        for bf in configs:
            argmins = [
                sweep_beta_s(bt, bf, NARROWBAND_SPEC, grid_points=400).best.beta_s
                for bt in (0.05, 0.2, 0.4)
            ]
            assert argmins[0] < argmins[1] < argmins[2]

    def test_single_point_grid_is_argmin(self):
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_s(0.1, bf, WIDEBAND_SPEC, grid_points=1)
        assert len(curve.points) == 1
        assert curve.best is curve.points[0]

    def test_all_infeasible_raises(self):
        bf = BudgetFn(Scheme.LQ, 10)
        with pytest.raises(NoFeasibleN):
            sweep_beta_s(0.5, bf, WIDEBAND_SPEC, grid_points=8, eps_cap=1e-12)

    def test_infeasible_points_are_retained(self):
        # beta_t 0.6 makes small beta_s exceed the 0.5 error cap.
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_s(0.6, bf, WIDEBAND_SPEC, grid_points=50)
        flags = [pt.feasible for pt in curve.points]
        assert not all(flags) and any(flags)
        assert all(math.isinf(pt.latency_s) for pt in curve.points if not pt.feasible)

    def test_point_invariants(self):
        bf = BudgetFn(Scheme.SLQ, 40, 8, 1e-4)
        curve = sweep_beta_s(0.08, bf, WIDEBAND_SPEC, grid_points=100)
        for pt in curve.points:
            if not pt.feasible:
                continue
            assert pt.latency_s == pt.n / (2 * WIDEBAND_SPEC.bandwidth_hz)
            recombined = (1 - pt.eps_target) * pt.beta_s + pt.eps_target
            assert recombined == pytest.approx(pt.beta_t, abs=1e-12)
            assert pt.beta_s < pt.beta_t

    def test_grid_modes(self):
        bf = BudgetFn(Scheme.LQ, 10)
        uniform = sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_points=16, grid_mode="uniform")
        logspace = sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_points=16, grid_mode="log")
        assert uniform.points[0].beta_s == logspace.points[0].beta_s
        assert uniform.points[5].beta_s != logspace.points[5].beta_s
        with pytest.raises(DomainError):
            sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_mode="bogus")

    def test_latency_rises_toward_the_budget_edge(self):
        # Pushing all of the distortion budget onto the channel (beta_s near
        # beta_t) forces longer blocklengths; the rise is logarithmic in the
        # remaining gap, so the edge exceeds the argmin without bound only
        # in the limit.
        for bf in (
            BudgetFn(Scheme.UQ, 70),
            BudgetFn(Scheme.LQ, 70),
            BudgetFn(Scheme.SLQ, 70, 20, 1e-5),
        ):
            curve = sweep_beta_s(0.05, bf, NARROWBAND_SPEC, grid_points=1000)
            last = curve.points[-1]
            assert last.feasible
            assert last.latency_s > curve.best.latency_s
            tail = [pt.latency_s for pt in curve.points[-20:]]
            assert all(a <= b for a, b in zip(tail, tail[1:]))


def _assert_convex_nonincreasing(points):
    xs = [p.beta_t for p in points]
    ys = [p.latency_s for p in points]
    assert all(a > b for a, b in zip(ys, ys[1:]))
    for i in range(len(xs) - 2):
        cross = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (ys[i + 1] - ys[i]) * (
            xs[i + 2] - xs[i]
        )
        assert cross >= -1e-15


class TestHull:
    def test_two_points_form_their_own_hull(self):
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_t([0.1, 0.3], bf, WIDEBAND_SPEC, grid_points=50)
        assert len(curve.hull) == 2
        assert all(pt.hull_member for pt in curve.hull)

    def test_hull_convex_and_nonincreasing(self):
        bf = BudgetFn(Scheme.SLQ, 50, 5, 1e-5)
        curve = sweep_beta_t(
            np.linspace(0.02, 0.5, 12), bf, WIDEBAND_SPEC, grid_points=150
        )
        _assert_convex_nonincreasing(curve.hull)
        assert all(pt.hull_member for pt in curve.hull)
        non_hull = [pt for pt in curve.points if not pt.hull_member]
        assert len(non_hull) + len(curve.hull) == len(curve.points)

    def test_lower_convex_hull_filters_upticks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [4.0, 2.0, 1.5, 1.6]
        hull = lower_convex_hull(xs, ys)
        assert 3 not in hull  # the uptick is dominated by the point before it
        assert hull[0] == 0 and hull[-1] == 2

    def test_skips_infeasible_budgets(self):
        # A tail-mass floor of 0.2 leaves no admissible beta_s below it.
        bf = BudgetFn(Scheme.SLQ, 20, 5, 0.2)
        curve = sweep_beta_t([0.1, 0.5], bf, WIDEBAND_SPEC, grid_points=40)
        flags = {pt.beta_t: pt.feasible for pt in curve.points}
        assert not flags[0.1] and flags[0.5]
        assert all(pt.feasible for pt in curve.hull)

    def test_every_budget_infeasible_raises(self):
        bf = BudgetFn(Scheme.SLQ, 20, 5, 0.2)
        with pytest.raises(NoFeasibleN):
            sweep_beta_t([0.05, 0.1], bf, WIDEBAND_SPEC, grid_points=40)
