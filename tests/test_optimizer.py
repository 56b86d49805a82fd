import hashlib
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


# family -> log10 SNR range of the minimality draws. The fading-CSI range
# reaches down to SNRs where the no-CSI model, with its F/(5*gamma) term,
# promises far lower errors than the CSI model, so a refine that used the
# wrong family's model would stop below the minimal n.
MINIMALITY_SNR = {
    ChannelFamily.AWGN: (-2.0, 2.0),
    ChannelFamily.FADING_CSI: (-2.5, 1.5),
    ChannelFamily.FADING_NOCSI: (1.0, 2.5),
}


@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_refined_sweep_is_minimal_under_the_family_model(family):
    rng = np.random.default_rng(37)
    exact = EXACT_EPSILON[family]
    lo, hi = MINIMALITY_SNR[family]
    budgets = [BudgetFn(Scheme.UQ, 20), BudgetFn(Scheme.LQ, 100), BudgetFn(Scheme.SLQ, 1000, 10, 1e-5)]
    checked = 0
    for draw in range(6):
        gamma = 10 ** rng.uniform(lo, hi)
        f = None if family is ChannelFamily.AWGN else int(rng.choice([5, 10, 20, 50]))
        spec = spec_at(family, gamma, f)
        beta_t = rng.uniform(0.02, 0.45)
        curve = sweep_beta_s(beta_t, budgets[draw % 3], spec, grid_points=60, refine=True)
        for pt in curve.points:
            if not pt.feasible:
                continue
            assert exact(pt.n, gamma, pt.j_bits, f) <= pt.eps_target
            if pt.n > 1:
                assert exact(pt.n - 1, gamma, pt.j_bits, f) > pt.eps_target
            checked += 1
    assert checked > 300


SOLVER_SPECS = {
    ChannelFamily.AWGN: WIDEBAND_SPEC,
    ChannelFamily.FADING_CSI: CSI_SPEC,
    ChannelFamily.FADING_NOCSI: NOCSI_SPEC,
}


@pytest.mark.parametrize("refine", [False, True], ids=["closed", "refined"])
@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_array_solve_matches_scalar_solves(family, refine):
    rng = np.random.default_rng(41)
    spec = SOLVER_SPECS[family]
    beta_s = rng.uniform(0.001, 0.09, 300)
    j_bits = 10 ** rng.uniform(0.0, 5.0, 300)
    sol = solve_blocklength(spec, 0.1, beta_s, j_bits, refine=refine)
    one = [
        solve_blocklength(spec, 0.1, b, j, refine=refine)
        for b, j in zip(beta_s.tolist(), j_bits.tolist())
    ]
    assert sol.n.dtype == np.int64
    assert sol.n.tolist() == [s.n for s in one]
    assert sol.n_real.tolist() == [s.n_real for s in one]
    assert sol.eps_target.tolist() == [s.eps_target for s in one]
    assert all(type(s.n) is int and type(s.n_real) is float for s in one)


def test_array_solve_checks_every_element():
    spec = SOLVER_SPECS[ChannelFamily.AWGN]
    with pytest.raises(DomainError):
        solve_blocklength(spec, 0.1, np.array([0.05, 0.1]), np.array([10.0, 10.0]))
    with pytest.raises(EpsilonOutOfRange):
        solve_blocklength(spec, 0.9, np.array([0.8, 0.05]), np.array([10.0, 10.0]))
    with pytest.raises(DomainError):
        solve_blocklength(spec, 0.1, np.array([0.05, 0.06]), np.array([10.0, 0.0]))


def test_target_of_one_is_out_of_range():
    # Q^-1(1) is infinite, so a cap of 1 or more still stops below it.
    with pytest.raises(EpsilonOutOfRange):
        solve_blocklength(WIDEBAND_SPEC, 1.0, 0.3, 100.0, eps_cap=2.0)
    with pytest.raises(NoFeasibleN):
        sweep_beta_s(1.0, BudgetFn(Scheme.LQ, 10), WIDEBAND_SPEC, grid_points=20, eps_cap=2.0)


def test_sweep_above_unit_budget_is_domain_error():
    with pytest.raises(DomainError):
        sweep_beta_s(1.2, BudgetFn(Scheme.LQ, 10), WIDEBAND_SPEC, grid_points=20)


def sweep_digest(curve):
    h = hashlib.sha256()
    for pt in curve.points:
        fields = (pt.n, pt.n_real.hex(), pt.j_bits.hex(), pt.eps_target.hex(), pt.feasible)
        h.update(repr(fields).encode())
    h.update(curve.best.beta_s.hex().encode())
    return h.hexdigest()


PIN_SPECS = {"awgn": WIDEBAND_SPEC, "fading-csi": CSI_SPEC, "fading-nocsi": NOCSI_SPEC}
PIN_CODERS = {
    "uq": BudgetFn(Scheme.UQ, 100),
    "lq": BudgetFn(Scheme.LQ, 100),
    "slq": BudgetFn(Scheme.SLQ, 1000, 10, 1e-5),
}
# Digests of two 500-point sweeps (beta_t 0.05, and 0.6 whose small beta_s
# are infeasible), computed with the per-point solver that the array sweep
# replaced. The fading families' refine never moves n there.
PINNED_SWEEPS = {
    ("awgn", "uq", False): "2d151687692690bc41d0f07d1315aae7",
    ("awgn", "uq", True): "ca6e779903ad0465276221a43af311a6",
    ("awgn", "lq", False): "553111ba1a1726a9b3ac17a3fd7962f7",
    ("awgn", "lq", True): "9d3fa8ad90bea5ed0b0bf9a3889d53e7",
    ("awgn", "slq", False): "c421c5e8dd404e1c1c9fee5aaca12141",
    ("awgn", "slq", True): "39cdfd6f6be98639c8f13662807b7d90",
    ("fading-csi", "uq", False): "80881121a6ec43b22bd2ec9e3dc96dfe",
    ("fading-csi", "uq", True): "80881121a6ec43b22bd2ec9e3dc96dfe",
    ("fading-csi", "lq", False): "7aa2739b9b767933f1e4b43ce87522ca",
    ("fading-csi", "lq", True): "7aa2739b9b767933f1e4b43ce87522ca",
    ("fading-csi", "slq", False): "87b11d0d5d2ca22e6749aca2393c7081",
    ("fading-csi", "slq", True): "87b11d0d5d2ca22e6749aca2393c7081",
    ("fading-nocsi", "uq", False): "8f1f72574987f3dc3a015e8c4f73a9a4",
    ("fading-nocsi", "uq", True): "8f1f72574987f3dc3a015e8c4f73a9a4",
    ("fading-nocsi", "lq", False): "e9c4859fb52d14af4bdfdf0ba55c7874",
    ("fading-nocsi", "lq", True): "e9c4859fb52d14af4bdfdf0ba55c7874",
    ("fading-nocsi", "slq", False): "c4987de7abc9dbfefa9621e9ae1f8b91",
    ("fading-nocsi", "slq", True): "c4987de7abc9dbfefa9621e9ae1f8b91",
}


@pytest.mark.parametrize(
    "family, coder, refine", list(PINNED_SWEEPS), ids=lambda x: str(x).lower()
)
def test_sweep_is_pinned(family, coder, refine):
    digests = [
        sweep_digest(
            sweep_beta_s(bt, PIN_CODERS[coder], PIN_SPECS[family], grid_points=500, refine=refine)
        )
        for bt in (0.05, 0.6)
    ]
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()[:32]
    assert combined == PINNED_SWEEPS[(family, coder, refine)]


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
