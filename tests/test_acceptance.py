"""Acceptance suite: one test per release criterion, with its time budget.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion, and add ``-s`` to see the timing lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from latdist.budget import BudgetFn, Scheme, budget_lq, budget_slq
from latdist.channel import (
    ChannelFamily,
    ChannelSpec,
    db_to_linear,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
    fading_csi_coeffs,
    q_func,
    q_inv,
)
from latdist.codec import (
    composition_count,
    rank_composition,
    rank_subset,
    unrank_composition,
    unrank_subset,
)
from latdist.optimizer import (
    decoding_error_target,
    solve_blocklength,
    sweep_beta_s,
    sweep_beta_t,
)
from latdist.prob import ProbVector, tv_distance
from latdist.quantizers import (
    lq_decode,
    lq_encode,
    round_to_lattice,
    slq_decode,
    slq_encode,
    uq_decode,
    uq_encode,
)
from latdist.simulator import ErrorModel, SimConfig, simulate_end_to_end


class Budgeted:
    """Context manager asserting the criterion's wall-clock budget."""

    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"criterion {self.number:02d} PASS ({elapsed:.2f}s): {self.description}")
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget: {elapsed:.2f}s"
            )
        else:
            print(f"criterion {self.number:02d} FAIL ({elapsed:.2f}s): {self.description}")
        return False


def flat_simplex(rng, k):
    return ProbVector(rng.standard_exponential(k), normalize=True)


def assert_convex_nonincreasing(points):
    xs = [p.beta_t for p in points]
    ys = [p.latency_s for p in points]
    assert all(a > b for a, b in zip(ys, ys[1:])), "hull latency not decreasing"
    for i in range(len(xs) - 2):
        cross = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (ys[i + 1] - ys[i]) * (
            xs[i + 2] - xs[i]
        )
        assert cross >= -1e-15, "hull not convex"


def test_c01_lattice_rounding_worked_example():
    with Budgeted(1, "worked lattice rounding example is exact", 1.0):
        p = ProbVector([0.18, 0.52, 0.3])
        start = time.perf_counter()
        point = lq_encode(p, 5)
        encode_time = time.perf_counter() - start
        counts = round_to_lattice(p.values, 5)
        assert tuple(counts) == point.counts == (1, 3, 1) and point.denominator == 5
        decoded = lq_decode(point)
        assert np.array_equal(decoded.values, np.array([1, 3, 1]) / 5)
        assert encode_time < 1e-3


def test_c02_bit_budget_reductions():
    with Budgeted(2, "sparse coder cuts bits by ~96% vs uniform, ~80% vs lattice", 1.0):
        j_uq = BudgetFn(Scheme.UQ, 50).bits_real(0.05)
        _, j_lq = budget_lq(50, 0.05)
        _, j_slq = budget_slq(50, 5, 1e-5, 0.05)
        vs_uniform = 1 - j_slq / j_uq
        vs_lattice = 1 - j_slq / j_lq
        assert 0.94 <= vs_uniform <= 0.98, vs_uniform
        assert 0.78 <= vs_lattice <= 0.82, vs_lattice


def test_c03_latency_reductions():
    with Budgeted(3, "sparse coder cuts latency by ~97% vs uniform, ~85% vs lattice", 30.0):
        spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
        best = {}
        for scheme, k_top in ((Scheme.UQ, None), (Scheme.LQ, None), (Scheme.SLQ, 5)):
            bf = BudgetFn(scheme, 100, k_top, 1e-5 if k_top else 0.0)
            best[scheme] = sweep_beta_s(0.05, bf, spec, grid_points=1000).best.latency_s
        vs_uniform = 1 - best[Scheme.SLQ] / best[Scheme.UQ]
        vs_lattice = 1 - best[Scheme.SLQ] / best[Scheme.LQ]
        assert 0.94 <= vs_uniform <= 0.99, vs_uniform
        assert 0.80 <= vs_lattice <= 0.90, vs_lattice


def test_c04_snr_scaling():
    with Budgeted(4, "bandwidth scaling lands the operational SNR near -10.1 dB", 1.0):
        spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
        assert abs(10 * math.log10(spec.gamma) - (-10.1)) < 0.1


def test_c05_optimal_split_monotonicity():
    with Budgeted(5, "optimal source distortion grows with the total budget", 60.0):
        spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(15), 10_000, 100_000)
        for scheme, k_top in ((Scheme.UQ, None), (Scheme.LQ, None), (Scheme.SLQ, 20)):
            bf = BudgetFn(scheme, 70, k_top, 1e-5 if k_top else 0.0)
            argmins = [
                sweep_beta_s(bt, bf, spec, grid_points=1000).best.beta_s
                for bt in (0.05, 0.2, 0.4)
            ]
            assert argmins[0] < argmins[1] < argmins[2], (scheme, argmins)


def test_c06_hull_properties():
    with Budgeted(6, "lower hulls are convex and non-increasing on reference runs", 120.0):
        awgn = lambda: ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
        configs = [
            (awgn(), 10, 5),
            (awgn(), 50, 5),
            (awgn(), 100, 5),
            (
                ChannelSpec(
                    ChannelFamily.FADING_CSI, db_to_linear(11), 10_000, 100_000, coherence=20
                ),
                100,
                16,
            ),
            (
                ChannelSpec(
                    ChannelFamily.FADING_NOCSI, db_to_linear(15), 800_000, 200_000, coherence=20
                ),
                1000,
                70,
            ),
        ]
        beta_ts = np.linspace(0.02, 0.5, 10)
        for spec, k, k_top in configs:
            for scheme in Scheme:
                bf = BudgetFn(
                    scheme, k, k_top if scheme is Scheme.SLQ else None,
                    1e-5 if scheme is Scheme.SLQ else 0.0,
                )
                curve = sweep_beta_t(beta_ts, bf, spec, grid_points=300)
                hull = [pt for pt in curve.points if pt.hull_member]
                assert hull, (spec.family, scheme)
                assert_convex_nonincreasing(hull)


def test_c07_solver_conservativeness():
    with Budgeted(7, "exact error at every solved blocklength stays within target", 60.0):
        rng = np.random.default_rng(1729)

        def draw_split(strict_half):
            while True:
                beta_t = rng.uniform(0.01, 0.6)
                beta_s = rng.uniform(0.0, beta_t * 0.995)
                eps = decoding_error_target(beta_t, beta_s)
                if (0 < eps < 0.5) if strict_half else (0 < eps <= 0.5):
                    return beta_t, beta_s

        for _ in range(1000):
            beta_t, beta_s = draw_split(False)
            j = rng.uniform(10.0, 5000.0)
            gamma = 10 ** rng.uniform(-1.2, 1.5)
            spec = ChannelSpec(ChannelFamily.AWGN, gamma, 1.0, 1.0)
            sol = solve_blocklength(spec, beta_t, beta_s, j)
            assert epsilon_awgn(sol.n, gamma, j) <= sol.eps_target * (1 + 1e-9)
        for _ in range(1000):
            beta_t, beta_s = draw_split(False)
            j = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(-1.0, 1.5)
            f = int(rng.choice([5, 10, 20, 50]))
            spec = ChannelSpec(ChannelFamily.FADING_CSI, gamma, 1.0, 1.0, f)
            sol = solve_blocklength(spec, beta_t, beta_s, j)
            assert epsilon_fading_csi(sol.n, gamma, j, f) <= sol.eps_target * (1 + 1e-9)
        for _ in range(1000):
            beta_t, beta_s = draw_split(True)
            j = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(1.0, 2.5)
            f = int(rng.choice([5, 10, 20, 50]))
            spec = ChannelSpec(ChannelFamily.FADING_NOCSI, gamma, 1.0, 1.0, f)
            sol = solve_blocklength(spec, beta_t, beta_s, j)
            assert epsilon_fading_nocsi(sol.n, gamma, j, f) <= sol.eps_target * (1 + 1e-9)


def test_c08_codec_bijection():
    with Budgeted(8, "rank and unrank are mutual inverses across whole index spaces", 30.0):
        checked = 0
        composition_spaces = [
            (k, total)
            for k, cap in ((2, 50), (3, 50), (4, 40), (5, 25), (6, 18), (7, 14), (8, 11))
            for total in range(1, cap + 1)
        ]
        composition_spaces += [(1, 9), (2, 99_999), (3, 445), (4, 79)]
        for k, total in composition_spaces:
            cardinality = composition_count(k, total)
            assert cardinality <= 100_000
            for value in range(cardinality):
                pt = unrank_composition(value, k, total)
                assert rank_composition(pt).value == value
                checked += 1
        subset_spaces = [(k, size) for k in range(1, 15) for size in range(0, k + 1)]
        subset_spaces += [
            (k, size)
            for k in (18, 24, 40)
            for size in range(0, k + 1)
            if math.comb(k, size) <= 100_000
        ]
        subset_spaces += [(447, 2)]
        for k, size in subset_spaces:
            cardinality = math.comb(k, size)
            assert cardinality <= 100_000
            for value in range(cardinality):
                s = unrank_subset(value, k, size)
                assert rank_subset(s).value == value
                checked += 1
        assert checked > 500_000


def test_c09_lattice_distortion_bound_and_optimality():
    with Budgeted(9, "lattice rounding meets its worst-case bound and brute-force ties", 120.0):
        rng = np.random.default_rng(99)
        for _ in range(100_000):
            k = int(rng.integers(2, 65))
            ell = int(rng.integers(1, 513))
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            tv = tv_distance(p, lq_decode(lq_encode(p, ell)))
            assert tv <= k / (4 * ell) + 1e-12
        # Brute-force nearest-point oracle on instances small enough to enumerate.
        matrices = {}

        def composition_matrix(k, ell):
            if (k, ell) not in matrices:
                rows = [
                    c
                    for c in itertools.product(range(ell + 1), repeat=k)
                    if sum(c) == ell
                ]
                matrices[(k, ell)] = np.array(rows, dtype=float) / ell
            return matrices[(k, ell)]

        pairs = [
            (k, ell)
            for k in range(2, 7)
            for ell in range(1, 40)
            if composition_count(k, ell) <= 10_000 and (ell + 1) ** k <= 2_000_000
        ]
        for i in range(1000):
            k, ell = pairs[int(rng.integers(len(pairs)))]
            p = ProbVector(rng.standard_exponential(k), normalize=True)
            achieved = tv_distance(p, lq_decode(lq_encode(p, ell)))
            best = 0.5 * np.abs(composition_matrix(k, ell) - p.values).sum(axis=1).min()
            assert achieved <= best + 1e-12


def test_c10_end_to_end_source_distortion_budgets():
    with Budgeted(10, "prescribed budgets keep quantization distortion within target", 60.0):
        rng = np.random.default_rng(1010)
        k = 20
        for beta_s in (0.02, 0.05, 0.1):
            j = BudgetFn(Scheme.UQ, k).coder(beta_s).bits_per_entry
            for _ in range(10_000):
                p = flat_simplex(rng, k)
                assert tv_distance(p, uq_decode(uq_encode(p, j))) <= beta_s
        k, k_top, delta = 30, 8, 0.005
        for beta_s in (0.02, 0.05, 0.1):
            ell, _ = budget_slq(k, k_top, delta, beta_s)
            for _ in range(10_000):
                heavy = rng.standard_exponential(k_top)
                light = rng.standard_exponential(k - k_top)
                tail = rng.uniform(0, delta)
                values = np.concatenate(
                    [(1 - tail) * heavy / heavy.sum(), tail * light / light.sum()]
                )
                p = ProbVector(values[rng.permutation(k)])
                q = slq_decode(slq_encode(p, k_top, ell))
                assert tv_distance(p, q) <= beta_s + 1e-12


def test_c11_monte_carlo_distortion_bound():
    with Budgeted(11, "simulated mean distortion stays within the analytical bound", 120.0):
        ell, _ = budget_lq(8, 0.1)
        for model in ErrorModel:
            for eps in (0.0, 0.1, 0.3, 0.49):
                cfg = SimConfig(
                    trials=10_000,
                    seed=42,
                    error_model=model,
                    scheme=Scheme.LQ,
                    k=8,
                    beta_s=0.1,
                    eps_target=eps,
                    ell=ell,
                )
                report = simulate_end_to_end(cfg)
                assert report.violations == 0
                assert (
                    report.empirical_mean_distortion
                    <= report.bound + 3 * report.std_error
                ), (model, eps, report.empirical_mean_distortion, report.bound)
        # Reference operating point with a deeper run.
        cfg = SimConfig(
            trials=100_000,
            seed=42,
            error_model=ErrorModel.UNIFORM_INDEX,
            scheme=Scheme.LQ,
            k=8,
            beta_s=0.1,
            eps_target=0.2,
            ell=ell,
        )
        deep = simulate_end_to_end(cfg)
        assert deep.bound == pytest.approx(0.28)
        assert deep.empirical_mean_distortion <= deep.bound + 3 * deep.std_error


def test_c12_numerics():
    with Budgeted(12, "tail inverses and fading moments meet their tolerances", 120.0):
        for x in np.linspace(-8, 8, 200):
            p = q_func(x)
            pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            info_limit = 3 * 1.12e-16 * max(p, 1 - p) / pdf
            tol = max(1e-10, info_limit)
            assert q_inv(p) == pytest.approx(x, rel=tol, abs=tol)
        for p in np.geomspace(1e-10, 0.5, 100):
            assert q_func(q_inv(float(p))) == pytest.approx(float(p), rel=1e-10)
        rng = np.random.default_rng(1212)
        n = 10**7
        z = rng.standard_exponential(n)
        for gamma in (0.1, 1.0, 10.0):
            logs = np.log1p(gamma * z)
            recip = 1.0 / (1.0 + gamma * z)
            mean = logs.mean()
            mean_se = logs.std(ddof=1) / math.sqrt(n)
            var = logs.var(ddof=1)
            centered_sq = (logs - mean) ** 2
            var_se = centered_sq.std(ddof=1) / math.sqrt(n)
            recip_mean = recip.mean()
            recip_se = recip.std(ddof=1) / math.sqrt(n)
            for coherence in (5, 20):
                c, v = fading_csi_coeffs(gamma, coherence)
                assert abs(c - mean) <= 3 * mean_se
                mc_dispersion = var + (1 - recip_mean**2) / coherence
                dispersion_se = var_se + 2 * abs(recip_mean) * recip_se / coherence
                assert abs(v - mc_dispersion) <= 3 * dispersion_se
