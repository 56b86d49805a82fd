import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate
from scipy.special import exp1, ndtr, ndtri

import latdist
from latdist.channel import (
    ChannelFamily,
    ChannelSpec,
    awgn_coeffs,
    db_to_linear,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
    fading_csi_coeffs,
    fading_nocsi_coeffs,
    q_func,
    q_inv,
)
from latdist.errors import DomainError


# Log-spaced p across (0, 1), with AS241's branch edges (0.075, 0.925 and
# e^-25) and their float neighbours.
_AS241_EDGES = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
TAIL_P = np.concatenate([
    np.geomspace(1e-300, 0.5, 1000),
    1.0 - np.geomspace(1e-16, 0.5, 300),
    _AS241_EDGES,
    np.nextafter(_AS241_EDGES, 0.0),
    np.nextafter(_AS241_EDGES, 1.0),
])


class TestGaussianTail:
    def test_anchor_values(self):
        assert q_func(0.0) == 0.5
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)
        assert q_func(1.2815515655) == pytest.approx(0.1, abs=1e-9)

    def test_roundtrip(self):
        # For x below about -5 the forward value sits within ulps of 1.0 and
        # any double-precision inverse loses accuracy at rate ulp/pdf(x); the
        # 1e-10 contract is tested where doubles carry that much information.
        for x in np.linspace(-8, 8, 400):
            p = q_func(x)
            pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            info_limit = 3 * 1.12e-16 * max(p, 1 - p) / pdf
            tol = max(1e-10, info_limit)
            assert q_inv(p) == pytest.approx(x, rel=tol, abs=tol)
        for p in np.geomspace(1e-12, 0.5, 200):
            assert q_func(q_inv(p)) == pytest.approx(p, rel=1e-10)

    def test_inverse_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for p in np.geomspace(1e-12, 0.5, 60):
            # mpf(float) converts the binary double exactly.
            exact = float(-mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(p)) - 1))
            assert q_inv(float(p)) == pytest.approx(exact, rel=1e-10, abs=1e-12)
        for p in 1 - np.geomspace(1e-12, 0.5, 60):
            exact = float(-mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(p)) - 1))
            assert q_inv(float(p)) == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_inverse_is_the_standard_library_inv_cdf(self):
        # q_inv calls statistics' private AS241; this ties it to the public API.
        assert q_inv(TAIL_P).tolist() == [-NormalDist().inv_cdf(p) for p in TAIL_P.tolist()]

    def test_within_ulps_of_scipy(self):
        x = -ndtri(TAIL_P)
        assert np.all(np.abs(q_inv(TAIL_P) - x) <= 8 * np.spacing(np.abs(x)))
        # Both sides round x / sqrt(2) alike. scipy's erfc then loses about x^2
        # ulps in the upper tail (467 at x = 37 against exact erfc of that
        # argument), where libm's stays within 2, so the bound widens there.
        x = np.concatenate([x, np.linspace(-9.0, 37.5, 2001)])
        q = ndtr(-x)
        assert np.all(np.abs(q_func(x) - q) <= 8 * np.maximum(1.0, x * x) * np.spacing(q))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                q_inv(bad)
            with pytest.raises(DomainError):
                q_inv(np.array([0.3, bad]))

    def test_elementwise_on_arrays(self):
        p = np.geomspace(1e-300, 0.999, 2000)
        assert type(q_inv(0.3)) is float and type(q_func(0.3)) is float
        q = q_inv(p)
        assert q.tolist() == [q_inv(x) for x in p.tolist()]
        assert q_func(q).tolist() == [q_func(x) for x in q.tolist()]


# Blocklengths at which numpy's log2 differs from math.log2 in the last bit
# (numpy 2.4 on an AVX-512 x86-64 CPU); the AWGN model's log2(n)/2 term
# must use math.log2 per element to match the scalar form there.
LOG2_SENSITIVE_N = [1621, 3242, 6484, 7957, 12968, 2102028]


def error_model(family):
    """The family's error model at SNR 30 (F = 20), the scalar formula it must
    match, written with math, and the payload bits per channel use."""
    gamma, f, ln2 = 30.0, 20, math.log(2.0)
    if family is ChannelFamily.AWGN:
        c, v = awgn_coeffs(gamma)
        return (
            lambda n, j: epsilon_awgn(n, gamma, j),
            lambda n, j: q_func((n * c - j + 0.5 * math.log2(n)) / math.sqrt(n * v)),
            c,
        )
    if family is ChannelFamily.FADING_CSI:
        c, v = fading_csi_coeffs(gamma, f)
        return (
            lambda n, j: epsilon_fading_csi(n, gamma, j, f),
            lambda n, j: q_func((n * c - j * ln2) / math.sqrt(n * f * v)),
            c / ln2,
        )
    info, disp = fading_nocsi_coeffs(gamma, f)
    return (
        lambda n, j: epsilon_fading_nocsi(n, gamma, j, f),
        lambda n, j: q_func((n * info - j * f * ln2) / math.sqrt(n * f * disp)),
        info / (f * ln2),
    )


@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_epsilon_elementwise_on_arrays(family):
    model, formula, per_use = error_model(family)
    n = np.array(LOG2_SENSITIVE_N + list(range(1, 3000, 7)), dtype=float)
    # Payloads near capacity leave a small margin, so the last bit of the
    # AWGN log2 term shows in the error; the rest cover both tails.
    k = len(LOG2_SENSITIVE_N)
    j_bits = np.concatenate([n[:k] * per_use, np.linspace(50.0, 5000.0, n.size - k)])
    expected = [formula(int(m), j) for m, j in zip(n.tolist(), j_bits.tolist())]
    assert model(n, j_bits).tolist() == expected
    assert [model(int(m), j) for m, j in zip(n.tolist(), j_bits.tolist())] == expected
    # Blocklengths past float precision come as Python ints in an object array.
    big = np.array([2**53 + 1, 3**40, 2**70 + 12345], dtype=object)
    j_big = np.array([float(m) * per_use for m in big.tolist()])
    expected = [formula(m, j) for m, j in zip(big.tolist(), j_big.tolist())]
    assert model(big, j_big).tolist() == expected
    assert type(model(5, 10.0)) is float
    with pytest.raises(DomainError):
        model(np.array([3.0, 0.0]), np.array([10.0, 10.0]))


class TestAwgn:
    def test_unit_snr(self):
        c, v = awgn_coeffs(1.0)
        assert c == 0.5
        assert v == pytest.approx(0.375 * math.log2(math.e) ** 2, rel=1e-12)
        assert v == pytest.approx(0.7805133679, rel=1e-9)

    def test_dispersion_limit(self):
        _, v = awgn_coeffs(1e9)
        assert v == pytest.approx(0.5 * math.log2(math.e) ** 2, rel=1e-6)

    def test_epsilon_at_capacity_point(self):
        # n = 1 with n*C = J leaves only the vanishing log term.
        c, _ = awgn_coeffs(3.0)
        assert epsilon_awgn(1, 3.0, c) == 0.5

    def test_epsilon_example(self):
        assert epsilon_awgn(200, 1.0, 100) == pytest.approx(0.3797, abs=2e-3)
        assert epsilon_awgn(200, 1.0, 100) == pytest.approx(0.37984096564506886, rel=1e-12)

    def test_epsilon_vanishes_for_tiny_payload(self):
        assert epsilon_awgn(10000, 1.0, 1e-6) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            awgn_coeffs(0.0)
        with pytest.raises(DomainError):
            epsilon_awgn(0, 1.0, 10)
        with pytest.raises(DomainError):
            epsilon_awgn(10, 1.0, 0.0)


def quad_moment(f):
    """E[f(Z)] for Z a unit-mean exponential, by adaptive quadrature."""
    value, _ = integrate.quad(
        lambda z: f(z) * math.exp(-z), 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500
    )
    return value


class TestFadingCsi:
    def test_matches_adaptive_quadrature(self):
        for gamma in np.geomspace(1e-3, 1e3, 61).tolist():
            mean = quad_moment(lambda z: math.log1p(gamma * z))
            second = quad_moment(lambda z: math.log1p(gamma * z) ** 2)
            recip = quad_moment(lambda z: 1.0 / (1.0 + gamma * z))
            for coherence in (3, 20, 200):
                dispersion = second - mean * mean + (1.0 - recip * recip) / coherence
                c, v = fading_csi_coeffs(gamma, coherence)
                assert c == pytest.approx(mean, rel=1e-12)
                assert v == pytest.approx(dispersion, rel=1e-12)

    def test_matches_exponential_integral_closed_forms(self):
        for gamma in (0.1, 1.0, 10.0, 100.0):
            closed_mean = math.exp(1 / gamma) * exp1(1 / gamma)
            c, _ = fading_csi_coeffs(gamma, 20)
            assert c == pytest.approx(closed_mean, rel=1e-10)

    def test_low_snr_limits(self):
        c, _ = fading_csi_coeffs(1e-6, 5)
        assert c == pytest.approx(0.0, abs=1e-5)

    def test_coherence_only_scales_correction_terms(self):
        gamma = 2.0
        c5, v5 = fading_csi_coeffs(gamma, 5)
        c_inf, v_inf = fading_csi_coeffs(gamma, 10**9)
        assert c5 == c_inf
        # The 1/F terms vanish, leaving the bare variance.
        second_minus_mean_sq = v_inf
        assert v5 == pytest.approx(
            second_minus_mean_sq + (1 - (c5 / gamma) ** 2) / 5, rel=1e-8
        )

    def test_moments_against_monte_carlo(self):
        rng = np.random.default_rng(404)
        n = 10**6
        z = rng.standard_exponential(n)
        for gamma in (0.1, 1.0, 10.0):
            logs = np.log1p(gamma * z)
            mean, se = logs.mean(), logs.std(ddof=1) / math.sqrt(n)
            c, _ = fading_csi_coeffs(gamma, 20)
            assert abs(c - mean) <= 3 * se

    def test_epsilon_midpoint_and_fixture(self):
        gamma = db_to_linear(1.0)
        c, _ = fading_csi_coeffs(gamma, 20)
        n = 500
        j_bits = n * c / math.log(2)  # n*C_c equals J*ln2
        assert epsilon_fading_csi(n, gamma, j_bits, 20) == pytest.approx(0.5, rel=1e-9)
        assert epsilon_fading_csi(500, gamma, 100, 20) == pytest.approx(
            1.938488489138079e-08, rel=1e-6
        )

    def test_epsilon_monotone_in_n(self):
        gamma = db_to_linear(1.0)
        values = [epsilon_fading_csi(n, gamma, 200, 20) for n in range(200, 2000, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFadingNoCsi:
    def test_coefficient_formulas(self):
        info, disp = fading_nocsi_coeffs(100.0, 3)
        expected = (
            2 * math.log(300)
            - math.lgamma(3)
            - 2 * (1 + np.euler_gamma)
            + 3 / 500
        )
        assert info == pytest.approx(expected, rel=1e-12)
        assert info == pytest.approx(7.565986438949391, rel=1e-9)
        assert disp == pytest.approx(4 * math.pi**2 / 6 + 2, rel=1e-12)
        assert disp == pytest.approx(8.5797362674, rel=1e-9)

    def test_coherence_domain(self):
        with pytest.raises(DomainError):
            fading_nocsi_coeffs(100.0, 2)

    def test_epsilon_boundary_and_fixture(self):
        gamma = 126.49110640673516  # 15 dB reference scaled by 800/200
        info, _ = fading_nocsi_coeffs(gamma, 20)
        n = 1000
        j_bits = n * info / (20 * math.log(2))
        assert epsilon_fading_nocsi(n, gamma, j_bits, 20) == pytest.approx(0.5, rel=1e-9)
        assert epsilon_fading_nocsi(110, gamma, 600, 20) == pytest.approx(
            0.3526897778182625, rel=1e-9
        )

    def test_epsilon_monotone_in_n(self):
        gamma = 126.49110640673516
        values = [epsilon_fading_nocsi(n, gamma, 600, 20) for n in range(105, 400, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEpsilonGridProperties:
    def test_decreasing_in_n_increasing_in_payload(self):
        # Grids chosen so no value saturates to exactly 0.0 or 1.0 in double.
        gamma = 0.5
        grid_n = [50, 100, 200, 400, 800]
        for j_bits in (10.0, 40.0):
            eps = [epsilon_awgn(n, gamma, j_bits) for n in grid_n]
            assert all(0.0 < e < 1.0 for e in eps)
            assert all(a > b for a, b in zip(eps, eps[1:]))
        eps = [epsilon_awgn(100, gamma, j) for j in (10.0, 25.0, 40.0)]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_fading_payload_monotonicity(self):
        gamma = db_to_linear(1.0)
        eps = [epsilon_fading_csi(500, gamma, j, 20) for j in (100.0, 200.0, 300.0)]
        assert all(a < b for a, b in zip(eps, eps[1:]))
        gamma = 126.49110640673516
        eps = [epsilon_fading_nocsi(120, gamma, j, 20) for j in (500.0, 600.0, 700.0)]
        assert all(a < b for a, b in zip(eps, eps[1:]))


class TestChannelSpec:
    def test_snr_scaling_fig4(self):
        spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
        assert abs(10 * math.log10(spec.gamma) - (-10.1)) < 0.1

    def test_snr_scaling_fig5(self):
        spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(15), 10_000, 100_000)
        assert 10 * math.log10(spec.gamma) == pytest.approx(5.0, abs=1e-9)

    def test_equal_bandwidths_passthrough(self):
        spec = ChannelSpec(ChannelFamily.AWGN, 3.0, 10_000, 10_000)
        assert spec.gamma == 3.0

    def test_nocsi_needs_coherence_above_two(self):
        with pytest.raises(DomainError):
            ChannelSpec(ChannelFamily.FADING_NOCSI, 10.0, 1e4, 1e4, coherence=2)
        ChannelSpec(ChannelFamily.FADING_NOCSI, 10.0, 1e4, 1e4, coherence=3)

    def test_fading_needs_coherence(self):
        with pytest.raises(DomainError):
            ChannelSpec(ChannelFamily.FADING_CSI, 10.0, 1e4, 1e4)

    @pytest.mark.parametrize(
        "gamma0, b0, b",
        [
            (math.nan, 1e4, 1e4),
            (math.inf, 1e4, 1e4),
            (0.0, 1e4, 1e4),
            (10.0, math.nan, 1e4),
            (10.0, math.inf, 1e4),
            (10.0, 1e4, math.nan),
            (10.0, 1e4, math.inf),
            (10.0, 1e4, 0.0),
            (10.0, 1e4, -1e4),
            (1e300, 1e300, 1.0),
        ],
        ids=[
            "nan-snr", "inf-snr", "zero-snr", "nan-b0", "inf-b0", "nan-b", "inf-b",
            "zero-b", "negative-b", "overflowing-snr",
        ],
    )
    def test_rejects_non_finite_or_non_positive_inputs(self, gamma0, b0, b):
        with pytest.raises(DomainError, match="finite and positive"):
            ChannelSpec(ChannelFamily.AWGN, gamma0, b0, b)

    @pytest.mark.parametrize("coherence", [math.nan, math.inf, 20.0, 20.5])
    def test_rejects_non_integral_coherence(self, coherence):
        for family in ChannelFamily:
            with pytest.raises(DomainError, match="must be an integer"):
                ChannelSpec(family, 10.0, 1e4, 1e4, coherence=coherence)

    def test_accepts_numpy_integer_coherence(self):
        spec = ChannelSpec(ChannelFamily.FADING_CSI, 10.0, 1e4, 1e4, coherence=np.int64(20))
        assert spec.coherence == 20


def test_import_leaves_out_scipy_integrate():
    env = {**os.environ, "PYTHONPATH": str(Path(latdist.__file__).resolve().parents[1])}
    code = "import latdist, sys; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
