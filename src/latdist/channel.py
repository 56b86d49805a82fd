"""Finite-blocklength decoding error models for AWGN and Rayleigh fading links.

Unit conventions follow the source formulas: the AWGN model works in bits
per channel use, while both fading models work in nats and convert the
payload from bits with an explicit ln(2) factor. Blocklengths always count
channel uses, so latency is n / (2B) for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .elementwise import brief, log2
from .errors import DomainError, QuadratureFailure

LOG2_E = math.log2(math.e)
LN_2 = math.log(2.0)
EULER_GAMMA = float(np.euler_gamma)

# Absolute tolerance required of the fading-moment quadratures.
_QUAD_TOL = 1e-8


class ChannelFamily(Enum):
    AWGN = "awgn"
    FADING_CSI = "fading-csi"
    FADING_NOCSI = "fading-nocsi"


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB overflows a linear ratio") from None


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise DomainError(f"need a positive ratio, got {x}")
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family with its reference SNR, bandwidths, and coherence interval.

    ``gamma0`` is the linear SNR measured at reference bandwidth
    ``bandwidth0_hz``; operating at ``bandwidth_hz`` rescales it.
    """

    family: ChannelFamily
    gamma0: float
    bandwidth0_hz: float
    bandwidth_hz: float
    coherence: int | None = None

    def __post_init__(self):
        inputs = (self.gamma0, self.bandwidth0_hz, self.bandwidth_hz)
        # The operational SNR is checked too: finite inputs can overflow it.
        if not all(0.0 < x < math.inf for x in inputs) or not 0.0 < self.gamma < math.inf:
            raise DomainError(
                "SNR and bandwidths must be finite and positive, got "
                f"gamma0={self.gamma0}, bandwidth0_hz={self.bandwidth0_hz}, "
                f"bandwidth_hz={self.bandwidth_hz}"
            )
        if self.coherence is not None and not isinstance(self.coherence, Integral):
            raise DomainError(f"coherence interval must be an integer, got {self.coherence!r}")
        if self.family is not ChannelFamily.AWGN:
            if self.coherence is None or self.coherence < 1:
                raise DomainError("fading channels need a coherence interval >= 1")
            if self.family is ChannelFamily.FADING_NOCSI and self.coherence <= 2:
                raise DomainError("the no-CSI model needs a coherence interval > 2")

    @property
    def gamma(self) -> float:
        return operational_snr(self)


def operational_snr(spec: ChannelSpec) -> float:
    """Linear SNR at the operating bandwidth: gamma0 * B0 / B."""
    return spec.gamma0 * spec.bandwidth0_hz / spec.bandwidth_hz


def q_func(x: float) -> float:
    """Complementary CDF of the standard Gaussian; elementwise on an array."""
    q = ndtr(-x)
    return q if isinstance(x, np.ndarray) else float(q)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1); elementwise on an array."""
    if not np.all((0.0 < p) & (p < 1.0)):
        raise DomainError(f"q_inv needs p in (0, 1), got {brief(p)}")
    q = -ndtri(p)
    return q if isinstance(p, np.ndarray) else float(q)


class AwgnCoefficients(NamedTuple):
    capacity: float  # bits per channel use
    dispersion: float  # bits^2 per channel use


def awgn_coeffs(gamma: float) -> AwgnCoefficients:
    """Capacity (1/2)log2(1+g) and dispersion g(g+2)/(2(g+1)^2) * log2(e)^2."""
    if gamma <= 0:
        raise DomainError(f"SNR must be positive, got {gamma}")
    capacity = 0.5 * math.log2(1.0 + gamma)
    dispersion = gamma * (gamma + 2.0) / (2.0 * (gamma + 1.0) ** 2) * LOG2_E**2
    return AwgnCoefficients(capacity, dispersion)


def _check_use(n, j_bits):
    if np.any(n < 1):
        raise DomainError(f"blocklength must be >= 1, got {brief(n)}")
    if np.any(j_bits <= 0):
        raise DomainError(f"payload must be positive, got {brief(j_bits)}")


def _q_ratio(margin, scale):
    """Q(margin / sqrt(scale)), elementwise.

    Blocklengths too large for floats to count exactly come as Python ints
    in an object array. Their products turn into floats only here, each
    rounded once, as in the scalar form.
    """
    if isinstance(margin, np.ndarray) and margin.dtype == object:
        margin, scale = margin.astype(float), scale.astype(float)
    return q_func(margin / np.sqrt(scale))


def epsilon_awgn(n: int, gamma: float, j_bits: float) -> float:
    """Block error probability for sending j_bits over n AWGN channel uses.

    Elementwise over arrays of n and j_bits.
    """
    _check_use(n, j_bits)
    c, v = awgn_coeffs(gamma)
    return _q_ratio(n * c - j_bits + 0.5 * log2(n), n * v)


def _exp_expectation(f: Callable[[float], float]) -> float:
    """E[f(Z)] for Z ~ unit-mean exponential, by adaptive quadrature."""
    value, err = integrate.quad(
        lambda z: f(z) * math.exp(-z), 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200
    )
    if err > _QUAD_TOL:
        raise QuadratureFailure(f"quadrature error {err} above {_QUAD_TOL}")
    return value


class FadingCsiCoefficients(NamedTuple):
    capacity: float  # nats per channel use
    dispersion: float  # nats^2, already includes the coherence terms


@lru_cache(maxsize=None)
def fading_csi_coeffs(gamma: float, coherence: int) -> FadingCsiCoefficients:
    """Moments of log(1+gamma*Z), Z exponential, for the receiver-CSI model.

    capacity = E[log(1+gZ)]; dispersion = var[log(1+gZ)] + 1/F - E[1/(1+gZ)]^2/F.
    Computed by deterministic quadrature; closed forms via the exponential
    integral exist and are used as cross-checks in the tests.
    """
    if gamma <= 0:
        raise DomainError(f"SNR must be positive, got {gamma}")
    if coherence < 1:
        raise DomainError(f"coherence interval must be >= 1, got {coherence}")
    mean = _exp_expectation(lambda z: math.log1p(gamma * z))
    second = _exp_expectation(lambda z: math.log1p(gamma * z) ** 2)
    recip = _exp_expectation(lambda z: 1.0 / (1.0 + gamma * z))
    variance = second - mean * mean
    dispersion = variance + (1.0 - recip * recip) / coherence
    return FadingCsiCoefficients(mean, dispersion)


def epsilon_fading_csi(n: int, gamma: float, j_bits: float, coherence: int) -> float:
    """Block error probability with receiver CSI over a Rayleigh block-fading link.

    Elementwise over arrays of n and j_bits.
    """
    _check_use(n, j_bits)
    c, v = fading_csi_coeffs(gamma, coherence)
    return _q_ratio(n * c - j_bits * LN_2, n * coherence * v)


class NoCsiCoefficients(NamedTuple):
    block_info: float  # nats per coherence block
    block_dispersion: float  # nats^2 per coherence block


@lru_cache(maxsize=None)
def fading_nocsi_coeffs(gamma: float, coherence: int) -> NoCsiCoefficients:
    """High-SNR information and dispersion per block for the no-CSI model.

    block_info = (F-1)log(F*gamma) - log Gamma(F) - (F-1)(1+euler_gamma)
    + F/(5*gamma), the last term a correction that vanishes as gamma grows;
    block_dispersion = (F-1)^2 * pi^2/6 + (F-1). Only meaningful at high SNR.
    """
    if gamma <= 0:
        raise DomainError(f"SNR must be positive, got {gamma}")
    if coherence <= 2:
        raise DomainError(f"coherence interval must exceed 2, got {coherence}")
    block_info = (
        (coherence - 1) * math.log(coherence * gamma)
        - math.lgamma(coherence)
        - (coherence - 1) * (1.0 + EULER_GAMMA)
        + coherence / (5.0 * gamma)
    )
    block_dispersion = (coherence - 1) ** 2 * math.pi**2 / 6.0 + (coherence - 1)
    return NoCsiCoefficients(block_info, block_dispersion)


def epsilon_fading_nocsi(n: int, gamma: float, j_bits: float, coherence: int) -> float:
    """Block error probability without CSI; the model is valid only where it lands in (0, 1/2).

    Elementwise over arrays of n and j_bits.
    """
    _check_use(n, j_bits)
    info, disp = fading_nocsi_coeffs(gamma, coherence)
    return _q_ratio(n * info - j_bits * coherence * LN_2, n * coherence * disp)
