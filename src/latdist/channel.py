"""Finite-blocklength decoding error models for AWGN and Rayleigh fading links.

Every family shares one normal approximation (Polyanskiy, Poor & Verdu,
2010). Sending a payload over n channel uses fails with probability

    eps = Q((n * rate - payload [+ (1/2)log2(n) on AWGN]) / sqrt(n * F * v))

and only the family's row differs (C, V: AWGN capacity and dispersion in
bits; C_c, V_c: receiver-CSI fading moments in nats; I, V_b: no-CSI
information and dispersion per coherence block of F channel uses):

    family         rate  F   v     payload
    awgn           C     1   V     J
    fading-csi     C_c   F   V_c   J * ln 2
    fading-nocsi   I     F   V_b   J * F * ln 2

The error models and the blocklength solver in ``optimizer`` read the same
row. Blocklengths always count channel uses, so latency is n / (2B) for
every family.

Q and its inverse come from the standard library, one element at a time:
Q(x) = erfc(x / sqrt(2)) / 2 from libm, and Q^-1 from Wichura's AS241,
which ``statistics`` implements with libm's log and sqrt. Arrays and
scalars thus round alike, the rule ``elementwise`` states, and latdist
needs no scipy. ``_z`` gives the argument of Q alone, on a row that
``_model_row`` has built and checked: the solver's refine builds its row
once, compares z with Q^-1 of the target and never evaluates Q. It passes
numpy's log2 for the AWGN term first and libm's only at near-ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from numbers import Integral

import numpy as np

from .elementwise import _per_element, brief, log1p, log2
from .errors import DomainError

LOG2_E = math.log2(math.e)
LN_2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)
EULER_GAMMA = float(np.euler_gamma)

# Exp-sinh rule (Takahasi & Mori, 1974) for E[f(Z)], Z a unit-mean
# exponential: z = exp(t - e^-t) maps t in R onto (0, inf) with weights
# h * dz/dt * e^-z that decay double exponentially at both ends. The
# trapezoidal rule with h = 1/16 on t in [-6, 6] then gives the fading-CSI
# moments to about 1e-13 relative for SNRs from 1e-3 to 1e3; the outermost
# weights are near 1e-176, so none underflows.
_H = 1.0 / 16.0
_T = [i * _H for i in range(-96, 97)]
_NODES = np.array([math.exp(t - math.exp(-t)) for t in _T])
_WEIGHTS = np.array(
    [_H * z * (1.0 + math.exp(-t)) * math.exp(-z) for t, z in zip(_T, _NODES.tolist())]
)

# Distinct (SNR, coherence) entries kept per fading-coefficient cache: the
# keys are floats, so an unbounded cache grows with every SNR ever asked.
_COEFF_CACHE = 256


class ChannelFamily(Enum):
    AWGN = "awgn"
    FADING_CSI = "fading-csi"
    FADING_NOCSI = "fading-nocsi"


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB overflows a linear ratio") from None


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
        """Linear SNR at the operating bandwidth: gamma0 * B0 / B."""
        return self.gamma0 * self.bandwidth0_hz / self.bandwidth_hz


def _q(x: float) -> float:
    return 0.5 * math.erfc(x * _SQRT_HALF)


def q_func(x: float) -> float:
    """Complementary CDF of the standard Gaussian; elementwise on an array."""
    return _per_element(_q, x)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1); elementwise on an array."""
    if not np.all((0.0 < p) & (p < 1.0)):
        raise DomainError(f"q_inv needs p in (0, 1), got {brief(p)}")
    # AS241, in C where CPython builds _statistics. Imported here, so that
    # `import latdist` does not load statistics.
    from statistics import _normal_dist_inv_cdf as inv_cdf

    if isinstance(p, np.ndarray):
        values = map(inv_cdf, p.ravel().tolist(), repeat(0.0), repeat(1.0))
        return -np.fromiter(values, float, p.size).reshape(p.shape)
    return -inv_cdf(p, 0.0, 1.0)


def awgn_coeffs(gamma: float) -> tuple[float, float]:
    """Capacity (1/2)log2(1+g) and dispersion g(g+2)/(2(g+1)^2) * log2(e)^2."""
    if not 0.0 < gamma < math.inf:  # also NaN
        raise DomainError(f"SNR must be finite and positive, got {gamma}")
    capacity = 0.5 * math.log2(1.0 + gamma)
    try:
        denominator = 2.0 * (gamma + 1.0) ** 2
    except OverflowError:  # the square, from about 1.34e154
        denominator = math.inf
    if denominator == math.inf:  # from about 9.5e153, where g(g+2)/(g+1)^2 is 1
        return capacity, 0.5 * LOG2_E**2
    return capacity, gamma * (gamma + 2.0) / denominator * LOG2_E**2


@lru_cache(maxsize=_COEFF_CACHE)
def fading_csi_coeffs(gamma: float, coherence: int) -> tuple[float, float]:
    """Moments of log(1+gamma*Z), Z exponential, for the receiver-CSI model.

    capacity = E[log(1+gZ)]; dispersion = var[log(1+gZ)] + 1/F - E[1/(1+gZ)]^2/F.
    The three moments are weighted sums over one fixed exp-sinh rule, not an
    adaptive quadrature. Closed forms via the exponential integral exist and
    are used as cross-checks in the tests.
    """
    if not 0.0 < gamma < math.inf:  # also NaN
        raise DomainError(f"SNR must be finite and positive, got {gamma}")
    if coherence < 1:
        raise DomainError(f"coherence interval must be >= 1, got {coherence}")
    log = log1p(gamma * _NODES)
    mean = float((_WEIGHTS * log).sum())
    second = float((_WEIGHTS * log * log).sum())
    recip = float((_WEIGHTS / (1.0 + gamma * _NODES)).sum())
    variance = second - mean * mean
    dispersion = variance + (1.0 - recip * recip) / coherence
    return mean, dispersion


@lru_cache(maxsize=_COEFF_CACHE)
def fading_nocsi_coeffs(gamma: float, coherence: int) -> tuple[float, float]:
    """High-SNR information and dispersion per block for the no-CSI model.

    block_info = (F-1)log(F*gamma) - log Gamma(F) - (F-1)(1+euler_gamma)
    + F/(5*gamma), the last term a correction that vanishes as gamma grows;
    block_dispersion = (F-1)^2 * pi^2/6 + (F-1). Only meaningful at high SNR:
    below gamma = F/(5(F-1)) the correction makes block_info rise as gamma
    falls, and the solver refuses such SNRs.
    """
    if not 0.0 < gamma < math.inf:  # also NaN
        raise DomainError(f"SNR must be finite and positive, got {gamma}")
    if coherence <= 2:
        raise DomainError(f"coherence interval must exceed 2, got {coherence}")
    block_info = (
        (coherence - 1) * math.log(coherence * gamma)
        - math.lgamma(coherence)
        - (coherence - 1) * (1.0 + EULER_GAMMA)
        + coherence / (5.0 * gamma)
    )
    block_dispersion = (coherence - 1) ** 2 * math.pi**2 / 6.0 + (coherence - 1)
    return block_info, block_dispersion


def _nocsi_snr_floor(coherence: int) -> float:
    """The SNR F/(5(F-1)) below which the no-CSI block information rises as the SNR falls."""
    return coherence / (5.0 * (coherence - 1))


def _model_row(family: ChannelFamily, gamma: float, j_bits, coherence: int | None = None):
    """The family's row of the module's table: rate, F, v and the payload in the rate's unit.

    Elementwise over an array of j_bits, which must be positive: ``_z`` trusts the row.
    """
    if not np.all(j_bits > 0):  # also NaN
        raise DomainError(f"payload must be positive, got {brief(j_bits)}")
    if family is ChannelFamily.AWGN:
        c, v = awgn_coeffs(gamma)
        return c, 1, v, j_bits
    if family is ChannelFamily.FADING_CSI:
        c, v = fading_csi_coeffs(gamma, coherence)
        return c, coherence, v, j_bits * LN_2
    info, disp = fading_nocsi_coeffs(gamma, coherence)
    return info, coherence, disp, j_bits * coherence * LN_2


def _z(family: ChannelFamily, n, row, log2=log2):
    """The normal-approximation argument z on the family's row, with eps = Q(z).

    Elementwise over n >= 1 and the payload of a row ``_model_row`` built and
    checked. The AWGN log2(n) is taken by ``log2``: libm's, per element, by
    default; the refine passes numpy's, which can round the last bit
    otherwise (see ``optimizer._refine``). Blocklengths too large for floats
    to count exactly come as Python ints in an object array; their products
    turn into floats only at the division, each rounded once, as in the
    scalar form.
    """
    rate, f, v, payload = row
    margin, scale = n * rate - payload, n * f * v
    if family is ChannelFamily.AWGN:
        margin = margin + 0.5 * log2(n)
    if isinstance(margin, np.ndarray) and margin.dtype == object:
        margin, scale = margin.astype(float), scale.astype(float)
    return margin / np.sqrt(scale)


def _epsilon(family: ChannelFamily, n, gamma: float, j_bits, coherence: int | None = None):
    """The family's block error probability Q(z); elementwise over n and j_bits.

    The no-CSI model is refused below its SNR floor, as the solver refuses it.
    """
    if not np.all((1 <= n) & (n < math.inf)):  # also NaN
        raise DomainError(f"blocklength must be >= 1, got {brief(n)}")
    row = _model_row(family, gamma, j_bits, coherence)
    if family is ChannelFamily.FADING_NOCSI and gamma < _nocsi_snr_floor(coherence):
        raise DomainError(
            f"SNR {gamma} is below {_nocsi_snr_floor(coherence)}, where the no-CSI block "
            "information stops rising with the SNR; the high-SNR model does not apply"
        )
    return q_func(_z(family, n, row))


def epsilon_awgn(n: int, gamma: float, j_bits: float) -> float:
    """Block error probability for sending j_bits over n AWGN channel uses.

    Elementwise over arrays of n and j_bits.
    """
    return _epsilon(ChannelFamily.AWGN, n, gamma, j_bits)


def epsilon_fading_csi(n: int, gamma: float, j_bits: float, coherence: int) -> float:
    """Block error probability with receiver CSI over a Rayleigh block-fading link.

    Elementwise over arrays of n and j_bits.
    """
    return _epsilon(ChannelFamily.FADING_CSI, n, gamma, j_bits, coherence)


def epsilon_fading_nocsi(n: int, gamma: float, j_bits: float, coherence: int) -> float:
    """Block error probability without CSI; the model is valid only where it lands in (0, 1/2).

    SNRs below F/(5(F-1)), where the high-SNR model does not apply, raise DomainError.

    Elementwise over arrays of n and j_bits.
    """
    return _epsilon(ChannelFamily.FADING_NOCSI, n, gamma, j_bits, coherence)
