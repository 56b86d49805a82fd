"""Bit budgets sufficient to hit a source distortion target for each scheme.

Each budget has two forms: the real-valued bound, consumed by the latency
optimizer as a smooth function of the source distortion, and the
implementable integer number of bits, consumed by the codecs. The real
bound also takes an array of source distortions, so that the optimizer
computes it once for a whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import composition_count_bits, log2_comb, subset_count_bits
from .elementwise import brief, log2, to_int
from .errors import BetaNotAboveDelta, DomainError

# Relative slack for snapping float ratios that land a few ulps above an
# integer before taking the ceiling.
_CEIL_GUARD = 1e-12


class Scheme(Enum):
    UQ = "uq"
    LQ = "lq"
    SLQ = "slq"


def _guarded_ceil(x):
    """Ceiling that snaps values a few ulps above an integer down to it.

    Elementwise on an array, giving integers as ``elementwise.to_int`` does.
    """
    nearest = np.rint(x)
    snap = np.abs(x - nearest) <= _CEIL_GUARD * np.maximum(1.0, np.abs(x))
    return to_int(np.where(snap, nearest, np.ceil(x)))


def _check_uq(k: int):
    if k < 2:
        raise DomainError(f"uniform budget needs k >= 2, got {k}")


def _check_lq(k: int):
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")


def _check_slq(k: int, k_top: int, delta: float):
    if not 1 <= k_top <= k:
        raise DomainError(f"need 1 <= k_top <= k, got k_top={k_top}, k={k}")
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"tail mass must be in [0, 1), got {delta}")


def _check_beta(beta_s, lower: float = 0.0):
    """Source distortions in (0, 1), and above the tail mass ``lower``."""
    if not np.all((0.0 < beta_s) & (beta_s < 1.0)):
        raise DomainError(f"source distortion must be in (0, 1), got {brief(beta_s)}")
    if not np.all(beta_s > lower):
        raise BetaNotAboveDelta(
            f"source distortion {brief(beta_s)} must exceed tail mass {lower}"
        )


def budget_uq(k: int, beta_s: float) -> float:
    """Bits sufficient for uniform quantization: 2k*log2(k/beta_s).

    Elementwise over an array of beta_s.
    """
    _check_uq(k)
    _check_beta(beta_s)
    return 2.0 * k * log2(k / beta_s)


def uq_bits_per_entry(k: int, beta_s: float) -> int:
    """Integer per-entry width implementing the uniform budget."""
    return _guarded_ceil(budget_uq(k, beta_s) / k)


def lattice_denominator(parts: int, beta: float) -> int:
    """Denominator ceil(parts / (4*beta)) that keeps lattice distortion under beta.

    Elementwise over an array of beta.
    """
    if np.any(beta <= 0):
        raise DomainError(f"distortion slack must be positive, got {brief(beta)}")
    return _guarded_ceil(np.maximum(1.0, parts / (4.0 * beta)))


def _lq_ell(k: int, beta_s):
    _check_lq(k)
    _check_beta(beta_s)
    return lattice_denominator(k, beta_s)


def _slq_ell(k: int, k_top: int, delta: float, beta_s):
    _check_slq(k, k_top, delta)
    _check_beta(beta_s, delta)
    return lattice_denominator(k_top, beta_s - delta)


def budget_lq(k: int, beta_s: float) -> tuple[int, int]:
    """Lattice denominator and integer bits sufficient for lattice quantization."""
    ell = _lq_ell(k, beta_s)
    return ell, composition_count_bits(k, ell)


def budget_slq(k: int, k_top: int, delta: float, beta_s: float) -> tuple[int, int]:
    """Denominator and integer bits for sparse lattice quantization.

    ``delta`` is the assumed mass of the discarded entries; the scheme is
    only defined for beta_s > delta.
    """
    ell = _slq_ell(k, k_top, delta, beta_s)
    bits = subset_count_bits(k, k_top) + composition_count_bits(k_top, ell)
    return ell, bits


@dataclass(frozen=True)
class BudgetFn:
    """Budget J(beta_s) for a fixed scheme and dimension.

    ``bits_real`` is the smooth bound used by the optimizer; ``bits_int``
    is what the codec actually sends.
    """

    scheme: Scheme
    k: int
    k_top: int | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.scheme is Scheme.UQ:
            _check_uq(self.k)
        elif self.scheme is Scheme.LQ:
            _check_lq(self.k)
        else:
            if self.k_top is None:
                raise DomainError("sparse scheme needs k_top")
            _check_slq(self.k, self.k_top, self.delta)

    @property
    def lower_edge(self) -> float:
        """Infimum of admissible source distortions."""
        return self.delta if self.scheme is Scheme.SLQ else 0.0

    def ell(self, beta_s: float) -> int | None:
        """Lattice denominator at this operating point (None for UQ).

        Elementwise over an array of beta_s.
        """
        if self.scheme is Scheme.UQ:
            return None
        if self.scheme is Scheme.LQ:
            return _lq_ell(self.k, beta_s)
        return _slq_ell(self.k, self.k_top, self.delta, beta_s)

    def bits_int(self, beta_s: float) -> int:
        if self.scheme is Scheme.UQ:
            return self.k * uq_bits_per_entry(self.k, beta_s)
        if self.scheme is Scheme.LQ:
            return budget_lq(self.k, beta_s)[1]
        return budget_slq(self.k, self.k_top, self.delta, beta_s)[1]

    def bits_real(self, beta_s: float) -> float:
        """Smooth bit bound at beta_s; elementwise over an array of beta_s."""
        if self.scheme is Scheme.UQ:
            return budget_uq(self.k, beta_s)
        parts = self.k if self.scheme is Scheme.LQ else self.k_top
        lattice = log2_comb(self.ell(beta_s) + parts - 1, parts - 1)
        if self.scheme is Scheme.LQ:
            return lattice
        return log2_comb(self.k, self.k_top) + lattice
