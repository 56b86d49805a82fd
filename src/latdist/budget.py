"""Bit budgets sufficient to hit a source distortion target for each scheme.

``BudgetFn`` is the implementation. It checks a coder's (scheme, k, k_top,
delta) once, at construction, and gives at any source distortion the
lattice denominator, the real-valued bound (smooth in beta_s for the latency
optimizer, and elementwise over a whole grid) and the integer bits the
codecs send. ``BudgetFn.coder`` builds the scheme's coder at a source
distortion, and is the one place that maps a scheme to its coder.
``budget_lq`` and ``budget_slq`` are views over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import composition_count_bits, log2_comb, log2_composition_count, subset_count_bits
from .elementwise import brief, log2, to_int
from .errors import BetaNotAboveDelta, DomainError
from .quantizers import LQCoder, SLQCoder, UQCoder

# Relative slack for snapping float ratios that land a few ulps above an
# integer before taking the ceiling.
_CEIL_GUARD = 1e-12


class Scheme(Enum):
    UQ = "uq"
    LQ = "lq"
    SLQ = "slq"


def _guarded_ceil(x):
    """Ceiling of x >= 1 that snaps values a few ulps above an integer down to it.

    Elementwise on an array, as integer-valued floats; a scalar gives a 0-d array.
    """
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= _CEIL_GUARD * x, nearest, np.ceil(x))


@dataclass(frozen=True)
class BudgetFn:
    """Budget J(beta_s) for a fixed scheme and dimension.

    ``bits_real`` is the smooth bound used by the optimizer; ``bits_int``
    is the sum of the exact widths of the fields the coder sends, before the
    wire pads them to whole bytes. ``k_top`` and ``delta`` (the assumed
    mass of the discarded entries) matter only to the sparse scheme, which
    is only defined for beta_s > delta.
    """

    scheme: Scheme
    k: int
    k_top: int | None = None
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))  # "lq" is Scheme.LQ
        if self.scheme is Scheme.UQ and self.k < 2:
            raise DomainError(f"uniform budget needs k >= 2, got {self.k}")
        if self.scheme is Scheme.LQ and self.k < 1:
            raise DomainError(f"need k >= 1, got {self.k}")
        if self.scheme is Scheme.SLQ:
            if self.k_top is None:
                raise DomainError("sparse scheme needs k_top")
            if not 1 <= self.k_top <= self.k:
                raise DomainError(f"need 1 <= k_top <= k, got k_top={self.k_top}, k={self.k}")
            if not 0.0 <= self.delta < 1.0:  # also NaN
                raise DomainError(f"tail mass must be in [0, 1), got {self.delta}")

    @property
    def lower_edge(self) -> float:
        """Infimum of admissible source distortions."""
        return self.delta if self.scheme is Scheme.SLQ else 0.0

    def _admit(self, beta_s):
        """Source distortions in (0, 1), and above the lower edge."""
        if not np.all((0.0 < beta_s) & (beta_s < 1.0)):
            raise DomainError(f"source distortion must be in (0, 1), got {brief(beta_s)}")
        if not np.all(beta_s > self.lower_edge):
            raise BetaNotAboveDelta(
                f"source distortion {brief(beta_s)} must exceed tail mass {self.lower_edge}"
            )

    @property
    def _parts(self) -> int:
        """Entries the lattice quantizes: k, or the k_top kept by the sparse scheme."""
        return self.k_top if self.scheme is Scheme.SLQ else self.k

    def ell(self, beta_s: float) -> int | None:
        """Lattice denominator at this operating point (None for UQ).

        Elementwise over an array of beta_s.
        """
        if self.scheme is Scheme.UQ:
            return None
        self._admit(beta_s)
        return to_int(self._ell(beta_s))

    def _ell(self, beta_s):
        """``ell`` as integer-valued floats, of a beta_s already admitted."""
        # ceil(parts / (4*slack)) keeps the lattice distortion under the slack beta_s - delta.
        ell = self._parts / (4.0 * (beta_s - self.lower_edge))
        self._refuse_infinite(ell, beta_s, "lattice denominator")
        return _guarded_ceil(np.maximum(1.0, ell))

    def _refuse_infinite(self, value, beta_s, what: str):
        """A beta_s so close to the lower edge that ``what`` overflows is out of the domain."""
        if np.any(np.isinf(value)):
            raise DomainError(
                f"source distortion {brief(beta_s)} is too close to the lower edge "
                f"{self.lower_edge}: its {what} is infinite"
            )

    def coder(self, beta_s: float | None, given: int | None = None):
        """The scheme's coder: a ``UQCoder``, ``LQCoder`` or ``SLQCoder``.

        Its width in bits per entry (UQ) or lattice denominator is ``given``
        if that is not None, else the budget's at beta_s. A beta_s that is
        not None is checked either way, and the coder refuses a width or
        denominator past what it can send.
        """
        if beta_s is not None:
            self._admit(beta_s)
        elif given is None:
            raise DomainError("a coder needs beta_s or a given width or denominator")
        if self.scheme is Scheme.UQ:
            return UQCoder(self.k, self.bits_int(beta_s) // self.k if given is None else given)
        ell = self.ell(beta_s) if given is None else given
        if self.scheme is Scheme.LQ:
            return LQCoder(self.k, ell)
        return SLQCoder(self.k, self.k_top, ell)

    def bits_int(self, beta_s: float) -> int:
        if self.scheme is Scheme.UQ:
            # bits_real / k = 2 log2(k / beta_s) > 2, finite as bits_real is.
            return self.k * to_int(_guarded_ceil(self.bits_real(beta_s) / self.k))
        bits = composition_count_bits(self._parts, self.ell(beta_s))
        if self.scheme is Scheme.SLQ:
            bits += subset_count_bits(self.k, self.k_top)
        return bits

    def bits_real(self, beta_s: float) -> float:
        """Smooth bit bound at beta_s; elementwise over an array of beta_s."""
        self._admit(beta_s)
        if self.scheme is Scheme.UQ:
            bits = 2.0 * self.k * log2(self.k / beta_s)
            self._refuse_infinite(bits, beta_s, "smooth bit bound")
            return bits
        lattice = log2_composition_count(self._parts, self._ell(beta_s))
        if self.scheme is Scheme.LQ:
            return lattice
        return log2_comb(self.k, self.k_top) + lattice


def budget_lq(k: int, beta_s: float) -> tuple[int, int]:
    """Lattice denominator and integer bits sufficient for lattice quantization."""
    fn = BudgetFn(Scheme.LQ, k)
    return fn.ell(beta_s), fn.bits_int(beta_s)


def budget_slq(k: int, k_top: int, delta: float, beta_s: float) -> tuple[int, int]:
    """Denominator and integer bits for sparse lattice quantization."""
    fn = BudgetFn(Scheme.SLQ, k, k_top, delta)
    return fn.ell(beta_s), fn.bits_int(beta_s)
