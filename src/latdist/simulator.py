"""Monte Carlo check of the end-to-end expected distortion bound.

Channel decoding is abstracted to a Bernoulli failure at the solved error
probability; what the receiver reconstructs on a failure is a pluggable
error model, since the distortion bound only needs failures to cost at
most total variation 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .budget import Scheme, budget_lq, budget_slq, uq_bits_per_entry
from .codec import (
    LexIndex,
    composition_count,
    composition_count_bits,
    unrank_composition,
    unrank_subset,
)
from .errors import DomainError
from .prob import ProbVector, tv_distance
from .quantizers import (
    SLQEncoding,
    lq_decode,
    lq_encode,
    slq_decode,
    slq_encode,
    uq_decode,
    uq_encode,
)


class ErrorModel(Enum):
    # Decode a uniformly random valid payload index.
    UNIFORM_INDEX = "uniform"
    # Decode the simplex vertex farthest in total variation from the input.
    ADVERSARIAL_VERTEX = "adversarial"


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run."""

    trials: int
    seed: int
    error_model: ErrorModel
    scheme: Scheme
    k: int
    beta_s: float
    eps_target: float
    k_top: int | None = None
    delta: float = 0.0
    ell: int | None = None
    bits_per_entry: int | None = None
    source_tail_mass: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")
        if not 0.0 <= self.eps_target <= 1.0:
            raise DomainError(f"error probability must be in [0, 1], got {self.eps_target}")
        if self.scheme is Scheme.SLQ and self.k_top is None:
            raise DomainError("sparse scheme needs k_top")

    def resolved_ell(self) -> int | None:
        if self.scheme is Scheme.UQ:
            return None
        if self.ell is not None:
            return self.ell
        if self.scheme is Scheme.LQ:
            return budget_lq(self.k, self.beta_s)[0]
        return budget_slq(self.k, self.k_top, self.delta, self.beta_s)[0]

    def resolved_bits_per_entry(self) -> int | None:
        if self.scheme is not Scheme.UQ:
            return None
        if self.bits_per_entry is not None:
            return self.bits_per_entry
        return uq_bits_per_entry(self.k, self.beta_s)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["error_model"] = self.error_model.value
        out["scheme"] = self.scheme.value
        out["resolved_ell"] = self.resolved_ell()
        out["resolved_bits_per_entry"] = self.resolved_bits_per_entry()
        return out


@dataclass
class SimReport:
    """Empirical distortion against the analytical bound (1-eps)*beta_s + eps."""

    empirical_mean_distortion: float
    std_error: float
    bound: float
    violations: int
    within_bound: bool
    trials: int
    config: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "empirical_mean_distortion": self.empirical_mean_distortion,
                "std_error": self.std_error,
                "bound": self.bound,
                "violations": self.violations,
                "within_bound": self.within_bound,
                "trials": self.trials,
                "config": self.config,
            },
            sort_keys=True,
        )


def random_simplex(k: int, rng: np.random.Generator, concentration: float | None = None) -> ProbVector:
    """Uniform simplex sample from normalized unit exponentials.

    With ``concentration`` c > 1 the draw is a symmetric Dirichlet with
    parameter 1/c, which piles mass onto few coordinates as c grows;
    c = 1 recovers the flat distribution.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if concentration is None or concentration == 1.0:
        draws = rng.standard_exponential(k)
    else:
        if concentration <= 0:
            raise DomainError(f"concentration must be positive, got {concentration}")
        draws = rng.gamma(1.0 / concentration, size=k)
        if not draws.any():
            draws = np.ones(k)
    return ProbVector(draws, normalize=True)


def random_sparse_simplex(
    k: int, top: int, tail_mass: float, rng: np.random.Generator
) -> ProbVector:
    """Simplex sample whose smallest k - top entries carry at most ``tail_mass``.

    The heavy block of ``top`` coordinates is placed at random positions and
    receives mass 1 - tail_mass spread as a flat Dirichlet; the remainder is
    spread over the other coordinates the same way.
    """
    if not 1 <= top <= k:
        raise DomainError(f"need 1 <= top <= k, got top={top}, k={k}")
    if not 0.0 <= tail_mass < 1.0:
        raise DomainError(f"tail mass must be in [0, 1), got {tail_mass}")
    values = np.zeros(k)
    positions = rng.permutation(k)
    heavy = rng.standard_exponential(top)
    values[positions[:top]] = (1.0 - tail_mass) * heavy / heavy.sum()
    if top < k and tail_mass > 0:
        light = rng.standard_exponential(k - top)
        values[positions[top:]] = tail_mass * light / light.sum()
    return ProbVector(values, normalize=True)


def _uniform_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) that works beyond 64-bit cardinalities."""
    if bound <= 0:
        raise DomainError(f"need a positive bound, got {bound}")
    if bound <= (1 << 63):
        return int(rng.integers(bound))
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if value < bound:
            return value


def _farthest_vertex(p: ProbVector) -> ProbVector:
    values = np.zeros(p.k)
    values[int(np.argmin(p.values))] = 1.0
    return ProbVector(values)


def _corrupted(cfg: SimConfig, p: ProbVector, rng: np.random.Generator) -> ProbVector:
    """Receiver output when the decoder fails, per the configured error model."""
    if cfg.error_model is ErrorModel.ADVERSARIAL_VERTEX:
        return _farthest_vertex(p)
    if cfg.scheme is Scheme.UQ:
        j = cfg.resolved_bits_per_entry()
        ids = tuple(int(x) for x in rng.integers(0, 1 << j, size=cfg.k))
        mid = (np.array(ids, dtype=float) + 0.5) / (1 << j)
        return ProbVector(mid, normalize=True)
    ell = cfg.resolved_ell()
    if cfg.scheme is Scheme.LQ:
        idx = _uniform_below(rng, composition_count(cfg.k, ell))
        return lq_decode(unrank_composition(idx, cfg.k, ell))
    subset_idx = _uniform_below(rng, math.comb(cfg.k, cfg.k_top))
    lattice_idx = _uniform_below(rng, composition_count(cfg.k_top, ell))
    positions = unrank_subset(subset_idx, cfg.k, cfg.k_top)
    lattice_index = LexIndex(lattice_idx, composition_count_bits(cfg.k_top, ell))
    return slq_decode(SLQEncoding(positions, lattice_index, ell, cfg.k, cfg.k_top))


def _quantize(cfg: SimConfig, p: ProbVector) -> ProbVector:
    if cfg.scheme is Scheme.UQ:
        return uq_decode(uq_encode(p, cfg.resolved_bits_per_entry()))
    if cfg.scheme is Scheme.LQ:
        return lq_decode(lq_encode(p, cfg.resolved_ell()))
    return slq_decode(slq_encode(p, cfg.k_top, cfg.resolved_ell()))


def simulate_end_to_end(cfg: SimConfig) -> SimReport:
    """Run the trials and compare mean distortion with the analytical bound.

    Each trial draws an input (flat simplex draws, or tail-controlled draws
    for the sparse scheme), quantizes it, flips a failure coin at the
    operating error probability, and measures the total variation to what
    the receiver reconstructs. Trials use counter-derived generator streams
    keyed by (seed, trial), so the report depends on the config alone.
    """
    tail_bound = cfg.source_tail_mass if cfg.source_tail_mass is not None else cfg.delta
    distortions = np.empty(cfg.trials)
    for i in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, i])
        if cfg.scheme is Scheme.SLQ:
            p = random_sparse_simplex(cfg.k, cfg.k_top, rng.uniform(0.0, tail_bound), rng)
        else:
            p = random_simplex(cfg.k, rng)
        quantized = _quantize(cfg, p)
        failed = rng.uniform() < cfg.eps_target
        received = _corrupted(cfg, p, rng) if failed else quantized
        distortions[i] = tv_distance(p, received)

    mean = float(np.sum(distortions) / cfg.trials)
    if cfg.trials > 1:
        std_error = float(np.std(distortions, ddof=1) / math.sqrt(cfg.trials))
    else:
        std_error = 0.0
    bound = (1.0 - cfg.eps_target) * cfg.beta_s + cfg.eps_target
    violations = int(np.count_nonzero(distortions > 1.0 + 1e-12))
    return SimReport(
        empirical_mean_distortion=mean,
        std_error=std_error,
        bound=bound,
        violations=violations,
        within_bound=mean <= bound + 3.0 * std_error,
        trials=cfg.trials,
        config=cfg.to_dict(),
    )
