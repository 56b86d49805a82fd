"""Monte Carlo check of the end-to-end expected distortion bound.

Channel decoding is abstracted to a Bernoulli failure at the solved error
probability; what the receiver reconstructs on a failure is a pluggable
error model, since the distortion bound only needs failures to cost at
most total variation 1.

Reproducibility contract: every random number of trial i comes from its own
generator, ``numpy.random.default_rng([seed, i])``, so a report depends on
its config alone. Trials are quantized and measured in blocks of rows, and
the report bytes depend neither on the block size nor on the order of the
trials within a block.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .budget import BudgetFn, Scheme
from .codec import _trusted, composition_count, unrank_composition, unrank_subset
from .errors import DomainError
from .prob import ProbVector, tv_distance
from .quantizers import (
    SLQEncoding,
    UQEncoding,
    lq_decode,
    round_to_lattice,
    slq_counts,
    slq_decode,
    top_indices,
    uq_bins,
    uq_decode,
    uq_midpoints,
)

# Trials are quantized, corrupted and measured this many rows at a time, so
# memory stays O(_BLOCK * k) whatever the number of trials.
_BLOCK = 256


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
        object.__setattr__(self, "scheme", Scheme(self.scheme))  # "lq" is Scheme.LQ
        object.__setattr__(self, "error_model", ErrorModel(self.error_model))
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")
        if self.k < 2:  # every source draw has k >= 2 entries
            raise DomainError(f"need k >= 2, got {self.k}")
        if not 0.0 <= self.eps_target <= 1.0:
            raise DomainError(f"error probability must be in [0, 1], got {self.eps_target}")
        # The coder's k, k_top and delta, and beta_s against them, are checked
        # where its budget is stated, also when ell or bits_per_entry is given.
        BudgetFn(self.scheme, self.k, self.k_top, self.delta)._admit(self.beta_s)
        if self.scheme is Scheme.SLQ and not 0.0 <= self.tail_bound < 1.0:  # also NaN
            raise DomainError(f"source tail mass must be in [0, 1), got {self.tail_bound}")
        # A width or denominator the coder would refuse, given or from the
        # budget, fails before any trial.
        self._setting()

    @property
    def tail_bound(self) -> float:
        """Largest tail mass of a generated sparse input: source_tail_mass, else delta."""
        return self.source_tail_mass if self.source_tail_mass is not None else self.delta

    def _setting(self) -> int:
        given = self.bits_per_entry if self.scheme is Scheme.UQ else self.ell
        return BudgetFn(self.scheme, self.k, self.k_top, self.delta).setting(self.beta_s, given)

    def resolved_ell(self) -> int | None:
        return None if self.scheme is Scheme.UQ else self._setting()

    def resolved_bits_per_entry(self) -> int | None:
        return self._setting() if self.scheme is Scheme.UQ else None

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
        return json.dumps(asdict(self), sort_keys=True)


def _simplex_draws(k: int, rng: np.random.Generator) -> np.ndarray:
    """The unnormalized draws behind random_simplex."""
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    return rng.standard_exponential(k)


def random_simplex(k: int, rng: np.random.Generator) -> ProbVector:
    """Uniform simplex sample from normalized unit exponentials."""
    return ProbVector(_simplex_draws(k, rng), normalize=True)


def _sparse_simplex_draws(
    k: int, top: int, tail_mass: float, rng: np.random.Generator
) -> np.ndarray:
    """The unnormalized draws behind random_sparse_simplex."""
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
    return values


def random_sparse_simplex(
    k: int, top: int, tail_mass: float, rng: np.random.Generator
) -> ProbVector:
    """Simplex sample whose smallest k - top entries carry at most ``tail_mass``.

    The heavy block of ``top`` coordinates is placed at random positions and
    receives mass 1 - tail_mass spread as a flat Dirichlet; the remainder is
    spread over the other coordinates the same way.
    """
    return ProbVector(_sparse_simplex_draws(k, top, tail_mass, rng), normalize=True)


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


def _garbled(coder: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Receiver output for a uniformly random valid payload index."""
    k, ell = coder.k, coder.ell
    if coder.scheme is Scheme.UQ:
        j = coder.bits_per_entry
        ids = tuple(rng.integers(0, 1 << j, size=k).tolist())
        return uq_decode(_trusted(UQEncoding, ids, j)).values
    if coder.scheme is Scheme.LQ:
        idx = _uniform_below(rng, composition_count(k, ell))
        return lq_decode(unrank_composition(idx, k, ell)).values
    subset_idx = _uniform_below(rng, math.comb(k, coder.k_top))
    lattice_idx = _uniform_below(rng, composition_count(coder.k_top, ell))
    positions = unrank_subset(subset_idx, k, coder.k_top)
    point = unrank_composition(lattice_idx, coder.k_top, ell)
    return slq_decode(SLQEncoding(positions, point)).values


def _decoded(coder: SimConfig, sources: np.ndarray) -> np.ndarray:
    """Each row coded and decoded by the quantizers' rules, normalized as ProbVector does."""
    if coder.scheme is Scheme.UQ:
        received = uq_midpoints(uq_bins(sources, coder.bits_per_entry), coder.bits_per_entry)
    elif coder.scheme is Scheme.LQ:
        received = round_to_lattice(sources, coder.ell).counts / coder.ell
    else:
        top = top_indices(sources, coder.k_top)
        counts = slq_counts(np.take_along_axis(sources, top, axis=1), coder.ell)
        received = np.zeros_like(sources)
        np.put_along_axis(received, top, counts / coder.ell, axis=1)
    return received / received.sum(axis=1, keepdims=True)


def simulate_end_to_end(cfg: SimConfig) -> SimReport:
    """Run the trials and compare mean distortion with the analytical bound.

    Each trial draws, from its own (seed, trial) stream and in this order,
    an input (flat simplex draws, or tail-controlled draws for the sparse
    scheme), a failure coin at the operating error probability and, for a
    failure under the uniform-index model, the payload index the receiver
    decodes. Quantization, corruption and the total variation to what the
    receiver reconstructs are then computed on a block of rows at a time.
    """
    # The coder depends on the config alone: resolve it once, not per trial.
    coder = replace(
        cfg, ell=cfg.resolved_ell(), bits_per_entry=cfg.resolved_bits_per_entry()
    )
    garble = cfg.error_model is ErrorModel.UNIFORM_INDEX
    distortions = np.empty(cfg.trials)
    for start in range(0, cfg.trials, _BLOCK):
        block = range(start, min(start + _BLOCK, cfg.trials))
        sources = np.empty((len(block), cfg.k))
        failed, garbled = [], []
        for row, trial in enumerate(block):
            rng = np.random.default_rng([cfg.seed, trial])
            if cfg.scheme is Scheme.SLQ:
                tail = rng.uniform(0.0, cfg.tail_bound)
                sources[row] = _sparse_simplex_draws(cfg.k, cfg.k_top, tail, rng)
            else:
                sources[row] = _simplex_draws(cfg.k, rng)
            # random() draws what uniform() draws, without its argument handling.
            if rng.random() < cfg.eps_target:
                failed.append(row)
                if garble:
                    garbled.append(_garbled(coder, rng))
        sources /= sources.sum(axis=1, keepdims=True)
        received = _decoded(coder, sources)
        if failed and garble:
            received[failed] = garbled
        elif failed:
            # The vertex farthest in total variation sits at the smallest entry.
            received[failed] = 0.0
            received[failed, sources[failed].argmin(axis=1)] = 1.0
        distortions[start : block.stop] = tv_distance(sources, received)

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
