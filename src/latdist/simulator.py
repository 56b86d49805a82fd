"""Monte Carlo check of the end-to-end expected distortion bound.

Channel decoding is abstracted to a Bernoulli failure at the solved error
probability; what the receiver reconstructs on a failure is a pluggable
error model, since the distortion bound only needs failures to cost at
most total variation 1.

Reproducibility contract: every random number of trial i comes from its own
stream, exactly that of ``numpy.random.default_rng([seed, i])``, so a report
depends on its config alone. The streams are seeded a block of trials at a
time: ``_trial_words`` restates numpy's SeedSequence on arrays, one lane per
trial, and each trial's generator is numpy's own PCG64 seeded with its row of
words. A trial only draws, into the block's arrays; sources are built,
quantized and measured a block at a time, and the report bytes depend
neither on the block size nor on the trials' order in a block. One coder,
from ``BudgetFn.coder``, codes and garbles every block.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .budget import BudgetFn, Scheme
from .errors import DomainError
from .prob import tv_distance

# Trials are quantized, corrupted and measured this many rows at a time, so
# the working arrays stay O(_BLOCK * k) whatever the number of trials; the
# distortions keep one float per trial.
_BLOCK = 256

# The constants of numpy's SeedSequence (a pool of four 32-bit words), which
# _trial_words restates on arrays.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


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
        if self.seed < 0:  # numpy's seeding takes nonnegative integers only
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.k < 2:  # every source draw has k >= 2 entries
            raise DomainError(f"need k >= 2, got {self.k}")
        if not 0.0 <= self.eps_target <= 1.0:
            raise DomainError(f"error probability must be in [0, 1], got {self.eps_target}")
        if self.beta_s is None:  # the bound needs it, also when the coder's setting is given
            raise DomainError("need a source distortion beta_s, got None")
        # Building the coder checks k, k_top, delta, beta_s and the width or
        # denominator, given or from the budget, before any trial.
        self.coder
        if self.scheme is Scheme.SLQ and not 0.0 <= self.tail_bound < 1.0:  # also NaN
            raise DomainError(f"source tail mass must be in [0, 1), got {self.tail_bound}")

    @property
    def tail_bound(self) -> float:
        """Largest tail mass of a generated sparse input: source_tail_mass, else delta."""
        return self.source_tail_mass if self.source_tail_mass is not None else self.delta

    @cached_property
    def coder(self):
        """The run's coder, built once: ell or bits_per_entry if given, else the budget's."""
        given = self.bits_per_entry if self.scheme is Scheme.UQ else self.ell
        return BudgetFn(self.scheme, self.k, self.k_top, self.delta).coder(self.beta_s, given)

    def _as_dict(self) -> dict:
        """The fields, enums as their values, and the coder's resolved setting."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["error_model"] = self.error_model.value
        out["scheme"] = self.scheme.value
        out["resolved_ell"] = self.coder.ell
        out["resolved_bits_per_entry"] = self.coder.bits_per_entry
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


def _sparse_sources(draws: np.ndarray, tails: np.ndarray, perms: np.ndarray, top: int):
    """Sparse source rows, before normalization, from a block of raw draws.

    Row i of ``draws`` holds ``top`` heavy unit exponentials, then k - top
    light ones if ``tails[i]`` > 0, else zeros. In place, the heavy part is
    scaled to carry 1 - tail of a unit sum and the light part the tail; entry
    j of row i then goes to position ``perms[i, j]``.
    """
    heavy, light = draws[:, :top], draws[:, top:]
    tails = tails[:, None]
    heavy[:] = (1.0 - tails) * heavy / heavy.sum(axis=1, keepdims=True)
    np.divide(tails * light, light.sum(axis=1, keepdims=True), out=light, where=tails > 0)
    sources = np.empty_like(draws)
    np.put_along_axis(sources, perms, draws, axis=1)
    return sources


def _words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first; [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the hash constant before and after each of ``calls`` hash updates."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


def _mix_columns(xors: np.ndarray, mults: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per word of the pool, the constants that hash it into each other word, by row.

    The word's own row takes any constant, since that row is put back after
    the mix.
    """
    columns = []
    for src in range(_POOL):
        calls = list(range(_POOL + 3 * src, _POOL + 3 * src + 3))
        calls.insert(src, 0)
        columns.append((xors[calls], mults[calls]))
    return columns


# The pool is filled by 4 hashes and mixed by 12; words past the pool take
# 4 more each, and the output 8.
_FILL_AND_MIX = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL = _FILL_AND_MIX[0][:_POOL], _FILL_AND_MIX[1][:_POOL]
_MIX = _mix_columns(*_FILL_AND_MIX)
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    mixed = (values ^ xors) * mults
    return mixed ^ (mixed >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> _XSHIFT)


def _trial_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each trial i in [start, stop).

    numpy's seeding, one uint32 lane per trial: a SeedSequence hashes the
    32-bit words of seed and then of i into its pool and draws eight 32-bit
    words, paired little-endian into four 64-bit ones. Trials whose index has
    the same number of words share one pass; indices must stay below 2**64.
    The rows come as one C-contiguous (trials, 4) uint64 array, since PCG64
    reads a seed's words from their memory.
    """
    seed_words = _words(operator.index(seed))
    blocks = []
    while start < stop:
        width = len(_words(start))
        end = min(stop, 1 << (32 * width))
        trials = np.arange(start, end, dtype=np.uint64)
        blocks.append(_seed_sequence_words(seed_words, trials, width))
        start = end
    words = np.ascontiguousarray(np.concatenate(blocks, axis=1).T).astype("<u4", copy=False)
    return words.view("<u8").astype(np.uint64, copy=False)


def _seed_sequence_words(seed_words: list[int], trials: np.ndarray, width: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(8)`` per trial, as (8, trials) uint32."""
    entropy = np.empty((len(seed_words) + width, trials.size), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    for j in range(width):
        entropy[len(seed_words) + j] = trials >> np.uint64(32 * j)  # keeps the low 32 bits
    # The first four words, zero-padded, fill the pool; every word then mixes
    # into every other, in order; each further word mixes into all four.
    pool = np.zeros((_POOL, trials.size), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, *_FILL)
    for src, (xors, mults) in enumerate(_MIX):
        mixed = _mix(pool, _hashmix(pool[src], xors, mults))
        mixed[src] = pool[src]
        pool = mixed
    if len(entropy) > _POOL:
        xors, mults = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy))
        for j in range(_POOL, len(entropy)):
            calls = slice(_POOL * j, _POOL * (j + 1))
            pool = _mix(pool, _hashmix(entropy[j], xors[calls], mults[calls]))
    return _hashmix(np.concatenate((pool, pool)), *_OUTPUT)


@cache
def _trial_seed_type() -> type:
    """The seed that hands PCG64 one trial's words; built on first use, so that
    importing latdist does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        """One row of ``_trial_words``, as the only state it generates."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a trial seed holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}"
                )
            return self.words

    return TrialSeed


def _trial_generators(seed: int, start: int, stop: int):
    """A generator for each trial i in [start, stop), seeded as ``default_rng([seed, i])``."""
    trial_seed = _trial_seed_type()
    for words in _trial_words(seed, start, stop):
        yield np.random.Generator(np.random.PCG64(trial_seed(words)))


def simulate_end_to_end(cfg: SimConfig) -> SimReport:
    """Run the trials and compare mean distortion with the analytical bound.

    Each trial draws, from its own (seed, trial) stream and in this order:
    for the sparse scheme, a tail mass below the config's bound and a
    permutation of the k positions; k unit exponentials, or k_top when the
    tail is 0; a failure coin at the operating error probability; and, for a
    failure under the uniform-index model, the payload index the receiver
    decodes. The sources, their quantization and corruption, and the total
    variation to what the receiver reconstructs are then computed on a block
    of rows at a time.
    """
    garble = cfg.error_model is ErrorModel.UNIFORM_INDEX
    distortions = np.empty(cfg.trials)
    sparse = cfg.scheme is Scheme.SLQ
    top = cfg.k_top if sparse else cfg.k
    tail_bound, tail = cfg.tail_bound, 0.0
    for start in range(0, cfg.trials, _BLOCK):
        stop = min(start + _BLOCK, cfg.trials)
        draws = np.zeros((stop - start, cfg.k))
        if sparse:
            tails = np.empty(stop - start)
            perms = np.tile(np.arange(cfg.k), (stop - start, 1))
        failed, garbled = [], []
        for row, rng in enumerate(_trial_generators(cfg.seed, start, stop)):
            # random() draws what uniform() draws, and shuffling an arange what
            # permutation() does, without their argument handling.
            if sparse:
                tails[row] = tail = tail_bound * rng.random()
                rng.shuffle(perms[row])
            rng.standard_exponential(out=draws[row, : cfg.k if tail else top])
            if rng.random() < cfg.eps_target:
                failed.append(row)
                if garble:
                    garbled.append(cfg.coder.garbled(rng))
        sources = _sparse_sources(draws, tails, perms, top) if sparse else draws
        sources /= sources.sum(axis=1, keepdims=True)
        received = cfg.coder.decode_rows(sources)
        if failed and garble:
            received[failed] = garbled
        elif failed:
            # The vertex farthest in total variation sits at the smallest entry.
            received[failed] = 0.0
            received[failed, sources[failed].argmin(axis=1)] = 1.0
        # Each row renormalized as ProbVector would renormalize it alone.
        received /= received.sum(axis=1, keepdims=True)
        distortions[start:stop] = tv_distance(sources, received)

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
        config=cfg._as_dict(),
    )
