"""Monte Carlo check of the end-to-end expected distortion bound.

Channel decoding is abstracted to a Bernoulli failure at the solved error
probability; what the receiver reconstructs on a failure is a pluggable
error model, since the distortion bound only needs failures to cost at
most total variation 1.

Reproducibility contract: every random number of trial i comes from its own
stream, exactly that of ``numpy.random.default_rng([seed, i])``, so a report
depends on its config alone. The streams are seeded a block of trials at a
time: ``_trial_states`` restates numpy's seeding on arrays, and one generator
is set to each trial's state in turn. A trial only draws, into the block's
arrays; sources are built, quantized and measured a block at a time, and the
report bytes depend neither on the block size nor on the trials' order in a
block. One coder, from ``BudgetFn.coder``, codes and garbles every block.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np

from .budget import BudgetFn, Scheme
from .errors import DomainError
from .prob import tv_distance

# Trials are quantized, corrupted and measured this many rows at a time, so
# the working arrays stay O(_BLOCK * k) whatever the number of trials; the
# distortions keep one float per trial.
_BLOCK = 256

# The constants of numpy's SeedSequence (a pool of four 32-bit words) and of
# PCG64's seeding, which _trial_states restates on arrays.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


# The pool is filled by 4 hashes and mixed by 12; the output takes 8 more.
_FILL_AND_MIX = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    mixed = (values ^ xors) * mults
    return mixed ^ (mixed >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> _XSHIFT)


def _trial_states(seed: int, start: int, stop: int) -> list[dict]:
    """``default_rng([seed, i]).bit_generator.state`` for each trial i in [start, stop).

    numpy's seeding, one uint32 lane per trial: a SeedSequence hashes the
    32-bit words of seed and then of i into its pool and draws four 64-bit
    words, and PCG64 is seeded with them. Trials whose index has the same
    number of words share one pass; indices must stay below 2**64.
    """
    seed_words = _words(operator.index(seed))
    states = []
    while start < stop:
        width = len(_words(start))
        end = min(stop, 1 << (32 * width))
        trials = np.arange(start, end, dtype=np.uint64)
        states += _pcg64_states(_seed_sequence_words(seed_words, trials, width))
        start = end
    return states


def _seed_sequence_words(seed_words: list[int], trials: np.ndarray, width: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(8)`` per trial, as (8, trials) uint32."""
    entropy = np.empty((len(seed_words) + width, trials.size), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    for j in range(width):
        entropy[len(seed_words) + j] = trials >> np.uint64(32 * j)  # keeps the low 32 bits
    extra = len(entropy) - _POOL
    xors, mults = _FILL_AND_MIX
    if extra > 0:
        xors, mults = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    # The first four words, zero-padded, fill the pool; every word then mixes
    # into every other, in order; each further word mixes into all four.
    pool = np.zeros((_POOL, trials.size), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, xors[:_POOL], mults[:_POOL])
    call = _POOL
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], xors[call : call + 3], mults[call : call + 3])
        pool[dst] = _mix(pool[dst], hashed)
        call += 3
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, xors[call : call + _POOL], mults[call : call + _POOL]))
        call += _POOL
    return _hashmix(np.concatenate((pool, pool)), *_OUTPUT)


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """The state of PCG64 seeded with each column of generate_state words."""
    wide = words.astype(np.uint64)
    # Little-endian pairs: (high, low) 64-bit halves of the state, then of the stream.
    halves = wide[0::2] | (wide[1::2] << np.uint64(32))
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in halves.T.tolist():
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        # From state 0, one step gives inc; add the initial state and step again.
        state = ((((state_hi << 64) | state_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


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
    # One generator, set to each trial's state in turn; seeded explicitly so
    # that building it reads no OS entropy.
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
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
        for row, state in enumerate(_trial_states(cfg.seed, start, stop)):
            bitgen.state = state
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
