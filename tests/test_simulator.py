import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from latdist import simulator
from latdist.budget import Scheme, budget_lq
from latdist.codec import LexIndex, composition_count, composition_count_bits, subset_count_bits
from latdist.errors import DomainError
from latdist.prob import ProbVector
from latdist.quantizers import LQCoder, SLQCoder, UQCoder, UQEncoding, _uniform_below
from latdist.simulator import ErrorModel, SimConfig, simulate_end_to_end


# One run down each decoding path, the last one block plus one trial long.
# Digests of report.to_json(), computed with the per-trial simulator that the
# block simulator replaced.
PINNED_PATHS = {
    "slq-k100-uniform": (300, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.SLQ, k=100, beta_s=0.05,
        eps_target=0.25, k_top=5, delta=1e-3,
    ), "0ceb0f9fc903ed2669a2914da8a805502a3999dafd6848d19bbb11a68e94b374"),
    "uq-k20-uniform": (300, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.UQ, k=20, beta_s=0.1,
        eps_target=0.25,
    ), "bcbde86a53eff213cc9862ec91043b7ad22dbe11590b8b084d0fe07a8e41234f"),
    "uq-k20-adversarial": (300, dict(
        error_model=ErrorModel.ADVERSARIAL_VERTEX, scheme=Scheme.UQ, k=20, beta_s=0.1,
        eps_target=0.25,
    ), "76a3df1af922c274ebee4d3564f0119b1c2a8f2a727eae64c230bdec07f73e0d"),
    "lq-k100-adversarial": (300, dict(
        error_model=ErrorModel.ADVERSARIAL_VERTEX, scheme=Scheme.LQ, k=100, beta_s=0.1,
        eps_target=0.25,
    ), "b591d078874705400c65c8620264a229818eb55f310b03a27bb7d7cd97058b6b"),
    "lq-k8-block-plus-one": (257, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.LQ, k=8, beta_s=0.1,
        eps_target=0.25,
    ), "e26e135b00a79585772ce00761e8ef07b00a0cb0bb400716a0c6b51b7efbbc6a"),
}


def lq_config(eps, trials=3000, seed=42, model=ErrorModel.UNIFORM_INDEX):
    return SimConfig(
        trials=trials,
        seed=seed,
        error_model=model,
        scheme=Scheme.LQ,
        k=8,
        beta_s=0.1,
        eps_target=eps,
    )


def _source(draws):
    """Draws normalized as simulate_end_to_end normalizes its source rows."""
    return draws / draws.sum()


class TestRandomSimplex:
    """The flat source draws; SimConfig refuses k < 2 before any draw."""

    def test_always_sums_to_one(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            p = _source(simulator._simplex_draws(int(rng.integers(2, 40)), rng))
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all()

    def test_two_class_marginal_is_uniform(self):
        rng = np.random.default_rng(51)
        samples = np.array([_source(simulator._simplex_draws(2, rng))[0] for _ in range(4000)])
        assert stats.kstest(samples, "uniform").pvalue > 1e-3


class TestRandomSparseSimplex:
    """The sparse scheme's source draws; SimConfig checks k_top and the tail bound."""

    def test_tail_mass_respected(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            k = int(rng.integers(4, 30))
            top = int(rng.integers(1, k))
            bound = float(rng.uniform(0, 0.2))
            p = _source(simulator._sparse_simplex_draws(k, top, bound, rng))
            tail = np.sort(p)[: k - top].sum()
            assert tail <= bound + 1e-12

    def test_zero_tail_is_exactly_sparse(self):
        rng = np.random.default_rng(54)
        p = _source(simulator._sparse_simplex_draws(10, 3, 0.0, rng))
        assert np.count_nonzero(p) == 3


class TestSimulation:
    def test_no_channel_errors_is_pure_quantization(self):
        report = simulate_end_to_end(lq_config(eps=0.0, trials=2000))
        assert report.empirical_mean_distortion <= 0.1
        assert report.bound == pytest.approx(0.1)
        assert report.violations == 0

    def test_certain_failure_with_adversarial_vertex(self):
        report = simulate_end_to_end(
            lq_config(eps=1.0, trials=2000, model=ErrorModel.ADVERSARIAL_VERTEX)
        )
        assert report.bound == 1.0
        assert report.empirical_mean_distortion <= 1.0
        assert report.violations == 0

    @pytest.mark.parametrize("scheme,extra", [
        (Scheme.UQ, {}),
        (Scheme.LQ, {}),
        (Scheme.SLQ, {"k_top": 3, "delta": 0.02}),
    ], ids=["uq", "lq", "slq"])
    @pytest.mark.parametrize("model", list(ErrorModel))
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.49])
    def test_bound_holds(self, scheme, extra, model, eps):
        cfg = SimConfig(
            trials=1200,
            seed=42,
            error_model=model,
            scheme=scheme,
            k=8,
            beta_s=0.1,
            eps_target=eps,
            **extra,
        )
        report = simulate_end_to_end(cfg)
        assert report.within_bound
        assert (
            report.empirical_mean_distortion
            <= report.bound + 3 * report.std_error
        )
        assert report.violations == 0

    def test_prescribed_budget_operating_point(self):
        # Denominator from the lattice budget at beta_s = 0.1 keeps the
        # quantization part of the distortion within budget.
        ell, _ = budget_lq(8, 0.1)
        cfg = SimConfig(
            trials=5000,
            seed=42,
            error_model=ErrorModel.UNIFORM_INDEX,
            scheme=Scheme.LQ,
            k=8,
            beta_s=0.1,
            eps_target=0.2,
            ell=ell,
        )
        report = simulate_end_to_end(cfg)
        assert report.bound == pytest.approx(0.8 * 0.1 + 0.2)
        assert report.empirical_mean_distortion <= report.bound + 3 * report.std_error

    @pytest.mark.parametrize(
        "scheme,extra",
        [
            (Scheme.UQ, {}),
            (Scheme.LQ, {}),
            (Scheme.SLQ, {"k_top": 3, "delta": 0.02}),
        ],
        ids=["uq", "lq", "slq"],
    )
    def test_bound_holds_per_scheme(self, scheme, extra):
        cfg = SimConfig(
            trials=1500,
            seed=7,
            error_model=ErrorModel.UNIFORM_INDEX,
            scheme=scheme,
            k=10,
            beta_s=0.1,
            eps_target=0.3,
            **extra,
        )
        report = simulate_end_to_end(cfg)
        assert report.within_bound
        assert report.violations == 0

    def test_report_is_pinned(self):
        # The per-(seed, trial) streams and the report bytes are a contract;
        # a change that moves this digest breaks reproducibility of old runs.
        report = simulate_end_to_end(lq_config(eps=0.25, trials=500, seed=2024))
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "a332d56f4b6e1e92343690e5044f74cb533c51bb2820c685bc93fdd5b78f5052"

    @pytest.mark.parametrize("path", sorted(PINNED_PATHS))
    def test_report_is_pinned_on_every_path(self, path):
        trials, extra, digest = PINNED_PATHS[path]
        if path == "lq-k8-block-plus-one":
            assert simulator._BLOCK + 1 == trials
        report = simulate_end_to_end(SimConfig(trials=trials, seed=2024, **extra))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("path", sorted(PINNED_PATHS))
    def test_string_scheme_and_error_model_are_their_enums(self, path):
        extra = dict(PINNED_PATHS[path][1])
        cfg = SimConfig(trials=40, seed=11, **extra)
        extra.update(scheme=extra["scheme"].value, error_model=extra["error_model"].value)
        named = SimConfig(trials=40, seed=11, **extra)
        assert named == cfg
        assert simulate_end_to_end(named).to_json() == simulate_end_to_end(cfg).to_json()

    def test_unknown_scheme_or_error_model_refused(self):
        with pytest.raises(ValueError):
            SimConfig(trials=1, seed=0, error_model="uniform", scheme="pq", k=8,
                      beta_s=0.1, eps_target=0.1)
        with pytest.raises(ValueError):
            SimConfig(trials=1, seed=0, error_model="worst", scheme="lq", k=8,
                      beta_s=0.1, eps_target=0.1)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("path", sorted(PINNED_PATHS))
    def test_report_does_not_depend_on_block_size(self, monkeypatch, path, block):
        cfg = SimConfig(trials=40, seed=11, **PINNED_PATHS[path][1])
        expected = simulate_end_to_end(cfg).to_json()
        monkeypatch.setattr(simulator, "_BLOCK", block)
        assert simulate_end_to_end(cfg).to_json() == expected

    def test_memory_does_not_grow_with_trials(self):
        # Only the distortions (8 bytes a trial) grow with the trial count;
        # the (block x k) matrices do not.
        def peak_bytes(trials):
            cfg = SimConfig(
                trials=trials, seed=3, error_model=ErrorModel.ADVERSARIAL_VERTEX,
                scheme=Scheme.LQ, k=1000, beta_s=0.1, eps_target=0.25,
            )
            tracemalloc.start()
            try:
                simulate_end_to_end(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak_bytes(512)
        assert peak_bytes(4 * 512) <= 1.25 * small

    def test_same_config_same_report(self):
        cfg = lq_config(eps=0.25, trials=800)
        assert simulate_end_to_end(cfg).to_json() == simulate_end_to_end(cfg).to_json()

    def test_different_seeds_differ(self):
        a = simulate_end_to_end(lq_config(eps=0.25, trials=500, seed=1))
        b = simulate_end_to_end(lq_config(eps=0.25, trials=500, seed=2))
        assert a.empirical_mean_distortion != b.empirical_mean_distortion

    def test_report_echoes_config(self):
        cfg = lq_config(eps=0.25, trials=100)
        report = simulate_end_to_end(cfg)
        assert report.config["seed"] == 42
        assert report.config["scheme"] == "lq"
        assert report.config["resolved_ell"] == budget_lq(8, 0.1)[0]

    # (config, message): widths and denominators the coders refuse. Each used
    # to pass construction and then run, or fail mid-run, depending on eps.
    REFUSED_OVERRIDES = {
        "uq-zero-width-eps0": (dict(scheme=Scheme.UQ, bits_per_entry=0, eps_target=0.0),
                               "bits_per_entry must be >= 1"),
        "uq-zero-width-eps-half": (dict(scheme=Scheme.UQ, bits_per_entry=0, eps_target=0.5),
                                   "bits_per_entry must be >= 1"),
        "uq-negative-width": (dict(scheme=Scheme.UQ, bits_per_entry=-3, eps_target=0.0),
                              "bits_per_entry must be >= 1"),
        "lq-zero-ell": (dict(scheme=Scheme.LQ, ell=0, eps_target=0.0), "ell must be >= 1"),
        "slq-negative-ell": (dict(scheme=Scheme.SLQ, k_top=2, ell=-1, eps_target=0.5),
                             "ell must be >= 1"),
        "uq-width-63": (dict(scheme=Scheme.UQ, bits_per_entry=63, eps_target=0.5), "<= 62"),
        "uq-width-64-eps0": (dict(scheme=Scheme.UQ, bits_per_entry=64, eps_target=0.0), "<= 62"),
        "lq-ell-past-float": (dict(scheme=Scheme.LQ, ell=2**53 + 1, eps_target=0.0),
                              r"ell must be >= 1 and <= 2\*\*53"),
        "slq-ell-2-63": (dict(scheme=Scheme.SLQ, k_top=2, ell=2**63, eps_target=0.5),
                         r"ell must be >= 1 and <= 2\*\*53"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_OVERRIDES))
    def test_refused_override_fails_at_construction(self, case):
        extra, message = self.REFUSED_OVERRIDES[case]
        with pytest.raises(DomainError, match=message):
            SimConfig(trials=50, seed=0, error_model=ErrorModel.UNIFORM_INDEX, k=4,
                      beta_s=0.1, **extra)

    # Coders the budget refuses. Each used to construct when its width or
    # denominator was given, then fail at the first trial or run with the
    # refused parameter echoed.
    REFUSED_CODERS = {
        "slq-delta-above-one": dict(scheme=Scheme.SLQ, k=10, k_top=3, delta=1.5,
                                    source_tail_mass=0.1, ell=5),
        "slq-k-top-above-k": dict(scheme=Scheme.SLQ, k=10, k_top=20, ell=5),
        "uq-one-class": dict(scheme=Scheme.UQ, k=1, bits_per_entry=3),
        "lq-one-class": dict(scheme=Scheme.LQ, k=1),
        "slq-one-class": dict(scheme=Scheme.SLQ, k=1, k_top=1),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_CODERS))
    def test_refused_coder_fails_at_construction(self, case):
        with pytest.raises(DomainError):
            SimConfig(trials=10, seed=0, error_model=ErrorModel.UNIFORM_INDEX, beta_s=0.1,
                      eps_target=0.1, **self.REFUSED_CODERS[case])

    @pytest.mark.parametrize("extra, message", [
        (dict(scheme=Scheme.UQ, k=3, beta_s=1e-10), "got 70"),
        (dict(scheme=Scheme.LQ, k=100, beta_s=1e-17), "got 2500000000000000000"),
    ])
    def test_budget_coder_past_its_limit_fails_at_construction(self, extra, message):
        # With no width or denominator given, the budget's own at beta_s is
        # checked; these used to fail at the first trial.
        with pytest.raises(DomainError, match=message):
            SimConfig(trials=10, seed=0, error_model=ErrorModel.UNIFORM_INDEX, eps_target=0.1,
                      **extra)

    @pytest.mark.parametrize("extra", [
        dict(scheme=Scheme.UQ, bits_per_entry=62),
        dict(scheme=Scheme.LQ, ell=2**53),
        dict(scheme=Scheme.SLQ, k_top=2, ell=2**53),
    ])
    def test_coder_at_its_limit_runs(self, extra):
        cfg = SimConfig(trials=20, seed=0, error_model=ErrorModel.UNIFORM_INDEX, k=3,
                        beta_s=0.1, eps_target=0.2, **extra)
        report = simulate_end_to_end(cfg)
        assert report.violations == 0 and report.within_bound

    def test_negative_seed_fails_at_construction(self):
        # numpy's seeding refused it with a bare ValueError at the first trial.
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            lq_config(eps=0.25, trials=10, seed=-1)

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(0, 1, ErrorModel.UNIFORM_INDEX, Scheme.LQ, 8, 0.1, 0.1)
        with pytest.raises(DomainError):
            SimConfig(10, 1, ErrorModel.UNIFORM_INDEX, Scheme.SLQ, 8, 0.1, 0.1)
        # A given ell does not make beta_s optional: the bound is stated in it.
        with pytest.raises(DomainError, match="got None"):
            SimConfig(10, 1, ErrorModel.UNIFORM_INDEX, Scheme.LQ, 8, None, 0.1, ell=5)


def default_states(seed, start, stop):
    return [np.random.default_rng([seed, i]).bit_generator.state for i in range(start, stop)]


class TestTrialStates:
    """The block seeding gives every trial exactly the stream of default_rng([seed, i])."""

    # One to five 32-bit words of seed: the four-word pool and the words past it.
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 9]

    @pytest.mark.parametrize("start, stop", [(0, 300), (1000, 1010)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_default_rng(self, seed, start, stop):
        assert simulator._trial_states(seed, start, stop) == default_states(seed, start, stop)

    @pytest.mark.parametrize("start, stop", [
        (2**32 - 3, 2**32 + 3),  # a trial index takes a second word
        (2**64 - 2, 2**64),  # the largest indices
    ])
    @pytest.mark.parametrize("seed", [7, 2**130 + 9])
    def test_equals_default_rng_where_the_index_widens(self, seed, start, stop):
        assert simulator._trial_states(seed, start, stop) == default_states(seed, start, stop)

    def test_reused_generator_draws_each_stream(self):
        # A 32-bit draw leaves half a word buffered; setting the state drops it.
        rng = np.random.Generator(np.random.PCG64(0))
        for i, state in enumerate(simulator._trial_states(2024, 0, 20)):
            rng.integers(0, 10, dtype=np.uint32)
            rng.bit_generator.state = state
            fresh = np.random.default_rng([2024, i])
            assert rng.integers(0, 10, size=3, dtype=np.uint32).tolist() == (
                fresh.integers(0, 10, size=3, dtype=np.uint32).tolist()
            )
            assert rng.standard_exponential(5).tolist() == fresh.standard_exponential(5).tolist()


def _renormalized(rows):
    """Rows renormalized as simulate_end_to_end renormalizes its block."""
    rows = np.atleast_2d(rows)
    return rows / rows.sum(axis=1, keepdims=True)


def _uq_index(coder, rng):
    ids = rng.integers(0, 1 << coder.bits_per_entry, size=coder.k)
    return UQEncoding(tuple(ids.tolist()), coder.bits_per_entry).to_bytes()


def _lq_index(coder, rng):
    width = composition_count_bits(coder.k, coder.ell)
    return LexIndex(_uniform_below(rng, composition_count(coder.k, coder.ell)), width).to_bytes()


def _slq_index(coder, rng):
    k, k_top, ell = coder.k, coder.k_top, coder.ell
    subset = _uniform_below(rng, math.comb(k, k_top))
    lattice = _uniform_below(rng, composition_count(k_top, ell))
    return (LexIndex(subset, subset_count_bits(k, k_top)).to_bytes()
            + LexIndex(lattice, composition_count_bits(k_top, ell)).to_bytes())


@pytest.mark.parametrize(
    "coder, payload, draws",
    [
        (LQCoder(8, 20), _lq_index, 300),
        (LQCoder(5, 3), _lq_index, 300),
        (LQCoder(30, 7), _lq_index, 300),
        (UQCoder(6, 3), _uq_index, 300),
        (SLQCoder(10, 3, 7), _slq_index, 300),
        # C(1000, 10) is past 2**63: the subset index is drawn from bytes.
        (SLQCoder(1000, 10, 52), _slq_index, 50),
    ],
    ids=["lq-8-20", "lq-5-3", "lq-30-7", "uq-6-3", "slq-10-3-7", "slq-1000-10-52"],
)
def test_garbled_rows_equal_the_decoded_index(coder, payload, draws):
    # A garbled row is the decode of a uniformly random payload index, drawn
    # from the same stream in the same order.
    rng = np.random.default_rng(coder.k)
    for _ in range(draws):
        state = rng.bit_generator.state
        row = _renormalized(coder.garbled(rng))[0]
        rng.bit_generator.state = state
        assert np.array_equal(row, coder.from_bytes(payload(coder, rng)).values)


# Rows for decode_rows: dyadic rows with exact lattice residual ties, entries
# on UQ bin edges and equal entries straddling the k_top boundary, then draws.
_EXACT_ROWS = [
    [0.25, 0.125, 0.25, 0.125, 0.25],
    [0.5, 0.25, 0.25, 0.0, 0.0],
    [0.125, 0.125, 0.125, 0.125, 0.5],
    [0.0, 0.0, 0.0, 0.0, 1.0],
    [0.2, 0.2, 0.2, 0.2, 0.2],
]


@pytest.mark.parametrize(
    "coder",
    [UQCoder(5, 2), UQCoder(5, 7), LQCoder(5, 4), LQCoder(5, 13), SLQCoder(5, 2, 3),
     SLQCoder(5, 4, 10)],
    ids=["uq-2", "uq-7", "lq-4", "lq-13", "slq-2-3", "slq-4-10"],
)
def test_block_decoding_equals_the_coders(coder):
    # Each renormalized row of the block decode is the payload round trip of its vector.
    drawn = np.random.default_rng(32).standard_exponential((300, 5)) ** 3
    vectors = [ProbVector(row, normalize=True) for row in [*_EXACT_ROWS, *drawn]]
    block = _renormalized(coder.decode_rows(np.stack([p.values for p in vectors])))
    for p, received in zip(vectors, block):
        assert np.array_equal(received, coder.from_bytes(coder.to_bytes(p)).values)
