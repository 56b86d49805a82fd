import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    # The sparse sources' other paths: the farthest vertex, no light draw
    # (no tail bound, or no tail when k_top = k) and a tail above delta.
    "slq-k100-adversarial": (300, dict(
        error_model=ErrorModel.ADVERSARIAL_VERTEX, scheme=Scheme.SLQ, k=100, beta_s=0.05,
        eps_target=0.25, k_top=5, delta=1e-3,
    ), "58b276da90a7b05ac7f9194ad6207fd77b268aa2424dd2217cbb38683b009030"),
    "slq-k100-zero-tail": (300, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.SLQ, k=100, beta_s=0.05,
        eps_target=0.25, k_top=5,
    ), "8b4a598045fd887c49caf3b48d470f8b03a7fef9194a15dee527444a97e6c5a1"),
    "slq-k8-top-is-k": (300, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.SLQ, k=8, beta_s=0.1,
        eps_target=0.25, k_top=8,
    ), "31669675020ee7872922b2de0d8ca611ba0eb75474d2dbb2f202c50c90ef22f6"),
    "slq-k100-source-tail": (300, dict(
        error_model=ErrorModel.UNIFORM_INDEX, scheme=Scheme.SLQ, k=100, beta_s=0.05,
        eps_target=0.25, k_top=5, delta=1e-3, source_tail_mass=0.2,
    ), "5cd276076e8a57cd18dd7bdc6c552598d44ab93e525f336d276efe211f52c9d7"),
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


def _sources(rng, rows, k, top, tail_bound):
    """A block of sparse sources, drawn and normalized as simulate_end_to_end does.

    A row draws its light entries only if its tail is positive, and every
    other row is given no tail, so each block mixes both kinds of row.
    """
    tails = tail_bound * rng.random(rows)
    tails[::2] = 0.0
    draws = np.zeros((rows, k))
    for row, tail in enumerate(tails):
        rng.standard_exponential(out=draws[row, : k if tail else top])
    perms = rng.permuted(np.tile(np.arange(k), (rows, 1)), axis=1)
    sources = simulator._sparse_sources(draws, tails, perms, top)
    return sources / sources.sum(axis=1, keepdims=True), tails, perms


class TestRandomSimplex:
    """Sources with k_top = k: normalized exponentials, as the flat schemes draw."""

    def test_always_sums_to_one(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            p, _, _ = _sources(rng, 8, k, k, float(rng.uniform(0, 0.2)))
            np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (p > 0).all()

    def test_two_class_marginal_is_uniform(self):
        rng = np.random.default_rng(51)
        p, _, _ = _sources(rng, 4000, 2, 2, 0.0)
        assert stats.kstest(p[:, 0], "uniform").pvalue > 1e-3


class TestRandomSparseSimplex:
    """The sparse scheme's sources; SimConfig checks k_top and the tail bound."""

    def test_tail_mass_respected(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            k = int(rng.integers(4, 30))
            top = int(rng.integers(1, k))
            bound = float(rng.uniform(0, 0.2))
            p, tails, perms = _sources(rng, 8, k, top, bound)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (tails <= bound).all()
            tail = np.sort(p, axis=1)[:, : k - top].sum(axis=1)
            assert (tail <= tails + 1e-12).all()
            # The light entries sit where the permutation sends them.
            light = np.take_along_axis(p, perms[:, top:], axis=1).sum(axis=1)
            np.testing.assert_allclose(light, tails, rtol=0, atol=1e-12)

    def test_zero_tail_is_exactly_sparse(self):
        rng = np.random.default_rng(54)
        p, tails, _ = _sources(rng, 20, 10, 3, 0.1)
        assert (tails[::2] == 0).all() and (tails[1::2] > 0).all()
        assert (np.count_nonzero(p[::2], axis=1) == 3).all()
        assert (np.count_nonzero(p[1::2], axis=1) == 10).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


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
        # the (block x k) matrices do not. The sparse block also holds a
        # tail per row and an intp permutation matrix.
        def peak_bytes(trials, extra):
            cfg = SimConfig(
                trials=trials, seed=3, error_model=ErrorModel.ADVERSARIAL_VERTEX,
                k=1000, beta_s=0.1, eps_target=0.25, **extra,
            )
            tracemalloc.start()
            try:
                simulate_end_to_end(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for extra in dict(scheme=Scheme.LQ), dict(scheme=Scheme.SLQ, k_top=10, delta=1e-3):
            small = peak_bytes(512, extra)
            assert peak_bytes(4 * 512, extra) <= 1.25 * small, extra

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

    @pytest.mark.parametrize("extra", [
        dict(scheme=Scheme.LQ), dict(scheme=Scheme.SLQ, k_top=5, delta=0.0), dict(scheme=Scheme.UQ),
    ], ids=["lq", "slq", "uq"])
    def test_infinite_budget_fails_at_construction(self, extra):
        # This used to be an OverflowError from the coder's width or denominator.
        with pytest.raises(DomainError, match="1e-310 is too close to the lower edge 0.0"):
            SimConfig(trials=10, seed=1, error_model=ErrorModel.UNIFORM_INDEX, k=50,
                      beta_s=1e-310, eps_target=0.1, **extra)

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


def state_and_draws(rng):
    """The state of a generator, then a few draws of each kind a trial makes."""
    perm = np.arange(12)
    rng_state = rng.bit_generator.state
    uniform = rng.random(3).tolist()
    rng.shuffle(perm)
    return (rng_state, uniform, perm.tolist(), rng.standard_exponential(4).tolist(),
            rng.integers(0, 10, size=3, dtype=np.uint32).tolist(), rng.random())


def assert_equals_default_rng(seed, start, stop):
    trials = list(simulator._trial_generators(seed, start, stop))
    assert len(trials) == stop - start
    for i, rng in zip(range(start, stop), trials):
        assert state_and_draws(rng) == state_and_draws(np.random.default_rng([seed, i]))


class TestTrialStates:
    """The block seeding gives every trial exactly the stream of default_rng([seed, i])."""

    # One to five 32-bit words of seed: the four-word pool and the words past it.
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 9]

    @pytest.mark.parametrize("start, stop", [(0, 300), (1000, 1010)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_default_rng(self, seed, start, stop):
        assert_equals_default_rng(seed, start, stop)

    @pytest.mark.parametrize("start, stop", [
        (2**32 - 3, 2**32 + 3),  # a trial index takes a second word
        (2**64 - 2, 2**64),  # the largest indices
    ])
    @pytest.mark.parametrize("seed", [7, 2**130 + 9])
    def test_equals_default_rng_where_the_index_widens(self, seed, start, stop):
        assert_equals_default_rng(seed, start, stop)

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                                 (8, np.uint64), (4, np.int64), (4, np.float64)])
    def test_trial_seed_refuses_other_requests(self, n_words, dtype):
        trial_seed = simulator._trial_seed_type()(simulator._trial_words(5, 0, 1)[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            trial_seed.generate_state(n_words, dtype)
        assert trial_seed.generate_state(4, np.uint64) is trial_seed.words

    @pytest.mark.parametrize("start, stop", [(0, 300), (2**32 - 3, 2**32 + 3)])
    def test_pcg64_gets_contiguous_uint64_rows(self, monkeypatch, start, stop):
        # PCG64 reads its seed's words from their memory, so a strided row or
        # another dtype would seed it silently wrong.
        handed = []
        pcg64 = np.random.PCG64

        def recording(seed):
            handed.append(seed.generate_state(4, np.uint64))
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", recording)
        list(simulator._trial_generators(2**64 + 3, start, stop))
        assert len(handed) == stop - start
        for words in handed:
            assert words.dtype == np.uint64 and words.shape == (4,)
            assert words.flags.c_contiguous


def test_import_leaves_out_numpy_random():
    # The trial seed subclasses numpy's ISeedSequence on first use only.
    env = {**os.environ, "PYTHONPATH": str(Path(simulator.__file__).resolve().parents[1])}
    code = "import latdist, sys; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
