import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdist.budget import BudgetFn, Scheme
from latdist.channel import (
    ChannelFamily,
    ChannelSpec,
    db_to_linear,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
)
from latdist import channel, cli, elementwise, optimizer
from latdist.errors import DomainError, EpsilonOutOfRange, NoFeasibleN
from latdist.optimizer import (
    TradeoffPoint,
    beta_s_grid,
    decoding_error_target,
    lower_convex_hull,
    solve_blocklength,
    sweep_beta_s,
    sweep_beta_t,
)

WIDEBAND_SPEC = ChannelSpec(ChannelFamily.AWGN, db_to_linear(5), 10_000, 320_000)
NARROWBAND_SPEC = ChannelSpec(ChannelFamily.AWGN, db_to_linear(15), 10_000, 100_000)
CSI_SPEC = ChannelSpec(
    ChannelFamily.FADING_CSI, db_to_linear(11), 10_000, 100_000, coherence=20
)
NOCSI_SPEC = ChannelSpec(
    ChannelFamily.FADING_NOCSI, db_to_linear(15), 800_000, 200_000, coherence=20
)


class TestErrorTarget:
    def test_formula(self):
        assert decoding_error_target(0.55, 0.1) == pytest.approx(0.5)
        assert decoding_error_target(0.05, 0.0) == pytest.approx(0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            decoding_error_target(0.1, 0.1)
        with pytest.raises(DomainError):
            decoding_error_target(0.1, 0.2)
        with pytest.raises(DomainError):
            decoding_error_target(1.2, 0.1)


def spec_at(family, gamma, coherence=None):
    """Spec whose operational SNR is exactly ``gamma``."""
    return ChannelSpec(family, gamma, 1.0, 1.0, coherence)


class TestAwgnSolver:
    def test_half_error_collapses_to_capacity(self):
        # beta split giving error target 1/2 zeroes the dispersion term.
        sol = solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.55, 0.1, 100.0)
        assert sol.n == 200
        assert sol.eps_target == pytest.approx(0.5)

    def test_blocklength_grows_without_bound_toward_the_edge(self):
        bf = BudgetFn(Scheme.UQ, 70)
        previous = None
        for gap in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            beta_s = 0.05 - gap
            sol = solve_blocklength(NARROWBAND_SPEC, 0.05, beta_s, bf.bits_real(beta_s))
            if previous is not None:
                assert sol.n > previous
            previous = sol.n

    def test_infeasible_at_the_edge_itself(self):
        with pytest.raises(DomainError):
            solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.05, 0.05, 100.0)

    def test_eps_above_cap_rejected(self):
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(spec_at(ChannelFamily.AWGN, 1.0), 0.8, 0.1, 100.0)

    def test_wideband_reference_fixture(self):
        bf = BudgetFn(Scheme.UQ, 100)
        sol = solve_blocklength(WIDEBAND_SPEC, 0.05, 0.03, bf.bits_real(0.03))
        assert sol.n == 36869
        assert sol.n_real == pytest.approx(36868.505626352904, rel=1e-9)
        assert epsilon_awgn(sol.n, WIDEBAND_SPEC.gamma, bf.bits_real(0.03)) <= sol.eps_target

    def test_conservative_on_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if decoding_error_target(beta_t, beta_s) > 0.5:
                continue
            j_bits = rng.uniform(10.0, 5000.0)
            gamma = 10 ** rng.uniform(-1.2, 1.5)
            sol = solve_blocklength(spec_at(ChannelFamily.AWGN, gamma), beta_t, beta_s, j_bits)
            assert epsilon_awgn(sol.n, gamma, j_bits) <= sol.eps_target * (1 + 1e-9)


# family -> (seed, log10 SNR range); no-CSI needs high SNR.
REFINE_DRAWS = {
    ChannelFamily.AWGN: (32, (-1.0, 1.0)),
    ChannelFamily.FADING_CSI: (35, (-1.0, 1.5)),
    ChannelFamily.FADING_NOCSI: (36, (1.0, 2.5)),
}


EXACT_EPSILON = {
    ChannelFamily.AWGN: lambda n, gamma, j, f: epsilon_awgn(n, gamma, j),
    ChannelFamily.FADING_CSI: epsilon_fading_csi,
    ChannelFamily.FADING_NOCSI: epsilon_fading_nocsi,
}


@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_refine_shrinks_but_stays_conservative(family):
    seed, (lo, hi) = REFINE_DRAWS[family]
    rng = np.random.default_rng(seed)
    exact = EXACT_EPSILON[family]
    for _ in range(50):
        beta_t = rng.uniform(0.02, 0.5)
        beta_s = rng.uniform(0.0, beta_t * 0.9)
        if decoding_error_target(beta_t, beta_s) >= 0.5:
            continue
        j_bits = rng.uniform(20.0, 2000.0)
        gamma = 10 ** rng.uniform(lo, hi)
        f = None if family is ChannelFamily.AWGN else int(rng.choice([5, 10, 20, 50]))
        spec = spec_at(family, gamma, f)
        plain = solve_blocklength(spec, beta_t, beta_s, j_bits)
        refined = solve_blocklength(spec, beta_t, beta_s, j_bits, refine=True)
        assert 1 <= refined.n <= plain.n
        assert exact(refined.n, gamma, j_bits, f) <= plain.eps_target * (1 + 1e-9)
        if refined.n > 1:
            assert exact(refined.n - 1, gamma, j_bits, f) > plain.eps_target


# family -> log10 SNR range of the minimality draws. The refine leaves the
# fading families' closed-form n as it is, so there the draws check that the
# closed form already gives the smallest n under the family's own model.
MINIMALITY_SNR = {
    ChannelFamily.AWGN: (-2.0, 2.0),
    ChannelFamily.FADING_CSI: (-2.5, 1.5),
    ChannelFamily.FADING_NOCSI: (1.0, 2.5),
}


@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_refined_sweep_is_minimal_under_the_family_model(family):
    rng = np.random.default_rng(37)
    exact = EXACT_EPSILON[family]
    lo, hi = MINIMALITY_SNR[family]
    budgets = [BudgetFn(Scheme.UQ, 20), BudgetFn(Scheme.LQ, 100), BudgetFn(Scheme.SLQ, 1000, 10, 1e-5)]
    checked = 0
    for draw in range(6):
        gamma = 10 ** rng.uniform(lo, hi)
        f = None if family is ChannelFamily.AWGN else int(rng.choice([5, 10, 20, 50]))
        spec = spec_at(family, gamma, f)
        beta_t = rng.uniform(0.02, 0.45)
        curve = sweep_beta_s(beta_t, budgets[draw % 3], spec, grid_points=60, refine=True)
        for pt in curve.points:
            if not pt.feasible:
                continue
            assert exact(pt.n, gamma, pt.j_bits, f) <= pt.eps_target
            if pt.n > 1:
                assert exact(pt.n - 1, gamma, pt.j_bits, f) > pt.eps_target
            checked += 1
    assert checked > 300


def bisect_refine(n, meets):
    """Reference refine: a bisection over [1, n] per point.

    n is the closed-form blocklength as floats; from 2**52 on the bisection
    runs over Python ints. ``meets(m, live)`` says whether the points at
    indices ``live`` meet their targets at blocklengths m.
    """
    hi = n.copy()
    if not np.max(hi, initial=0.0) < 2.0**52:
        hi = np.array([int(x) for x in hi.tolist()], dtype=object)
    lo = np.ones_like(hi)
    live = np.flatnonzero(lo < hi)
    while live.size:
        a, b = lo[live], hi[live]
        mid = (a + b) // 2
        ok = meets(mid, live)
        hi[live] = np.where(ok, mid, b)
        lo[live] = np.where(ok, a, mid + 1)
        live = live[lo[live] < hi[live]]
    return lo


def refine_against_bisection(gamma, eps, j_bits, beta_s=0.01):
    """The refined n and the bisection's n of the same closed-form solution.

    The bisection compares the exact error Q(z) itself with each target.
    """
    spec = spec_at(ChannelFamily.AWGN, gamma)
    beta_t = beta_s + eps * (1.0 - beta_s)
    plain = solve_blocklength(spec, beta_t, beta_s, j_bits)
    refined = solve_blocklength(spec, beta_t, beta_s, j_bits, refine=True)
    oracle = bisect_refine(
        np.array(plain.n, dtype=float),
        lambda m, live: epsilon_awgn(m, gamma, j_bits[live]) <= plain.eps_target[live],
    )
    return refined.n, oracle


def count_passes(monkeypatch):
    """A list that the refine's decision step appends its points to, once per pass."""
    passes, meets = [], optimizer._meets

    def counting(rate, v, m, j_bits, q):
        passes.append(np.size(m))
        return meets(rate, v, m, j_bits, q)

    monkeypatch.setattr(optimizer, "_meets", counting)
    return passes


def count_exact_points(monkeypatch):
    """A list of the (n, J) pairs that reach ``_z`` with the exact, per-element log2."""
    points = []

    def counting(family, n, row, log2=elementwise.log2):
        if log2 is elementwise.log2:
            points.extend(zip(n.tolist(), row[3].tolist()))
        return channel._z(family, n, row, log2)

    monkeypatch.setattr(optimizer, "_z", counting)
    return points


class TestRefineMatchesBisectionOracle:
    @pytest.mark.parametrize("snr_db", [-20.0, -10.0, -3.0, 0.0, 5.0, 12.0, 20.0])
    def test_random_targets_and_payloads(self, monkeypatch, snr_db):
        rng = np.random.default_rng(400 + int(snr_db))
        eps = 10 ** rng.uniform(-12.0, math.log10(0.5), 400)
        j_bits = 10 ** rng.uniform(0.0, 7.0, 400)
        beta_s = rng.uniform(0.0, 0.5, 400)
        passes = count_passes(monkeypatch)
        n, oracle = refine_against_bisection(db_to_linear(snr_db), eps, j_bits, beta_s)
        assert n.dtype == np.int64
        assert n.tolist() == oracle.tolist()
        # Seeds far from the answer (a few bits at low SNR, where one-by-one
        # steps took up to 800 passes) cost a search, not a walk.
        assert len(passes) <= 30

    def test_random_snr_per_call(self):
        rng = np.random.default_rng(410)
        for _ in range(40):
            gamma = db_to_linear(rng.uniform(-20.0, 20.0))
            eps = 10 ** rng.uniform(-12.0, math.log10(0.5), 25)
            j_bits = 10 ** rng.uniform(0.0, 7.0, 25)
            n, oracle = refine_against_bisection(gamma, eps, j_bits)
            assert n.tolist() == oracle.tolist()

    def test_answers_of_one(self):
        # A few bits at 20 dB fit in one channel use.
        rng = np.random.default_rng(411)
        eps = rng.uniform(0.05, 0.5, 200)
        j_bits = rng.uniform(1.0, 4.0, 200)
        n, oracle = refine_against_bisection(db_to_linear(20.0), eps, j_bits)
        assert n.tolist() == oracle.tolist()
        assert 20 < np.count_nonzero(n == 1) < 200

    @pytest.mark.parametrize(
        "snr_db, j_bits", [(-20.0, 1e14), (-20.0, 1e300), (0.0, 1e300), (20.0, 1e300)]
    )
    def test_python_int_blocklengths(self, snr_db, j_bits):
        eps = np.array([1e-12, 1e-6, 1e-3, 0.1, 0.5])
        n, oracle = refine_against_bisection(db_to_linear(snr_db), eps, np.full(5, j_bits))
        # The walk runs over Python ints here; n comes back as elementwise.to_int gives it.
        assert min(n.tolist()) >= 2**52
        assert n.tolist() == oracle.tolist()


def error_falls_with_n(gamma, j_bits):
    """Whether the exact AWGN error falls as n grows, over every real n >= 1.

    dz/dn has the sign of h(n) = 2nC + 2J + 2/ln 2 - log2(n), whose least
    value, at n* = 1/(2C ln 2), is 2J + 3/ln 2 - log2(n*).
    """
    least = 1.0 / (2.0 * channel.awgn_coeffs(gamma)[0] * math.log(2.0))
    return least <= 1.0 or 2.0 * j_bits + 3.0 / math.log(2.0) >= math.log2(least)


@settings(max_examples=200, deadline=None)
@given(
    snr_db=st.floats(-20.0, 30.0),
    eps=st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0**e),
    j_bits=st.floats(0.0, 7.0).map(lambda e: 10.0**e),
)
def test_refine_matches_bisection_oracle_property(snr_db, eps, j_bits):
    gamma = db_to_linear(snr_db)
    n, oracle = refine_against_bisection(gamma, np.array([eps]), np.array([j_bits]))
    # The refined n meets the target, and the one below it does not.
    target = decoding_error_target(0.01 + eps * 0.99, 0.01)
    assert epsilon_awgn(int(n[0]), gamma, j_bits) <= target
    assert n[0] == 1 or epsilon_awgn(int(n[0]) - 1, gamma, j_bits) > target
    # Below about 1.2 bits at -20 dB the error rises with n between a low
    # and a high n, and a bisection over [1, n] can miss the smallest n.
    if error_falls_with_n(gamma, j_bits):
        assert n.tolist() == oracle.tolist()


def test_tiny_payloads_at_low_snr_make_the_error_rise_with_n():
    # The point where the bisection misses: n = 55 meets the target, and
    # between 55 and the closed-form n there are blocklengths that do not.
    gamma, eps = db_to_linear(-19.15625), 10.0**-1.671875
    assert not error_falls_with_n(gamma, 1.0)
    n, oracle = refine_against_bisection(gamma, np.array([eps]), np.array([1.0]))
    assert n.tolist() == [55] and oracle.tolist() == [129]
    m = np.arange(1, 200)
    meets = epsilon_awgn(m, gamma, np.ones(m.size)) <= decoding_error_target(0.01 + eps * 0.99, 0.01)
    assert m[meets][0] == 55 and not meets[55:128].all()


def nudge(x, ulps):
    """x moved by ``ulps`` steps between adjacent floats, up or down."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return x


def test_near_ties_and_only_they_reach_the_exact_z(monkeypatch):
    # Targets q on the exact z at a chosen m, or 1 or 4 ulps off it, so that
    # numpy's log2 alone could decide either way. Half the m are integers
    # whose numpy log2 differs from libm's on this build, if any, with
    # J = m * C: the margin is then (1/2)log2(m) alone, and the last bit of
    # the logarithm moves z.
    rng = np.random.default_rng(420)
    gamma = db_to_linear(5.0)
    spec = spec_at(ChannelFamily.AWGN, gamma)
    grid = np.arange(1.0, 200_001.0)
    differing = grid[np.log2(grid) != np.array([math.log2(x) for x in grid.tolist()])][:20]
    ms = np.concatenate([differing, rng.integers(2, 100_000, 20)]).astype(float)
    share = np.concatenate([np.ones(differing.size), rng.uniform(0.5, 0.9, 20)])
    offsets = np.array([-4, -1, 0, 1, 4])
    m = np.repeat(ms, offsets.size)
    ulps = np.tile(offsets, ms.size)
    j_bits = m * channel.awgn_coeffs(gamma)[0] * np.repeat(share, offsets.size)

    def exact_z(n, j):
        return channel._z(ChannelFamily.AWGN, n, channel._model_row(ChannelFamily.AWGN, gamma, j))

    exact = exact_z(m, j_bits)
    q = np.array([nudge(x, k) for x, k in zip(exact.tolist(), ulps.tolist())])
    # Points whose targets lie nowhere near a tie.
    controls = 50
    q = np.append(q, rng.uniform(0.1, 4.0, controls))
    j_bits = np.append(j_bits, 10 ** rng.uniform(1.0, 5.0, controls))
    monkeypatch.setattr(optimizer, "q_inv", lambda eps: q)
    beta_s = np.full(q.size, 0.1)
    plain = solve_blocklength(spec, 0.2, beta_s, j_bits)
    points = count_exact_points(monkeypatch)
    n = solve_blocklength(spec, 0.2, beta_s, j_bits, refine=True).n
    oracle = bisect_refine(
        np.array(plain.n, dtype=float),
        lambda mid, live: exact_z(mid, j_bits[live]) >= q[live],
    )
    assert n.tolist() == oracle.tolist()
    # A target above z(m) by a few ulps is met one step later.
    assert n[: m.size].tolist() == (m + (ulps > 0)).astype(int).tolist()
    assert set(points) == set(zip(m.tolist(), j_bits[: m.size].tolist()))


@pytest.mark.parametrize("refine", [False, True], ids=["closed", "refined"])
@pytest.mark.parametrize("j_bits", [math.inf, np.array([100.0, math.inf])], ids=["scalar", "array"])
def test_infinite_payload_raises_before_any_step(monkeypatch, refine, j_bits):
    passes = count_passes(monkeypatch)
    with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
        solve_blocklength(WIDEBAND_SPEC, 0.1, 0.05, j_bits, refine=refine)
    assert passes == []


def test_refined_solve_builds_its_row_once(monkeypatch):
    # Seeds far from the answer, as at -20 dB in the oracle test, take
    # several passes; none of them rebuilds the row.
    rng = np.random.default_rng(380)
    eps = 10 ** rng.uniform(-12.0, math.log10(0.5), 100)
    j_bits = 10 ** rng.uniform(0.0, 3.0, 100)
    passes = count_passes(monkeypatch)
    calls, coeffs = [], channel.awgn_coeffs

    def counting(gamma):
        calls.append(gamma)
        return coeffs(gamma)

    monkeypatch.setattr(channel, "awgn_coeffs", counting)
    spec = spec_at(ChannelFamily.AWGN, db_to_linear(-20.0))
    solve_blocklength(spec, 0.01 + eps * 0.99, 0.01, j_bits, refine=True)
    assert len(passes) >= 3
    assert calls == [spec.gamma]


@pytest.mark.parametrize("beta_t, eps_cap", [(0.2, 0.5), (0.6, 0.5)], ids=["whole", "masked"])
def test_one_sweep_checks_its_points_once(monkeypatch, beta_t, eps_cap):
    # One sweep, of one budget or of several, takes its error targets, admits
    # its beta_s and builds its channel row once for the whole grid, whether
    # the solver admits every point or some are masked out.
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        optimizer, "decoding_error_target", counting("target", optimizer.decoding_error_target)
    )
    monkeypatch.setattr(BudgetFn, "_admit", counting("admit", BudgetFn._admit))
    monkeypatch.setattr(channel, "awgn_coeffs", counting("coeffs", channel.awgn_coeffs))
    budgets = [
        BudgetFn(Scheme.UQ, 100), BudgetFn(Scheme.LQ, 100), BudgetFn(Scheme.SLQ, 1000, 10, 1e-5)
    ]
    for budget in budgets:
        for refine in (False, True):
            for sweep, totals in ((sweep_beta_s, beta_t), (sweep_beta_t, [0.05, beta_t])):
                calls.clear()
                sweep(totals, budget, WIDEBAND_SPEC, eps_cap=eps_cap, refine=refine)
                assert sorted(calls) == ["admit", "coeffs", "target"]


def test_refine_takes_few_passes_on_workload_grid(monkeypatch):
    # Sweeps as the planner benchmark runs them: three coders, 0-20 dB,
    # 1000 grid points. A bisection takes 10-25 passes per sweep.
    calls = count_passes(monkeypatch)
    exact = count_exact_points(monkeypatch)
    budgets = [
        BudgetFn(Scheme.UQ, 100), BudgetFn(Scheme.LQ, 100), BudgetFn(Scheme.SLQ, 1000, 10, 1e-5)
    ]
    passes = []
    for snr_db, beta_t in zip(np.linspace(0.0, 20.0, 9), np.linspace(0.02, 0.5, 9)):
        for budget in budgets:
            spec = ChannelSpec(ChannelFamily.AWGN, db_to_linear(snr_db), 10_000, 320_000)
            calls.clear()
            sweep_beta_s(float(beta_t), budget, spec, refine=True)
            passes.append(len(calls))
            # The first pass decides every point.
            assert calls[0] == 1000
    assert max(passes) <= 3
    # numpy's log2 decides them all: no point comes near a tie.
    assert exact == []


@pytest.mark.parametrize(
    "budget",
    [BudgetFn(Scheme.UQ, 100), BudgetFn(Scheme.LQ, 100), BudgetFn(Scheme.SLQ, 1000, 10, 1e-5)],
    ids=["uq", "lq", "slq"],
)
def test_refine_never_evaluates_q(monkeypatch, budget):
    # The refine compares z-scores with the Q^-1 the closed form took.
    expected = sweep_beta_s(0.1, budget, WIDEBAND_SPEC, grid_points=200, refine=True)

    def refuse(x):
        raise AssertionError("Q evaluated")

    monkeypatch.setattr(channel, "q_func", refuse)
    with pytest.raises(AssertionError, match="Q evaluated"):
        epsilon_awgn(100, 1.0, 10.0)
    curve = sweep_beta_s(0.1, budget, WIDEBAND_SPEC, grid_points=200, refine=True)
    assert curve.n.tolist() == expected.n.tolist()
    assert curve.feasible.tolist() == expected.feasible.tolist()
    assert (curve.n < sweep_beta_s(0.1, budget, WIDEBAND_SPEC, grid_points=200).n).any()


SOLVER_SPECS = {
    ChannelFamily.AWGN: WIDEBAND_SPEC,
    ChannelFamily.FADING_CSI: CSI_SPEC,
    ChannelFamily.FADING_NOCSI: NOCSI_SPEC,
}


@pytest.mark.parametrize("refine", [False, True], ids=["closed", "refined"])
@pytest.mark.parametrize("family", list(ChannelFamily), ids=lambda f: f.value)
def test_array_solve_matches_scalar_solves(family, refine):
    rng = np.random.default_rng(41)
    spec = SOLVER_SPECS[family]
    beta_s = rng.uniform(0.001, 0.09, 300)
    j_bits = 10 ** rng.uniform(0.0, 5.0, 300)
    sol = solve_blocklength(spec, 0.1, beta_s, j_bits, refine=refine)
    one = [
        solve_blocklength(spec, 0.1, b, j, refine=refine)
        for b, j in zip(beta_s.tolist(), j_bits.tolist())
    ]
    assert sol.n.dtype == np.int64
    assert sol.n.tolist() == [s.n for s in one]
    assert sol.n_real.tolist() == [s.n_real for s in one]
    assert sol.eps_target.tolist() == [s.eps_target for s in one]
    assert all(type(s.n) is int and type(s.n_real) is float for s in one)


def test_array_solve_checks_every_element():
    spec = SOLVER_SPECS[ChannelFamily.AWGN]
    with pytest.raises(DomainError):
        solve_blocklength(spec, 0.1, np.array([0.05, 0.1]), np.array([10.0, 10.0]))
    with pytest.raises(EpsilonOutOfRange):
        solve_blocklength(spec, 0.9, np.array([0.8, 0.05]), np.array([10.0, 10.0]))
    with pytest.raises(DomainError):
        solve_blocklength(spec, 0.1, np.array([0.05, 0.06]), np.array([10.0, 0.0]))


def test_target_of_one_is_out_of_range():
    # Q^-1(1) is infinite, so a cap of 1 or more still stops below it.
    with pytest.raises(EpsilonOutOfRange):
        solve_blocklength(WIDEBAND_SPEC, 1.0, 0.3, 100.0, eps_cap=2.0)
    with pytest.raises(NoFeasibleN):
        sweep_beta_s(1.0, BudgetFn(Scheme.LQ, 10), WIDEBAND_SPEC, grid_points=20, eps_cap=2.0)


def test_sweep_above_unit_budget_is_domain_error():
    with pytest.raises(DomainError):
        sweep_beta_s(1.2, BudgetFn(Scheme.LQ, 10), WIDEBAND_SPEC, grid_points=20)


@pytest.mark.parametrize("eps_cap", [math.nan, 0.0, -1.0])
def test_unusable_eps_cap_is_domain_error(eps_cap):
    budget = BudgetFn(Scheme.LQ, 10)
    with pytest.raises(DomainError, match="eps_cap must be positive"):
        solve_blocklength(WIDEBAND_SPEC, 0.1, 0.05, 100.0, eps_cap=eps_cap)
    with pytest.raises(DomainError, match="eps_cap must be positive"):
        sweep_beta_s(0.1, budget, WIDEBAND_SPEC, grid_points=20, eps_cap=eps_cap)
    with pytest.raises(DomainError):
        sweep_beta_t([0.05, 0.1], budget, WIDEBAND_SPEC, grid_points=20, eps_cap=eps_cap)


@pytest.mark.filterwarnings("error")
def test_budget_ulps_above_the_lower_edge_is_domain_error():
    # Its uniform grid rounds up to the budget itself, which leaves no error
    # target: every sweep refuses it as the target refuses such a point.
    lower = 1e-6
    for ulps in (1, 2, 7):
        beta_t = lower + ulps * math.ulp(lower)
        for sweep, budgets in ((sweep_beta_s, beta_t), (sweep_beta_t, [beta_t, 0.1])):
            with pytest.raises(DomainError, match="need 0 <= beta_s < beta_t"):
                sweep(budgets, BudgetFn(Scheme.LQ, 10), WIDEBAND_SPEC)


def test_empty_grid_and_budget_outside_unit_interval_are_domain_errors():
    budget = BudgetFn(Scheme.LQ, 10)
    with pytest.raises(DomainError, match="at least one point"):
        beta_s_grid(0.1, budget, 0)
    with pytest.raises(DomainError):
        sweep_beta_t([0.1], budget, WIDEBAND_SPEC, grid_points=0)
    for bad in (math.nan, math.inf, 1.2, 0.0, -0.1):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            sweep_beta_t([0.1, bad], budget, WIDEBAND_SPEC, grid_points=20)
        # sweep_beta_s used to lay its grid below the budget first, and
        # refuse that grid instead (after a RuntimeWarning, for inf).
        with pytest.raises(DomainError, match=rf"^beta_t must lie in \(0, 1\], got {bad}$"):
            sweep_beta_s(bad, budget, WIDEBAND_SPEC, grid_points=20)
    with pytest.raises(DomainError, match=r"must lie in \(0, 1\], got \[\]"):
        sweep_beta_t([], budget, WIDEBAND_SPEC, grid_points=20)


def sweep_digest(curve):
    h = hashlib.sha256()
    for pt in curve.points:
        fields = (pt.n, pt.n_real.hex(), pt.j_bits.hex(), pt.eps_target.hex(), pt.feasible)
        h.update(repr(fields).encode())
    h.update(curve.best.beta_s.hex().encode())
    return h.hexdigest()


PIN_SPECS = {
    "awgn": WIDEBAND_SPEC,
    "fading-csi": CSI_SPEC,
    "fading-nocsi": NOCSI_SPEC,
    # An operational SNR of 1/3200, where the refine walks for many passes.
    "awgn-low": ChannelSpec(ChannelFamily.AWGN, db_to_linear(-20), 10_000, 320_000),
}
PIN_CODERS = {
    "uq": BudgetFn(Scheme.UQ, 100),
    "lq": BudgetFn(Scheme.LQ, 100),
    "slq": BudgetFn(Scheme.SLQ, 1000, 10, 1e-5),
    # A few bits: at the low SNR many refine seeds are NaN and start from 1.
    "lq3": BudgetFn(Scheme.LQ, 3),
}
# Digests of two 500-point sweeps (beta_t 0.05, and 0.6 whose small beta_s
# are infeasible), computed with the per-point solver that the array sweep
# replaced. The refine leaves the fading families' closed-form n as it is.
# The fading-CSI digests were re-pinned when the moments moved from adaptive
# quadrature to the fixed exp-sinh rule: n, J, eps, the feasible flags and the
# best beta_s stayed the same, and only n_real moved, by at most 2e-14 relative.
# All were re-pinned when Q^-1 moved from scipy's ndtri to the standard
# library's AS241: again only n_real moved, on 1,452 of 14,994 points, by at
# most 8.1e-16 relative. The low-SNR refined digests were taken before the
# refine moved to numpy's log2 with the exact z at near-ties; 4 to 34 passes.
PINNED_SWEEPS = {
    ("awgn", "uq", False): "227671e3e1c5b8fbcf893c87af261e7c",
    ("awgn", "uq", True): "bdc00710d214c9ca2c0a22a8ad9ce50a",
    ("awgn", "lq", False): "f5fdec9f500323c10542d65f4853b295",
    ("awgn", "lq", True): "5bc0fa84675ed2d4e6d67f7e0f94d3e4",
    ("awgn", "slq", False): "f731f0070511bb617b59fa6572262523",
    ("awgn", "slq", True): "5203786de41dacc8f44ba3e778415365",
    ("fading-csi", "uq", False): "6dba569f229e12ce7d075437031cee03",
    ("fading-csi", "uq", True): "6dba569f229e12ce7d075437031cee03",
    ("fading-csi", "lq", False): "83cca2e6f292dde7ebf31d1dde7c5d82",
    ("fading-csi", "lq", True): "83cca2e6f292dde7ebf31d1dde7c5d82",
    ("fading-csi", "slq", False): "7a1db377818b49967a35724eacaff71e",
    ("fading-csi", "slq", True): "7a1db377818b49967a35724eacaff71e",
    ("fading-nocsi", "uq", False): "4d61c0835c83de097dd5fa430d381288",
    ("fading-nocsi", "uq", True): "4d61c0835c83de097dd5fa430d381288",
    ("fading-nocsi", "lq", False): "f7f99158976cffc168e15bb673f45a94",
    ("fading-nocsi", "lq", True): "f7f99158976cffc168e15bb673f45a94",
    ("fading-nocsi", "slq", False): "8b2c5a0aa4116dd5e07eb7d14b3945fe",
    ("fading-nocsi", "slq", True): "8b2c5a0aa4116dd5e07eb7d14b3945fe",
    ("awgn-low", "uq", True): "268f59615d9cb3d33c7cd996394dc1f3",
    ("awgn-low", "lq", True): "e493584f4eb9b0f91e7bd752f7af0069",
    ("awgn-low", "slq", True): "9e9f7c6ce2f7dbde565757465afee85a",
    ("awgn-low", "lq3", True): "d68281edd0130fb6c4e7b1d6b454ffa7",
}


@pytest.mark.parametrize(
    "family, coder, refine", list(PINNED_SWEEPS), ids=lambda x: str(x).lower()
)
def test_sweep_is_pinned(family, coder, refine):
    digests = [
        sweep_digest(
            sweep_beta_s(bt, PIN_CODERS[coder], PIN_SPECS[family], grid_points=500, refine=refine)
        )
        for bt in (0.05, 0.6)
    ]
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()[:32]
    assert combined == PINNED_SWEEPS[(family, coder, refine)]


class TestFadingSolvers:
    def test_csi_half_error_matches_converted_payload(self):
        from latdist.channel import fading_csi_coeffs

        c, _ = fading_csi_coeffs(CSI_SPEC.gamma, 20)
        sol = solve_blocklength(CSI_SPEC, 0.55, 0.1, 100.0)
        assert sol.n == math.ceil(100.0 * math.log(2) / c)

    def test_csi_fixture(self):
        bf = BudgetFn(Scheme.SLQ, 100, 16, 1e-5)
        sol = solve_blocklength(CSI_SPEC, 0.05, 0.02, bf.bits_real(0.02))
        assert sol.n == 228
        assert sol.n_real == pytest.approx(227.19947990137166, rel=1e-9)

    def test_csi_monotone_in_payload(self):
        ns = [
            solve_blocklength(CSI_SPEC, 0.1, 0.02, j).n
            for j in (50.0, 100.0, 400.0, 1600.0)
        ]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_csi_conservative_on_random_grid(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if decoding_error_target(beta_t, beta_s) > 0.5:
                continue
            j_bits = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(-1.0, 1.5)
            coherence = int(rng.choice([5, 10, 20, 50]))
            spec = spec_at(ChannelFamily.FADING_CSI, gamma, coherence)
            sol = solve_blocklength(spec, beta_t, beta_s, j_bits)
            exact = epsilon_fading_csi(sol.n, gamma, j_bits, coherence)
            assert exact <= sol.eps_target * (1 + 1e-9)

    def test_nocsi_excludes_half(self):
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.55, 0.1, 100.0)
        # The bound is strict, with no slack: a target of exactly 1/2, or
        # exactly the cap, is refused although AWGN accepts both.
        assert decoding_error_target(0.5, 0.0) == 0.5
        assert solve_blocklength(WIDEBAND_SPEC, 0.5, 0.0, 100.0).eps_target == 0.5
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.5, 0.0, 100.0)
        assert solve_blocklength(WIDEBAND_SPEC, 0.25, 0.0, 100.0, eps_cap=0.25).n > 0
        with pytest.raises(EpsilonOutOfRange):
            solve_blocklength(NOCSI_SPEC, 0.25, 0.0, 100.0, eps_cap=0.25)

    def test_nocsi_fixture(self):
        bf = BudgetFn(Scheme.SLQ, 1000, 70, 1e-5)
        sol = solve_blocklength(NOCSI_SPEC, 0.05, 0.02, bf.bits_real(0.02))
        assert sol.n == 157
        assert sol.n_real == pytest.approx(156.87228326554418, rel=1e-9)

    def test_nocsi_rejects_low_snr(self):
        # The high-SNR information term goes negative at moderate SNR.
        with pytest.raises(NoFeasibleN):
            solve_blocklength(spec_at(ChannelFamily.FADING_NOCSI, 0.2, 20), 0.1, 0.02, 100.0)

    @pytest.mark.parametrize("coherence", [3, 5, 10, 20, 50, 200])
    def test_nocsi_never_beats_the_csi_capacity(self, coherence):
        # A receiver without CSI cannot carry more than one with it. Below
        # the floor F/(5(F - 1)), -5.2 dB at F=3 and -7.0 dB at F=200, the
        # high-SNR correction F/(5 gamma) makes the no-CSI information rise
        # as the SNR falls, to 46 times the AWGN capacity at -15 dB and F=20.
        from latdist.channel import fading_csi_coeffs, fading_nocsi_coeffs

        accepted = refused_positive = 0
        for snr_db in np.linspace(-40.0, 60.0, 2001).tolist():
            gamma = db_to_linear(snr_db)
            info, _ = fading_nocsi_coeffs(gamma, coherence)
            spec = spec_at(ChannelFamily.FADING_NOCSI, gamma, coherence)
            try:
                solve_blocklength(spec, 0.1, 0.05, 100.0)
            except NoFeasibleN:
                refused_positive += info > 0
                continue
            assert info / coherence <= fading_csi_coeffs(gamma, coherence)[0], snr_db
            accepted += 1
        # The floor refuses some SNRs with positive information; the model
        # still answers from a few dB above it.
        assert refused_positive > 0 and accepted > 1000

    def test_nocsi_conservative_on_random_grid(self):
        rng = np.random.default_rng(34)
        done = 0
        while done < 150:
            beta_t = rng.uniform(0.01, 0.6)
            beta_s = rng.uniform(0.0, beta_t * 0.99)
            if not 0 < decoding_error_target(beta_t, beta_s) < 0.5:
                continue
            j_bits = rng.uniform(10.0, 3000.0)
            gamma = 10 ** rng.uniform(1.0, 2.5)
            coherence = int(rng.choice([5, 10, 20, 50]))
            spec = spec_at(ChannelFamily.FADING_NOCSI, gamma, coherence)
            sol = solve_blocklength(spec, beta_t, beta_s, j_bits)
            exact = epsilon_fading_nocsi(sol.n, gamma, j_bits, coherence)
            assert exact <= sol.eps_target * (1 + 1e-9)
            done += 1


class TestSweeps:
    def test_optimal_split_grows_with_total_budget(self):
        configs = [
            BudgetFn(Scheme.UQ, 70),
            BudgetFn(Scheme.LQ, 70),
            BudgetFn(Scheme.SLQ, 70, 20, 1e-5),
        ]
        for bf in configs:
            argmins = [
                sweep_beta_s(bt, bf, NARROWBAND_SPEC, grid_points=400).best.beta_s
                for bt in (0.05, 0.2, 0.4)
            ]
            assert argmins[0] < argmins[1] < argmins[2]

    def test_single_point_grid_is_argmin(self):
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_s(0.1, bf, WIDEBAND_SPEC, grid_points=1)
        assert len(curve.points) == 1
        assert curve.best is curve.points[0]

    def test_all_infeasible_raises(self):
        bf = BudgetFn(Scheme.LQ, 10)
        with pytest.raises(NoFeasibleN):
            sweep_beta_s(0.5, bf, WIDEBAND_SPEC, grid_points=8, eps_cap=1e-12)

    def test_infeasible_points_are_retained(self):
        # beta_t 0.6 makes small beta_s exceed the 0.5 error cap.
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_s(0.6, bf, WIDEBAND_SPEC, grid_points=50)
        flags = [pt.feasible for pt in curve.points]
        assert not all(flags) and any(flags)
        assert all(math.isinf(pt.latency_s) for pt in curve.points if not pt.feasible)

    def test_point_invariants(self):
        bf = BudgetFn(Scheme.SLQ, 40, 8, 1e-4)
        curve = sweep_beta_s(0.08, bf, WIDEBAND_SPEC, grid_points=100)
        for pt in curve.points:
            if not pt.feasible:
                continue
            assert pt.latency_s == pt.n / (2 * WIDEBAND_SPEC.bandwidth_hz)
            recombined = (1 - pt.eps_target) * pt.beta_s + pt.eps_target
            assert recombined == pytest.approx(pt.beta_t, abs=1e-12)
            assert pt.beta_s < pt.beta_t

    def test_grid_modes(self):
        bf = BudgetFn(Scheme.LQ, 10)
        uniform = sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_points=16, grid_mode="uniform")
        logspace = sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_points=16, grid_mode="log")
        assert uniform.points[0].beta_s == logspace.points[0].beta_s
        assert uniform.points[5].beta_s != logspace.points[5].beta_s
        with pytest.raises(DomainError):
            sweep_beta_s(0.2, bf, WIDEBAND_SPEC, grid_mode="bogus")

    def test_latency_rises_toward_the_budget_edge(self):
        # Pushing all of the distortion budget onto the channel (beta_s near
        # beta_t) forces longer blocklengths; the rise is logarithmic in the
        # remaining gap, so the edge exceeds the argmin without bound only
        # in the limit.
        for bf in (
            BudgetFn(Scheme.UQ, 70),
            BudgetFn(Scheme.LQ, 70),
            BudgetFn(Scheme.SLQ, 70, 20, 1e-5),
        ):
            curve = sweep_beta_s(0.05, bf, NARROWBAND_SPEC, grid_points=1000)
            last = curve.points[-1]
            assert last.feasible
            assert last.latency_s > curve.best.latency_s
            tail = [pt.latency_s for pt in curve.points[-20:]]
            assert all(a <= b for a, b in zip(tail, tail[1:]))


def _assert_convex_nonincreasing(points):
    xs = [p.beta_t for p in points]
    ys = [p.latency_s for p in points]
    assert all(a > b for a, b in zip(ys, ys[1:]))
    for i in range(len(xs) - 2):
        cross = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (ys[i + 1] - ys[i]) * (
            xs[i + 2] - xs[i]
        )
        assert cross >= -1e-15


class TestHull:
    def test_two_points_form_their_own_hull(self):
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_t([0.1, 0.3], bf, WIDEBAND_SPEC, grid_points=50)
        assert curve.hull_member.tolist() == [True, True]

    def test_hull_convex_and_nonincreasing(self):
        bf = BudgetFn(Scheme.SLQ, 50, 5, 1e-5)
        curve = sweep_beta_t(
            np.linspace(0.02, 0.5, 12), bf, WIDEBAND_SPEC, grid_points=150
        )
        _assert_convex_nonincreasing([pt for pt in curve.points if pt.hull_member])
        xs, ys = zip(*((pt.beta_t, pt.latency_s) for pt in curve.points))
        hull = lower_convex_hull(xs, ys)
        assert curve.hull_member.tolist() == [i in hull for i in range(len(xs))]

    def test_lower_convex_hull_filters_upticks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [4.0, 2.0, 1.5, 1.6]
        hull = lower_convex_hull(xs, ys)
        assert 3 not in hull  # the uptick is dominated by the point before it
        assert hull[0] == 0 and hull[-1] == 2

    def test_skips_infeasible_budgets(self):
        # On 40 points below beta_t = 0.5 every error target exceeds a cap of
        # 0.01; below 0.1 the grid's top points stay under it.
        bf = BudgetFn(Scheme.LQ, 10)
        curve = sweep_beta_t([0.1, 0.5], bf, WIDEBAND_SPEC, grid_points=40, eps_cap=0.01)
        flags = {pt.beta_t: pt.feasible for pt in curve.points}
        assert flags[0.1] and not flags[0.5]
        assert all(pt.feasible for pt in curve.points if pt.hull_member)

    def test_every_budget_infeasible_raises(self):
        bf = BudgetFn(Scheme.LQ, 10)
        with pytest.raises(NoFeasibleN):
            sweep_beta_t([0.3, 0.5], bf, WIDEBAND_SPEC, grid_points=40, eps_cap=0.001)

    def test_budget_at_tail_floor_is_domain_error(self):
        # A tail-mass floor of 0.2 leaves no admissible beta_s below it, as
        # sweep_beta_s reports for the same budget.
        bf = BudgetFn(Scheme.SLQ, 20, 5, 0.2)
        for beta_ts in ([0.1, 0.5], [0.2, 0.5], [0.05, 0.1]):
            with pytest.raises(DomainError, match="no admissible source distortion"):
                sweep_beta_t(beta_ts, bf, WIDEBAND_SPEC, grid_points=40)


# family -> log10 SNR range of the oracle draws; no-CSI needs high SNR.
ORACLE_SNR = {
    ChannelFamily.AWGN: (-1.0, 1.5),
    ChannelFamily.FADING_CSI: (-1.0, 1.5),
    ChannelFamily.FADING_NOCSI: (1.0, 2.5),
}


def row_by_row(beta_ts, budget, spec, **kwargs):
    """The per-budget loop of 1-D sweeps that the 2-D sweep_beta_t replaced.

    Returns the rows, the hull rows and the best row.
    """
    rows = []
    for bt in sorted(beta_ts):
        try:
            rows.append(sweep_beta_s(bt, budget, spec, **kwargs).best)
        except (NoFeasibleN, DomainError):
            nan = math.nan
            rows.append(TradeoffPoint(bt, nan, nan, nan, 0, nan, math.inf, feasible=False))
    feasible = [i for i, pt in enumerate(rows) if pt.feasible]
    if not feasible:
        raise NoFeasibleN("no feasible row")
    hull = lower_convex_hull(
        [rows[i].beta_t for i in feasible], [rows[i].latency_s for i in feasible]
    )
    best = min(feasible, key=lambda i: (rows[i].latency_s, rows[i].beta_t))
    return rows, [feasible[j] for j in hull], best


def every_point_admitted(beta_ts, budget, spec, *, grid_points, grid_mode, eps_cap, refine):
    """Whether the solver admits every point of the 2-D grid below the budgets."""
    budgets = np.sort(beta_ts)
    grid = beta_s_grid(budgets, budget, grid_points, grid_mode)
    eps = decoding_error_target(budgets[:, None], grid)
    admitted = optimizer._admitted(spec.family, eps, eps_cap) & (budget.bits_real(grid) > 0)
    return bool(admitted.all())


def test_grid_sweep_matches_one_sweep_per_budget():
    rng = np.random.default_rng(43)
    families = list(ChannelFamily)
    schemes = list(Scheme)
    outcomes = {
        "solved": 0, "infeasible rows": 0, "none feasible": 0, "refined, every point admitted": 0
    }
    for draw in range(105):
        # The last draws are refined AWGN grids of several budgets, all at
        # most the cap, so that the solver takes each 2-D grid whole.
        whole = draw >= 90
        family = ChannelFamily.AWGN if whole else families[draw % 3]
        lo, hi = ORACLE_SNR[family]
        f = None if family is ChannelFamily.AWGN else int(rng.choice([5, 10, 20, 50]))
        spec = spec_at(family, 10 ** rng.uniform(lo, hi), f)
        scheme = schemes[(draw // 3) % 3]
        k = int(rng.integers(2, 300))
        if scheme is Scheme.SLQ:
            delta = float(rng.choice([0.0, 1e-5, 0.01]))
            budget = BudgetFn(scheme, k, int(rng.integers(1, k + 1)), delta)
        else:
            delta = 0.0
            budget = BudgetFn(scheme, k)
        top, count = (0.5, int(rng.integers(2, 9))) if whole else (1.0, int(rng.integers(1, 9)))
        beta_ts = rng.uniform(delta + 0.005, top, count).tolist()
        kwargs = dict(
            grid_points=int(rng.integers(1, 120)),
            grid_mode=["uniform", "log"][draw % 2],
            eps_cap=0.5 if whole else float(rng.choice([0.5, 0.05, 0.005])),
            refine=whole or bool(draw % 4 < 2),
        )
        try:
            rows, hull, best = row_by_row(beta_ts, budget, spec, **kwargs)
        except NoFeasibleN:
            with pytest.raises(NoFeasibleN):
                sweep_beta_t(beta_ts, budget, spec, **kwargs)
            outcomes["none feasible"] += 1
            continue
        curve = sweep_beta_t(beta_ts, budget, spec, **kwargs)
        assert [repr(dataclasses.astuple(pt)[:-1]) for pt in curve.points] == [
            repr(dataclasses.astuple(pt)[:-1]) for pt in rows
        ]
        assert curve.hull_member.tolist() == [i in hull for i in range(len(rows))]
        assert curve.best_index == best
        outcomes["solved"] += 1
        outcomes["infeasible rows"] += not all(pt.feasible for pt in rows)
        outcomes["refined, every point admitted"] += (
            kwargs["refine"] and family is ChannelFamily.AWGN and len(beta_ts) > 1
            and every_point_admitted(beta_ts, budget, spec, **kwargs)
        )
    assert min(outcomes.values()) >= 5, outcomes


class CountingPoint(TradeoffPoint):
    made = 0

    def __init__(self, *args, **kwargs):
        CountingPoint.made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("read", ["points", "best"])
def test_sweeps_build_points_only_when_read(monkeypatch, capsys, read):
    monkeypatch.setattr(optimizer, "TradeoffPoint", CountingPoint)
    monkeypatch.setattr(CountingPoint, "made", 0)
    bf = BudgetFn(Scheme.LQ, 10)
    one = sweep_beta_s(0.6, bf, WIDEBAND_SPEC, grid_points=50)
    grid = sweep_beta_t([0.05, 0.1, 0.3], bf, WIDEBAND_SPEC, grid_points=50)
    for command in ("tradeoff", "hull"):
        args = [command, "--scheme", "lq", "-k", "10", "--gamma0-db", "5", "--b-hz", "320000"]
        assert cli.main(args + ["--beta-t", "0.1", "--format", "json"]) == 0
    capsys.readouterr()
    assert CountingPoint.made == 0
    for curve in (one, grid):
        before = CountingPoint.made
        getattr(curve, read)
        getattr(curve, read)
        assert CountingPoint.made - before == len(curve.n)
        assert curve.best is curve.points[curve.best_index]


def test_point_fields_are_python_scalars():
    bf = BudgetFn(Scheme.LQ, 10)
    curves = [
        sweep_beta_s(0.6, bf, WIDEBAND_SPEC, grid_points=50),
        sweep_beta_t([0.1, 0.5], bf, WIDEBAND_SPEC, grid_points=40, eps_cap=0.01),
    ]
    kinds = {
        "beta_t": float, "beta_s": float, "eps_target": float, "j_bits": float,
        "n": int, "n_real": float, "latency_s": float, "feasible": bool, "hull_member": bool,
    }
    for curve in curves:
        assert not all(pt.feasible for pt in curve.points)
        for pt in curve.points:
            assert {name: type(getattr(pt, name)) for name in kinds} == kinds
