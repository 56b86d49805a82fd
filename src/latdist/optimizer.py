"""Blocklength solver and latency sweeps under a total distortion budget.

Splitting a total distortion budget beta_t into quantization distortion
beta_s and decoding failures fixes the tolerable block error probability at
eps = (beta_t - beta_s) / (1 - beta_s). Every channel family then shares
one normal approximation, solved in closed form for the blocklength n:

    n * rate - sqrt(n * dispersion) * Q^-1(eps) = payload

Only the coefficients differ (C, V: AWGN capacity and dispersion in bits;
C_c, V_c: receiver-CSI fading moments in nats; I, V_b: no-CSI information
and dispersion per coherence block of F channel uses):

    family         rate  dispersion  payload
    awgn           C     V           J
    fading-csi     C_c   F * V_c     J * ln 2
    fading-nocsi   I     F * V_b     J * F * ln 2

A sweep over beta_s locates the split that minimizes latency n / (2B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .budget import BudgetFn
from .channel import (
    LN_2,
    ChannelFamily,
    ChannelSpec,
    awgn_coeffs,
    epsilon_awgn,
    epsilon_fading_csi,
    epsilon_fading_nocsi,
    fading_csi_coeffs,
    fading_nocsi_coeffs,
    q_inv,
)
from .errors import (
    BetaNotAboveDelta,
    DomainError,
    EpsilonOutOfRange,
    NoFeasibleN,
)

DEFAULT_EPS_CAP = 0.5
DEFAULT_GRID_POINTS = 1000

# Relative slack when comparing the error target against the inclusive cap,
# so budget splits that land on the cap up to float rounding still solve.
_CAP_SLACK = 1e-9

# The solver runs once per grid point, and on Python 3.11 each enum member
# lookup such as ChannelFamily.AWGN costs about 0.1 us; it compares against
# these instead.
_AWGN, _CSI, _NOCSI = (
    ChannelFamily.AWGN,
    ChannelFamily.FADING_CSI,
    ChannelFamily.FADING_NOCSI,
)


def decoding_error_target(beta_t: float, beta_s: float) -> float:
    """Error probability that exhausts the distortion budget: (bt - bs)/(1 - bs)."""
    if not 0.0 <= beta_s < beta_t <= 1.0:
        raise DomainError(
            f"need 0 <= beta_s < beta_t <= 1, got beta_s={beta_s}, beta_t={beta_t}"
        )
    return (beta_t - beta_s) / (1.0 - beta_s)


class BlocklengthSolution(NamedTuple):
    n: int
    n_real: float
    eps_target: float


def _solve_root(r: float, rate: float, payload: float) -> float:
    """Positive root of n*rate - sqrt(n)*r - payload = 0, returned as sqrt(n)."""
    return (r + math.sqrt(r * r + 4.0 * rate * payload)) / (2.0 * rate)


def _ceil_n(root: float) -> int:
    # The guard only absorbs float noise from the root arithmetic (a few
    # ulps), so exact-integer solutions do not get bumped up a step.
    n_real = root * root
    n = math.ceil(n_real - 1e-12 * max(1.0, n_real))
    return max(1, n)


def _refine(
    n: int, eps_target: float, exact_eps, gamma: float, j_bits: float, coherence: int | None
) -> int:
    """Smallest blocklength in [1, n] whose exact error stays within target.

    Relies on the error model decreasing in n, which holds for positive
    payloads on all three families.
    """
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_eps(mid, gamma, j_bits, coherence) <= eps_target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _epsilon_awgn(n: int, gamma: float, j_bits: float, coherence: None) -> float:
    """epsilon_awgn with the fading models' signature; AWGN has no coherence."""
    return epsilon_awgn(n, gamma, j_bits)


def _family_row(spec: ChannelSpec, j_bits: float) -> tuple:
    """The family's rate, dispersion, payload and exact error model.

    The error model takes (n, gamma, j_bits, coherence) on every family, so
    that the solver calls it without building a closure per solve.
    """
    gamma, f = spec.gamma, spec.coherence
    if spec.family is _AWGN:
        c, v = awgn_coeffs(gamma)
        return c, v, j_bits, _epsilon_awgn
    if spec.family is _CSI:
        c, v = fading_csi_coeffs(gamma, f)
        return c, f * v, j_bits * LN_2, epsilon_fading_csi
    info, disp = fading_nocsi_coeffs(gamma, f)
    return info, f * disp, j_bits * f * LN_2, epsilon_fading_nocsi


def solve_blocklength(
    spec: ChannelSpec,
    beta_t: float,
    beta_s: float,
    j_bits: float,
    *,
    eps_cap: float = DEFAULT_EPS_CAP,
    refine: bool = False,
) -> BlocklengthSolution:
    """Blocklength meeting the distortion split on the spec's channel.

    The closed form inverts each error model exactly, except that it drops
    the AWGN model's (1/2)log2(n) bonus term, so the exact error at the
    returned n is at most the target on every family. With ``refine`` the
    integer blocklength is shrunk while that still holds. The no-CSI model
    needs the target strictly inside (0, 1/2); it is not defined at or
    beyond one half.
    """
    eps = decoding_error_target(beta_t, beta_s)
    if spec.family is _NOCSI:
        if not 0.0 < eps < min(eps_cap, 0.5):
            raise EpsilonOutOfRange(f"error target {eps} outside (0, {min(eps_cap, 0.5)})")
    elif not 0.0 < eps <= eps_cap * (1.0 + _CAP_SLACK):
        raise EpsilonOutOfRange(f"error target {eps} outside (0, {eps_cap}]")
    if j_bits <= 0:
        raise DomainError(f"payload must be positive, got {j_bits}")
    rate, dispersion, payload, exact_eps = _family_row(spec, j_bits)
    if rate <= 0:
        raise NoFeasibleN(
            f"block information {rate} is not positive at SNR {spec.gamma}; "
            "the high-SNR model does not apply"
        )
    root = _solve_root(math.sqrt(dispersion) * q_inv(eps), rate, payload)
    n = _ceil_n(root)
    if refine:
        n = _refine(n, eps, exact_eps, spec.gamma, j_bits, spec.coherence)
    return BlocklengthSolution(n, root * root, eps)


@dataclass
class TradeoffPoint:
    """One solved operating point of the latency-distortion tradeoff."""

    beta_t: float
    beta_s: float
    eps_target: float
    j_bits: float
    n: int
    n_real: float
    latency_s: float
    feasible: bool = True
    hull_member: bool = False

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass
class TradeoffCurve:
    """Sweep output: all evaluated points, the best one, and an optional hull."""

    points: list[TradeoffPoint]
    best: TradeoffPoint | None = None
    hull: list[TradeoffPoint] | None = None


def beta_s_grid(
    beta_t: float,
    budget: BudgetFn,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid_mode: str = "uniform",
) -> np.ndarray:
    """Source distortion grid on (lower_edge, beta_t), excluding beta_t itself."""
    lower = budget.lower_edge + 1e-9 if budget.lower_edge > 0 else 1e-6
    if beta_t <= lower:
        raise DomainError(
            f"beta_t={beta_t} leaves no admissible source distortion above {lower}"
        )
    if grid_mode == "uniform":
        return np.linspace(lower, beta_t, grid_points, endpoint=False)
    if grid_mode == "log":
        return np.geomspace(lower, beta_t, grid_points, endpoint=False)
    raise DomainError(f"unknown grid mode {grid_mode!r}")


def _evaluate_point(
    spec: ChannelSpec,
    budget: BudgetFn,
    beta_t: float,
    beta_s: float,
    eps_cap: float,
    refine: bool,
) -> TradeoffPoint:
    try:
        j_bits = budget.bits_real(beta_s)
        sol = solve_blocklength(
            spec, beta_t, beta_s, j_bits, eps_cap=eps_cap, refine=refine
        )
    except (EpsilonOutOfRange, NoFeasibleN, BetaNotAboveDelta, DomainError):
        return TradeoffPoint(
            beta_t, beta_s, math.nan, math.nan, 0, math.nan, math.inf, feasible=False
        )
    latency = sol.n / (2.0 * spec.bandwidth_hz)
    return TradeoffPoint(
        beta_t, beta_s, sol.eps_target, j_bits, sol.n, sol.n_real, latency
    )


def sweep_beta_s(
    beta_t: float,
    budget: BudgetFn,
    spec: ChannelSpec,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid_mode: str = "uniform",
    eps_cap: float = DEFAULT_EPS_CAP,
    refine: bool = False,
) -> TradeoffCurve:
    """Evaluate the budget and solver on every grid point; keep the argmin.

    Infeasible points are retained with their flag so curves show the
    feasibility boundary. Raises NoFeasibleN when nothing on the grid is
    feasible.
    """
    grid = beta_s_grid(beta_t, budget, grid_points, grid_mode)
    points = [
        _evaluate_point(spec, budget, beta_t, float(bs), eps_cap, refine)
        for bs in grid
    ]
    feasible = [pt for pt in points if pt.feasible]
    if not feasible:
        raise NoFeasibleN(f"no feasible operating point for beta_t={beta_t}")
    best = min(feasible, key=lambda pt: (pt.latency_s, pt.beta_s))
    return TradeoffCurve(points, best=best)


def lower_convex_hull(xs: Sequence[float], ys: Sequence[float]) -> list[int]:
    """Indices of the lower convex hull of a non-increasing frontier.

    Points are first reduced to the running-minimum staircase (a latency
    achievable at some budget stays achievable at any larger budget), then
    the monotone-chain lower hull of that staircase is taken. The result is
    convex and non-increasing in x.
    """
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    frontier: list[int] = []
    best = math.inf
    for i in order:
        if ys[i] < best:
            frontier.append(i)
            best = ys[i]
    hull: list[int] = []
    for i in frontier:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def sweep_beta_t(
    beta_ts: Sequence[float],
    budget: BudgetFn,
    spec: ChannelSpec,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid_mode: str = "uniform",
    eps_cap: float = DEFAULT_EPS_CAP,
    refine: bool = False,
) -> TradeoffCurve:
    """Minimum latency per total budget, with the lower convex hull marked.

    Budgets whose inner sweep has no feasible point are kept as infeasible
    placeholders; if every budget is infeasible, NoFeasibleN propagates.
    """
    values = sorted(float(bt) for bt in beta_ts)

    def best_for(bt: float) -> TradeoffPoint:
        try:
            curve = sweep_beta_s(
                bt,
                budget,
                spec,
                grid_points=grid_points,
                grid_mode=grid_mode,
                eps_cap=eps_cap,
                refine=refine,
            )
        except (NoFeasibleN, DomainError):
            return TradeoffPoint(
                bt, math.nan, math.nan, math.nan, 0, math.nan, math.inf, feasible=False
            )
        return curve.best

    bests = [best_for(bt) for bt in values]

    feasible_idx = [i for i, pt in enumerate(bests) if pt.feasible]
    if not feasible_idx:
        raise NoFeasibleN("no feasible operating point for any requested beta_t")
    hull_local = lower_convex_hull(
        [bests[i].beta_t for i in feasible_idx],
        [bests[i].latency_s for i in feasible_idx],
    )
    hull_points = []
    for j in hull_local:
        pt = bests[feasible_idx[j]]
        pt.hull_member = True
        hull_points.append(pt)
    best = min(
        (bests[i] for i in feasible_idx), key=lambda pt: (pt.latency_s, pt.beta_t)
    )
    return TradeoffCurve(bests, best=best, hull=hull_points)
