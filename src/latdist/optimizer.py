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

The solver works on arrays. A sweep takes the error target and the bit
budget J of its whole beta_s grid in one call each, masks the points whose
target the solver admits and whose payload is positive, in place of
per-point exceptions, and passes all of them to ``solve_blocklength`` at
once. The solver then makes one numpy pass: Q^-1 of the whole eps column,
the root, the guarded ceiling and, with ``refine``, a bisection over the
array of n in which each point keeps its own [lo, hi] and the family's
error model from ``channel`` is evaluated on all midpoints at once. Points
outside the mask stay in the curve as infeasible. Inputs that no grid point
can satisfy, such as beta_t > 1, raise as they do for a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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
from .elementwise import brief, to_int
from .errors import DomainError, EpsilonOutOfRange, NoFeasibleN

DEFAULT_EPS_CAP = 0.5
DEFAULT_GRID_POINTS = 1000

# Relative slack when comparing the error target against the inclusive cap,
# so budget splits that land on the cap up to float rounding still solve.
_CAP_SLACK = 1e-9

# The refine adds two blocklengths, and floats count exactly only below
# 2**53. From here on it bisects over Python ints instead, as the scalar
# error models see them.
_FLOAT_INT_LIMIT = 2.0**52


def decoding_error_target(beta_t: float, beta_s: float) -> float:
    """Error probability that exhausts the distortion budget: (bt - bs)/(1 - bs).

    Elementwise over an array of beta_s.
    """
    if not np.all((0.0 <= beta_s) & (beta_s < beta_t) & (beta_t <= 1.0)):
        raise DomainError(
            f"need 0 <= beta_s < beta_t <= 1, got beta_s={brief(beta_s)}, beta_t={beta_t}"
        )
    return (beta_t - beta_s) / (1.0 - beta_s)


class BlocklengthSolution(NamedTuple):
    n: int
    n_real: float
    eps_target: float


def _family_row(spec: ChannelSpec, j_bits: float) -> tuple:
    """The family's rate, dispersion, payload and exact error model.

    The error model takes (n, j_bits) and is the channel module's epsilon_*
    function of the family, which the refine's minimality is stated against.
    """
    gamma, f = spec.gamma, spec.coherence
    if spec.family is ChannelFamily.AWGN:
        c, v = awgn_coeffs(gamma)
        return c, v, j_bits, lambda n, j: epsilon_awgn(n, gamma, j)
    if spec.family is ChannelFamily.FADING_CSI:
        c, v = fading_csi_coeffs(gamma, f)
        return c, f * v, j_bits * LN_2, lambda n, j: epsilon_fading_csi(n, gamma, j, f)
    info, disp = fading_nocsi_coeffs(gamma, f)
    return (
        info, f * disp, j_bits * f * LN_2, lambda n, j: epsilon_fading_nocsi(n, gamma, j, f)
    )


def _admitted(family: ChannelFamily, eps, eps_cap: float):
    """Whether the solver takes these error targets; elementwise on arrays.

    A target must lie below 1, where Q^-1 is finite, and within the cap.
    The no-CSI model needs it strictly below 1/2; it is not defined at or
    beyond one half.
    """
    if family is ChannelFamily.FADING_NOCSI:
        return (0.0 < eps) & (eps < min(eps_cap, 0.5))
    return (0.0 < eps) & (eps <= eps_cap * (1.0 + _CAP_SLACK)) & (eps < 1.0)


def _refine(exact_eps, n: np.ndarray, eps: np.ndarray, j_bits: np.ndarray) -> np.ndarray:
    """Smallest blocklength in [1, n] whose exact error stays within target, per point.

    A bisection over the whole array: every point keeps its own [lo, hi] and
    steps as a scalar bisection from [1, n] would. Relies on the error model
    decreasing in n, which holds for positive payloads on all three families.
    """
    hi = n.copy()
    # Also taken for NaN, which int() refuses as math.ceil does.
    if not np.max(hi, initial=0.0) < _FLOAT_INT_LIMIT:
        hi = np.array([int(x) for x in hi.tolist()], dtype=object)
    lo = np.ones_like(hi)
    live = np.flatnonzero(lo < hi)
    while live.size:
        a, b = lo[live], hi[live]
        mid = (a + b) // 2
        ok = exact_eps(mid, j_bits[live]) <= eps[live]
        hi[live] = np.where(ok, mid, b)
        lo[live] = np.where(ok, a, mid + 1)
        live = live[lo[live] < hi[live]]
    return lo


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
    integer blocklength is shrunk while that still holds.

    Elementwise over arrays of beta_s and j_bits, in one numpy pass; each
    check must then hold for every element. n comes back as ints, as
    ``elementwise.to_int`` gives them.
    """
    eps = decoding_error_target(beta_t, beta_s)
    if not np.all(_admitted(spec.family, eps, eps_cap)):
        if spec.family is ChannelFamily.FADING_NOCSI:
            raise EpsilonOutOfRange(f"error target {brief(eps)} outside (0, {min(eps_cap, 0.5)})")
        top = f"{eps_cap}]" if eps_cap < 1.0 else "1)"
        raise EpsilonOutOfRange(f"error target {brief(eps)} outside (0, {top}")
    if np.any(j_bits <= 0):
        raise DomainError(f"payload must be positive, got {brief(j_bits)}")
    rate, dispersion, payload, exact_eps = _family_row(spec, j_bits)
    if rate <= 0:
        raise NoFeasibleN(
            f"block information {rate} is not positive at SNR {spec.gamma}; "
            "the high-SNR model does not apply"
        )
    r = math.sqrt(dispersion) * q_inv(eps)
    # An infinite or NaN n fails when it becomes an int, as math.ceil does.
    with np.errstate(over="ignore", invalid="ignore"):
        # Positive root of n*rate - sqrt(n)*r - payload = 0, as sqrt(n).
        root = (r + np.sqrt(r * r + 4.0 * rate * payload)) / (2.0 * rate)
        n_real = root * root
        # The guard only absorbs float noise from the root arithmetic (a few
        # ulps), so exact-integer solutions do not get bumped up a step.
        n = np.maximum(1.0, np.ceil(n_real - 1e-12 * np.maximum(1.0, n_real)))
    if refine:
        args = np.broadcast_arrays(*map(np.atleast_1d, (n, eps, j_bits)))
        n = _refine(exact_eps, *args).reshape(np.shape(n))
    if not np.ndim(n_real):
        n_real = float(n_real)
    return BlocklengthSolution(to_int(n), n_real, eps)


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
    eps = decoding_error_target(beta_t, grid)
    j_bits = budget.bits_real(grid)
    ok = _admitted(spec.family, eps, eps_cap) & (j_bits > 0.0)
    if not ok.any():
        raise NoFeasibleN(f"no feasible operating point for beta_t={beta_t}")
    sol = solve_blocklength(spec, beta_t, grid[ok], j_bits[ok], eps_cap=eps_cap, refine=refine)
    n = np.zeros(grid.size, dtype=sol.n.dtype)
    n[ok] = sol.n
    n_real = np.full(grid.size, math.nan)
    n_real[ok] = sol.n_real
    eps[~ok] = math.nan
    j_bits[~ok] = math.nan
    latency = np.where(ok, n / (2.0 * spec.bandwidth_hz), math.inf)
    points = list(
        map(
            TradeoffPoint,
            repeat(beta_t, grid.size),
            grid.tolist(),
            eps.tolist(),
            j_bits.tolist(),
            n.tolist(),
            n_real.tolist(),
            latency.tolist(),
            ok.tolist(),
        )
    )
    # The first point of least latency, ties to the smaller beta_s.
    fastest = np.flatnonzero(ok & (latency == latency[ok].min()))
    best = points[fastest[np.argmin(grid[fastest])]]
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
