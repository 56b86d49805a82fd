"""Blocklength solver and latency sweeps under a total distortion budget.

Splitting a total distortion budget beta_t into quantization distortion
beta_s and decoding failures fixes the tolerable block error probability at
eps = (beta_t - beta_s) / (1 - beta_s). Every channel family then shares
one normal approximation, solved in closed form for the blocklength n:

    n * rate - sqrt(n * F * v) * Q^-1(eps) = payload

with the family's rate, F, v and payload from the table in ``channel``,
the same row its error models read. A sweep over beta_s locates the split
that minimizes latency n / (2B).

The solver works on arrays. ``sweep_beta_s`` lays one beta_s grid below its
beta_t; ``sweep_beta_t`` lays one grid row below each of its budgets, a 2-D
(beta_t x beta_s) grid. Either way the error target and the bit budget J of
the whole grid come from one pass each, and the points whose target the
solver admits and whose payload is positive are masked, in place of
per-point exceptions. A grid with every point admitted, as on the planner's
sweeps, goes to the public ``solve_blocklength`` whole, which checks it
once; otherwise only the admitted points go, in one call. The solver
then makes one numpy pass: Q^-1 of the whole eps column, the root and the
guarded ceiling. With ``refine`` on AWGN it then seeds each point near its
exact answer, the closed form with the (1/2)log2(n) term put back, and
walks the whole array from there. Each pass asks, at m and m - 1 of every
live point, whether ``channel._z`` on the row the solve built once reaches
the Q^-1 the closed form already took: with numpy's log2 for every point in
one call, and again with libm's, per element, only for the points within a
guard band of a tie, so every answer is the exact one. Most points stop on
the first pass. The walk assumes, as a bisection would, that the exact
error falls as n grows; under it the result is the smallest n whose exact
error meets the target. An argmin per row picks each budget's best split.
Points outside the mask stay infeasible. Inputs that no grid point can
satisfy, such as beta_t > 1, an empty grid or a non-positive eps cap, raise
as they do for a single point.

A ``TradeoffCurve`` holds its points as numpy columns; the per-point
``TradeoffPoint`` objects are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .budget import BudgetFn
from .channel import ChannelFamily, ChannelSpec, _model_row, _nocsi_snr_floor, _z, q_inv
from .elementwise import brief, to_int
from .errors import DomainError, EpsilonOutOfRange, NoFeasibleN

DEFAULT_EPS_CAP = 0.5
DEFAULT_GRID_POINTS = 1000

# Relative slack when comparing the error target against the inclusive cap,
# so budget splits that land on the cap up to float rounding still solve.
_CAP_SLACK = 1e-9

# The refine adds two blocklengths, and floats count exactly only below
# 2**53. From here on it walks over Python ints instead, as the scalar
# error models see them.
_FLOAT_INT_LIMIT = 2.0**52

# The refine's guard band on |z - q| * sqrt(mV), relative to the sum S of
# the magnitudes of the AWGN margin's terms: the 3 * 2**-52 * S that numpy's
# log2, one ulp off libm's, and the roundings can move z by, and 2**20 such
# ulps to spare (see ``_refine``).
_BAND = (2**20 + 3) * 2.0**-52
# Each refine pass decides m and m - 1 of a point: one row each.
_PAIR = np.array([[0], [1]])


def decoding_error_target(beta_t: float, beta_s: float) -> float:
    """Error probability that exhausts the distortion budget: (bt - bs)/(1 - bs).

    Elementwise over arrays of beta_t and beta_s.
    """
    if not np.all((0.0 <= beta_s) & (beta_s < beta_t) & (beta_t <= 1.0)):
        raise DomainError(
            "need 0 <= beta_s < beta_t <= 1, "
            f"got beta_s={brief(beta_s)}, beta_t={brief(beta_t)}"
        )
    return (beta_t - beta_s) / (1.0 - beta_s)


class BlocklengthSolution(NamedTuple):
    n: int
    n_real: float
    eps_target: float


def _admitted(family: ChannelFamily, eps, eps_cap: float):
    """Whether the solver takes these error targets; elementwise on arrays.

    A target must lie below 1, where Q^-1 is finite, and within the cap.
    The no-CSI model needs it strictly below 1/2; it is not defined at or
    beyond one half. A cap that admits no target at all is a DomainError.
    """
    if not eps_cap > 0.0:  # also NaN
        raise DomainError(f"eps_cap must be positive, got {eps_cap}")
    if family is ChannelFamily.FADING_NOCSI:
        return (0.0 < eps) & (eps < min(eps_cap, 0.5))
    return (0.0 < eps) & (eps <= eps_cap * (1.0 + _CAP_SLACK)) & (eps < 1.0)


def _n_root(rate, r, payload):
    """Positive root of n*rate - sqrt(n)*r - payload = 0, as n."""
    root = (r + np.sqrt(r * r + 4.0 * rate * payload)) / (2.0 * rate)
    return root * root


def _meets(rate, v, m, j_bits, q) -> np.ndarray:
    """Whether z(m) >= q and z(m - 1) >= q per point: the rows of a (2, points) array.

    z is ``channel._z`` on the AWGN row (rate, 1, v, j_bits); m - 1 stops at 1.
    numpy's log2 decides each comparison outside the guard band, libm's
    those inside it (see ``_refine``). Past 2**52, where blocklengths are
    Python ints, the band spans many blocklengths, so libm's decides them all.
    """
    pair = np.maximum(m - _PAIR, 1)
    row = (rate, 1, v, j_bits)
    if pair.dtype == object:
        return _z(ChannelFamily.AWGN, pair, row) >= q
    z = _z(ChannelFamily.AWGN, pair, row, np.log2)
    # The terms' magnitudes over sqrt(mV); (1/2)log2(m) < 26 below 2**52.
    band = _BAND * ((pair * rate + j_bits + 26.0) / np.sqrt(pair * v) + np.abs(q))
    near = np.abs(z - q) <= band
    ok = z >= q
    if near.any():
        j_near, q_near = (np.broadcast_to(x, pair.shape)[near] for x in (j_bits, q))
        ok[near] = _z(ChannelFamily.AWGN, pair[near], (rate, 1, v, j_near)) >= q_near
    return ok


def _refine(rate, v, n, q, j_bits, r) -> np.ndarray:
    """Smallest m in [1, n] whose exact AWGN error stays within target, per point.

    rate, v and j_bits are the solve's AWGN row, q is Q^-1 of each target and
    r = sqrt(V) * q. Q falls, so the exact error Q(z(m)) meets its target where
    z(m) >= q, with z from ``channel._z``: the refine never evaluates Q. The
    seed is two fixed-point steps of the closed form with payload
    J - log2(x)/2, from the closed-form n. Each pass decides z >= q at m and
    m - 1 of every live point (``_meets``); a point steps up where z(m) < q,
    down where z(m - 1) >= q, and stops where neither holds. Steps double
    while a point keeps its direction but stay inside its bracket of
    candidates left, halving it once both ends are probed, so every pass
    shrinks the bracket and a far seed costs a search, not a walk. The first
    pass decides on the whole arrays; only the points that move enter the
    walk. The result meets its target and m - 1 does not. Where the error
    falls as n grows, it is the smallest such m, what a bisection over
    [1, n] gives. It falls for every n >= 1 unless
    2J + 3/ln 2 < log2(1/(2C ln 2)): payloads of a bit or so at -20 dB,
    where a bisection can miss the smallest m.

    Each pass takes z from numpy's log2 first. It and the exact z share
    every operation but the logarithm. Let s = sqrt(mV) and
    S = m*C + J + (1/2)log2(m) + |q|*s, the magnitudes of the margin's
    terms. If numpy's log2 is within k ulps of libm's, the margins differ by
    at most (k + 1) * 2**-52 * S, and the division's rounding near z = q adds
    2**-52 * |q| * s; so numpy's z and the exact z fall on the same side of q
    wherever numpy's lies farther than (k + 2) * 2**-52 * S / s from it. The
    band is (2**20 + 3) * 2**-52 * S / s, with (1/2)log2(m) taken as 26, its
    bound below 2**52: numpy's log2 strays from libm's by one ulp at most on
    the integers 1 to 2,000,000 (on 100 of them), so the band leaves 2**20
    ulps of S to spare, and it holds for any k up to 2**20 + 1. Points
    outside it keep numpy's answer; points inside it get the exact one from
    ``channel._z``. Every decision, and so every n, is the exact z's. On the
    planner's 1000-point sweeps the band holds no point at all.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = n
        for _ in range(2):
            x = _n_root(rate, r, j_bits - 0.5 * np.log2(x))
        # A NaN seed starts from 1.
        m = np.fmin(np.fmax(np.ceil(x), 1.0), n)
    # Also taken for NaN, which int() refuses as math.ceil does.
    if not np.max(n, initial=0.0) < _FLOAT_INT_LIMIT:
        n, m = (np.array([int(e) for e in a.tolist()], dtype=object) for a in (n, m))
    lo, hi, step = np.ones_like(n), n.copy(), np.ones_like(n)
    ok = _meets(rate, v, m, j_bits, q)
    up, down = ~ok[0] & (m < n), ok[1] & (m > 1)
    live = np.flatnonzero(up | down)
    up, down = up[live], down[live]
    while live.size:
        a, bottom, top, d = m[live], lo[live], hi[live], step[live]
        lo[live] = bottom = np.where(up, a + 1, bottom)
        hi[live] = top = np.where(down, a - 1, top)
        mid = (bottom + top + 1) // 2
        a = np.where(up, np.minimum(a + d, mid), np.where(down, np.maximum(a - d, mid), a))
        m[live], step[live] = a, d + d
        ok = _meets(rate, v, a, j_bits[live], q[live])
        up, down = ~ok[0] & (a < top), ok[1] & (a > bottom)
        moved = up | down
        live, up, down = live[moved], up[moved], down[moved]
    return m


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
    AWGN blocklength is shrunk while that still holds, by a walk from a seed
    near the exact answer (see ``_refine``); where the exact error falls as
    n grows, this gives the smallest such n. On the fading
    families the closed-form n is already the smallest such n, because the
    ceiling's guard (1e-12 relative) is far above float noise, so ``refine``
    leaves it as it is.

    Elementwise over arrays of beta_t, beta_s and j_bits, in one numpy pass;
    each check must then hold for every element. n comes back as ints, as
    ``elementwise.to_int`` gives them.

    The no-CSI model is refused below the SNR F/(5(F - 1)), -5.2 dB at F=3
    and -7.0 dB at F=200: there its high-SNR expansion claims more
    information than a receiver with CSI gets.
    """
    eps = decoding_error_target(beta_t, beta_s)
    if not np.all(_admitted(spec.family, eps, eps_cap)):
        if spec.family is ChannelFamily.FADING_NOCSI:
            raise EpsilonOutOfRange(f"error target {brief(eps)} outside (0, {min(eps_cap, 0.5)})")
        top = f"{eps_cap}]" if eps_cap < 1.0 else "1)"
        raise EpsilonOutOfRange(f"error target {brief(eps)} outside (0, {top}")
    rate, f, v, payload = _model_row(spec.family, spec.gamma, j_bits, spec.coherence)
    if rate <= 0:
        if spec.family is ChannelFamily.FADING_NOCSI:
            name, why = "block information", "the high-SNR model does not apply"
        else:  # log2(1 + SNR) rounds to 0 below an SNR of ~1e-16, the CSI moments below ~1e-323
            name, why = "capacity", "the SNR is too low to resolve in floats"
        raise NoFeasibleN(f"{name} {rate} is not positive at SNR {spec.gamma}; {why}")
    # Below F/(5(F - 1)) the no-CSI correction F/(5 gamma) makes the block
    # information rise as the SNR falls, past the receiver-CSI capacity.
    if spec.family is ChannelFamily.FADING_NOCSI and spec.gamma < _nocsi_snr_floor(f):
        raise NoFeasibleN(
            f"SNR {spec.gamma} is below {_nocsi_snr_floor(f)}, where the block information "
            "stops rising with the SNR; the high-SNR model does not apply"
        )
    q = q_inv(eps)
    r = math.sqrt(f * v) * q
    # An infinite or NaN n fails when it becomes an int, as math.ceil does.
    with np.errstate(over="ignore", invalid="ignore"):
        n_real = _n_root(rate, r, payload)
        # The guard only absorbs float noise from the root arithmetic (a few
        # ulps), so exact-integer solutions do not get bumped up a step.
        n = np.maximum(1.0, np.ceil(n_real - 1e-12 * np.maximum(1.0, n_real)))
    if refine and spec.family is ChannelFamily.AWGN:
        args = map(np.ravel, np.broadcast_arrays(n, q, j_bits, r))
        n = _refine(rate, v, *args).reshape(np.shape(n))
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


_COLUMNS = tuple(f.name for f in fields(TradeoffPoint))


@dataclass(eq=False)
class TradeoffCurve:
    """Sweep output: one numpy column per ``TradeoffPoint`` field, one row per point.

    ``best_index`` is the row of least latency. ``hull_member`` marks the
    rows on the lower convex hull; only ``sweep_beta_t`` marks any.
    ``points`` holds the rows as ``TradeoffPoint`` objects with Python scalar
    fields, built on first access; ``best`` is taken from that same list.
    """

    beta_t: np.ndarray
    beta_s: np.ndarray
    eps_target: np.ndarray
    j_bits: np.ndarray
    n: np.ndarray
    n_real: np.ndarray
    latency_s: np.ndarray
    feasible: np.ndarray
    hull_member: np.ndarray
    best_index: int

    @cached_property
    def points(self) -> list[TradeoffPoint]:
        return list(map(TradeoffPoint, *(getattr(self, c).tolist() for c in _COLUMNS)))

    @property
    def best(self) -> TradeoffPoint:
        return self.points[self.best_index]


def beta_s_grid(
    beta_t: float,
    budget: BudgetFn,
    grid_points: int = DEFAULT_GRID_POINTS,
    grid_mode: str = "uniform",
) -> np.ndarray:
    """Source distortion grid on (lower_edge, beta_t), excluding beta_t itself.

    An array of beta_t gives one grid per budget, along the last axis.
    """
    if grid_points < 1:
        raise DomainError(f"the beta_s grid needs at least one point, got {grid_points}")
    lower = budget.lower_edge + 1e-9 if budget.lower_edge > 0 else 1e-6
    if np.any(beta_t <= lower):
        raise DomainError(
            f"beta_t={np.min(beta_t)} leaves no admissible source distortion above {lower}"
        )
    if grid_mode == "uniform":
        # np.linspace's own arithmetic, without its Python-level set-up.
        width = (np.expand_dims(beta_t, -1) if np.ndim(beta_t) else beta_t) - lower
        return np.arange(grid_points) * (width / grid_points) + lower
    if grid_mode == "log":
        return np.geomspace(lower, beta_t, grid_points, endpoint=False, axis=-1)
    raise DomainError(f"unknown grid mode {grid_mode!r}")


def _check_beta_t(beta_t):
    """Refuse total budgets outside (0, 1], NaN included, and an empty list of them."""
    budgets = np.asarray(beta_t, dtype=float)
    if not budgets.size or not np.all((0.0 < budgets) & (budgets <= 1.0)):
        raise DomainError(f"beta_t must lie in (0, 1], got {beta_t}")


def _solve_grid(beta_t, budget, spec, grid_points, grid_mode, eps_cap, refine):
    """Every point of the beta_s grids below beta_t, solved in one pass.

    beta_t is one budget or a 1-D array of them, one grid row each. Returns
    the ``TradeoffPoint`` columns but ``hull_member``, shaped as the grid,
    and the best point of each row: the first of least latency, which is
    the one of smaller beta_s, since the rows ascend. Points the solver does
    not admit stay infeasible.
    """
    grid = beta_s_grid(beta_t, budget, grid_points, grid_mode)
    column = np.expand_dims(beta_t, -1) if np.ndim(beta_t) else beta_t
    # _check_beta_t keeps 0 < beta_t <= 1 and beta_s_grid 0 < beta_s, but a
    # budget a few ulps above the grid's lower edge rounds its grid up to
    # itself. The error target refuses such a grid, as it refuses one point.
    if not (grid < column).all():
        decoding_error_target(column, grid)
    eps = (column - grid) / (1.0 - grid)
    j_bits = budget.bits_real(grid)
    ok = _admitted(spec.family, eps, eps_cap) & (j_bits > 0.0)
    if not ok.any():
        raise NoFeasibleN(f"no feasible operating point for beta_t={beta_t}")
    budgets = np.empty_like(grid)
    budgets[...] = column
    if ok.all():
        n, n_real, _ = solve_blocklength(
            spec, column, grid, j_bits, eps_cap=eps_cap, refine=refine
        )
    else:
        sol = solve_blocklength(
            spec, budgets[ok], grid[ok], j_bits[ok], eps_cap=eps_cap, refine=refine
        )
        n = np.zeros(grid.shape, dtype=sol.n.dtype)
        n[ok] = sol.n
        n_real = np.full(grid.shape, math.nan)
        n_real[ok] = sol.n_real
        eps[~ok] = j_bits[~ok] = math.nan
    # Blocklengths past 2**62 are Python ints, and their latencies Python floats.
    latency = (n / (2.0 * spec.bandwidth_hz)).astype(float, copy=False)
    latency[~ok] = math.inf
    return (budgets, grid, eps, j_bits, n, n_real, latency, ok), latency.argmin(axis=-1)


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
    feasible. A budget outside (0, 1], NaN included, is a DomainError, as
    in ``sweep_beta_t``.
    """
    _check_beta_t(beta_t)
    columns, best = _solve_grid(beta_t, budget, spec, grid_points, grid_mode, eps_cap, refine)
    return TradeoffCurve(*columns, np.zeros_like(columns[-1]), int(best))


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

    One row per budget, sorted: the best point of the beta_s grid below it,
    which ``sweep_beta_s`` would give for that budget alone. All rows are
    solved as one 2-D grid. Budgets with no feasible grid point are kept as
    infeasible placeholders; if every budget is infeasible, NoFeasibleN
    propagates.

    No budget, a budget outside (0, 1], NaN included, one at or below the
    coder's tail floor, an empty grid and a NaN or non-positive eps cap raise
    DomainError, as they do for a single budget, instead of turning into
    infeasible rows.
    """
    values = [float(bt) for bt in beta_ts]
    _check_beta_t(values)
    values = np.sort(values)
    try:
        columns, best = _solve_grid(values, budget, spec, grid_points, grid_mode, eps_cap, refine)
    except NoFeasibleN as exc:
        raise NoFeasibleN("no feasible operating point for any requested beta_t") from exc
    rows = np.arange(values.size)
    beta_t, beta_s, eps, j_bits, n, n_real, latency, feasible = (c[rows, best] for c in columns)
    beta_s[~feasible] = math.nan
    feasible_rows = np.flatnonzero(feasible)
    hull = lower_convex_hull(values[feasible_rows].tolist(), latency[feasible_rows].tolist())
    hull_member = np.zeros(values.size, bool)
    hull_member[feasible_rows[hull]] = True
    # Budgets are sorted, so the first of least latency has the smaller beta_t.
    best_row = int(np.argmin(latency))
    return TradeoffCurve(
        beta_t, beta_s, eps, j_bits, n, n_real, latency, feasible, hull_member, best_row
    )
