"""Brute-force schedule enumeration on desk-size instances.

This is the ground truth the solver is checked against: every subset of
uniform grid cells per channel (up to a switch cap), crossed over channels.
Linear objectives are scored exactly by per-cell integrals of h. Their gain
is additive over channels, and a candidate's spend depends only on its cost
class (level and number of on-cells), so channel pairs are scored by class
pair from each class's best gain, never candidate pair by candidate pair;
m = 1 is paired with a zero-cost dummy. Sigmoid
objectives are scored by the value a 256-step RK4 run of ``simulate`` would
give, without stepping candidate by candidate: one RK4 step of the linear
dynamics under a constant input is an exact affine map, so the steps that
all candidates share are composed once into maps of the state and of each
cell's control, and every candidate applies a few of them, chosen by its
cell masks. With interior levels enabled it also serves as the
falsification harness for the bang-bang claim, testing non-extreme constant
control levels against the best extreme candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import bound_general
from .costate import TerminalCostate, _stable_sigmoid, channel_profile, eval_h, integrate_h
from .dynamics import _rk4_step_maps
from .errors import ContractError, ValidationError
from .graph import build_laplacian, spectral_decompose
from .problem import CampaignProblem
from .waterfill import BangBangSchedule, ChannelSchedule

MAX_CANDIDATES = 2_000_000
# RK4 steps per sigmoid candidate. The reported value is that of
# simulate(problem, schedule, steps=SIGMOID_STEPS), up to rounding: the
# candidates compose that run's step maps instead of stepping it.
SIGMOID_STEPS = 256
# Sigmoid candidates scored together; bounds the scoring's working arrays.
_SCORE_ROWS = 4096


@dataclass(frozen=True)
class EnumerationSpec:
    """Candidate family: uniform switch grid, per-channel switch cap, optional interior levels.

    ``max_switches_per_channel`` of None takes each channel's spectral-support
    bound. Interior levels put the channel at the stated fraction of u_max
    while on (structure falsification mode).
    """

    switch_grid: int
    max_switches_per_channel: int | None = None
    include_interior_levels: bool = False
    interior_levels: tuple[float, ...] = (0.75, 0.5, 0.25)


class _ChannelCandidates(NamedTuple):
    """One channel's candidates, mask-major with the extreme level first."""

    levels: np.ndarray  # fraction of u_max while on
    costs: np.ndarray  # spend over the horizon
    interior: np.ndarray  # on somewhere at an interior level
    mask_of: np.ndarray  # row in the channel's mask table
    classes: np.ndarray  # cost class, on-cell count x level count + level index


@dataclass(frozen=True)
class OracleResult:
    value: float
    schedule: BangBangSchedule
    spend: float
    feasible_count: int
    candidate_count: int
    best_extreme_value: float
    best_interior_value: float | None


def _masks_in_lex_order(g: int, cap: int) -> np.ndarray:
    """All 0/1 cell patterns with at most ``cap`` internal on/off boundaries.

    Rows are ordered lexicographically on the cell-indicator tuple, which is
    what the deterministic tie-break keys on.
    """
    # Cells run down the rows here, so the switch count sums whole rows.
    bits = (np.arange(2**g) >> np.arange(g - 1, -1, -1)[:, None]) & 1
    switches = np.sum(bits[1:] != bits[:-1], axis=0)
    return bits[:, switches <= cap].T.astype(np.float64, order="C")


def _mask_to_intervals(bits: np.ndarray, edges: np.ndarray) -> tuple[tuple[float, float], ...]:
    intervals = []
    start = None
    for c, on in enumerate(bits):
        if on and start is None:
            start = edges[c]
        elif not on and start is not None:
            intervals.append((float(start), float(edges[c])))
            start = None
    if start is not None:
        intervals.append((float(start), float(edges[-1])))
    return tuple(intervals)


def grid_slack(problem: CampaignProblem, switch_grid: int, sample_points: int = 1024) -> float:
    """Discretization slack bound: max_i u_max_i * max_t |h_i(t)| * (T / switch_grid)."""
    sd = spectral_decompose(build_laplacian(problem.graph))
    lam = problem.objective.p
    ts = np.linspace(0.0, problem.T, sample_points)
    worst = 0.0
    for ch in problem.channels:
        profile = channel_profile(sd, TerminalCostate(lam=lam), ch.b, problem.T)
        worst = max(worst, ch.u_max * float(np.max(np.abs(eval_h(profile, ts)))))
    return worst * problem.T / switch_grid


def enumerate_best(problem: CampaignProblem, spec: EnumerationSpec) -> OracleResult:
    """Exhaustively score every candidate schedule and return the argmax.

    Linear objectives are scored by the exact closed-form gain (per-cell
    integrals of h); the sigmoid objective by its value after a
    ``SIGMOID_STEPS`` RK4 run, from composed RK4 transfer maps. Budget-
    infeasible candidates are discarded. Ties break lexicographically on the
    joint cell-indicator encoding (extreme level before interior levels), so
    concurrent and sequential runs agree exactly.

    Linear candidates are combined by cost class (level, on-cell count):
    every candidate of a class has the same spend and interior flag, so the
    best pair, the feasible count and the extreme and interior bests come
    from the best gain and the size of each class. Rounded addition is
    monotone, so the best class-pair sum is the best candidate-pair sum, and
    ``_best_pair`` recovers the first maximising candidate pair in product
    order, including a row whose gain is below its class's best but whose
    rounded sum still reaches the best value.
    """
    n, m = problem.n, problem.m
    if n > 8 or m > 2:
        raise ContractError(f"enumeration is desk-scale only: n <= 8 and m <= 2, got n={n}, m={m}")
    g = spec.switch_grid
    if not (2 <= g <= 16):
        raise ContractError(f"switch_grid must lie in [2, 16], got {g}")
    if spec.max_switches_per_channel is not None and spec.max_switches_per_channel < 0:
        raise ContractError(f"switch cap must be nonnegative, got {spec.max_switches_per_channel}")
    if any(not (0.0 < lvl < 1.0) for lvl in spec.interior_levels):
        raise ContractError(f"interior levels must lie strictly inside (0, 1), got {spec.interior_levels}")

    T = problem.T
    edges = np.linspace(0.0, T, g + 1)
    delta = T / g
    linear = problem.objective.kind == "linear"
    # Only the linear cell gains and the default switch caps need the spectrum.
    sd = None
    if linear or spec.max_switches_per_channel is None:
        sd = spectral_decompose(build_laplacian(problem.graph))

    levels = np.array((1.0,) + (tuple(spec.interior_levels) if spec.include_interior_levels else ()))
    masks = []
    for ch in problem.channels:
        cap = spec.max_switches_per_channel
        if cap is None:
            cap = bound_general(sd, ch.b)
        masks.append(_masks_in_lex_order(g, cap))

    candidate_count = 1
    for mk in masks:
        candidate_count *= mk.shape[0] * levels.size
    if candidate_count > MAX_CANDIDATES:
        raise ValidationError(
            f"{candidate_count} candidates exceed the enumeration guard of {MAX_CANDIDATES}; "
            f"use a smaller switch_grid than {g} or a tighter switch cap"
        )

    # Per-channel flattened candidates: mask-major, extreme level first.
    per_channel = []
    for k, ch in enumerate(problem.channels):
        rows = masks[k].shape[0]
        on_cells = masks[k].sum(axis=1)
        on_counts = np.repeat(on_cells, levels.size)
        rates = np.array([ch.cost(lvl * ch.u_max) for lvl in levels])
        per_channel.append(
            _ChannelCandidates(
                levels=np.tile(levels, rows),
                costs=np.tile(rates * delta, rows) * on_counts,
                # An interior level only matters when the channel is on somewhere.
                interior=(on_counts > 0) & np.tile(levels < 1.0, rows),
                mask_of=np.repeat(np.arange(rows), levels.size),
                classes=(on_cells.astype(np.intp)[:, None] * levels.size + np.arange(levels.size)).ravel(),
            )
        )

    budget = problem.r + 1e-9 * max(1.0, problem.r)

    if not linear:
        return _enumerate_sigmoid(problem, spec, masks, per_channel, edges, budget)

    lamT = TerminalCostate(lam=problem.objective.p)
    scored = []
    for k, ch in enumerate(problem.channels):
        profile = channel_profile(sd, lamT, ch.b, T)
        cell_gain = ch.u_max * integrate_h(profile, edges[:-1], edges[1:])
        pc = per_channel[k]
        scored.append(((masks[k] @ cell_gain)[pc.mask_of] * pc.levels, pc.classes, pc.costs, pc.interior))
    if m == 1:
        # -0.0 is the exact additive identity, so the pair sums are channel 1's own values and costs.
        scored.append((np.array([-0.0]), np.zeros(1, dtype=np.intp), np.array([-0.0]), np.zeros(1, dtype=bool)))

    best_idx, best_val, feasible, best_extreme, best_interior = _best_pair(scored, budget)
    if feasible == 0:
        raise ValidationError("no feasible candidate; even the all-off schedule failed the budget")
    best_idx = best_idx[:m]

    schedule = _schedule_from_indices(problem, masks, per_channel, edges, best_idx)
    spend = float(
        sum(per_channel[k].costs[best_idx[k]] for k in range(m))
    )
    return OracleResult(
        value=best_val,
        schedule=schedule,
        spend=spend,
        feasible_count=feasible,
        candidate_count=candidate_count,
        best_extreme_value=best_extreme,
        best_interior_value=best_interior if spec.include_interior_levels else None,
    )


def _best_pair(channels, budget):
    """The best budget-feasible pair of two channels' candidates, found by cost class.

    ``channels`` holds two (gains, classes, costs, interior) tuples of
    per-candidate arrays; candidates of one class share their cost and
    interior flag. Pairs are scored over class pairs: fl(v1 + v2) is monotone
    in each argument, so the best sum over the candidates of classes a and b
    is fl(M1[a] + M2[b]) with M the best gain per class. The first maximiser
    in product order is then the first row i with fl(v1[i] + F2[a]) equal to
    the best value, F2[a] being the best feasible partner class maximum of
    i's class a, and in that row the first feasible j with fl(v1[i] + v2[j])
    equal to it; rows below their class maximum that round up to the best
    value are found this way too.

    Returns the pair (i, j), the best value, the number of feasible pairs and
    the best values over pairs with no interior class and with at least one
    (-inf when there are none).
    """
    tables = []
    for gains, classes, costs, interior in channels:
        size = np.bincount(classes)
        best = np.full(size.size, -np.inf)
        np.maximum.at(best, classes, gains)
        cost = np.zeros(size.size)
        cost[classes] = costs
        inner = np.zeros(size.size, dtype=bool)
        inner[classes] = interior
        tables.append((size, best, cost, inner))
    (size1, best1, cost1, inner1), (size2, best2, cost2, inner2) = tables
    # A class with no candidates has size 0 and best -inf, so it neither counts nor wins.
    ok = cost1[:, None] + cost2 <= budget
    totals = np.where(ok, best1[:, None] + best2, -np.inf)
    mixed = inner1[:, None] | inner2
    value = float(totals.max())
    partner = np.where(ok, best2, -np.inf).max(axis=1)
    (v1, k1, _, _), (v2, k2, _, _) = channels
    i = int(np.argmax(v1 + partner[k1] == value))
    j = int(np.argmax((v1[i] + v2 == value) & ok[k1[i]][k2]))
    return (
        (i, j),
        value,
        int(size1 @ ok @ size2),
        float(np.where(mixed, -np.inf, totals).max()),
        float(np.where(mixed, totals, -np.inf).max()),
    )


def _schedule_from_indices(problem, masks, per_channel, edges, idx) -> BangBangSchedule:
    channels = []
    for k, ch in enumerate(problem.channels):
        pc = per_channel[k]
        bits = masks[k][int(pc.mask_of[idx[k]])]
        channels.append(
            ChannelSchedule(
                u_max=float(pc.levels[idx[k]]) * ch.u_max,
                intervals=_mask_to_intervals(bits, edges),
            )
        )
    return BangBangSchedule(channels=tuple(channels))


def _segment_maps(problem: CampaignProblem, edges: np.ndarray):
    """Composed RK4 maps of the segments that the sigmoid candidates step through.

    A candidate's ``simulate`` grid is the fixed nodes (``SIGMOID_STEPS``
    uniform steps and the drift breakpoints in (0, T)) plus the inner cell
    edges where one of its channels switches. An inner edge e that is not a
    fixed node is optional: a candidate steps either [a, e] and [e, b],
    between e's fixed neighbours a and b, or the one piece [a, b]. Cells
    span at least 16 uniform steps, so optional edges never share a
    neighbour, and every other piece is stepped alike by all candidates.

    Segments are runs of pieces inside one cell: the fixed pieces cut at
    every inner edge and around every [a, b], then [a, e] and [e, b] for
    each optional edge j as segments ``count + j`` and ``count + q + j``.
    Each segment's map x -> x @ phi + sum_k u_k w_k + d, with u_k channel
    k's control in the segment's cell, is composed pairwise from RK4 step
    maps. Returns the stacked maps [phi; w_1..w_m; d] per segment, each
    segment's cell, the number ``count`` of fixed segments, the optional
    edges (indices into ``edges[1:-1]``) and the segment of each one's [a, b].
    """
    T, g, n, m = problem.T, edges.size - 1, problem.n, problem.m
    bps = problem.drift.breakpoints
    fixed = np.unique(
        np.concatenate([np.linspace(0.0, T, SIGMOID_STEPS + 1), bps[(bps > 0.0) & (bps < T)]])
    )
    inner = edges[1:-1]
    optional = np.flatnonzero(~np.isin(inner, fixed))
    q = optional.size
    merged = np.searchsorted(fixed, inner[optional]) - 1  # fixed piece [a, b] of each edge
    starts = np.isin(fixed[:-1], inner)
    starts[0] = True
    starts[merged] = True
    starts[merged + 1] = True
    fixed_segment = np.cumsum(starts) - 1
    count = int(fixed_segment[-1]) + 1
    first = np.flatnonzero(starts)

    lo = np.concatenate([fixed[:-1], fixed[merged], inner[optional]])
    hi = np.concatenate([fixed[1:], inner[optional], fixed[merged + 1]])
    segment = np.concatenate([fixed_segment, count + np.arange(2 * q)])
    position = np.concatenate([np.arange(fixed.size - 1) - first[fixed_segment], np.zeros(2 * q, int)])
    mids = 0.5 * (lo + hi)
    cells = np.empty(count + 2 * q, dtype=int)
    cells[segment] = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, g - 1)

    # One step map per distinct (length, drift value), with the channels' b and the drift as inputs.
    lengths, length_of = np.unique(hi - lo, return_inverse=True)
    pieces = problem.drift.values.shape[0]
    keys, step_of = np.unique(length_of * pieces + problem.drift.piece(mids), return_inverse=True)
    inputs = np.empty((keys.size, m + 1, n))
    inputs[:, :m] = np.array([ch.b for ch in problem.channels])
    inputs[:, m] = problem.drift.values[keys % pieces]
    steps = _rk4_step_maps(-build_laplacian(problem.graph).matrix, lengths[keys // pieces], inputs)

    # Compose each segment's steps pairwise, padded with identity maps.
    identity = np.zeros((n + m + 1, n))
    identity[:n] = np.eye(n)
    maps = np.tile(identity, (count + 2 * q, int(np.max(position)) + 1, 1, 1))
    maps[segment, position] = steps[step_of]
    while maps.shape[1] > 1:
        if maps.shape[1] % 2:
            maps = np.concatenate([maps, np.tile(identity, (maps.shape[0], 1, 1, 1))], axis=1)
        head, tail = maps[:, 0::2], maps[:, 1::2]
        maps = head @ tail[:, :, :n]
        maps[:, :, n:] += tail[:, :, n:]
    return maps[:, 0], cells, count, optional, fixed_segment[merged]


def _score_sigmoid(problem, edges, masks, per_channel, feasible) -> np.ndarray:
    """Sigmoid objective of each feasible candidate after its ``SIGMOID_STEPS`` RK4 run.

    ``feasible`` holds one index array per channel. A candidate's terminal
    state is its stepped RK4 state up to rounding: it walks the segment
    maps of ``_segment_maps`` in time order and, at each optional edge,
    takes [a, e] then [e, b] where one of its channels switches and [a, b]
    where none does. Candidates are scored in blocks of ``_SCORE_ROWS``.
    """
    n, m = problem.n, problem.m
    maps, cells, count, optional, merged = _segment_maps(problem, edges)
    optional_at = {int(s): j for j, s in enumerate(merged)}
    switches = [mk[:, 1:] != mk[:, :-1] for mk in masks]
    scale = [pc.levels * ch.u_max for pc, ch in zip(per_channel, problem.channels)]
    obj = problem.objective
    values = np.empty(feasible[0].size)
    for lo in range(0, values.size, _SCORE_ROWS):
        rows = [f[lo : lo + _SCORE_ROWS] for f in feasible]
        mask_rows = [pc.mask_of[r] for pc, r in zip(per_channel, rows)]
        u = [mk[i] * sc[r][:, None] for mk, i, sc, r in zip(masks, mask_rows, scale, rows)]
        split = np.logical_or.reduce([sw[i][:, optional] for sw, i in zip(switches, mask_rows)])

        def advance(x, s):
            out = x @ maps[s, :n]
            for k in range(m):
                out = out + u[k][:, cells[s], None] * maps[s, n + k]
            return out + maps[s, n + m]

        x = problem.x0
        for s in range(count):
            j = optional_at.get(s)
            if j is None:
                x = advance(x, s)
            else:
                both = advance(advance(x, count + j), count + optional.size + j)
                x = np.where(split[:, j, None], both, advance(x, s))
        values[lo : lo + rows[0].size] = np.sum(
            obj.p * _stable_sigmoid(obj.alpha * (x - obj.theta)), axis=1
        )
    return values


def _enumerate_sigmoid(problem, spec, masks, per_channel, edges, budget) -> OracleResult:
    """Map-scored enumeration: every feasible candidate's value after a 256-step RK4 run.

    Spends broadcast over channels in the order of additions of a running
    sum; ``np.nonzero`` lists the feasible candidates in row-major order,
    which is ``product`` order, so the first of equal values wins as in the
    linear branch.
    """
    m = problem.m
    candidate_count = int(np.prod([pc.costs.size for pc in per_channel]))
    spends = sum(np.ix_(*(pc.costs for pc in per_channel)))
    feasible = np.nonzero(spends <= budget)
    if feasible[0].size == 0:
        raise ValidationError("no feasible candidate; even the all-off schedule failed the budget")
    values = _score_sigmoid(problem, edges, masks, per_channel, feasible)
    interior = np.logical_or.reduce([pc.interior[f] for pc, f in zip(per_channel, feasible)])

    best = int(np.argmax(values))
    best_idx = tuple(int(f[best]) for f in feasible)
    best_interior = None
    if spec.include_interior_levels:
        best_interior = float(np.max(values[interior], initial=-np.inf))
    return OracleResult(
        value=float(values[best]),
        schedule=_schedule_from_indices(problem, masks, per_channel, edges, best_idx),
        spend=float(sum(per_channel[k].costs[best_idx[k]] for k in range(m))),
        feasible_count=int(feasible[0].size),
        candidate_count=candidate_count,
        best_extreme_value=float(np.max(values[~interior], initial=-np.inf)),
        best_interior_value=best_interior,
    )
