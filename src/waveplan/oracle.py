"""Brute-force schedule enumeration on desk-size instances.

This is the ground truth the solver is checked against: every subset of
uniform grid cells per channel (up to a switch cap), crossed over channels.
For one switch grid, cap and level set, a channel's candidates differ
between problems only in their costs, so the rest of the candidate table is
built once and kept, read-only, in a bounded cache (``_candidate_table``).
Linear objectives are scored exactly by per-cell integrals of h. Their gain
is additive over channels, and a candidate's spend depends only on its cost
class (level and number of on-cells), so channel pairs are scored by class
pair from each class's best gain, never candidate pair by candidate pair;
m = 1 is paired with a zero-cost dummy. Sigmoid
objectives are scored by the value a 256-step RK4 run of ``simulate`` would
give, without stepping candidate by candidate: in the Laplacian's
eigenbasis one RK4 step under a constant input is a diagonal affine map, so
the steps that all candidates share are composed once, mode by mode, and
every candidate applies a few of them, chosen by its cell masks. With
interior levels enabled it also serves as the falsification harness for
the bang-bang claim, testing non-extreme constant control levels against
the best extreme candidate.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds
from .costate import integrate_h, projected_coefficients
from .dynamics import objective_value
from .errors import ContractError, ValidationError, _int_fault, _real, _require
from .graph import group_support
from .problem import CampaignProblem, Prepared, prepare
from .waterfill import BangBangSchedule, ChannelSchedule

MAX_CANDIDATES = 2_000_000
# RK4 steps per sigmoid candidate. The reported value is that of
# simulate(problem, schedule, steps=SIGMOID_STEPS), up to rounding: the
# candidates compose that run's steps in the eigenbasis instead of stepping it.
SIGMOID_STEPS = 256
# Sigmoid candidates scored together; bounds the scoring's working arrays.
_SCORE_ROWS = 4096
# Uniform samples of [0, T] over which grid_slack takes max |h_i(t)|.
SLACK_SAMPLES = 1024
# Interior levels of the structure falsification mode (``--interior``), as fractions of u_max.
INTERIOR_LEVELS = (0.75, 0.5, 0.25)


@dataclass(frozen=True)
class EnumerationSpec:
    """Candidate family: uniform switch grid, per-channel switch cap, interior levels.

    ``switch_grid`` and ``max_switches_per_channel`` are integers, not
    bools; a cap of None takes each channel's spectral-support bound.
    Interior levels, each strictly inside (0, 1), put the channel at that
    fraction of u_max while on (structure falsification mode, e.g.
    ``INTERIOR_LEVELS``); none, the default, enumerates the extreme level only.
    """

    switch_grid: int
    max_switches_per_channel: int | None = None
    interior_levels: tuple[float, ...] = ()


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


def _mask_count(g: int, cap: int) -> int:
    """Rows of ``_masks_in_lex_order(g, cap)``: 2 C(g - 1, s) patterns have exactly s boundaries."""
    return 2 * sum(math.comb(g - 1, s) for s in range(g) if s <= cap)


class _CandidateTable(NamedTuple):
    """A channel's candidates for one (switch_grid, cap, levels), all but their costs; read-only."""

    masks: np.ndarray  # cell patterns, from _masks_in_lex_order
    on_cells: np.ndarray  # on-cell count of each pattern
    levels: np.ndarray  # fraction of u_max while on, per candidate
    interior: np.ndarray  # on somewhere at an interior level
    mask_of: np.ndarray  # row in masks
    classes: np.ndarray  # on-cell count x level count + level index


# Candidate tables kept for reuse, keyed (switch_grid, cap, levels). Once
# they hold more than this many bytes, the least recently used are dropped;
# a table larger than this is built for its call and not kept.
_TABLE_CACHE_BYTES = 32 << 20
_tables: OrderedDict = OrderedDict()
_tables_lock = threading.Lock()


def _candidate_table(g: int, cap: int, levels: tuple[float, ...]) -> _CandidateTable:
    """The candidate table for g cells, at most cap switches and these levels, built once and cached.

    Candidates run mask-major with the levels in the given order, the
    extreme level 1.0 first.
    """
    key = (g, cap, levels)
    with _tables_lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
            return table
    masks = _masks_in_lex_order(g, cap)
    rows, count = masks.shape[0], len(levels)
    level = np.array(levels)
    on_cells = masks.sum(axis=1)
    table = _CandidateTable(
        masks=masks,
        on_cells=on_cells,
        levels=np.tile(level, rows),
        # An interior level only matters when the channel is on somewhere.
        interior=(np.repeat(on_cells, count) > 0) & np.tile(level < 1.0, rows),
        mask_of=np.repeat(np.arange(rows), count),
        classes=(on_cells.astype(np.intp)[:, None] * count + np.arange(count)).ravel(),
    )
    for arr in table:
        arr.setflags(write=False)
    size = sum(arr.nbytes for arr in table)
    if size <= _TABLE_CACHE_BYTES:
        with _tables_lock:
            _tables[key] = table
            held = sum(arr.nbytes for t in _tables.values() for arr in t)
            while held > _TABLE_CACHE_BYTES:
                held -= sum(arr.nbytes for arr in _tables.popitem(last=False)[1])
    return table


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


def grid_slack(problem: CampaignProblem | Prepared, switch_grid: int) -> float:
    """Discretization slack estimate: max_i u_max_i * max_t |h_i(t)| * (T / switch_grid).

    It is not a proven bound on the gap between the optimum and the best
    grid schedule: the formula has no proof, and max_t |h_i| is itself
    sampled, at ``SLACK_SAMPLES`` uniform times, every channel at once from
    its row of group coefficients, so a peak between samples is missed.
    """
    prep = prepare(problem)
    problem, sd = prep.problem, prep.sd
    _require(ContractError, _int_fault(switch_grid, "switch_grid", 2, 16))
    T = problem.T
    coeffs = projected_coefficients(sd, problem.objective.p, prep.gains)
    modes = np.exp(np.multiply.outer(np.linspace(0.0, T, SLACK_SAMPLES) - T, sd.group_rates))
    u_max = np.array([ch.u_max for ch in problem.channels])
    return float(np.max(u_max * np.max(np.abs(modes @ coeffs.T), axis=0))) * T / switch_grid


def enumerate_best(problem: CampaignProblem | Prepared, spec: EnumerationSpec) -> OracleResult:
    """Exhaustively score every candidate schedule and return the argmax.

    Linear objectives are scored by the exact closed-form gain (per-cell
    integrals of h); the sigmoid objective by its value after a
    ``SIGMOID_STEPS`` RK4 run, from RK4 maps composed mode by mode. Budget-
    infeasible candidates are discarded. Ties break lexicographically on the
    joint cell-indicator encoding (extreme level before interior levels), so
    concurrent and sequential runs agree exactly. An invalid problem raises
    ValidationError.

    Linear candidates are combined by cost class (level, on-cell count):
    every candidate of a class has the same spend and interior flag, so the
    best pair, the feasible count and the extreme and interior bests come
    from the best gain and the size of each class. Rounded addition is
    monotone, so the best class-pair sum is the best candidate-pair sum, and
    ``_best_pair`` recovers the first maximising candidate pair in product
    order, including a row whose gain is below its class's best but whose
    rounded sum still reaches the best value.
    """
    prep = prepare(problem)
    problem, sd = prep.problem, prep.sd
    n, m = problem.n, problem.m
    if n > 8 or m > 2:
        raise ContractError(f"enumeration is desk-scale only: n <= 8 and m <= 2, got n={n}, m={m}")
    g = spec.switch_grid
    cap = spec.max_switches_per_channel
    _require(ContractError, _int_fault(g, "switch_grid", 2, 16))
    _require(ContractError, None if cap is None else _int_fault(cap, "switch cap", 0))
    if any(not (0.0 < (_real(lvl) or 0.0) < 1.0) for lvl in spec.interior_levels):
        raise ContractError(f"interior levels must lie strictly inside (0, 1), got {spec.interior_levels}")

    T = problem.T
    edges = np.linspace(0.0, T, g + 1)
    delta = T / g

    levels = (1.0,) + tuple(map(float, spec.interior_levels))
    if cap is None:
        caps = [bounds.support_bound(k) for k in group_support(sd, prep.gains).sum(axis=1)]
    else:
        caps = [cap] * m
    candidate_count = 1
    for cap in caps:
        candidate_count *= _mask_count(g, cap) * len(levels)
    if candidate_count > MAX_CANDIDATES:
        raise ValidationError(
            f"{candidate_count} candidates exceed the enumeration guard of {MAX_CANDIDATES}; "
            f"use a smaller switch_grid than {g} or a tighter switch cap"
        )

    # Per-channel flattened candidates: the cached table and each candidate's spend over the horizon.
    tables = [_candidate_table(g, cap, levels) for cap in caps]
    costs = []
    for t, ch in zip(tables, problem.channels):
        rates = np.array([ch.cost(lvl * ch.u_max) for lvl in levels])
        costs.append(np.multiply.outer(t.on_cells, rates * delta).ravel())

    budget = problem.r + 1e-9 * max(1.0, problem.r)

    if problem.objective.kind == "linear":
        coeffs = projected_coefficients(sd, problem.objective.p, prep.gains)
        scored = []
        for k, ch in enumerate(problem.channels):
            cell_gain = ch.u_max * integrate_h(sd.group_rates, coeffs[k], T, edges[:-1], edges[1:])
            t = tables[k]
            scored.append(((t.masks @ cell_gain)[t.mask_of] * t.levels, t.classes, costs[k], t.interior))
        if m == 1:
            # -0.0 is the exact additive identity, so the pair sums are channel 1's own values and costs.
            scored.append((np.array([-0.0]), np.zeros(1, dtype=np.intp), np.array([-0.0]), np.zeros(1, dtype=bool)))
        best = _best_pair(scored, budget)
    else:
        best = _enumerate_sigmoid(prep, tables, costs, edges, budget)

    best_idx, best_val, feasible, best_extreme, best_interior = best
    best_idx = best_idx[:m]
    return OracleResult(
        value=best_val,
        schedule=_schedule_from_indices(problem, tables, edges, best_idx),
        spend=float(sum(costs[k][best_idx[k]] for k in range(m))),
        feasible_count=feasible,
        candidate_count=candidate_count,
        best_extreme_value=best_extreme,
        best_interior_value=best_interior if len(levels) > 1 else None,
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


def _schedule_from_indices(problem, tables, edges, idx) -> BangBangSchedule:
    channels = []
    for k, ch in enumerate(problem.channels):
        t = tables[k]
        bits = t.masks[int(t.mask_of[idx[k]])]
        channels.append(
            ChannelSchedule(
                u_max=float(t.levels[idx[k]]) * ch.u_max,
                intervals=_mask_to_intervals(bits, edges),
            )
        )
    return BangBangSchedule(channels=tuple(channels))


def _segment_maps(prep: Prepared, edges: np.ndarray):
    """Modal RK4 maps of the segments that the sigmoid candidates step through.

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
    With L = V diag(rate) V^T, an RK4 step of length h under a constant
    input c maps mode j as y -> R(z) y + h S(z) (V^T c)_j, z = -h rate_j,
    S(z) = 1 + z/2 + z^2/6 + z^3/24, R(z) = 1 + z S(z). So a segment's map
    is y -> phi y + rho (V^T B u) + d, with u the controls in its cell, and
    its three vectors compose elementwise. Returns [phi, rho, d] per
    segment, each segment's cell, the number ``count`` of fixed segments,
    the optional edges (indices into ``edges[1:-1]``) and the segment of
    each one's [a, b].
    """
    problem, sd = prep.problem, prep.sd
    T, g = problem.T, edges.size - 1
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

    # Every piece's step, mode by mode.
    rates = sd.mode_rates
    h = (hi - lo)[:, None]
    z = -h * rates
    hs = h * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    drift = (problem.drift.values @ sd.vectors)[problem.drift.piece(mids)]
    maps = np.stack([1.0 - rates * hs, hs, hs * drift])

    # Compose each segment's steps by doubling: after the pass with shift s,
    # a piece holds the map of up to 2s pieces of its segment ending with it.
    shift = 1
    while shift <= position.max():
        later = maps[:, shift:]
        composed = maps[:, :-shift] * later[0]
        composed[1:] += later[1:]
        maps[:, shift:] = np.where(position[shift:, None] >= shift, composed, later)
        shift *= 2
    last = np.flatnonzero(np.append(segment[1:] != segment[:-1], True))
    return maps[:, last], cells, count, optional, fixed_segment[merged]


def _score_sigmoid(prep: Prepared, edges, tables, feasible) -> np.ndarray:
    """Sigmoid objective of each feasible candidate after its ``SIGMOID_STEPS`` RK4 run.

    ``feasible`` holds one index array per channel. A candidate's terminal
    state is its stepped RK4 state up to rounding: from V^T x0 its modal
    state walks the segment maps of ``_segment_maps`` in time order and, at
    each optional edge, takes [a, e] then [e, b] where one of its channels
    switches and [a, b] where none does. Controls are laid out cell-major,
    so a segment reads one contiguous block. Candidates are scored in blocks
    of ``_SCORE_ROWS``.
    """
    problem, sd = prep.problem, prep.sd
    (phi, rho, drift), cells, count, optional, merged = _segment_maps(prep, edges)
    responses = rho[:, None, :] * prep.gains.coords
    start = problem.x0 @ sd.vectors
    optional_at = {int(s): j for j, s in enumerate(merged)}
    masks = [t.masks for t in tables]
    switches = [mk[:, 1:] != mk[:, :-1] for mk in masks]
    scale = [t.levels * ch.u_max for t, ch in zip(tables, problem.channels)]
    values = np.empty(feasible[0].size)
    for lo in range(0, values.size, _SCORE_ROWS):
        rows = [f[lo : lo + _SCORE_ROWS] for f in feasible]
        mask_rows = [t.mask_of[r] for t, r in zip(tables, rows)]
        u = np.stack([mk[i].T * sc[r] for mk, i, sc, r in zip(masks, mask_rows, scale, rows)], axis=1)
        split = np.logical_or.reduce([sw[i][:, optional] for sw, i in zip(switches, mask_rows)])

        def advance(y, s):
            return y * phi[s] + u[cells[s]].T @ responses[s] + drift[s]

        y = start
        for s in range(count):
            j = optional_at.get(s)
            if j is None:
                y = advance(y, s)
            else:
                both = advance(advance(y, count + j), count + optional.size + j)
                y = np.where(split[:, j, None], both, advance(y, s))
        x = y @ sd.vectors.T
        values[lo : lo + rows[0].size] = objective_value(problem.objective, x)
    return values


def _enumerate_sigmoid(prep: Prepared, tables, costs, edges, budget):
    """Map-scored enumeration: every feasible candidate's value after a 256-step RK4 run.

    Returns what ``_best_pair`` returns, over every channel. Spends
    broadcast over channels in the order of additions of a running sum;
    ``np.nonzero`` lists the feasible candidates in row-major order, which
    is ``product`` order, so the first of equal values wins as in the
    linear branch.
    """
    spends = sum(np.ix_(*costs))
    feasible = np.nonzero(spends <= budget)
    values = _score_sigmoid(prep, edges, tables, feasible)
    interior = np.logical_or.reduce([t.interior[f] for t, f in zip(tables, feasible)])
    best = int(np.argmax(values))
    return (
        tuple(int(f[best]) for f in feasible),
        float(values[best]),
        int(feasible[0].size),
        float(np.max(values[~interior], initial=-np.inf)),
        float(np.max(values[interior], initial=-np.inf)),
    )
