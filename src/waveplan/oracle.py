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
eigenbasis one RK4 step under a constant input is a diagonal affine map.
The steps come from ``simulate``'s own node rule (``dynamics._nodes``), and
each cell's core, the run of steps that every candidate takes alike, is
composed once, mode by mode. A candidate walks the cores and, at each cell
edge that is not a node, steps across the edge in one piece or in two, as
its cell masks say. With interior levels enabled it also serves as the
falsification harness for the bang-bang claim, testing non-extreme
constant control levels against the best extreme candidate.

``grid_slack`` bounds, from one certified solve, how far the default-cap
oracle may fall below the optimum: the optimal schedule rounded inward to
the grid is one of its candidates, and the rounding loses a proven amount
next to each switch. So the solver and the oracle agree within it both ways.
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
from .dynamics import _grid, _nodes, objective_value
from .errors import ContractError, ValidationError, _int_fault, _real, _require
from .graph import group_support
from .problem import CampaignProblem, Prepared, prepare
from .waterfill import BangBangSchedule, ChannelSchedule, _certified, _schedule

MAX_CANDIDATES = 2_000_000
# RK4 steps per sigmoid candidate. The reported value is that of
# simulate(problem, schedule, steps=SIGMOID_STEPS), up to rounding: the
# candidates compose that run's steps in the eigenbasis instead of stepping it.
SIGMOID_STEPS = 256
# Sigmoid candidates scored together; bounds the scoring's working arrays.
_SCORE_ROWS = 4096
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


def grid_slack(problem: CampaignProblem | Prepared, switch_grid: int) -> float:
    """A proven bound on the optimum minus the default-cap oracle value on ``switch_grid`` cells.

    Rounding the on-intervals of one certified solve inward to the cells
    they contain gives a candidate that the default cap, or any cap at least
    each channel's realized switches, admits. Next to each switch t_s in
    (0, T) of channel k it loses at most Delta (beta* q_k + u_max_k
    (Delta / 2) H'_k(min(t_s + Delta, T))), with Delta = T / switch_grid,
    q_k = c_k(u_max_k) and H'_k(t) = sum_g |d_kg| rate_g exp(rate_g (t - T))
    from the solve's row d_k of group coefficients. A channel over its
    support bound is turned off instead and adds its whole gain. For the
    rounding of the gain and the oracle value, the slack adds 2 (N + 5 +
    rate_max T) eps M, with N = m (switch_grid + G)(G + 1) and M = sum_k
    u_max_k sum_g |d_kg| T (proofs in ``PAPER.md``, "Grid slack"). The
    objective must be linear; any other kind raises ContractError.
    """
    prep = prepare(problem)
    problem = prep.problem
    _require(ContractError, _int_fault(switch_grid, "switch_grid", 2, 16))
    if problem.objective.kind != "linear":
        raise ContractError("grid_slack requires the linear objective, whose optimum the water level gives")
    coeffs, *draft = _schedule(prep, problem.objective.p)
    sol = _certified(prep, coeffs, *draft)
    T, rates = problem.T, prep.sd.group_rates
    delta = T / switch_grid
    slack = 0.0
    for ch, row, cs, cert in zip(problem.channels, coeffs, sol.schedule.channels, sol.certificate):
        if cert.realized_switches > cert.bound_general:
            lo, hi = zip(*cs.intervals)
            slack += ch.u_max * float(np.sum(integrate_h(rates, row, T, lo, hi)))
            continue
        switches = np.array([t for iv in cs.intervals for t in iv if 0.0 < t < T])
        slope = np.exp(np.multiply.outer(np.minimum(switches + delta, T) - T, rates)) @ (np.abs(row) * rates)
        slack += float(np.sum(delta * (sol.beta_star * ch.max_cost_rate + ch.u_max * 0.5 * delta * slope)))
    size = T * float(sum(ch.u_max * np.abs(row).sum() for ch, row in zip(problem.channels, coeffs)))
    products = problem.m * (switch_grid + rates.size) * (rates.size + 1)
    return slack + 2.0 * (products + 5.0 + float(rates[-1]) * T) * float(np.finfo(float).eps) * size


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
    try:
        interior = tuple(map(_real, spec.interior_levels))
    except TypeError:
        interior = (None,)
    if not all(0.0 < (lvl or 0.0) < 1.0 for lvl in interior) or len(set(interior)) < len(interior):
        raise ContractError(f"interior levels must be distinct and inside (0, 1), got {spec.interior_levels!r}")

    T = problem.T
    edges = _grid(T, g)
    delta = T / g

    levels = (1.0,) + interior
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
        # Every channel's cell integrals, one row per channel, from one call.
        cell_integrals = integrate_h(sd.group_rates, coeffs[:, None, :], T, edges[:-1], edges[1:])
        scored = []
        for ch, t, cost, cells in zip(problem.channels, tables, costs, cell_integrals):
            cell_gain = ch.u_max * cells
            scored.append(((t.masks @ cell_gain)[t.mask_of] * t.levels, t.classes, cost, t.interior))
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
        best = np.empty(size.size)
        best.fill(-np.inf)
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
    i = int((v1 + partner[k1] == value).argmax())
    j = int(((v1[i] + v2 == value) & ok[k1[i]][k2]).argmax())
    return (
        (i, j),
        value,
        int(size1 @ ok @ size2),
        float(np.where(mixed, -np.inf, totals).max()),
        float(np.where(mixed, totals, -np.inf).max()),
    )


def _schedule_from_indices(problem, tables, edges, idx) -> BangBangSchedule:
    ends = edges.tolist()
    channels = []
    for k, ch in enumerate(problem.channels):
        t = tables[k]
        on = t.masks[int(t.mask_of[idx[k]])].tolist()
        # One interval per run of on-cells, from the first cell's lower edge
        # to the last cell's upper edge: edge c is a cut where cells c - 1 and c differ.
        cuts = [c for c, (a, b) in enumerate(zip([0.0] + on, on + [0.0])) if a != b]
        channels.append(
            ChannelSchedule(
                u_max=float(t.levels[idx[k]]) * ch.u_max,
                intervals=tuple((ends[a], ends[b]) for a, b in zip(cuts[0::2], cuts[1::2])),
            )
        )
    return BangBangSchedule(channels=tuple(channels))


def _step_maps(prep: Prepared, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """[phi, rho, d] of one RK4 step over each [lo, hi], mode by mode, stacked on a new first axis.

    With L = V diag(rate) V^T, an RK4 step of length h under a constant
    input c maps mode j as y -> R(z) y + h S(z) (V^T c)_j, z = -h rate_j,
    S(z) = 1 + z/2 + z^2/6 + z^3/24, R(z) = 1 + z S(z). The input is B u
    plus the drift, so the step is y -> phi y + rho (V^T B u) + d. A
    zero-length step maps y to y.
    """
    problem, sd = prep.problem, prep.sd
    rates = sd.mode_rates
    h = (hi - lo)[..., None]
    z = -h * rates
    hs = h * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    drift = (problem.drift.values @ sd.vectors)[problem.drift.piece(0.5 * (lo + hi))]
    return np.stack([1.0 - rates * hs, hs, hs * drift])


def _cell_maps(prep: Prepared, edges: np.ndarray):
    """Modal RK4 maps of each cell's core and of the pieces around each inner edge.

    A candidate's ``simulate`` grid is the nodes of ``dynamics._nodes``
    (``SIGMOID_STEPS`` uniform steps and the drift breakpoints) plus the
    inner cell edges where one of its channels switches. Let a and b be the
    nodes at or below and at or above an inner edge e; a = b = e when e is
    a node. Otherwise e is optional: a candidate steps [a, e] and [e, b]
    where it switches at e, and the one piece [a, b] where it does not.
    Cell c's core runs from the b of its lower edge (0 for the first cell)
    to the a of its upper edge (T for the last), and every candidate steps
    it alike; cells span at least 16 uniform steps, so no core is empty.

    Maps compose elementwise: (phi, rho, d) then (phi', rho', d') is
    (phi phi', rho phi' + rho', d phi' + d'). A core's steps, padded in
    front with zero-length steps to a power of two, are composed pairwise.
    Returns the cores' [phi, rho, d] by cell, the edges' by piece ([a, e],
    [e, b], [a, b]) and edge, and which inner edges are optional.
    """
    nodes = _nodes(prep.problem, SIGMOID_STEPS)
    inner = edges[1:-1]
    below = np.searchsorted(nodes, inner, side="right") - 1
    above = np.searchsorted(nodes, inner, side="left")
    first = np.concatenate([[0], above])
    last = np.append(below, nodes.size - 1)
    width = 1 << int(np.max(last - first) - 1).bit_length()
    # Core c's steps end at nodes last[c] - width + 1 .. last[c]; those before first[c] are zero-length there.
    ends = nodes[np.maximum(last[:, None] + np.arange(-width, 1), first[:, None])]
    cores = _step_maps(prep, ends[:, :-1], ends[:, 1:])
    while cores.shape[2] > 1:
        later = cores[:, :, 1::2]
        cores = cores[:, :, 0::2] * later[0]
        cores[1:] += later[1:]
    a, b = nodes[below], nodes[above]
    pieces = _step_maps(prep, np.stack([a, inner, a]), np.stack([inner, b, b]))
    return cores[:, :, 0], pieces, above > below


def _score_sigmoid(prep: Prepared, edges, tables, feasible) -> np.ndarray:
    """Sigmoid objective of each feasible candidate after its ``SIGMOID_STEPS`` RK4 run.

    ``feasible`` holds one index array per channel. A candidate's terminal
    state is its stepped RK4 state up to rounding: from V^T x0 its modal
    state walks the cores of ``_cell_maps`` in time order and, at each
    optional edge, takes [a, e] then [e, b] where one of its channels
    switches and [a, b] where none does. Controls are laid out cell-major,
    so a map reads one contiguous block. Candidates are scored in blocks
    of ``_SCORE_ROWS``.
    """
    problem, sd = prep.problem, prep.sd
    cores, pieces, optional = _cell_maps(prep, edges)
    coords = prep.gains.coords
    core_responses = cores[1][:, None, :] * coords
    piece_responses = pieces[1][:, :, None, :] * coords
    start = problem.x0 @ sd.vectors
    scale = [t.levels * ch.u_max for t, ch in zip(tables, problem.channels)]
    values = np.empty(feasible[0].size)
    for lo in range(0, values.size, _SCORE_ROWS):
        rows = [f[lo : lo + _SCORE_ROWS] for f in feasible]
        mask_rows = [t.mask_of[r] for t, r in zip(tables, rows)]
        u = np.stack([t.masks[i].T * sc[r] for t, i, sc, r in zip(tables, mask_rows, scale, rows)], axis=1)

        def piece(y, k, e, cell):
            return y * pieces[0, k, e] + u[cell].T @ piece_responses[k, e] + pieces[2, k, e]

        y = start
        for c in range(cores.shape[1]):
            if c and optional[c - 1]:
                both = piece(piece(y, 0, c - 1, c - 1), 1, c - 1, c)
                # Levels and u_max are positive, so a channel switches at the edge where its control changes.
                split = np.any(u[c] != u[c - 1], axis=0)
                y = np.where(split[:, None], both, piece(y, 2, c - 1, c))
            y = y * cores[0, c] + u[c].T @ core_responses[c] + cores[2, c]
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
