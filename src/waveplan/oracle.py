"""Brute-force schedule enumeration on desk-size instances.

This is the ground truth the solver is checked against: every subset of
uniform grid cells per channel (up to a switch cap), crossed over channels.
Linear objectives are scored exactly by per-cell integrals of h; sigmoid
objectives by 256-step RK4 runs, many candidates per batch on the kernel
behind ``dynamics.simulate``. With interior levels enabled it also serves
as the falsification harness for the bang-bang claim, testing non-extreme
constant control levels against the best extreme candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bounds import bound_general
from .costate import TerminalCostate, channel_profile, eval_h, integrate_h
from .dynamics import _forcing, _grid, _rk4, objective_value
from .errors import ContractError, ValidationError
from .graph import build_laplacian, spectral_decompose
from .problem import CampaignProblem
from .waterfill import BangBangSchedule, ChannelSchedule

MAX_CANDIDATES = 2_000_000
# RK4 steps per sigmoid candidate; the reported value is reproduced by
# simulate(problem, schedule, steps=SIGMOID_STEPS).
SIGMOID_STEPS = 256
_BLOCK_ROWS = 256


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
    m = np.arange(2**g, dtype=np.uint32)
    bits = ((m[:, None] >> np.arange(g - 1, -1, -1)[None, :]) & 1).astype(np.float64)
    switches = np.sum(bits[:, 1:] != bits[:, :-1], axis=1)
    return bits[switches <= cap]


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
    integrals of h); the sigmoid objective is scored by batched RK4
    simulation at ``SIGMOID_STEPS``. Budget-
    infeasible candidates are discarded. Ties break lexicographically on the
    joint cell-indicator encoding (extreme level before interior levels), so
    concurrent and sequential runs agree exactly.
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
    sd = spectral_decompose(build_laplacian(problem.graph))
    linear = problem.objective.kind == "linear"
    lamT = TerminalCostate(lam=problem.objective.p)

    levels = (1.0,) + (tuple(spec.interior_levels) if spec.include_interior_levels else ())
    masks = []
    cell_gain = []
    for ch in problem.channels:
        cap = spec.max_switches_per_channel
        if cap is None:
            cap = bound_general(sd, ch.b)
        masks.append(_masks_in_lex_order(g, cap))
        profile = channel_profile(sd, lamT, ch.b, T)
        cell_gain.append(
            np.array([ch.u_max * integrate_h(profile, edges[c], edges[c + 1]) for c in range(g)])
        )

    candidate_count = 1
    for mk in masks:
        candidate_count *= mk.shape[0] * len(levels)
    if candidate_count > MAX_CANDIDATES:
        raise ValidationError(
            f"{candidate_count} candidates exceed the enumeration guard of {MAX_CANDIDATES}; "
            f"use a smaller switch_grid than {g} or a tighter switch cap"
        )

    # Per-channel flattened candidates: mask-major, extreme level first.
    per_channel = []
    for k, ch in enumerate(problem.channels):
        mk = masks[k]
        vals, costs, interior = [], [], []
        on_counts = mk.sum(axis=1)
        for lvl in levels:
            vals.append(lvl * (mk @ cell_gain[k]))
            costs.append(ch.cost(lvl * ch.u_max) * delta * on_counts)
            # An interior level only matters when the channel is on somewhere.
            interior.append((on_counts > 0) & (lvl < 1.0))
        order = np.argsort(
            np.tile(np.arange(mk.shape[0]), len(levels)), kind="stable"
        )
        vals = np.concatenate(vals)[order]
        costs = np.concatenate(costs)[order]
        interior = np.concatenate(interior)[order]
        lvl_of = np.concatenate([np.full(mk.shape[0], lvl) for lvl in levels])[order]
        mask_of = np.tile(np.arange(mk.shape[0]), len(levels))[order]
        per_channel.append((vals, costs, interior, lvl_of, mask_of))

    budget = problem.r + 1e-9 * max(1.0, problem.r)

    if not linear:
        return _enumerate_sigmoid(problem, spec, masks, per_channel, edges, budget)

    best_val = -np.inf
    best_idx: tuple[int, ...] | None = None
    best_extreme = -np.inf
    best_interior = -np.inf if spec.include_interior_levels else None
    feasible = 0

    if m == 1:
        vals, costs, interior, _, _ = per_channel[0]
        ok = costs <= budget
        feasible = int(np.sum(ok))
        if feasible:
            masked = np.where(ok, vals, -np.inf)
            best_idx = (int(np.argmax(masked)),)
            best_val = float(masked[best_idx[0]])
            ext = np.where(ok & ~interior, vals, -np.inf)
            best_extreme = float(np.max(ext))
            if spec.include_interior_levels:
                itr = np.where(ok & interior, vals, -np.inf)
                best_interior = float(np.max(itr))
    else:
        v1, c1, i1, _, _ = per_channel[0]
        v2, c2, i2, _, _ = per_channel[1]
        for lo in range(0, v1.size, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, v1.size)
            total = v1[lo:hi, None] + v2[None, :]
            ok = c1[lo:hi, None] + c2[None, :] <= budget
            feasible += int(np.sum(ok))
            total = np.where(ok, total, -np.inf)
            flat = int(np.argmax(total))
            val = float(total.reshape(-1)[flat])
            if val > best_val:
                best_val = val
                best_idx = (lo + flat // v2.size, flat % v2.size)
            pure = ok & ~i1[lo:hi, None] & ~i2[None, :]
            if np.any(pure):
                best_extreme = max(best_extreme, float(np.max(np.where(pure, total, -np.inf))))
            if spec.include_interior_levels:
                mixed = ok & (i1[lo:hi, None] | i2[None, :])
                if np.any(mixed):
                    best_interior = max(
                        best_interior, float(np.max(np.where(mixed, total, -np.inf)))
                    )

    if best_idx is None:
        raise ValidationError("no feasible candidate; even the all-off schedule failed the budget")

    schedule = _schedule_from_indices(problem, masks, per_channel, edges, best_idx)
    spend = float(
        sum(per_channel[k][1][best_idx[k]] for k in range(m))
    )
    return OracleResult(
        value=best_val,
        schedule=schedule,
        spend=spend,
        feasible_count=feasible,
        candidate_count=candidate_count,
        best_extreme_value=best_extreme,
        best_interior_value=best_interior,
    )


def _schedule_from_indices(problem, masks, per_channel, edges, idx) -> BangBangSchedule:
    channels = []
    for k, ch in enumerate(problem.channels):
        _, _, _, lvl_of, mask_of = per_channel[k]
        bits = masks[k][int(mask_of[idx[k]])]
        channels.append(
            ChannelSchedule(
                u_max=float(lvl_of[idx[k]]) * ch.u_max,
                intervals=_mask_to_intervals(bits, edges),
            )
        )
    return BangBangSchedule(channels=tuple(channels))


def _score_sigmoid(problem: CampaignProblem, schedules: list[BangBangSchedule]) -> np.ndarray:
    """Sigmoid objective of each schedule after a ``SIGMOID_STEPS`` RK4 run.

    Blocks of ``_BLOCK_ROWS`` schedules are stepped together by the kernel
    behind ``simulate``, each on its own refined grid; grids shorter than
    the block's longest are padded with zero steps, which change nothing.
    """
    a_mat = -build_laplacian(problem.graph).matrix
    values = np.empty(len(schedules))
    for lo in range(0, len(schedules), _BLOCK_ROWS):
        block = schedules[lo : lo + _BLOCK_ROWS]
        grids = [_grid(problem, schedule, SIGMOID_STEPS) for schedule in block]
        pieces = max(ts.size for ts in grids) - 1
        h = np.zeros((pieces, len(block)))
        forcing = np.zeros((pieces, len(block), problem.n))
        for k, (schedule, ts) in enumerate(zip(block, grids)):
            h[: ts.size - 1, k] = np.diff(ts)
            forcing[: ts.size - 1, k] = _forcing(problem, schedule, ts)[0]
        x0 = np.tile(problem.x0, (len(block), 1))
        x_T = _rk4(a_mat, h, x0, forcing)[-1]
        values[lo : lo + len(block)] = [objective_value(problem.objective, x) for x in x_T]
    return values


def _enumerate_sigmoid(problem, spec, masks, per_channel, edges, budget) -> OracleResult:
    """Simulation-scored enumeration: every feasible candidate gets a 256-step RK4 run.

    The candidates are integrated in batches; the selection below walks
    them in ``product`` order, so the first of equal values wins as in the
    linear branch.
    """
    m = problem.m
    sizes = [pc[0].size for pc in per_channel]
    candidate_count = int(np.prod(sizes))
    feasible = [
        idx
        for idx in product(*(range(s) for s in sizes))
        if sum(per_channel[k][1][idx[k]] for k in range(m)) <= budget
    ]
    if not feasible:
        raise ValidationError("no feasible candidate; even the all-off schedule failed the budget")
    values = _score_sigmoid(
        problem,
        [_schedule_from_indices(problem, masks, per_channel, edges, idx) for idx in feasible],
    )

    best_val = -np.inf
    best_idx = None
    best_extreme = -np.inf
    best_interior = -np.inf if spec.include_interior_levels else None
    for idx, val in zip(feasible, values.tolist()):
        interior = any(per_channel[k][2][idx[k]] for k in range(m))
        if val > best_val:
            best_val, best_idx = val, idx
        if interior:
            if spec.include_interior_levels:
                best_interior = max(best_interior, val)
        else:
            best_extreme = max(best_extreme, val)
    schedule = _schedule_from_indices(problem, masks, per_channel, edges, best_idx)
    spend = float(sum(per_channel[k][1][best_idx[k]] for k in range(m)))
    return OracleResult(
        value=best_val,
        schedule=schedule,
        spend=spend,
        feasible_count=len(feasible),
        candidate_count=candidate_count,
        best_extreme_value=best_extreme,
        best_interior_value=best_interior,
    )
