"""Forward opinion dynamics: exact terminal states, RK4 simulation, objectives and the control gain.

``terminal_state`` gives the exact x(T) under a bang-bang schedule in the
Laplacian's modes; the sigmoid loop scores its iterates with it. Its
per-mode integrals over on-intervals come from ``costate.modal_integrals``,
the one kernel that ``integrate_h``, and so ``closed_form_gain`` and the
oracle's linear cell gains, read too. ``objective_value`` scores one
terminal state or a batch of them, the oracle's sigmoid candidates included.
``simulate`` is the reference RK4 integrator that samples the whole path;
it steps the dense system, and nothing else in the package runs that
kernel, so its runs check the enumeration oracle's modal RK4 scores
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costate import _stable_sigmoid, _terminal_state, integrate_h, modal_integrals
from .errors import ContractError, _int_fault, _real_fault, _require
from .graph import _as_readonly, _entries_fault, build_laplacian
from .problem import CampaignProblem, Objective, Prepared, prepare


@dataclass(frozen=True)
class Trajectory:
    """Sampled state path with the running spend (stored sign-positive)."""

    times: np.ndarray
    states: np.ndarray
    spend_accum: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "states", "spend_accum"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


def _check_fit(schedule, T: float, m: int | None = None) -> None:
    """ContractError unless, given m, the schedule has m channels, and each channel's last interval ends by T.

    ``ChannelSchedule`` checks the rest when it is built, sorted intervals included.
    """
    if m is not None and len(schedule.channels) != m:
        raise ContractError(f"schedule has {len(schedule.channels)} channels, problem has {m}")
    for k, cs in enumerate(schedule.channels, start=1):
        if cs.intervals and cs.intervals[-1][1] > T:
            raise ContractError(f"schedule channel {k}: interval {cs.intervals[-1]} outside [0, {T}]")


def _grid(T: float, cells: int) -> np.ndarray:
    """``cells`` uniform cells of [0, T] as their cells + 1 ends, bit for bit ``np.linspace(0.0, T, cells + 1)``.

    It repeats ``linspace``'s own arithmetic without its wrapper's calls:
    i (T / cells), or (i / cells) T where the step underflows to 0, with
    the last end set to T.
    """
    T = float(T)
    step = T / cells
    times = np.arange(cells + 1) * step if step else np.arange(cells + 1) / cells * T
    times[-1] = T
    return times


def _nodes(problem: CampaignProblem, steps: int, events=()) -> np.ndarray:
    """``steps`` uniform steps of [0, T], refined so that every drift breakpoint and event time in (0, T) is a node.

    ``simulate`` passes its schedule's switch times as the events, so the
    control and drift are constant inside each piece and the integrator
    never straddles a discontinuity. The sigmoid oracle composes the RK4
    steps of these same pieces.
    """
    T = problem.T
    times = np.concatenate([problem.drift.breakpoints, np.asarray(events, dtype=np.float64).ravel()])
    return np.unique(np.concatenate([_grid(T, steps), times[(times > 0.0) & (times < T)]]))


def _forcing(problem: CampaignProblem, schedule, ts: np.ndarray):
    """Per-piece forcing B u + e [P, n] and cost rate [P] on a grid from ``_nodes``."""
    mids = 0.5 * (ts[:-1] + ts[1:])
    u = np.zeros((mids.size, problem.m))
    cost_rate = np.zeros(mids.size)
    for k, (cs, ch) in enumerate(zip(schedule.channels, problem.channels)):
        if not cs.intervals:
            continue
        starts, ends = np.array(cs.intervals, dtype=np.float64).T
        idx = np.searchsorted(starts, mids, side="right") - 1
        on = (idx >= 0) & (mids < ends[np.clip(idx, 0, None)])
        u[on, k] = cs.u_max
        cost_rate[on] += ch.cost(cs.u_max)

    b_mat = np.column_stack([ch.b for ch in problem.channels])
    return u @ b_mat.T + problem.drift.at(mids), cost_rate


def _rk4(a_mat: np.ndarray, h: np.ndarray, x0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Classical 4th-order one-step method for dx/dt = A x + c.

    Piece p has length h[p] and constant input forcing[p], [P, n]. Returns
    the states after every piece, [P + 1, n], with x0 first.
    """
    a_t = np.ascontiguousarray(a_mat.T)
    states = np.empty((h.size + 1, x0.size))
    states[0] = x0
    x = np.array(x0, dtype=np.float64)
    for p, hp in enumerate(h.tolist()):
        c = forcing[p]
        k1 = x @ a_t + c
        k2 = (x + 0.5 * hp * k1) @ a_t + c
        k3 = (x + 0.5 * hp * k2) @ a_t + c
        k4 = (x + hp * k3) @ a_t + c
        x = x + (hp / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[p + 1] = x
    return states


def simulate(problem: CampaignProblem, schedule, steps: int = 4096) -> Trajectory:
    """Integrate dx/dt = -L x + B u + e under a bang-bang schedule.

    Classical 4th-order one-step method on a grid refined so that every
    schedule switch time and drift breakpoint is a node: the control and
    drift are constant inside each piece, so no discontinuity is straddled
    and the integrator keeps its order. The spend accumulator is exact
    interval arithmetic, not quadrature. This is the reference integrator
    that ``terminal_state`` is checked against. A ``steps`` whose
    (steps + 1) x n trajectory would pass 2 GiB is a ContractError, raised
    before anything is allocated.
    """
    _require(ContractError, _int_fault(steps, "steps", 64))
    _require(ContractError, _entries_fault(steps, "steps", steps + 1, problem.n))
    _check_fit(schedule, problem.T, problem.m)
    ts = _nodes(problem, steps, [iv for cs in schedule.channels for iv in cs.intervals])
    forcing, cost_rate = _forcing(problem, schedule, ts)
    a_mat = -build_laplacian(problem.graph)
    h = np.diff(ts)
    states = _rk4(a_mat, h, problem.x0, forcing)
    spend = np.concatenate([[0.0], np.cumsum(cost_rate * h)])
    return Trajectory(times=ts, states=states, spend_accum=spend)


def terminal_state(problem: CampaignProblem | Prepared, schedule) -> np.ndarray:
    """Exact x(T) of dx/dt = -L x + B u + e under a bang-bang schedule.

    The dynamics are linear with piecewise-constant inputs, so in the
    eigenbasis L = V diag(rate) V^T every mode integrates in closed form:

        V^T x(T) = e^{-rate T} V^T x0
                   + sum over on-intervals [lo, hi] of channel i of
                     u_i (integral of e^{rate (t - T)} over [lo, hi]) V^T b_i
                   + the same kind of term for each drift piece,

    each integral from ``costate.modal_integrals``, the kernel of
    ``integrate_h`` too (the zero mode's rate is pinned to exactly 0:
    ``mode_rates``). V^T b_i is read from the stored projection of the
    gains, ``Prepared.gains``. The schedule checked its intervals when it
    was built (``ChannelSchedule``); like ``simulate`` and
    ``closed_form_gain``, this checks only that they end by T and that
    there is one channel per problem channel.
    """
    prep = prepare(problem)
    problem = prep.problem
    _check_fit(schedule, problem.T, problem.m)
    T = problem.T
    rates = prep.sd.mode_rates
    vecs = prep.sd.vectors

    modal = np.exp(-rates * T) * (problem.x0 @ vecs)
    for cs, coords in zip(schedule.channels, prep.gains.coords):
        if cs.intervals:
            ivs = np.array(cs.intervals, dtype=np.float64)
            pulses = modal_integrals(rates, T, ivs[:, 0], ivs[:, 1])
            modal += cs.u_max * pulses.sum(axis=0) * coords

    # values[k] holds on [breakpoints[k], breakpoints[k + 1]), the last up to T.
    drift = problem.drift
    edges = np.concatenate([drift.breakpoints, [T]])
    pulses = modal_integrals(rates, T, edges[:-1], edges[1:])
    modal += np.sum(pulses * (drift.values @ vecs), axis=0)
    return vecs @ modal


def objective_value(obj: Objective, xT: np.ndarray) -> float | np.ndarray:
    """J as a float at one terminal state, or one J per state of a batch (agents on the last axis); overflow-safe."""
    x = _terminal_state(obj, xT, batch=True)
    if obj.kind == "linear":
        value = x @ obj.p
    elif obj.kind == "sigmoid":
        value = np.sum(obj.p * _stable_sigmoid(obj.alpha * (x - obj.theta)), axis=-1)
    else:
        raise ContractError(f"unknown objective kind {obj.kind!r}")
    return value if value.ndim else float(value)


def closed_form_gain(rates: np.ndarray, coeffs: np.ndarray, T: float, schedule) -> float:
    """Exact control contribution to the linear objective, independent of x0 and drift.

    Each unit of effort on channel i at time t is worth h_i(t), the profile
    whose group coefficients are row i of ``coeffs`` (one row per schedule
    channel, one column per rate), so the gain is u_max_i times the integral
    of h_i over the on-intervals. Every channel's integrals come from one
    ``integrate_h`` call, with one coefficient row per interval; its entries
    equal the scalar calls bit for bit, and the terms are added one by one
    in channel then interval order.
    """
    _require(ContractError, _real_fault(T, "horizon T", "positive"))
    _check_fit(schedule, T)
    if np.shape(coeffs) != (len(schedule.channels), np.size(rates)):
        raise ContractError(
            f"coefficients have shape {np.shape(coeffs)}, expected "
            f"({len(schedule.channels)}, {np.size(rates)}): one row per schedule channel"
        )
    total = 0.0
    rows = [k for k, cs in enumerate(schedule.channels) for _ in cs.intervals]
    if rows:
        lo, hi = zip(*[iv for cs in schedule.channels for iv in cs.intervals])
        values = integrate_h(rates, np.asarray(coeffs)[rows], T, lo, hi)
        for k, value in zip(rows, values.tolist()):
            total += schedule.channels[k].u_max * value
    return float(total)
