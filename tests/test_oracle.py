from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from helpers import K2, P3, aligned_oracle_problem as _aligned_problem, k2_problem, random_connected_graph
from waveplan import oracle
from waveplan.bundles import seven_agent_sigmoid_problem
from waveplan.dynamics import objective_value, simulate
from waveplan.errors import ContractError, ValidationError
from waveplan.oracle import EnumerationSpec, enumerate_best, grid_slack
from waveplan.problem import CampaignProblem, Channel, CostModel, Drift, Objective
from waveplan.waterfill import solve


class TestGuards:
    def test_rejects_large_n(self):
        rng = np.random.default_rng(0)
        from helpers import random_connected_graph

        g = random_connected_graph(rng, 9)
        prob = CampaignProblem(
            graph=g,
            channels=(Channel(b=np.eye(9)[0], cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(kind="linear", p=np.ones(9)),
            T=1.0,
            r=0.5,
            x0=np.zeros(9),
        )
        with pytest.raises(ContractError, match="desk-scale"):
            enumerate_best(prob, EnumerationSpec(switch_grid=8))

    def test_rejects_large_grid(self):
        with pytest.raises(ContractError, match="switch_grid"):
            enumerate_best(k2_problem(), EnumerationSpec(switch_grid=17))

    def test_candidate_guard_reports_count(self):
        prob = _aligned_problem(np.random.default_rng(5), 3, 2, 16)
        spec = EnumerationSpec(
            switch_grid=16, max_switches_per_channel=16, include_interior_levels=True
        )
        with pytest.raises(ValidationError, match="smaller switch_grid"):
            enumerate_best(prob, spec)


def _reference_masks(g, cap):
    """Reference mask table, built with one cell per column and switches summed along each row."""
    m = np.arange(2**g, dtype=np.uint32)
    bits = ((m[:, None] >> np.arange(g - 1, -1, -1)[None, :]) & 1).astype(np.float64)
    switches = np.sum(bits[:, 1:] != bits[:, :-1], axis=1)
    return bits[switches <= cap]


class TestMaskTable:
    @pytest.mark.parametrize("g", range(2, 13))
    def test_matches_reference(self, g):
        for cap in range(g + 1):
            masks = oracle._masks_in_lex_order(g, cap)
            assert masks.flags.c_contiguous and masks.dtype == np.float64
            assert np.array_equal(masks, _reference_masks(g, cap))


class TestEnumerateBest:
    def test_k2_matches_waterfill_within_slack(self):
        prob = k2_problem()
        res = enumerate_best(prob, EnumerationSpec(switch_grid=8))
        sol = solve(prob)
        slack = grid_slack(prob, 8)
        assert res.schedule.channels[0].intervals == ((0.0, 0.5),)
        assert sol.objective_gain >= res.value - slack
        assert abs(sol.objective_gain - res.value) <= 1e-3

    def test_zero_budget_all_off(self):
        prob = k2_problem(r=0.0)
        res = enumerate_best(prob, EnumerationSpec(switch_grid=8))
        assert res.value == 0.0
        assert res.schedule.channels[0].intervals == ()

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        prob = _aligned_problem(rng, 3, 2, 8)
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=8)
        r1 = enumerate_best(prob, spec)
        r2 = enumerate_best(prob, spec)
        assert r1.value == r2.value
        assert r1.schedule == r2.schedule

    def test_interior_levels_never_beat_extremes(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            prob = _aligned_problem(rng, int(rng.choice([2, 3])), int(rng.integers(1, 3)), 8)
            spec = EnumerationSpec(
                switch_grid=8, max_switches_per_channel=8, include_interior_levels=True
            )
            res = enumerate_best(prob, spec)
            assert res.best_interior_value is not None
            assert res.best_interior_value <= res.best_extreme_value + 1e-9

    def test_sigmoid_scoring_path(self):
        prob = CampaignProblem(
            graph=K2,
            channels=(Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
            objective=Objective(
                kind="sigmoid",
                p=np.array([0.5, 0.5]),
                alpha=np.array([2.0, 2.0]),
                theta=np.array([0.2, 0.2]),
            ),
            T=1.0,
            r=0.5,
            x0=np.zeros(2),
        )
        res = enumerate_best(prob, EnumerationSpec(switch_grid=4, max_switches_per_channel=4))
        assert res.feasible_count > 0
        assert res.value > 0.0

    def test_feasible_count_excludes_over_budget(self):
        prob = k2_problem(r=0.25)
        res = enumerate_best(prob, EnumerationSpec(switch_grid=4, max_switches_per_channel=4))
        # Cell cost is 1/4: only masks with at most one on-cell fit.
        assert res.feasible_count == 5


class TestSpecValidation:
    def test_rejects_negative_cap(self):
        with pytest.raises(ContractError, match="cap"):
            enumerate_best(k2_problem(), EnumerationSpec(switch_grid=4, max_switches_per_channel=-1))

    def test_rejects_bad_interior_levels(self):
        spec = EnumerationSpec(switch_grid=4, include_interior_levels=True, interior_levels=(1.5,))
        with pytest.raises(ContractError, match="interior levels"):
            enumerate_best(k2_problem(), spec)


def _loop_enumerate_sigmoid(problem, spec, masks, per_channel, edges, budget):
    """One 256-step simulate per feasible candidate, in product order: the unbatched reference."""
    m = problem.m
    sizes = [pc[0].size for pc in per_channel]
    best_val, best_idx, best_extreme = -np.inf, None, -np.inf
    best_interior = -np.inf if spec.include_interior_levels else None
    feasible = 0
    for idx in product(*(range(s) for s in sizes)):
        if sum(per_channel[k][1][idx[k]] for k in range(m)) > budget:
            continue
        feasible += 1
        schedule = oracle._schedule_from_indices(problem, masks, per_channel, edges, idx)
        val = objective_value(problem.objective, simulate(problem, schedule, steps=256).terminal_state)
        if val > best_val:
            best_val, best_idx = val, idx
        if any(per_channel[k][2][idx[k]] for k in range(m)):
            if spec.include_interior_levels:
                best_interior = max(best_interior, val)
        else:
            best_extreme = max(best_extreme, val)
    return oracle.OracleResult(
        value=best_val,
        schedule=oracle._schedule_from_indices(problem, masks, per_channel, edges, best_idx),
        spend=float(sum(per_channel[k][1][best_idx[k]] for k in range(m))),
        feasible_count=feasible,
        candidate_count=int(np.prod(sizes)),
        best_extreme_value=best_extreme,
        best_interior_value=best_interior,
    )


def _sigmoid_problem(rng, graph, m, theta_shift=0.0, twin=False, dynamic=False):
    """Sigmoid desk instance; ``twin`` gives every channel the first one's b and cost."""
    n = graph.n
    channels = [Channel(b=rng.uniform(0.0, 1.0, n), cost=CostModel("linear", 1.0), u_max=1.0)]
    for _ in range(1, m):
        # Twin channels make swapped candidates tie exactly.
        b = channels[0].b if twin else rng.uniform(0.0, 1.0, n)
        cost = channels[0].cost if twin else CostModel("power", 1.0, 0.6)
        channels.append(Channel(b=b, cost=cost, u_max=1.0))
    drift = None
    if dynamic:
        drift = Drift(breakpoints=np.array([0.0, 0.37, 0.81]), values=rng.normal(0.0, 0.3, (3, n)))
    return CampaignProblem(
        graph=graph,
        channels=tuple(channels),
        objective=Objective(
            kind="sigmoid",
            p=rng.uniform(0.2, 1.0, n),
            alpha=rng.uniform(1.0, 4.0, n),
            theta=rng.normal(0.0, 0.2, n) + theta_shift,
        ),
        T=1.0,
        r=0.25 if twin else 0.5 * m,
        x0=rng.normal(0.0, 0.3, n) if dynamic else np.zeros(n),
        drift=drift,
    )


class TestBatchedSigmoidScoring:
    CASES = [
        ("m1", lambda rng: _sigmoid_problem(rng, P3, 1), EnumerationSpec(switch_grid=8, max_switches_per_channel=3)),
        ("m2", lambda rng: _sigmoid_problem(rng, P3, 2), EnumerationSpec(switch_grid=5, max_switches_per_channel=2)),
        (
            "interior",
            lambda rng: _sigmoid_problem(rng, K2, 2),
            EnumerationSpec(
                switch_grid=3,
                max_switches_per_channel=1,
                include_interior_levels=True,
                interior_levels=(0.5,),
            ),
        ),
        ("twin_ties", lambda rng: _sigmoid_problem(rng, P3, 2, twin=True), EnumerationSpec(switch_grid=4)),
        ("saturated_ties", lambda rng: _sigmoid_problem(rng, P3, 1, theta_shift=-1e3), EnumerationSpec(switch_grid=6)),
        ("x0_drift", lambda rng: _sigmoid_problem(rng, P3, 2, dynamic=True), EnumerationSpec(switch_grid=5, max_switches_per_channel=2)),
        ("bundle", lambda rng: seven_agent_sigmoid_problem(), EnumerationSpec(switch_grid=6, max_switches_per_channel=1)),
    ]

    @pytest.mark.parametrize("name,make,spec", CASES, ids=[c[0] for c in CASES])
    def test_matches_per_candidate_loop(self, name, make, spec, monkeypatch):
        prob = make(np.random.default_rng(11))
        batched = enumerate_best(prob, spec)
        monkeypatch.setattr(oracle, "_enumerate_sigmoid", _loop_enumerate_sigmoid)
        looped = enumerate_best(prob, spec)
        assert batched.schedule == looped.schedule
        assert batched.feasible_count == looped.feasible_count
        assert batched.candidate_count == looped.candidate_count
        assert batched.spend == looped.spend
        for field in ("value", "best_extreme_value", "best_interior_value"):
            a, b = getattr(batched, field), getattr(looped, field)
            if b is None:
                assert a is None
            else:
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_twin_tie_breaks_to_first_in_product_order(self):
        # The budget buys one cell on one twin: (off, X) precedes (X, off).
        prob = _sigmoid_problem(np.random.default_rng(11), P3, 2, twin=True)
        res = enumerate_best(prob, EnumerationSpec(switch_grid=4))
        assert res.schedule.channels[0].intervals == ()
        assert len(res.schedule.channels[1].intervals) == 1

    def test_ties_break_to_first_candidate(self):
        prob = _sigmoid_problem(np.random.default_rng(3), P3, 1, theta_shift=-1e3)
        res = enumerate_best(prob, EnumerationSpec(switch_grid=6))
        # Every candidate saturates to sum(p); the all-off mask comes first.
        assert res.value == float(np.sum(prob.objective.p))
        assert res.schedule.channels[0].intervals == ()


def _map_problem(rng, m, T=1.0, x0=False, breakpoints=None, n=3):
    """Sigmoid instance on P3 (K2 for n = 2) with optional start state and drift breakpoints."""
    graph = K2 if n == 2 else P3
    channels = [
        Channel(b=rng.uniform(0.0, 1.0, n), cost=CostModel("power", 1.0, 0.6), u_max=float(rng.uniform(0.5, 2.0)))
        for _ in range(m)
    ]
    drift = None
    if breakpoints is not None:
        bps = np.concatenate([[0.0], breakpoints])
        drift = Drift(breakpoints=bps, values=rng.normal(0.0, 0.3, (bps.size, n)))
    return CampaignProblem(
        graph=graph,
        channels=tuple(channels),
        objective=Objective(
            kind="sigmoid",
            p=rng.uniform(0.2, 1.0, n),
            alpha=rng.uniform(1.0, 4.0, n),
            theta=rng.normal(0.0, 0.2, n),
        ),
        T=T,
        r=0.4 * m * T,
        x0=rng.normal(0.0, 0.3, n) if x0 else np.zeros(n),
        drift=drift,
    )


def _scored_candidates(prob, spec, monkeypatch):
    """The oracle's result, every feasible candidate's schedule and its map-scored value."""
    calls = []
    score = oracle._score_sigmoid

    def spy(problem, edges, masks, per_channel, feasible):
        values = score(problem, edges, masks, per_channel, feasible)
        calls.append((edges, masks, per_channel, feasible, values))
        return values

    monkeypatch.setattr(oracle, "_score_sigmoid", spy)
    result = enumerate_best(prob, spec)
    ((edges, masks, per_channel, feasible, values),) = calls
    schedules = [oracle._schedule_from_indices(prob, masks, per_channel, edges, idx) for idx in zip(*feasible)]
    return result, schedules, values


def _stepped(prob, schedule):
    return objective_value(prob.objective, simulate(prob, schedule, steps=oracle.SIGMOID_STEPS).terminal_state)


def _optional_edges(prob, g):
    return oracle._segment_maps(prob, np.linspace(0.0, prob.T, g + 1))[3]


class TestTransferMapScoring:
    # (name, problem, spec, indices into the inner edges that must be optional)
    CASES = [
        ("m1", lambda rng: _map_problem(rng, 1), EnumerationSpec(switch_grid=5, max_switches_per_channel=3), [0, 1, 2, 3]),
        ("m2", lambda rng: _map_problem(rng, 2), EnumerationSpec(switch_grid=5, max_switches_per_channel=1), [0, 1, 2, 3]),
        (
            "interior",
            lambda rng: _map_problem(rng, 2, n=2),
            EnumerationSpec(
                switch_grid=3, max_switches_per_channel=1, include_interior_levels=True, interior_levels=(0.5,)
            ),
            [0, 1],
        ),
        ("x0_T", lambda rng: _map_problem(rng, 2, T=1.7, x0=True), EnumerationSpec(switch_grid=5, max_switches_per_channel=1), [0, 1, 2, 3]),
        # T / 2 is a uniform node, so edge 2 is fixed.
        ("g6", lambda rng: _map_problem(rng, 1), EnumerationSpec(switch_grid=6, max_switches_per_channel=2), [0, 1, 3, 4]),
        # Every edge is a uniform node: nothing is optional.
        ("g8", lambda rng: _map_problem(rng, 1, x0=True), EnumerationSpec(switch_grid=8, max_switches_per_channel=2), []),
        # A drift breakpoint on edge 1 makes it fixed.
        (
            "drift_on_edge",
            lambda rng: _map_problem(rng, 1, breakpoints=[np.linspace(0.0, 1.0, 6)[2]]),
            EnumerationSpec(switch_grid=5, max_switches_per_channel=2),
            [0, 2, 3],
        ),
        # Breakpoints between edge 0 (0.2) and its uniform neighbour below
        # (51/256), and between edge 2 (0.6) and its neighbour above (154/256).
        (
            "drift_in_base_piece",
            lambda rng: _map_problem(rng, 1, x0=True, breakpoints=[0.1995, 0.601]),
            EnumerationSpec(switch_grid=5, max_switches_per_channel=2),
            [0, 1, 2, 3],
        ),
    ]

    @pytest.mark.parametrize("name,make,spec,optional", CASES, ids=[c[0] for c in CASES])
    def test_every_candidate_matches_stepped_rk4(self, name, make, spec, optional, monkeypatch):
        prob = make(np.random.default_rng(23))
        assert _optional_edges(prob, spec.switch_grid).tolist() == optional
        result, schedules, values = _scored_candidates(prob, spec, monkeypatch)
        assert result.feasible_count == len(schedules) > 1
        for schedule, value in zip(schedules, values):
            stepped = _stepped(prob, schedule)
            assert abs(value - stepped) <= 1e-13 * abs(stepped)
        best = int(np.argmax(values))
        assert result.value == values[best] and result.schedule == schedules[best]

    def test_bundle_grid8_interior_levels(self):
        prob = seven_agent_sigmoid_problem()
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=2, include_interior_levels=True)
        res = enumerate_best(prob, spec)
        assert (res.feasible_count, res.candidate_count) == (49158, 53824)
        assert res.schedule.channels[0].u_max == 1.0
        assert res.schedule.channels[0].intervals == ((0.0, 8.75),)
        assert res.schedule.channels[1].u_max == 0.75
        assert res.schedule.channels[1].intervals == ((7.5, 10.0),)
        assert res.spend == 10.625
        assert abs(res.value - _stepped(prob, res.schedule)) <= 1e-13 * res.value
        assert res.best_interior_value == res.value > res.best_extreme_value

    def test_sampled_grid8_candidates_match_stepped_rk4(self, monkeypatch):
        prob = seven_agent_sigmoid_problem()
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=2, include_interior_levels=True)
        _, schedules, values = _scored_candidates(prob, spec, monkeypatch)
        for i in range(0, len(schedules), 997):
            stepped = _stepped(prob, schedules[i])
            assert abs(values[i] - stepped) <= 1e-13 * abs(stepped)


class TestSpectralWork:
    def test_capped_sigmoid_oracle_needs_no_decomposition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decomposed")

        monkeypatch.setattr(oracle, "spectral_decompose", refuse)
        prob = _map_problem(np.random.default_rng(5), 1)
        enumerate_best(prob, EnumerationSpec(switch_grid=4, max_switches_per_channel=1))
        with pytest.raises(AssertionError, match="decomposed"):
            enumerate_best(prob, EnumerationSpec(switch_grid=4))


def _reference_combine(channels, budget):
    """The combine before cost classes, kept as the reference for ``oracle._best_pair``.

    ``channels`` holds the real channels' (gains, classes, costs, interior)
    only: m = 1 takes the argmax over the feasible candidates, m = 2 scans
    every candidate pair in blocks of 256 rows.
    """
    best_val, best_idx, best_extreme, best_interior, feasible = -np.inf, None, -np.inf, -np.inf, 0
    if len(channels) == 1:
        (vals, _, costs, interior), = channels
        ok = costs <= budget
        feasible = int(np.sum(ok))
        if feasible:
            masked = np.where(ok, vals, -np.inf)
            best_idx = (int(np.argmax(masked)),)
            best_val = float(masked[best_idx[0]])
            best_extreme = float(np.max(np.where(ok & ~interior, vals, -np.inf)))
            best_interior = float(np.max(np.where(ok & interior, vals, -np.inf)))
        return best_idx, best_val, feasible, best_extreme, best_interior
    (v1, _, c1, i1), (v2, _, c2, i2) = channels
    for lo in range(0, v1.size, 256):
        hi = min(lo + 256, v1.size)
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
        mixed = ok & (i1[lo:hi, None] | i2[None, :])
        if np.any(mixed):
            best_interior = max(best_interior, float(np.max(np.where(mixed, total, -np.inf))))
    return best_idx, best_val, feasible, best_extreme, best_interior


def _desk_problem(rng, n, m, power, binding, twin=False):
    """Desk instance as the benchmark builds it; binding budgets are below saturation, slack ones above."""
    channels = []
    for _ in range(m):
        b = rng.uniform(0.0, 1.0, n) if binding else rng.uniform(-1.0, 1.0, n)
        a = float(rng.uniform(0.3, 0.9)) if power else 1.0
        cost = CostModel("power" if power else "linear", float(rng.uniform(0.5, 2.0)), a)
        channels.append(Channel(b=b, cost=cost, u_max=float(rng.uniform(0.5, 2.0))))
    if twin:
        channels[1:] = channels[:1] * (m - 1)
    saturation = sum(ch.max_cost_rate for ch in channels)
    return CampaignProblem(
        graph=random_connected_graph(rng, n),
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.05, 1.0, n)),
        T=1.0,
        r=float(rng.uniform(0.2, 0.8)) * saturation if binding else 1.25 * saturation,
        x0=np.zeros(n),
    )


def _class_pair_budget(prob, g):
    """A budget equal to the spend of one channel fully on plus one cell of the last at its cost rate."""
    delta = prob.T / g
    costs = [ch.cost(ch.u_max) * delta for ch in prob.channels]
    return costs[0] * g + costs[-1] if prob.m == 2 else costs[0] * (g // 2)


class TestCostClassCombine:
    SPECS = [
        EnumerationSpec(switch_grid=10),
        EnumerationSpec(switch_grid=6, include_interior_levels=True),
        EnumerationSpec(switch_grid=8, max_switches_per_channel=2, include_interior_levels=True),
        EnumerationSpec(switch_grid=9, max_switches_per_channel=1),
        EnumerationSpec(switch_grid=7, max_switches_per_channel=0, include_interior_levels=True),
    ]
    # (n, m, power, binding) over the desk ladder's design.
    DESK = [(2 + i % 7, 1 + i % 2, (i // 2) % 2 == 1, (i // 4) % 2 == 0) for i in range(16)]

    @staticmethod
    def _assert_matches_reference(prob, spec, monkeypatch):
        result = enumerate_best(prob, spec)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_best_pair", lambda channels, budget: _reference_combine(channels[: prob.m], budget))
            reference = enumerate_best(prob, spec)
        for field in oracle.OracleResult.__dataclass_fields__:
            assert getattr(result, field) == getattr(reference, field), field
        return result

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"g{s.switch_grid}c{s.max_switches_per_channel}i{int(s.include_interior_levels)}")
    def test_desk_problems_match_pair_loop(self, spec, monkeypatch):
        rng = np.random.default_rng(29)
        for n, m, power, binding in self.DESK:
            self._assert_matches_reference(_desk_problem(rng, n, m, power, binding), spec, monkeypatch)

    @pytest.mark.parametrize("spec", SPECS[1:3], ids=["g6i1", "g8c2i1"])
    def test_twin_channels_break_ties_as_the_pair_loop(self, spec, monkeypatch):
        rng = np.random.default_rng(31)
        for binding in (True, False):
            prob = _desk_problem(rng, 4, 2, False, binding, twin=True)
            res = self._assert_matches_reference(prob, spec, monkeypatch)
            assert res.value == enumerate_best(replace(prob, channels=prob.channels[::-1]), spec).value

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_budget(self, m, monkeypatch):
        prob = replace(_desk_problem(np.random.default_rng(37), 5, m, True, True), r=0.0)
        res = self._assert_matches_reference(prob, self.SPECS[1], monkeypatch)
        assert res.spend == 0.0 and all(ch.intervals == () for ch in res.schedule.channels)

    @pytest.mark.parametrize("m", [1, 2])
    def test_budget_equal_to_a_class_pair_cost(self, m, monkeypatch):
        prob = _desk_problem(np.random.default_rng(41), 6, m, False, True)
        prob = replace(prob, r=_class_pair_budget(prob, 8))
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=3, include_interior_levels=True)
        res = self._assert_matches_reference(prob, spec, monkeypatch)
        assert res.spend <= prob.r + 1e-9 * max(1.0, prob.r)

    def test_near_tie_rounds_up_to_the_best_value(self):
        # Row 0 is below its class maximum, yet 1.0 + 1e-17 rounds to 1.0 = 1.0 + 0.0,
        # so row 0 holds a maximiser and comes first in product order.
        row = (np.array([0.0, 1e-17]), np.array([0, 0]), np.zeros(2), np.zeros(2, dtype=bool))
        col = (np.array([1.0]), np.array([0]), np.zeros(1), np.zeros(1, dtype=bool))
        assert oracle._best_pair([row, col], 0.0)[:2] == ((0, 0), 1.0)
        assert oracle._best_pair([col, row], 0.0)[:2] == ((0, 0), 1.0)
        assert _reference_combine([row, col], 0.0)[:2] == ((0, 0), 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_synthetic_ties_match_pair_loop(self, seed):
        # Few distinct gains and tiny offsets make exact and rounding ties common.
        rng = np.random.default_rng(seed)
        channels = []
        for size in (int(rng.integers(1, 40)), int(rng.integers(1, 40))):
            classes = rng.integers(0, 6, size)
            gains = rng.choice([0.0, 0.5, 1.0, 3.0], size) + rng.choice([0.0, 1e-17, 2e-16], size)
            channels.append((gains, classes, classes * 0.25, classes % 3 == 2))
        assert oracle._best_pair(channels, 1.0) == _reference_combine(channels, 1.0)
