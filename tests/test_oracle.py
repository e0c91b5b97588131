import sys
from collections import OrderedDict
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from helpers import K2, P3, aligned_oracle_problem as _aligned_problem, count_calls, k2_problem, random_connected_graph
from oracles import per_cell_schedule
from waveplan import costate, dynamics, graph, oracle
from waveplan.bundles import seven_agent_problem, seven_agent_sigmoid_problem
from waveplan.dynamics import objective_value, simulate
from waveplan.errors import ContractError, ValidationError
from waveplan.oracle import INTERIOR_LEVELS, EnumerationSpec, enumerate_best, grid_slack
from waveplan.problem import CampaignProblem, Channel, CostModel, Drift, Objective, prepare
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
            switch_grid=16, max_switches_per_channel=16, interior_levels=INTERIOR_LEVELS
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


def _fresh_table(g, cap, levels):
    """A channel's candidate table built from the reference masks: what the cached tables must equal."""
    masks = _reference_masks(g, cap)
    level = np.array(levels)
    rows = masks.shape[0]
    on_cells = masks.sum(axis=1)
    on_counts = np.repeat(on_cells, level.size)
    return oracle._CandidateTable(
        masks=masks,
        on_cells=on_cells,
        levels=np.tile(level, rows),
        interior=(on_counts > 0) & np.tile(level < 1.0, rows),
        mask_of=np.repeat(np.arange(rows), level.size),
        classes=(on_cells.astype(np.intp)[:, None] * level.size + np.arange(level.size)).ravel(),
    )


class TestScheduleFromIndices:
    @pytest.mark.parametrize("g", range(2, 11))
    def test_runs_equal_merged_per_cell_intervals(self, g):
        # Every mask, the all-on and all-off ones included, at the extreme and one interior level.
        problem = replace(k2_problem(), T=2.9)
        tables = [oracle._candidate_table(g, g - 1, (1.0, 0.5))]
        assert tables[0].masks.shape[0] == 2**g
        edges = dynamics._grid(problem.T, g)
        for i in range(tables[0].levels.size):
            expected = per_cell_schedule(problem, tables, edges, (i,))
            assert oracle._schedule_from_indices(problem, tables, edges, (i,)) == expected


def _table_bytes():
    return sum(arr.nbytes for table in oracle._tables.values() for arr in table)


LEVEL_SETTINGS = [(1.0,), (1.0,) + INTERIOR_LEVELS]


class TestCandidateTables:
    @pytest.mark.parametrize("g", range(2, 13))
    def test_cached_tables_equal_a_fresh_build(self, g, monkeypatch):
        monkeypatch.setattr(oracle, "_tables", OrderedDict())
        for cap, levels in product(range(g), LEVEL_SETTINGS):
            fresh = _fresh_table(g, cap, levels)
            built = oracle._candidate_table(g, cap, levels)
            cached = oracle._candidate_table(g, cap, levels)
            assert cached is built
            assert built.masks.shape[0] == oracle._mask_count(g, cap)
            for name, want in zip(oracle._CandidateTable._fields, fresh):
                got = getattr(cached, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_tables_are_read_only(self):
        table = oracle._candidate_table(5, 2, LEVEL_SETTINGS[1])
        for arr in table:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]

    def test_cache_stays_within_its_byte_bound(self, monkeypatch):
        monkeypatch.setattr(oracle, "_tables", OrderedDict())
        monkeypatch.setattr(oracle, "_TABLE_CACHE_BYTES", 2_000_000)
        for g in range(2, 13):
            for cap in range(g):
                oracle._candidate_table(g, cap, (1.0,))
                assert _table_bytes() <= 2_000_000
        assert len(oracle._tables) > 1
        assert next(reversed(oracle._tables)) == (12, 11, (1.0,))  # the latest is kept
        # A table larger than the bound is built for its call but not kept.
        levels = (1.0,) + tuple(k / 25 for k in range(1, 25))
        big = oracle._candidate_table(12, 11, levels)
        assert sum(arr.nbytes for arr in big) > 2_000_000
        assert (12, 11, levels) not in oracle._tables and _table_bytes() <= 2_000_000

    @pytest.mark.parametrize(
        "make, spec",
        [
            (lambda rng: _desk_problem(rng, 3, 1, False, True), EnumerationSpec(switch_grid=10)),
            (
                lambda rng: _desk_problem(rng, 6, 2, True, True),
                EnumerationSpec(switch_grid=8, max_switches_per_channel=2, interior_levels=INTERIOR_LEVELS),
            ),
            (lambda rng: seven_agent_sigmoid_problem(), EnumerationSpec(switch_grid=6, max_switches_per_channel=1)),
        ],
        ids=["desk-m1", "desk-m2-interior", "sigmoid-bundle"],
    )
    def test_cold_and_warm_tables_give_identical_results(self, make, spec, monkeypatch):
        prob = make(np.random.default_rng(43))
        monkeypatch.setattr(oracle, "_tables", OrderedDict())
        cold = enumerate_best(prob, spec)
        assert oracle._tables
        warm = enumerate_best(prob, spec)
        for field in oracle.OracleResult.__dataclass_fields__:
            assert getattr(cold, field) == getattr(warm, field), field

    def test_costs_are_the_tiled_product(self, monkeypatch):
        # Each candidate's spend is its level's cost rate x cell width x its on-cell count.
        prob = _sigmoid_problem(np.random.default_rng(47), P3, 2)
        spec = EnumerationSpec(switch_grid=5, max_switches_per_channel=2, interior_levels=INTERIOR_LEVELS)
        calls = []
        enumerate_sigmoid = oracle._enumerate_sigmoid
        monkeypatch.setattr(oracle, "_enumerate_sigmoid", lambda *args: calls.append(args) or enumerate_sigmoid(*args))
        enumerate_best(prob, spec)
        ((_, tables, costs, _, _),) = calls
        levels = np.array((1.0,) + spec.interior_levels)
        delta = prob.T / spec.switch_grid
        for t, cost, ch in zip(tables, costs, prob.channels):
            rates = np.array([ch.cost(lvl * ch.u_max) for lvl in levels])
            want = np.tile(rates * delta, t.masks.shape[0]) * np.repeat(t.masks.sum(axis=1), levels.size)
            assert np.array_equal(cost, want)


class TestEnumerateBest:
    def test_k2_matches_waterfill_within_slack(self):
        prob = k2_problem()
        res = enumerate_best(prob, EnumerationSpec(switch_grid=8))
        sol = solve(prob)
        slack = grid_slack(prob, 8)
        assert res.schedule.channels[0].intervals == ((0.0, 0.5),)
        assert sol.objective_gain >= res.value - slack
        assert abs(sol.objective_gain - res.value) <= 1e-3
        assert res.value >= sol.objective_gain - slack - 1e-12 * max(1.0, abs(sol.objective_gain))

    def test_zero_budget_all_off(self):
        # A budget must be positive; this one buys no cell, as a zero budget would.
        prob = k2_problem(r=1e-12)
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
                switch_grid=8, max_switches_per_channel=8, interior_levels=INTERIOR_LEVELS
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
        spec = EnumerationSpec(switch_grid=4, interior_levels=(1.5,))
        with pytest.raises(ContractError, match="interior levels"):
            enumerate_best(k2_problem(), spec)

    @pytest.mark.parametrize("levels", [(), (0.5,), INTERIOR_LEVELS])
    def test_interior_value_is_none_exactly_without_levels(self, levels):
        res = enumerate_best(k2_problem(), EnumerationSpec(switch_grid=4, interior_levels=levels))
        assert (res.best_interior_value is None) == (levels == ())
        extreme = enumerate_best(k2_problem(), EnumerationSpec(switch_grid=4))
        assert res.candidate_count == extreme.candidate_count * (1 + len(levels))

    @pytest.mark.parametrize("grid", [4.5, 4.0, True, "4"])
    def test_rejects_non_integer_switch_grid(self, grid):
        with pytest.raises(ContractError, match="switch_grid must be an integer"):
            enumerate_best(k2_problem(), EnumerationSpec(switch_grid=grid))
        with pytest.raises(ContractError, match="switch_grid must be an integer"):
            grid_slack(k2_problem(), grid)

    @pytest.mark.parametrize("cap", [1.5, 1.0, True, False])
    def test_rejects_non_integer_cap(self, cap):
        with pytest.raises(ContractError, match="switch cap must be an integer"):
            enumerate_best(k2_problem(), EnumerationSpec(switch_grid=4, max_switches_per_channel=cap))

    def test_accepts_numpy_integers(self):
        prob = k2_problem()
        ints = EnumerationSpec(switch_grid=4, max_switches_per_channel=1)
        numpy_ints = EnumerationSpec(switch_grid=np.int64(4), max_switches_per_channel=np.int32(1))
        assert enumerate_best(prob, numpy_ints) == enumerate_best(prob, ints)
        assert grid_slack(prob, np.int64(4)) == grid_slack(prob, 4)


def _loop_enumerate_sigmoid(prep, tables, costs, edges, budget):
    """One 256-step simulate per feasible candidate, in product order: the unbatched reference."""
    problem = prep.problem
    m = problem.m
    best_val, best_idx, best_extreme, best_interior = -np.inf, None, -np.inf, -np.inf
    feasible = 0
    for idx in product(*(range(c.size) for c in costs)):
        if sum(costs[k][idx[k]] for k in range(m)) > budget:
            continue
        feasible += 1
        schedule = oracle._schedule_from_indices(problem, tables, edges, idx)
        val = objective_value(problem.objective, simulate(problem, schedule, steps=256).terminal_state)
        if val > best_val:
            best_val, best_idx = val, idx
        if any(tables[k].interior[idx[k]] for k in range(m)):
            best_interior = max(best_interior, val)
        else:
            best_extreme = max(best_extreme, val)
    return best_idx, best_val, feasible, best_extreme, best_interior


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

    def spy(prep, edges, tables, feasible):
        values = score(prep, edges, tables, feasible)
        calls.append((edges, tables, feasible, values))
        return values

    monkeypatch.setattr(oracle, "_score_sigmoid", spy)
    result = enumerate_best(prob, spec)
    ((edges, tables, feasible, values),) = calls
    schedules = [oracle._schedule_from_indices(prob, tables, edges, idx) for idx in zip(*feasible)]
    return result, schedules, values


def _stepped(prob, schedule):
    return objective_value(prob.objective, simulate(prob, schedule, steps=oracle.SIGMOID_STEPS).terminal_state)


def _optional_edges(prob, g):
    return np.flatnonzero(oracle._cell_maps(prepare(prob), np.linspace(0.0, prob.T, g + 1))[2])


class TestTransferMapScoring:
    # (name, problem, spec, indices into the inner edges that must be optional)
    CASES = [
        ("m1", lambda rng: _map_problem(rng, 1), EnumerationSpec(switch_grid=5, max_switches_per_channel=3), [0, 1, 2, 3]),
        ("m2", lambda rng: _map_problem(rng, 2), EnumerationSpec(switch_grid=5, max_switches_per_channel=1), [0, 1, 2, 3]),
        (
            "interior",
            lambda rng: _map_problem(rng, 2, n=2),
            EnumerationSpec(
                switch_grid=3, max_switches_per_channel=1, interior_levels=(0.5,)
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
        # No k / 7 is a multiple of 1 / 256: every inner edge is optional.
        (
            "all_optional",
            lambda rng: _map_problem(rng, 2),
            EnumerationSpec(switch_grid=7, max_switches_per_channel=1),
            [0, 1, 2, 3, 4, 5],
        ),
        # Breakpoints on the uniform node below edge 0 (0.2) and above edge 1
        # (0.4): core 0 ends and core 1 starts where the drift changes.
        (
            "drift_on_core_end",
            lambda rng: _map_problem(rng, 1, x0=True, breakpoints=[51 / 256, 103 / 256]),
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
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=2, interior_levels=INTERIOR_LEVELS)
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
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=2, interior_levels=INTERIOR_LEVELS)
        _, schedules, values = _scored_candidates(prob, spec, monkeypatch)
        for i in range(0, len(schedules), 997):
            stepped = _stepped(prob, schedules[i])
            assert abs(values[i] - stepped) <= 1e-13 * abs(stepped)


def _patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` in every loaded waveplan module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "waveplan" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


class TestSpectralWork:
    # (name, problem, spec, projected_coefficients calls, group_support calls)
    CASES = [
        ("linear", lambda rng: _desk_problem(rng, 5, 2, False, True), EnumerationSpec(switch_grid=6), 1, 1),
        (
            "linear-capped",
            lambda rng: _desk_problem(rng, 4, 1, True, True),
            EnumerationSpec(switch_grid=6, max_switches_per_channel=2),
            1,
            0,
        ),
        ("sigmoid-capped", lambda rng: _map_problem(rng, 1), EnumerationSpec(switch_grid=4, max_switches_per_channel=1), 0, 0),
        ("sigmoid-uncapped", lambda rng: _map_problem(rng, 2), EnumerationSpec(switch_grid=4), 0, 1),
    ]

    @staticmethod
    def _count(monkeypatch):
        """Count decompositions, projections and their readers."""
        return count_calls(
            monkeypatch, graph.spectral_decompose, graph.project, costate.projected_coefficients, graph.group_support
        )

    @pytest.mark.parametrize("name,make,spec,coefficients,projections", CASES, ids=[c[0] for c in CASES])
    def test_enumerate_best_decomposes_once(self, name, make, spec, coefficients, projections, monkeypatch):
        prob = make(np.random.default_rng(5))
        calls = self._count(monkeypatch)
        enumerate_best(prob, spec)
        assert calls == {
            "spectral_decompose": 1,
            "project": 1,
            "projected_coefficients": coefficients,
            "group_support": projections,
        }

    def test_grid_slack_decomposes_once(self, monkeypatch):
        prob = seven_agent_problem()
        calls = self._count(monkeypatch)
        grid_slack(prob, 10)
        # One certified solve: its conditions read the support masks once.
        assert calls == {"spectral_decompose": 1, "project": 1, "projected_coefficients": 1, "group_support": 1}

    def test_sigmoid_oracle_never_steps_the_dynamics(self, monkeypatch):
        prob = seven_agent_sigmoid_problem()
        spec = EnumerationSpec(switch_grid=6, max_switches_per_channel=1)
        want = enumerate_best(prob, spec)
        for fn in (dynamics._rk4, dynamics.simulate):
            _patch_everywhere(monkeypatch, fn, _refuse)
        assert enumerate_best(prob, spec) == want


class TestProblemValidation:
    def _bundle_with(self, **changes):
        prob = seven_agent_problem()
        if "b" in changes:
            b = prob.channels[1].b.copy()
            b[3] = changes.pop("b")
            changes["channels"] = (prob.channels[0], replace(prob.channels[1], b=b))
        return replace(prob, **changes)

    @pytest.mark.parametrize(
        "changes, finding",
        [
            (dict(b=np.nan), "channel 2: gain vector has non-finite entries"),
            (dict(T=np.nan), "horizon T must be finite"),
            (dict(r=0.0), "budget must be positive"),
        ],
        ids=["nan-gain", "nan-horizon", "zero-budget"],
    )
    def test_enumerate_best_and_grid_slack_name_the_field(self, changes, finding):
        prob = self._bundle_with(**changes)
        with pytest.raises(ValidationError, match=finding):
            enumerate_best(prob, EnumerationSpec(switch_grid=10))
        with pytest.raises(ValidationError, match=finding):
            grid_slack(prob, 10)

    @pytest.mark.parametrize("grid", [0, -3, 1, 17])
    def test_grid_slack_rejects_grid_outside_enumeration_range(self, grid):
        with pytest.raises(ContractError, match="switch_grid must lie in \\[2, 16\\]"):
            grid_slack(seven_agent_problem(), grid)

    def test_grid_slack_accepts_the_range_ends(self):
        prob = seven_agent_problem()
        assert grid_slack(prob, 2) > grid_slack(prob, 16) > 0.0
        for grid in (2, 16):
            assert grid_slack(prob, grid) == pytest.approx(_reference_slack(prob, grid), rel=1e-12)

    def test_grid_slack_requires_the_linear_objective(self):
        with pytest.raises(ContractError, match="linear objective"):
            grid_slack(seven_agent_sigmoid_problem(), 6)


def _reference_slack(prob, grid):
    """The grid-slack bound, switch by switch in Python floats, from a solve and its coefficients.

    Each switch t_s in (0, T) of channel k adds Delta (beta* q_k + u_max_k
    (Delta / 2) H'_k(min(t_s + Delta, T))), with H'_k(t) = sum_g |d_kg|
    rate_g exp(rate_g (t - T)); a channel over its support bound adds its
    gain instead. The rounding allowance 2 (N + 5 + rate_max T) eps M, with
    N = m (grid + G)(G + 1) and M = sum_k u_max_k sum_g |d_kg| T, comes last.
    """
    prep = prepare(prob)
    sol = solve(prep)
    coeffs = costate.projected_coefficients(prep.sd, prob.objective.p, prep.gains)
    rates = prep.sd.group_rates.tolist()
    T, delta = prob.T, prob.T / grid
    total = 0.0
    for ch, row, cs, cert in zip(prob.channels, coeffs.tolist(), sol.schedule.channels, sol.certificate):
        if cert.realized_switches > cert.bound_general:
            gains = (costate.integrate_h(prep.sd.group_rates, np.array(row), T, lo, hi) for lo, hi in cs.intervals)
            total += ch.u_max * sum(gains)
            continue
        for t in (t for iv in cs.intervals for t in iv if 0.0 < t < T):
            end = min(t + delta, T)
            slope = sum(abs(d) * rate * np.exp(rate * (end - T)) for d, rate in zip(row, rates))
            total += delta * (sol.beta_star * ch.max_cost_rate + ch.u_max * 0.5 * delta * slope)
    size = T * sum(ch.u_max * sum(abs(d) for d in row) for ch, row in zip(prob.channels, coeffs.tolist()))
    products = prob.m * (grid + len(rates)) * (len(rates) + 1)
    return total + 2.0 * (products + 5.0 + max(rates) * T) * sys.float_info.epsilon * size


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
        EnumerationSpec(switch_grid=6, interior_levels=INTERIOR_LEVELS),
        EnumerationSpec(switch_grid=8, max_switches_per_channel=2, interior_levels=INTERIOR_LEVELS),
        EnumerationSpec(switch_grid=9, max_switches_per_channel=1),
        EnumerationSpec(switch_grid=7, max_switches_per_channel=0, interior_levels=INTERIOR_LEVELS),
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

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"g{s.switch_grid}c{s.max_switches_per_channel}i{int(bool(s.interior_levels))}")
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
        # A budget must be positive; this one buys no cell, as a zero budget would.
        prob = replace(_desk_problem(np.random.default_rng(37), 5, m, True, True), r=1e-12)
        res = self._assert_matches_reference(prob, self.SPECS[1], monkeypatch)
        assert res.spend == 0.0 and all(ch.intervals == () for ch in res.schedule.channels)

    @pytest.mark.parametrize("m", [1, 2])
    def test_budget_equal_to_a_class_pair_cost(self, m, monkeypatch):
        prob = _desk_problem(np.random.default_rng(41), 6, m, False, True)
        prob = replace(prob, r=_class_pair_budget(prob, 8))
        spec = EnumerationSpec(switch_grid=8, max_switches_per_channel=3, interior_levels=INTERIOR_LEVELS)
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
