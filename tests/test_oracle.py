import numpy as np
import pytest

from itertools import product

from helpers import K2, P3, aligned_oracle_problem as _aligned_problem, k2_problem
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
