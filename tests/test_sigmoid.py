import dataclasses

import numpy as np
import pytest

from helpers import K2, count_calls, k2_problem
from waveplan.bundles import seven_agent_sigmoid_problem
from waveplan.dynamics import objective_value, simulate, terminal_state
from waveplan.errors import ContractError
from waveplan.graph import project, spectral_decompose
from waveplan.problem import CampaignProblem, Channel, CostModel, Objective, prepare, validate_problem
from waveplan.sigmoid import (
    default_epsilon,
    late_deciders,
    solve_sigmoid,
    surrogate_costate,
)
from waveplan.waterfill import BangBangSchedule, ChannelSchedule, solve_with_costate


def _sigmoid_k2(theta, r=0.5, alpha=None):
    # Non-uniform weights keep the initializer costate non-constant; a flat
    # comparison signal with a binding budget is a specified bisection error.
    alpha = np.array([2.0, 2.0]) if alpha is None else alpha
    return CampaignProblem(
        graph=K2,
        channels=(Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
        objective=Objective(kind="sigmoid", p=np.array([0.4, 0.6]), alpha=alpha, theta=np.array(theta)),
        T=1.0,
        r=r,
        x0=np.zeros(2),
    )


def _empty_traj(problem):
    schedule = BangBangSchedule(
        channels=tuple(ChannelSchedule(u_max=ch.u_max, intervals=()) for ch in problem.channels)
    )
    return simulate(problem, schedule, steps=128)


class TestLateDeciders:
    def test_all_at_threshold(self):
        prob = _sigmoid_k2([0.0, 0.0])
        traj = _empty_traj(prob)
        assert late_deciders(traj.terminal_state, prob.objective, 0.1).members == (1, 2)

    def test_all_far_from_threshold(self):
        prob = _sigmoid_k2([5.0, -5.0])
        traj = _empty_traj(prob)
        assert late_deciders(traj.terminal_state, prob.objective, 0.1).members == ()

    def test_strict_inequality(self):
        prob = _sigmoid_k2([0.5, 0.0])
        traj = _empty_traj(prob)  # terminal state is (0, 0)
        assert late_deciders(traj.terminal_state, prob.objective, 0.5).members == (2,)

    def test_requires_sigmoid(self):
        prob = k2_problem()
        traj = _empty_traj(prob)
        with pytest.raises(ContractError):
            late_deciders(traj.terminal_state, prob.objective, 0.1)

    def test_golden_membership_seven_agent(self):
        prob = seven_agent_sigmoid_problem()
        sol = solve_with_costate(prob, prob.objective.alpha * prob.objective.p / 4.0)
        traj = simulate(prob, sol.schedule, steps=4096)
        eps = default_epsilon(prob.objective)
        assert late_deciders(traj.terminal_state, prob.objective, eps).members == (3,)


class TestSurrogate:
    def test_support_and_values(self):
        obj = Objective(
            kind="sigmoid",
            p=np.array([0.2, 0.4, 0.6]),
            alpha=np.array([1.0, 2.0, 3.0]),
            theta=np.zeros(3),
        )
        lam = surrogate_costate(obj, (2,))
        assert lam[0] == 0.0 and lam[2] == 0.0
        assert lam[1] == pytest.approx(2.0 * 0.4 / 2.0)


class TestSolveSigmoid:
    def test_rejects_linear_objective(self):
        with pytest.raises(ContractError):
            solve_sigmoid(k2_problem())

    def test_unreachable_thresholds_flagged(self):
        prob = _sigmoid_k2([1e6, 1e6])
        res = solve_sigmoid(prob, epsilon=0.05, max_iters=4)
        assert res.no_late_deciders
        assert res.iterations[0].members == ()

    def test_single_agent_concentration_matches_one_hot_solve(self):
        # Calibrate agent 1's threshold onto its reachable terminal opinion so
        # it is the lone late decider; the next iterate must equal the plain
        # water-filling solve with the one-hot surrogate costate.
        probe = _sigmoid_k2([0.0, 1e3])
        init = solve_with_costate(probe, probe.objective.alpha * probe.objective.p / 4.0)
        x1 = simulate(probe, init.schedule, steps=2048).terminal_state[0]
        prob = _sigmoid_k2([float(x1), 1e3])
        res = solve_sigmoid(prob, epsilon=0.05, max_iters=3)
        assert res.iterations[0].members == (1,)
        onehot = np.array([prob.objective.alpha[0] * prob.objective.p[0] / 2.0, 0.0])
        direct = solve_with_costate(prob, onehot)
        assert res.iterations[1].beta_star == direct.beta_star
        for a, b in zip(res.solution.schedule.channels, direct.schedule.channels):
            if res.chosen_iteration == 1:
                assert a.intervals == b.intervals

    def test_seven_agent_fixed_point(self):
        prob = seven_agent_sigmoid_problem()
        res = solve_sigmoid(prob)
        assert res.converged
        assert not res.no_late_deciders
        assert res.iterations[res.chosen_iteration].members == (3,)
        assert res.objective >= res.iterations[0].objective

    def test_objective_is_exact_and_matches_rk4(self):
        prob = seven_agent_sigmoid_problem()
        res = solve_sigmoid(prob)
        schedule = res.solution.schedule
        assert res.objective == objective_value(prob.objective, terminal_state(prob, schedule))
        rk4 = objective_value(prob.objective, simulate(prob, schedule, steps=4096).terminal_state)
        assert abs(res.objective - rk4) <= 1e-13 * abs(rk4)

    def test_one_decomposition_shared_by_every_iterate(self, monkeypatch):
        calls = count_calls(monkeypatch, spectral_decompose, validate_problem, project)
        prob = _sigmoid_k2([0.3, 0.3])
        res = solve_sigmoid(prob, max_iters=3)
        assert len(res.iterations) > 1
        assert calls == {"spectral_decompose": 1, "validate_problem": 1, "project": 1}

    def test_only_the_returned_iterate_is_certified(self, monkeypatch):
        from waveplan import bounds, waterfill

        calls = {"linear_bounds": 0, "check_conditions": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(bounds, "linear_bounds", counting("linear_bounds", bounds.linear_bounds))
        monkeypatch.setattr(
            waterfill, "check_conditions", counting("check_conditions", waterfill.check_conditions)
        )
        prob = seven_agent_sigmoid_problem()
        res = solve_sigmoid(prob)
        assert len(res.iterations) > 1
        assert calls == {"linear_bounds": prob.m, "check_conditions": 1}

    @pytest.mark.parametrize("variant", ["bundle", "lower_thresholds"])
    def test_solution_is_the_chosen_iterate_solved_directly(self, variant):
        prob = seven_agent_sigmoid_problem()
        if variant == "lower_thresholds":
            # Here the loop returns iterate 1, the first late-decider surrogate.
            theta = np.array([8.8, 8.6, 3.0, 1.8, 8.3, 8.9, 8.6])
            obj = dataclasses.replace(prob.objective, theta=theta)
            prob = dataclasses.replace(prob, objective=obj, r=5.6)
        res = solve_sigmoid(prob)
        assert res.chosen_iteration == (0 if variant == "bundle" else 1)
        obj = prob.objective
        k = res.chosen_iteration
        if k == 0:
            lam = obj.alpha * obj.p / 4.0
        else:
            lam = surrogate_costate(obj, res.iterations[k - 1].members)
        direct = solve_with_costate(prepare(prob), lam)
        for f in dataclasses.fields(direct):
            assert getattr(res.solution, f.name) == getattr(direct, f.name), f.name

    def test_deterministic(self):
        prob = seven_agent_sigmoid_problem()
        r1 = solve_sigmoid(prob)
        r2 = solve_sigmoid(prob)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective

    def test_rejects_bad_config(self):
        prob = _sigmoid_k2([0.0, 0.0])
        with pytest.raises(ContractError):
            solve_sigmoid(prob, max_iters=0)
        with pytest.raises(ContractError):
            solve_sigmoid(prob, epsilon=-1.0)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "3", None])
    def test_rejects_an_iteration_count_that_is_not_an_integer(self, max_iters):
        with pytest.raises(ContractError, match="max_iters must be an integer"):
            solve_sigmoid(_sigmoid_k2([0.0, 0.0]), max_iters=max_iters)

    @pytest.mark.parametrize("epsilon", ["abc", "0.05", True, float("nan"), 0.0, -float("inf")])
    def test_rejects_an_epsilon_that_is_not_a_positive_real(self, epsilon):
        with pytest.raises(ContractError, match="^epsilon must be (a real number|finite|positive), got "):
            solve_sigmoid(_sigmoid_k2([0.0, 0.0]), epsilon=epsilon)

    def test_accepts_numpy_scalars(self):
        prob = _sigmoid_k2([0.0, 0.0])
        ref = solve_sigmoid(prob, epsilon=0.05, max_iters=3)
        res = solve_sigmoid(prob, epsilon=np.float64(0.05), max_iters=np.int64(3))
        assert res.iterations == ref.iterations and res.objective == ref.objective
