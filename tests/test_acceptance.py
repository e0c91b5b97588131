"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion prints a single PASS/FAIL line (run with -s to see them
live); the runtime limits are asserted alongside the numerical checks.
"""

import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from helpers import aligned_oracle_problem, k2_problem, random_linear_problem
from oracles import adjoint_check, count_exp_poly_zeros, h_at
from waveplan.bundles import seven_agent_problem, seven_agent_sigmoid_problem
from waveplan.costate import projected_coefficients
from waveplan.dynamics import simulate
from waveplan.graph import build_laplacian, project, random_geometric_graph, spectral_decompose
from waveplan.oracle import INTERIOR_LEVELS, EnumerationSpec, enumerate_best, grid_slack
from waveplan.problem import CampaignProblem, Drift
from waveplan.sigmoid import default_epsilon, late_deciders, solve_sigmoid, surrogate_costate
from waveplan.sweep import default_radius, run_sweep
from waveplan.waterfill import solve, solve_with_costate


@contextmanager
def criterion(num: int, text: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d}: FAIL — {text}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS — {text} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget: {elapsed:.1f}s"


def test_criterion_1_k2_closed_form():
    with criterion(1, "K2 closed-form solve", 1.0):
        sol = solve(k2_problem())
        assert sol.beta_star == pytest.approx(0.5 - 0.5 * np.exp(-1.0), abs=1e-9)
        (interval,) = sol.schedule.channels[0].intervals
        assert interval[0] == pytest.approx(0.0, abs=1e-9)
        assert interval[1] == pytest.approx(0.5, abs=1e-9)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence on 20 random instances", 120.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            prob = random_linear_problem(rng, int(rng.integers(2, 5)))
            wf = solve(prob)
            rounding = 1e-12 * max(1.0, abs(wf.objective_gain))
            coarse = enumerate_best(prob, EnumerationSpec(switch_grid=12))
            assert wf.objective_gain >= coarse.value - grid_slack(prob, 12)
            assert coarse.value >= wf.objective_gain - grid_slack(prob, 12) - rounding
            refined = enumerate_best(prob, EnumerationSpec(switch_grid=16))
            assert wf.objective_gain >= refined.value - 1e-3
            assert refined.value >= wf.objective_gain - grid_slack(prob, 16) - rounding


def test_criterion_3_bang_bang_falsification():
    with criterion(3, "no interior level beats the best extreme schedule", 300.0):
        rng = np.random.default_rng(3033)
        for _ in range(20):
            prob = aligned_oracle_problem(
                rng, int(rng.choice([2, 3])), int(rng.integers(1, 3)), grid=8
            )
            res = enumerate_best(
                prob,
                EnumerationSpec(
                    switch_grid=8, max_switches_per_channel=8, interior_levels=INTERIOR_LEVELS
                ),
            )
            assert res.best_interior_value is not None
            assert res.best_interior_value <= res.best_extreme_value + 1e-9


def test_criterion_4_switch_bound_conformance():
    with criterion(4, "switch bounds hold on 200 geometric instances", 600.0):
        rng = np.random.default_rng(42)
        for k in range(200):
            n = (10, 20, 50)[k % 3]
            prob = random_linear_problem(
                rng, n, geometric=True, budget_fraction=0.5, unit_costs=True
            )
            sol = solve(prob)
            for cert in sol.certificate:
                assert cert.realized_switches <= cert.bound_linear_shifted <= n - 1
                assert cert.realized_switches <= cert.bound_general


def test_criterion_5_bound_sweep_growth():
    with criterion(5, "sweep: support bound grows, variation bound stays flat", 600.0):
        ns = [20, 60, 100, 140, 200]
        _, aggregates = run_sweep(ns, instances=50, base_seed=1)
        general = [a.mean_bound_general for a in aggregates]
        sup = [a.mean_bound_linear_sup for a in aggregates]
        assert all(lo < hi for lo, hi in zip(general, general[1:]))
        assert sup[-1] <= 20.0
        assert (sup[-1] - sup[0]) <= 0.5 * (general[-1] - general[0])


def test_criterion_6_seven_agent_waterline():
    with criterion(6, "7-agent campaign: reach early, targeting late", 5.0):
        prob = seven_agent_problem()
        sol = solve(prob)
        assert sol.binding
        assert sol.spend == pytest.approx(11.0, abs=1e-5)

        sd = spectral_decompose(build_laplacian(prob.graph))
        coeffs = projected_coefficients(sd, prob.objective.p, project(sd, [ch.b for ch in prob.channels]))
        g1, g2 = (
            partial(h_at, sd.group_rates, row * (ch.u_max / ch.max_cost_rate), prob.T)
            for ch, row in zip(prob.channels, coeffs)
        )
        ts = np.linspace(0.0, prob.T, 4096)
        diff = g1(ts) - g2(ts)

        iv1 = sol.schedule.channels[0].intervals
        iv2 = sol.schedule.channels[1].intervals
        ordered = max(e for _, e in iv1) <= min(s for s, _ in iv2) + 1e-9
        crossings = int(np.sum((diff[:-1] > 0) != (diff[1:] > 0)))
        single_cross = crossings == 1 and diff[0] > 0 and diff[-1] < 0
        assert ordered or single_cross

        ratio0 = g1(0.0) / g2(0.0)
        assert ratio0 == pytest.approx(2.0, rel=0.10)
        assert g1(prob.T) == pytest.approx(0.17, abs=1e-12)
        assert g2(prob.T) == pytest.approx(0.99, abs=1e-12)


def test_criterion_7_costate_cross_check():
    with criterion(7, "spectral h vs backward adjoint integration", 60.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 21))
            graph, _ = random_geometric_graph(
                n, default_radius(max(n, 5)) + 0.2, int(rng.integers(1, 2**31))
            )
            lap = build_laplacian(graph)
            sd = spectral_decompose(lap)
            lam = rng.uniform(0.0, 1.0, n)
            b = rng.uniform(-1.0, 1.0, n)
            grid = np.linspace(0.0, 1.0, 4097)
            traj = adjoint_check(lap, lam, grid)
            row = projected_coefficients(sd, lam, project(sd, b[None, :]))[0]
            assert np.max(np.abs(traj @ b - h_at(sd.group_rates, row, 1.0, grid))) <= 1e-8


def test_criterion_8_open_loop_invariance():
    with criterion(8, "schedules bitwise invariant to x0 and drift", 30.0):
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob = random_linear_problem(rng, 8)
            base = solve(prob)
            perturbed = CampaignProblem(
                graph=prob.graph,
                channels=prob.channels,
                objective=prob.objective,
                T=prob.T,
                r=prob.r,
                x0=rng.normal(size=8),
                drift=Drift(
                    breakpoints=np.array([0.0, 0.3, 0.7]), values=rng.normal(size=(3, 8))
                ),
            )
            again = solve(perturbed)
            assert again.beta_star == base.beta_star
            for a, b in zip(again.schedule.channels, base.schedule.channels):
                assert a.intervals == b.intervals


def test_criterion_9_lemma_oracles():
    with criterion(9, "zero counts never exceed the lemma bounds", 60.0):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            rates = np.sort(rng.uniform(0.0, 5.0, size=k))
            while k > 1 and np.min(np.diff(rates)) < 1e-3:
                rates = np.sort(rng.uniform(0.0, 5.0, size=k))
            if rng.random() < 0.5:
                rates[0] = 0.0
            coeffs = rng.normal(size=k)
            zeros = count_exp_poly_zeros(rates, coeffs, (-12.0, 0.0), resolution=2048)
            partial = np.cumsum(coeffs)
            signs = [1 if v > 0 else -1 for v in partial if abs(v) > 1e-12]
            variation_bound = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert zeros <= variation_bound
            assert zeros <= k - 1


def test_criterion_10_sigmoid_loop_sanity():
    with criterion(10, "sigmoid surrogate loop improves and stabilizes", 60.0):
        prob = seven_agent_sigmoid_problem()
        res = solve_sigmoid(prob)
        assert res.objective >= res.iterations[0].objective
        chosen = res.iterations[res.chosen_iteration]
        assert chosen.members != ()
        lam = surrogate_costate(prob.objective, chosen.members)
        sol = solve_with_costate(prob, lam)
        traj = simulate(prob, sol.schedule, steps=4096)
        eps = default_epsilon(prob.objective)
        extra = late_deciders(traj.terminal_state, prob.objective, eps).members
        assert extra == chosen.members
