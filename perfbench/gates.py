"""Correctness gates, run outside the timed interval.

Each gate takes an op's output and returns None when it is correct, or a
short reason naming the invariant it broke. An op whose output fails its
gate counts as failed and yields no timing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from waveplan import dynamics, oracle

SPEND_REL_TOL = 1e-9  # the solver's own stopping tolerance on |spend - r| / r
# RK4 at 512 steps agrees with the closed-form gain to ~1e-10 relative on
# the desk ladder (and to ~1e-14 at the default 4096), so 1e-8 leaves margin
# while a wrong gain still fails.
GAIN_STEPS = 512
GAIN_REL_TOL, GAIN_ABS_TOL = 1e-8, 1e-12


def schedule_spend(problem, schedule) -> float:
    """Budget burned by a schedule, recomputed from its intervals."""
    return float(
        sum(ch.cost(cs.u_max) * cs.on_time for ch, cs in zip(problem.channels, schedule.channels))
    )


def _within_budget(problem, spend: float) -> bool:
    return spend <= problem.r * (1.0 + SPEND_REL_TOL)


def check_solve(problem, sol) -> str | None:
    """Budget complementarity and both switch-count certificates."""
    spend = schedule_spend(problem, sol.schedule)
    if sol.binding:
        if abs(spend - problem.r) > SPEND_REL_TOL * problem.r:
            return "binding_spend_off_budget"
    elif sol.beta_star != 0.0 or spend > problem.r:
        return "slack_level_or_overspend"
    realized = sol.schedule.switch_counts(problem.T)
    for ch, cert, k in zip(problem.channels, sol.certificate, realized):
        if k > cert.bound_linear_shifted:
            return "switches_exceed_variation_bound"
        # The support bound assumes the constant mode is present, i.e. the
        # channel has nonzero total reach.
        reach = abs(float(np.sum(ch.b)))
        if reach > 1e-10 * max(1.0, float(np.linalg.norm(ch.b))) and k > cert.bound_general:
            return "switches_exceed_support_bound"
    return None


def check_desk_solve(problem, sol) -> str | None:
    """check_solve plus: the closed-form gain equals the simulated gain."""
    reason = check_solve(problem, sol)
    if reason:
        return reason
    # The system is linear, so the control's contribution is the terminal
    # state from a zero start with no drift.
    unforced = dataclasses.replace(problem, x0=np.zeros(problem.n), drift=None)
    x_T = dynamics.simulate(unforced, sol.schedule, steps=GAIN_STEPS).terminal_state
    simulated = float(problem.objective.p @ x_T)
    if not math.isclose(simulated, sol.objective_gain, rel_tol=GAIN_REL_TOL, abs_tol=GAIN_ABS_TOL):
        return "gain_differs_from_simulation"
    return None


def check_desk_oracle(problem, grid: int, res, sol) -> str | None:
    """The oracle stays in budget, and the solver is within grid_slack of it."""
    if not _within_budget(problem, schedule_spend(problem, res.schedule)):
        return "oracle_over_budget"
    if sol is not None:
        floor = res.value - oracle.grid_slack(problem, grid)
        if sol.objective_gain < floor - GAIN_ABS_TOL:
            return "solver_below_oracle"
    return None


def _resimulated_value(problem, schedule, steps: int) -> float:
    x_T = dynamics.simulate(problem, schedule, steps=steps).terminal_state
    return dynamics.objective_value(problem.objective, x_T)


def check_sigmoid(problem, res) -> str | None:
    """The schedule stays in budget and re-simulates to the reported objective."""
    if not _within_budget(problem, schedule_spend(problem, res.solution.schedule)):
        return "sigmoid_over_budget"
    # solve_sigmoid simulates at the default 4096 steps too, so this repeats
    # its arithmetic exactly.
    value = _resimulated_value(problem, res.solution.schedule, 4096)
    if not math.isclose(value, res.objective, rel_tol=1e-12, abs_tol=1e-15):
        return "sigmoid_objective_not_reproduced"
    return None


def check_sigmoid_oracle(problem, res) -> str | None:
    """The best candidate stays in budget and re-simulates to the reported value."""
    if not _within_budget(problem, schedule_spend(problem, res.schedule)):
        return "oracle_over_budget"
    if res.feasible_count < 1 or res.feasible_count > res.candidate_count:
        return "oracle_counts_inconsistent"
    # The sigmoid branch scores candidates with 256-step simulations.
    value = _resimulated_value(problem, res.schedule, 256)
    if not math.isclose(value, res.value, rel_tol=1e-12, abs_tol=1e-15):
        return "oracle_value_not_reproduced"
    return None


def check_sweep(n: int, row) -> str | None:
    """Sweep bounds are in range and the sup over levels covers level zero."""
    if row.n != n or not (0 <= row.bound_general <= n - 1):
        return "support_bound_out_of_range"
    if not (0 <= row.bound_linear_zero <= row.bound_linear_sup):
        return "variation_sup_below_level_zero"
    if not (row.eigenvalue_gap > 0.0):
        return "nonpositive_eigenvalue_gap"
    return None
