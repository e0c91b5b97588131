"""Approximate allocation for the separable sigmoid objective via late deciders.

The sigmoid costate concentrates on agents whose terminal opinion lands near
their threshold. The loop alternates: take the candidate schedule's exact
terminal state (``dynamics.terminal_state``, from the one ``Prepared``
problem that every iterate reads), reclassify the late deciders, rebuild
the surrogate costate (alpha_j * p_j / 2 on the set, zero off it), and re-run the
water-filling engine. The true sigmoid objective arbitrates, so the
approximation is never adopted blind. Only the iterate that is returned
gets a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import objective_value, terminal_state
from .costate import _terminal_state
from .errors import ContractError, _int_fault, _real_fault, _require
from .problem import CampaignProblem, Objective, Prepared, prepare
from .waterfill import WaterfillSolution, _certified, _schedule


@dataclass(frozen=True)
class LateDeciderSet:
    """Agents (1-based) whose terminal opinion lies within epsilon of their threshold."""

    epsilon: float
    members: tuple[int, ...]


@dataclass(frozen=True)
class IterationRecord:
    index: int
    members: tuple[int, ...]
    beta_star: float
    spend: float
    objective: float


@dataclass(frozen=True)
class SigmoidSolution:
    solution: WaterfillSolution
    objective: float
    chosen_iteration: int
    iterations: tuple[IterationRecord, ...]
    converged: bool
    no_late_deciders: bool


def late_deciders(x_T: np.ndarray, obj: Objective, epsilon: float) -> LateDeciderSet:
    """Classify the terminal state x_T by the strict inequality |x_j(T) - theta_j| < epsilon."""
    if obj.kind != "sigmoid":
        raise ContractError("late deciders are defined for the sigmoid objective")
    _require(ContractError, _real_fault(epsilon, "epsilon", "positive"))
    gap = np.abs(_terminal_state(obj, x_T) - obj.theta)
    members = tuple(int(j + 1) for j in np.flatnonzero(gap < epsilon))
    return LateDeciderSet(epsilon=float(epsilon), members=members)


def surrogate_costate(obj: Objective, members: tuple[int, ...]) -> np.ndarray:
    """Costate supported on the late-decider set: alpha_j p_j / 2 there, 0 elsewhere."""
    lam = np.zeros_like(obj.p)
    idx = [j - 1 for j in members]
    lam[idx] = obj.alpha[idx] * obj.p[idx] / 2.0
    return lam


def default_epsilon(obj: Objective) -> float:
    """0.05 times the threshold scale, floored at 0.05 for all-zero thresholds."""
    return 0.05 * max(float(np.median(np.abs(obj.theta))), 1.0)


def solve_sigmoid(
    problem: CampaignProblem | Prepared,
    epsilon: float | None = None,
    max_iters: int = 10,
) -> SigmoidSolution:
    """Iterate the late-decider surrogate to consistency and keep the best iterate.

    Iteration 0 linearizes every sigmoid at its threshold (slope alpha_i
    p_i / 4); subsequent iterations use the surrogate supported on the
    current late-decider set (alpha_j p_j / 2, the factor-2 gap to the slope
    is deliberate). The loop stops when a late-decider set repeats or
    max_iters is reached, and the returned iterate is the one with the best
    true sigmoid objective at the iterate's exact terminal state. An empty
    late-decider set ends the loop with the ``no_late_deciders`` flag
    raised, since the surrogate is uninformative there.

    Every iterate gets a schedule, but only the returned one gets the
    certificate of ``solve_with_costate`` (gain, conditions and switch
    bounds), so only its certificate can raise NumericalError.
    """
    prep = prepare(problem)
    obj = prep.problem.objective
    if obj.kind != "sigmoid":
        raise ContractError("solve_sigmoid requires the sigmoid objective")
    eps = default_epsilon(obj) if epsilon is None else epsilon
    _require(ContractError, _int_fault(max_iters, "max_iters", 1), _real_fault(eps, "epsilon", "positive"))

    drafts = []  # schedule half of every iterate
    records: list[IterationRecord] = []
    seen: list[tuple[int, ...]] = []
    converged = no_late = False
    lam = obj.alpha * obj.p / 4.0
    for k in range(max_iters + 1):
        draft = _schedule(prep, lam)
        _, beta_star, schedule, spend, _ = draft
        x_T = terminal_state(prep, schedule)
        members = late_deciders(x_T, obj, eps).members
        drafts.append(draft)
        records.append(
            IterationRecord(
                index=k,
                members=members,
                beta_star=float(beta_star),
                spend=float(spend),
                objective=objective_value(obj, x_T),
            )
        )
        if len(members) == 0:
            no_late = True
            break
        if members in seen:
            converged = True
            break
        seen.append(members)
        lam = surrogate_costate(obj, members)

    best = max(range(len(records)), key=lambda i: (records[i].objective, -i))
    return SigmoidSolution(
        solution=_certified(prep, *drafts[best]),
        objective=records[best].objective,
        chosen_iteration=best,
        iterations=tuple(records),
        converged=converged,
        no_late_deciders=no_late,
    )
