"""Seeded instance ladders for the four benchmark workloads.

A workload is a fixed list of ops, built from the seed before timing
starts. One round runs every op once, in order; a run repeats whole rounds,
so every run of a workload holds the same mix of ops. Each op calls one
public waveplan function through its module attribute, so the tracer's
patches see the call. Each op also names the correctness gate its output
must pass before it counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from waveplan import bundles, graph, oracle, sigmoid, sweep, waterfill
from waveplan.problem import CampaignProblem, Channel, CostModel, Objective

import gates


@dataclass(frozen=True)
class Op:
    """One timed library call and the gate that judges its output.

    ``check(result, paired)`` returns a failure reason or None; ``paired``
    is this round's result of the op labelled ``pair``, or None.
    """

    kind: str  # solve | sigmoid | oracle | sweep; latencies report as <kind>_s_p50
    label: str
    run: Callable[[], object]
    check: Callable[[object, object], str | None]
    pair: str | None = None


DESK_INSTANCES = 96
DESK_GRID = 10  # 2**10 masks per channel: at most ~1M candidates for m = 2, under the guard
RGG_MID_SIZES = (100, 200)
RGG_MID_CHANNELS = (1, 3, 8)
RGG_MID_GRAPHS = 10  # one graph's solve cost varies ~2x with the seed; ten per cell even it out
RGG_LARGE_SIZES = (400, 1000)
RGG_LARGE_CHANNELS = 3
SIGMOID_PERTURBATIONS = 3
SIGMOID_THETA_SD = 0.05  # keeps the late-decider loop at its bundled fixed point
SIGMOID_SPEC = oracle.EnumerationSpec(switch_grid=6, max_switches_per_channel=1)


def _connected_graph(rng: np.random.Generator, n: int) -> graph.WeightedGraph:
    """Random spanning tree plus a few extra edges, weights in [0.5, 1.5]."""
    edges = {}
    order = rng.permutation(n) + 1
    for k in range(1, n):
        i, j = int(order[k]), int(order[int(rng.integers(0, k))])
        edges[(min(i, j), max(i, j))] = float(rng.uniform(0.5, 1.5))
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
        edges.setdefault((min(i, j), max(i, j)), float(rng.uniform(0.5, 1.5)))
    return graph.WeightedGraph(n=n, edges=tuple((i, j, w) for (i, j), w in sorted(edges.items())))


def desk_problem(
    rng: np.random.Generator, n: int, m: int, power: bool, binding: bool
) -> CampaignProblem:
    """Desk-size linear problem whose budget binds or is slack by construction.

    Binding instances have nonnegative gains and positive weights, so every
    signal is positive on [0, T) and all channels on exceeds any budget
    below saturation. Slack instances have mixed-sign gains and a budget
    above saturation.
    """
    channels = []
    for _ in range(m):
        b = rng.uniform(0.0, 1.0, n) if binding else rng.uniform(-1.0, 1.0, n)
        a = float(rng.uniform(0.3, 0.9)) if power else 1.0
        cost = CostModel("power" if power else "linear", float(rng.uniform(0.5, 2.0)), a)
        channels.append(Channel(b=b, cost=cost, u_max=float(rng.uniform(0.5, 2.0))))
    T = 1.0
    saturation = sum(ch.max_cost_rate for ch in channels) * T
    r = float(rng.uniform(0.2, 0.8)) * saturation if binding else 1.25 * saturation
    return CampaignProblem(
        graph=_connected_graph(rng, n),
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.05, 1.0, n)),
        T=T,
        r=r,
        x0=np.zeros(n),
    )


def rgg_problem(rng: np.random.Generator, n: int, m: int) -> CampaignProblem:
    """Geometric graph at the sweep radius, m unit-cost channels, r = 0.3 m T."""
    g, _ = graph.random_geometric_graph(n, sweep.default_radius(n), int(rng.integers(1, 2**31)))
    channels = []
    for _ in range(m):
        b = np.zeros(n)
        support = rng.choice(n, size=n // 3, replace=False)
        b[support] = rng.uniform(-1.0, 1.0, support.size)
        channels.append(Channel(b=b, cost=CostModel("linear", 1.0), u_max=1.0))
    T = 1.0
    return CampaignProblem(
        graph=g,
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, n)),
        T=T,
        r=0.3 * m * T,
        x0=np.zeros(n),
    )


def _solve_op(label: str, p: CampaignProblem, check=gates.check_solve) -> Op:
    return Op("solve", f"solve {label}", lambda: waterfill.solve(p), lambda res, _: check(p, res))


def desk(seed: int) -> list[Op]:
    """Bundled seven-agent problem plus a fixed design over n, m, cost kind and budget kind."""
    rng = np.random.default_rng([seed, 1])
    problems = [("seven_agents", bundles.seven_agent_problem())]
    for i in range(DESK_INSTANCES):
        n, m = 2 + i % 7, 1 + i % 2
        power, binding = (i // 2) % 2 == 1, (i // 4) % 2 == 0
        problems.append((f"desk{i} n={n} m={m}", desk_problem(rng, n, m, power, binding)))
    spec = oracle.EnumerationSpec(switch_grid=DESK_GRID)
    ops = []
    for label, p in problems:
        ops.append(_solve_op(label, p, gates.check_desk_solve))
        ops.append(
            Op(
                "oracle",
                f"oracle {label}",
                lambda p=p: oracle.enumerate_best(p, spec),
                lambda res, sol, p=p: gates.check_desk_oracle(p, DESK_GRID, res, sol),
                pair=f"solve {label}",
            )
        )
    return ops


def _sweep_op(n: int, instance: int, seed: int) -> Op:
    return Op(
        "sweep",
        f"sweep n={n} #{instance}",
        lambda: sweep.sweep_instance(n, instance, seed),
        lambda row, _: gates.check_sweep(n, row),
    )


def rgg_mid(seed: int) -> list[Op]:
    """Random geometric graphs, n in {100, 200} and m in {1, 3, 8}, smallest first.

    Each graph index and size also gets one bound sweep cell, so the sweep
    layer is measured here as well as on rgg_large.
    """
    ops = []
    for k in range(RGG_MID_GRAPHS):
        for n in RGG_MID_SIZES:
            for m in RGG_MID_CHANNELS:
                p = rgg_problem(np.random.default_rng([seed, 2, k, n, m]), n, m)
                ops.append(_solve_op(f"rgg{k} n={n} m={m}", p))
            ops.append(_sweep_op(n, k, seed))
    return ops


def rgg_large(seed: int) -> list[Op]:
    """Solves at n in {400, 1000}, each followed by a bound sweep cell at the same n."""
    ops = []
    for n in RGG_LARGE_SIZES:
        p = rgg_problem(np.random.default_rng([seed, 3, n]), n, RGG_LARGE_CHANNELS)
        ops.append(_solve_op(f"rgg n={n} m={RGG_LARGE_CHANNELS}", p))
        ops.append(_sweep_op(n, 0, seed))
    return ops


def sigmoid_ladder(seed: int) -> list[Op]:
    """Bundled sigmoid problem and seeded threshold perturbations, each with its oracle."""
    rng = np.random.default_rng([seed, 4])
    base = bundles.seven_agent_sigmoid_problem()
    problems = [("seven_agents_sigmoid", base)]
    for i in range(SIGMOID_PERTURBATIONS):
        theta = base.objective.theta + rng.normal(0.0, SIGMOID_THETA_SD, base.n)
        objective = dataclasses.replace(base.objective, theta=theta)
        problems.append((f"sigmoid{i}", dataclasses.replace(base, objective=objective)))
    ops = []
    for label, p in problems:
        ops.append(
            Op(
                "sigmoid",
                f"sigmoid {label}",
                lambda p=p: sigmoid.solve_sigmoid(p),
                lambda res, _, p=p: gates.check_sigmoid(p, res),
            )
        )
        ops.append(
            Op(
                "oracle",
                f"oracle {label}",
                lambda p=p: oracle.enumerate_best(p, SIGMOID_SPEC),
                lambda res, _, p=p: gates.check_sigmoid_oracle(p, res),
            )
        )
    return ops


WORKLOADS = {"desk": desk, "rgg_mid": rgg_mid, "rgg_large": rgg_large, "sigmoid": sigmoid_ladder}
