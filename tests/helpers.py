"""Shared instance generators for the test suite."""

from __future__ import annotations

import sys

import numpy as np

from waveplan.graph import WeightedGraph, random_geometric_graph
from waveplan.problem import CampaignProblem, Channel, CostModel, Objective
from waveplan.sweep import default_radius

K2 = WeightedGraph(n=2, edges=((1, 2, 1.0),))
P3 = WeightedGraph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0)))


def k2_problem(r: float = 0.5, T: float = 1.0) -> CampaignProblem:
    """The worked 2-node instance: p = (0, 1), b = (1, 0), unit cost and ceiling."""
    return CampaignProblem(
        graph=K2,
        channels=(Channel(b=np.array([1.0, 0.0]), cost=CostModel("linear", 1.0), u_max=1.0),),
        objective=Objective(kind="linear", p=np.array([0.0, 1.0])),
        T=T,
        r=r,
        x0=np.zeros(2),
    )


def random_connected_graph(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Random spanning tree plus a few extra edges, unit-ish weights."""
    edges = {}
    order = rng.permutation(n) + 1
    for k in range(1, n):
        i = int(order[k])
        j = int(order[int(rng.integers(0, k))])
        edges[(min(i, j), max(i, j))] = float(rng.uniform(0.5, 1.5))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        i, j = rng.choice(n, size=2, replace=False) + 1
        key = (min(int(i), int(j)), max(int(i), int(j)))
        edges.setdefault(key, float(rng.uniform(0.5, 1.5)))
    return WeightedGraph(n=n, edges=tuple((i, j, w) for (i, j), w in sorted(edges.items())))


def aligned_oracle_problem(
    rng: np.random.Generator, n_nodes: int, m: int, grid: int, T: float = 1.0
) -> CampaignProblem:
    """Desk-size instance whose budget is an exact multiple of the uniform cell cost.

    Every channel has c(u_max) = 1, so extreme candidates can exhaust the
    budget cell for cell; without that alignment, budget quantization lets
    interior levels win spuriously in the falsification suite.
    """
    graph = K2 if n_nodes == 2 else P3
    channels = []
    for _ in range(m):
        b = rng.uniform(-1.0, 1.0, size=n_nodes)
        if not np.any(b):
            b[0] = 0.5
        kind = "linear" if rng.random() < 0.5 else "power"
        a = 1.0 if kind == "linear" else float(rng.uniform(0.3, 0.9))
        channels.append(Channel(b=b, cost=CostModel(kind, 1.0, a), u_max=1.0))
    k = int(rng.integers(1, m * grid))
    return CampaignProblem(
        graph=graph,
        channels=tuple(channels),
        objective=Objective(kind="linear", p=rng.uniform(0.0, 1.0, size=n_nodes)),
        T=T,
        r=k * (T / grid),
        x0=np.zeros(n_nodes),
    )


def random_linear_problem(
    rng: np.random.Generator,
    n: int,
    geometric: bool = False,
    budget_fraction: float | None = None,
    unit_costs: bool = False,
) -> CampaignProblem:
    """Random linear-objective instance with continuous gains (nonzero reach a.s.)."""
    if geometric:
        graph, _ = random_geometric_graph(n, default_radius(n), int(rng.integers(1, 2**31)))
    else:
        graph = random_connected_graph(rng, n)
    m = int(rng.integers(1, 3))
    channels = []
    for _ in range(m):
        b = np.zeros(n)
        support = rng.choice(n, size=max(1, n // 3), replace=False)
        b[support] = rng.uniform(-1.0, 1.0, size=support.size)
        if not np.any(b):
            b[support[0]] = 0.5
        v = 1.0 if unit_costs else float(rng.uniform(0.5, 2.0))
        u_max = 1.0 if unit_costs else float(rng.uniform(0.5, 2.0))
        channels.append(Channel(b=b, cost=CostModel("linear", v), u_max=u_max))
    p = rng.uniform(0.0, 1.0, size=n)
    T = 1.0
    saturation = sum(ch.max_cost_rate for ch in channels) * T
    frac = budget_fraction if budget_fraction is not None else float(rng.uniform(0.3, 0.8))
    return CampaignProblem(
        graph=graph,
        channels=tuple(channels),
        objective=Objective(kind="linear", p=p),
        T=T,
        r=frac * saturation,
        x0=np.zeros(n),
    )


def count_calls(monkeypatch, *fns) -> dict[str, int]:
    """Calls of each of ``fns`` by name, counted in every loaded waveplan module that holds it."""
    calls = {fn.__name__: 0 for fn in fns}
    for fn in fns:

        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "waveplan" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    return calls
