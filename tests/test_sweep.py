import tracemalloc

import numpy as np
import pytest

from waveplan import sweep
from waveplan.bounds import linear_bounds, support_bound
from waveplan.costate import projected_coefficients
from waveplan.errors import ValidationError
from waveplan.graph import MAX_AGENTS, group_support, project
from waveplan.sweep import run_sweep, sweep_instance


def test_both_bounds_come_from_one_projection(monkeypatch):
    projections = []

    def recording(sd, xs):
        projections.append((sd, xs, project(sd, xs)))
        return projections[-1][2]

    monkeypatch.setattr(sweep, "project", recording)
    row = sweep_instance(30, 2, 1)
    assert len(projections) == 1
    sd, xs, gains = projections[0]
    assert xs.tolist() == [[1.0] + [0.0] * 29]  # b is the first basis vector
    p = np.random.default_rng([1, 30, 2]).random(30)
    assert row.bound_general == support_bound(np.count_nonzero(group_support(sd, gains)))
    assert (row.bound_linear_zero, row.bound_linear_sup) == linear_bounds(projected_coefficients(sd, p, gains)[0], 0.0)


def test_rejects_no_instances():
    with pytest.raises(ValidationError, match="instance"):
        run_sweep([20], 0, 1)


def test_repeated_sizes_are_swept_once():
    rows, aggregates = run_sweep([12, 10, 12], 2, 1)
    assert [(r.n, r.instance) for r in rows] == [(12, 0), (12, 1), (10, 0), (10, 1)]
    assert [(a.n, a.instances) for a in aggregates] == [(12, 2), (10, 2)]
    assert (rows, aggregates) == run_sweep([12, 10], 2, 1)


def test_rejects_too_many_agents_before_drawing_the_graph():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"at most {MAX_AGENTS} agents"):
            sweep_instance(MAX_AGENTS + 1, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [lambda n: run_sweep([20, n], 1, 1), lambda n: sweep_instance(n, 0, 1), sweep.default_radius],
    ids=["run_sweep", "sweep_instance", "default_radius"],
)
def test_rejects_a_size_too_large_for_a_float_by_the_agent_limit(call):
    # pi * n overflowed in the default radius before the limit was checked.
    with pytest.raises(ValidationError, match=f"at most {MAX_AGENTS} agents"):
        call(10**400)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_rejects_fewer_than_two_nodes_before_the_radius(n):
    # The default radius takes log(n), a math domain error for n <= 0.
    with pytest.raises(ValidationError, match="agent count must be at least 2"):
        sweep_instance(n, 0, 1)
