import tracemalloc

import pytest

from waveplan import sweep
from waveplan.errors import ValidationError
from waveplan.graph import MAX_AGENTS
from waveplan.sweep import run_sweep, sweep_instance


def test_one_bound_linear_pass_per_instance(monkeypatch):
    calls = []
    original = sweep.bound_linear

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sweep, "bound_linear", counting)
    row = sweep_instance(30, 2, 1)
    assert len(calls) == 1
    assert calls[0][3] == 0.0
    assert (row.bound_linear_zero, row.bound_linear_sup) == original(*calls[0])


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


@pytest.mark.parametrize("n", [0, 1, -3])
def test_rejects_fewer_than_two_nodes_before_the_radius(n):
    # The default radius takes log(n), a math domain error for n <= 0.
    with pytest.raises(ValidationError, match="at least 2 nodes"):
        sweep_instance(n, 0, 1)
