"""Per-layer tracing for the benchmark, installed from outside the program.

Each traced public function is replaced, in every ``waveplan`` module that
holds a reference to it, by a wrapper that records a span: its name, its
duration and the time its child spans covered. Spans are folded into
per-name totals as they close, so a long run keeps constant memory. A
span's self time is its duration minus the time of its direct children.
Counts are recorded at the same boundaries from the call's arguments and
return value. Nothing in ``src/`` changes; the wrappers are removed again
when the ``installed()`` context exits.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Bytes eval_h materialises per (point, mode) on a grid call: the
# (t - T) * rate block, its exp and the product with the coefficients,
# each float64. Computed from array sizes, not measured.
EVAL_H_BYTES_PER_EVAL = 3 * 8

ORACLE_SPAN = "oracle.enumerate_best"
EVAL_H_SCALAR, EVAL_H_GRID = "costate.eval_h_scalar", "costate.eval_h_grid"


def _eval_h_span(args, kwargs) -> str:
    t = args[1] if len(args) > 1 else kwargs["t"]
    # isinstance first: crossing refinement makes ~1k scalar calls per solve.
    return EVAL_H_SCALAR if isinstance(t, float) or np.ndim(t) == 0 else EVAL_H_GRID


def _count_grid_evals(tracer, name, args, kwargs, result) -> None:
    if name == EVAL_H_GRID:
        tracer.counts["eval_h_grid_evals"] += np.size(result) * len(args[0].rates)


def _count_bisection(tracer, name, args, kwargs, result) -> None:
    # The first trace entry is the level-zero probe, not a bisection step.
    tracer.counts["bisection_iters"] += len(result.bisection_trace) - 1


def _count_simulation(tracer, name, args, kwargs, result) -> None:
    tracer.counts["rk4_steps"] += len(result.times) - 1
    if any(frame[0] == ORACLE_SPAN for frame in tracer.stack):
        tracer.counts["oracle_simulate_calls"] += 1


def _count_candidates(tracer, name, args, kwargs, result) -> None:
    tracer.counts["oracle_candidates"] += result.candidate_count
    tracer.counts["oracle_feasible"] += result.feasible_count


def _count_iterations(tracer, name, args, kwargs, result) -> None:
    tracer.counts["sigmoid_iterations"] += len(result.iterations)


# (defining module, public function, span name or namer, observer)
TRACED = (
    ("waveplan.graph", "build_laplacian", "graph.build_laplacian", None),
    ("waveplan.graph", "spectral_decompose", "graph.spectral_decompose", None),
    ("waveplan.graph", "random_geometric_graph", "graph.random_geometric_graph", None),
    ("waveplan.problem", "check_conditions", "problem.check_conditions", None),
    ("waveplan.costate", "channel_profile", "costate.channel_profile", None),
    ("waveplan.costate", "eval_h", _eval_h_span, _count_grid_evals),
    ("waveplan.bounds", "bound_general", "bounds.bound_general", None),
    ("waveplan.bounds", "bound_linear", "bounds.bound_linear", None),
    ("waveplan.waterfill", "on_set", "waterfill.on_set", None),
    ("waveplan.waterfill", "solve_with_costate", "waterfill.solve_with_costate", _count_bisection),
    ("waveplan.dynamics", "simulate", "dynamics.simulate", _count_simulation),
    ("waveplan.dynamics", "closed_form_gain", "dynamics.closed_form_gain", None),
    ("waveplan.sigmoid", "solve_sigmoid", "sigmoid.solve_sigmoid", _count_iterations),
    ("waveplan.oracle", "enumerate_best", ORACLE_SPAN, _count_candidates),
    ("waveplan.sweep", "sweep_instance", "sweep.sweep_instance", None),
)


class Tracer:
    """Span and count totals for the rounds run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _wrap(self, span, observe, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(self, name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function in every loaded waveplan module; undo on exit."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "waveplan" or name.startswith("waveplan."))
        ]
        patches = []
        for module_name, attr, span, observe in TRACED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                # A later refactor may remove a function; its metrics then read 0.
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, observe, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)


def _per_op(x: float, ops: int) -> float:
    return x / ops if ops else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, normalised per traced op: name -> (value, unit).

    Times are self seconds per op; counts are per op, and they repeat
    exactly from run to run because a run measures whole rounds of the
    same deterministic ops.
    """
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    candidates = c["oracle_candidates"]
    values = {
        "graph.spectral_decompose_s": (s["graph.spectral_decompose"], "s"),
        "graph.decompositions_per_op": (calls["graph.spectral_decompose"], "count"),
        "graph.build_laplacian_s": (s["graph.build_laplacian"], "s"),
        "graph.random_geometric_graph_s": (s["graph.random_geometric_graph"], "s"),
        "problem.check_conditions_s": (s["problem.check_conditions"], "s"),
        "problem.check_conditions_failures": (tracer.raised["problem.check_conditions"], "count"),
        "costate.eval_h_grid_s": (s[EVAL_H_GRID], "s"),
        "costate.eval_h_grid_evals": (c["eval_h_grid_evals"], "count"),
        "costate.eval_h_grid_bytes_computed": (
            c["eval_h_grid_evals"] * EVAL_H_BYTES_PER_EVAL,
            "bytes",
        ),
        "costate.eval_h_scalar_calls": (calls[EVAL_H_SCALAR], "count"),
        "costate.eval_h_scalar_s": (s[EVAL_H_SCALAR], "s"),
        "costate.channel_profile_s": (s["costate.channel_profile"], "s"),
        "bounds.bound_linear_s": (s["bounds.bound_linear"], "s"),
        "bounds.bound_linear_calls": (calls["bounds.bound_linear"], "count"),
        "bounds.bound_general_s": (s["bounds.bound_general"], "s"),
        "waterfill.self_s": (s["waterfill.solve_with_costate"], "s"),
        "waterfill.on_set_s": (s["waterfill.on_set"], "s"),
        "waterfill.on_set_calls": (calls["waterfill.on_set"], "count"),
        "waterfill.bisection_iters": (c["bisection_iters"], "count"),
        "dynamics.simulate_s": (s["dynamics.simulate"], "s"),
        "dynamics.simulate_calls": (calls["dynamics.simulate"], "count"),
        "dynamics.rk4_steps": (c["rk4_steps"], "count"),
        "dynamics.closed_form_gain_s": (s["dynamics.closed_form_gain"], "s"),
        "sigmoid.self_s": (s["sigmoid.solve_sigmoid"], "s"),
        "sigmoid.iterations": (c["sigmoid_iterations"], "count"),
        "oracle.self_s": (s[ORACLE_SPAN], "s"),
        "oracle.candidates": (candidates, "count"),
        "oracle.simulate_calls": (c["oracle_simulate_calls"], "count"),
        "sweep.self_s": (s["sweep.sweep_instance"], "s"),
    }
    out = {name: (_per_op(v, ops), unit) for name, (v, unit) in values.items()}
    # A ratio of totals, not a per-op figure; 0 where no oracle ran.
    out["oracle.feasible_frac"] = (
        c["oracle_feasible"] / candidates if candidates else 0.0,
        "fraction",
    )
    return out
