"""Smoke test for the benchmark: every workload, at minimal length, emits
every metric it owns, and the traced run's counts repeat exactly.

    python3 perfbench/smoke_test.py        (from the repository root)

It also runs under pytest: ``python -m pytest perfbench/smoke_test.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Latency metrics each workload owns at this commit: one per op kind that
# succeeds there. rgg_large's solves raise, so only its sweeps are timed.
OWNED = {
    "desk": ["solve_s_p50", "oracle_s_p50"],
    "rgg_mid": ["solve_s_p50", "sweep_s_p50"],
    "rgg_large": ["sweep_s_p50"],
    "sigmoid": ["sigmoid_s_p50", "oracle_s_p50"],
}
REPORTED = [
    "setup_s",
    "setup_wall_s",
    "round_s",
    "ops_per_s",
    "ops_per_s_at_ref",
    "slowdown",
    "fail_frac",
    "peak_rss_mb",
]
LAYERS = [
    "graph.spectral_decompose_s",
    "graph.decompositions_per_op",
    "graph.build_laplacian_s",
    "graph.random_geometric_graph_s",
    "problem.check_conditions_s",
    "problem.check_conditions_failures",
    "costate.eval_h_grid_s",
    "costate.eval_h_grid_evals",
    "costate.eval_h_grid_bytes_computed",
    "costate.eval_h_scalar_calls",
    "costate.eval_h_scalar_s",
    "costate.channel_profile_s",
    "bounds.bound_linear_s",
    "bounds.bound_linear_calls",
    "bounds.bound_general_s",
    "waterfill.self_s",
    "waterfill.on_set_s",
    "waterfill.on_set_calls",
    "waterfill.bisection_iters",
    "dynamics.simulate_s",
    "dynamics.simulate_calls",
    "dynamics.rk4_steps",
    "dynamics.closed_form_gain_s",
    "sigmoid.self_s",
    "sigmoid.iterations",
    "oracle.self_s",
    "oracle.candidates",
    "oracle.feasible_frac",
    "oracle.simulate_calls",
    "sweep.self_s",
]


def run(workload: str, trace: int, echo: bool = False) -> tuple[dict, dict]:
    """One minimal run: returns (report metrics name -> value, final JSON object).

    With ``echo`` the run's metric and failure lines are printed.
    """
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines:
        if echo and line.startswith(("# metric ", "# failure ")):
            print(f"{workload}: {line[2:]}")
        if line.startswith("# metric "):
            name, rest = line[len("# metric "):].split(" = ", 1)
            report[name] = float(rest.split()[0])
    return report, json.loads(lines[-1])


def check_workload(workload: str, echo: bool = False) -> None:
    report, result = run(workload, 0, echo)
    assert result["correct"] is True and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}, result
    missing = [m for m in OWNED[workload] + REPORTED if m not in report]
    assert not missing, f"{workload}: report lacks {missing}"

    traced = [run(workload, 1) for _ in range(2)]
    for report, result in traced:
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}, result
        missing = [m for m in LAYERS if m not in report]
        assert not missing, f"{workload}: traced report lacks {missing}"
    counts = [
        {m["name"]: result["metrics"][m["name"]]["value"] for m in BENCH["per_layer"] if m["unit"] != "s"}
        for _, result in traced
    ]
    assert counts[0] == counts[1], f"{workload}: counts differ between runs: {counts}"


def test_desk():
    check_workload("desk")


def test_rgg_mid():
    check_workload("rgg_mid")


def test_rgg_large():
    check_workload("rgg_large")


def test_sigmoid():
    check_workload("sigmoid")


if __name__ == "__main__":
    for name in OWNED:
        check_workload(name, echo=True)
        print(f"ok {name}")
