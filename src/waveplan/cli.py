"""Command-line front end: problem ingestion, solves, sweeps, and CSV/JSON artifacts.

Exit status: 0 on success, 2 on validation findings or malformed input,
3 on numerical failure. All randomness flows from the --seed flag; no
command reads ambient entropy or the clock, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import bounds
from .costate import projected_coefficients
from .dynamics import objective_value, simulate
from .errors import ContractError, NumericalError, ValidationError, _int_fault, _require
from .graph import _entries_fault, _reject_booleans
from .oracle import INTERIOR_LEVELS, EnumerationSpec, enumerate_best, grid_slack
from .problem import CampaignProblem, check_conditions, prepare, problem_from_dict, require_valid
from .sigmoid import solve_sigmoid
from .sweep import SweepAggregate, SweepRow, run_sweep
from .waterfill import BangBangSchedule, ChannelSchedule, WaterfillSolution, solve


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _write_records(path: Path, cls, records) -> None:
    """One CSV column per dataclass field, in field order."""
    _write_csv(path, [f.name for f in fields(cls)], (astuple(rec) for rec in records))


def _load_json(path: str, what: str):
    """The JSON document in the ``what`` file at ``path``; a missing, unreadable or malformed file raises ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}")


def _load_problem(path: str) -> CampaignProblem:
    """The problem in a JSON file, not yet validated: ``prepare`` validates it."""
    return problem_from_dict(_load_json(path, "problem"))


def schedule_to_dict(schedule: BangBangSchedule, T: float) -> dict:
    return {
        "T": T,
        "channels": [
            {"u_max": cs.u_max, "on_intervals": [[lo, hi] for lo, hi in cs.intervals]}
            for cs in schedule.channels
        ],
    }


def schedule_from_dict(d: dict) -> BangBangSchedule:
    """A schedule from its JSON form; a ``ContractError`` from building it becomes a ``ValidationError``. Its ``"T"`` is not read."""
    _reject_booleans(d, "schedule")
    try:
        channels = tuple(ChannelSchedule(u_max=c["u_max"], intervals=c["on_intervals"]) for c in d["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed schedule object: {exc}") from exc
    return BangBangSchedule(channels=channels)


def _summary_dict(problem: CampaignProblem, sol: WaterfillSolution) -> dict:
    return {
        "beta_star": sol.beta_star,
        "spend": sol.spend,
        "budget": problem.r,
        "binding": sol.binding,
        "objective_gain": sol.objective_gain,
        "structure_certified": sol.structure_certified,
        "certificate": [asdict(c) for c in sol.certificate],
    }


def _cmd_solve(args) -> int:
    _require(ValidationError, _int_fault(args.plot_points, "--plot-points", 2))
    problem = _load_problem(args.problem)
    # The widest plot array holds one column per eigenvalue group, at most n.
    _require(ValidationError, _entries_fault(args.plot_points, "--plot-points", args.plot_points, problem.n))
    prep = prepare(problem)
    problem, sd = prep.problem, prep.sd
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sol = solve(prep)
    _write_json(out / "schedule.json", schedule_to_dict(sol.schedule, problem.T))
    _write_json(out / "summary.json", _summary_dict(problem, sol))
    if args.emit_plot_data:
        ts = np.linspace(0.0, problem.T, args.plot_points)
        coeffs = projected_coefficients(sd, problem.objective.p, prep.gains)
        hcols, gcols = [], []
        for ch, row in zip(problem.channels, coeffs):
            # h and g = kappa h, each time's terms summed pairwise over the row's
            # nonzero modes only: the sum's bits depend on how many terms it has.
            keep = row != 0.0
            modes = np.exp(np.multiply.outer(ts - problem.T, sd.group_rates[keep]))
            kappa = ch.u_max / ch.max_cost_rate
            hcols.append(np.sum(modes * row[keep], axis=-1))
            gcols.append(np.sum(modes * (kappa * row[keep]), axis=-1))
        _write_csv(
            out / "profiles.csv",
            ["t"] + [f"h_{k + 1}" for k in range(problem.m)],
            ([float(t)] + [float(c[i]) for c in hcols] for i, t in enumerate(ts)),
        )
        header = ["t"] + [f"g_{k + 1}" for k in range(problem.m)] + ["beta"]
        rows = (
            [float(t)] + [float(c[i]) for c in gcols] + [sol.beta_star]
            for i, t in enumerate(ts)
        )
        _write_csv(out / "waterline.csv", header, rows)
        _write_csv(
            out / "bisection.csv",
            ["beta", "spend"],
            ([float(b), float(s)] for b, s in sol.bisection_trace),
        )
    print(f"beta_star={_fmt(sol.beta_star)} spend={_fmt(sol.spend)} binding={sol.binding}")
    return 0


def _cmd_simulate(args) -> int:
    # Simulation steps the dense system: it needs no decomposition.
    problem = _load_problem(args.problem)
    require_valid(problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.schedule:
        payload = _load_json(args.schedule, "schedule")
        schedule = schedule_from_dict(payload)
        if payload.get("T") != problem.T:
            raise ValidationError(f"schedule file is for T = {payload.get('T')!r}, problem has T = {problem.T}")
    else:
        schedule = BangBangSchedule(channels=tuple(ChannelSchedule(ch.u_max, ()) for ch in problem.channels))
    traj = simulate(problem, schedule, steps=args.steps)
    header = ["t"] + [f"x_{k + 1}" for k in range(problem.n)] + ["spend"]
    rows = (
        [float(traj.times[i])] + [float(v) for v in traj.states[i]] + [float(traj.spend_accum[i])]
        for i in range(traj.times.size)
    )
    _write_csv(out / "trajectory.csv", header, rows)
    value = objective_value(problem.objective, traj.terminal_state)
    print(f"terminal objective={_fmt(value)} spend={_fmt(float(traj.spend_accum[-1]))}")
    return 0


def _cmd_bounds(args) -> int:
    prep = prepare(_load_problem(args.problem))
    problem = prep.problem
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if problem.objective.kind == "linear":
        # The solve's certificate holds the whole report at the water level.
        sol = solve(prep)
        beta_star = sol.beta_star
        rows = [
            (c.channel, c.bound_general, c.bound_linear_shifted, c.bound_linear_sup, c.threshold_shift)
            for c in sol.certificate
        ]
    else:
        # No water level: no at-threshold bound, and the sup needs no shift.
        # Both bounds are read as the certificate reads them.
        beta_star = None
        coeffs = projected_coefficients(prep.sd, problem.objective.p, prep.gains)
        rows = []
        for cond, row in zip(check_conditions(prep), coeffs):
            sup = bounds.linear_bounds(row, 0.0)[1]
            rows.append((cond.channel, bounds.support_bound(cond.controllability_rank), None, sup, None))
    keys = ("channel", "bound_general", "bound_linear_at_threshold", "bound_linear_sup", "threshold_shift")
    _write_json(
        out / "bounds.json",
        {"beta_star": beta_star, "channels": [dict(zip(keys, row)) for row in rows]},
    )
    print(f"wrote bounds for {problem.m} channels")
    return 0


def _cmd_oracle(args) -> int:
    prep = prepare(_load_problem(args.problem))
    problem = prep.problem
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = EnumerationSpec(
        switch_grid=args.grid,
        max_switches_per_channel=args.cap,
        interior_levels=INTERIOR_LEVELS if args.interior else (),
    )
    result = enumerate_best(prep, spec)
    payload = {
        "oracle_value": result.value,
        "oracle_spend": result.spend,
        "feasible_candidates": result.feasible_count,
        "candidate_count": result.candidate_count,
        "best_extreme_value": result.best_extreme_value,
        "best_interior_value": result.best_interior_value,
        "oracle_schedule": schedule_to_dict(result.schedule, problem.T),
    }
    if problem.objective.kind == "linear":
        sol = solve(prep)
        slack = grid_slack(prep, args.grid)
        payload.update(
            {
                "waterfill_gain": sol.objective_gain,
                "difference": sol.objective_gain - result.value,
                "grid_slack": slack,
            }
        )
    _write_json(out / "oracle.json", payload)
    print(f"oracle value={_fmt(result.value)} over {result.feasible_count} feasible candidates")
    return 0


def _parse_range(text: str) -> list[int]:
    sep = ":" if ":" in text else ","
    try:
        parts = [int(v) for v in text.split(sep)]
    except ValueError:
        raise ValidationError(f"sizes must be integers, got {text!r}") from None
    if sep == ":":
        if len(parts) != 3:
            raise ValidationError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = parts
        if step == 0:
            raise ValidationError(f"range step must be nonzero, got {text!r}")
        parts = list(range(start, stop + (1 if step > 0 else -1), step))  # stop inclusive
        if not parts:
            raise ValidationError(f"range {text!r} is empty")
    return parts


def _cmd_sweep(args) -> int:
    ns = _parse_range(args.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, aggregates = run_sweep(ns, args.instances, args.seed, radius=args.radius)
    _write_records(out / "sweep_instances.csv", SweepRow, rows)
    _write_records(out / "sweep_aggregate.csv", SweepAggregate, aggregates)
    print(f"swept n={[a.n for a in aggregates]} with {args.instances} instances each")
    return 0


def _cmd_sigmoid(args) -> int:
    prep = prepare(_load_problem(args.problem))
    problem = prep.problem
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = solve_sigmoid(prep, epsilon=args.epsilon, max_iters=args.max_iters)
    _write_json(out / "schedule.json", schedule_to_dict(result.solution.schedule, problem.T))
    _write_json(
        out / "iterations.json",
        {
            "chosen_iteration": result.chosen_iteration,
            "objective": result.objective,
            "converged": result.converged,
            "no_late_deciders": result.no_late_deciders,
            "iterations": [
                {
                    "index": rec.index,
                    "late_deciders": list(rec.members),
                    "beta_star": rec.beta_star,
                    "spend": rec.spend,
                    "objective": rec.objective,
                }
                for rec in result.iterations
            ],
        },
    )
    flag = " [no late deciders — surrogate uninformative]" if result.no_late_deciders else ""
    print(f"objective={_fmt(result.objective)} at iteration {result.chosen_iteration}{flag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveplan",
        description="Optimal influence-budget schedules over consensus networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="water-filling solve of a linear-objective problem")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.add_argument("--emit-plot-data", action="store_true")
    sp.add_argument("--plot-points", type=int, default=1024)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("simulate", help="integrate the dynamics under a schedule")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.add_argument("--schedule", default=None)
    sp.add_argument("--steps", type=int, default=4096)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("bounds", help="switch-count bound report per channel")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("oracle", help="brute-force enumeration versus the solver")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", type=int, default=10)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--interior", action="store_true")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sweep", help="switch-bound sweep over random geometric graphs")
    sp.add_argument("--n", required=True, help="sizes as start:stop:step or comma list")
    sp.add_argument("--instances", type=int, default=50)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("sigmoid", help="late-decider surrogate loop for sigmoid objectives")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--max-iters", type=int, default=10)
    sp.set_defaults(func=_cmd_sigmoid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
