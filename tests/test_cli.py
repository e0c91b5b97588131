import json
from pathlib import Path

import numpy as np
import pytest

from helpers import count_calls
from waveplan.bounds import linear_bounds
from waveplan.bundles import write_bundled_problems
from waveplan.cli import main, schedule_from_dict, schedule_to_dict
from waveplan.errors import ValidationError
from waveplan.graph import project, spectral_decompose
from waveplan.problem import validate_problem
from waveplan.waterfill import BangBangSchedule, ChannelSchedule

ROOT = Path(__file__).resolve().parents[1]
SEVEN = ROOT / "problems" / "seven_agents.json"
SEVEN_SIGMOID = ROOT / "problems" / "seven_agents_sigmoid.json"


def _read(path: Path) -> str:
    return path.read_text()


class TestScheduleFormat:
    def test_round_trip(self):
        schedule = BangBangSchedule(
            channels=(
                ChannelSchedule(u_max=1.5, intervals=((0.0, 0.25), (0.5, 1.0))),
                ChannelSchedule(u_max=2.0, intervals=()),
            )
        )
        assert schedule_from_dict(schedule_to_dict(schedule, 1.0)) == schedule

    def test_touching_and_empty_intervals_are_read_as_the_control(self):
        d = {"T": 1.0, "channels": [{"u_max": 1.5, "on_intervals": [[0.0, 0.25], [0.25, 0.5], [0.75, 0.75]]}]}
        channels = schedule_to_dict(schedule_from_dict(d), 1.0)["channels"]
        assert channels == [{"u_max": 1.5, "on_intervals": [[0.0, 0.5]]}]


class TestBundledProblems:
    def test_committed_files_match_generators(self, tmp_path):
        paths = write_bundled_problems(tmp_path)
        for path in paths:
            committed = ROOT / "problems" / path.name
            assert _read(committed) == _read(path)


class TestSolveCommand:
    def test_writes_summary_and_schedule(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", str(SEVEN), "--out", str(out)]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["binding"] is True
        assert summary["spend"] == pytest.approx(11.0, abs=1e-5)
        schedule = json.loads(_read(out / "schedule.json"))
        assert len(schedule["channels"]) == 2

    def test_emit_plot_data(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", str(SEVEN), "--out", str(out), "--emit-plot-data"]) == 0
        header = _read(out / "waterline.csv").splitlines()[0]
        assert header == "t,g_1,g_2,beta"
        assert (out / "bisection.csv").exists()

    def test_idempotent_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["solve", str(SEVEN), "--out", str(out), "--emit-plot-data"]) == 0
        for name in ("summary.json", "schedule.json", "waterline.csv", "bisection.csv"):
            assert _read(out1 / name) == _read(out2 / name)

    @pytest.mark.parametrize("flags", [[], ["--emit-plot-data"]], ids=["solve", "plot-data"])
    def test_sigmoid_problem_exits_2(self, flags, tmp_path, capsys):
        assert main(["solve", str(SEVEN_SIGMOID), "--out", str(tmp_path / "run")] + flags) == 2
        assert capsys.readouterr().err == (
            "error: water-filling solve requires the linear objective; use solve_sigmoid for the sigmoid kind\n"
        )
        assert not any((tmp_path / "run").iterdir())


class TestSimulateCommand:
    def test_empty_schedule_conserves_mean(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", str(SEVEN), "--out", str(out), "--steps", "256"]) == 0
        lines = _read(out / "trajectory.csv").splitlines()
        assert lines[0].split(",")[:2] == ["t", "x_1"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        means = rows[:, 1:8].mean(axis=1)
        assert np.max(np.abs(means - means[0])) <= 1e-10

    def test_with_solved_schedule(self, tmp_path):
        run = tmp_path / "solve"
        assert main(["solve", str(SEVEN), "--out", str(run)]) == 0
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    str(SEVEN),
                    "--schedule",
                    str(run / "schedule.json"),
                    "--out",
                    str(out),
                    "--steps",
                    "256",
                ]
            )
            == 0
        )
        last = _read(out / "trajectory.csv").splitlines()[-1]
        spend = float(last.split(",")[-1])
        assert spend == pytest.approx(11.0, abs=1e-6)


def _assert_oracle_within_slack(payload):
    """The proven direction: the oracle is within grid_slack of the solve, up to rounding."""
    gain = payload["waterfill_gain"]
    assert payload["oracle_value"] >= gain - payload["grid_slack"] - 1e-12 * max(1.0, abs(gain))


class TestOtherCommands:
    def test_bounds(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bounds", str(SEVEN), "--out", str(out)]) == 0
        payload = json.loads(_read(out / "bounds.json"))
        assert len(payload["channels"]) == 2
        for row in payload["channels"]:
            assert row["bound_general"] <= 6

    def test_oracle(self, tmp_path):
        out = tmp_path / "run"
        assert main(["oracle", str(SEVEN), "--out", str(out), "--grid", "6"]) == 0
        payload = json.loads(_read(out / "oracle.json"))
        assert payload["waterfill_gain"] >= payload["oracle_value"] - payload["grid_slack"]
        _assert_oracle_within_slack(payload)

    def test_oracle_default_grid_runs_on_the_bundle(self, tmp_path):
        out = tmp_path / "run"
        assert main(["oracle", str(SEVEN), "--out", str(out)]) == 0
        payload = json.loads(_read(out / "oracle.json"))
        assert payload["waterfill_gain"] >= payload["oracle_value"] - payload["grid_slack"]
        _assert_oracle_within_slack(payload)

    def test_oracle_idempotent(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["oracle", str(SEVEN), "--out", str(out), "--grid", "10"]) == 0
        assert _read(out1 / "oracle.json") == _read(out2 / "oracle.json")

    def test_sweep(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--n", "10,15", "--instances", "3", "--seed", "1", "--out", str(out)]) == 0
        lines = _read(out / "sweep_instances.csv").splitlines()
        assert len(lines) == 1 + 6
        agg = _read(out / "sweep_aggregate.csv").splitlines()
        assert len(agg) == 1 + 2

    def test_sweep_descending_range_includes_stop(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--n", "30:10:-10", "--instances", "1", "--seed", "1", "--out", str(out)]) == 0
        assert "swept n=[30, 20, 10]" in capsys.readouterr().out
        agg = _read(out / "sweep_aggregate.csv").splitlines()
        assert [line.split(",")[0] for line in agg[1:]] == ["30", "20", "10"]

    def test_sweep_idempotent(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--n", "10", "--instances", "2", "--seed", "3", "--out", str(out)]) == 0
        assert _read(out1 / "sweep_instances.csv") == _read(out2 / "sweep_instances.csv")

    def test_sweep_negative_seed_names_the_seed_passed(self, tmp_path, capsys):
        # The graph seeds are derived from --seed; the error names the value given, not a derived one.
        assert main(["sweep", "--n", "20", "--instances", "1", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: base_seed must be at least 0, got -1\n"

    def test_sigmoid(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sigmoid", str(SEVEN_SIGMOID), "--out", str(out)]) == 0
        payload = json.loads(_read(out / "iterations.json"))
        assert payload["converged"] is True
        assert payload["iterations"][0]["late_deciders"] == [3]


class TestPreparesOnce:
    """Every command validates its problem once, and decomposes and projects it at most once.

    The sweep has no problem file: it decomposes and projects once per
    instance, here two sizes with two instances each, and reads both
    bounds from that one projection.
    """

    @pytest.mark.parametrize(
        "argv, validated, spectral",
        [
            (["solve", str(SEVEN)], 1, 1),
            (["solve", str(SEVEN), "--emit-plot-data"], 1, 1),
            (["oracle", str(SEVEN)], 1, 1),
            (["bounds", str(SEVEN)], 1, 1),
            (["bounds", str(SEVEN_SIGMOID)], 1, 1),
            (["sigmoid", str(SEVEN_SIGMOID)], 1, 1),
            (["simulate", str(SEVEN), "--steps", "256"], 1, 0),
            (["sweep", "--n", "20:40:20", "--instances", "2"], 0, 4),
        ],
        ids=["solve", "plot-data", "oracle", "bounds", "bounds-sigmoid", "sigmoid", "simulate", "sweep"],
    )
    def test_decomposes_once(self, argv, validated, spectral, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, validate_problem, spectral_decompose, project)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert calls == {"validate_problem": validated, "spectral_decompose": spectral, "project": spectral}


class TestBoundsCommandWork:
    """``waveplan bounds`` decomposes once and runs one bound pass per channel."""

    @staticmethod
    def _count(monkeypatch):
        return count_calls(monkeypatch, spectral_decompose, linear_bounds)

    def test_linear_problem_reuses_the_solve_certificate(self, tmp_path, monkeypatch):
        calls = self._count(monkeypatch)
        assert main(["bounds", str(SEVEN), "--out", str(tmp_path)]) == 0
        assert calls == {"spectral_decompose": 1, "linear_bounds": 2}
        payload = json.loads(_read(tmp_path / "bounds.json"))
        summary_dir = tmp_path / "solve"
        assert main(["solve", str(SEVEN), "--out", str(summary_dir)]) == 0
        summary = json.loads(_read(summary_dir / "summary.json"))
        assert payload["beta_star"] == summary["beta_star"]
        for row, cert in zip(payload["channels"], summary["certificate"], strict=True):
            assert row["bound_linear_at_threshold"] == cert["bound_linear_shifted"]
            assert row["bound_linear_sup"] == cert["bound_linear_sup"]
            assert row["threshold_shift"] == cert["threshold_shift"]

    def test_sigmoid_problem_has_no_level(self, tmp_path, monkeypatch):
        calls = self._count(monkeypatch)
        assert main(["bounds", str(SEVEN_SIGMOID), "--out", str(tmp_path)]) == 0
        assert calls == {"spectral_decompose": 1, "linear_bounds": 2}
        payload = json.loads(_read(tmp_path / "bounds.json"))
        assert payload["beta_star"] is None
        for row in payload["channels"]:
            assert row["bound_linear_at_threshold"] is None
            assert row["threshold_shift"] is None
            assert row["bound_linear_sup"] >= 0


class _Edited:
    """The bundled seven-agent problem with the field at ``path`` set to ``value``.

    ``write`` saves it as JSON and returns the file's path; an infinite
    value is written as 1e400, which JSON parsers read as inf.
    """

    def __init__(self, value, *path):
        self.value, self.path = value, path

    def write(self, tmp_path: Path) -> str:
        payload = json.loads(_read(SEVEN))
        target = payload
        for key in self.path[:-1]:
            target = target[key]
        target[self.path[-1]] = self.value
        out = tmp_path / "edited.json"
        out.write_text(json.dumps(payload).replace("Infinity", "1e400"))
        return str(out)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "20:60:0"],
            ["sweep", "--n", "abc"],
            ["sweep", "--n", "60:20:20"],
            ["sweep", "--n", "20", "--instances", "0"],
            ["sweep", "--n", "20", "--radius", "-1"],
            ["sweep", "--n", "0", "--instances", "1"],
            ["sweep", "--n", "1" + "0" * 400],
            ["solve", str(SEVEN), "--emit-plot-data", "--plot-points", "-1"],
            # Counts whose arrays would pass 2 GiB, rejected before they are allocated.
            ["simulate", str(SEVEN), "--steps", "1" + "0" * 30],
            ["simulate", str(SEVEN), "--steps", "100000000000"],
            ["solve", str(SEVEN), "--emit-plot-data", "--plot-points", "1" + "0" * 30],
            ["solve", str(SEVEN), "--emit-plot-data", "--plot-points", "100000000000"],
            ["solve", _Edited("abc", "T")],
            ["solve", _Edited("x", "channels", 0, "u_max")],
            ["solve", _Edited("a", "channels", 0, "b", 2)],
            ["solve", _Edited(float("inf"), "T")],
            ["solve", _Edited(float("inf"), "channels", 0, "cost", "v")],
            ["solve", _Edited([1.5, 2, 1.0], "graph", "edges", 0)],
            ["solve", _Edited(7.9, "graph", "n")],
            ["solve", _Edited(2**63, "graph", "n")],
            ["solve", _Edited(True, "T")],
            ["solve", _Edited(True, "r")],
            ["solve", _Edited(True, "channels", 0, "u_max")],
            ["solve", _Edited(True, "channels", 0, "b", 2)],
            ["solve", _Edited(False, "objective", "p", 0)],
            ["solve", _Edited(True, "graph", "edges", 0, 0)],
        ],
        ids=[
            "zero-step", "non-integer", "empty-range", "no-instances", "negative-radius", "zero-nodes",
            "n-401-digits",
            "plot-points",
            "steps-31-digits", "steps-1e11", "plot-points-31-digits", "plot-points-1e11",
            "T-not-a-number", "u_max-not-a-number", "b-entry-not-a-number", "T-1e400", "v-1e400",
            "fractional-edge-index", "fractional-n", "n-2**63",
            "T-true", "r-true", "u_max-true", "b-entry-true", "p-entry-false", "edge-index-true",
        ],
    )
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        argv = [a.write(tmp_path) if isinstance(a, _Edited) else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("channels", 0, "u_max"), float("nan")),
            (("channels", 0, "u_max"), float("inf")),
            (("channels", 0, "u_max"), -1.0),
            (("channels", 0, "u_max"), True),
            (("channels", 1, "on_intervals", 0, 1), True),
            (("channels", 1, "on_intervals"), [[0.5, 0.7], [0.6, 0.9]]),
            (("channels", 1, "on_intervals"), [[3.0, 4.0], [0.5, 2.0]]),
            (("T",), 5.0),
            (("T",), None),
        ],
        ids=[
            "u_max-nan", "u_max-1e400", "u_max-negative", "u_max-true", "interval-end-true",
            "intervals-overlapping", "intervals-unsorted", "T-mismatch", "T-null",
        ],
    )
    def test_bad_schedule_file_exits_2(self, path, value, tmp_path, capsys):
        schedule = schedule_to_dict(
            BangBangSchedule(
                channels=(
                    ChannelSchedule(u_max=1.0, intervals=((0.0, 1.0),)),
                    ChannelSchedule(u_max=1.0, intervals=((0.5, 2.0),)),
                )
            ),
            10.0,
        )
        target = schedule
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "schedule.json"
        bad.write_text(json.dumps(schedule).replace("Infinity", "1e400"))
        argv = ["simulate", str(SEVEN), "--schedule", str(bad), "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        # A boolean fails the JSON parse, a bad u_max or interval the schedule's construction,
        # and a T other than the problem's the check that simulate runs on the file.
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schedule" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_Edited(10**400, "T"), "horizon T must be finite, got inf"),
            (_Edited(10**400, "r"), "budget must be finite, got inf"),
            (_Edited(-(10**400), "channels", 0, "u_max"), "u_max must be finite, got -inf"),
            (_Edited(10**400, "channels", 0, "cost", "v"), "cost rate v must be finite, got inf"),
            (_Edited(10**400, "objective", "p", 0), "malformed problem object"),
            (_Edited(10**400, "channels", 0, "b", 2), "malformed problem object"),
            (_Edited(10**400, "graph", "edges", 0, 2), "edges must be (i, j, weight) triples of numbers"),
            (_Edited(10**400, "graph", "edges", 0, 1), "edges must be (i, j, weight) triples of numbers"),
        ],
        ids=["T", "r", "u_max", "v", "p-entry", "b-entry", "edge-weight", "edge-index"],
    )
    def test_integer_too_large_for_a_float_exits_2(self, edit, message, tmp_path, capsys):
        # A scalar reads as +-inf and fails validation; an array entry or an edge is malformed.
        assert main(["solve", edit.write(tmp_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "command, source, path, message",
        [
            ("solve", SEVEN, ("T",), "malformed problem object: missing or bad field '10.0' is not a number"),
            ("solve", SEVEN, ("channels", 0, "b"), "malformed problem object"),
            ("solve", SEVEN, ("objective", "p"), "malformed problem object"),
            ("solve", SEVEN, ("x0",), "malformed problem object"),
            ("sigmoid", SEVEN_SIGMOID, ("objective", "alpha"), "malformed problem object"),
            ("sigmoid", SEVEN_SIGMOID, ("objective", "theta"), "malformed problem object"),
            ("sigmoid", SEVEN_SIGMOID, ("drift",), "malformed problem object"),
        ],
        ids=["scalar-T", "gain-vector", "weight-vector", "x0", "alpha", "theta", "drift"],
    )
    def test_numbers_written_as_strings_exit_2(self, command, source, path, message, tmp_path, capsys):
        # JSON strings are not numbers, even where Python or numpy would parse them as one.
        def as_strings(value):
            if isinstance(value, dict):
                return {key: as_strings(v) for key, v in value.items()}
            return [as_strings(v) for v in value] if isinstance(value, list) else str(value)

        payload = json.loads(_read(source))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = as_strings(target[path[-1]])
        problem = tmp_path / "strings.json"
        problem.write_text(json.dumps(payload))
        assert main([command, str(problem), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "kind, message",
        [("missing", "schedule file not found"), ("truncated", "malformed JSON in"), ("directory", "cannot read")],
    )
    def test_unreadable_schedule_file_exits_2(self, kind, message, tmp_path, capsys):
        schedule = tmp_path / "schedule.json"
        if kind == "truncated":
            schedule.write_text('{"T": 10.0, "channels": [{"u_max"')
        elif kind == "directory":
            schedule.mkdir()
        argv = ["simulate", str(SEVEN), "--schedule", str(schedule), "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": [,]}')
        assert main(["solve", str(bad), "--out", str(tmp_path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_validation_findings(self, tmp_path):
        payload = json.loads(_read(SEVEN))
        payload["r"] = 0.0
        bad = tmp_path / "zero_budget.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", str(bad), "--out", str(tmp_path)]) == 2

    def test_numerical_failure_code(self, tmp_path):
        # Uniform weights flatten the comparison signal; with a binding
        # budget the bisection cannot meet the budget and reports failure.
        payload = json.loads(_read(SEVEN))
        payload["objective"]["p"] = [0.1] * 7
        payload["channels"] = [payload["channels"][0]]
        payload["r"] = 5.0
        bad = tmp_path / "flat.json"
        bad.write_text(json.dumps(payload))
        assert main(["solve", str(bad), "--out", str(tmp_path)]) == 3
