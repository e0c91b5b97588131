import json
from pathlib import Path

import numpy as np
import pytest

from waveplan.bundles import write_bundled_problems
from waveplan.cli import main, schedule_from_dict, schedule_to_dict
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

    def test_sweep_idempotent(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--n", "10", "--instances", "2", "--seed", "3", "--out", str(out)]) == 0
        assert _read(out1 / "sweep_instances.csv") == _read(out2 / "sweep_instances.csv")

    def test_sigmoid(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sigmoid", str(SEVEN_SIGMOID), "--out", str(out)]) == 0
        payload = json.loads(_read(out / "iterations.json"))
        assert payload["converged"] is True
        assert payload["iterations"][0]["late_deciders"] == [3]


class TestExitCodes:
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
