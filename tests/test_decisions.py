"""``scripts/decisions.py --compare`` on synthetic outputs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OLD = [
    "solve a n=2\tbeta_star=0x1.0000000000000p+0 spend=0x1.8000000000000p+1 binding=True "
    "schedule.channels[0].intervals[0][0]=0x0.0p+0 schedule.channels[1].intervals[0][0]=0x1.0000000000000p-1",
    "solve b n=3\tbeta_star=0x1.0000000000000p+1 spend=-0x0.0p+0 binding=False note='a b c'",
    "oracle a n=2\tvalue=0x1.0000000000000p+2 best_interior_value=None",
    "oracle c n=4\traises ValidationError: too many candidates",
]


def _compare(tmp_path, new):
    old_file, new_file = tmp_path / "old.txt", tmp_path / "new.txt"
    old_file.write_text("\n".join(OLD) + "\n")
    new_file.write_text("\n".join(new) + "\n")
    run = subprocess.run(
        [sys.executable, "scripts/decisions.py", "--compare", str(old_file), str(new_file)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    return run.returncode, run.stdout.splitlines()


def test_equal_outputs_change_nothing(tmp_path):
    assert _compare(tmp_path, OLD) == (0, ["0 changes other than float moves"])


def test_float_moves_are_counted_per_kind_and_collapsed_path(tmp_path):
    new = [
        OLD[0]
        .replace("beta_star=0x1.0000000000000p+0", "beta_star=0x1.0000000000001p+0")
        .replace("intervals[0][0]=0x1.0000000000000p-1", "intervals[0][0]=0x1.2000000000000p-1"),
        OLD[1]
        .replace("beta_star=0x1.0000000000000p+1", "beta_star=0x1.0000000000004p+1")
        .replace("-0x0.0p+0", "0x0.0p+0"),
        OLD[2],
        OLD[3],
    ]
    status, lines = _compare(tmp_path, new)
    assert status == 0
    assert lines == [
        "solve beta_star: 2 of 2 changed, max rel 8.9e-16",
        "solve spend: 1 of 2 changed, max rel 0",
        "solve schedule.channels[].intervals[][]: 1 of 2 changed, max rel 0.12",
        "0 changes other than float moves",
    ]


def test_every_other_change_is_listed_and_fails(tmp_path):
    new = [
        OLD[0]
        .replace("binding=True", "binding=False")
        .replace(" schedule.channels[1].intervals[0][0]=0x1.0000000000000p-1", ""),
        OLD[1].replace("note='a b c'", "note='a b d'"),
        OLD[2].replace("best_interior_value=None", "best_interior_value=0x1.0000000000000p+1"),
        "oracle c n=4\tvalue=0x1.0000000000000p+2",
        "oracle d n=5\tvalue=0x1.0000000000000p+2",
    ]
    status, lines = _compare(tmp_path, new)
    assert status == 1
    assert lines == [
        "solve a n=2\tbinding: True -> False",
        "solve a n=2\tschedule.channels[1].intervals[0][0]: 0x1.0000000000000p-1 -> (absent)",
        "solve b n=3\tnote: 'a b c' -> 'a b d'",
        "oracle a n=2\tbest_interior_value: None -> 0x1.0000000000000p+1",
        "oracle c n=4\traises: ValidationError: too many candidates -> (absent)",
        "oracle c n=4\tvalue: (absent) -> 0x1.0000000000000p+2",
        f"oracle d n=5\tonly in {tmp_path / 'new.txt'}",
        "7 changes other than float moves",
    ]
