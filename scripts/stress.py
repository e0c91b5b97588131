"""Run the whole-problem properties once per hypothesis seed and list the failing seeds by kind.

    python3 scripts/stress.py --seeds 0:120

Run from the repository root. The properties are those of
``tests/test_waterfill.py`` that draw whole problems: ``TestProbe``,
``TestEndToEndInvariants``, ``TestNeverOnChannels``,
``TestLagrangianCrossCheck`` and ``TestOracleWithinGridSlack``. Each seed
of the inclusive range A:B runs them in a fresh pytest process with
``--hypothesis-seed`` and the ``stress`` profile of
``tests/conftest.py``: examples come from that seed,
not derandomized, even with CI set, and no example database is read or
written; each test reports its first failure only. A failure's kind is
its test, without parameters, and the exception type and the line that
raised it. A solve that ends on a bracket of adjacent floats, the
long-horizon outcome that the tests' ``_solve_or_bracket`` allows, is
listed as allowed. The exit status is nonzero when any other failure
occurs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROPERTIES = "TestProbe or TestEndToEnd or NeverOn or TestLagrangianCrossCheck or TestOracleWithinGridSlack"
ALLOWED = "adjacent-float bracket (allowed)"


def _seeds(text: str) -> range:
    match = re.fullmatch(r"(\d+):(\d+)", text)
    if match is None or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected A:B with A <= B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def _kind(case: ET.Element, failure: ET.Element) -> str:
    """A failure's test, without parameters, and where and what it raised; an adjacent-float bracket is ``ALLOWED``."""
    text = failure.text or ""
    bracket = re.search(r"NumericalError: water-level bisection .*bracket \[(\S+), (\S+)\]", text)
    if bracket is not None:
        lo, hi = map(float, bracket.groups())
        if hi <= math.nextafter(lo, math.inf):
            return ALLOWED
    raised = re.findall(r"^(\S+:\d+): (\w+)$", text, re.MULTILINE)
    what = f"{raised[-1][1]} at {raised[-1][0]}" if raised else (failure.get("message") or failure.tag).splitlines()[0]
    test = case.get("name", "").split("[")[0]
    return f"{case.get('classname', '').rsplit('.', 1)[-1]}::{test}: {what}"


def run_seed(seed: int, report: Path) -> list[str]:
    """The failure kinds of one seed's run, one entry per failing test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [
        sys.executable, "-m", "pytest", "tests/test_waterfill.py", "-q", "-p", "no:cacheprovider",
        "-k", PROPERTIES, f"--hypothesis-seed={seed}", "--hypothesis-profile=stress",
        f"--junitxml={report}",
    ]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    kinds = []
    if report.exists():
        for case in ET.parse(report).getroot().iter("testcase"):
            kinds.extend(_kind(case, f) for f in case if f.tag in ("failure", "error"))
    if done.returncode not in (0, 1) or (done.returncode == 1 and not kinds):
        kinds.append(f"pytest exit {done.returncode}")
    return kinds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True, help="inclusive range of hypothesis seeds, A:B")
    seeds = ap.parse_args(argv).seeds
    by_kind: dict[str, list[int]] = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for kind in dict.fromkeys(run_seed(seed, Path(tmp) / f"{seed}.xml")):
                by_kind[kind].append(seed)
    failing = sorted({s for kind, ss in by_kind.items() if kind != ALLOWED for s in ss})
    print(f"seeds {seeds.start}:{seeds.stop - 1}: {len(seeds)} run, {len(failing)} failing")
    for kind, ss in sorted(by_kind.items()):
        print(f"{kind}: seeds {', '.join(map(str, ss))}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
