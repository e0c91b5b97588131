"""Seeded closed-loop benchmark for waveplan.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 32 --trace 0

Run from the repository root. One client calls waveplan's public functions
in a closed loop: each call starts when the previous one has returned, as
library callers wait for every result. Instances are generated from the
seed before timing starts. The run repeats whole rounds of the workload's
op ladder until ``--seconds`` have passed. Every output is checked by a
correctness gate outside the timed interval; an op that raises or fails its
gate counts as failed and yields no timing.

Between ops, about every 0.1 s of op time, a fixed reference kernel
(``refspeed.py``) is timed. Its mean time over the run, over its
quiet-core time, is the run's ``slowdown``: how much other tenants of the
shared host slowed the core. ``setup_s`` and the metrics ending in
``_at_ref`` are scaled by it, so they read as on a quiet core and track the
program rather than the neighbours.

End-to-end metrics: ``setup_wall_s``, the median of seven set-ups, each a
cold import of waveplan in a fresh interpreter plus instance generation and
a warm-up call of each op kind; ``setup_s``, the same divided by the
slowdown, since slow phases of the host last from seconds to minutes and
set-up ends just before the run; ``<kind>_s_p50`` and, with at least 100
samples, ``<kind>_s_p90`` for each op kind that succeeded (solve, sigmoid,
oracle, sweep); ``round_s``, the mean time of one round; ``ops_per_s``,
successful correct ops per second of timed op time, so time spent in
failed ops counts; ``ops_per_s_at_ref``, the same times the slowdown;
``slowdown``; ``fail_frac``; and ``peak_rss_mb``.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
untraced and traced rounds alternate: the traced rounds give the per-layer
metrics, and the difference of the two kinds' medians is printed as the
tracing overhead.

Lines starting with ``#`` form the human-readable report: the run
environment, every metric with its unit and sample count, and each failure
by exception type and raising function. The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``correct`` is false when any output failed its gate.
"""

from __future__ import annotations

import os

# Pin BLAS to a fixed thread count, no larger than any machine's core
# count, before numpy loads, so timings and eigensolver results repeat.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
PROBE_EVERY_S = 0.1  # op time between two reference-kernel samples
TAIL_MIN_SAMPLES = 100


def _import_waveplan():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "waveplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no waveplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import waveplan

    if Path(waveplan.__file__).resolve().parent != SRC / "waveplan":
        sys.exit(f"perfbench: imported waveplan from {waveplan.__file__}, not from {SRC}")
    return waveplan


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import waveplan; print(time.perf_counter() - t)"
)


def _cold_import_seconds() -> float:
    """Time to import waveplan, numpy included, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout)


def _commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "waveplan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _describe(exc: BaseException) -> str:
    """Exception type and the innermost waveplan function it came from."""
    frames = [
        f for f in traceback.extract_tb(exc.__traceback__) if str(SRC / "waveplan") in f.filename
    ]
    where = frames[-1].name if frames else "benchmark"
    return f"{type(exc).__name__} in {where}"


def run_op(op):
    """Time one call. Returns (seconds, result or None, error description or None)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the loop must survive any failing op and record it
        return time.perf_counter() - start, None, _describe(exc)
    return time.perf_counter() - start, result, None


class Tally:
    """Outcomes of the measured rounds of one kind (traced or untraced)."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}  # op kind -> successful call times
        self.op_seconds = 0.0  # every call's time, failed calls too: a caller waits for them
        self.rounds = 0
        self.attempted = 0
        self.ok = 0
        self.failures: Counter = Counter()
        self.gate_failures = 0

    def add_round(self, outcomes, verdicts) -> None:
        self.rounds += 1
        for (op, seconds, _, error), verdict in zip(outcomes, verdicts):
            self.attempted += 1
            self.op_seconds += seconds
            if error is None and verdict is None:
                self.ok += 1
                self.latencies.setdefault(op.kind, []).append(seconds)
            elif error is not None:
                self.failures[error] += 1
            else:
                self.gate_failures += 1
                self.failures[f"gate {verdict} in {op.kind}"] += 1


class Gatekeeper:
    """Runs each op's gate, reusing the verdict for an output already checked.

    The ops are deterministic and each round repeats the same instances, so
    an output equal to one already judged gets the same verdict; any output
    that differs is checked afresh.
    """

    def __init__(self) -> None:
        self.verdicts: dict = {}

    def judge(self, outcomes) -> list[str | None]:
        results = {op.label: result for op, _, result, _ in outcomes}
        verdicts = []
        for op, _, result, error in outcomes:
            if error is not None:
                verdicts.append(None)
                continue
            paired = results.get(op.pair) if op.pair else None
            key = (op.label, result, paired)
            if key not in self.verdicts:
                self.verdicts[key] = op.check(result, paired)
            verdicts.append(self.verdicts[key])
        return verdicts


def run_round(ops, probe: refspeed.SpeedProbe):
    outcomes = []
    for op in ops:
        outcome = run_op(op)
        probe.after_op(outcome[0])
        outcomes.append((op, *outcome))
    return outcomes


def setup(build, seed: int):
    """Generate the instances and warm up each op kind once; returns (ops, seconds)."""
    start = time.perf_counter()
    ops = build(seed)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op)
    return ops, time.perf_counter() - start


def end_to_end(
    tally: Tally, setup_wall_s: float, slowdown: float
) -> dict[str, tuple[float, str, int | None]]:
    """Every end-to-end metric this run can report: name -> (value, unit, samples)."""
    out: dict[str, tuple[float, str, int | None]] = {
        "setup_s": (setup_wall_s / slowdown, "s", SETUP_REPEATS),
        "setup_wall_s": (setup_wall_s, "s", SETUP_REPEATS),
    }
    for kind, xs in sorted(tally.latencies.items()):
        name = f"{kind}_s"
        out[f"{name}_p50"] = (statistics.median(xs), "s", len(xs))
        if len(xs) >= TAIL_MIN_SAMPLES:
            out[f"{name}_p90"] = (statistics.quantiles(xs, n=10)[-1], "s", len(xs))
    ops_per_s = tally.ok / tally.op_seconds
    out["round_s"] = (tally.op_seconds / tally.rounds, "s", tally.rounds)
    out["ops_per_s"] = (ops_per_s, "1/s", tally.attempted)
    out["ops_per_s_at_ref"] = (ops_per_s * slowdown, "1/s", tally.attempted)
    out["slowdown"] = (slowdown, "ratio", None)
    out["fail_frac"] = (
        (tally.attempted - tally.ok) / tally.attempted,
        "fraction",
        tally.attempted,
    )
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
        None,
    )
    return out


def _print_metric(name: str, value: float, unit: str, samples: int | None = None) -> None:
    tail = f" n={samples}" if samples is not None else ""
    print(f"# metric {name} = {value!r} {unit}{tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="desk, rgg_mid, rgg_large or sigmoid")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    waveplan = _import_waveplan()
    import numpy as np

    import refspeed
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    print(
        f"# env workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} commit={_commit()} source_sha256={_source_digest()} "
        f"waveplan={waveplan.__version__} numpy={np.__version__} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS}"
    )

    # Each set-up sample is a cold import in a fresh interpreter plus
    # instance generation and warm-up in this one.
    build = workloads.WORKLOADS[args.workload]
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(_cold_import_seconds())
        ops, seconds = setup(build, args.seed)
        setups.append(seconds)
    setup_wall_s = statistics.median(i + s for i, s in zip(imports, setups))
    refspeed.time_kernel()  # the kernel's own first call is not a sample

    gatekeeper = Gatekeeper()
    untraced, traced = Tally(), Tally()
    tracer = spans.Tracer()
    probe = refspeed.SpeedProbe(PROBE_EVERY_S)
    start = time.perf_counter()
    rounds = 0
    while True:
        use_trace = args.trace == 1 and rounds % 2 == 1
        if use_trace:
            with tracer.installed():
                outcomes = run_round(ops, probe)
        else:
            outcomes = run_round(ops, probe)
        verdicts = gatekeeper.judge(outcomes)
        (traced if use_trace else untraced).add_round(outcomes, verdicts)
        rounds += 1
        # Stop on a whole round; a traced run needs at least one of each kind.
        if time.perf_counter() - start >= args.seconds and rounds >= 1 + args.trace:
            break

    slowdown = refspeed.slowdown(probe.samples)
    plain = end_to_end(untraced, setup_wall_s, slowdown)
    print(
        f"# set-up samples: import {[round(x, 4) for x in imports]} s, "
        f"instances and warm-up {[round(x, 4) for x in setups]} s; "
        f"{len(probe.samples)} reference-kernel samples in the run"
    )
    for name, (value, unit, samples) in plain.items():
        _print_metric(name, value, unit, samples)
    tallies = (untraced, traced)
    for reason, count in sorted(sum((t.failures for t in tallies), Counter()).items()):
        print(f"# failure {reason}: {count}")

    if args.trace:
        layers = spans.layer_metrics(tracer, traced.attempted)
        for name, (value, unit) in layers.items():
            _print_metric(name, value, unit, traced.attempted)
        for name, (value, unit, _) in end_to_end(traced, setup_wall_s, slowdown).items():
            if unit == "s" and not name.startswith("setup") and name in plain:
                over = value - plain[name][0]
                print(f"# overhead {name} = {over!r} s (traced {value!r}, untraced {plain[name][0]!r})")
        if tracer.missing:
            print(f"# untraced (not found): {', '.join(tracer.missing)}")
        wanted = [m["name"] for m in BENCH["per_layer"]]
        metrics = {name: layers[name] for name in wanted}
    else:
        wanted = [m["name"] for m in BENCH["end_to_end"]]
        metrics = {name: plain[name][:2] for name in wanted}

    result = {
        "correct": all(t.gate_failures == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.attempted - t.ok for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
