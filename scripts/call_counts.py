"""Python-level calls and cProfile time per op kind and per waveplan function.

    python3 scripts/call_counts.py --workload desk --seed 1 --rounds 1

Run from the repository root. The ops are the benchmark's own
(``perfbench/workloads.py``, imported, not changed). One untraced round
runs first, so caches fill and lazy set-up finishes; then each op of
``--rounds`` rounds runs under cProfile. Three tables are printed:

- per op kind: ops run, calls per op (every Python and builtin call that
  cProfile records), calls per op into numpy's Python-level functions
  (the cProfile entries whose file is under numpy's package directory,
  such as ``np.linspace`` or the ``_methods`` behind ``ndarray.all``; a
  ufunc or C method is not among them, and a C function such as
  ``np.where`` counts once, for its Python-level argument dispatcher) and
  cProfile time per op;
- per waveplan function, most inclusive calls first: calls of the function
  per op of its kind, calls made inside it and by it per call (its own
  call included), and its cProfile self and cumulative time per call;
- per numpy Python-level function, most calls first: its calls per op of
  each kind.

Inclusive calls come from a second, untimed pass under ``sys.setprofile``
that charges each call event to every waveplan function on the stack.
cProfile adds a fixed cost to every call, so its times overweight Python
overhead against work done inside numpy; compare them between commits on
one machine only, and take speed from the benchmark. cProfile counts
builtin calls such as ``abs`` and ``min`` but not numpy operators such as
``+`` or ``>`` on arrays, so a change that moves work from numpy arrays to
Python floats can raise the call counts while numpy work falls.

A last, untimed pass prints the level-search engine's sizes: level probes
per search (each solve, and each iterate of the sigmoid loop, runs one
search on its own signal grid), and crossings found and open cells handed
in per ``_crossings`` call, each as median and max. A channel crosses a
level at most as often as its switch bound allows, so the crossings stay
few as n grows.
"""

from __future__ import annotations

import os

# Pin BLAS as the benchmark does, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "waveplan")
NUMPY = str(Path(np.__file__).parent)


def _import_workloads():
    """The benchmark's workload module, with waveplan imported from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads


def _in_package(filename: str) -> bool:
    return filename.startswith(PACKAGE)


def _inclusive_calls(ops) -> tuple[Counter, dict]:
    """Call events inside each waveplan function, its own call included.

    Counts are keyed (op kind, function key), a function's key being the
    (file, first line, name) triple that pstats uses. Also returns each
    key's display name, module.qualified_name:line.
    """
    counts: Counter = Counter()
    names: dict = {}
    stack: list = []
    kind = ""

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            if event == "call":
                code = frame.f_code
                key = None
                if _in_package(code.co_filename):
                    key = (code.co_filename, code.co_firstlineno, code.co_name)
                    if key not in names:
                        qualname = getattr(code, "co_qualname", code.co_name)
                        names[key] = f"{Path(code.co_filename).stem}.{qualname}:{code.co_firstlineno}"
                stack.append(key)
            # A recursive function is charged once per event.
            for key in set(filter(None, stack)):
                counts[kind, key] += 1
        elif event == "return" and stack:
            stack.pop()

    for op in ops:
        kind = op.kind
        stack.clear()
        sys.setprofile(hook)
        try:
            op.run()
        finally:
            sys.setprofile(None)
    return counts, names


def _engine_sizes(ops) -> tuple[list[int], list[int], list[int]]:
    """Probes per level search, and crossings found and open pieces handed in per ``_crossings`` call, over one run of ``ops``.

    Each search samples one ``_SignalGrid``, so probes are counted per grid.
    """
    from waveplan import waterfill

    grid_class = waterfill._SignalGrid
    probe, crossings = grid_class.probe, grid_class._crossings
    probes: Counter = Counter()  # keyed by the grid itself, which hashes by identity
    sizes, opened = [], []

    def counting_probe(grid, beta, costs):
        probes[grid] += 1
        return probe(grid, beta, costs)

    def counting_crossings(grid, chan, pieces, settled, beta):
        out = crossings(grid, chan, pieces, settled, beta)
        sizes.append(len(out[0]))
        opened.append(len(pieces) - settled)
        return out

    grid_class.probe, grid_class._crossings = counting_probe, counting_crossings
    try:
        for op in ops:
            op.run()
    finally:
        grid_class.probe, grid_class._crossings = probe, crossings
    return list(probes.values()), sizes, opened


def _spread(counts: list[int]) -> str:
    return f"median {statistics.median(counts):g}, max {max(counts)}" if counts else "none"


def main(argv=None) -> None:
    workloads = _import_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="desk", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    ops = workloads.WORKLOADS[args.workload](args.seed)
    for op in ops:
        op.run()

    per_kind = {}  # kind -> [ops, calls, seconds]
    stats: dict[str, pstats.Stats] = {}
    for _ in range(args.rounds):
        for op in ops:
            prof = cProfile.Profile()
            prof.enable()
            op.run()
            prof.disable()
            st = pstats.Stats(prof)
            row = per_kind.setdefault(op.kind, [0, 0, 0.0])
            row[0] += 1
            row[1] += st.total_calls
            row[2] += st.total_tt
            if op.kind in stats:
                stats[op.kind].add(st)
            else:
                stats[op.kind] = st
    inclusive, names = _inclusive_calls([op for _ in range(args.rounds) for op in ops])
    probes, crossings, opened = _engine_sizes([op for _ in range(args.rounds) for op in ops])

    print(f"# {args.workload} seed {args.seed}, {args.rounds} round(s) of {len(ops)} ops")
    print()
    # Calls of each numpy Python-level function, keyed (op kind, display name).
    numpy_calls: Counter = Counter()
    for kind, st in stats.items():
        for (filename, line, name), (_, calls, _, _, _) in st.stats.items():
            if filename.startswith(NUMPY):
                numpy_calls[kind, f"{Path(filename).stem}.{name}:{line}"] += calls
    print("| op kind | ops | calls/op | numpy Python-level calls/op | cProfile ms/op |")
    print("|---------|----:|---------:|----------------------------:|---------------:|")
    for kind, (n, calls, seconds) in per_kind.items():
        in_numpy = sum(c for (k, _), c in numpy_calls.items() if k == kind)
        print(f"| {kind} | {n} | {calls / n:.1f} | {in_numpy / n:.1f} | {1e3 * seconds / n:.3f} |")
    print()
    print("| op kind | function | calls/op | incl. calls/call | self µs/call | cum µs/call |")
    print("|---------|----------|---------:|-----------------:|-------------:|------------:|")
    for kind, st in stats.items():
        rows = []
        for key, (_, calls, self_s, cum_s, _) in st.stats.items():
            if _in_package(key[0]):
                rows.append((inclusive[kind, key], names.get(key, key[2]), calls, self_s, cum_s))
        n = per_kind[kind][0]
        for incl, fn, calls, self_s, cum_s in sorted(rows, key=lambda r: (-r[0], r[1])):
            print(
                f"| {kind} | {fn} | {calls / n:.2f} | {incl / calls:.1f} | "
                f"{1e6 * self_s / calls:.1f} | {1e6 * cum_s / calls:.1f} |"
            )

    print()
    print("| op kind | numpy Python-level function | calls/op |")
    print("|---------|-----------------------------|---------:|")
    for (kind, fn), calls in sorted(numpy_calls.items(), key=lambda item: (item[0][0], -item[1], item[0][1])):
        print(f"| {kind} | {fn} | {calls / per_kind[kind][0]:.2f} |")

    print()
    print(f"level searches: {len(probes)}, probes per search: {_spread(probes)}")
    print(f"_crossings calls: {len(crossings)}, crossings per call: {_spread(crossings)}")
    print(f"open cells per _crossings call: {_spread(opened)}, in {sum(map(bool, opened))} calls")


if __name__ == "__main__":
    main()
