"""Every returned field of every benchmark op, one line per op, for `diff` between checkouts.

    python3 scripts/decisions.py --workload desk --seed 1

Run from the repository root. The ops are the benchmark's own
(``perfbench/workloads.py``, imported, not changed), run once each in
order. Each line is the op's label, a tab, and its result flattened to
``path=value`` tokens: dataclass fields and sequence entries by name and
index, floats as ``float.hex`` so that equal lines mean bit-equal values,
ints, bools, strings and None as ``repr``. An op that raises prints its
exception type and message instead. Nothing timed is printed, so two runs
of one checkout print the same bytes, and two checkouts can be compared
with ``diff``.
"""

from __future__ import annotations

import os

# Pin BLAS as the benchmark does, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _import_workloads():
    """The benchmark's workload module, with waveplan imported from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads


def flatten(value, path: str = ""):
    """``(path, text)`` pairs for every leaf of a result, depth first in field order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from flatten(getattr(value, f.name), f"{path}.{f.name}" if path else f.name)
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    elif isinstance(value, (float, np.floating)):
        yield path, float(value).hex()
    elif isinstance(value, np.integer):
        yield path, repr(int(value))
    else:
        yield path, repr(value)


def main(argv=None) -> None:
    workloads = _import_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="desk", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    for op in workloads.WORKLOADS[args.workload](args.seed):
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a decision too
            print(f"{op.label}\traises {type(exc).__name__}: {exc}")
            continue
        print(op.label + "\t" + " ".join(f"{p}={t}" for p, t in flatten(result)))


if __name__ == "__main__":
    main()
