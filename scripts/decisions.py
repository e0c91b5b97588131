"""Every returned field of every benchmark op, one line per op, for `diff` between checkouts.

    python3 scripts/decisions.py --workload desk --seed 1
    python3 scripts/decisions.py --compare OLD NEW

Run from the repository root. The ops are the benchmark's own
(``perfbench/workloads.py``, imported, not changed), run once each in
order. Each line is the op's label, a tab, and its result flattened to
``path=value`` tokens: dataclass fields and sequence entries by name and
index, floats as ``float.hex`` so that equal lines mean bit-equal values,
ints, bools, strings and None as ``repr``. An op that raises prints its
exception type and message instead. Nothing timed is printed, so two runs
of one checkout print the same bytes, and two checkouts can be compared
with ``diff``.

``--compare OLD NEW`` reads two such outputs instead of running anything.
Ops are matched by label and fields by path. For each op kind (the label's
first word) and field path with its indices collapsed to ``[]``, it prints
how many float values changed and the largest relative move among them,
|new - old| / |old|; paths where nothing changed are not printed. Every
other change (an int, bool, string or None, a float that appears, vanishes
or turns into another type, a field or op present on one side only, a
raise) is listed in full, and any such change makes the exit status 1.
"""

from __future__ import annotations

import os

# Pin BLAS as the benchmark does, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
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


# A float as ``float.hex`` prints it; ints and other values print as ``repr``.
_FLOAT = re.compile(r"-?(0x[0-9a-f]\.[0-9a-f]+p[+-]\d+|inf)|nan")
# A token starts at a space followed by ``path=``; a repr with spaces inside stays whole.
_TOKEN = re.compile(r" (?=[A-Za-z_][\w.\[\]]*=)")


def _read(path: str) -> dict:
    """``{label: {field path: text}}`` of one output; a raising op has the one path ``raises``."""
    ops = {}
    for line in Path(path).read_text().splitlines():
        label, _, rest = line.partition("\t")
        if rest.startswith("raises "):
            ops[label] = {"raises": rest[len("raises ") :]}
        else:
            ops[label] = dict(token.partition("=")[::2] for token in _TOKEN.split(rest) if token)
    return ops


def compare(old_path: str, new_path: str) -> int:
    """Print the float moves per op kind and collapsed path, then every other change; return the latter's count."""
    old, new = _read(old_path), _read(new_path)
    moved = defaultdict(lambda: [0, 0, 0.0])  # (kind, path) -> [floats changed, floats, largest relative move]
    other = []
    for label in list(old) + [label for label in new if label not in old]:
        if label not in old or label not in new:
            other.append(f"{label}\tonly in {old_path if label in old else new_path}")
            continue
        before, after = old[label], new[label]
        for path in list(before) + [path for path in after if path not in before]:
            a, b = before.get(path), after.get(path)
            if a is not None and b is not None and _FLOAT.fullmatch(a) and _FLOAT.fullmatch(b):
                entry = moved[label.split()[0], re.sub(r"\[\d+\]", "[]", path)]
                entry[1] += 1
                if a != b:
                    x, y = float.fromhex(a), float.fromhex(b)
                    rel = 0.0 if x == y else abs(y - x) / abs(x) if x else math.inf
                    entry[0] += 1
                    entry[2] = max(entry[2], math.inf if math.isnan(rel) else rel)
            elif a != b:
                other.append(f"{label}\t{path}: {a or '(absent)'} -> {b or '(absent)'}")
    for (kind, path), (changed, count, rel) in moved.items():
        if changed:
            print(f"{kind} {path}: {changed} of {count} changed, max rel {rel:.2g}")
    for line in other:
        print(line)
    print(f"{len(other)} changes other than float moves")
    return len(other)


def main(argv=None) -> None:
    workloads = _import_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="desk", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two outputs instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)

    for op in workloads.WORKLOADS[args.workload](args.seed):
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a decision too
            print(f"{op.label}\traises {type(exc).__name__}: {exc}")
            continue
        print(op.label + "\t" + " ".join(f"{p}={t}" for p, t in flatten(result)))


if __name__ == "__main__":
    main()
