"""Record the per-cell (termination, verdict) reference of the default sweep.

Run from the repository root:  python3 bench/record_reference.py
It runs the seed-0 sweep grid through the CLI and rewrites
bench/sweep_reference.json.  Record it only on a commit whose sweep is
trusted; later commits are checked against it.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (bench/ is on sys.path when run as a script)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        sweep = workloads.Sweep(workloads.DEFAULT_SEED, tmp, reference={})
        (task,) = sweep.setup()
        if task.run() != 0:
            print("sweep failed", file=sys.stderr)
            return 1
        with open(os.path.join(sweep.out, "sweep.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
    cells = {
        workloads.cell_key(float(row["a"]), float(row["b"])): [row["termination"], row["verdict"]]
        for row in rows
    }
    grid = {"a": list(sweep.axes[0]), "b": list(sweep.axes[1])}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(cells.items())]
    with open(workloads.REFERENCE_PATH, "w") as f:
        f.write(f'{{\n "grid": {json.dumps(grid)},\n "cells": {{\n')
        f.write(",\n".join(lines) + "\n }\n}\n")
    print(f"recorded {len(cells)} cells -> {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
