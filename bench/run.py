"""bracketflow benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload equiv --seed 0 --seconds 28 --trace 0

Untraced (``--trace 0``) it reports the end-to-end metrics: ``wall_s``
(median time of one pass over the workload's task list), ``setup_s``
(median over several fresh processes of importing bracketflow and building
the workload's inputs), both scaled to a nominal host speed (see
worker.HostSpeed), and ``peak_rss_mb``.  Traced (``--trace 1``) it
reports the per-layer metrics of one traced pass.  ``attempted`` and
``failed`` count operations and those that raised or failed their check.

Every process runs with one BLAS thread, and every artifact goes to a
temporary directory under .bench_tmp/ in the checkout, removed at exit.
The last line of standard output is the result; the line before it is the
host record.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_REPEATS = 5
# Whole-run budget; the contract allows 180 s.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def host_record(root: Path) -> dict:
    top = _git(root, "rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == root.resolve()
    status = _git(root, "status", "--porcelain") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git(root, "rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "loadavg_start": list(os.getloadavg()),
    }


def run_worker(args, root: Path, workdir: str, deadline: float, setup_only: bool) -> dict:
    result_path = os.path.join(workdir, "result.json")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(root / "src"), "--workdir", workdir, "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans:
        cmd += ["--spans", os.path.abspath(args.spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = workdir
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as f:
        return json.load(f)


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units the result must carry."""
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        return json.load(f)


def measure(args, root: Path, tmp: str) -> tuple[dict, dict]:
    """Run the worker processes; returns (result line, full record)."""
    deadline = perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for i in range(SETUP_REPEATS):
            workdir = tempfile.mkdtemp(prefix=f"setup{i}-", dir=tmp)
            setups.append(run_worker(args, root, workdir, deadline, True))
    main = run_worker(args, root, tempfile.mkdtemp(prefix="main-", dir=tmp), deadline, False)

    spec = load_spec()
    if args.trace:
        values, listed = main["layer"], spec["per_layer"]
    else:
        # Times scaled to the nominal host speed; see worker.HostSpeed.
        values = {
            "wall_s": statistics.median(main["passes"]) * main["speed_scale"],
            "setup_s": statistics.median(s["setup_s"] * s["speed_scale"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    line = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    record = {
        "passes_s": main["passes"],
        "task_s": main["task_s"],
        "speed_scale": main.get("speed_scale"),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_speed_scales": [s["speed_scale"] for s in setups],
        "failures": main["failures"],
        "hooks_absent": main.get("hooks_absent", []),
    }
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (host, passes, failures) here")
    ap.add_argument("--spans", help="with --trace 1, write every span here as JSON lines")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bracketflow" / "__init__.py").is_file():
        print(f"bench: no bracketflow source at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    host = host_record(root)
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        line, record = measure(args, root, tmp)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    host["loadavg_end"] = list(os.getloadavg())

    for failure in record["failures"]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    if args.out:
        record.update({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": host, "result": line})
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
