"""One benchmark process: set up a workload, run its passes, write a result.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Modes:

* ``--setup-only``: time the import and set-up, sample the host speed, exit.
* untraced (``--trace 0``): run whole passes until the next one would end
  after ``--seconds``; report every pass time and the peak resident set.
* traced (``--trace 1``): a warm-up pass and an untraced pass, then the
  tracer's hooks are installed for one traced pass; report the per-layer
  metrics.

Wall time of a pass sums the tasks' program calls; the benchmark's own
checks run outside it (and, when traced, with the tracer paused).

The host this runs on is shared, and its speed drifts by tens of percent
over minutes.  Untraced runs therefore also time a fixed reference kernel
(``HostSpeed``) and report its scale factor beside the raw times; run.py
reports the scaled times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from time import perf_counter

import tracer as tracing
import workloads

MAX_FAILURES_KEPT = 20
# Kernel time spent after each set-up-only measurement.
SETUP_SPEED_SAMPLE_S = 0.1


class HostSpeed:
    """Times a fixed reference kernel to scale measured times by host speed.

    The kernel does small-array numpy and Python work like the program's
    hot path, but is benchmark code, so no change to the program moves it.
    ``between_tasks()`` runs it for SHARE of the time elapsed since the
    previous sample (at least once), so every workload spends the same share
    on it however long its tasks are.  ``scale`` is NOMINAL_S over the mean
    kernel time; NOMINAL_S is about the kernel's time on an idle 2-core Xeon
    development host, so scaled times read as seconds on such a host.
    """

    NOMINAL_S = 0.005
    SHARE = 0.04

    def __init__(self):
        import numpy  # only after the timed set-up, which imports it

        self._np = numpy
        c = numpy.sin(numpy.arange(64.0)).reshape(4, 4, 4)
        self._c0 = c - c.transpose(1, 0, 2)
        self._iu, self._ju = numpy.triu_indices(4, 1)
        self.kernel_s = 0.0
        self.runs = 0
        self._last = perf_counter()

    def kernel(self):
        np, iu, ju = self._np, self._iu, self._ju
        c = self._c0.copy()
        for _ in range(40):
            for _ in range(4):
                m = np.einsum("xij,yij->xy", c, c)
                b = np.einsum("ilk,jkl->ij", c, c)
                ric = 0.5 * (m + m.T) - 0.25 * (b + b.T)
                dc = np.einsum("xi,xjz->ijz", ric, c) + np.einsum("xj,ixz->ijz", ric, c)
                full = np.zeros((4, 4, 4))
                full[iu, ju, :] = dc[iu, ju, :]
                full[ju, iu, :] = -dc[iu, ju, :]
            c = c + 1e-6 * full
        return c

    def sample(self, budget_s: float) -> None:
        """Run the kernel for budget_s seconds, and at least once."""
        end = perf_counter() + budget_s
        while True:
            start = perf_counter()
            self.kernel()
            now = perf_counter()
            self.kernel_s += now - start
            self.runs += 1
            if now >= end:
                break
        self._last = perf_counter()

    def between_tasks(self) -> None:
        self.sample(self.SHARE * (perf_counter() - self._last))

    @property
    def scale(self) -> float:
        return self.NOMINAL_S * self.runs / self.kernel_s


def run_pass(tasks, tracer=None, speed=None) -> dict:
    times = []
    attempted = failed = 0
    failures = []
    for task in tasks:
        if speed is not None:
            speed.between_tasks()
        start = perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(perf_counter() - start)
            per_op = [[f"{type(exc).__name__}: {exc}"]] * task.n_ops
        else:
            times.append(perf_counter() - start)
            if tracer is None:
                per_op = task.check(out)
            else:
                with tracer.paused():
                    per_op = task.check(out)
        attempted += task.n_ops
        for errors in per_op:
            if errors:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{task.label}: {'; '.join(errors)}")
    return {"wall_s": sum(times), "task_s": times, "attempted": attempted,
            "failed": failed, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="the src/ directory under test")
    ap.add_argument("--workdir", required=True, help="scratch directory for artifacts")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="write the traced spans here, one JSON per line")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.workdir)

    t0 = perf_counter()
    bracketflow = importlib.import_module("bracketflow")
    tasks = workload.setup()
    setup_s = perf_counter() - t0
    speed = HostSpeed()

    where = os.path.realpath(bracketflow.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        print(f"bracketflow was imported from {where}, not {args.src}", file=sys.stderr)
        return 2

    result = {"setup_s": setup_s}
    if args.setup_only:
        speed.sample(SETUP_SPEED_SAMPLE_S)
    else:
        passes = []
        if args.trace:
            # A warm-up pass takes first-call costs out of the untraced
            # reference pass that the traced pass is compared with.
            passes += [run_pass(tasks), run_pass(tasks)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(tasks, tracer))
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics()
            layer.update(workload.accuracy)
            untraced, traced = passes[1]["wall_s"], passes[2]["wall_s"]
            layer["trace.overhead_frac"] = (traced - untraced) / untraced
            result["layer"] = layer
            result["hooks_absent"] = tracer.absent
            if args.spans:
                tracer.write_spans(args.spans)
        else:
            start = perf_counter()
            while True:
                passes.append(run_pass(tasks, speed=speed))
                elapsed = perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
            speed.between_tasks()
        result.update({
            "passes": [p["wall_s"] for p in passes],
            "task_s": [p["task_s"] for p in passes],
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "failures": [f for p in passes for f in p["failures"]][:MAX_FAILURES_KEPT],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    if speed.runs:
        result["speed_scale"] = speed.scale
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
