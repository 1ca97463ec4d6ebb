"""Span tracer installed from outside the program.

Hooks replace module and class attributes at the names their callers look
up at call time, so the program itself is unchanged.  Every hooked call
records one span (name, parent, start, end) in flat in-memory arrays; the
spans are aggregated, and optionally written out, when the run ends.  A hook
whose target no longer exists is recorded as absent and skipped.

Self time of a span is its duration minus the durations of its direct child
spans.  Calls are single-threaded, so child intervals nest inside their
parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from time import perf_counter_ns

# (metric stem, module, attribute path).  Several hooks may feed one stem,
# for a function that callers reach through more than one module.
HOOKS = (
    ("core.gl_action", "bracketflow.core", "gl_action"),
    ("core.unpack_state", "bracketflow.flow", "unpack_state"),
    ("core.unpack_state", "bracketflow.core", "unpack_state"),
    ("core.pack", "bracketflow.flow", "pack_state"),
    ("core.pack", "bracketflow.flow", "pack_array"),
    ("core.pack", "bracketflow.core", "pack_state"),
    ("core.pack", "bracketflow.core", "pack_array"),
    ("core.jacobi_residual", "bracketflow.core", "jacobi_residual"),
    ("curvature.curvature_pieces", "bracketflow.curvature", "curvature_pieces"),
    ("curvature.curvature_pieces", "bracketflow.flow", "curvature_pieces"),
    ("curvature.curvature_pieces", "bracketflow.analysis", "curvature_pieces"),
    ("curvature.ricci_operator", "bracketflow.curvature", "ricci_operator"),
    ("curvature.ricci_operator", "bracketflow.flow", "ricci_operator"),
    ("curvature.laplacian_op", "bracketflow.curvature", "laplacian_op"),
    ("curvature.laplacian_op", "bracketflow.flow", "laplacian_op"),
    ("curvature.laplacian_op", "bracketflow.analysis", "laplacian_op"),
    ("flow.tangent", "bracketflow.flow", "TensorFlowSystem.tangent"),
    ("flow.tangent", "bracketflow.flow", "_ricci_norm_tangent"),
    ("flow.interp", "bracketflow._rk", "HermitePath.__call__"),
    ("flow.solve_rk54", "bracketflow.flow", "solve_rk54"),
    ("flow.integrate", "bracketflow.flow", "integrate"),
    ("flow.integrate_metric", "bracketflow.flow", "integrate_metric"),
    ("flow.integrate_gauge", "bracketflow.flow", "integrate_gauge"),
    ("flow.integrate_reduced", "bracketflow.flow", "integrate_reduced"),
    ("families.rhs", "bracketflow.families", "Unimodular3.rhs"),
    ("families.rhs", "bracketflow.families", "Berger3.rhs"),
    ("families.rhs", "bracketflow.families", "SemisimpleFamily.rhs"),
    ("families.rate_scalars", "bracketflow.families", "_FamilyBase.rate_scalars"),
    ("analysis.identity_audit", "bracketflow.analysis", "identity_audit"),
    ("analysis.classify_limit", "bracketflow.analysis", "classify_limit"),
    ("cli.main", "bracketflow.cli", "main"),
    ("cli.write_trajectory_csv", "bracketflow.cli", "write_trajectory_csv"),
)

# The solve_rk54 hook also wraps the right-hand side and the step callback
# handed to it, as child spans under these stems.
RHS_SPAN = "flow.rhs"
EVENTS_SPAN = "flow.events"

# Spans reported by calls and self time; inclusive spans by total time only.
SELF_SPANS = (
    "core.gl_action",
    "core.unpack_state",
    "core.pack",
    "core.jacobi_residual",
    "curvature.curvature_pieces",
    "curvature.ricci_operator",
    "curvature.laplacian_op",
    "flow.solve_rk54",
    RHS_SPAN,
    EVENTS_SPAN,
    "flow.tangent",
    "flow.interp",
    "families.rhs",
    "families.rate_scalars",
    "analysis.identity_audit",
    "analysis.classify_limit",
    "cli.main",
    "cli.write_trajectory_csv",
)
INCLUSIVE_SPANS = (
    "flow.integrate",
    "flow.integrate_metric",
    "flow.integrate_gauge",
    "flow.integrate_reduced",
)


class Tracer:
    """In-memory span recorder plus the hooks that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.active = True
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Record a finished span directly; returns its id."""
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return sid

    def count(self, name: str, value: int) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (the benchmark's own checks) without recording."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- hooks ---------------------------------------------------------------

    def _solver_hook(self, name: str, fn):
        """solve_rk54 hook: wraps f and step_callback, reads the RKResult."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def hooked(f, *args, **kwargs):
            if not self.active:
                return fn(f, *args, **kwargs)
            cb = kwargs.get("step_callback")
            if cb is not None:
                kwargs["step_callback"] = self.wrap(EVENTS_SPAN, cb)
            res = traced(self.wrap(RHS_SPAN, f), *args, **kwargs)
            self.count("flow.steps", getattr(res, "n_steps", 0))
            self.count("flow.rejected", getattr(res, "n_rejected", 0))
            self.count("flow.samples", len(getattr(res, "sample_t", ())))
            return res

        return hooked

    def install(self, hooks=HOOKS) -> None:
        for stem, module_name, path in hooks:
            target = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            own = isinstance(owner, type) and attr in vars(owner)
            if stem == "flow.solve_rk54":
                wrapper = self._solver_hook(stem, original)
            else:
                wrapper = self.wrap(stem, original)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original, own or not isinstance(owner, type)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, restore = self._installed.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            agg = out.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "total_ns": 0, "self_ns": 0}
            )
            agg["calls"] += 1
            agg["total_ns"] += dur[i]
            agg["self_ns"] += dur[i] - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The traced per-layer metrics, zero for spans that never ran."""
        agg = self.aggregate()
        zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
        metrics: dict[str, float] = {}
        steps = self.counters.get("flow.steps", 0)
        rejected = self.counters.get("flow.rejected", 0)
        samples = self.counters.get("flow.samples", 0)
        metrics["flow.steps"] = steps
        metrics["flow.rejected"] = rejected
        metrics["flow.rhs_evals"] = agg.get(RHS_SPAN, zero)["calls"]
        metrics["flow.samples"] = samples
        metrics["flow.steps_per_sample"] = steps / samples if samples else 0.0
        attempts = steps + rejected
        metrics["flow.accept_ratio"] = steps / attempts if attempts else 0.0
        for stem in SELF_SPANS:
            a = agg.get(stem, zero)
            if stem != RHS_SPAN:
                metrics[f"{stem}.calls"] = a["calls"]
            metrics[f"{stem}.self_s"] = a["self_ns"] * 1e-9
        for stem in INCLUSIVE_SPANS:
            metrics[f"{stem}.s"] = agg.get(stem, zero)["total_ns"] * 1e-9
        metrics["trace.spans"] = len(self.start)
        metrics["trace.hooks_absent"] = len(self.absent)
        return metrics

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as f:
            for i in range(len(self.start)):
                f.write(json.dumps({
                    "id": i,
                    "parent": self.parent[i],
                    "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                }) + "\n")
