"""The four benchmark workloads: inputs from a seed, set-up, tasks, checks.

A workload is built in two steps.  The constructor turns the seed into
plain input data without touching the program.  ``setup()`` imports
bracketflow, builds and validates the points and configs, and returns the
task list; its wall time is the benchmark's set-up time.  Each task runs
program code only; its ``check`` then returns one error list per operation,
and an operation with a non-empty list counts as failed.

Seed 0 reproduces the inputs named in the workload docs exactly.  Other
seeds jitter the nonzero parameters of ``equiv``, ``audit`` and ``flow`` by
at most 2% (zero entries stay zero, so each seed keeps its algebraic class),
and shift the ``sweep`` grid by up to a third of a cell on each axis, which
keeps every b value on its side of 0 and so the same blowup/collapse mix.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
JITTER = 0.02
REFERENCE_PATH = Path(__file__).with_name("sweep_reference.json")


@dataclass
class Task:
    label: str
    n_ops: int
    run: Callable[[], object]
    check: Callable[[object], list[list[str]]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, seed: int, values) -> tuple[float, ...]:
    """Scale each nonzero entry by 1 + JITTER * U(-1, 1); seed 0 keeps all."""
    out = []
    for v in values:
        u = rng.uniform(-1.0, 1.0)
        movable = seed != DEFAULT_SEED and v != 0.0
        out.append(float(v) * (1.0 + JITTER * u) if movable else float(v))
    return tuple(out)


def _module(name: str):
    return importlib.import_module(f"bracketflow.{name}")


class _Workload:
    """Reasons for each workload are in BENCHMARK.json and README.md."""

    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        # Accuracy reported beside the traced counts: the worst value seen.
        self.accuracy = {"flow.equiv_max_dev": 0.0, "analysis.audit_worst": 0.0}

    def _record(self, key: str, value: float) -> None:
        self.accuracy[key] = max(self.accuracy[key], float(value))

    def setup(self) -> list[Task]:
        raise NotImplementedError


class Equiv(_Workload):
    name = "equiv"
    SEEDS = (("unimodular3", (1.0, 2.0, 3.0)), ("berger3", (1.0, 1.0, 0.0)))
    SPAN = (0.0, 0.3)
    SAMPLES = 601
    SMOKE_SAMPLES = 121
    RTOL, ATOL = 1e-9, 1e-12
    DEV_BOUND, ISO_BOUND = 1e-6, 1e-9

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        rng = _rng(self.name, seed)
        self.inputs = [(fam, _jitter(rng, seed, p)) for fam, p in self.SEEDS]
        self.samples = self.SAMPLES
        if smoke:
            self.inputs = self.inputs[1:]
            self.samples = self.SMOKE_SAMPLES

    def setup(self):
        families, flow = _module("families"), _module("flow")
        tasks = []
        for fam, params in self.inputs:
            point = getattr(families, fam)(*params).point.require_valid()

            def run(point=point):
                return flow.equivalence_report(
                    point, self.SPAN, rtol=self.RTOL, atol=self.ATOL, samples=self.samples
                )

            tasks.append(Task(f"equiv {fam}{params}", 1, run, self._check))
        return tasks

    def _check(self, rep) -> list[list[str]]:
        self._record("flow.equiv_max_dev", max(rep.max_bracket_dev, rep.max_metric_dev))
        errors = []
        if rep.max_bracket_dev > self.DEV_BOUND:
            errors.append(f"bracket deviation {rep.max_bracket_dev:.3e} > {self.DEV_BOUND}")
        if rep.max_metric_dev > self.DEV_BOUND:
            errors.append(f"metric deviation {rep.max_metric_dev:.3e} > {self.DEV_BOUND}")
        if rep.iso_drift > self.ISO_BOUND:
            errors.append(f"iso drift {rep.iso_drift:.3e} > {self.ISO_BOUND}")
        if rep.partial:
            errors.append("a side stopped before the end of the span")
        return [errors]


class Audit(_Workload):
    name = "audit"
    RUNS = (
        ("unimodular3", (1.0, 2.0, 3.0), "none", (0.0, 0.2), 241),
        ("berger3", (1.2, 0.5, 0.3), "none", (0.0, 0.2), 241),
        ("unimodular3", (1.0, 2.0, 3.0), "volume", (0.0, 1.0), 481),
        ("berger3", (0.5, 1.0, 0.0), "volume", (0.0, 1.0), 481),
        ("unimodular3", (1.0, 2.0, 3.0), "scalar-curvature", (0.0, 1.0), 481),
        ("berger3", (0.5, 0.8125, 0.0), "scalar-curvature", (0.0, 1.0), 481),
    )
    STRATEGIES = {"none": "UNNORMALIZED", "volume": "VOLUME",
                  "scalar-curvature": "SCALAR_CURVATURE"}
    RTOL = 1e-9
    AUDIT_TOL = 1e-4
    MONOTONE_TOL = 1e-12

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        rng = _rng(self.name, seed)
        self.inputs = [
            (fam, _jitter(rng, seed, p), kind, span, n) for fam, p, kind, span, n in self.RUNS
        ]
        if smoke:
            self.inputs = self.inputs[:1]

    def setup(self):
        families, flow, analysis = _module("families"), _module("flow"), _module("analysis")
        tasks = []
        for fam, params, kind, span, samples in self.inputs:
            point = getattr(families, fam)(*params).point.require_valid()
            strategy = getattr(flow, self.STRATEGIES[kind])

            def run(point=point, strategy=strategy, span=span, samples=samples):
                traj = flow.integrate(point, strategy, span, samples=samples, rtol=self.RTOL)
                return traj, analysis.identity_audit(traj)

            tasks.append(Task(f"audit {fam}{params} {kind}", 1, run, self._check))
        return tasks

    def _check(self, out) -> list[list[str]]:
        traj, audit = out
        self._record("analysis.audit_worst", audit.worst)
        errors = []
        if audit.worst > self.AUDIT_TOL:
            errors.append(f"audit worst {audit.worst:.3e} > {self.AUDIT_TOL}")
        if traj.strategy.kind == "none":
            r = [traj.curvature_at(i).R for i in range(traj.n_samples)]
            drop = min(b - a for a, b in zip(r, r[1:]))
            if drop < -self.MONOTONE_TOL:
                errors.append(f"R decreased by {-drop:.3e} on an unnormalized run")
        return [errors]


# Columns of the packed berger3 state (q = 1, n = 3) holding a and b.
_BERGER_A, _BERGER_B = "c_2_3_1", "c_2_3_0"


def _read_flow(outdir: str) -> tuple[dict, list[str], list[list[float]]]:
    with open(os.path.join(outdir, "flow.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(outdir, "flow.csv"), newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return manifest, header, rows


def _column(header, rows, name) -> list[float]:
    j = header.index(name)
    return [row[j] for row in rows]


def _conserved(values, target, tol, what) -> list[str]:
    worst = max(abs(v - target) for v in values)
    return [] if worst <= tol else [f"{what} drifted by {worst:.3e} > {tol}"]


def _flow_blowup(spec, header, rows):
    t = _column(header, rows, "t")
    return [] if t[-1] < spec["t_span"][1] else [f"blowup not before t = {spec['t_span'][1]}"]


def _flow_volume_limit(spec, header, rows):
    # The volume-preserving gauge keeps a / b^2 fixed on the c = 0 slice, and
    # the Einstein point has b = a^2, so the limit is a^3 = b0^2 / a0.
    a0, b0, _ = spec["params"]
    a_lim = (b0 * b0 / a0) ** (1.0 / 3.0)
    a = _column(header, rows, _BERGER_A)[-1]
    b = _column(header, rows, _BERGER_B)[-1]
    if abs(a - a_lim) <= 1e-3 and abs(b - a_lim * a_lim) <= 1e-3:
        return []
    return [f"volume limit ({a:.6g}, {b:.6g}) != ({a_lim:.6g}, {a_lim * a_lim:.6g})"]


def _flow_scalar_limit(spec, header, rows):
    # R is held at R0 = -a0^2 / 2 + 2 b0, and the flow ends at a = 0, b = R0 / 2.
    a0, b0, _ = spec["params"]
    r0 = -0.5 * a0 * a0 + 2.0 * b0
    errors = _conserved(_column(header, rows, "R"), r0, 1e-6, "R")
    a = _column(header, rows, _BERGER_A)[-1]
    b = _column(header, rows, _BERGER_B)[-1]
    if abs(a) > 1e-3 or abs(b - 0.5 * r0) > 1e-3:
        errors.append(f"scalar-curvature limit ({a:.6g}, {b:.6g}) != (0, {0.5 * r0:.6g})")
    return errors


def _flow_collapse(spec, header, rows):
    ric = _column(header, rows, "ric_norm")[-1]
    return [] if ric < 0.02 else [f"final |Ric| {ric:.3e} >= 0.02"]


def _flow_ancient(spec, header, rows):
    first = header.index("trB") + 1
    worst = max(abs(v) for row in rows for v in row[first:])
    return [] if worst < 10.0 else [f"backward state reached |c| = {worst:.3g}"]


def _flow_bracket_norm(spec, header, rows):
    norms = [math.sqrt(v) for v in _column(header, rows, "mu_p_norm2")]
    return _conserved(norms, norms[0], 1e-6, "|mu_p|")


def _flow_ricci_norm(spec, header, rows):
    tr = [v * v for v in _column(header, rows, "ric_norm")]
    return _conserved(tr, tr[0], 1e-6, "tr Ric^2")


class Flow(_Workload):
    name = "flow"
    # family, params, t_span, normalization, termination, verdict, extra check.
    RUNS = (
        ("berger3", (1.0, 2.0, 0.0), (0.0, 5.0), "none",
         "blowup-detected", "finite-time-blowup", _flow_blowup),
        ("berger3", (0.5, 1.0, 0.0), (0.0, 40.0), "volume",
         "converged-to-fixed-point", "einstein-limit", _flow_volume_limit),
        ("berger3", (0.5, -0.1875, 0.0), (0.0, 60.0), "scalar-curvature",
         "reached-t-end", "zero-collapse", _flow_scalar_limit),
        # a = 0 (kept by the jitter) lets the p-part collapse within the span.
        ("berger3", (0.0, -1.0, 0.0), (0.0, 50.0), "none",
         "reached-t-end", "zero-collapse", _flow_collapse),
        ("berger3", (1.0, 2.0, 0.0), (0.0, -50.0), "none",
         "reached-t-end", "bounded-ancient", _flow_ancient),
        ("unimodular3", (1.0, 2.0, 3.0), (0.0, 5.0), "bracket-norm",
         "converged-to-fixed-point", "einstein-limit", _flow_bracket_norm),
        ("semisimple-su2", (1.0, 0.5), (0.0, -20.0), "none",
         "reached-t-end", "bounded-ancient", None),
        # b = c = 0 (kept by the jitter) is the Heisenberg bracket.
        ("unimodular3", (1.0, 0.0, 0.0), (0.0, 2.0), "ricci-norm",
         "reached-t-end", "inconclusive", _flow_ricci_norm),
    )
    SMOKE_RUNS = (0, 6)
    CONSTRUCTORS = {"berger3": "berger3", "unimodular3": "unimodular3",
                    "semisimple-su2": "semisimple_concrete_su2"}
    SAMPLES = 20

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        rng = _rng(self.name, seed)
        self.specs = []
        for i, (fam, p, span, norm, term, verdict, extra) in enumerate(self.RUNS):
            self.specs.append({
                "family": fam, "params": _jitter(rng, seed, p), "t_span": span,
                "normalization": norm, "termination": term, "verdict": verdict,
                "extra": extra, "out": os.path.join(workdir, f"flow{i}"),
            })
        if smoke:
            self.specs = [self.specs[i] for i in self.SMOKE_RUNS]

    def setup(self):
        families, cli = _module("families"), _module("cli")
        tasks = []
        for spec in self.specs:
            constructor = getattr(families, self.CONSTRUCTORS[spec["family"]])
            constructor(*spec["params"]).point.require_valid()
            argv = [
                "flow", "--family", spec["family"],
                "--params", ",".join(repr(p) for p in spec["params"]),
                "--t-span", ":".join(repr(t) for t in spec["t_span"]),
                "--samples", str(self.SAMPLES), "--out", spec["out"],
            ]
            if spec["normalization"] != "none":
                argv += ["--normalization", spec["normalization"]]
            os.makedirs(spec["out"], exist_ok=True)

            def run(argv=argv):
                return cli.main(argv)

            tasks.append(Task(
                f"flow {spec['family']}{spec['params']} {spec['normalization']}", 1, run,
                lambda code, spec=spec: [self._check(spec, code)],
            ))
        return tasks

    def _check(self, spec, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        manifest, header, rows = _read_flow(spec["out"])
        errors = []
        verdict = manifest.get("classification", {}).get("verdict")
        if manifest["termination"] != spec["termination"]:
            errors.append(f"termination {manifest['termination']} != {spec['termination']}")
        if verdict != spec["verdict"]:
            errors.append(f"verdict {verdict} != {spec['verdict']}")
        if len(rows) < 2:
            errors.append(f"only {len(rows)} CSV rows")
        elif spec["extra"] is not None:
            errors += spec["extra"](spec, header, rows)
        return errors


def berger3_rhs(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Closed-form unnormalized berger3 tangent, independent of the program."""
    return (
        (-1.5 * a * a + 2 * b + 2 * a * c) * a,
        (-(a * a) + 2 * b + 2 * a * c) * b,
        0.5 * a * a * c,
    )


def cell_key(a: float, b: float) -> str:
    """Reference key of a grid cell, robust to last-bit grid arithmetic."""
    return f"{a:.12g},{b:.12g}"


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as f:
        return json.load(f)["cells"]


class Sweep(_Workload):
    name = "sweep"
    BASE = (1.0, 1.0, 0.0)
    A_AXIS = (0.0, 2.0, 7)
    B_AXIS = (-1.0, 2.0, 11)
    SMOKE_A, SMOKE_B = (0.0, 2.0, 2), (-1.0, 2.0, 2)
    T_SPAN = (0.0, 600.0)
    ZERO_TOL = 0.05
    BLOWUP_NORM = 1e6
    TERMINATIONS = ("blowup-detected", "reached-t-end", "converged-to-fixed-point")

    def __init__(self, seed, workdir, smoke=False, reference=None):
        super().__init__(seed, workdir, smoke)
        a_axis, b_axis = (self.SMOKE_A, self.SMOKE_B) if smoke else (self.A_AXIS, self.B_AXIS)
        rng = _rng(self.name, seed)
        self.axes = []
        for lo, hi, count in (a_axis, b_axis):
            shift = 0.0
            if seed != DEFAULT_SEED:
                shift = rng.random() / 3.0 * (hi - lo) / (count - 1)
            self.axes.append((lo + shift, hi + shift, count))
        self.out = os.path.join(workdir, "sweep")
        self.reference = reference

    def cells(self) -> list[tuple[float, float]]:
        (alo, ahi, na), (blo, bhi, nb) = self.axes
        a_vals = [alo + (ahi - alo) * i / (na - 1) for i in range(na)]
        b_vals = [blo + (bhi - blo) * j / (nb - 1) for j in range(nb)]
        return [(a, b) for a in a_vals for b in b_vals]

    def setup(self):
        families, cli = _module("families"), _module("cli")
        if self.reference is None:
            self.reference = load_reference()
        families.berger3(*self.BASE).point.require_valid()
        os.makedirs(self.out, exist_ok=True)
        config = os.path.join(self.workdir, "sweep_config.json")
        with open(config, "w") as f:
            json.dump({"jobs": 1}, f)
        grid = ",".join(f"{name}={lo!r}:{hi!r}:{n}" for name, (lo, hi, n) in zip("ab", self.axes))
        argv = [
            "sweep", "--family", "berger3", "--params", ",".join(map(repr, self.BASE)),
            "--grid", grid, "--t-span", ":".join(map(repr, self.T_SPAN)),
            "--zero-tol", repr(self.ZERO_TOL), "--config", config, "--out", self.out,
        ]
        cells = self.cells()
        return [Task(f"sweep {grid}", len(cells), lambda: cli.main(argv), self._check)]

    def _check(self, code) -> list[list[str]]:
        cells = self.cells()
        if code != 0:
            return [[f"exit code {code}"]] * len(cells)
        with open(os.path.join(self.out, "sweep.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        per_cell = []
        for i, (a, b) in enumerate(cells):
            if i >= len(rows):
                per_cell.append(["row missing"])
                continue
            per_cell.append(self._check_cell(rows[i], a, b))
        return per_cell

    def _check_cell(self, row: dict, a: float, b: float) -> list[str]:
        p = [float(row[n]) for n in "abc"]
        expect = (a, b, self.BASE[2])
        if any(abs(x - y) > 1e-12 * max(1.0, abs(y)) for x, y in zip(p, expect)):
            return [f"row {p} out of grid order, expected {expect}"]
        errors = []
        rhs = [float(row[f"rhs_{n}"]) for n in "abc"]
        for got, want in zip(rhs, berger3_rhs(*p)):
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                errors.append(f"rhs {rhs} != closed form {berger3_rhs(*p)}")
                break
        term, verdict = row["termination"], row["verdict"]
        fa, fb, fc = (float(row[f"final_{n}"]) for n in "abc")
        if term not in self.TERMINATIONS:
            errors.append(f"termination {term}")
        if (verdict == "finite-time-blowup") != (term == "blowup-detected"):
            errors.append(f"verdict {verdict} with termination {term}")
        if not all(math.isfinite(v) for v in (fa, fb, fc)):
            errors.append("non-finite final state")
        elif verdict == "finite-time-blowup":
            if 2.0 * (fa * fa + fb * fb + 2 * fc * fc + 2) <= self.BLOWUP_NORM**2:
                errors.append("blowup verdict below the blowup norm")
        elif verdict == "zero-collapse":
            if math.sqrt(2 * fa * fa + 4 * fc * fc) >= self.ZERO_TOL:
                errors.append("zero-collapse verdict with |mu_p| above zero_tol")
        key = cell_key(a, b)
        if key in self.reference:
            if [term, verdict] != self.reference[key]:
                errors.append(f"({term}, {verdict}) != reference {self.reference[key]}")
        elif self.seed == DEFAULT_SEED and not self.smoke:
            errors.append("cell missing from the reference")
        return errors


WORKLOADS = {w.name: w for w in (Equiv, Audit, Flow, Sweep)}


def make(name: str, seed: int, workdir: str, smoke: bool = False) -> _Workload:
    return WORKLOADS[name](seed, workdir, smoke)
