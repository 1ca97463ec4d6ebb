"""Command-line front end: curvature reports, flow runs, grid sweeps,
identity audits and the flow-equivalence check.

Artifacts are CSV tables plus JSON sidecar manifests.  CSV floats are
printed with 17 significant digits and rows are assembled in a fixed order,
so identical configurations produce byte-identical files.  Exit codes:
0 success, 1 identity audit failed (check), 2 invalid point, 3 malformed
input (also check or equiv on a family with no tensor realization, sweep
under ricci-norm, and flow or check under ricci-norm on a backward span), 4
validity drift, 5 equivalence failure, 6 normalization undefined; 4 and 6
are read from the termination of a flow or check run (_FAILURES).  An equiv
run whose flows or gauges stop short of the span (as past a blowup or a
drift) reports "partial": true over the prefix they covered.  --threshold reads
its absolute deviations, so a partial report whose prefix ends next to a
blowup, where |mu| is large, can exit 5 on scale alone; equiv.json's per_side
also records each side's deviations relative to |mu(t)| and |P(t)|.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis, families, flow
from .core import (
    InvalidPointError,
    MalformedInputError,
    bracket_from_json,
    validate_point,
)
from .curvature import _pieces, curvature_report
from .flow import EventConfig, Normalization, NormalizationError

_STRATEGIES = {
    "none": flow.UNNORMALIZED,
    "volume": flow.VOLUME,
    "scalar-curvature": flow.SCALAR_CURVATURE,
    "bracket-norm": flow.BRACKET_NORM,
    "ricci-norm": flow.RICCI_NORM,
}

EXIT_OK = 0
EXIT_INVALID_POINT = 2
EXIT_MALFORMED = 3
EXIT_DRIFT = 4
EXIT_EQUIV_FAIL = 5
EXIT_NORMALIZATION = 6

# A run that ends in one of these terminations failed: its stderr label and exit code.
_FAILURES = {flow.TERM_DRIFT: ("validity drift", EXIT_DRIFT),
             flow.TERM_UNDEFINED: ("normalization undefined", EXIT_NORMALIZATION)}


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, path: str | None, stream=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if stream is not None:
        stream.write(text)
    if path is not None:
        with open(path, "w", newline="\n") as f:
            f.write(text)


@dataclass
class Source:
    """Resolved seed: a validated point and/or a reduced family handle."""

    point: object | None
    family: object | None
    params: np.ndarray | None
    label: str


def _parse_params(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise MalformedInputError(f"bad --params value {text!r}") from exc


def _parse_span(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise MalformedInputError(f"bad --t-span value {text!r} (want a:b)") from exc


def _resolve_source(cfg: dict) -> Source:
    fam_name = cfg.get("family")
    seed = cfg.get("seed")
    if (fam_name is None) == (seed is None):
        raise MalformedInputError("exactly one of --family/--seed is required")
    if seed is not None:
        text = seed
        if not seed.lstrip().startswith("{"):
            try:
                with open(seed) as f:
                    text = f.read()
            except OSError as exc:
                raise MalformedInputError(f"cannot read seed file {seed}: {exc}") from exc
        mu = bracket_from_json(text)
        return Source(point=validate_point(mu), family=None, params=None, label="inline")

    params = cfg.get("params")
    if params is None:
        raise MalformedInputError("--family requires --params")
    try:  # a config file may hold any JSON value here
        if not isinstance(params, list):
            raise TypeError
        params = [float(p) for p in params]
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"params must be a list of numbers, got {params!r}") from exc
    if not np.isfinite(params).all():
        raise MalformedInputError(f"params must be finite, got {params}")
    context = {}
    if fam_name == "semisimple":
        if len(params) != 4 or not (params[2].is_integer() and params[3].is_integer()):
            raise MalformedInputError("semisimple takes params a,b,h,m with integers h and m")
        params, (h_dim, m_dim) = params[:2], params[2:]
        context = {"h_dim": int(h_dim), "m_dim": int(m_dim)}
    try:
        fam = families.get_family(fam_name, **context)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    if len(params) != len(fam.param_names):
        raise MalformedInputError(
            f"family {fam_name} takes params {','.join(fam.param_names)}"
        )
    point = families._catalog(fam, *params).point
    label = f"{fam_name}({','.join(fmt17(p) for p in params)})"
    return Source(point=point, family=fam, params=np.asarray(params, float), label=label)


def _strategy(cfg: dict) -> Normalization:
    kind = cfg.get("normalization", "none")
    if kind not in _STRATEGIES:
        raise MalformedInputError(f"unknown normalization {kind!r}")
    return _STRATEGIES[kind]


# Event flag -> EventConfig field; a flag left unset keeps the field's default.
_EVENT_FLAGS = {"blowup_threshold": "blowup_norm", "conv_threshold": "conv_tangent",
                "conv_window": "conv_window", "drift_factor": "drift_factor"}
_CLASSIFY_FLAGS = ("flat_tol", "einstein_tol", "soliton_tol", "zero_tol")


def _number(cfg: dict, key: str, kind=float, default=None):
    """cfg[key], or default when unset, as a finite kind; any other value is
    malformed, as is a fractional value for an int key, which int() would truncate."""
    value = cfg.get(key, default)
    try:
        number = kind(value)
        finite = np.isfinite(number)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise MalformedInputError(f"bad {key} value {value!r}") from exc
    if not finite:
        raise MalformedInputError(f"{key} must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and value != number:
        raise MalformedInputError(f"{key} must be an integer, got {value!r}")
    return number


def _events(cfg: dict) -> EventConfig:
    """cfg's event thresholds, each a finite number of its field's type in EventConfig's range."""
    fields = {field: _number(cfg, flag, type(getattr(EventConfig, field)))
              for flag, field in _EVENT_FLAGS.items() if flag in cfg}
    try:
        return EventConfig(**fields)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc


def _t_span(cfg: dict, default: tuple[float, float]):
    """cfg's t_span (as given), checked to be two finite, distinct times."""
    span = cfg.get("t_span", default)
    try:
        lo, hi = (float(t) for t in span)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad t_span {span!r} (want a:b)") from exc
    if not np.isfinite([lo, hi]).all() or lo == hi:
        raise MalformedInputError(f"t_span {lo!r}:{hi!r} must be finite and nondegenerate")
    return span


def _samples(cfg: dict, default: int, minimum: int = 2) -> int:
    samples = _number(cfg, "samples", int, default)
    if samples < minimum:
        raise MalformedInputError(f"samples must be at least {minimum}, got {samples}")
    return samples


def _tolerances(cfg: dict) -> tuple[float, float]:
    rtol = _number(cfg, "tol", float, 1e-9)
    atol = _number(cfg, "atol", float, rtol / 1e3)  # 1e-12 at the default rtol, as in the API
    if not (rtol > 0 and atol > 0):
        raise MalformedInputError(f"tolerances must be positive and finite, got {rtol!r}, {atol!r}")
    return rtol, atol


def _diagnostics(traj) -> np.ndarray:
    """Columns (R, |Ric|, |mu_p|^2, |H|^2, tr B) of every sample of traj,
    from one curvature report of the sample stack.  A family with no tensor
    realization takes its closed forms row by row: a float's ** 2 rounds as
    pow does and an array's as x * x, so a stacked closed form moves the
    last bits."""
    try:
        q, c = analysis._bracket_stack(traj)
    except families.NoRealizationError:
        fam, rows = traj.system.family, []
        for p in traj.states:
            ric = fam.ricci_diag(p)
            rows.append((np.sum(ric), np.linalg.norm(ric), fam.mu_p_norm2(p), 0.0,
                         np.sum(fam.killing_diag(p))))
        return np.array(rows, dtype=float)
    rep = _pieces(c, q)
    ric = rep.Ric.reshape(len(c), -1)
    return np.column_stack([rep.R, np.sqrt(np.vecdot(ric, ric)),
                            np.sum(c[:, q:, q:, q:] ** 2, axis=(1, 2, 3)),
                            np.vecdot(rep.H, rep.H), np.trace(rep.B, axis1=1, axis2=2)])


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header and the rows of already formatted cells."""
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj, path: str) -> list[str]:
    state_cols = list(traj.system.param_names)
    header = ["t", "c", "tau", "R", "ric_norm", "mu_p_norm2", "H_norm2", "trB"] + state_cols
    table = np.column_stack([traj.times, traj.c, traj.tau, _diagnostics(traj), traj.states])
    rows = ([fmt17(v) for v in row] for row in table.tolist())
    _write_csv(path, header, rows)
    return state_cols


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedInputError("config document must be a JSON object")
    return obj


def _merge_config(args: argparse.Namespace) -> dict:
    """File config first, explicit command-line flags override; an unknown file key is malformed."""
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - (set(vars(args)) - {"command"}))
    if unknown:
        raise MalformedInputError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        cfg[key] = value
    if isinstance(cfg.get("params"), str):
        cfg["params"] = _parse_params(cfg["params"])
    if isinstance(cfg.get("t_span"), str):
        cfg["t_span"] = _parse_span(cfg["t_span"])
    return cfg


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_ricci(cfg: dict) -> int:
    src = _resolve_source(cfg)
    if src.point is not None:
        if not src.point.valid:
            report = {"valid": False, "validation": src.point.report.as_dict(),
                      "h2_status": src.point.h2_status}
            _dump_json(report, _outpath(cfg, "ricci.json"), sys.stdout)
            return EXIT_INVALID_POINT
        doc = curvature_report(src.point).as_dict()
        doc.update({"valid": True, "validation": src.point.report.as_dict(),
                    "h2_status": src.point.h2_status, "source": src.label})
    else:
        doc = src.family.closed_report(src.params).as_dict()
        doc.update({"valid": True, "realization": "closed-form", "source": src.label})
    _dump_json(doc, _outpath(cfg, "ricci.json"), sys.stdout)
    return EXIT_OK


def _outpath(cfg: dict, name: str) -> str | None:
    out = cfg.get("out")
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _run_flow_from_cfg(cfg: dict, src: Source, min_samples: int = 2):
    strategy = _strategy(cfg)
    t_span = _t_span(cfg, (0.0, 1.0))
    rtol, atol = _tolerances(cfg)
    samples = _samples(cfg, 200, min_samples)
    opts = {"rtol": rtol, "atol": atol, "samples": samples, "events": _events(cfg)}

    if strategy.kind == "ricci-norm":
        if src.point is None:
            raise MalformedInputError("ricci-norm needs a realizable seed")
        if float(t_span[1]) < float(t_span[0]):
            raise MalformedInputError("ricci-norm rescales a forward run: --t-span must increase")
        base = flow.integrate(src.point, flow.UNNORMALIZED, t_span, **opts)
        failed = base.termination in _FAILURES  # then the unnormalized run is reported
        return base if failed else flow.rescale_to_ricci_norm(base, samples=samples)

    if src.point is not None:
        return flow.integrate(src.point, strategy, t_span, **opts)
    return flow.integrate_reduced(src.family, src.params, strategy, t_span, **opts)


def _failed(traj) -> int | None:
    """The exit code of a run that failed, its stderr line printed; None otherwise."""
    label, code = _FAILURES.get(traj.termination, (None, None))
    if code is not None:
        print(f"{label}: {traj.notes[0]}", file=sys.stderr)
    return code


def _valid_source(cfg: dict, command: str | None = None) -> Source | None:
    """cfg's source, or None (its stderr line printed) when its seed point
    failed validation.  A named command needs a tensor realization, checked first."""
    src = _resolve_source(cfg)
    if command is not None and src.point is None:
        raise MalformedInputError(f"{command} needs a seed with a tensor realization")
    if src.point is not None and not src.point.valid:
        print("seed point failed validation", file=sys.stderr)
        return None
    return src


def cmd_flow(cfg: dict) -> int:
    src = _valid_source(cfg)
    if src is None:
        return EXIT_INVALID_POINT
    out_csv = _outpath(cfg, "flow.csv") or "flow.csv"
    out_json = _outpath(cfg, "flow.json") or "flow.json"
    classify = _classify_tols(cfg)
    traj = _run_flow_from_cfg(cfg, src)
    state_cols = write_trajectory_csv(traj, out_csv)
    manifest = _manifest(cfg, src, traj, state_cols)
    code = _failed(traj)
    if code is None:
        manifest["classification"] = analysis.classify_limit(traj, **classify).as_dict()
        print(f"{traj.termination}: {traj.n_samples} samples -> {out_csv}")
    else:
        manifest["error"] = traj.notes[0]
    _dump_json(manifest, out_json)
    return EXIT_OK if code is None else code


def _classify_tols(cfg: dict) -> dict:
    """The classify_limit tolerances set in cfg; the rest keep its defaults."""
    return {flag: _number(cfg, flag) for flag in _CLASSIFY_FLAGS if flag in cfg}


def _manifest(cfg: dict, src: Source, traj, state_cols: list[str]) -> dict:
    rtol, atol = _tolerances(cfg)
    events = _events(cfg)
    return {
        "source": src.label,
        "strategy": traj.strategy.kind,
        "rtol": rtol,
        "atol": atol,
        "events": {flag: getattr(events, field) for flag, field in _EVENT_FLAGS.items()},
        "state_columns": state_cols,
        "run": traj.describe(),
        "termination": traj.termination,
    }


def _parse_grid(text: str) -> list[tuple[str, float, float, int]]:
    axes = []
    for part in text.split(","):
        try:
            name, rng = part.split("=")
            lo, hi, count = rng.split(":")
            axes.append((name.strip(), float(lo), float(hi), int(count)))
        except ValueError as exc:
            raise MalformedInputError(
                f"bad --grid component {part!r} (want name=lo:hi:count)"
            ) from exc
        if not (np.isfinite(axes[-1][1:3]).all() and axes[-1][3] >= 1):
            raise MalformedInputError(f"--grid axis {part!r} needs finite lo, hi and count >= 1")
    if len(axes) != 2 or axes[0][0] == axes[1][0]:
        raise MalformedInputError("--grid must sweep exactly two distinct parameters")
    return axes


def cmd_sweep(cfg: dict) -> int:
    if cfg.get("family") is None:
        raise MalformedInputError("sweep requires --family")
    strategy = _strategy(cfg)
    if strategy.kind == "ricci-norm":
        raise MalformedInputError(
            "sweep cannot run ricci-norm: the reduced flow has no pointwise ricci-norm rate "
            "(flow --normalization ricci-norm rescales a single run)")
    src = _resolve_source(cfg)
    fam = src.family
    grid = _parse_grid(cfg.get("grid", ""))
    (n1, lo1, hi1, c1), (n2, lo2, hi2, c2) = grid
    names = list(fam.param_names)
    if n1 not in names or n2 not in names:
        raise MalformedInputError(
            f"grid parameters must be among {names} for family {fam.name}"
        )
    base = {name: float(v) for name, v in zip(names, src.params)}
    axis1 = np.linspace(lo1, hi1, c1)
    axis2 = np.linspace(lo2, hi2, c2)

    rtol, atol = _tolerances(cfg)
    t_span = list(_t_span(cfg, (0.0, 10.0)))
    opts = {"rtol": rtol, "atol": atol, "samples": _samples(cfg, 60), "events": _events(cfg)}
    classify = _classify_tols(cfg)
    _number(cfg, "jobs", int, 0)  # accepted and ignored: the cells run as one batch
    points = []
    for v1 in axis1:
        for v2 in axis2:
            values = dict(base)
            values[n1] = float(v1)
            values[n2] = float(v2)
            points.append([values[n] for n in names])
    points = np.array(points).reshape(-1, len(names))

    # One batched solve for every cell; its first derivative is the cell's start tangent.
    results = flow.integrate_reduced_batch(fam, points, strategy, tuple(t_span), **opts)
    cells = []
    for params, result in zip(points.tolist(), results):
        if result.termination == flow.TERM_UNDEFINED:
            ending, final = ["not-run", "normalization-error"], params
        else:
            verdict = analysis.classify_limit(result, **classify).verdict
            ending, final = [result.termination, verdict], result.states[-1]
        cells.append([fmt17(v) for v in (*params, *result.derivs[0])] + ending
                     + [fmt17(v) for v in final])

    out_csv = _outpath(cfg, "sweep.csv") or "sweep.csv"
    out_json = _outpath(cfg, "sweep.json") or "sweep.json"
    header = [*names, *(f"rhs_{n}" for n in names), "termination", "verdict",
              *(f"final_{n}" for n in names)]
    _write_csv(out_csv, header, cells)
    runs = [r.stats for r in results if r.termination != flow.TERM_UNDEFINED]
    manifest = {
        "family": fam.name,
        "context": fam.context(),
        "grid": {n1: [lo1, hi1, c1], n2: [lo2, hi2, c2]},
        "strategy": strategy.kind,
        "t_span": t_span,
        "rtol": rtol,
        "atol": atol,
        "cells": len(cells),
        "columns": header,
        "stats": {"steps": sum(s.n_steps for s in runs),
                  "rejected_steps": sum(s.n_rejected for s in runs),
                  "rhs_evals": sum(s.nfev for s in runs)},
    }
    _dump_json(manifest, out_json)
    print(f"swept {len(cells)} cells -> {out_csv}")
    return EXIT_OK


def cmd_check(cfg: dict) -> int:
    src = _valid_source(cfg, "check")
    if src is None:
        return EXIT_INVALID_POINT
    tol = _number(cfg, "audit_tol", float, 1e-4)
    traj = _run_flow_from_cfg(cfg, src, min_samples=3)  # the audit's stencils
    code = _failed(traj)
    if code is not None:
        return code
    audit = analysis.identity_audit(traj)
    doc = audit.as_dict()
    doc["tolerance"] = tol
    doc["passed"] = audit.passed(tol)
    _dump_json(doc, _outpath(cfg, "check.json"), sys.stdout)
    return EXIT_OK if audit.passed(tol) else 1


def cmd_equiv(cfg: dict) -> int:
    src = _valid_source(cfg, "equiv")
    if src is None:
        return EXIT_INVALID_POINT
    rtol, atol = _tolerances(cfg)
    threshold = _number(cfg, "threshold", float, 1e-6)
    report = flow.equivalence_report(src.point, _t_span(cfg, (0.0, 0.3)), rtol=rtol, atol=atol,
                                     samples=_samples(cfg, 601))
    doc = report.as_dict()
    doc["threshold"] = threshold
    ok = report.max_bracket_dev <= threshold and report.max_metric_dev <= threshold
    doc["passed"] = ok
    _dump_json(doc, _outpath(cfg, "equiv.json"), sys.stdout)
    return EXIT_OK if ok else EXIT_EQUIV_FAIL


# ---------------------------------------------------------------------------
# Argument parsing.


@lru_cache(maxsize=1)  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--tol", type=float, dest="tol", help="relative integrator tolerance")
    common.add_argument("--atol", type=float,
                        help="absolute integrator tolerance (default tol / 1000, so 1e-12)")
    common.add_argument("--family", choices=sorted(_FAMILY_CHOICES))
    common.add_argument("--params", help="comma-separated family parameters")
    common.add_argument("--seed", help="bracket JSON (inline or a file path)")
    common.add_argument("--normalization", choices=sorted(_STRATEGIES),
                        help="normalization strategy (default none)")
    common.add_argument("--t-span", dest="t_span", help="integration span a:b")
    common.add_argument("--samples", type=int, help="number of stored samples")
    common.add_argument("--blowup-threshold", dest="blowup_threshold", type=float)
    common.add_argument("--conv-threshold", dest="conv_threshold", type=float)
    common.add_argument("--conv-window", dest="conv_window", type=int)
    common.add_argument("--drift-factor", dest="drift_factor", type=float)
    common.add_argument("--flat-tol", dest="flat_tol", type=float)
    common.add_argument("--einstein-tol", dest="einstein_tol", type=float)
    common.add_argument("--soliton-tol", dest="soliton_tol", type=float)
    common.add_argument("--zero-tol", dest="zero_tol", type=float)

    parser = argparse.ArgumentParser(
        prog="bracketflow",
        description="Curvature and Ricci-flow computations on homogeneous brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ricci", parents=[common], help="curvature report of one point")
    sub.add_parser("flow", parents=[common], help="integrate a flow, emit CSV + manifest")
    sweep = sub.add_parser("sweep", parents=[common], help="classify a parameter grid")
    sweep.add_argument("--grid", help="two axes, e.g. a=0:2:21,b=-1:2:31")
    sweep.add_argument("--jobs", type=int,
                       help="accepted and ignored: all cells run as one batch in one process")
    check = sub.add_parser("check", parents=[common], help="audit evolution identities")
    check.add_argument("--audit-tol", dest="audit_tol", type=float)
    equiv = sub.add_parser("equiv", parents=[common], help="verify flow equivalence")
    equiv.add_argument("--threshold", type=float, help="max allowed deviation")
    return parser


_FAMILY_CHOICES = ("unimodular3", "berger3", "semisimple", "semisimple-su2")

_COMMANDS = {
    "ricci": cmd_ricci,
    "flow": cmd_flow,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "equiv": cmd_equiv,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except MalformedInputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InvalidPointError as exc:
        print(f"invalid point: {exc}", file=sys.stderr)
        return EXIT_INVALID_POINT
    except NormalizationError as exc:
        print(f"normalization undefined: {exc}", file=sys.stderr)
        return EXIT_NORMALIZATION


if __name__ == "__main__":
    sys.exit(main())
