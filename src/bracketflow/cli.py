"""Command-line front end: curvature reports, flow runs, grid sweeps,
identity audits and the flow-equivalence check.

Artifacts are CSV tables plus JSON sidecar manifests.  CSV floats are
printed with 17 significant digits and rows are assembled in a fixed order,
so identical configurations produce byte-identical files.  Exit codes:
0 success, 1 identity audit failed (check), 2 invalid point, 3 malformed
input, 4 validity drift, 5 equivalence failure, 6 normalization undefined.
An equiv run whose flows or gauges stop short of the span (as past a blowup)
reports "partial": true over the prefix they covered.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis, families, flow
from .core import (
    InvalidPointError,
    MalformedInputError,
    bracket_from_json,
    validate_point,
)
from .curvature import curvature_report
from .flow import (
    EventConfig,
    Normalization,
    NormalizationError,
    ValidityDriftError,
)

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
        if cfg.get("seed_format", "json") != "json":
            raise MalformedInputError("only --seed-format json is supported")
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
    params = [float(p) for p in params]
    context = {}
    if fam_name == "semisimple":
        if len(params) != 4:
            raise MalformedInputError("semisimple takes params a,b,h,m")
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


def _events(cfg: dict) -> EventConfig:
    return EventConfig(**{
        field: type(getattr(EventConfig, field))(cfg[flag])
        for flag, field in _EVENT_FLAGS.items()
        if flag in cfg
    })


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
    try:
        samples = int(cfg.get("samples", default))
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad samples value {cfg['samples']!r}") from exc
    if samples < minimum:
        raise MalformedInputError(f"samples must be at least {minimum}, got {samples}")
    return samples


def _tolerances(cfg: dict) -> tuple[float, float]:
    rtol = float(cfg.get("tol", 1e-9))
    atol = float(cfg.get("atol", rtol * 1e-3))
    if rtol <= 0 or atol <= 0:
        raise MalformedInputError("tolerances must be positive")
    return rtol, atol


def _row_diagnostics(traj, i) -> tuple[float, float, float, float, float]:
    """(R, |Ric|, |mu_p|^2, |H|^2, tr B) at sample i, closed-form fallback."""
    try:
        rep = traj.curvature_at(i)
        mu = traj.bracket_at(i)
        mu_p2 = float(np.sum(mu.mu_p**2))
        return (
            rep.R,
            float(np.linalg.norm(rep.Ric)),
            mu_p2,
            float(rep.H @ rep.H),
            float(np.trace(rep.B)),
        )
    except families.NoRealizationError:
        fam = traj.system.family
        p = traj.states[i]
        ric = fam.ricci_diag(p)
        return (
            float(np.sum(ric)),
            float(np.linalg.norm(ric)),
            fam.mu_p_norm2(p),
            0.0,
            float(np.sum(fam.killing_diag(p))),
        )


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header and the rows of already formatted cells."""
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_trajectory_csv(traj, path: str) -> list[str]:
    state_cols = list(traj.system.param_names)
    header = ["t", "c", "tau", "R", "ric_norm", "mu_p_norm2", "H_norm2", "trB"] + state_cols
    rows = []
    for i in range(traj.n_samples):
        r, ric_norm, mu_p2, h2, tr_b = _row_diagnostics(traj, i)
        row = [
            traj.times[i],
            traj.c[i],
            traj.tau[i],
            r,
            ric_norm,
            mu_p2,
            h2,
            tr_b,
            *traj.states[i],
        ]
        rows.append([fmt17(v) for v in row])
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
    """File config first, explicit command-line flags override."""
    cfg = _load_config(args.config)
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
            report = {
                "valid": False,
                "validation": src.point.report.as_dict(),
                "h2_status": src.point.h2_status,
            }
            _dump_json(report, _outpath(cfg, "ricci.json"), sys.stdout)
            return EXIT_INVALID_POINT
        rep = curvature_report(src.point)
        doc = rep.as_dict()
        doc.update(
            {
                "valid": True,
                "validation": src.point.report.as_dict(),
                "h2_status": src.point.h2_status,
                "source": src.label,
            }
        )
    else:
        rep = src.family.closed_report(src.params)
        doc = rep.as_dict()
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
        base = flow.integrate(src.point, flow.UNNORMALIZED, t_span, **opts)
        return flow.rescale_to_ricci_norm(base, samples=samples)

    if src.point is not None:
        return flow.integrate(src.point, strategy, t_span, **opts)
    return flow.integrate_reduced(src.family, src.params, strategy, t_span, **opts)


def cmd_flow(cfg: dict) -> int:
    src = _resolve_source(cfg)
    if src.point is not None and not src.point.valid:
        print("seed point failed validation", file=sys.stderr)
        return EXIT_INVALID_POINT
    out_csv = _outpath(cfg, "flow.csv") or "flow.csv"
    out_json = _outpath(cfg, "flow.json") or "flow.json"
    try:
        traj = _run_flow_from_cfg(cfg, src)
    except ValidityDriftError as exc:
        if exc.trajectory is not None:
            state_cols = write_trajectory_csv(exc.trajectory, out_csv)
            manifest = _manifest(cfg, src, exc.trajectory, state_cols)
            manifest["error"] = str(exc)
            _dump_json(manifest, out_json)
        raise
    state_cols = write_trajectory_csv(traj, out_csv)
    manifest = _manifest(cfg, src, traj, state_cols)
    verdict = analysis.classify_limit(traj, **_classify_tols(cfg))
    manifest["classification"] = verdict.as_dict()
    _dump_json(manifest, out_json)
    print(f"{traj.termination}: {traj.n_samples} samples -> {out_csv}")
    return EXIT_OK


def _classify_tols(cfg: dict) -> dict:
    """The classify_limit tolerances set in cfg; the rest keep its defaults."""
    return {flag: float(cfg[flag]) for flag in _CLASSIFY_FLAGS if flag in cfg}


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
    if len(axes) != 2:
        raise MalformedInputError("--grid must sweep exactly two parameters")
    return axes


def _sweep_cell(fam, strategy: Normalization, t_span: tuple[float, float],
                opts: dict, classify: dict, params: list[float]) -> dict:
    """One grid cell: integrate_reduced(**opts) from params, classify_limit(**classify)."""
    params = np.asarray(params, dtype=float)
    system = flow.ReducedFlowSystem(fam, params, strategy)
    row = {"params": [float(p) for p in params]}
    try:
        tangent, _ = system.tangent(params)
        row["rhs"] = [float(v) for v in tangent]
        traj = flow.integrate_reduced(fam, params, strategy, t_span, **opts)
        verdict = analysis.classify_limit(traj, **classify)
        row["verdict"] = verdict.verdict
        row["termination"] = traj.termination
        row["final"] = [float(v) for v in traj.states[-1]]
    except NormalizationError as exc:
        row.setdefault("rhs", [float("nan")] * len(params))
        row["verdict"] = "normalization-error"
        row["termination"] = "not-run"
        row["final"] = row["params"]
        row["note"] = str(exc)
    return row


def cmd_sweep(cfg: dict) -> int:
    if cfg.get("family") is None:
        raise MalformedInputError("sweep requires --family")
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
    strategy = _strategy(cfg)
    t_span = list(_t_span(cfg, (0.0, 10.0)))
    opts = {"rtol": rtol, "atol": atol, "samples": _samples(cfg, 60), "events": _events(cfg)}
    cell = partial(_sweep_cell, fam, strategy, tuple(t_span), opts, _classify_tols(cfg))
    points = []
    for v1 in axis1:
        for v2 in axis2:
            values = dict(base)
            values[n1] = float(v1)
            values[n2] = float(v2)
            points.append([values[n] for n in names])

    jobs = int(cfg.get("jobs", 0)) or (os.cpu_count() or 1)
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(cell, points, chunksize=max(1, len(points) // (4 * jobs))))
    else:
        rows = [cell(p) for p in points]

    out_csv = _outpath(cfg, "sweep.csv") or "sweep.csv"
    out_json = _outpath(cfg, "sweep.json") or "sweep.json"
    header = (
        names
        + [f"rhs_{n}" for n in names]
        + ["termination", "verdict"]
        + [f"final_{n}" for n in names]
    )
    cells = [
        [fmt17(v) for v in row["params"] + row["rhs"]]
        + [row["termination"], row["verdict"]]
        + [fmt17(v) for v in row["final"]]
        for row in rows
    ]
    _write_csv(out_csv, header, cells)
    manifest = {
        "family": fam.name,
        "context": fam.context(),
        "grid": {n1: [lo1, hi1, c1], n2: [lo2, hi2, c2]},
        "strategy": strategy.kind,
        "t_span": t_span,
        "rtol": rtol,
        "atol": atol,
        "cells": len(rows),
        "columns": header,
    }
    _dump_json(manifest, out_json)
    print(f"swept {len(rows)} cells -> {out_csv}")
    return EXIT_OK


def cmd_check(cfg: dict) -> int:
    src = _resolve_source(cfg)
    if src.point is not None and not src.point.valid:
        print("seed point failed validation", file=sys.stderr)
        return EXIT_INVALID_POINT
    traj = _run_flow_from_cfg(cfg, src, min_samples=3)  # the audit's stencils
    audit = analysis.identity_audit(traj)
    tol = float(cfg.get("audit_tol", 1e-4))
    doc = audit.as_dict()
    doc["tolerance"] = tol
    doc["passed"] = audit.passed(tol)
    _dump_json(doc, _outpath(cfg, "check.json"), sys.stdout)
    return EXIT_OK if audit.passed(tol) else 1


def cmd_equiv(cfg: dict) -> int:
    src = _resolve_source(cfg)
    if src.point is None:
        raise MalformedInputError("equiv needs a seed with a tensor realization")
    if not src.point.valid:
        print("seed point failed validation", file=sys.stderr)
        return EXIT_INVALID_POINT
    rtol, atol = _tolerances(cfg)
    report = flow.equivalence_report(
        src.point,
        _t_span(cfg, (0.0, 0.3)),
        rtol=rtol,
        atol=atol,
        samples=_samples(cfg, 601),
    )
    threshold = float(cfg.get("threshold", 1e-6))
    doc = report.as_dict()
    doc["threshold"] = threshold
    ok = report.max_bracket_dev <= threshold and report.max_metric_dev <= threshold
    doc["passed"] = ok
    _dump_json(doc, _outpath(cfg, "equiv.json"), sys.stdout)
    return EXIT_OK if ok else EXIT_EQUIV_FAIL


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--tol", type=float, dest="tol", help="relative integrator tolerance")
    common.add_argument("--atol", type=float, help="absolute integrator tolerance")
    common.add_argument("--seed-format", dest="seed_format", choices=["json"])
    common.add_argument("--family", choices=sorted(_FAMILY_CHOICES))
    common.add_argument("--params", help="comma-separated family parameters")
    common.add_argument("--seed", help="bracket JSON (inline or a file path)")
    common.add_argument(
        "--normalization",
        choices=sorted(_STRATEGIES),
        help="normalization strategy (default none)",
    )
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
    sweep.add_argument("--jobs", type=int, help="worker processes (default: cores)")
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
    except ValidityDriftError as exc:
        print(f"validity drift: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except NormalizationError as exc:
        print(f"normalization undefined: {exc}", file=sys.stderr)
        return EXIT_NORMALIZATION


if __name__ == "__main__":
    sys.exit(main())
