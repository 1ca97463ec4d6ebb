import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bracketflow.cli import fmt17, main, write_trajectory_csv
from bracketflow.core import act_gl, validate_point
from bracketflow.curvature import curvature_pieces
from bracketflow.families import (Berger3, NoRealizationError, SemisimpleFamily, berger3,
                                  get_family)
from bracketflow.flow import (
    BRACKET_NORM,
    SCALAR_CURVATURE,
    UNNORMALIZED,
    VOLUME,
    EventConfig,
    integrate,
    integrate_reduced,
    rescale_to_ricci_norm,
)
from conftest import solvable_point


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_ricci_unimodular(tmp_path, capsys):
    code = run(["ricci", "--family", "unimodular3", "--params", "1,1,1",
                "--out", tmp_path])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["R"] == pytest.approx(1.5)
    assert (tmp_path / "ricci.json").exists()


def test_ricci_berger_product(tmp_path, capsys):
    code = run(["ricci", "--family", "berger3", "--params", "0,1,0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [doc["Ric"][i][i] for i in range(3)] == pytest.approx([0.0, 1.0, 1.0])


def test_ricci_inline_zero_bracket(capsys):
    code = run(["ricci", "--seed", '{"q": 0, "n": 3, "entries": []}'])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(doc["Ric"])).max() == 0.0


def test_ricci_semisimple_closed_form(capsys):
    code = run(["ricci", "--family", "semisimple", "--params", "1,1,3,5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["realization"] == "closed-form"
    assert doc["R"] == pytest.approx(2.0)


def test_semisimple_1_2_is_the_concrete_su2_family(tmp_path, capsys):
    code = run(["ricci", "--family", "semisimple", "--params", "1,2,1,2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "realization" not in doc and doc["validation"]["h1"] == 0.0
    assert run(["ricci", "--family", "semisimple-su2", "--params", "1,2"]) == 0
    su2 = json.loads(capsys.readouterr().out)
    assert doc["Ric"] == su2["Ric"] and doc["R"] == su2["R"]
    code = run(["flow", "--family", "semisimple", "--params", "1,0.5,1,2",
                "--t-span", "0:-2", "--samples", "5", "--out", tmp_path])
    assert code == 0
    assert read_json(tmp_path / "flow.json")["run"]["system"]["kind"] == "bracket"


def test_exit_code_malformed(capsys):
    assert run(["ricci", "--seed", '{"q": 0']) == 3
    assert run(["ricci", "--family", "unimodular3", "--params", "1,1"]) == 3
    assert run(["flow", "--family", "berger3", "--params", "1,1,0",
                "--t-span", "zero:one"]) == 3


def test_exit_code_invalid_point(capsys):
    bad = '{"q": 0, "n": 3, "entries": [[0, 1, 2, 1.0], [0, 2, 0, 1.0]]}'
    assert run(["ricci", "--seed", bad]) == 2
    capsys.readouterr()
    for command in ("flow", "check", "equiv"):
        assert run([command, "--seed", bad, "--t-span", "0:1"]) == 2
        assert capsys.readouterr() == ("", "seed point failed validation\n")


def test_exit_code_drift(tmp_path, capsys):
    # An absurdly small drift allowance trips on harmless float noise of a
    # generic (conjugated) seed, exercising the abort path end to end.
    from scipy.linalg import expm

    from bracketflow.core import act_gl, bracket_to_json
    from bracketflow.families import unimodular3

    rot = expm(np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.7], [0.1, -0.7, 0.0]]))
    mu = act_gl(unimodular3(1, 2, 3).point.bracket, np.zeros((0, 0)), rot)
    seed = json.dumps(bracket_to_json(mu))
    code = run(["flow", "--seed", seed, "--t-span", "0:1",
                "--drift-factor", "1e-14", "--out", tmp_path])
    assert code == 4
    manifest = read_json(tmp_path / "flow.json")
    assert "error" in manifest


def _rotated_seed() -> str:
    # unimodular3(1, 2, 3) moved by a rotation: its Jacobi residual is float noise.
    from scipy.linalg import expm

    from bracketflow.core import bracket_to_json
    from bracketflow.families import unimodular3

    rot = expm(np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.7], [0.1, -0.7, 0.0]]))
    return json.dumps(bracket_to_json(act_gl(unimodular3(1, 2, 3).point.bracket,
                                             np.zeros((0, 0)), rot)))


_B120 = ["--family", "berger3", "--params", "1,2,0"]


@pytest.mark.parametrize("argv, code, termination", [
    (["--family", "berger3", "--params", "1,1,0", "--t-span", "0:0.3"], 0, "reached-t-end"),
    ([*_B120, "--t-span", "0:1"], 0, "blowup-detected"),
    (["--family", "berger3", "--params", "0.5,1,0", "--normalization", "volume",
      "--t-span", "0:60"], 0, "converged-to-fixed-point"),
    ([*_B120, "--t-span", "0:5", "--blowup-threshold", "1e300"], 0, "step-underflow"),
    (["--seed", _rotated_seed(), "--t-span", "0:1", "--drift-factor", "1e-14"], 4,
     "validity-drift"),
    (["--seed", _rotated_seed(), "--t-span", "0:1", "--drift-factor", "1e-14",
      "--normalization", "ricci-norm"], 4, "validity-drift"),  # the unnormalized run drifts
    (["--family", "semisimple", "--params", "0,0,3,5", "--normalization", "scalar-curvature"],
     6, "normalization-undefined"),  # R = 0 at the start of a reduced run
])
def test_flow_exit_code_reads_the_termination(tmp_path, capsys, argv, code, termination):
    # A failed run writes its samples and a manifest with the error and no
    # classification, prints one stderr line and exits 4 or 6; every other
    # termination exits 0.
    assert run(["flow", *argv, "--samples", 21, "--out", tmp_path]) == code
    manifest = read_json(tmp_path / "flow.json")
    assert manifest["termination"] == termination
    rows = (tmp_path / "flow.csv").read_text().splitlines()
    assert len(rows) == 1 + manifest["run"]["samples"]
    out, err = capsys.readouterr()
    if code == 0:
        assert "error" not in manifest and "classification" in manifest and err == ""
        assert out.startswith(f"{termination}: ")
        return
    assert "classification" not in manifest and manifest["error"] == manifest["run"]["notes"][0]
    label = {4: "validity drift", 6: "normalization undefined"}[code]
    assert out == "" and err == f"{label}: {manifest['error']}\n"
    if code == 6:
        assert err == "normalization undefined: scalar-curvature normalization needs R != 0\n"
        assert len(rows) == 2 and rows[1] == "0,1,0,0,0,0,0,0,0,0"


def test_check_exit_code_reads_the_termination(tmp_path, capsys):
    # check maps a failed run as flow does, and audits no partial run.
    argv = ["check", "--seed", _rotated_seed(), "--t-span", "0:0.2", "--out", tmp_path]
    assert run(argv + ["--drift-factor", "1e-14"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validity drift: Jacobi residual ")
    assert not (tmp_path / "check.json").exists()
    assert run(argv) == 0 and read_json(tmp_path / "check.json")["passed"]


def test_default_tolerances_are_the_library_defaults(tmp_path, capsys):
    # atol defaults to tol / 1000, which is the library's 1e-12 exactly, so a
    # CLI run with default options is the library run with default options.
    # On this run atol = 1.0000000000000002e-12 takes 4 more steps.
    assert run(["flow", "--family", "berger3", "--params", "0.5,-0.1875,0", "--normalization",
                "scalar-curvature", "--t-span", "0:60", "--out", tmp_path]) == 0
    manifest = read_json(tmp_path / "flow.json")
    assert (manifest["rtol"], manifest["atol"]) == (1e-9, 1e-12)
    traj = integrate(berger3(0.5, -0.1875, 0).point, SCALAR_CURVATURE, (0.0, 60.0))
    assert manifest["run"]["steps"] == traj.stats.n_steps
    with open(tmp_path / "flow.csv") as f:
        last = f.read().splitlines()[-1].split(",")
    # 17 significant digits read back to the same doubles
    assert np.array(last[8:], dtype=float).tobytes() == traj.states[-1].tobytes()


def test_flow_blowup_manifest(tmp_path, capsys):
    code = run(["flow", "--family", "berger3", "--params", "1,2,0",
                "--t-span", "0:5", "--out", tmp_path])
    assert code == 0
    manifest = read_json(tmp_path / "flow.json")
    assert manifest["termination"] == "blowup-detected"
    assert manifest["classification"]["verdict"] == "finite-time-blowup"
    # Type I: (T - t) |Ric| = sqrt(3) / 2 at the closing sample.
    assert manifest["run"]["blowup_ricci_product"] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)
    assert manifest["run"]["trigger_value"] > manifest["events"]["blowup_threshold"]
    with open(tmp_path / "flow.csv") as f:
        header = f.readline().strip().split(",")
    assert header[:8] == ["t", "c", "tau", "R", "ric_norm", "mu_p_norm2", "H_norm2", "trB"]
    assert manifest["state_columns"] == header[8:]


def test_flow_negative_scalar_limit(tmp_path, capsys):
    code = run(["flow", "--family", "berger3", "--params", "0.5,-0.1875,0",
                "--normalization", "scalar-curvature", "--t-span", "0:60",
                "--samples", "120", "--out", tmp_path])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "flow.csv")))
    a = float(rows[-1]["c_2_3_1"])
    b = float(rows[-1]["c_2_3_0"])
    assert abs(a) < 1e-3 and abs(b + 0.25) < 1e-3


def test_flow_backward_ancient(tmp_path, capsys):
    code = run(["flow", "--family", "semisimple", "--params", "1,0.5,3,5",
                "--t-span", "0:-50", "--out", tmp_path])
    assert code == 0
    manifest = read_json(tmp_path / "flow.json")
    assert manifest["termination"] == "reached-t-end"
    assert manifest["classification"]["verdict"] == "bounded-ancient"


def test_flow_determinism(tmp_path, capsys):
    argv = ["flow", "--family", "unimodular3", "--params", "1,2,3",
            "--t-span", "0:0.2", "--samples", "101"]
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    assert run(argv + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a/flow.csv").read_bytes() == (tmp_path / "b/flow.csv").read_bytes()


def test_sweep_axes_and_signs(tmp_path, capsys):
    code = run(["sweep", "--family", "berger3", "--params", "1,1,0",
                "--grid", "a=0:2:5,b=-1:2:7", "--t-span", "0:5",
                "--samples", "40", "--jobs", "1", "--out", tmp_path])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert len(rows) == 35
    for row in rows:
        a, b = float(row["a"]), float(row["b"])
        if a == 0:
            assert float(row["rhs_a"]) == 0.0
        if b == 0:
            assert float(row["rhs_b"]) == 0.0


def test_sweep_semisimple_diagonal(tmp_path, capsys):
    # Cells on the line b = a flow along (1, 1): a' = b' = a^3 / 4.
    code = run(["sweep", "--family", "semisimple", "--params", "1,1,3,5",
                "--grid", "a=0.5:1.5:3,b=0.5:1.5:3", "--t-span", "0:1",
                "--samples", "20", "--jobs", "1", "--out", tmp_path])
    assert code == 0
    for row in csv.DictReader(open(tmp_path / "sweep.csv")):
        a, b = float(row["a"]), float(row["b"])
        if a == b:
            assert float(row["rhs_a"]) == pytest.approx(a**3 / 4, rel=1e-12)
            assert float(row["rhs_b"]) == pytest.approx(a**3 / 4, rel=1e-12)


def test_sweep_classification_split(tmp_path, capsys):
    # The dim-3 family separates cleanly: every b > 0 cell blows up in finite
    # time, every b <= 0 cell collapses toward the flat limit.
    code = run(["sweep", "--family", "berger3", "--params", "1,1,0",
                "--grid", "a=0:2:4,b=-1:2:7", "--t-span", "0:600",
                "--samples", "50", "--zero-tol", "0.05", "--jobs", "2",
                "--out", tmp_path])
    assert code == 0
    for row in csv.DictReader(open(tmp_path / "sweep.csv")):
        if float(row["b"]) > 0:
            assert row["verdict"] == "finite-time-blowup", row
        else:
            assert row["verdict"] in ("zero-collapse", "flat-limit"), row


def test_sweep_bad_grid_axis(tmp_path, capsys):
    assert run(["sweep", "--family", "berger3", "--params", "1,1,0",
                "--grid", "a=0:2:4,zz=-1:1:3", "--t-span", "0:5"]) == 3
    assert run(["sweep", "--family", "berger3", "--params", "1,1,0",
                "--grid", "a=0:2:4", "--t-span", "0:5"]) == 3


def test_sweep_determinism_parallel(tmp_path, capsys):
    argv = ["sweep", "--family", "berger3", "--params", "1,1,0",
            "--grid", "a=0:2:4,b=-1:1:5", "--t-span", "0:20",
            "--samples", "40", "--jobs", "2"]
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    assert run(argv + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()


# Termination and verdict of every cell in CSV order, as the sweep gave them
# when it still ran one integrate_reduced per cell.
_CELL_CODES = {
    "Z": ("reached-t-end", "zero-collapse"),
    "I": ("reached-t-end", "inconclusive"),
    "B": ("blowup-detected", "finite-time-blowup"),
    "E": ("converged-to-fixed-point", "einstein-limit"),
    "S": ("converged-to-fixed-point", "soliton-limit"),
    "F": ("converged-to-fixed-point", "flat-limit"),
    "N": ("not-run", "normalization-error"),
}
_BERGER_GRID = (["--family", "berger3", "--params", "1,1,0", "--grid", "a=0:2:5,b=-1:2:7",
                 "--t-span", "0:600", "--zero-tol", "0.05", "--samples", "50"], {}, (0.0, 600.0))
_SEMISIMPLE_GRID = (["--family", "semisimple", "--params", "1,1,3,5", "--grid",
                     "a=0.5:1.5:3,b=0.5:1.5:3", "--t-span", "0:1", "--samples", "20"],
                    {"h_dim": 3, "m_dim": 5}, (0.0, 1.0))
_UNIMODULAR_GRID = (["--family", "unimodular3", "--params", "1,1,0", "--grid", "a=0:2:3,b=0:2:3",
                     "--t-span", "0:0.5", "--samples", "20"], {}, (0.0, 0.5))


def _reference_tangent(fam, kind, p):
    """Normalized tangent at the columns of p from the closed forms alone."""
    ric, r = fam.ricci_diag(p), 0.0
    if kind == "volume":
        r = -ric.sum(axis=0) / fam.n_p
    elif kind == "scalar-curvature":
        r = -(ric * ric).sum(axis=0) / ric.sum(axis=0)
    elif kind == "bracket-norm":
        r = 4.0 * (ric * fam.moment_diag(p)).sum(axis=0) / fam.mu_p_norm2(p)
    return fam.rhs(p) + r * np.array(fam.rate_weights)[:, None] * p


@pytest.mark.parametrize(
    "grid, normalization, expected",
    [
        (_BERGER_GRID, "none", "ZZFBBBB" + "ZZZBBBB" * 4),
        (_SEMISIMPLE_GRID, "volume", "EIIIEIIIE"),
        (_SEMISIMPLE_GRID, "scalar-curvature", "EIIIEIIIE"),
        (_SEMISIMPLE_GRID, "bracket-norm", "EIIIEIIIE"),
        (_UNIMODULAR_GRID, "volume", "FIIIFIIIF"),
        (_UNIMODULAR_GRID, "scalar-curvature", "NSSSNBSBN"),
        (_UNIMODULAR_GRID, "bracket-norm", "NSSSFISIF"),
    ],
)
def test_sweep_cells_match_the_per_cell_runs(tmp_path, capsys, grid, normalization, expected):
    argv, context, span = grid
    assert run(["sweep", *argv, "--normalization", normalization, "--out", tmp_path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert [(r["termination"], r["verdict"]) for r in rows] == [_CELL_CODES[c] for c in expected]
    # The cells that reach t_end end where an independent high-order solve does.
    fam = get_family(argv[1], **context)
    names = fam.param_names
    reached = [r for r in rows if r["termination"] == "reached-t-end"]
    if not reached:
        return
    start = np.array([[float(r[n]) for n in names] for r in reached])
    final = np.array([[float(r[f"final_{n}"]) for n in names] for r in reached])
    ref = solve_ivp(
        lambda t, y: _reference_tangent(fam, normalization, y.reshape(-1, len(names)).T).T.ravel(),
        span, start.ravel(), method="DOP853", rtol=1e-12, atol=1e-14,
    )
    assert ref.success
    assert np.all(np.abs(final.ravel() - ref.y[:, -1]) <= 1e-6 * np.abs(ref.y[:, -1]))


def test_sweep_stats_sum_the_cells_run_alone(tmp_path, capsys):
    assert run(["sweep", "--family", "berger3", "--params", "1,1,0", "--grid", "a=0:2:3,b=-1:2:4",
                "--t-span", "0:5", "--samples", "20", "--tol", "1e-9", "--atol", "1e-12",
                "--out", tmp_path]) == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    runs = [integrate_reduced(get_family("berger3"), [float(r[n]) for n in "abc"], UNNORMALIZED,
                              (0.0, 5.0), rtol=1e-9, atol=1e-12, samples=20) for r in rows]
    assert read_json(tmp_path / "sweep.json")["stats"] == {
        "steps": sum(t.stats.n_steps for t in runs),
        "rejected_steps": sum(t.stats.n_rejected for t in runs),
        "rhs_evals": sum(t.stats.nfev for t in runs),
    }


def test_sweep_imports_no_process_pool():
    # The cells run as one batch: importing the CLI loads no worker pool.
    # Nor scipy, a test-only dependency: the solver's coefficients are literals.
    # Nor _poly: the tensor tables are built on first use, not at import.
    code = ("import sys, bracketflow.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing', 'scipy', 'bracketflow._poly'}"
            " & set(sys.modules))); "
            "from bracketflow._poly import tables; print(tables.cache_info().currsize)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["[]", "0"]


@pytest.mark.parametrize("case", [
    ["--family", "unimodular3", "--params", "1,2,3", "--t-span", "0:0.2", "--samples", "241"],
    # Converges at t = 8.9, so its closing sample makes the grid nonuniform.
    ["--family", "berger3", "--params", "0.5,1,0", "--normalization", "volume",
     "--t-span", "0:40", "--samples", "1001"],
], ids=["unimodular3", "converged"])
def test_check_command(tmp_path, capsys, case):
    argv = ["check", *case, "--out", tmp_path]
    assert run(argv) == 0
    doc = read_json(tmp_path / "check.json")
    assert doc["passed"] is True and doc["worst"] <= 1e-4
    # An unreasonably tight tolerance flips the exit code.
    assert run(argv + ["--audit-tol", "1e-12"]) == 1


def test_check_without_a_tensor_realization_exits_3(tmp_path, capsys):
    # The audit needs the brackets, which this semisimple family cannot embed.
    argv = ["check", "--family", "semisimple", "--params", "1,2,2,1", "--t-span", "0:1",
            "--samples", "101", "--out", tmp_path / "out"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err == "malformed input: check needs a seed with a tensor realization\n"
    assert not (tmp_path / "out").exists()


def test_equiv_command(tmp_path, capsys):
    argv = ["equiv", "--family", "unimodular3", "--params", "1,2,3",
            "--t-span", "0:0.3", "--out", tmp_path]
    assert run(argv) == 0
    doc = read_json(tmp_path / "equiv.json")
    assert doc["passed"] is True
    assert doc["max_bracket_dev"] <= 1e-6
    assert run(argv + ["--threshold", "1e-13"]) == 5


def test_equiv_determinism(tmp_path, capsys):
    argv = ["equiv", "--family", "berger3", "--params", "1,1,0",
            "--t-span", "0:0.3", "--samples", "121"]
    assert run(argv + ["--out", tmp_path / "a"]) == 0
    assert run(argv + ["--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a/equiv.json").read_bytes() == (tmp_path / "b/equiv.json").read_bytes()


@pytest.mark.parametrize(
    "family, params, t_span",
    [("unimodular3", "1,2,3", "0:0.5"), ("berger3", "1,2,0", "0:1")],
)
def test_equiv_past_a_blowup_reports_partial(tmp_path, capsys, family, params, t_span):
    # Both runs pass their blowup (near t = 0.316 and t = 0.406): the report
    # covers the prefix both pairs (each a flow with its gauge) share.  That
    # prefix agrees, and the exit code reads the threshold only.
    argv = ["equiv", "--family", family, "--params", params,
            "--t-span", t_span, "--samples", "101", "--out", tmp_path]
    assert run(argv) == 0
    doc = read_json(tmp_path / "equiv.json")
    assert doc["partial"] is True and doc["passed"] is True
    assert doc["t_final"] < 0.41
    # The compared samples share their times: t_final is a grid time, not the
    # closing sample of one record.
    lo, hi = map(float, t_span.split(":"))
    assert doc["t_final"] in np.linspace(lo, hi, 101)
    assert np.isfinite(doc["max_bracket_dev"]) and np.isfinite(doc["max_metric_dev"])


def test_equiv_threshold_reads_the_absolute_deviations(tmp_path, capsys):
    # berger3(0.5,1,0) blows up near t = 0.69, where |mu| is 1.6e4: the
    # metric side's pushforward is 4.08e-3 off in absolute terms and 2.5e-7
    # relative to |mu(t)|.  Both are recorded per side; --threshold
    # (1e-6 by default) reads the absolute ones, so the run exits 5.
    argv = ["equiv", "--family", "berger3", "--params", "0.5,1,0",
            "--t-span", "0:1", "--samples", "201", "--out", tmp_path]
    assert run(argv) == 5
    doc = read_json(tmp_path / "equiv.json")
    assert doc["partial"] is True and doc["passed"] is False
    metric = doc["per_side"]["metric"]
    assert metric["bracket_dev"] == pytest.approx(4.08e-3, rel=0.01)
    assert 1e-7 < metric["bracket_rel_dev"] < 3e-7
    # The bracket side steps DOP853 toward the blowup, with the predictive
    # factor, in 99 steps and next to no rejections (96 without the factor).
    assert doc["stats"]["bracket"]["rejected_steps"] <= 5
    for side in doc["per_side"].values():
        assert set(side) == {"bracket_dev", "metric_dev", "bracket_rel_dev", "metric_rel_dev"}
        assert side["metric_rel_dev"] < 1e-6


def test_config_file_with_overrides(tmp_path, capsys):
    config = {
        "family": "berger3",
        "params": [1, 2, 0],
        "t_span": [0, 5],
        "samples": 33,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = run(["flow", "--config", cfg_path, "--out", tmp_path, "--samples", "21"])
    assert code == 0
    manifest = read_json(tmp_path / "flow.json")
    assert manifest["run"]["samples"] <= 21  # override wins; blowup may truncate


def test_seed_file(tmp_path, capsys):
    seed = {"q": 0, "n": 3, "entries": [[1, 2, 0, 1.0]]}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    assert run(["ricci", "--seed", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["R"] == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--family", "unimodular3", "--params", "1,1,0",
         "--normalization", "scalar-curvature"],  # R = 0
        ["flow", "--family", "berger3", "--params", "0,1,0",
         "--normalization", "bracket-norm"],  # mu_p = 0
        ["check", "--family", "unimodular3", "--params", "1,1,0",
         "--normalization", "ricci-norm"],  # flat start
    ],
)
def test_undefined_normalization_exits_6(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path]) == 6
    err = capsys.readouterr().err
    assert err.startswith("normalization undefined: ") and err.count("\n") == 1
    assert "Traceback" not in err


_U123 = ["--family", "unimodular3", "--params", "1,2,3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", *_U123, "--samples", "1"],
        ["check", *_U123, "--samples", "1"],
        ["check", *_U123, "--samples", "2"],  # the audit needs three
        ["equiv", *_U123, "--samples", "1"],
        ["sweep", "--family", "berger3", "--params", "1,1,0",
         "--grid", "a=0:1:2,b=0:1:2", "--samples", "1", "--jobs", "1"],
        ["flow", *_U123, "--t-span", "0:0"],
        ["equiv", *_U123, "--t-span", "0:inf"],
        ["check", *_U123, "--t-span", "nan:1"],
        ["flow", *_U123, "--tol", "nan"],
        ["flow", *_U123, "--tol", "inf"],
        ["flow", *_U123, "--atol", "nan"],
        ["check", *_U123, "--tol", "inf"],
        ["flow", *_U123, "--blowup-threshold", "nan"],
        ["flow", *_U123, "--conv-threshold", "inf"],
        ["flow", *_U123, "--drift-factor", "nan"],
    ],
)
def test_bad_sampling_flags_exit_3(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [["--drift-factor", "-1"], ["--drift-factor", "0"], ["--blowup-threshold", "0"],
     ["--blowup-threshold", "-5"], ["--conv-threshold=-1e-3"], ["--conv-window", "0"]],
)
@pytest.mark.parametrize("command", [
    ["flow", "--family", "berger3", "--params", "1,2,0", "--t-span", "0:1"],
    ["sweep", "--family", "berger3", "--params", "1,1,0", "--grid", "a=0:1:2,b=0:1:2"],
])
def test_out_of_range_event_thresholds_exit_3(tmp_path, capsys, command, flags):
    # A non-positive drift factor or blowup threshold would end every run at
    # its first step; each threshold is checked against its range up front.
    assert run(command + flags + ["--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and " must be " in err
    assert not (tmp_path / "flow.json").exists() and not (tmp_path / "sweep.json").exists()


def test_zero_conv_threshold_is_accepted(tmp_path, capsys):
    assert run(["flow", "--family", "berger3", "--params", "1,2,0", "--t-span", "0:0.1",
                "--conv-threshold", "0", "--conv-window", "1", "--out", tmp_path]) == 0


@pytest.mark.parametrize("config", [{"samples": 1}, {"t_span": [1, 1]}, {"tol": "abc"},
                                    {"atol": [1]}, {"blowup_threshold": "abc"},
                                    {"conv_window": "x"}])
def test_bad_sampling_config_exits_3(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["flow", *_U123, "--config", cfg_path, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


def test_bad_jobs_config_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"jobs": "x"}))
    assert run(["sweep", "--family", "berger3", "--params", "1,1,0", "--grid", "a=0:1:2,b=0:1:2",
                "--config", cfg_path, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


def test_sweep_refuses_ricci_norm(tmp_path, capsys):
    # The reduced flow has no pointwise ricci-norm rate, so no cell could run.
    assert run(["sweep", "--family", "berger3", "--params", "1,1,0", "--grid", "a=0:2:2,b=-1:2:2",
                "--t-span", "0:1", "--samples", "5", "--normalization", "ricci-norm",
                "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "ricci-norm" in err
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("command", ["flow", "check"])
def test_ricci_norm_refuses_a_backward_span(tmp_path, capsys, command):
    # The rescaling re-solves the normalized flow forward from the first bracket.
    assert run([command, *_U123, "--t-span", "0:-1", "--samples", "31",
                "--normalization", "ricci-norm", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "ricci-norm" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _reference_rows(traj) -> list[str]:
    """traj's CSV rows with each sample's diagnostics computed on their own:
    from the curvature report of its bracket, or from the family's closed
    forms when there is no bracket."""
    rows = []
    for i in range(traj.n_samples):
        try:
            mu = traj.bracket_at(i)
        except NoRealizationError:
            fam, p = traj.system.family, traj.states[i]
            ric = fam.ricci_diag(p)
            diag = (np.sum(ric), np.linalg.norm(ric), fam.mu_p_norm2(p), 0.0,
                    np.sum(fam.killing_diag(p)))
        else:
            rep = curvature_pieces(mu)
            diag = (rep.R, np.linalg.norm(rep.Ric), np.sum(mu.mu_p**2), rep.H @ rep.H,
                    np.trace(rep.B))
        cells = (traj.times[i], traj.c[i], traj.tau[i], *diag, *traj.states[i])
        rows.append(",".join(fmt17(v) for v in cells))
    return rows


def _assert_csv_is_per_row(traj, path):
    write_trajectory_csv(traj, path)
    assert path.read_text().splitlines()[1:] == _reference_rows(traj)


def _moved_berger():
    # q = 1, with H != 0 after a compatible change of basis.
    rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.8, -0.6], [0.0, 0.6, 0.8]])
    h_n = rot @ np.diag([1.3, 0.7, 0.7])
    return validate_point(act_gl(berger3(0.5, 1.0, 0.2).point.bracket, np.array([[1.2]]), h_n))


@pytest.mark.parametrize("strategy", [UNNORMALIZED, VOLUME, SCALAR_CURVATURE, BRACKET_NORM],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("t_span", [(0.0, 0.5), (0.0, -0.5)], ids=["forward", "backward"])
def test_csv_diagnostics_are_the_per_row_ones_on_tensor_runs(tmp_path, strategy, t_span):
    for i, point in enumerate([solvable_point(1.0, 0.6), _moved_berger()]):
        traj = integrate(point, strategy, t_span, samples=21)
        _assert_csv_is_per_row(traj, tmp_path / f"flow{i}.csv")


def test_csv_diagnostics_are_the_per_row_ones_on_rescaled_and_partial_runs(tmp_path):
    base = integrate(solvable_point(1.0, 0.6), UNNORMALIZED, (0.0, 0.5), samples=41)
    _assert_csv_is_per_row(rescale_to_ricci_norm(base, samples=31), tmp_path / "rn.csv")
    partial = integrate(_moved_berger(), UNNORMALIZED, (0.0, 1.0), samples=41,
                        events=EventConfig(drift_factor=1e-14))  # below float noise
    assert partial.termination == "validity-drift" and partial.n_samples < 41
    _assert_csv_is_per_row(partial, tmp_path / "drift.csv")


def test_csv_diagnostics_are_the_per_row_ones_on_reduced_runs(tmp_path):
    traj = integrate_reduced(Berger3(), [0.5, 1.0, 0.2], VOLUME, (0.0, 3.0), samples=41)
    _assert_csv_is_per_row(traj, tmp_path / "berger.csv")
    # No tensor realization: the closed forms, which a stacked evaluation would
    # round differently (an array's ** 2 is x * x, a float's is pow).
    traj = integrate_reduced(SemisimpleFamily(5, 9), [0.7, 0.3], UNNORMALIZED, (0.0, -1.0),
                             samples=200)
    _assert_csv_is_per_row(traj, tmp_path / "semisimple.csv")
