import csv
import json

import numpy as np
import pytest

from bracketflow.cli import main


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
    assert run(["flow", "--seed", bad, "--t-span", "0:1"]) == 2


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


def test_flow_blowup_manifest(tmp_path, capsys):
    code = run(["flow", "--family", "berger3", "--params", "1,2,0",
                "--t-span", "0:5", "--out", tmp_path])
    assert code == 0
    manifest = read_json(tmp_path / "flow.json")
    assert manifest["termination"] == "blowup-detected"
    assert manifest["classification"]["verdict"] == "finite-time-blowup"
    # Type I: (T - t) |Ric| = sqrt(3) / 2 at the closing sample.
    assert manifest["run"]["blowup_ricci_product"] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)
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


def test_check_command(tmp_path, capsys):
    argv = ["check", "--family", "unimodular3", "--params", "1,2,3",
            "--t-span", "0:0.2", "--samples", "241", "--out", tmp_path]
    assert run(argv) == 0
    doc = read_json(tmp_path / "check.json")
    assert doc["passed"] is True and doc["worst"] <= 1e-4
    # An unreasonably tight tolerance flips the exit code.
    assert run(argv + ["--audit-tol", "1e-12"]) == 1


def test_equiv_command(tmp_path, capsys):
    argv = ["equiv", "--family", "unimodular3", "--params", "1,2,3",
            "--t-span", "0:0.3", "--out", tmp_path]
    assert run(argv) == 0
    doc = read_json(tmp_path / "equiv.json")
    assert doc["passed"] is True
    assert doc["max_bracket_dev"] <= 1e-6
    assert run(argv + ["--threshold", "1e-13"]) == 5


@pytest.mark.parametrize(
    "family, params, t_span",
    [("unimodular3", "1,2,3", "0:0.5"), ("berger3", "1,2,0", "0:1")],
)
def test_equiv_past_a_blowup_reports_partial(tmp_path, capsys, family, params, t_span):
    # Both runs pass their blowup (near t = 0.316 and t = 0.406): the report
    # covers the prefix the flows and gauges share and fails the threshold.
    argv = ["equiv", "--family", family, "--params", params,
            "--t-span", t_span, "--samples", "101", "--out", tmp_path]
    assert run(argv) == 5
    doc = read_json(tmp_path / "equiv.json")
    assert doc["partial"] is True and doc["passed"] is False
    assert doc["t_final"] < 0.41
    # The compared samples share their times: t_final is a grid time, not the
    # closing sample of one record.
    lo, hi = map(float, t_span.split(":"))
    assert doc["t_final"] in np.linspace(lo, hi, 101)
    assert np.isfinite(doc["max_bracket_dev"]) and np.isfinite(doc["max_metric_dev"])


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
    ],
)
def test_bad_sampling_flags_exit_3(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


@pytest.mark.parametrize("config", [{"samples": 1}, {"t_span": [1, 1]}])
def test_bad_sampling_config_exits_3(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["flow", *_U123, "--config", cfg_path, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err
