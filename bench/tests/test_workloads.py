import pytest

import tracer as tracing
import worker
import workloads


def test_default_seed_reproduces_the_documented_inputs(tmp_path):
    assert workloads.Equiv(0, str(tmp_path)).inputs == list(workloads.Equiv.SEEDS)
    assert [run[1] for run in workloads.Audit(0, str(tmp_path)).inputs] == [
        run[1] for run in workloads.Audit.RUNS
    ]
    assert [s["params"] for s in workloads.Flow(0, str(tmp_path)).specs] == [
        run[1] for run in workloads.Flow.RUNS
    ]
    sweep = workloads.Sweep(0, str(tmp_path))
    assert sweep.axes == [workloads.Sweep.A_AXIS, workloads.Sweep.B_AXIS]
    assert set(map(lambda c: workloads.cell_key(*c), sweep.cells())) == set(
        workloads.load_reference()
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_other_seeds_jitter_inside_the_box(tmp_path, seed):
    flow = workloads.Flow(seed, str(tmp_path))
    moved = False
    for spec, run in zip(flow.specs, workloads.Flow.RUNS):
        for got, base in zip(spec["params"], run[1]):
            if base == 0.0:
                assert got == 0.0
            else:
                assert abs(got / base - 1.0) <= workloads.JITTER
                moved |= got != base
    assert moved
    sweep = workloads.Sweep(seed, str(tmp_path))
    for (lo, hi, n), (lo0, hi0, n0) in zip(sweep.axes, (sweep.A_AXIS, sweep.B_AXIS)):
        assert n == n0 and 0.0 <= lo - lo0 < (hi0 - lo0) / (n0 - 1) / 3
        assert abs((hi - lo) - (hi0 - lo0)) < 1e-12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_passes_its_checks(tmp_path, name):
    wl = workloads.make(name, 0, str(tmp_path), smoke=True)
    result = worker.run_pass(wl.setup())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]


def test_wrong_reference_counts_failed_ops(tmp_path):
    reference = workloads.load_reference()
    sweep = workloads.Sweep(0, str(tmp_path), smoke=True)
    wrong = dict(reference)
    key = workloads.cell_key(*sweep.cells()[0])
    wrong[key] = ["blowup-detected", "finite-time-blowup"]
    assert reference[key] != wrong[key]
    sweep.reference = wrong
    result = worker.run_pass(sweep.setup())
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "reference" in result["failures"][0]


def test_flow_check_catches_a_wrong_expectation(tmp_path):
    wl = workloads.make("flow", 0, str(tmp_path), smoke=True)
    wl.specs[1]["verdict"] = "einstein-limit"
    result = worker.run_pass(wl.setup())
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_traced_counts_repeat_and_match_the_solver(tmp_path):
    counts = []
    for _ in range(2):
        wl = workloads.make("flow", 0, str(tmp_path), smoke=True)
        tasks = wl.setup()
        t = tracing.Tracer()
        t.install()
        try:
            assert worker.run_pass(tasks, t)["failed"] == 0
        finally:
            t.uninstall()
        m = t.layer_metrics()
        assert m["trace.hooks_absent"] == 0
        assert m["flow.rhs_evals"] == (
            2 * m["flow.solve_rk54.calls"] + 6 * (m["flow.steps"] + m["flow.rejected"])
        )
        assert m["cli.main.calls"] == 2 and m["core.gl_action.calls"] == 0
        counts.append({k: v for k, v in m.items() if not k.endswith(("_s", ".s"))})
    assert counts[0] == counts[1]
