import json

import bracketflow.core as core
import bracketflow.families as families
import bracketflow.flow as flow
import tracer as tracing
import workloads
from conftest import BENCH


def test_self_time_of_nested_spans():
    t = tracing.Tracer()
    root = t.add_span("root", 0, 100)
    t.add_span("a", 10, 40, parent=root)
    b = t.add_span("b", 50, 90, parent=root)
    t.add_span("a", 60, 70, parent=b)
    agg = t.aggregate()
    assert agg["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert agg["b"] == {"calls": 1, "total_ns": 40, "self_ns": 30}
    assert agg["a"] == {"calls": 2, "total_ns": 40, "self_ns": 40}


def test_wrapped_calls_nest_and_pause():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    assert outer(0) == 2
    with t.paused():
        outer(0)
    agg = t.aggregate()
    assert agg["outer"]["calls"] == 1 and agg["inner"]["calls"] == 2
    assert list(t.parent) == [-1, 0, 0]
    assert agg["outer"]["self_ns"] == agg["outer"]["total_ns"] - agg["inner"]["total_ns"]
    assert all(a["self_ns"] >= 0 for a in agg.values())


def test_missing_hook_is_reported_absent():
    t = tracing.Tracer()
    t.install((
        ("core.gone", "bracketflow.core", "no_such_function"),
        ("x.gone", "bracketflow.no_such_module", "f"),
        ("families.rhs", "bracketflow.families", "Berger3.no_such_method"),
    ))
    t.uninstall()
    assert t.absent == [
        "bracketflow.core:no_such_function",
        "bracketflow.no_such_module:f",
        "bracketflow.families:Berger3.no_such_method",
    ]
    assert t.layer_metrics()["trace.hooks_absent"] == 3


def test_uninstall_restores_module_and_class_attributes():
    gl_action = core.gl_action
    own, inherited = families.Berger3.__dict__["rhs"], families.SemisimpleSu2.rhs
    t = tracing.Tracer()
    t.install(tracing.HOOKS + (("families.rhs", "bracketflow.families", "SemisimpleSu2.rhs"),))
    assert core.gl_action is not gl_action
    assert "rhs" in families.SemisimpleSu2.__dict__
    t.uninstall()
    assert t.absent == []
    assert core.gl_action is gl_action
    assert families.Berger3.__dict__["rhs"] is own
    assert "rhs" not in families.SemisimpleSu2.__dict__
    assert families.SemisimpleSu2.rhs is inherited


def test_benchmark_json_lists_exactly_the_traced_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.Tracer().layer_metrics())
    produced |= {"flow.equiv_max_dev", "analysis.audit_worst", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_steps_match_a_direct_integrate_call():
    point = families.berger3(1.0, 1.0, 0.0).point
    direct = flow.integrate(point, flow.UNNORMALIZED, (0.0, 0.3), samples=601)
    t = tracing.Tracer()
    t.install()
    try:
        traced = flow.integrate(point, flow.UNNORMALIZED, (0.0, 0.3), samples=601)
    finally:
        t.uninstall()
    m = t.layer_metrics()
    assert direct.stats.n_steps == traced.stats.n_steps == m["flow.steps"] == 600
    assert m["flow.samples"] == 601 and m["flow.solve_rk54.calls"] == 1
    assert m["flow.rhs_evals"] == 2 + 6 * (m["flow.steps"] + m["flow.rejected"])
    assert m["flow.tangent.calls"] == m["flow.rhs_evals"]
