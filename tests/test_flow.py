import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from bracketflow._rk import solve_rk54
from bracketflow.core import (
    BracketTensor,
    CompatibilityError,
    InvalidPointError,
    act_gl,
    compatibility_residual,
    component_norms,
    jacobi_residual,
    pack_state,
    rescale,
    unpack_state,
    validate_point,
)
from bracketflow.curvature import curvature_pieces, ricci_operator
from bracketflow.families import (
    Berger3,
    SemisimpleFamily,
    SemisimpleSu2,
    Unimodular3,
    berger3,
    semisimple_concrete_su2,
    unimodular3,
)
from bracketflow.flow import (
    BRACKET_NORM,
    RICCI_NORM,
    SCALAR_CURVATURE,
    UNNORMALIZED,
    VOLUME,
    EventConfig,
    MetricState,
    Normalization,
    NormalizationError,
    TensorFlowSystem,
    _metric_ricci_form,
    _pack_sym,
    _run_flow,
    _run_metric,
    _unpack_sym,
    bracket_rhs,
    custom_rate,
    equivalence_report,
    integrate,
    integrate_gauge,
    integrate_metric,
    integrate_reduced,
    metric_ricci,
    metric_rhs,
    normalization_rate,
    normalized_rhs,
    reparametrize,
    rescale_to_ricci_norm,
    ricci_norm_rate,
)

from conftest import random_valid_point, solvable_point


def test_bracket_rhs_examples():
    cat = berger3(1, 1, 0)
    tangent = bracket_rhs(cat.point)
    assert tangent.c[2, 3, 1] == pytest.approx(0.5)
    assert tangent.c[2, 3, 0] == pytest.approx(1.0)
    assert np.abs(tangent.iso_part()).max() == 0.0

    flat = unimodular3(1, 1, 0)
    assert np.abs(bracket_rhs(flat.point).c).max() < 1e-15

    fam = SemisimpleFamily(3, 5)
    assert np.allclose(fam.rhs([1.0, 1.0]), [0.25, 0.25])


def test_bracket_rhs_requires_valid():
    bad = validate_point(
        BracketTensor.from_entries(0, 3, [[0, 1, 2, 1.0], [0, 2, 0, 1.0]])
    )
    with pytest.raises(InvalidPointError):
        bracket_rhs(bad)


def test_normalization_rates():
    cat = berger3(1, 1, 0)
    assert normalization_rate(cat.point, VOLUME) == pytest.approx(-0.5)
    assert normalization_rate(cat.point, SCALAR_CURVATURE) == pytest.approx(-0.5)
    assert normalization_rate(cat.point, UNNORMALIZED) == 0.0
    flat = unimodular3(1, 1, 0)
    assert normalization_rate(flat.point, VOLUME) == 0.0
    assert normalization_rate(flat.point, BRACKET_NORM) == 0.0


def test_normalization_rate_errors():
    flat = unimodular3(1, 1, 0)  # R = 0
    with pytest.raises(NormalizationError):
        normalization_rate(flat.point, SCALAR_CURVATURE)
    only_k = berger3(0, 1, 0)  # mu_p = 0
    with pytest.raises(NormalizationError):
        normalization_rate(only_k.point, BRACKET_NORM)
    with pytest.raises(NormalizationError):
        normalization_rate(flat.point, RICCI_NORM)
    with pytest.raises(NormalizationError):
        integrate(unimodular3(1, 0, 0).point, RICCI_NORM, (0, 1))
    # A kind with no rate at all is refused at the boundary of every run.
    bogus = Normalization("bogus")
    for start in (lambda: integrate(flat.point, bogus),
                  lambda: normalization_rate(flat.point, bogus),
                  lambda: integrate_reduced(Berger3(), (1, 2, 0), bogus)):
        with pytest.raises(NormalizationError, match="^unknown normalization kind 'bogus'$"):
            start()


def test_normalized_rhs_fixed_points():
    vol = normalized_rhs(berger3(1, 1, 0).point, VOLUME)
    assert np.abs(vol.c).max() <= 1e-12
    sc1 = normalized_rhs(berger3(1, 1, 0).point, SCALAR_CURVATURE)
    assert np.abs(sc1.c).max() <= 1e-12
    sc2 = normalized_rhs(berger3(0, 0.75, 0).point, SCALAR_CURVATURE)
    assert np.abs(sc2.c).max() <= 1e-12
    un = normalized_rhs(berger3(1, 1, 0).point, UNNORMALIZED)
    assert np.abs(un.c - bracket_rhs(berger3(1, 1, 0).point).c).max() == 0.0


def test_integrate_blowup_forward():
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0.0, 5.0), samples=80)
    assert traj.termination == "blowup-detected"
    assert traj.times[-1] < 1.0
    assert traj.stats.blowup_time_estimate is not None
    assert traj.stats.blowup_time_estimate == pytest.approx(traj.times[-1], rel=0.05)
    # Type I: (T - t) |Ric| = sqrt(3) / 2 at the closing sample.
    assert traj.stats.blowup_ricci_product == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)
    # The aux norm that ended the run, read on its last step: the closing sample.
    assert traj.stats.trigger_value == float(np.sqrt(traj.system.aux_norm2(traj.states[-1])))
    assert traj.stats.trigger_value > EventConfig().blowup_norm
    assert traj.describe()["trigger_value"] == traj.stats.trigger_value
    assert np.all(np.diff(traj.times) > 0)
    assert traj.c[0] == 1.0 and traj.tau[0] == 0.0


@pytest.mark.parametrize(
    "run",
    [
        lambda ev: integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0.0, 5.0), samples=80, events=ev),
        lambda ev: integrate_reduced(Berger3(), [1, 2, 0], UNNORMALIZED, (0.0, 5.0), samples=80, events=ev),
        lambda ev: integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 1.0), samples=80, events=ev),
    ],
    ids=["berger3", "berger3-reduced", "unimodular3"],
)
def test_blowup_time_does_not_depend_on_the_blowup_norm(run):
    # Near a type-I singularity 1/|Ric| is linear in t, so the closing sample
    # gives the same T wherever the run stops.
    low, high = (run(EventConfig(blowup_norm=b)).stats for b in (1e3, 1e6))
    assert low.blowup_time_estimate == pytest.approx(high.blowup_time_estimate, rel=1e-8)
    assert low.blowup_ricci_product == pytest.approx(high.blowup_ricci_product, rel=1e-8)


@pytest.mark.parametrize("blowup_norm", [1e3, 1e6])
def test_blowup_time_matches_the_ricci_norm_rate(blowup_norm):
    # Independent oracle from the paper's D0: near T, |Ric|^2 / tr(Ric Ric')
    # = -1 / (2 r) with r the ricci-norm rate of the closing bracket.
    traj = integrate(
        berger3(1, 2, 0).point, UNNORMALIZED, (0.0, 5.0), samples=80,
        events=EventConfig(blowup_norm=blowup_norm),
    )
    expected = traj.times[-1] - 1.0 / (2.0 * ricci_norm_rate(traj.final_bracket()))
    assert traj.stats.blowup_time_estimate == pytest.approx(expected, rel=1e-12)


def test_backward_blowup_is_estimated_before_its_closing_time():
    traj = integrate(unimodular3(-1, 1, 0).point, UNNORMALIZED, (0.0, -5.0), samples=80)
    assert traj.termination == "blowup-detected"
    assert traj.stats.blowup_time_estimate < traj.times[-1]
    assert traj.stats.blowup_time_estimate == pytest.approx(-0.25, rel=1e-8)
    assert traj.stats.blowup_ricci_product == pytest.approx(0.5, rel=1e-8)


def test_flat_blowup_gets_no_estimate():
    # unimodular3(1e7, 1e7, 0) is flat (Ric = 0, zero tangent) but starts
    # above the blowup norm.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(unimodular3(1e7, 1e7, 0).point, UNNORMALIZED, (0.0, 1.0), samples=80)
    assert traj.termination == "blowup-detected"
    assert traj.stats.blowup_time_estimate is None
    assert traj.stats.blowup_ricci_product is None
    assert "blowup_ricci_product" not in traj.describe()


def test_non_finite_trial_stage_ends_typed():
    # The rate turns NaN once max |c| > 3, so every trial stage past that
    # point is rejected and the run ends typed with its finite samples.
    rate = custom_rate(lambda mu: np.nan if np.abs(mu.c).max() > 3 else 0.0)
    traj = integrate(berger3(1, 2, 0).point, rate, (0.0, 1.0), samples=21)
    assert traj.termination == "step-underflow"
    # The true crossing: a 20,001-sample run puts it in [0.11616, 0.11617].
    assert traj.times[-1] == pytest.approx(0.116165, abs=5e-6)
    assert traj.n_samples == 4
    assert np.isfinite(traj.states).all()
    assert np.abs(traj.states[-1]).max() <= 3.0


def test_a_rescaling_whose_start_rate_is_nan_ends_typed():
    # No step is accepted, so the auto horizon has no step to sample from:
    # the run keeps its start.
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 0.3), samples=41)
    traj = reparametrize(base, custom_rate(lambda mu: np.nan), samples=41)
    assert (traj.termination, traj.n_samples, traj.stats.n_steps) == ("step-underflow", 1, 0)


def _rate_failing_after(calls, until=math.inf):
    """The custom rate 0.1, whose rate_fn raises on its calls calls + 1 to until."""
    count = []

    def rate(mu):
        count.append(1)
        if calls < len(count) <= until:
            raise NormalizationError("rate undefined past its call budget")
        return 0.1

    return custom_rate(rate)


def test_a_rate_failing_mid_run_ends_typed_with_its_samples():
    # From its 51st call the rate raises: every stage it reaches gets NaN, so
    # each step is rejected until the steps underflow.  The run keeps the
    # samples of the steps accepted before, bitwise those of the same run
    # under a rate that never fails, and closes on its last accepted state.
    point = unimodular3(1, 2, 3).point
    traj = integrate(point, _rate_failing_after(50), (0.0, 1.0))
    assert traj.termination == "normalization-undefined"
    assert traj.notes == ("rate undefined past its call budget",)
    assert traj.stats.trigger_value is None and traj.stats.n_rejected > 0
    whole = integrate(point, custom_rate(lambda mu: 0.1), (0.0, 1.0))
    k = traj.n_samples - 1
    assert k >= 5 and np.isfinite(traj.states).all() and np.isfinite(traj.derivs).all()
    for field in ("times", "states", "derivs", "c", "tau"):
        assert getattr(traj, field)[:k].tobytes() == getattr(whole, field)[:k].tobytes()
    assert whole.times[k - 1] < traj.times[k] < whole.times[k]
    # Raising on its 51st call only, the rate rejects one step, and the run
    # ends on the next step it accepts.
    once = integrate(point, _rate_failing_after(50, 51), (0.0, 1.0))
    assert once.termination == "normalization-undefined" and once.stats.n_rejected == 1
    assert once.times[-1] > traj.times[-1] and once.times[-1] < 0.1
    assert once.states[:k].tobytes() == whole.states[:k].tobytes()


@pytest.mark.parametrize("calls", [0, 1, 26, 41, 50])  # 26, 41: an extension stage fails
def test_every_tensor_solve_ends_a_failing_rate_typed(calls):
    # The rescalings solve the same flow, so they end the same way; a sample
    # inside a step whose continuous extension met the error is dropped.
    point = unimodular3(1, 2, 3).point
    base = integrate(point, UNNORMALIZED, (0.0, 0.3), samples=41)
    for traj in (integrate(point, _rate_failing_after(calls), (0.0, 1.0)),
                 reparametrize(base, _rate_failing_after(calls), samples=41)):
        assert traj.termination == "normalization-undefined"
        assert traj.notes == ("rate undefined past its call budget",)
        assert np.isfinite(traj.states).all() and np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0 and traj.tau[0] == base.times[0]


def test_a_rate_failing_in_the_rescalings_later_extensions_ends_typed():
    # The rescaling extends its kept steps after its solve.
    # Budgets from the solve's last steps through those extensions (one call
    # in every three): a rate error in an extension ends the run typed with
    # the samples of its solve, the start and its closing state.
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 0.3), samples=41)
    whole = reparametrize(base, custom_rate(lambda mu: 0.1), samples=41)
    for calls in range(whole.stats.nfev - 72, whole.stats.nfev, 3):
        traj = reparametrize(base, _rate_failing_after(calls), samples=41)
        assert traj.termination == "normalization-undefined", calls
        assert traj.n_samples == 2 and traj.times[0] == 0.0 and np.isfinite(traj.states).all()
        assert 0.28 < traj.times[-1] < 0.3  # t* = 0.2913 on the whole run


def test_integrate_zero_collapse_seed():
    traj = integrate(berger3(0, -1, 0).point, UNNORMALIZED, (0.0, 50.0), samples=80)
    assert traj.termination == "reached-t-end"
    rep = traj.curvature_at(traj.n_samples - 1)
    assert np.linalg.norm(rep.Ric) < 0.02
    mu_p2, _, _ = component_norms(traj.final_bracket())
    assert mu_p2 == 0.0


def test_integrate_backward_bounded():
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0.0, -50.0), samples=80)
    assert traj.termination == "reached-t-end"
    assert traj.is_backward
    assert np.all(np.diff(traj.times) < 0)
    # tau decreases like forward time.
    assert traj.tau[-1] < 0
    a, b, _ = Berger3().project(traj.final_bracket(), tol=1e-6)
    assert abs(a) < 0.1 and abs(b) < 0.1


def test_isotropy_rows_constant():
    cat = berger3(0.9, -0.4, 0.7)
    traj = integrate(cat.point, UNNORMALIZED, (0.0, 1.5), samples=60)
    iso0 = cat.point.bracket.iso_part()
    for i in range(0, traj.n_samples, 12):
        assert np.abs(traj.bracket_at(i).iso_part() - iso0).max() == 0.0


def test_validity_preserved_along_flow():
    cat = berger3(0.7, 0.5, -0.8)
    traj = integrate(cat.point, UNNORMALIZED, (0.0, 2.0), samples=60, rtol=1e-9)
    for i in range(0, traj.n_samples, 10):
        point = validate_point(traj.bracket_at(i), tol=1e-6)
        assert point.valid


def test_validity_drift_aborts():
    # Integrating from a non-Jacobi tensor trips the drift guard immediately.
    bad = validate_point(
        BracketTensor.from_entries(0, 3, [[0, 1, 2, 1.0], [0, 2, 0, 1.0]])
    )
    system = TensorFlowSystem(bad.bracket, UNNORMALIZED)
    traj = _run_flow(system, np.linspace(0.0, 1.0, 20), 1e-9, 1e-12, EventConfig())
    assert traj.termination == "validity-drift" and traj.notes[0].startswith("Jacobi residual")
    assert traj.stats.trigger_value == system.drift(traj.states[-1]) > 1e3 * 1e-9
    assert traj.describe()["trigger_value"] == traj.stats.trigger_value


def _rotated(point):
    """The point moved by a rotation: its Jacobi residual is float noise."""
    from scipy.linalg import expm

    rot = expm(np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.7], [0.1, -0.7, 0.0]]))
    return validate_point(act_gl(point.bracket, np.zeros((0, 0)), rot))


def test_a_rotated_run_keeps_the_verdict_of_the_unrotated_one():
    # The Jacobi residual is quadratic in the bracket, and its bound scales
    # with |mu|^2: rotated, this run's rounding reads 1.1e-6 at |mu| = 6.9e5
    # near its blowup, which a bound of drift_factor * rtol alone took for drift.
    point = unimodular3(1, 2, 3).point
    runs = [integrate(p, UNNORMALIZED, (0.0, 0.5)) for p in (point, _rotated(point))]
    assert [r.termination for r in runs] == ["blowup-detected"] * 2
    assert runs[1].times[-1] == pytest.approx(runs[0].times[-1], rel=1e-9)
    assert runs[1].stats.blowup_time_estimate == pytest.approx(
        runs[0].stats.blowup_time_estimate, rel=1e-9)


def test_the_drift_note_reads_the_bound_it_applied():
    # The CLI's drift run (test_cli.py::test_exit_code_drift): the note gives
    # the bound drift_factor * rtol * max(1, |mu|^2) at the closing state.
    traj = integrate(_rotated(unimodular3(1, 2, 3).point), UNNORMALIZED, (0.0, 1.0),
                     events=EventConfig(drift_factor=1e-14))
    assert traj.termination == "validity-drift"
    bound = 1e-14 * 1e-9 * max(1.0, traj.system.aux_norm2(traj.states[-1]))
    assert bound > 1e-14 * 1e-9
    assert traj.notes[0].startswith(
        f"Jacobi residual {traj.stats.trigger_value:.3e} exceeded {bound:.3e} = ")


@pytest.mark.parametrize("field, value", [
    ("blowup_norm", 0.0), ("blowup_norm", np.nan), ("conv_tangent", -1e-3), ("conv_window", 0),
    ("drift_factor", 0.0), ("drift_factor", -1.0),
])
def test_event_config_rejects_thresholds_out_of_range(field, value):
    # A non-positive blowup norm or drift factor would end every run at its
    # first step; an infinite blowup norm stays allowed.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        EventConfig(**{field: value})


def test_step_underflow_near_singularity():
    # With the blowup threshold pushed out of reach, the stepper collapses at
    # the singular time and reports underflow instead of looping forever.
    traj = integrate(
        berger3(1, 2, 0).point,
        UNNORMALIZED,
        (0.0, 5.0),
        samples=40,
        events=EventConfig(blowup_norm=1e30),
    )
    assert traj.termination == "step-underflow"
    assert traj.times[-1] < 1.0


def test_rhs_assembly_matches_pi_form():
    # The componentwise tangent equals -pi(diag(0, Ric)) mu on valid points,
    # where the isotropy rows of the pi-form vanish by the commutation of
    # Ric with the isotropy operators.
    from bracketflow.core import act_pi

    cat = berger3(0.9, -0.6, 0.4)
    mu = cat.point.bracket
    ric = ricci_operator(mu)
    full = np.zeros((4, 4))
    full[1:, 1:] = ric
    direct = -act_pi(full, mu).c
    assembled = bracket_rhs(cat.point).c
    assert np.abs(direct - assembled).max() < 1e-12


def test_convergence_event():
    traj = integrate(
        berger3(0.5, 1, 0).point,
        VOLUME,
        (0.0, 40.0),
        samples=120,
        events=EventConfig(conv_tangent=1e-10, conv_window=6),
    )
    assert traj.termination == "converged-to-fixed-point"
    # The tangent norm that closed the window: the closing sample's.
    speed = float(np.sqrt(2.0) * np.linalg.norm(traj.derivs[-1]))
    assert traj.stats.trigger_value == speed < 1e-10
    assert traj.describe()["trigger_value"] == speed
    a, b, _ = Berger3().project(traj.final_bracket(), tol=1e-5)
    assert a == pytest.approx(2 ** (1 / 3), abs=1e-3)
    assert b == pytest.approx(2 ** (2 / 3), abs=1e-3)


def test_scalar_curvature_run_hits_product_limit():
    traj = integrate(
        berger3(0.5, -0.1875, 0).point, SCALAR_CURVATURE, (0.0, 60.0), samples=120
    )
    a, b, _ = Berger3().project(traj.final_bracket(), tol=1e-3)
    assert abs(a) < 1e-3
    assert abs(b + 0.25) < 1e-3
    scalars = [traj.curvature_at(i).R for i in range(0, traj.n_samples, 20)]
    assert max(abs(s + 0.5) for s in scalars) < 1e-8


def test_scalar_increases_unnormalized():
    traj = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 0.2), samples=80)
    scalars = np.array([traj.curvature_at(i).R for i in range(traj.n_samples)])
    assert np.all(np.diff(scalars) > 0)


def test_scalar_nondecreasing_under_volume():
    traj = integrate(berger3(1.2, -0.8, 0).point, VOLUME, (0.0, 10.0), samples=120)
    scalars = np.array([traj.curvature_at(i).R for i in range(traj.n_samples)])
    assert np.all(np.diff(scalars) >= -1e-10)


def test_h_norm_nonincreasing():
    point = solvable_point(1.0, 0.6)
    traj = integrate(point, UNNORMALIZED, (0.0, 1.0), samples=60)
    h2 = [float(traj.curvature_at(i).H @ traj.curvature_at(i).H) for i in range(traj.n_samples)]
    assert np.all(np.diff(h2) <= 1e-12)


def test_metric_rhs_values():
    cat = unimodular3(1, 1, 1)
    dp = metric_rhs(MetricState(np.eye(3)), cat.point)
    assert np.abs(dp + np.eye(3)).max() < 1e-12
    cat2 = unimodular3(1, 2, 3)
    dp2 = metric_rhs(MetricState(np.eye(3)), cat2.point)
    assert np.abs(dp2 + 2 * ricci_operator(cat2.point.bracket)).max() < 1e-12
    with pytest.raises(ValueError):
        metric_rhs(MetricState(np.diag([1.0, -1.0, 1.0])), cat.point)


def test_metric_flow_einstein_is_linear():
    # Round metric shrinks linearly: P(t) = (1 - t) I for Ric = I/2.
    cat = unimodular3(1, 1, 1)
    mtraj = integrate_metric(cat.point, (0.0, 0.4), samples=41)
    assert np.abs(mtraj.P[-1] - 0.6 * np.eye(3)).max() < 1e-9


def test_gauge_einstein_closed_form():
    cat = unimodular3(1, 1, 1)
    traj = integrate(cat.point, UNNORMALIZED, (0.0, 0.3), samples=121)
    gauge = integrate_gauge(traj, "bracket")
    t = gauge.times[-1]
    assert np.abs(gauge.h[0] - np.eye(3)).max() == 0.0
    assert np.abs(gauge.h[-1] - np.sqrt(1 - t) * np.eye(3)).max() < 1e-8


def test_gauge_on_reduced_trajectory():
    # Gauge reconstruction also works over parameter-space trajectories
    # (embedded per evaluation); the volume run keeps det h at one.
    from bracketflow.families import SemisimpleSu2

    traj = integrate_reduced(
        SemisimpleSu2(), [0.9, 0.6], VOLUME, (0.0, 3.0), samples=151
    )
    gauge = integrate_gauge(traj, "bracket")
    assert max(abs(np.linalg.det(h) - 1.0) for h in gauge.h) < 1e-8


def test_normalized_gauge_reproduces_normalized_flow():
    # The rate-corrected gauge ODE must push the seed onto the normalized
    # trajectory, mirroring the unnormalized equivalence check.
    cat = berger3(0.5, 1, 0)
    traj = integrate(cat.point, VOLUME, (0.0, 3.0), samples=301)
    gauge = integrate_gauge(traj, "bracket")
    dev = max(
        float(
            np.sqrt(
                np.sum((gauge.pushforward(cat.point.bracket, i).c - traj.bracket_at(i).c) ** 2)
            )
        )
        for i in range(traj.n_samples)
    )
    assert dev <= 1e-8


def test_reduced_normalized_matches_full_tensor():
    # Validates how the rate enters each parameter (k-part twice, p-part once).
    # Both sides run at rtol 1e-11, below the agreement asserted: the tensor
    # side steps freely, and its global error at rtol 1e-10 (3.2e-10 and
    # 1.2e-10 here) would reach the bound.
    fam = Berger3()
    cases = [
        ([0.5, 1.0, 0.0], VOLUME),
        ([0.5, 0.8125, 0.0], SCALAR_CURVATURE),
    ]
    for params0, strategy in cases:
        red = integrate_reduced(
            fam, params0, strategy, (0.0, 3.0), samples=61, rtol=1e-11, atol=1e-14
        )
        cat = berger3(*params0)
        full = integrate(
            cat.point, strategy, (0.0, 3.0), samples=61, rtol=1e-11, atol=1e-14
        )
        dev = max(
            np.abs(fam.project(full.bracket_at(i), tol=1e-4) - red.states[i]).max()
            for i in range(61)
        )
        assert dev <= 1e-10


def test_equivalence_report_seeds():
    rep = equivalence_report(unimodular3(1, 2, 3).point, (0.0, 0.3))
    assert rep.max_bracket_dev <= 1e-6
    assert rep.max_metric_dev <= 1e-6
    assert rep.iso_drift <= 1e-9
    rep = equivalence_report(berger3(1, 1, 0).point, (0.0, 0.3))
    assert rep.max_bracket_dev <= 1e-6
    assert rep.max_metric_dev <= 1e-6


def _counted_solves(monkeypatch):
    """(sampling, rhs calls) of each solve_rk54 call of flow.py, in a list
    that fills as the solves run."""
    import bracketflow.flow as flow_mod

    solve, solves = flow_mod.solve_rk54, []

    def counted(rhs, *a, **kw):
        record = [kw.get("sampling"), 0]
        solves.append(record)

        def f(t, y):
            record[1] += 1
            return rhs(t, y)

        return solve(f, *a, **kw)

    monkeypatch.setattr(flow_mod, "solve_rk54", counted)
    return solves


def _dop853_extended(stats):
    """The steps a dense DOP853 solve extended, from its counts: two calls
    start the run, twelve make each trial step and three extend a step."""
    extended, rest = divmod(stats.nfev - 2 - 12 * (stats.n_steps + stats.n_rejected), 3)
    assert rest == 0 and 0 < extended <= stats.n_steps
    return extended


def test_equivalence_report_counts_its_two_solves(monkeypatch):
    # Each flow is solved together with its gauge, both stepping DOP853
    # freely (dense sampling), so 601 samples take far fewer than 600 steps
    # each; each side reports the rhs calls its solve made.
    solves = _counted_solves(monkeypatch)
    rep = equivalence_report(unimodular3(1, 2, 3).point, (0.0, 0.3), samples=601)
    counts = [stats.nfev for stats in rep.stats.values()]  # bracket, then metric
    assert solves == [["dense", counts[0]], ["dense", counts[1]]]
    assert len(rep.times) == 601 and not rep.partial
    doc = rep.as_dict()["stats"]
    assert set(doc) == set(rep.per_side) == {"bracket", "metric"}
    for name, stats in rep.stats.items():
        assert 0 < stats.n_steps < 200
        _dop853_extended(stats)
        assert doc[name] == {"steps": stats.n_steps, "rejected_steps": stats.n_rejected,
                             "rhs_evals": stats.nfev}
    assert rep.stats["metric"].n_steps < 40  # 22; 145 on the 5(4) pair


@pytest.mark.parametrize("samples", [137, 601, 1361])
def test_equivalence_does_not_depend_on_the_sample_count(samples):
    # berger3(0.5, 1, 0) blows up at t = 0.690085.  Each gauge is solved with
    # its flow, so the deviations do not depend on how densely the samples
    # cover the steep end of the span.
    rep = equivalence_report(berger3(0.5, 1, 0).point, (0.0, 0.68), samples=samples)
    assert not rep.partial and len(rep.times) == samples
    assert rep.max_bracket_dev <= 1e-6
    assert rep.max_metric_dev <= 1e-6


def test_equivalence_past_a_blowup_stops_each_gauge_with_its_flow():
    # Each pair stops where its flow stops, so no gauge keeps stepping toward
    # the blowup near t = 0.690085.
    rep = equivalence_report(berger3(0.5, 1, 0).point, (0.0, 1.0), samples=201)
    assert rep.partial
    assert np.isfinite(rep.max_bracket_dev) and np.isfinite(rep.max_metric_dev)
    for stats in rep.stats.values():
        assert stats.n_steps < 1000


def _clamped(run):
    """run() with every solve_rk54 of flow.py landing a step on each sample."""
    import bracketflow.flow as flow_mod

    solve = flow_mod.solve_rk54
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_mod, "solve_rk54",
                   lambda *a, **kw: solve(*a, **{**kw, "sampling": "clamped"}))
        return run()


@pytest.mark.parametrize("cat", [unimodular3(1, 2, 3), berger3(1, 1, 0)])
def test_dense_metric_flow_matches_clamped(cat):
    # Dense sampling moves the sample states by less than 10 rtol, in fewer steps.
    point = cat.point
    rtol = 1e-9
    clamped = _clamped(lambda: integrate_metric(point, (0.0, 0.3), samples=61))
    dense = integrate_metric(point, (0.0, 0.3), samples=61)
    assert dense.times.tobytes() == clamped.times.tobytes()
    assert np.abs(dense.P - clamped.P).max() <= 10 * rtol
    assert dense.stats.n_steps < clamped.stats.n_steps


@pytest.mark.parametrize("cat, span", [(unimodular3(1, 2, 3), (0.0, 0.3)),
                                       (berger3(1, 1, 0), (0.0, 0.3)),
                                       (semisimple_concrete_su2(0.9, 0.6), (0.0, 1.0))],
                         ids=["unimodular3", "berger3", "semisimple-su2"])
def test_metric_flow_agrees_with_scipy(cat, span):
    # Against scipy's DOP853 at rtol 1e-13 on the same P-only field, every
    # sample lies within 4 (atol + rtol |P|).  The worst is 2.2, on a sample
    # inside a step of unimodular3 (0.62 on the 5(4) pair); the closing samples
    # read at most 0.044.
    rtol, atol = 1e-9, 1e-12
    point, n = cat.point, cat.point.bracket.n
    form = _metric_ricci_form(point.bracket)
    mtraj = integrate_metric(point, span, rtol=rtol, atol=atol, samples=61)
    assert mtraj.termination == "reached-t-end"
    ref = solve_ivp(lambda t, y: _pack_sym(-2.0 * form(_unpack_sym(n, y))[0]), span,
                    _pack_sym(np.eye(n)), method="DOP853", t_eval=mtraj.times, rtol=1e-13,
                    atol=1e-16)
    assert ref.success
    want = _unpack_sym(n, ref.y.T)
    assert np.all(np.abs(mtraj.P - want) <= 4 * (atol + rtol * np.abs(want)))


def test_tensor_runs_are_not_sample_bound():
    # 481 samples on [0, 1]: a step landing on each would take at least 480.
    rtol = 1e-9
    run = lambda: integrate(unimodular3(1, 2, 3).point, VOLUME, (0.0, 1.0), samples=481)
    clamped, dense = _clamped(run), run()
    assert clamped.stats.n_steps >= 480
    assert dense.stats.n_steps < 120
    assert dense.times.tobytes() == clamped.times.tobytes()
    for field in ("states", "c", "tau"):
        a, b = getattr(dense, field), getattr(clamped, field)
        assert np.all(np.abs(a - b) <= 10 * rtol * np.maximum(1.0, np.abs(b)))


def test_tensor_runs_step_the_eighth_order_pair():
    # The bracket flow is a smooth cubic field, which DOP853 follows at rtol
    # 1e-9 to its fixed point in about a fifth of the steps the 5(4) pair
    # took (176, with the same convergence window).
    traj = integrate(unimodular3(1, 2, 3).point, BRACKET_NORM, (0, 5), samples=20)
    assert traj.termination == "converged-to-fixed-point"
    assert traj.stats.n_steps < 60


def test_tensor_runs_follow_a_blowup_without_rejections():
    # Toward a blowup each step must be shorter than the last.  The error
    # exponent alone keeps the step after a rejection (its factor is capped at
    # 1 there), so the next trial fails again: 68 rejections in 71 steps on
    # this run.  The predictive factor carries the ratio of the last two steps.
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0, 5), samples=20)
    assert traj.termination == "blowup-detected"
    assert traj.stats.n_steps <= 71 and traj.stats.n_rejected <= 5


def _gauged_route(mu0, hs):
    """(h Ric h, h^-1 Ric h) with Ric that of the gauged bracket diag(I, h) .
    mu0 from the _poly tables: the Ricci form and operator of <h^2 ., .>
    along the route the metric side took before it read P and P^-1."""
    from bracketflow._poly import tables

    gauged = act_gl(mu0, np.eye(mu0.q), hs, require_compatible=False)
    ric = tables(mu0.q, mu0.n).ricci_matrix(pack_state(gauged))
    return hs @ ric @ hs, np.linalg.inv(hs) @ ric @ hs


def _sym_sqrt(p):
    w, v = np.linalg.eigh(p)
    return (v * np.sqrt(w)) @ v.T


def test_metric_ricci_form_matches_the_gauged_route(monkeypatch):
    # The metric side reads P and P^-1, no square root and no gauged bracket;
    # the route through both is the oracle, on the metrics of three runs and
    # on random positive definite P at q = 0.
    import bracketflow.core as core_mod
    import bracketflow.flow as flow_mod

    cases = []
    for cat, span in ((unimodular3(1, 2, 3), (0.0, 0.3)), (berger3(0.5, 1, 0), (0.0, 1.0)),
                      (semisimple_concrete_su2(0.9, 0.6), (0.0, 1.0))):
        cases += [(cat.point, p) for p in integrate_metric(cat.point, span, samples=6).P]
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        cases.append((random_valid_point(rng, allow_q1=False), a @ a.T + 0.1 * np.eye(3)))
    for point, p in cases:
        form_ref, op_ref = _gauged_route(point.bracket, _sym_sqrt(p))
        r, p_inv = _metric_ricci_form(point.bracket)(p)
        assert np.abs(r - form_ref).max() <= 1e-12 * np.abs(form_ref).max()
        op = metric_ricci(p, point.bracket)
        assert np.abs(op - op_ref).max() <= 1e-12 * np.abs(op_ref).max()
        assert metric_rhs(MetricState(p), point).tobytes() == (-2.0 * r).tobytes()

    # A metric run builds no BracketTensor, takes no square root and pushes
    # no bracket by a map.
    point, calls = berger3(0.5, 1, 0).point, []
    for mod, name in ((core_mod, "unpack_state"), (flow_mod, "unpack_state"),
                      (core_mod, "gl_action_packed"), (flow_mod, "gl_action_packed"),
                      (np.linalg, "eigh")):
        f = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a))
    mtraj = integrate_metric(point, (0.0, 1.0), samples=11)
    assert mtraj.stats.n_steps > 5
    assert calls == []


def _dyadic_metric_cases():
    """(bracket, k) with integer brackets and P = diag(4^k): random
    antisymmetric ones at q = 0, and berger3 on the grid {-3, ..., 3}^3 with
    k = (k0, k1, k1), which the isotropy allows."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        yield unpack_state(0, 3, rng.integers(-3, 4, size=9).astype(float)), rng.integers(-2, 3, 3)
    for params in np.ndindex(7, 7, 7):
        k0, k1 = rng.integers(-2, 3, 2)
        yield Berger3().embed(np.array(params) - 3.0), np.array([k0, k1, k1])


def test_metric_ricci_form_is_the_gauged_route_on_dyadic_metrics():
    # With integer brackets and P = diag(4^k), so h = diag(2^k), every
    # product and partial sum of both routes is dyadic and exact: they agree
    # bitwise, so no weight, sign or index of the four terms can hide below
    # a tolerance.
    for mu0, k in _dyadic_metric_cases():
        form_ref, op_ref = _gauged_route(mu0, np.diag(2.0**k))
        r, p_inv = _metric_ricci_form(mu0)(np.diag(4.0**k))
        assert np.array_equal(r, form_ref)
        assert np.array_equal(p_inv @ r, op_ref)


def _solve_rhs(monkeypatch, run):
    """The right-hand side that run() hands to its first solve_rk54."""
    import bracketflow.flow as flow_mod

    solve, seen = flow_mod.solve_rk54, []
    monkeypatch.setattr(flow_mod, "solve_rk54",
                        lambda rhs, *a, **kw: seen.append(rhs) or solve(rhs, *a, **kw))
    run()
    return seen[0]


def test_gauge_right_hand_sides_are_exact_on_integer_states(monkeypatch):
    # Bracket side: h' = -(Ric + r I) h on integer states and an integer
    # rate, against the einsum Ric of curvature._pieces.  Metric side:
    # (P', h') = (-2 R, -h P^-1 R) at P = diag(4^k) against the gauged route.
    from bracketflow.core import unpack_array
    from bracketflow.curvature import _pieces

    rng = np.random.default_rng(1)
    grid = np.array([0.0, 1e-6])
    for q, n in ((0, 3), (1, 3)):
        d = q + n
        mu0 = unpack_state(q, n, rng.integers(-3, 4, size=d * d * (d - 1) // 2).astype(float))
        system = TensorFlowSystem(mu0, custom_rate(lambda mu: 2.0))
        rhs = _solve_rhs(monkeypatch, lambda: _run_flow(system, grid, 1e-9, 1e-12,
                                                        lambda *a: "stop", gauge=True))
        m = system.core0.size
        for _ in range(50):
            core = rng.integers(-3, 4, size=m).astype(float)
            h = rng.integers(-3, 4, size=(n, n)).astype(float)
            out = rhs(0.0, np.concatenate([core, [1.0, 0.0], h.ravel()]))
            ric = _pieces(unpack_array(d, core), q).Ric
            assert np.array_equal(out[m + 2:], (-np.einsum("ij,jk->ik", ric, h) - 2.0 * h).ravel())
    monkeypatch.undo()

    for i, (mu0, k) in enumerate(_dyadic_metric_cases()):
        if i % 10:
            continue
        rhs = _solve_rhs(monkeypatch, lambda: _run_metric(validate_point(mu0), grid, 1e-9,
                                                          1e-12, gauge=True))
        monkeypatch.undo()
        form_ref, op_ref = _gauged_route(mu0, np.diag(2.0**k))
        h = rng.integers(-3, 4, size=(3, 3)).astype(float)
        out = rhs(0.0, np.concatenate([_pack_sym(np.diag(4.0**k)), h.ravel()]))
        assert np.array_equal(out[:6], _pack_sym(-2.0 * form_ref))
        assert np.array_equal(out[6:], (-np.einsum("ij,jk->ik", h, op_ref)).ravel())


def test_equivalence_report_pairs_samples_by_time():
    # Past the blowup near t = 0.316 the bracket pair and the metric pair
    # close at two different times.  Only the grid samples they share are
    # compared, so each deviation compares states at one time.
    rep = equivalence_report(unimodular3(1, 2, 3).point, (0.0, 0.5), samples=101)
    assert rep.partial
    grid = np.linspace(0.0, 0.5, 101)
    assert 2 <= len(rep.times) < len(grid)
    assert rep.times.tobytes() == grid[: len(rep.times)].tobytes()
    assert rep.per_side["metric"]["bracket_dev"] <= 1e-4
    # The last of them is the grid sample 0.315 before the blowup.
    assert rep.times[-1] == grid[63]


def test_reparametrize_zero_rate_is_identity():
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 0.15), samples=201)
    rep = reparametrize(base, custom_rate(lambda mu: 0.0), samples=41)
    assert rep.termination == "reached-t-end" and rep.times[-1] == pytest.approx(0.15, abs=1e-12)
    direct = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, rep.times[-1]),
                       samples=41, rtol=1e-10, atol=1e-13)
    # The rescaling steps past t* and samples its last steps' extensions, where
    # the direct run clamps onto its end: there the two agree to a few rtol.
    for i in range(rep.n_samples):
        dev = np.abs(rep.states[i] - direct.states[i]).max()
        assert dev <= 1e-9 * max(1.0, np.abs(direct.states[i]).max())
        assert rep.c[i] == pytest.approx(1.0, abs=1e-12)
        assert rep.tau[i] == pytest.approx(rep.times[i], abs=1e-12)


def test_reparametrize_einstein_volume_constant():
    cat = unimodular3(1, 1, 1)
    base = integrate(cat.point, UNNORMALIZED, (0.0, 0.9), samples=301)
    rep = reparametrize(base, VOLUME, samples=41)
    assert rep.termination == "reached-t-end"
    for i in range(rep.n_samples):
        assert np.abs(rep.bracket_at(i).c - cat.point.bracket.c).max() < 1e-7


def test_reparametrize_matches_direct_normalized_run():
    cat = berger3(0.5, 1, 0)
    base = integrate(cat.point, UNNORMALIZED, (0.0, 5.0), samples=801)
    rep = reparametrize(base, VOLUME, samples=81)
    assert rep.termination == "reached-t-end"
    direct = integrate(cat.point, VOLUME, (0.0, rep.times[-1]), samples=rep.n_samples)
    dev = max(
        np.abs(rep.states[i] - direct.states[i]).max() for i in range(rep.n_samples)
    )
    assert dev < 1e-6


def test_reparametrize_range_errors():
    with pytest.raises(ValueError):
        reparametrize(integrate(unimodular3(1, 1, 1).point, VOLUME, (0, 1)), VOLUME)


def test_reparametrize_detects_zero_limit():
    base = integrate(berger3(0, -1, 0).point, UNNORMALIZED, (0.0, 1.0), samples=101)
    rep = reparametrize(base, custom_rate(lambda mu: -1.0), samples=41)
    assert rep.termination == "converged-to-fixed-point"
    assert rep.notes and "collapsed to zero" in rep.notes[0]
    mu_p2, mu_k2, _ = component_norms(rep.final_bracket())
    assert np.sqrt(mu_p2 + mu_k2) < 1e-8


def test_rescale_to_ricci_norm_contract():
    base = integrate(unimodular3(1, 0, 0).point, UNNORMALIZED, (0.0, 2.0), samples=201)
    rn = rescale_to_ricci_norm(base, samples=81)
    tr2 = np.array(
        [float(np.sum(rn.curvature_at(i).Ric ** 2)) for i in range(rn.n_samples)]
    )
    assert np.abs(tr2 - 0.75).max() < 1e-6
    # Einstein input: constant up to homothety.
    base_e = integrate(unimodular3(1, 1, 1).point, UNNORMALIZED, (0.0, 0.9), samples=301)
    rn_e = rescale_to_ricci_norm(base_e, samples=41)
    tr2_e = np.array(
        [float(np.sum(rn_e.curvature_at(i).Ric ** 2)) for i in range(rn_e.n_samples)]
    )
    assert np.abs(tr2_e - tr2_e[0]).max() < 1e-6


def test_rescale_to_ricci_norm_rejects_flat():
    base = integrate(unimodular3(1, 1, 0).point, UNNORMALIZED, (0.0, 1.0), samples=41)
    with pytest.raises(NormalizationError):
        rescale_to_ricci_norm(base)


@pytest.mark.parametrize("cat, t_span, termination", [
    (unimodular3(1, 2, 3), (0.0, 1.0), "blowup-detected"),
    (unimodular3(1, 0, 0), (0.0, 2.0), "reached-t-end"),
])
def test_rescale_to_ricci_norm_is_reparametrize_under_ricci_norm(cat, t_span, termination):
    base = integrate(cat.point, UNNORMALIZED, t_span)
    assert base.termination == termination
    for samples in (200, 41):
        rn = rescale_to_ricci_norm(base, samples=samples)
        rep = reparametrize(base, RICCI_NORM, samples=samples)
        assert rn.termination == rep.termination == "reached-t-end"
        for field in ("times", "states", "derivs", "c", "tau"):
            assert getattr(rn, field).tobytes() == getattr(rep, field).tobytes()
        assert rn.stats == rep.stats and rn.notes == rep.notes
    with pytest.raises(NormalizationError, match="unknown normalization kind"):
        reparametrize(base, Normalization("ricci"))


def test_reduced_flow_matches_full_tensor_flow():
    from bracketflow.families import SemisimpleSu2, semisimple_concrete_su2

    su2 = SemisimpleSu2()
    params0 = [0.8, 0.5]
    red = integrate_reduced(su2, params0, UNNORMALIZED, (0.0, 1.0), samples=51, rtol=1e-10)
    cat = semisimple_concrete_su2(*params0)
    full = integrate(cat.point, UNNORMALIZED, (0.0, 1.0), samples=51, rtol=1e-10)
    for i in range(0, 51, 10):
        proj = su2.project(full.bracket_at(i), tol=1e-5)
        assert np.abs(proj - red.states[i]).max() < 1e-8


def test_trajectory_scaling_record():
    traj = integrate(unimodular3(1, 2, 3).point, VOLUME, (0.0, 0.5), samples=41)
    assert traj.c[0] == 1.0
    assert traj.tau[0] == 0.0
    assert np.all(np.diff(traj.tau) > 0)
    assert np.all(traj.c > 0)


def test_jacobi_stays_small_along_flow():
    traj = integrate(berger3(1.1, 0.3, -0.6).point, UNNORMALIZED, (0.0, 1.0), samples=60)
    worst = max(jacobi_residual(traj.bracket_at(i)) for i in range(0, 60, 10))
    assert worst <= 1e-6


def test_solve_rk54_rejects_nan_steps():
    # Every trial step reaching past t = 0.5 sees NaN stages; rejecting them
    # shrinks the step until it underflows at 0.5 on the last finite state.
    def f(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else -y

    res = solve_rk54(f, np.array([1.0]), np.linspace(0.0, 1.0, 11))
    assert res.status == "step-underflow"
    assert res.sample_t[-1] == 0.5
    assert res.n_rejected > 0
    assert res.sample_y[-1][0] == pytest.approx(np.exp(-0.5), rel=1e-8)
    assert all(np.isfinite(y).all() for y in res.sample_y)


def test_solve_rk54_ends_on_a_nan_initial_derivative():
    # A NaN derivative at s = 0 makes the first step size NaN; the run must
    # end in step-underflow with the initial sample instead of spinning.
    res = solve_rk54(lambda t, y: np.full_like(y, np.nan), np.array([1.0]), np.linspace(0.0, 1.0, 11))
    assert res.status == "step-underflow"
    assert res.n_steps == 0
    assert list(res.sample_t) == [0.0]


def _overflowing_run(sampling, direction=1.0):
    """y' = 1e308 from y = direction * 1e308, which overflows y at
    t = direction * 0.7977."""
    return solve_rk54(lambda t, y: np.array([1e308]), np.array([direction * 1e308]),
                      np.linspace(0.0, direction, 11), sampling=sampling)


@pytest.mark.parametrize("sampling", ["clamped", "dense"])
def test_solve_rk54_never_accepts_a_non_finite_state(sampling):
    # Backward from y = -1e308, y overflows to -inf at t = -0.7977: the run
    # is the forward run mirrored, so the finite-state check holds for
    # either sign of the step.
    back, fwd = _overflowing_run(sampling, -1.0), _overflowing_run(sampling)
    assert (back.status, back.n_steps, back.n_rejected, back.nfev) == (
        fwd.status, fwd.n_steps, fwd.n_rejected, fwd.nfev)
    assert np.array_equal(back.sample_t, -fwd.sample_t)
    assert back.sample_y.tobytes() == (-fwd.sample_y).tobytes()
    assert np.isfinite(back.sample_y).all()


@pytest.mark.parametrize("sampling", ["clamped", "dense"])
def test_dop853_never_accepts_a_non_finite_state(sampling):
    # y' = 1e308 from y = 1e308 overflows y at t = 0.7977; an overflowed trial
    # state would enlarge its own error scale and read as error 0.  A dense
    # sample inside a finite step stays finite too.  DOP853's weights reach
    # 545: it folds h into each weight row before the sum over the stages,
    # and the powers of x into each stage's extension weight, or its sums
    # would overflow within finite steps and the run would end at t = 0 with
    # no finite dense sample.
    res = _overflowing_run(sampling)
    assert res.status == "step-underflow"
    assert res.n_rejected > 0
    assert 0.797 < res.sample_t[-1] < 0.798
    assert np.isfinite(res.sample_y).all()
    assert np.allclose(res.sample_y[:, 0], 1e308 * (1.0 + res.sample_t), rtol=1e-12, atol=0.0)


def test_gauges_past_a_blowup_keep_their_covered_prefix():
    # unimodular3(1, 2, 3) blows up near t = 0.316 and both trajectories stop
    # there.  Each gauge is re-solved with its flow on the trajectory's times,
    # so it covers every sample up to the closing one, with a finite h.
    point = unimodular3(1, 2, 3).point
    traj = integrate(point, UNNORMALIZED, (0.0, 0.5), samples=101)
    mtraj = integrate_metric(point, (0.0, 0.5), samples=101)
    for side, src in (("bracket", traj), ("metric", mtraj)):
        assert src.termination != "reached-t-end"
        gauge = integrate_gauge(src, side)
        k = len(src.times)
        assert len(gauge.times) == k
        assert gauge.times[:-1].tobytes() == src.times[:-1].tobytes()
        assert gauge.times[-1] == pytest.approx(src.times[-1], abs=1e-9)
        assert gauge.h.shape == (k, 3, 3) and np.isfinite(gauge.h).all()


@pytest.mark.parametrize(
    "family, params0, t_span",
    [
        (Unimodular3(), [1.0, 2.0, 3.0], (0.0, 0.1)),
        (Unimodular3(), [1.0, 1.5, 2.0], (0.0, -0.1)),
        (Berger3(), [1.2, 0.5, 0.3], (0.0, 0.5)),
        (Berger3(), [1.0, 2.0, 0.0], (0.0, -5.0)),
        (SemisimpleSu2(), [0.9, 0.6], (0.0, 3.0)),
        (SemisimpleSu2(), [1.0, 0.5], (0.0, -2.0)),
    ],
)
def test_integrate_reduced_matches_solve_ivp(family, params0, t_span):
    # Independent Dormand-Prince reference at the same tolerances, read at
    # the same sample times, forward and backward.
    rtol, atol = 1e-8, 1e-11
    traj = integrate_reduced(
        family, params0, UNNORMALIZED, t_span, rtol=rtol, atol=atol, samples=21
    )
    assert traj.termination == "reached-t-end"
    ref = solve_ivp(
        lambda t, y: family.rhs(y), t_span, params0,
        method="RK45", t_eval=traj.times, rtol=rtol, atol=atol,
    )
    assert ref.success
    rel = np.abs(traj.states - ref.y.T) / (1.0 + np.abs(ref.y.T))
    assert rel.max() <= 10 * rtol


@pytest.mark.parametrize("q, n", [(0, 3), (1, 3)])
def test_param_names_follow_pack_state(q, n):
    # Distinct entries, so a name pointing at the wrong slot cannot match.
    d = q + n
    c = np.random.default_rng(7).normal(size=(d, d, d))
    mu = BracketTensor(q, n, c - c.swapaxes(0, 1))
    names = TensorFlowSystem(mu, UNNORMALIZED).param_names
    state = pack_state(mu)
    assert len(names) == len(state) == d * d * (d - 1) // 2
    for name, value in zip(names, state):
        tag, i, j, k = name.split("_")
        assert tag == "c" and int(i) < int(j)
        assert value == mu.c[int(i), int(j), int(k)]


_FINITE = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.data())
def test_pack_unpack_state_roundtrip_is_bitwise(q, n, data):
    d = q + n
    c = data.draw(arrays(np.float64, (d, d, d), elements=_FINITE))
    mu = BracketTensor(q, n, c - c.swapaxes(0, 1))
    again = unpack_state(q, n, pack_state(mu))
    assert again.c.tobytes() == mu.c.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_pack_sym_roundtrip_is_exact(n, data):
    a = data.draw(arrays(np.float64, (n, n), elements=_FINITE))
    p = a + a.T
    assert np.array_equal(_unpack_sym(n, _pack_sym(p)), p)


def test_metric_flow_checks_isotropy_compatibility():
    # On berger3 the isotropy rotates (X2, X3): diag(2, 1.5, 1.5) commutes
    # with it, diag(1, 2, 3) does not.
    point = berger3(1, 1, 0).point
    bad, good = np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.5, 1.5])
    with pytest.raises(CompatibilityError):
        metric_rhs(MetricState(bad), point)
    assert np.all(np.isfinite(metric_rhs(MetricState(good), point)))


def test_metric_rhs_rejects_an_indefinite_metric():
    # Compatible (the isotropy residual is 0 on a q = 0 point) but indefinite.
    point = unimodular3(1, 2, 3).point
    with pytest.raises(ValueError, match="positive definite"):
        metric_rhs(MetricState(np.diag([1.0, -1.0, 1.0])), point)


@pytest.mark.parametrize("strategy", [UNNORMALIZED, VOLUME, SCALAR_CURVATURE, BRACKET_NORM,
                                      custom_rate(lambda mu: 0.1)], ids=lambda s: s.kind)
def test_an_overflowing_tensor_run_ends_typed(strategy):
    # From 1e100 mu the first derivative overflows, so every trial stage is
    # non-finite: no rate may raise on one, and the stepper rejects them all.
    point = berger3(1, 1, 0).point
    big = validate_point(rescale(1e100, point.bracket), h2_status=point.h2_status)
    traj = integrate(big, strategy, (0.0, 1.0), samples=5,
                     events=EventConfig(blowup_norm=np.inf))
    assert traj.termination == "step-underflow"
    assert np.isfinite(traj.states).all() and not np.isfinite(traj.derivs).all()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_metric_rhs_rejects_a_non_finite_metric(bad):
    # Tested before the isotropy compatibility, whose matmuls would warn on it.
    with pytest.raises(ValueError, match="positive definite"):
        metric_rhs(MetricState(np.diag([bad, 1.0, 1.0])), berger3(1, 1, 0).point)


def test_metric_flow_ends_typed_before_a_degenerate_metric():
    # P collapses toward a finite-time singularity near t = 0.41 on this seed,
    # and stops being isotropy-invariant on the way: its residual relative to
    # |P| grows past the drift bound, so the run ends typed with its samples
    # (at t = 0.4058), each of them a metric metric_rhs accepts.
    point = berger3(1, 2, 0).point
    traj = integrate_metric(point, (0.0, 1.0), samples=101)
    assert traj.termination == "validity-drift"
    assert 0.3 < traj.times[-1] < 1.0 and len(traj.times) > 30
    assert np.isfinite(traj.P).all()
    assert all(np.linalg.eigvalsh(p).min() > 0 for p in traj.P)
    for p in traj.P:
        metric_rhs(MetricState(p), point)  # raises CompatibilityError past its tolerance


def test_metric_flow_records_the_value_that_ended_it():
    # The isotropy residual past drift_factor * rtol * |P| ends this collapse.
    point = berger3(0.5, 1, 0).point
    traj = integrate_metric(point, (0.0, 1.0))
    assert traj.termination == "validity-drift"
    assert traj.times[-1] == pytest.approx(0.69008, abs=1e-5)
    residual = compatibility_residual(point.bracket, traj.P[-1])
    assert traj.stats.trigger_value == residual > 1e3 * 1e-9 * np.linalg.norm(traj.P[-1])
    assert integrate_metric(point, (0.0, 0.3)).stats.trigger_value is None  # reached the end


@pytest.mark.parametrize("strategy", [VOLUME, SCALAR_CURVATURE, BRACKET_NORM])
@pytest.mark.parametrize(
    "cat, t_span",
    [(unimodular3(1, 2, 3), (0.0, 1.0)), (berger3(0.5, 1, 0), (0.0, 3.0))],
)
def test_reparametrize_reaches_the_end_of_a_blown_up_source(cat, t_span, strategy):
    # The normalized flow is solved from the source's first bracket, so the
    # run reaches the end of a source that stopped at its blowup, well before
    # the auto horizon's t = 100.
    base = integrate(cat.point, UNNORMALIZED, t_span)
    assert base.termination == "blowup-detected"
    rep = reparametrize(base, strategy, samples=41)
    assert rep.termination == "reached-t-end"
    assert rep.n_samples == 41 and np.all(np.diff(rep.times) > 0)
    assert np.all(np.isfinite(rep.states)) and np.all(np.isfinite(rep.c))
    assert rep.tau[-1] == pytest.approx(base.times[-1], abs=1e-9)
    assert rep.times[-1] < 50.0


def test_rescale_to_ricci_norm_reaches_the_end_of_a_blown_up_source():
    # The source blows up near t = 0.316, where c = (tr Ric_0^2 /
    # tr Ric^2)^(1/4) dies.  Solved from the first bracket, the run reaches
    # the source end, with no note, in well under a second.  tau only
    # approaches that end, so the run (and the volume one) ends once tau is
    # within the solve's own error of it, before t = 10.
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 1.0))
    start = time.perf_counter()
    rn = rescale_to_ricci_norm(base)
    assert time.perf_counter() - start < 1.0
    assert rn.termination == "reached-t-end"
    assert rn.tau[-1] == pytest.approx(0.3157762, abs=1e-6)
    assert rn.notes == ()
    for run in (rn, reparametrize(base, VOLUME)):
        assert run.tau[-1] == pytest.approx(base.times[-1], abs=1e-9)
        assert run.times[-1] < 10.0


def test_auto_horizon_is_one_solve_ending_on_the_tau_root(monkeypatch):
    # The Heisenberg soliton's ricci-norm run reaches the source end tau = 2
    # at t* = ln 7 / 3 in closed form.  t* is the root of tau(t) = 2 on the
    # crossing step's extension, and the samples on [0, t*] come from the steps
    # of the rescaling's one solve.
    import bracketflow.flow as flow_mod

    calls = []
    solve = flow_mod.solve_rk54
    monkeypatch.setattr(flow_mod, "solve_rk54",
                        lambda *a, **kw: calls.append(kw.get("sampling")) or solve(*a, **kw))
    heis = integrate(unimodular3(1, 0, 0).point, UNNORMALIZED, (0.0, 2.0), samples=20)
    calls.clear()
    rn = rescale_to_ricci_norm(heis, samples=20)
    assert calls == ["dense"] and rn.notes == ()
    assert abs(rn.times[-1] - math.log(7.0) / 3.0) <= 1e-9
    assert abs(rn.tau[-1] - 2.0) <= 1e-9
    assert rn.n_samples == 20 and rn.times[0] == 0.0 and np.all(np.diff(rn.times) > 0)
    calls.clear()
    rep = reparametrize(heis, VOLUME, samples=20)
    assert calls == ["dense"]
    assert rep.termination == "reached-t-end" and abs(rep.tau[-1] - 2.0) <= 1e-9


def test_rescalings_do_not_depend_on_the_source_sampling():
    # Both rescalings read only the source's first bracket and its end time,
    # so the rows agree at any source sample count, and the auto horizon ends
    # with tau on the source end.  An interpolated source moved the rows by
    # 3.2e-3 (reparametrize) and 8.1e-4 (ricci-norm) between 13 and 61 samples.
    runs = []
    for n in (13, 61, 601):
        base = integrate(berger3(0.5, 1, 0).point, UNNORMALIZED, (0.0, 0.6), samples=n)
        runs.append((reparametrize(base, VOLUME, samples=41),
                     rescale_to_ricci_norm(base, samples=41)))
    for side in (0, 1):
        for run in runs:
            assert run[side].termination == "reached-t-end"
            assert run[side].tau[-1] == pytest.approx(0.6, abs=1e-9)
            assert np.abs(run[side].states - runs[-1][side].states).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1)))
@example(356443, 0.109375)  # R = 4.0e-4 against max |Ric| = 0.97: -R/n nearly cancels
def test_ricci_and_rates_are_homogeneous_of_degree_two(seed, c):
    mu = random_valid_point(np.random.default_rng(seed), allow_q1=False).bracket
    moved = rescale(c, mu)
    rep = curvature_pieces(mu)
    ric, n = rep.Ric, mu.n
    ric_max = np.abs(ric).max()
    assert np.abs(ricci_operator(moved) - c**2 * ric).max() <= 1e-12 * c**2 * ric_max
    # A rate rounds relative to the size of the terms it sums, which exceeds
    # |r| where they cancel; a quotient by R carries R's error relative to R.
    scales = (lambda r: n * ric_max,  # -R/n, R a sum of n entries of Ric
              lambda r: abs(r) * n * ric_max / abs(rep.R),  # -tr Ric^2 / R
              lambda r: 4.0 * np.abs(ric * rep.M).sum() / np.sum(mu.mu_p**2),  # 4 tr(Ric M) / mu_p^2
              lambda r: 0.0)  # ricci-norm: |r| alone
    rates = [lambda m, s=s: normalization_rate(m, s)
             for s in (VOLUME, SCALAR_CURVATURE, BRACKET_NORM)]
    for rate, scale in zip(rates + [ricci_norm_rate], scales):
        try:
            r = rate(mu)
        except NormalizationError:  # undefined here, e.g. R = 0 or a flat bracket
            continue
        assert abs(rate(moved) - c**2 * r) <= 1e-12 * c**2 * max(abs(r), scale(r))


def test_computed_brackets_skip_the_validating_constructor(monkeypatch):
    # Brackets the program computes are only canonicalized (core._canonical,
    # unpack_state); the validating constructor is for outside input.
    point = unimodular3(1, 2, 3).point
    calls = []
    validate = BracketTensor.__post_init__

    def counted(self):
        calls.append(1)
        validate(self)

    monkeypatch.setattr(BracketTensor, "__post_init__", counted)
    span = (0.0, 0.05)
    traj = integrate(point, UNNORMALIZED, span, samples=21)
    mtraj = integrate_metric(point, span, samples=21)
    integrate_gauge(traj).pushforward(point.bracket, -1)
    integrate_gauge(mtraj, "metric").pushforward(point.bracket, -1)
    equivalence_report(point, span, samples=21)
    reparametrize(traj, VOLUME, samples=21)
    rescale_to_ricci_norm(traj, samples=21)
    rate = custom_rate(lambda mu: 0.1 * float(np.sum(mu.mu_p**2)))
    integrate_reduced(Berger3(), np.array([1.0, 2.0, 0.0]), rate, span, samples=21)
    berger3(1, 2, 0)
    unimodular3(1, 2, 3)
    assert len(calls) == 0


@pytest.mark.parametrize("tol", [{"rtol": np.nan}, {"rtol": np.inf}, {"atol": np.nan},
                                 {"atol": np.inf}, {"rtol": 0.0}])
def test_solve_rk54_rejects_non_finite_tolerances(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        solve_rk54(lambda t, y: -y, np.array([1.0]), np.linspace(0.0, 1.0, 5), **tol)


def test_rhs_evaluations_are_counted(monkeypatch):
    # Two evaluations start a run (f at t0 and the initial-step probe).  DOP853
    # then takes twelve stages per attempted step, and on a dense run three
    # more on each step that holds a sample.  Each run reports its calls as
    # rhs_evals, an auto-horizon rescaling also the extension stages it
    # computes after its solve.
    calls = []

    def f(t, y):
        calls.append(t)
        return np.cos(30.0 * t) * 30.0 * y

    res = solve_rk54(f, np.array([1.0]), np.linspace(0.0, 1.0, 11), rtol=1e-6, atol=1e-9)
    assert res.n_rejected > 0
    assert res.nfev == len(calls) == 2 + 12 * (res.n_steps + res.n_rejected)
    solves = _counted_solves(monkeypatch)
    traj = integrate(berger3(1, 2, 0).point, VOLUME, (0.0, 1.0), samples=11)
    stats = traj.stats
    assert solves == [["dense", stats.nfev]]
    _dop853_extended(stats)
    assert traj.describe()["rhs_evals"] == stats.nfev
    solves.clear()
    rescaled = rescale_to_ricci_norm(integrate(unimodular3(1, 0, 0).point, UNNORMALIZED, (0, 2)))
    assert solves[-1][1] == rescaled.stats.nfev
    assert traj.termination == "reached-t-end" and stats.trigger_value is None
    assert "trigger_value" not in traj.describe()


def test_flow_right_hand_side_builds_no_bracket(monkeypatch):
    # The tensor tangent, rate, Ric and Jacobi drift read the packed state
    # through the polynomial tables: no unpack_state, no BracketTensor.
    import bracketflow.core as core_mod
    import bracketflow.flow as flow_mod

    point = berger3(1, 1, 0).point
    calls = []
    for mod in (core_mod, flow_mod):
        unpack = getattr(mod, "unpack_state")
        monkeypatch.setattr(mod, "unpack_state",
                            lambda *a, _f=unpack: calls.append(1) or _f(*a))
    validate = BracketTensor.__post_init__
    monkeypatch.setattr(BracketTensor, "__post_init__",
                        lambda self: calls.append(1) or validate(self))
    traj = integrate(point, VOLUME, (0.0, 2.0), samples=21)
    assert traj.stats.n_steps > 5
    assert calls == []
