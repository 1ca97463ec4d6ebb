import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from bracketflow._rk import solve_rk54
from bracketflow.core import (
    BracketTensor,
    CompatibilityError,
    InvalidPointError,
    component_norms,
    jacobi_residual,
    pack_state,
    rescale,
    unpack_state,
    validate_point,
)
from bracketflow.curvature import ricci_operator
from bracketflow.families import (
    Berger3,
    SemisimpleFamily,
    SemisimpleSu2,
    Unimodular3,
    berger3,
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
    NormalizationError,
    TensorFlowSystem,
    ValidityDriftError,
    _pack_sym,
    _run_flow,
    _unpack_sym,
    bracket_rhs,
    custom_rate,
    equivalence_report,
    integrate,
    integrate_gauge,
    integrate_metric,
    integrate_reduced,
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
    assert traj.times[-1] == pytest.approx(0.1113, abs=1e-4)
    assert traj.n_samples == 4
    assert np.isfinite(traj.states).all()
    assert np.abs(traj.states[-1]).max() <= 3.0


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
    with pytest.raises(ValidityDriftError) as info:
        _run_flow(system, (0.0, 1.0), 1e-9, 1e-12, 20, EventConfig())
    assert info.value.trajectory is not None


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
    fam = Berger3()
    cases = [
        ([0.5, 1.0, 0.0], VOLUME),
        ([0.5, 0.8125, 0.0], SCALAR_CURVATURE),
    ]
    for params0, strategy in cases:
        red = integrate_reduced(
            fam, params0, strategy, (0.0, 3.0), samples=61, rtol=1e-10, atol=1e-13
        )
        cat = berger3(*params0)
        full = integrate(
            cat.point, strategy, (0.0, 3.0), samples=61, rtol=1e-10, atol=1e-13
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


def test_equivalence_report_pairs_samples_by_time():
    # Past the blowup near t = 0.316 the bracket run, the metric run and the
    # metric-side gauge close at three different times.  Only the grid samples
    # they share are compared, so each deviation compares states at one time.
    rep = equivalence_report(unimodular3(1, 2, 3).point, (0.0, 0.5), samples=101)
    assert rep.partial
    grid = np.linspace(0.0, 0.5, 101)
    assert 2 <= len(rep.times) < len(grid)
    assert rep.times.tobytes() == grid[: len(rep.times)].tobytes()
    assert rep.per_side["metric"]["bracket_dev"] <= 1e-4
    # Each gauge follows only the samples both flows share, so both reach the
    # last of them, the grid sample 0.315 before the blowup.
    assert rep.times[-1] == grid[63]


def test_reparametrize_zero_rate_is_identity():
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 0.2), samples=201)
    rep = reparametrize(base, custom_rate(lambda mu: 0.0), t_end=0.15, samples=41)
    path = base.interpolator()
    for i in range(rep.n_samples):
        assert np.abs(rep.states[i] - path(rep.times[i])).max() < 1e-12
        assert rep.c[i] == pytest.approx(1.0, abs=1e-12)
        assert rep.tau[i] == pytest.approx(rep.times[i], abs=1e-12)


def test_reparametrize_einstein_volume_constant():
    cat = unimodular3(1, 1, 1)
    base = integrate(cat.point, UNNORMALIZED, (0.0, 0.9), samples=301)
    rep = reparametrize(base, VOLUME, t_end=2.0, samples=41)
    for i in range(rep.n_samples):
        assert np.abs(rep.bracket_at(i).c - cat.point.bracket.c).max() < 1e-7


def test_reparametrize_matches_direct_normalized_run():
    cat = berger3(0.5, 1, 0)
    base = integrate(cat.point, UNNORMALIZED, (0.0, 5.0), samples=801)
    rep = reparametrize(base, VOLUME, t_end=1.0, samples=81)
    direct = integrate(cat.point, VOLUME, (0.0, 1.0), samples=81)
    dev = max(
        np.abs(rep.states[i] - direct.states[i]).max() for i in range(rep.n_samples)
    )
    assert dev < 1e-6


def test_reparametrize_range_errors():
    base = integrate(unimodular3(1, 1, 1).point, UNNORMALIZED, (0.0, 0.5), samples=101)
    with pytest.raises(ValueError):
        reparametrize(base, VOLUME, t_end=50.0)
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


def test_solve_rk54_never_accepts_a_non_finite_state():
    # y' = 1e308 overflows y within the span; an overflowed trial state would
    # enlarge its own error scale and read as error 0.
    res = solve_rk54(lambda t, y: np.array([1e308]), np.array([1e308]), np.linspace(0.0, 1.0, 11))
    assert res.status == "step-underflow"
    assert res.n_rejected > 0
    assert 0.7 < res.sample_t[-1] < 0.8
    assert np.isfinite(res.sample_y).all()


def test_gauges_past_a_blowup_keep_their_covered_prefix():
    # unimodular3(1, 2, 3) blows up near t = 0.316: neither gauge can follow
    # its trajectory to the end, and each returns the samples it covered.
    point = unimodular3(1, 2, 3).point
    traj = integrate(point, UNNORMALIZED, (0.0, 0.5), samples=101)
    mtraj = integrate_metric(point, (0.0, 0.5), samples=101)
    for side, src in (("bracket", traj), ("metric", mtraj)):
        gauge = integrate_gauge(src, side)
        assert gauge.termination == "step-underflow"
        k = len(gauge.times)
        assert 2 < k <= len(src.times)
        assert np.array_equal(gauge.times[: k - 1], src.times[: k - 1])
        assert gauge.times[-1] <= src.times[-1]
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


def test_metric_flow_ends_typed_before_a_degenerate_metric():
    # P loses positive definiteness near t = 0.41 on this seed; the trial
    # stages past it are rejected, so the run ends typed with its samples.
    traj = integrate_metric(berger3(1, 2, 0).point, (0.0, 1.0), samples=101)
    assert traj.termination == "step-underflow"
    assert 0.3 < traj.times[-1] < 1.0 and len(traj.times) > 30
    assert np.isfinite(traj.P).all()
    assert all(np.linalg.eigvalsh(p).min() > 0 for p in traj.P)


@pytest.mark.parametrize("strategy", [VOLUME, SCALAR_CURVATURE, BRACKET_NORM])
@pytest.mark.parametrize(
    "cat, t_span",
    [(unimodular3(1, 2, 3), (0.0, 1.0)), (berger3(0.5, 1, 0), (0.0, 3.0))],
)
def test_reparametrize_blown_up_source_ends_in_step_underflow(cat, t_span, strategy):
    # Near the source blowup a trial (c, tau) stage overflows the rescaled
    # bracket; the stepper must reject it and stop typed, not raise.
    base = integrate(cat.point, UNNORMALIZED, t_span)
    assert base.termination == "blowup-detected"
    rep = reparametrize(base, strategy, samples=41)
    assert rep.termination == "step-underflow"
    assert rep.n_samples == 41 and np.all(np.diff(rep.times) > 0)
    assert np.all(np.isfinite(rep.states)) and np.all(np.isfinite(rep.c))
    assert np.all(rep.tau <= base.times[-1])


def test_reparametrize_reports_probe_underflow_with_t_end():
    # The source stops at its blowup near t = 0.69 with only two samples
    # before it; the probe underflows at t ~ 0.097, well short of t_end.
    base = integrate(berger3(0.5, 1, 0).point, UNNORMALIZED, (0.0, 40.0), samples=61)
    rep = reparametrize(base, VOLUME, t_end=1.0)
    assert rep.termination == "step-underflow"
    assert rep.times[-1] == pytest.approx(0.097, abs=1e-3)


def test_reparametrize_rejects_nonpositive_t_end():
    base = integrate(unimodular3(1, 1, 1).point, UNNORMALIZED, (0.0, 0.5), samples=21)
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError):
            reparametrize(base, VOLUME, t_end=t_end)


def test_rescale_to_ricci_norm_reports_step_underflow():
    # A forward source passing through the flat bracket unimodular3(1, 1, 0)
    # at tau = 0.5: c = (tr Ric_0^2 / tr Ric^2)^(1/4) grows without bound
    # there, and the (c, tau) steps underflow before tau gets past it.
    fam = Unimodular3()
    taus = np.linspace(0.0, 1.0, 21)
    base = integrate(unimodular3(1, 1, 0.5).point, UNNORMALIZED, (0.0, 1.0), samples=21)
    src = dataclasses.replace(
        base,
        states=np.array([pack_state(fam.embed([1.0, 1.0, 0.5 - t])) for t in taus]),
        derivs=np.array([pack_state(fam.embed([0.0, 0.0, -1.0]))] * len(taus)),
    )
    rn = rescale_to_ricci_norm(src, samples=41)
    assert rn.termination == "step-underflow"
    assert rn.tau[-1] < 0.5
    assert np.all(np.isfinite(rn.states))


def test_rescale_to_ricci_norm_notes_a_stalled_tau():
    # The source blows up near t = 0.316; c = (tr Ric_0^2 / tr Ric^2)^(1/4)
    # dies there, so tau stalls short of the source end while the run goes
    # on to the automatic horizon.
    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0.0, 1.0))
    rn = rescale_to_ricci_norm(base)
    assert rn.termination == "reached-t-end"
    assert rn.tau[-1] == pytest.approx(0.3116, abs=1e-4)
    assert rn.notes == (f"tau stalled at {rn.tau[-1]:.6g} < {base.times[-1]:.6g}",)
    # A source the rescaling runs through gets no note.
    heis = integrate(unimodular3(1, 0, 0).point, UNNORMALIZED, (0.0, 2.0), samples=20)
    assert rescale_to_ricci_norm(heis, samples=20).notes == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1)))
def test_ricci_and_rates_are_homogeneous_of_degree_two(seed, c):
    mu = random_valid_point(np.random.default_rng(seed), allow_q1=False).bracket
    moved = rescale(c, mu)
    ric = ricci_operator(mu)
    assert np.abs(ricci_operator(moved) - c**2 * ric).max() <= 1e-12 * c**2 * np.abs(ric).max()
    rates = [lambda m, s=s: normalization_rate(m, s)
             for s in (VOLUME, SCALAR_CURVATURE, BRACKET_NORM)]
    for rate in rates + [ricci_norm_rate]:
        try:
            r = rate(mu)
        except NormalizationError:  # undefined here, e.g. R = 0 or a flat bracket
            continue
        assert rate(moved) == pytest.approx(c**2 * r, rel=1e-12)


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
