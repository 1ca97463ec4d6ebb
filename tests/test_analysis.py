import math

import numpy as np
import pytest

from bracketflow.analysis import (
    _derivative,
    block_derivations,
    classify_limit,
    derivation_algebra,
    identity_audit,
    injectivity_lower_bound,
    soliton_residual,
)
from bracketflow.core import (
    BracketTensor,
    act_gl,
    act_pi,
    component_norms,
    rescale,
    unpack_array,
    validate_point,
)
from bracketflow.curvature import _pieces, _ricci_evolution
from bracketflow.families import (
    Berger3,
    SemisimpleFamily,
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
    NormalizationError,
    custom_rate,
    integrate,
    integrate_reduced,
    integrate_reduced_batch,
)

from conftest import random_valid_point, solvable_point


def derivation_dim_oracle(mu, tol=1e-8):
    """Independent null-space count: assemble the derivation equations
    D mu(e_i, e_j) = mu(D e_i, e_j) + mu(e_i, D e_j) entrywise by loops."""
    d = mu.dim
    c = mu.c
    rows = []
    for i in range(d):
        for j in range(d):
            for m in range(d):
                row = np.zeros((d, d))
                for x in range(d):
                    row[m, x] -= c[i, j, x]  # -(D mu(ei,ej))_m picks D[m, x]
                    row[x, i] += c[x, j, m]
                    row[x, j] += c[i, x, m]
                rows.append(row.ravel())
    mat = np.array(rows)
    s = np.linalg.svd(mat, compute_uv=False)
    smax = s.max() if s.size else 0.0
    cut = tol * smax if smax > tol else tol
    return int(np.sum(s < cut)) + (d * d - len(s) if len(s) < d * d else 0)


def test_derivation_dims_match_oracle():
    generic = np.random.default_rng(0).normal(size=(4, 4, 4))
    cases = [
        (unimodular3(1, 0, 0).point.bracket, 6),
        (BracketTensor.zero(0, 3), 9),
        (unimodular3(1, 1, 1).point.bracket, 3),
        (BracketTensor(1, 3, generic - generic.transpose(1, 0, 2)), 0),
    ]
    for mu, expected in cases:
        basis = derivation_algebra(mu)
        assert basis.dim == expected
        assert derivation_dim_oracle(mu) == expected
        assert len(basis.residuals(mu)) == expected


def test_derivation_basis_quality(rng):
    for _ in range(8):
        point = random_valid_point(rng)
        basis = derivation_algebra(point.bracket, tol=1e-8)
        # Residuals below tolerance and orthonormal under the trace pairing.
        for res in basis.residuals(point.bracket):
            assert res <= 1e-7
        for i, a in enumerate(basis.basis):
            for j, b in enumerate(basis.basis):
                ip = float(np.sum(a * b))
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_derivation_dim_stable_under_tol():
    for mu in (
        unimodular3(1, 0, 0).point.bracket,
        unimodular3(1, 1, 1).point.bracket,
        berger3(1, 1, 0).point.bracket,
    ):
        assert (
            derivation_algebra(mu, tol=1e-8).dim
            == derivation_algebra(mu, tol=1e-7).dim
        )


def test_block_derivations_satisfy_pi_kernel():
    mu = berger3(1, 1, 0).point.bracket
    basis = block_derivations(mu)
    d = mu.dim
    for a in basis.basis:
        full = np.zeros((d, d))
        full[1:, 1:] = a
        assert np.abs(act_pi(full, mu).c).max() <= 1e-7


def test_soliton_residual_cases():
    # Einstein: residual ~ 0 with trivial derivation part.
    einstein = semisimple_concrete_su2(1, 1)
    s = soliton_residual(einstein.point)
    assert s.residual <= 1e-10
    assert np.linalg.norm(s.D) <= 1e-8
    # Nilsoliton: residual ~ 0 with nonzero derivation part.
    heis = unimodular3(1, 0, 0)
    s = soliton_residual(heis.point)
    assert s.residual <= 1e-10
    assert np.linalg.norm(s.D) > 0.5
    assert s.c == pytest.approx(-1.5, rel=1e-10)
    # Generic non-soliton: clearly positive (value frozen from an oracle run).
    non = semisimple_concrete_su2(1.0, 0.5)
    assert soliton_residual(non.point).residual > 1e-3


def test_soliton_verdict_scale_invariant():
    for cat in (unimodular3(1, 0, 0), semisimple_concrete_su2(1.0, 0.5)):
        base = soliton_residual(cat.point)
        base_rel = base.residual / (
            1 + np.linalg.norm(np.atleast_2d(base.D)) + abs(base.c)
        )
        for c in (0.5, 2.0):
            moved = validate_point(rescale(c, cat.point.bracket))
            s = soliton_residual(moved)
            rel = s.residual / (1 + np.linalg.norm(s.D) + abs(s.c))
            assert (rel < 1e-8) == (base_rel < 1e-8)


def test_identity_audit_catalog_seeds():
    traj = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0, 0.2), samples=241)
    audit = identity_audit(traj)
    assert audit.passed(1e-4)
    assert set(audit.max_rel_error) == {
        "Ric", "M", "B", "H", "U", "R", "mu_p_norm2", "trB", "H_norm2",
    }

    trajv = integrate(unimodular3(1, 2, 3).point, VOLUME, (0, 1.0), samples=481)
    assert identity_audit(trajv).passed(1e-4)

    trajs = integrate(unimodular3(1, 2, 3).point, SCALAR_CURVATURE, (0, 1.0), samples=481)
    assert identity_audit(trajs).passed(1e-4)


def test_identity_audit_einstein_scalar_rate():
    # On an Einstein start with Ric = c I the scalar law gives
    # dR/dt = 2 n c^2 at t = 0 (here n = 3, c = 1/2).
    traj = integrate(unimodular3(1, 1, 1).point, UNNORMALIZED, (0, 0.1), samples=81)
    assert identity_audit(traj).passed(1e-6)
    t = traj.times
    scalars = np.array([traj.curvature_at(i).R for i in range(traj.n_samples)])
    fd0 = (scalars[1] - scalars[0]) / (t[1] - t[0])
    assert fd0 == pytest.approx(1.5, rel=1e-2)


def test_identity_audit_nonunimodular_seed():
    # All nine identities are nontrivial when H != 0.
    traj = integrate(solvable_point(1.0, 0.6), UNNORMALIZED, (0, 0.5), samples=241)
    audit = identity_audit(traj)
    assert audit.passed(1e-5)


def test_identity_audit_ricci_norm_trajectory():
    # Post-processed trajectories carry the constraint-derived rate in their
    # tangents; the rate-corrected laws must hold along them too.
    from bracketflow.flow import rescale_to_ricci_norm

    base = integrate(unimodular3(1, 2, 3).point, UNNORMALIZED, (0, 0.15), samples=601)
    rn = rescale_to_ricci_norm(base, samples=241)
    assert identity_audit(rn).passed(1e-4)


# Per-identity audit errors of runs that take the audit's less common paths
# (rates, a reduced system, a nonuniform grid): (run, samples checked, errors).
# Tensor runs step freely and fill their samples from the continuous extension,
# so the five-point stencils see its error too: custom-rate reads about 1.7e-7,
# against about 4e-10 with a step landing on every sample.
_AUDIT_PINS = {
    "bracket-norm": (
        lambda: integrate(unimodular3(1, 2, 3).point, BRACKET_NORM, (0, 1), samples=481),
        477,
        {"Ric": 1.0747027519020282e-06, "M": 1.8188871897214087e-06, "B": 1.8274898706107997e-06,
         "H": 0.0, "U": 0.0, "R": 6.00552008464302e-07, "mu_p_norm2": 6.75012415740639e-07,
         "trB": 6.084872822141535e-07, "H_norm2": 0.0},
    ),
    "custom-rate": (
        lambda: integrate(berger3(1.2, 0.5, 0.3).point,
                          custom_rate(lambda mu: 0.3 * float(np.sum(mu.mu_p**2))),
                          (0, 0.2), samples=241),
        237,
        {"Ric": 7.598341407364603e-08, "M": 8.215168953530651e-08, "B": 9.482551821220088e-08,
         "H": 0.0, "U": 0.0, "R": 8.579372599454424e-08, "mu_p_norm2": 8.810970734220252e-08,
         "trB": 9.544139070154172e-08, "H_norm2": 0.0},
    ),
    "reduced": (
        lambda: integrate_reduced(Berger3(), (0.5, 1, 0), VOLUME, (0, 1), samples=481),
        477,
        {"Ric": 3.0437244190521976e-11, "M": 2.817146838766803e-11, "B": 1.4774064227379945e-11,
         "H": 0.0, "U": 0.0, "R": 2.032920322315272e-11, "mu_p_norm2": 3.935709582920754e-11,
         "trB": 1.6777697645076353e-11, "H_norm2": 0.0},
    ),
    # Converges at sample 138 of 401 (t = 13.620), once conv_window consecutive
    # accepted steps, which step freely past the samples, read a small tangent.
    # The closing gap is short, so the grid is nonuniform; the five-point
    # weights follow each window's own times, on all 134 samples two from an end.
    "converged": (
        lambda: integrate(berger3(0.5, 1, 0).point, VOLUME, (0, 40), samples=401),
        134,
        {"Ric": 0.00014930235524090814, "M": 0.00014208771356851506, "B": 7.880923430949826e-05,
         "H": 0.0, "U": 0.0, "R": 9.858174760182108e-05, "mu_p_norm2": 0.00019845365193965191,
         "trB": 9.582258598727748e-05, "H_norm2": 0.0},
    ),
}


@pytest.mark.parametrize("name", sorted(_AUDIT_PINS))
def test_identity_audit_pinned_runs(name):
    run, checked, errors = _AUDIT_PINS[name]
    traj = run()
    audit = identity_audit(traj)
    assert audit.samples_checked == checked
    assert audit.max_rel_error == pytest.approx(errors, rel=1e-12, abs=0.0)
    if name == "converged":
        assert traj.termination == "converged-to-fixed-point" and traj.n_samples == 138
        gaps = np.diff(traj.times)
        assert gaps[-1] == pytest.approx(0.0201, abs=1e-4) and gaps[0] == pytest.approx(0.1)


def _rotated_points(rng):
    """unimodular3(1, 2, 3) under a random rotation of p (a dense bracket), and
    berger3(1.2, 0.5, 0.3) under a rotation of the (X2, X3) plane, which keeps
    its isotropy compatible."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    plane = np.eye(3)
    plane[1:, 1:] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return [validate_point(act_gl(unimodular3(1, 2, 3).point.bracket, np.zeros((0, 0)),
                                  np.linalg.qr(rng.normal(size=(3, 3)))[0])),
            validate_point(act_gl(berger3(1.2, 0.5, 0.3).point.bracket, np.eye(1), plane))]


def test_curvature_on_the_sample_fastest_stack_is_the_c_ordered_one():
    # identity_audit evaluates curvature.py on a copy of its stack whose sample
    # axis varies fastest; only the order of the einsums' sums may change.
    # Each quantity is a form of degree k in the bracket, so 4 ulp of |c|^k.
    rng = np.random.default_rng(11)
    for point in _rotated_points(rng):
        q = point.bracket.q
        c = unpack_array(point.bracket.dim, integrate(point, VOLUME, (0, 0.5), samples=61).states)
        cs = np.asfortranarray(c)
        assert cs.strides[0] == c.itemsize
        norm = np.sqrt(np.sum(c * c, axis=(1, 2, 3)))
        rep, rep_s = _pieces(c, q), _pieces(cs, q)
        pairs = [(getattr(rep, k), getattr(rep_s, k), 2 if k != "H" else 1)
                 for k in ("H", "B", "M", "U", "Ric", "R")]
        pairs += [(a, b, 4) for a, b in zip(_ricci_evolution(c[:, q:, q:, q:], rep),
                                            _ricci_evolution(cs[:, q:, q:, q:], rep_s))]
        for a, b, k in pairs:
            a, b = a.reshape(len(c), -1), b.reshape(len(c), -1)
            assert np.all(np.abs(a - b) <= 4 * np.finfo(float).eps * norm[:, None] ** k)


@pytest.mark.parametrize("strategy", [UNNORMALIZED, VOLUME], ids=lambda s: s.kind)
def test_identity_audit_of_a_rotated_point_is_the_c_layout_audit(strategy, monkeypatch):
    rng = np.random.default_rng(12)
    for point in _rotated_points(rng):
        traj = integrate(point, strategy, (0, 0.2), samples=121)
        audit = identity_audit(traj).max_rel_error
        with monkeypatch.context() as patch:  # the audit on its C-ordered stack
            patch.setattr(np, "asfortranarray", np.ascontiguousarray)
            c_layout = identity_audit(traj).max_rel_error
        assert audit.keys() == c_layout.keys()
        assert all(abs(audit[k] - c_layout[k]) <= 1e-12 for k in audit), (audit, c_layout)
        assert audit["Ric"] > 0.0


def test_derivative_is_exact_on_quartics_over_any_grid():
    # Random nonuniform grids, including the 5- and 6-sample ones: five-point
    # weights from each window's own times differentiate quartics exactly.
    rng = np.random.default_rng(7)
    for m in (5, 6, 7, 12, 40):
        t = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(0.02, 0.3, m))
        coef = rng.normal(size=(5, 3))  # three quartics, one per column
        interior, derivative = _derivative(t)
        f = np.polynomial.polynomial.polyval(t, coef).T
        want = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(coef)).T
        assert len(t[interior]) == m - 4
        np.testing.assert_allclose(derivative(f), want[interior], rtol=0, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("m", [3, 4])
def test_derivative_is_exact_on_quadratics_over_short_grids(m):
    t = np.array([0.0, 0.1, 0.35, 0.5])[:m]
    f = (1.5 - 2.0 * t + 3.0 * t * t)[:, None]
    interior, derivative = _derivative(t)
    assert len(t[interior]) == m - 2
    np.testing.assert_allclose(derivative(f)[:, 0], (-2.0 + 6.0 * t)[interior], rtol=1e-13, atol=1e-13)


def test_derivative_on_a_uniform_grid_is_the_classic_stencil():
    t, h = np.linspace(0.0, 2.0, 9), 0.25
    interior, derivative = _derivative(t)
    weights = derivative(np.eye(9))  # row i: the weights of the i-th audited sample
    assert (interior.start, len(weights)) == (2, 5)
    for i, row in enumerate(weights):
        np.testing.assert_allclose(row[i:i + 5], np.array([1, -8, 0, 8, -1]) / (12 * h),
                                   rtol=1e-14, atol=1e-14)
        assert not np.any(np.delete(row, np.s_[i:i + 5]))


def test_unnormalized_reduced_audit_reads_no_rate_scalars():
    fam, calls = Berger3(), []
    scalars = fam.rate_scalars
    fam.rate_scalars = lambda params: calls.append(1) or scalars(params)
    identity_audit(integrate_reduced(fam, (1, 2, 0), UNNORMALIZED, (0, 1), samples=101))
    assert calls == []
    # A kind with no rate is rejected up front, before any cell runs.
    with pytest.raises(NormalizationError, match="no pointwise rate"):
        integrate_reduced_batch(fam, [(1, 2, 0)], RICCI_NORM, (0, 1), samples=11)
    assert calls == []


def test_identity_audit_needs_samples():
    traj = integrate(unimodular3(1, 1, 1).point, UNNORMALIZED, (0, 0.1), samples=2)
    with pytest.raises(ValueError):
        identity_audit(traj)


def test_classify_blowup():
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0, 5.0), samples=60)
    res = classify_limit(traj)
    assert res.verdict == "finite-time-blowup"
    assert "blowup_time_estimate" in res.residuals


def test_classify_zero_collapse():
    traj = integrate(berger3(0, -1, 0).point, UNNORMALIZED, (0, 50.0), samples=80)
    res = classify_limit(traj)
    assert res.verdict == "zero-collapse"
    assert res.residuals["mu_p_norm"] == 0.0


def test_classify_flat_limit():
    # The flat fixed point (1, 1, 0) converges immediately with Ric = 0.
    traj = integrate(
        unimodular3(1, 1, 0).point,
        UNNORMALIZED,
        (0, 1.0),
        samples=40,
        events=EventConfig(conv_tangent=1e-12, conv_window=3),
    )
    res = classify_limit(traj)
    assert traj.termination == "converged-to-fixed-point"
    assert res.verdict == "flat-limit"
    assert "local-convergence-indicated" in res.labels


def test_classify_einstein_limit():
    traj = integrate(berger3(0.5, 1, 0).point, VOLUME, (0, 40.0), samples=80)
    res = classify_limit(traj)
    assert res.verdict == "einstein-limit"
    assert res.witness is not None
    assert res.residuals["einstein_dev"] < 1e-6


@pytest.fixture(scope="module")
def soliton_traj():
    # The negatively normalized run converges to the product point, which is
    # an algebraic soliton but not Einstein.
    return integrate(
        berger3(0.5, -0.1875, 0).point,
        SCALAR_CURVATURE,
        (0, 250.0),
        samples=120,
        events=EventConfig(conv_tangent=1e-11, conv_window=6),
    )


def test_classify_soliton_limit(soliton_traj):
    assert soliton_traj.termination == "converged-to-fixed-point"
    res = classify_limit(soliton_traj)
    assert res.verdict == "soliton-limit"
    assert res.residuals["einstein_dev"] > 1e-2


def test_classify_limit_lets_programming_errors_through(soliton_traj, monkeypatch):
    # Only a drifted-off point or a failed SVD/lstsq means "no soliton residual".
    def broken(point):
        raise RuntimeError("bug in soliton_residual")

    monkeypatch.setattr("bracketflow.analysis.soliton_residual", broken)
    with pytest.raises(RuntimeError, match="bug in soliton_residual"):
        classify_limit(soliton_traj)


def test_classify_bounded_ancient():
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0.0, -50.0), samples=80)
    assert classify_limit(traj).verdict == "bounded-ancient"


def test_classify_inconclusive():
    traj = integrate(berger3(1, 2, 0).point, UNNORMALIZED, (0.0, 0.05), samples=20)
    assert classify_limit(traj).verdict == "inconclusive"


def test_classify_reduced_without_realization():
    fam = SemisimpleFamily(3, 5)
    traj = integrate_reduced(fam, [1.0, 2.0], UNNORMALIZED, (0, 30.0), samples=60)
    assert classify_limit(traj).verdict == "finite-time-blowup"


def test_classify_soliton_limit_of_a_family_without_realization():
    # The closed-form soliton residual: semisimple(3, 5) has no tensor to test.
    fam = SemisimpleFamily(3, 5)
    traj = integrate_reduced(fam, (0, 1), BRACKET_NORM, (0, 20), samples=50)
    assert traj.termination == "converged-to-fixed-point"
    res = classify_limit(traj)
    assert res.verdict == "soliton-limit"
    scale = 1.0 + float(np.linalg.norm(traj.system.ricci(traj.states[-1])))
    assert res.residuals["soliton_rel"] == fam.soliton_residual_closed(traj.states[-1]) / scale


def test_injectivity_family_values():
    cat = berger3(1, 1, 0)
    bound = injectivity_lower_bound(cat.point)
    assert bound.value == pytest.approx(math.pi / math.sqrt(8), rel=1e-12)
    assert bound.generic == pytest.approx(math.pi / math.sqrt(8), rel=1e-12)

    for b in (-1.0, -0.25, 0.0):
        bound = injectivity_lower_bound(berger3(1.0, b, 0).point)
        assert math.isinf(bound.value)
        assert not math.isinf(bound.generic)

    small = injectivity_lower_bound(berger3(0.2, 4.0, 0).point)
    assert small.family_value == pytest.approx(2 * math.pi * 0.2 / 4.0, rel=1e-12)


def test_injectivity_generic_everywhere(rng):
    for _ in range(10):
        point = random_valid_point(rng)
        _, _, aux2 = component_norms(point.bracket)
        bound = injectivity_lower_bound(point)
        assert bound.generic == pytest.approx(math.pi / math.sqrt(aux2), rel=1e-12)


def test_injectivity_family_detection_requires_c_zero():
    cat = berger3(1, 1, 0.5)
    bound = injectivity_lower_bound(cat.point)
    assert bound.family_value is None
    assert bound.value == bound.generic
