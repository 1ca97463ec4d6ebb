import math

import numpy as np
import pytest

from bracketflow.analysis import (
    block_derivations,
    classify_limit,
    derivation_algebra,
    identity_audit,
    injectivity_lower_bound,
    soliton_residual,
)
from bracketflow.core import (
    BracketTensor,
    act_pi,
    component_norms,
    rescale,
    validate_point,
)
from bracketflow.families import (
    SemisimpleFamily,
    berger3,
    semisimple_concrete_su2,
    unimodular3,
)
from bracketflow.flow import (
    SCALAR_CURVATURE,
    UNNORMALIZED,
    VOLUME,
    EventConfig,
    integrate,
    integrate_reduced,
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
    cases = [
        (unimodular3(1, 0, 0).point.bracket, 6),
        (BracketTensor.zero(0, 3), 9),
        (unimodular3(1, 1, 1).point.bracket, 3),
    ]
    for mu, expected in cases:
        basis = derivation_algebra(mu)
        assert basis.dim == expected
        assert derivation_dim_oracle(mu) == expected


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
