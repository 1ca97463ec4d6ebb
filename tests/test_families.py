import itertools

import numpy as np
import pytest

from bracketflow.core import component_norms, validate_point
from bracketflow.curvature import curvature_pieces, curvature_report
from bracketflow.families import (
    Berger3,
    NoRealizationError,
    ReducedFamilyPoint,
    SemisimpleFamily,
    SemisimpleSu2,
    Unimodular3,
    berger3,
    embed,
    semisimple_concrete_su2,
    semisimple_family,
    unimodular3,
)
from bracketflow.flow import UNNORMALIZED, TensorFlowSystem, bracket_rhs, integrate


def test_unimodular3_examples():
    cat = unimodular3(1, 1, 1)
    assert np.abs(cat.closed.Ric - 0.5 * np.eye(3)).max() < 1e-15
    assert cat.closed.R == pytest.approx(1.5)
    assert np.abs(unimodular3(0, 0, 0).closed.Ric).max() == 0.0
    flat = unimodular3(1, 1, 0)
    assert np.abs(flat.closed.Ric).max() < 1e-15
    assert flat.closed.R == pytest.approx(0.0)


def test_berger3_examples():
    cat = berger3(0, 1, 0)
    assert np.abs(cat.closed.Ric - np.diag([0.0, 1.0, 1.0])).max() < 1e-15
    assert np.allclose(berger3(1, 1, 0).reduced_rhs(), [0.5, 1.0, 0.0])
    # Points on the parabola b = a^2 are round: Ric = a^2/2 I.
    a = 1.37
    cat = berger3(a, a * a, 0)
    assert np.abs(cat.closed.Ric - 0.5 * a * a * np.eye(3)).max() < 1e-12


def test_berger3_embedding_table():
    # The explicit 4-dimensional tensor in the (Z1, X1, X2, X3) basis.
    c = berger3(1, 1, 0).point.bracket.c
    expected = np.zeros((4, 4, 4))
    pairs = [
        (3, 0, 2, 1.0),  # mu(X3, Z1) = X2
        (0, 2, 3, 1.0),  # mu(Z1, X2) = X3
        (2, 3, 1, 1.0),  # mu(X2, X3) = X1 + Z1
        (2, 3, 0, 1.0),
    ]
    for i, j, k, v in pairs:
        expected[i, j, k] = v
        expected[j, i, k] = -v
    assert np.abs(c - expected).max() == 0.0


def test_semisimple_family_values():
    cat = semisimple_family(1, 1, 3, 5)
    fam = cat.family
    assert fam.alpha == pytest.approx(1 / 6)
    assert np.abs(cat.closed.Ric - 0.25 * np.eye(8)).max() < 1e-15
    assert cat.closed.R == pytest.approx(2.0)
    assert np.allclose(cat.reduced_rhs(), [0.25, 0.25])
    # Second Einstein locus at alpha = 1/6 is b = a / 11.
    assert fam.einstein_loci()[1] == pytest.approx(1 / 11)
    # Product case (1, 0).
    cat = semisimple_family(1, 0, 3, 5)
    ric = np.diag(cat.closed.Ric)
    assert np.allclose(ric[:3], 0.25 * fam.alpha)
    assert np.allclose(ric[3:], 0.0)


def test_semisimple_alpha_range_enforced():
    with pytest.raises(ValueError):
        SemisimpleFamily(1, 3)  # alpha < 0
    with pytest.raises(ValueError):
        SemisimpleFamily(0, 2)


def test_su2_base_constant_matches_killing_normalization():
    from bracketflow.families import _su2_base_constant

    assert _su2_base_constant() == pytest.approx(2 ** (-0.5), rel=1e-12)


def test_su2_concrete_matches_closed_forms():
    for a, b in [(1.0, 1.0), (1.0, -1.0), (0.6, 1.4), (0.0, 0.9), (1.0, 0.0)]:
        cat = semisimple_concrete_su2(a, b)
        rep = curvature_report(cat.point)
        assert np.abs(rep.Ric - cat.closed.Ric).max() < 1e-12
        assert rep.R == pytest.approx(cat.closed.R, abs=1e-12)
    assert np.abs(
        semisimple_concrete_su2(1, -1).closed.Ric - 0.25 * np.diag([1.0, -3.0, -3.0])
    ).max() < 1e-13
    # (1, 0) is the flat circle-times-plane product at alpha = 0.
    assert np.abs(semisimple_concrete_su2(1, 0).closed.Ric).max() == 0.0


def test_closed_forms_match_general_formula(rng):
    fams = [
        (Unimodular3(), 3),
        (Berger3(), 3),
        (SemisimpleSu2(), 2),
    ]
    for fam, n_params in fams:
        for _ in range(50):
            params = rng.uniform(-2, 2, size=n_params)
            mu = fam.embed(params)
            rep = curvature_pieces(mu)
            closed = fam.closed_report(params)
            for got, want in [
                (rep.Ric, closed.Ric),
                (rep.B, closed.B),
                (rep.M, closed.M),
                (rep.H, closed.H),
            ]:
                assert np.abs(got - want).max() < 1e-12
            assert abs(rep.R - closed.R) < 1e-12


def test_embeddings_validate_tightly(rng):
    for _ in range(10):
        p3 = rng.uniform(-1.5, 1.5, size=3)
        for cat in (unimodular3(*p3), berger3(*p3)):
            r = cat.point.report
            assert max(r.h1, r.h3) <= 1e-12
        p2 = rng.uniform(-1.5, 1.5, size=2)
        assert semisimple_concrete_su2(*p2).point.report.h1 <= 1e-12


def test_project_roundtrip_and_rejection(rng):
    fam = Berger3()
    params = rng.uniform(-1.5, 1.5, size=3)
    assert np.abs(fam.project(fam.embed(params)) - params).max() < 1e-14
    off = unimodular3(1, 2, 3).point.bracket
    with pytest.raises(ValueError):
        fam.project(off)
    with pytest.raises(ValueError):
        Unimodular3().project(berger3(1, 1, 0).point.bracket)


def test_reduced_rhs_matches_tensor_rhs(rng):
    # The flow tangent of an embedded point reads off as the reduced rhs.
    for _ in range(10):
        a, b, c = rng.uniform(-1.2, 1.2, size=3)
        cat = berger3(a, b, c)
        tangent = bracket_rhs(cat.point)
        got = np.array([tangent.c[2, 3, 1], tangent.c[2, 3, 0], tangent.c[1, 2, 3]])
        assert np.abs(got - cat.reduced_rhs()).max() < 1e-12

        cat = unimodular3(a, b, c)
        tangent = bracket_rhs(cat.point)
        got = np.array([tangent.c[1, 2, 0], tangent.c[2, 0, 1], tangent.c[0, 1, 2]])
        assert np.abs(got - cat.reduced_rhs()).max() < 1e-12


# Every coefficient of the closed forms and the tensor tables is dyadic, so on
# integer points no operation rounds: the identities hold bitwise, and a family
# rhs of degree at most 3 per parameter that agrees on 4 points per axis is the
# tensor tangent as a polynomial.
_INTEGER_GRID = list(itertools.product(range(-3, 4), repeat=3))


@pytest.mark.parametrize("fam", [Unimodular3(), Berger3()], ids=lambda f: f.name)
def test_family_closed_forms_are_the_tensor_ones_on_integer_points(fam):
    entries = fam._realization[1]
    for p in _INTEGER_GRID:
        mu = fam.embed(np.array(p, dtype=float))
        system = TensorFlowSystem(mu, UNNORMALIZED)
        tangent = system.bracket(system.tangent(system.state0)[0][:-2]).c
        assert np.array_equal(fam.rhs(np.array(p, dtype=float)), [tangent[e] for e in entries]), p
        assert np.array_equal(fam.ricci_diag(np.array(p, dtype=float)),
                              np.diag(curvature_pieces(mu).Ric)), p


@pytest.mark.parametrize("fam", [Unimodular3(), Berger3()], ids=lambda f: f.name)
def test_family_curvature_scalars_are_the_tensor_ones_on_integer_points(fam):
    for p in _INTEGER_GRID:
        p = np.array(p, dtype=float)
        mu = fam.embed(p)
        rep = curvature_pieces(mu)
        mu_p2, _, aux2 = component_norms(mu)
        assert np.array_equal(fam.moment_diag(p), np.diag(rep.M)), p
        assert np.array_equal(fam.killing_diag(p), np.diag(rep.B)), p
        assert fam.mu_p_norm2(p) == mu_p2 and fam.aux_norm2(p) == aux2, p
        want = (3, rep.R, np.sum(rep.Ric**2), np.sum(rep.Ric * rep.M), mu_p2)
        assert fam.rate_scalars(p) == want, p


@pytest.mark.parametrize("fam", [Unimodular3(), Berger3(), SemisimpleFamily(3, 5)],
                         ids=lambda f: f.name)
def test_family_rhs_on_a_batch_is_bitwise_its_columns(fam, rng):
    params = rng.uniform(-2.0, 2.0, size=(len(fam.param_names), 50))
    params[:, :3] = np.round(params[:, :3])  # some integer and zero entries
    batch = fam.rhs(params)
    assert batch.shape == params.shape
    for col, got in zip(params.T, batch.T):
        assert got.tobytes() == fam.rhs(col).tobytes() == fam.rhs(col.tolist()).tobytes()


def test_family_invariance_under_full_flow(rng):
    # Full-tensor flows started in a family stay in it.
    cat = berger3(0.8, -0.5, 0.3)
    traj = integrate(cat.point, UNNORMALIZED, (0.0, 1.0), samples=51)
    fam = Berger3()
    for i in range(0, traj.n_samples, 10):
        mu = traj.bracket_at(i)
        params = np.array([mu.c[2, 3, 1], mu.c[2, 3, 0], mu.c[1, 2, 3]])
        assert np.abs(fam.embed(params).c - mu.c).max() < 1e-8


def test_reduced_integration_matches_full_tensor(rng):
    # Integrating the reduced planar system and the full tensor from the same
    # seed agree after projection, over unit time at tight tolerance.
    from bracketflow.flow import integrate_reduced

    fam = Berger3()
    params0 = [0.9, -0.4, 0.3]
    red = integrate_reduced(
        fam, params0, UNNORMALIZED, (0.0, 1.0), samples=41, rtol=1e-10, atol=1e-13
    )
    full = integrate(
        berger3(*params0).point, UNNORMALIZED, (0.0, 1.0),
        samples=41, rtol=1e-10, atol=1e-13,
    )
    dev = max(
        np.abs(fam.project(full.bracket_at(i), tol=1e-5) - red.states[i]).max()
        for i in range(41)
    )
    assert dev <= 1e-8


def test_region_invariance_semisimple(rng):
    from bracketflow.flow import integrate_reduced

    fam = SemisimpleFamily(3, 5)
    for _ in range(8):
        a0 = rng.uniform(0.2, 1.4)
        b0 = rng.uniform(0.0, a0)
        traj = integrate_reduced(fam, [a0, b0], UNNORMALIZED, (0.0, 0.8), samples=60)
        a_path = traj.states[:, 0]
        b_path = traj.states[:, 1]
        assert np.all(b_path >= -1e-10)
        assert np.all(b_path <= a_path + 1e-8)
        assert np.all(np.diff(a_path) >= -1e-10)


def test_embed_reduced_point():
    rp = ReducedFamilyPoint("berger3", (1.0, 1.0, 0.0))
    mu = embed(rp)
    assert validate_point(mu).valid
    with pytest.raises(NoRealizationError):
        embed(ReducedFamilyPoint("semisimple", (1.0, 1.0), {"h_dim": 3, "m_dim": 5}))
    su2 = embed(ReducedFamilyPoint("semisimple-su2", (1.0, 1.0)))
    assert np.abs(curvature_pieces(su2).Ric - 0.25 * np.eye(3)).max() < 1e-12


def test_soliton_closed_form_matches_display():
    # Nilpotent locus: Ric = c I + D with the displayed block-scalar pieces.
    fam = SemisimpleFamily(3, 5)
    b = 1.3
    al = fam.alpha
    ric_h, ric_m = fam.ricci_blocks([0.0, b])
    c_disp = -0.25 * (3 - al) * b**2
    d_h = 0.5 * (2 - al) * b**2
    d_m = 0.25 * (2 - al) * b**2
    assert ric_h == pytest.approx(c_disp + d_h, rel=1e-12)
    assert ric_m == pytest.approx(c_disp + d_m, rel=1e-12)
    assert fam.soliton_residual_closed([0.0, b]) < 1e-12
    assert fam.soliton_residual_closed([1.0, 0.0]) < 1e-12
    assert fam.soliton_residual_closed([1.0, 0.5]) > 1e-3
