import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow.core import (
    BracketTensor,
    InvalidPointError,
    act_gl,
    act_pi_array,
    validate_point,
)
from bracketflow.curvature import (
    _pieces,
    _ricci_evolution,
    curvature_pieces,
    curvature_report,
    delta_adjoint,
    delta_map,
    killing_operator,
    laplacian_op,
    mean_curvature,
    moment_operator,
    ricci_operator,
)
from bracketflow.families import berger3, unimodular3

from conftest import random_valid_point, solvable_point
from test_poly import SHAPES, unit_bracket


def random_skew_tensor(rng, n):
    c = rng.normal(size=(n, n, n))
    return c - c.transpose(1, 0, 2)


def test_mean_curvature_unimodular_families():
    assert np.all(mean_curvature(unimodular3(1.2, -0.3, 0.8).point.bracket) == 0.0)
    assert np.all(mean_curvature(berger3(0.7, 1.1, -0.5).point.bracket) == 0.0)


def test_mean_curvature_hyperbolic_plane():
    # mu(X1, X2) = X2 on n = 2: tr ad X1 = 1, tr ad X2 = 0.
    mu = BracketTensor.from_entries(0, 2, [[0, 1, 1, 1.0]])
    assert np.allclose(mean_curvature(mu), [1.0, 0.0])


def test_killing_closed_forms():
    a, b, c = 0.9, -1.4, 0.6
    got = killing_operator(unimodular3(a, b, c).point.bracket)
    assert np.abs(got - np.diag([-2 * b * c, -2 * a * c, -2 * a * b])).max() < 1e-13
    got = killing_operator(berger3(a, b, c).point.bracket)
    expected = np.diag([-2 * c**2, -2 * (b + a * c), -2 * (b + a * c)])
    assert np.abs(got - expected).max() < 1e-13
    assert np.abs(killing_operator(BracketTensor.zero(0, 3))).max() == 0.0


def test_moment_closed_forms():
    a, b, c = 1.1, 0.4, -0.8
    got = moment_operator(unimodular3(a, b, c).point.bracket.mu_p)
    expected = -0.5 * np.diag(
        [-(a**2) + b**2 + c**2, a**2 - b**2 + c**2, a**2 + b**2 - c**2]
    )
    assert np.abs(got - expected).max() < 1e-13

    m111 = moment_operator(unimodular3(1, 1, 1).point.bracket.mu_p)
    assert np.abs(m111 + 0.5 * np.eye(3)).max() < 1e-15
    assert np.trace(m111) == pytest.approx(-1.5)

    got = moment_operator(berger3(a, b, c).point.bracket.mu_p)
    expected = -0.5 * np.diag([2 * c**2 - a**2, a**2, a**2])
    assert np.abs(got - expected).max() < 1e-13


def test_moment_trace_identity(rng):
    for _ in range(10):
        mu_p = random_skew_tensor(rng, 4)
        m = moment_operator(mu_p)
        assert np.trace(m) == pytest.approx(-0.25 * np.sum(mu_p**2), rel=1e-12)


def test_moment_dual_characterization(rng):
    # tr(M E) = (1/4) <pi(E) mu_p, mu_p> for all operators E.
    for _ in range(10):
        mu_p = random_skew_tensor(rng, 3)
        m = moment_operator(mu_p)
        e = rng.normal(size=(3, 3))
        lhs = float(np.trace(m @ e))
        rhs = 0.25 * float(np.sum(act_pi_array(e, mu_p) * mu_p))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_curvature_report_closed_forms():
    rep = curvature_report(unimodular3(1, 1, 1).point)
    assert np.abs(rep.Ric - 0.5 * np.eye(3)).max() < 1e-14
    assert rep.R == pytest.approx(1.5)

    rep = curvature_report(unimodular3(1, 0, 0).point)
    assert np.abs(rep.Ric - 0.5 * np.diag([1.0, -1.0, -1.0])).max() < 1e-14
    assert rep.R == pytest.approx(-0.5)

    a, b, c = 0.8, -0.6, 1.2
    rep = curvature_report(berger3(a, b, c).point)
    e = -0.5 * a**2 + b + a * c
    assert np.abs(rep.Ric - np.diag([0.5 * a**2, e, e])).max() < 1e-13
    assert rep.R == pytest.approx(-0.5 * a**2 + 2 * (b + a * c), rel=1e-12)


def test_curvature_report_requires_valid():
    bad = validate_point(
        BracketTensor.from_entries(0, 3, [[0, 1, 2, 1.0], [0, 2, 0, 1.0]])
    )
    with pytest.raises(InvalidPointError):
        curvature_report(bad)


def test_report_invariants_on_random_points(rng):
    for _ in range(25):
        point = random_valid_point(rng)
        rep = curvature_pieces(point.bracket)
        mu = point.bracket
        # Decomposition and scalar-curvature identity.
        assert np.abs(rep.Ric - (rep.M - 0.5 * rep.B - rep.U)).max() < 1e-12
        mu_p2 = float(np.sum(mu.mu_p**2))
        h2 = float(rep.H @ rep.H)
        assert rep.R == pytest.approx(
            -0.25 * mu_p2 - 0.5 * np.trace(rep.B) - h2, rel=1e-10, abs=1e-10
        )
        assert np.trace(rep.M) == pytest.approx(-0.25 * mu_p2, rel=1e-10, abs=1e-12)
        # Isotropy operators commute with Ric.
        for z in range(mu.q):
            a = mu.ad_iso_p(z)
            assert np.abs(a @ rep.Ric - rep.Ric @ a).max() < 1e-9


def test_ric_h_pairing_identity(rng):
    # <Ric(H), H> = -tr S(ad H)^2 = <Ric, S(ad H)>.
    for alpha, beta in [(1.0, 0.5), (-0.7, 1.3), (0.9, 0.9)]:
        point = solvable_point(alpha, beta)
        rep = curvature_pieces(point.bracket)
        lhs = float(rep.H @ (rep.Ric @ rep.H))
        mid = -float(np.sum(rep.U * rep.U))
        rhs = float(np.sum(rep.Ric * rep.U))
        assert lhs == pytest.approx(mid, rel=1e-10, abs=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_delta_map_basics():
    mu_p = unimodular3(1, 1, 1).point.bracket.mu_p
    assert np.abs(delta_map(mu_p, np.eye(3)) - mu_p).max() == 0.0
    assert np.abs(delta_map(mu_p, np.zeros((3, 3)))).max() == 0.0
    # Derivations of the nilpotent bracket lie in the kernel.
    heis = unimodular3(1, 0, 0).point.bracket.mu_p
    assert np.abs(delta_map(heis, np.diag([2.0, 1.0, 1.0]))).max() < 1e-15


def test_delta_adjoint_values():
    mu_p = unimodular3(1, 1, 1).point.bracket.mu_p
    assert np.abs(delta_adjoint(mu_p, mu_p) - 2 * np.eye(3)).max() < 1e-14
    assert np.abs(delta_adjoint(mu_p, np.zeros((3, 3, 3)))).max() == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]))
def test_delta_adjoint_is_adjoint_of_delta(seed, n):
    # <delta*_mu(lam), A> = <lam, delta_mu(A)> for skew mu, lam and any A.
    rng = np.random.default_rng(seed)
    cp = random_skew_tensor(rng, n)
    lam = random_skew_tensor(rng, n)
    a = rng.normal(size=(n, n))
    lhs = float(np.sum(delta_adjoint(cp, lam) * a))
    rhs = float(np.sum(lam * delta_map(cp, a)))
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_delta_adjoint_is_minus_four_moment(rng):
    for _ in range(10):
        cp = random_skew_tensor(rng, 3)
        lhs = delta_adjoint(cp, cp)
        assert np.abs(lhs + 4 * moment_operator(cp)).max() < 1e-12


def test_laplacian_values_and_psd(rng):
    mu_p = unimodular3(1, 1, 1).point.bracket.mu_p
    assert np.abs(laplacian_op(mu_p, np.eye(3)) - 2 * np.eye(3)).max() < 1e-14
    assert np.abs(laplacian_op(np.zeros((3, 3, 3)), rng.normal(size=(3, 3)))).max() == 0.0
    for _ in range(10):
        cp = random_skew_tensor(rng, 4)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        quad = float(np.sum(laplacian_op(cp, a) * a))
        assert quad == pytest.approx(float(np.sum(delta_map(cp, a) ** 2)), rel=1e-10)
        assert quad >= -1e-12


def test_killing_and_h_equivariance(rng):
    # B_{h~.mu} = (h^-1)^t B h^-1 and H_{h.mu_p} = (h^-1)^t H.
    for _ in range(10):
        point = random_valid_point(rng)
        mu = point.bracket
        n = mu.n
        h = np.eye(n) + 0.5 * rng.normal(size=(n, n))
        if abs(np.linalg.det(h)) < 0.1:
            continue
        h_q = np.eye(mu.q) if mu.q else np.zeros((0, 0))
        moved = act_gl(mu, h_q, h, require_compatible=False)
        hinv = np.linalg.inv(h)
        b_expected = hinv.T @ killing_operator(mu) @ hinv
        assert np.abs(killing_operator(moved) - b_expected).max() < 1e-9
        h_expected = hinv.T @ mean_curvature(mu)
        assert np.abs(mean_curvature(moved) - h_expected).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ricci_is_equivariant_under_orthogonal_action(seed):
    # Ric(O . mu) = O Ric(mu) O^T for orthogonal O on p (q = 0 points).
    rng = np.random.default_rng(seed)
    mu = random_valid_point(rng, allow_q1=False).bracket
    o, _ = np.linalg.qr(rng.normal(size=(mu.n, mu.n)))
    ric = ricci_operator(mu)
    moved = ricci_operator(act_gl(mu, np.zeros((0, 0)), o))
    assert np.abs(moved - o @ ric @ o.T).max() <= 1e-12 * np.abs(ric).max()


def test_ricci_operator_defined_off_membership(rng):
    c = random_skew_tensor(rng, 3)
    ric = ricci_operator(BracketTensor(0, 3, c))
    assert ric.shape == (3, 3)
    assert np.abs(ric - ric.T).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_stacked_curvature_matches_each_bracket(shape, seed, m):
    # One definition serves a bracket and a stack: the pieces and the Ric
    # evolution of an (m, d, d, d) stack are those of each bracket alone.
    rng = np.random.default_rng(seed)
    q = shape[0]
    mus = [unit_bracket(*shape, rng) for _ in range(m)]
    c = np.stack([mu.c for mu in mus])
    rep = _pieces(c, q)
    evolution = _ricci_evolution(c[:, q:, q:, q:], rep)
    for i, mu in enumerate(mus):
        one = curvature_pieces(mu)
        pairs = [(rep.H, one.H), (rep.B, one.B), (rep.M, one.M), (rep.U, one.U),
                 (rep.Ric, one.Ric), (rep.R, one.R)]
        pairs += zip(evolution, _ricci_evolution(mu.mu_p, one))
        for stacked, single in pairs:
            assert np.abs(stacked[i] - single).max() <= 1e-14 * np.abs(single).max()
