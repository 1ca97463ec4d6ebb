"""The polynomial tables of _poly against the einsum formulas of curvature.py.

States are drawn with unit packed norm, so every quantity below has its
natural scale 1 and the bounds read as relative ones; a rate divides by R,
|mu_p|^2 or tr(Ric^2), so its bound grows with the condition of that division.
"""

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow._poly import tables
from bracketflow.core import (
    BracketTensor,
    _pairs,
    act_gl,
    act_pi_array,
    jacobi_residual,
    pack_state,
    unpack_array,
    unpack_state,
)
from bracketflow.curvature import _pieces, _ricci_evolution, curvature_pieces
from bracketflow.families import berger3, unimodular3
from bracketflow.flow import (
    BRACKET_NORM,
    RICCI_NORM,
    SCALAR_CURVATURE,
    UNNORMALIZED,
    VOLUME,
    NormalizationError,
    TensorFlowSystem,
    _rate_from_scalars,
    _report_rate,
    custom_rate,
    ricci_norm_rate,
)

from conftest import compatible_block_q1, random_invertible

SHAPES = [(0, 3), (1, 3), (0, 4), (2, 3)]
TOL = 1e-13
SETTINGS = settings(max_examples=60, deadline=None)
STRATEGIES = [UNNORMALIZED, VOLUME, SCALAR_CURVATURE, BRACKET_NORM,
              custom_rate(lambda mu: 0.3 * float(np.sum(mu.mu_p**2)))]


def unit_bracket(q, n, rng) -> BracketTensor:
    """Random bracket on H_{q,n} (no membership conditions), unit packed norm."""
    d = q + n
    c = rng.normal(size=(d, d, d))
    y = pack_state(BracketTensor(q, n, c - c.swapaxes(0, 1)))
    return unpack_state(q, n, y / np.linalg.norm(y))


def su2_central(rng) -> BracketTensor:
    """A valid bracket on H_{2,3}: su(2) plus a central k = R^2 through a
    coboundary, moved by a random block map (k stays central, so ad Z|p = 0)."""
    c = np.zeros((5, 5, 5))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[2 + i, 2 + j, 2 + k], c[2 + j, 2 + i, 2 + k] = 1.0, -1.0
    phi = rng.normal(size=(3, 2))
    c[2:, 2:, :2] = -np.einsum("ijl,lz->ijz", c[2:, 2:, 2:], phi)
    mu = BracketTensor(2, 3, c)
    return act_gl(mu, random_invertible(rng, 2), random_invertible(rng, 3),
                  require_compatible=False)


def reference_tangent(mu: BracketTensor, ric: np.ndarray, r: float) -> np.ndarray:
    """Packed -pi(diag(0, Ric)) mu on the p x p components, plus the rate term."""
    q, d = mu.q, mu.dim
    a = np.zeros((d, d))
    a[q:, q:] = ric
    dc = -act_pi_array(a, mu.c)
    dc[q:, q:, :q] += 2.0 * r * mu.c[q:, q:, :q]
    dc[q:, q:, q:] += r * mu.c[q:, q:, q:]
    iu, ju = _pairs(d)
    return np.where((iu >= q)[:, None], dc[iu, ju], 0.0).ravel()


def rate_scale(strategy, rep, mu) -> float:
    """Size of the rounding a rate can carry, for a unit-norm state."""
    if strategy.kind == "scalar-curvature":
        return 1.0 / rep.R**2 + 1.0 / abs(rep.R)
    if strategy.kind == "bracket-norm":
        mu2 = float(np.sum(mu.mu_p**2))
        return 1.0 / mu2**2 + 1.0 / mu2
    return 1.0


@SETTINGS
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
def test_ricci_moment_and_scalars_match_curvature(shape, seed):
    mu = unit_bracket(*shape, np.random.default_rng(seed))
    tab = tables(*shape)
    y = pack_state(mu)
    rep = curvature_pieces(mu)
    ric = tab.ricci(y, y)
    assert np.abs(ric[tab.full] - rep.Ric).max() <= TOL
    assert np.abs(tab.moment(y, y)[tab.full] - rep.M).max() <= TOL
    assert abs(tab.trace(ric) - rep.R) <= TOL
    assert abs(tab.trace_product(ric, tab.moment(y, y)) - np.sum(rep.Ric * rep.M)) <= TOL
    assert abs(tab.mu_p_norm2(y) - np.sum(mu.mu_p**2)) <= TOL
    assert abs(tab.jacobi_residual(y) - jacobi_residual(mu)) <= TOL


@SETTINGS
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
def test_tangent_matches_pi_action_under_every_pointwise_rate(shape, seed):
    # The one table call assembles the whole state's derivative: the tangent
    # against the einsum route, and c' = r c, tau' = c^2 exactly.
    rng = np.random.default_rng(seed)
    mu = unit_bracket(*shape, rng)
    rep = curvature_pieces(mu)
    q, d = mu.q, mu.dim
    c, tau = rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0)
    state = np.append(pack_state(mu), [c, tau])
    for strategy in STRATEGIES:
        system = TensorFlowSystem(mu, strategy)
        try:
            stack = mu.c[None]
            r_ref = _report_rate(stack, q, strategy, _pieces(stack, q), None)[0]
        except NormalizationError:
            with pytest.raises(NormalizationError):
                system.tangent(state)
            continue
        f, r, _ = system.tangent(state)
        tangent = f[:-2]
        scale = rate_scale(strategy, rep, mu)
        assert abs(r - r_ref) <= TOL * scale
        assert np.abs(tangent - reference_tangent(mu, rep.Ric, r_ref)).max() <= TOL * (1 + scale)
        iso = tangent.reshape(-1, d)[_pairs(d)[0] < q]
        assert np.all(iso == 0.0) and not np.signbit(iso).any()
        assert f[-2] == r * c and f[-1] == c * c, strategy.kind


def rate_from_every_scalar(tab, strategy, y, ric):
    """Reference rate at y: all five curvature scalars into _rate_from_scalars,
    and ricci-norm and custom by their own formulas; ric is Ric's sym vector."""
    if strategy.kind == "custom":
        return float(strategy.rate_fn(unpack_state(tab.q, tab.n, y)))
    tr2 = tab.trace_product(ric, ric)
    if strategy.kind == "ricci-norm":
        if tr2 <= 0:
            raise NormalizationError("ricci-norm rate undefined at a flat bracket")
        unnormalized = tab.tangent(np.append(ric, [0.0, 0.0]), np.append(y, [1.0, 0.0]))
        return -tab.trace_product(ric, tab.ricci.polar(y, unnormalized)) / (2.0 * tr2)
    return _rate_from_scalars(strategy, tab.n, tab.trace(ric), tr2,
                              tab.trace_product(ric, tab.moment(y, y)), tab.mu_p_norm2(y))


def assert_tangent_is_the_rate_from_every_scalar(mu, y, c=1.5, tau=0.25):
    # The one-call tangent is bitwise the two-step route: the Ric terms of the
    # table, then + (r rate_w) y where r != 0.  c' = r c and tau' = c c hold as
    # values: a bincount sum is never -0.0, so c' at r = -0.0 reads +0.0.
    tab = tables(mu.q, mu.n)
    ric = tab.ricci(y, y)[:-2]
    state = np.append(y, [c, tau])
    for strategy in STRATEGIES + [RICCI_NORM]:
        system = TensorFlowSystem(mu, strategy)
        try:
            r = rate_from_every_scalar(tab, strategy, y, ric)
        except NormalizationError as exc:
            with pytest.raises(NormalizationError, match=f"^{re.escape(str(exc))}$"):
                system.tangent(state)
            continue
        f, r_bound, ric_bound = system.tangent(state)
        assert np.float64(r_bound).tobytes() == np.float64(r).tobytes(), strategy.kind
        two_step = tab.tangent(np.append(ric, [0.0, 0.0]), np.append(y, [0.0, 0.0]))[:-2]
        if r != 0.0:
            two_step += r * tab.rate_w * y
        assert f[:-2].tobytes() == two_step.tobytes(), strategy.kind
        assert f[-2] == r * c and f[-1] == c * c, strategy.kind
        assert ric_bound.tobytes() == np.append(ric, [r, c]).tobytes()


@SETTINGS
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1),
       st.sampled_from(["unit", "mu_p = 0", "zero", "non-finite"]))
def test_tangent_is_bitwise_the_rate_from_every_scalar(shape, seed, variant):
    # Each bound rate evaluates only the scalars its formula reads; one that
    # read the wrong scalar would move r and the tangent off these bits.
    mu = unit_bracket(*shape, np.random.default_rng(seed))
    tab = tables(*shape)
    y = pack_state(mu)
    if variant == "non-finite":
        # A trial stage the stepper must reject.  The tangent is the only guard:
        # under the stepper's errstate no rate may raise, and the NaN or inf
        # must reach the tangent.  Only the p x p rows can leave the finite
        # range: the isotropy rows of a tangent are r * 0 * y, so a stage's are
        # non-finite only after an earlier rate was, which also reached its p x p rows.
        moving = np.flatnonzero(tab.rate_w)
        y[moving[seed % moving.size]] = [np.nan, np.inf, -np.inf][seed % 3]
        state = np.append(y, [1.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            for strategy in STRATEGIES + [RICCI_NORM]:
                system = TensorFlowSystem(mu, strategy)
                tangent, r, ric = system.tangent(state)
                assert tangent.shape == state.shape, strategy.kind
                assert not np.isfinite(tangent).all(), strategy.kind
                if strategy.kind == "custom":  # its rate_fn takes a bracket: the NaN triple
                    assert np.isnan(tangent).all() and np.isnan(r) and np.isnan(ric).all()
                if strategy.kind in ("scalar-curvature", "ricci-norm"):
                    # An exact zero divisor (R, tr Ric^2) is NaN at this stage, not an error.
                    assert np.isnan(system._rate(state, np.zeros_like(ric)))
        return
    if variant != "unit":  # |mu_p|^2 = 0: bracket-norm raises; zero: R = tr Ric^2 = 0 too
        y = np.where((tab.mu_p_w > 0) | (variant == "zero"), 0.0, y)
    assert_tangent_is_the_rate_from_every_scalar(mu, y)


@pytest.mark.parametrize("mu", [unimodular3(1, 1, 0).point.bracket,  # flat, mu_p != 0
                                berger3(0, 1, 0).point.bracket],  # mu_p = 0, R != 0
                         ids=["flat", "no-mu_p"])
def test_undefined_bound_rates_raise_as_from_every_scalar(mu):
    assert_tangent_is_the_rate_from_every_scalar(mu, pack_state(mu))


@SETTINGS
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
def test_ricci_norm_rate_is_the_evolution_law(shape, seed):
    # _ricci_evolution's D0 is the paper's law on H_{q,n}: for q > 0 it needs
    # skew isotropy operators, so those draws are valid points moved by the
    # group; for q = 0 the law holds on every bracket.
    rng = np.random.default_rng(seed)
    q, n = shape
    if q == 0:
        mu = unit_bracket(q, n, rng)
    elif q == 1:
        a, b, c = rng.uniform(-1.2, 1.2, size=3)
        mu = act_gl(berger3(a, b, c).point.bracket, *compatible_block_q1(rng))
    else:
        mu = su2_central(rng)
    tab = tables(q, n)
    y = pack_state(mu)
    rep = curvature_pieces(mu)
    d0_ref = _ricci_evolution(mu.mu_p, rep)[0]
    ric = tab.ricci(y, y)  # its slots (r, c) are 0.0: the unnormalized tangent
    d0 = tab.ricci.polar(y, tab.tangent(ric, np.append(y, [1.0, 0.0])))[tab.full]
    y2 = float(y @ y)
    assert np.abs(d0 - d0_ref).max() <= TOL * y2**2
    tr2 = float(np.sum(rep.Ric**2))
    if tr2 < 1e-6 * y2**2:
        return
    r_ref = -float(np.sum(rep.Ric * d0_ref)) / (2.0 * tr2)
    assert abs(ricci_norm_rate(mu) - r_ref) <= TOL * y2**3 / tr2 * (1.0 + abs(r_ref) / y2)


@pytest.mark.parametrize("shape", SHAPES)
def test_tables_are_the_einsum_formulas_on_integer_brackets(shape):
    # On integer entries every product and sum of both sides is exact (the
    # coefficients are dyadic), so the tables must equal the einsum formulas
    # bitwise; a sign or index slip cannot hide below a tolerance.
    q, n = shape
    d = q + n
    tab = tables(q, n)
    iu, ju = _pairs(d)
    pp = iu >= q  # the packed p x p rows
    trip = np.array(list(combinations(range(d), 3)))  # _poly's triple order
    ys = np.random.default_rng(0).integers(-3, 4, size=(200, len(iu) * d)).astype(float)
    c = unpack_array(d, ys)
    rep = _pieces(c, q)
    a = np.zeros((len(ys), d, d))
    a[:, q:, q:] = rep.Ric
    tangent = -act_pi_array(a, c)[:, iu, ju][:, pp]
    t = np.einsum("...ijl,...lkm->...ijkm", c, c)
    cyclic = t + t.transpose(0, 2, 3, 1, 4) + t.transpose(0, 3, 1, 2, 4)
    for y, ci, ric_ref, m_ref, tan_ref, jac_ref in zip(
            ys, c, rep.Ric, rep.M, tangent, cyclic[:, trip[:, 0], trip[:, 1], trip[:, 2]]):
        ric = tab.ricci(y, y)
        assert np.array_equal(ric[tab.full], ric_ref)
        assert np.array_equal(tab.moment(y, y)[tab.full], m_ref)
        tan = tab.tangent(ric, np.append(y, [1.0, 0.0]))  # r = 0 in ric's slot
        assert np.array_equal(tan[:-2].reshape(-1, d)[pp], tan_ref)
        assert tab.mu_p_norm2(y) == np.sum(ci[q:, q:, q:] ** 2)
        assert np.array_equal(tab.jacobi(y, y).reshape(-1, d), jac_ref)


def test_tables_are_sparse_and_cached():
    tab = tables(1, 3)
    assert tables(1, 3) is tab
    assert len(tab.ricci.coef) < 150 and len(tab.tangent.coef) < 100
    # Ric on p is 3 x 3: six sym-vector entries and the slots (r, c); the state
    # is 6 pairs x 4 components, then (c, tau).
    assert tab.ricci.size == 6 + 2 and tab.tangent.size == 24 + 2
