import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from bracketflow.core import (
    BracketTensor,
    CompatibilityError,
    MalformedInputError,
    _canonical,
    _pairs,
    act_gl,
    act_pi,
    bracket_eval,
    bracket_from_json,
    bracket_to_json,
    component_norms,
    component_split,
    gl_action,
    gl_action_packed,
    jacobi_residual,
    pack_state,
    rescale,
    unpack_array,
    unpack_state,
    validate_point,
)
from bracketflow.families import berger3, semisimple_concrete_su2, unimodular3

from conftest import compatible_block_q1, random_invertible, random_valid_point


def basis_vector(d, i):
    e = np.zeros(d)
    e[i] = 1.0
    return e


def jacobi_oracle(mu):
    """Brute-force cyclic sum over all basis triples via bracket_eval."""
    d = mu.dim
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ei, ej, ek = (basis_vector(d, x) for x in (i, j, k))
                s = (
                    bracket_eval(mu, bracket_eval(mu, ei, ej), ek)
                    + bracket_eval(mu, bracket_eval(mu, ej, ek), ei)
                    + bracket_eval(mu, bracket_eval(mu, ek, ei), ej)
                )
                worst = max(worst, float(np.linalg.norm(s)))
    return worst


def test_bracket_eval_unimodular():
    mu = unimodular3(1, 1, 1).point.bracket
    x2, x3 = basis_vector(3, 1), basis_vector(3, 2)
    assert np.allclose(bracket_eval(mu, x2, x3), [1, 0, 0])


def test_bracket_eval_antisymmetric(rng):
    mu = random_valid_point(rng).bracket
    x = rng.normal(size=mu.dim)
    y = rng.normal(size=mu.dim)
    assert np.all(bracket_eval(mu, x, x) == 0.0)
    assert np.all(bracket_eval(mu, x, y) == -bracket_eval(mu, y, x))


def test_bracket_eval_berger():
    mu = berger3(1, 1, 0).point.bracket
    x2, x3 = basis_vector(4, 2), basis_vector(4, 3)
    # mu(X2, X3) = X1 + Z1 in the (Z1, X1, X2, X3) basis.
    assert np.allclose(bracket_eval(mu, x2, x3), [1, 1, 0, 0])


def test_bracket_eval_dimension_mismatch():
    mu = unimodular3(1, 1, 1).point.bracket
    with pytest.raises(ValueError):
        bracket_eval(mu, np.zeros(4), np.zeros(3))


def test_jacobi_zero_on_lie_brackets():
    assert jacobi_residual(unimodular3(1, 1, 1).point.bracket) == 0.0
    assert jacobi_residual(BracketTensor.zero(0, 3)) == 0.0


def test_jacobi_positive_on_non_lie():
    # mu(X1,X2)=X3, mu(X1,X3)=X1 violates the Jacobi identity.
    mu = BracketTensor.from_entries(0, 3, [[0, 1, 2, 1.0], [0, 2, 0, 1.0]])
    res = jacobi_residual(mu)
    assert res == pytest.approx(jacobi_oracle(mu), abs=1e-14)
    assert res == pytest.approx(1.0, abs=1e-14)


def test_jacobi_matches_oracle_random(rng):
    for _ in range(5):
        c = rng.normal(size=(3, 3, 3))
        mu = BracketTensor(0, 3, c - c.transpose(1, 0, 2))
        assert jacobi_residual(mu) == pytest.approx(jacobi_oracle(mu), rel=1e-12)


def test_validate_berger_point():
    point = berger3(1, 1, 0).point
    assert point.valid
    rep = point.report
    assert rep.h1 == 0.0 and rep.h3 == 0.0
    assert rep.h4_sigma > 1.0 - 1e-12
    assert point.h2_status == "known-by-construction"


def test_validate_q0_vacuous():
    point = unimodular3(0.3, -0.7, 1.1).point
    assert point.valid
    assert point.report.h3 == 0.0
    assert point.report.h4_sigma == np.inf
    assert point.h2_status == "holds-trivially"


def test_validate_effectivity_failure():
    # Isotropy generator bracketing to zero with p: (h4) must fail.
    mu = BracketTensor.from_entries(1, 3, [[2, 3, 1, 1.0], [2, 3, 0, 0.5]])
    point = validate_point(mu)
    assert point.report.h4_sigma <= 1e-12
    assert not point.valid


def test_validate_records_not_raises():
    mu = BracketTensor.from_entries(0, 3, [[0, 1, 2, 1.0], [0, 2, 0, 1.0]])
    point = validate_point(mu)
    assert not point.valid and point.report.jacobi > 0


def test_act_gl_identity():
    mu = berger3(0.4, 0.9, -0.2).point.bracket
    out = act_gl(mu, np.eye(1), np.eye(3))
    assert np.abs(out.c - mu.c).max() == 0.0


def test_act_gl_scalar_is_rescale(rng):
    mu = unimodular3(0.7, -1.2, 0.4).point.bracket
    c = 1.7
    out = act_gl(mu, np.zeros((0, 0)), np.eye(3) / c)
    assert np.abs(out.c - rescale(c, mu).c).max() < 1e-14


def test_act_gl_su2_scaling_map():
    # Block scaling diag(1/a, 1/sqrt(ab) I) maps the (1,1) point to (a, b).
    a, b = 1.3, 0.7
    mu0 = semisimple_concrete_su2(1, 1).point.bracket
    h_n = np.diag([1 / a, 1 / np.sqrt(a * b), 1 / np.sqrt(a * b)])
    out = act_gl(mu0, np.zeros((0, 0)), h_n)
    expected = semisimple_concrete_su2(a, b).point.bracket
    assert np.abs(out.c - expected.c).max() < 1e-13


def test_act_gl_composition(rng):
    for _ in range(10):
        mu = berger3(*rng.uniform(-1, 1, size=3)).point.bracket
        hq1, hn1 = compatible_block_q1(rng)
        hq2, hn2 = compatible_block_q1(rng)
        step = act_gl(act_gl(mu, hq1, hn1), hq2, hn2)
        joint = act_gl(mu, hq2 @ hq1, hn2 @ hn1)
        assert np.abs(step.c - joint.c).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 3), (1, 3), (0, 4), (2, 3), (0, 6)]))
def test_gl_action_matches_one_shot_einsum(seed, qn):
    # gl_action spells out a pairwise contraction order; the unoptimized
    # one-shot einsum is an independent reference for the same sum.
    q, n = qn
    d = q + n
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(d, d, d))
    mu = BracketTensor(q, n, c - c.transpose(1, 0, 2))
    h = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    hinv = np.linalg.inv(h)
    ref = np.einsum("ai,bj,abl,ml->ijm", hinv, hinv, mu.c, h)
    assert np.abs(gl_action(mu, h).c - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 3), (1, 3), (0, 4), (2, 3)]),
       st.integers(1, 7))
def test_stacked_pushforward_matches_per_sample_gl_action(seed, qn, m):
    # One contraction over a stack of maps reproduces gl_action map by map,
    # and the packed difference norm sqrt(2 sum diff^2) is the full-tensor one.
    q, n = qn
    d = q + n
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(d, d, d))
    mu = BracketTensor(q, n, c - c.transpose(1, 0, 2))
    hs = np.eye(d) + 0.3 * rng.normal(size=(m, d, d))
    stacked = gl_action_packed(mu.c, hs)
    assert stacked.shape == (m, len(pack_state(mu)))
    for h, row in zip(hs, stacked):
        ref = pack_state(gl_action(mu, h))
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
        other = rng.normal(size=ref.shape)
        full = unpack_state(q, n, ref).c - unpack_state(q, n, other).c
        assert np.isclose(np.sqrt(2.0 * np.sum((ref - other) ** 2)), np.sqrt(np.sum(full**2)),
                          rtol=1e-14, atol=0.0)


def _integer_maps(rng, d, m):
    """m maps (m, d, d) whose inverses and products with integer brackets are
    exact: signed permutations times dyadic diagonals, and unit
    upper-triangular integer matrices, alternating."""
    maps = []
    for i in range(m):
        if i % 2:
            maps.append(np.eye(d) + np.triu(rng.integers(-2, 3, size=(d, d)), 1))
        else:
            signs = rng.choice([-1.0, 1.0], size=d) * 2.0 ** rng.integers(-2, 3, size=d)
            maps.append(np.eye(d)[rng.permutation(d)] * signs)
    return np.array(maps)


@pytest.mark.parametrize("qn", [(0, 3), (1, 3), (0, 4)])
def test_gl_action_packed_is_the_einsum_on_integer_brackets(qn):
    # Integer brackets and maps whose inverses are exact: every product and
    # sum of both sides is exact, so the packed action must equal the
    # one-shot einsum, antisymmetrized and packed, bitwise; a transposed
    # factor or a swapped h and h^-1 cannot hide below a tolerance.
    q, n = qn
    d = q + n
    rng = np.random.default_rng(0)
    iu, ju = _pairs(d)
    for _ in range(100):
        c = unpack_array(d, rng.integers(-3, 4, size=len(iu) * d).astype(float))
        hs = _integer_maps(rng, d, 4)
        refs = []
        for h in hs:
            hinv = np.linalg.inv(h)
            assert np.array_equal(h @ hinv, np.eye(d))  # the inverse is exact
            full = np.einsum("ai,bj,abl,ml->ijm", hinv, hinv, c, h)
            refs.append((0.5 * (full[iu, ju] - full[ju, iu])).ravel())
            assert np.array_equal(gl_action_packed(c, h), refs[-1])
        assert np.array_equal(gl_action_packed(c, hs), np.array(refs))


def test_gl_action_packed_rejects_an_overflowed_action():
    mu = unimodular3(1, 2, 3).point.bracket
    huge = np.diag([1e200, 1e-200, 1.0])
    with pytest.raises(ValueError, match="structure constants must be finite"):
        gl_action_packed(mu.c, np.stack([np.eye(3), huge]))
    with pytest.raises(ValueError, match="structure constants must be finite"):
        gl_action(mu, huge)


def test_act_gl_preserves_validity(rng):
    mu = berger3(0.8, -0.3, 0.5).point.bracket
    hq, hn = compatible_block_q1(rng)
    assert validate_point(act_gl(mu, hq, hn), tol=1e-8).valid


def test_act_gl_compatibility_error():
    mu = berger3(1, 1, 0).point.bracket
    bad = np.diag([1.0, 2.0, 0.5])  # h^t h does not commute with the rotation
    with pytest.raises(CompatibilityError):
        act_gl(mu, np.eye(1), bad)


def test_act_pi_identity_gives_minus_mu():
    mu = berger3(0.6, 1.1, -0.4).point.bracket
    out = act_pi(np.eye(4), mu)
    assert np.abs(out.c + mu.c).max() < 1e-15


def test_act_pi_vanishes_on_derivations():
    # diag(2,1,1) is a derivation of the nilpotent bracket mu(X2,X3)=X1.
    mu = unimodular3(1, 0, 0).point.bracket
    d = np.diag([2.0, 1.0, 1.0])
    assert np.abs(act_pi(d, mu).c).max() < 1e-15


def test_act_pi_matches_action_derivative(rng):
    worst = 0.0
    for _ in range(20):
        c = rng.normal(size=(3, 3, 3))
        mu = BracketTensor(0, 3, c - c.transpose(1, 0, 2))
        a = rng.normal(size=(3, 3))
        s = 1e-5
        fd = (gl_action(mu, expm(s * a)).c - gl_action(mu, expm(-s * a)).c) / (2 * s)
        an = act_pi(a, mu).c
        worst = max(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-12))
    assert worst < 1e-6


def test_rescale_identity_and_group_law():
    mu = berger3(0.9, -0.7, 0.3).point.bracket
    assert np.abs(rescale(1.0, mu).c - mu.c).max() == 0.0
    round_trip = rescale(1.7, rescale(1 / 1.7, mu))
    assert np.abs(round_trip.c - mu.c).max() < 1e-15


def test_rescale_family_parameters():
    # The (a, b, 0) family maps to (c a, c^2 b, 0).
    a, b, c = 0.8, -1.3, 2.1
    mu = berger3(a, b, 0).point.bracket
    expected = berger3(c * a, c**2 * b, 0).point.bracket
    assert np.abs(rescale(c, mu).c - expected.c).max() < 1e-14


def test_rescale_zero_rejected():
    with pytest.raises(ValueError):
        rescale(0.0, unimodular3(1, 1, 1).point.bracket)


def test_rescale_commutes_with_block_action(rng):
    for _ in range(10):
        point = random_valid_point(rng)
        mu = point.bracket
        q, n = mu.q, mu.n
        h_q = random_invertible(rng, q) if q else np.zeros((0, 0))
        if q:
            h_q, h_n = compatible_block_q1(rng)
        else:
            h_n = random_invertible(rng, n)
        c = rng.uniform(0.4, 2.5)
        left = rescale(c, act_gl(mu, h_q, h_n, require_compatible=False))
        right = act_gl(rescale(c, mu), h_q, h_n, require_compatible=False)
        assert np.abs(left.c - right.c).max() < 1e-12


def test_component_split_recombines(rng):
    point = random_valid_point(rng)
    split = component_split(point.bracket)
    total = split.mu_iso.copy()
    total += split.mu_k + split.mu_p
    assert np.abs(total - point.bracket.c).max() == 0.0


def test_component_norms_values():
    assert component_norms(unimodular3(1, 1, 1).point.bracket) == (6.0, 0.0, 6.0)
    assert component_norms(BracketTensor.zero(1, 3)) == (0.0, 0.0, 0.0)
    a, b = 0.9, -1.4
    _, mu_k2, aux2 = component_norms(berger3(a, b, 0).point.bracket)
    assert aux2 == pytest.approx(2 * (a**2 + b**2 + 2), abs=1e-14)
    assert mu_k2 == pytest.approx(2 * b**2, abs=1e-14)


def test_antisymmetry_is_structural(rng):
    point = random_valid_point(rng)
    c = point.bracket.c
    assert np.all(c == -c.swapaxes(0, 1))
    with pytest.raises(ValueError):
        t = np.zeros((3, 3, 3))
        t[1, 0, 2] = 1.0  # lower-triangular only: not antisymmetric
        BracketTensor(0, 3, t)


def test_constructor_rejects_canonicalization_overflow():
    # Finite entries above max/2 overflow (upper - lower) / 2.
    t = np.zeros((3, 3, 3))
    t[0, 1, 2], t[1, 0, 2] = 1e308, -1e308
    with pytest.raises(ValueError, match="structure constants must be finite"):
        BracketTensor(0, 3, t)
    t[0, 1, 2], t[1, 0, 2] = 8e307, -8e307
    assert BracketTensor(0, 3, t).c[0, 1, 2] == 8e307


def test_pack_unpack_roundtrip(rng):
    point = random_valid_point(rng)
    mu = point.bracket
    again = unpack_state(mu.q, mu.n, pack_state(mu))
    assert np.all(again.c == mu.c)


# Up to 1e300: above max/2 the validating constructor's (upper - lower)/2
# overflows to inf.
_PACKED = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.data())
def test_unpack_state_matches_validating_constructor(q, n, data):
    # tobytes() also tells +0.0 from -0.0.
    d = q + n
    y = data.draw(arrays(np.float64, d * d * (d - 1) // 2, elements=_PACKED))
    fast = unpack_state(q, n, y)
    assert fast.c.tobytes() == BracketTensor(q, n, unpack_array(d, y)).c.tobytes()
    assert (fast.q, fast.n, fast.c.flags.writeable) == (q, n, False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unpack_state_rejects_non_finite_states(bad):
    y = np.zeros(9)
    y[7] = bad
    with pytest.raises(ValueError) as fast:
        unpack_state(1, 2, y)
    with pytest.raises(ValueError) as slow:
        BracketTensor(1, 2, unpack_array(3, y))
    assert str(fast.value) == str(slow.value) == "structure constants must be finite"


def _outcome(build):
    """Bytes of the built tensor, or the error it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return build().c.tobytes()
    except (ValueError, OverflowError) as exc:  # OverflowError: a Python float c^2
        return f"{type(exc).__name__}: {exc}"


def _rescale_validating(c_scale, mu):
    """rescale through the validating constructor."""
    c = np.array(mu.c)
    q = mu.q
    c[q:, q:, :q] = c_scale**2 * mu.mu_k
    c[q:, q:, q:] = c_scale * mu.mu_p
    return BracketTensor(mu.q, mu.n, c)


# Ordinary, tiny (products underflow to subnormals or zero) and huge factors.
# With entries below 1e4 the products stay finite for |c| <= 1e150, and the
# Python float c^2 overflows for |c| >= 1e160, raising OverflowError in both
# constructions; in between, c^2 mu_k can land above max/2 (see _PACKED).
_FACTORS = st.one_of(
    st.floats(0.1, 10.0),
    st.floats(-10.0, -0.1),
    st.floats(1e-300, 1e-100),
    st.floats(-1e-100, -1e-300),
    st.floats(1e100, 1e150),
    st.floats(-1e300, -1e160),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2), st.integers(2, 3), _FACTORS, st.data())
def test_rescale_matches_validating_constructor(q, n, c_scale, data):
    d = q + n
    c = data.draw(arrays(np.float64, (d, d, d), elements=st.floats(-1e3, 1e3)))
    mu = BracketTensor(q, n, c - c.swapaxes(0, 1))
    assert _outcome(lambda: rescale(c_scale, mu)) == _outcome(
        lambda: _rescale_validating(c_scale, mu)
    )


_MAX = np.finfo(float).max


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(0, 3), (1, 3), (0, 4), (2, 3)]), st.data())
def test_canonical_matches_validating_constructor(qn, data):
    # A computed array: a - a^T plus noise below the antisymmetry tolerance,
    # with mirrored pairs set to +-0.0 so the sign of zero counts in tobytes().
    q, n = qn
    d = q + n
    a = data.draw(arrays(np.float64, (d, d, d), elements=st.floats(-1e3, 1e3)))
    noise = data.draw(arrays(np.float64, (d, d, d), elements=st.floats(-1e-10, 1e-10)))
    c = a - a.swapaxes(0, 1) + noise
    zero = data.draw(arrays(np.bool_, (d, d, d)))
    zero |= zero.swapaxes(0, 1)
    negative = data.draw(arrays(np.bool_, (d, d, d)))
    c[zero] = np.where(negative, -0.0, 0.0)[zero]
    assert _canonical(q, n, c).c.tobytes() == BracketTensor(q, n, c).c.tobytes()

    # An entry above max/2: (upper - lower)/2 overflows in both.
    i, j = data.draw(st.sampled_from(list(zip(*np.triu_indices(d, 1)))))
    k = data.draw(st.integers(0, d - 1))
    big = data.draw(st.floats(0.5000001 * _MAX, _MAX)) * data.draw(st.sampled_from([-1, 1]))
    c[i, j, k], c[j, i, k] = big, -big
    assert _outcome(lambda: _canonical(q, n, c)) == _outcome(lambda: BracketTensor(q, n, c))
    assert _outcome(lambda: _canonical(q, n, c)) == "ValueError: structure constants must be finite"


def test_json_roundtrip():
    mu = berger3(0.25, -1.5, 0.75).point.bracket
    doc = bracket_to_json(mu)
    again = bracket_from_json(json.dumps(doc))
    assert np.abs(again.c - mu.c).max() == 0.0


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 1, 2, 1.0], [0, 1, 2, 2.0]],  # duplicate
        [[1, 0, 2, 1.0]],  # i >= j
        [[0, 1, 5, 1.0]],  # out of range
        [[0, 1, 2]],  # wrong arity
    ],
)
def test_json_loader_rejects(entries):
    with pytest.raises(MalformedInputError):
        bracket_from_json({"q": 0, "n": 3, "entries": entries})


def test_json_loader_rejects_bad_document():
    with pytest.raises(MalformedInputError):
        bracket_from_json("{not json")
    with pytest.raises(MalformedInputError):
        bracket_from_json({"q": 0, "entries": []})
