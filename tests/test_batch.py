"""The batched DOP853 solve and the reduced-family flow built on it."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bracketflow._rk import solve_rk54, solve_rk54_batch
from bracketflow.families import Berger3
from bracketflow.flow import (
    SCALAR_CURVATURE,
    UNNORMALIZED,
    EventConfig,
    FlowTrajectory,
    NormalizationError,
    ReducedFlowSystem,
    custom_rate,
    integrate_reduced,
    integrate_reduced_batch,
)


def test_batch_rows_keep_the_accepted_derivative():
    # y' = 30 cos(30 t) y rejects steps often.  A retry starts from the
    # accepted derivative, copied out of the stage buffer; a retry from the
    # rejected trial's last stage gives 1.5e-2 on this grid, with 676
    # rejections.  The rows read 6.8e-6 (5.6e-5 without the predictive factor).
    y0 = np.array([[1.0], [2.0], [0.5]])
    res = solve_rk54_batch(lambda t, Y, rows: 30.0 * np.cos(30.0 * t)[:, None] * Y,
                           y0, np.linspace(0.0, 3.0, 31), rtol=1e-6, atol=1e-9)
    for r, (a,) in zip(res, y0):
        assert r.status == "reached-t-end" and r.n_rejected > 0
        exact = a * np.exp(np.sin(30.0 * r.sample_t))
        assert np.abs(r.sample_y[:, 0] / exact - 1.0).max() <= 1e-5
        assert r.nfev == 2 + 12 * (r.n_steps + r.n_rejected)


def _oscillating(t, y):
    # y' = 30 cos(30 t) y + sin y, for one t and y (D,) or for t (B,) and y (B, D).
    return 30.0 * np.cos(30.0 * np.asarray(t))[..., None] * y + np.sin(y)


def _sqrt_decay(t, y):
    # y' = -sqrt(y) reaches y = 0 at t = 2 sqrt(y0); a trial stage past it is NaN.
    return -np.sqrt(y)


def _square(t, y):
    # y' = y^2 blows up at t = 1 / y0.
    return y * y


_GRID = np.linspace(0.0, 3.0, 31)


@pytest.mark.parametrize("rhs, y0, tol, stop_above, grid", [
    # every row rejects steps
    pytest.param(_oscillating, [1.0, 2.0, 0.5], (1e-6, 1e-9), None, _GRID,
                 id="_oscillating-y00-tol0-None"),
    # row 0 meets NaN stages, then underflows
    pytest.param(_sqrt_decay, [1.0, 4.0], (1e-9, 1e-12), None, _GRID,
                 id="_sqrt_decay-y01-tol1-None"),
    # the callback stops rows 0 and 1
    pytest.param(_oscillating, [1.0, 2.0, 0.5], (1e-6, 1e-9), 8.0, _GRID,
                 id="_oscillating-y02-tol2-8.0"),
    # A backward grid and two grids off t = 0, with a time-dependent rhs: the
    # batch maps s to t, and negates derivatives on backward grids only, as
    # solve_rk54 does.
    pytest.param(_oscillating, [1.0, 2.0, 0.5], (1e-6, 1e-9), None, np.linspace(3.0, 0.0, 31),
                 id="backward"),
    pytest.param(_oscillating, [1.0, 2.0, 0.5], (1e-6, 1e-9), None, np.linspace(0.5, 3.5, 31),
                 id="offset-forward"),
    pytest.param(_oscillating, [1.0, 2.0, 0.5], (1e-6, 1e-9), None, np.linspace(1.0, -2.0, 31),
                 id="offset-backward"),
    # Steps that shrink toward a blowup at t = 2, 1, 0.5 and 0.4, and none for
    # y0 = 0.25, which reaches the end; the callback stops the rest at
    # |y| > 1e6, between samples.  The predictive factor reads each row's
    # last two steps, through the steps clamped onto samples and the rows
    # that leave the batch.
    pytest.param(_square, [0.5, 1.0, 2.0, 2.5, 0.25], (1e-9, 1e-12), 1e6, _GRID,
                 id="blowup"),
])
def test_each_row_is_bitwise_solve_rk54_alone(rhs, y0, tol, stop_above, grid):
    nan_rows = set()

    def batch_rhs(t, Y, rows):
        out = rhs(t, Y)
        nan_rows.update(rows[~np.isfinite(out).all(axis=1)].tolist())
        return out

    stop_batch = stop_alone = None
    if stop_above is not None:
        def stop_batch(t, Y, F, h, rows):
            return {j: "stopped" for j in np.flatnonzero(Y[:, 0] > stop_above).tolist()}

        def stop_alone(t, y, f, h):
            return "stopped" if y[0] > stop_above else None

    res = solve_rk54_batch(batch_rhs, np.array(y0)[:, None], grid, *tol, step_callback=stop_batch)
    for r, y in zip(res, y0):
        alone = solve_rk54(rhs, np.array([y]), grid, *tol, step_callback=stop_alone)
        assert r.status == alone.status
        for field in ("sample_t", "sample_y", "sample_f"):
            assert getattr(r, field).tobytes() == getattr(alone, field).tobytes()
        assert (r.n_steps, r.n_rejected, r.nfev) == (alone.n_steps, alone.n_rejected, alone.nfev)
    statuses = [r.status for r in res]
    if rhs is _sqrt_decay:
        assert nan_rows == {0} and statuses == ["step-underflow", "reached-t-end"]
    elif rhs is _square:
        assert statuses == ["stopped"] * 4 + ["reached-t-end"]
        assert all(r.sample_t[-1] == pytest.approx(1 / y, rel=1e-5) for r, y in zip(res, y0[:4]))
    elif stop_above is None:
        assert all(r.n_rejected >= 4 for r in res)
    else:
        assert statuses == ["stopped", "stopped", "reached-t-end"]


def test_batch_row_underflow_leaves_its_neighbours_alone():
    # Row 1 solves y' = y^2, which blows up at t = 1; rows 0 and 2 decay.
    grid = np.linspace(0.0, 2.0, 11)
    calls = []

    def rhs(t, Y, rows):
        calls.append(rows.copy())
        return np.where((rows == 1)[:, None], Y * Y, -Y)

    res = solve_rk54_batch(rhs, np.ones((3, 1)), grid)
    (alone,) = solve_rk54_batch(lambda t, Y, rows: -Y, np.ones((1, 1)), grid)
    assert res[1].status == "step-underflow" and res[1].sample_t[-1] == pytest.approx(1.0)
    for r in (res[0], res[2]):
        assert r.status == "reached-t-end"
        assert r.sample_y.tobytes() == alone.sample_y.tobytes()
        assert r.sample_f.tobytes() == alone.sample_f.tobytes()
        assert (r.n_steps, r.n_rejected, r.nfev) == (alone.n_steps, alone.n_rejected, alone.nfev)
    for g, r in enumerate(res):
        # rhs sees only the active rows, and each row counts its own calls.
        assert r.nfev == sum(g in rows for rows in calls) == 2 + 12 * (r.n_steps + r.n_rejected)


def test_a_reduced_blowup_takes_few_steps():
    # The longest row of the bench sweep: 2 or 3 samples, the rest of its
    # steps shrink toward the blowup near t = 17.93.  Without the predictive
    # factor DOP853 rejects about every other step there (96 rejections), and
    # DP5 at the same tolerances takes 591 steps.
    traj = integrate_reduced(Berger3(), (2, 0.2, 0), UNNORMALIZED, (0, 600), samples=60)
    assert traj.termination == "blowup-detected"
    assert traj.stats.n_steps + traj.stats.n_rejected < 200


def test_reduced_batch_agrees_with_scipy():
    # Each cell of a berger3 grid that collapses (b < 0), grows or blows up,
    # against scipy's DOP853 at rtol 1e-13 on the same reduced field.
    family, events, rtol, atol = Berger3(), EventConfig(), 1e-9, 1e-12
    system = ReducedFlowSystem(family, UNNORMALIZED)

    def field(t, y):
        dcore, r, _ = system.tangent(y[:-2, None])
        return np.concatenate([dcore[:, 0], r * y[-2:-1], y[-2:-1] ** 2])

    def crossing(t, y):
        return math.sqrt(family.aux_norm2(y[:-2, None])[0]) - events.blowup_norm

    crossing.terminal = True
    cells = [(a, b, 0.0) for a in (0.5, 1.0, 2.0) for b in (-1.0, -0.3, 0.4, 1.5)]
    ends = set()
    for cell, traj in zip(cells, integrate_reduced_batch(family, cells, UNNORMALIZED, (0.0, 3.0),
                                                         samples=13, events=events)):
        ref = solve_ivp(field, (0.0, 3.0), np.array([*cell, 1.0, 0.0]), method="DOP853",
                        rtol=1e-13, atol=1e-16, dense_output=True, events=crossing)
        ends.add(traj.termination)
        if traj.termination == "reached-t-end":
            y, want = np.column_stack([traj.states, traj.c, traj.tau]), ref.sol(traj.times).T
            assert np.all(np.abs(y - want) <= atol + rtol * np.abs(want))
        else:
            # The row stops on the first accepted step past the blowup norm.
            assert traj.termination == "blowup-detected"
            assert traj.times[-1] >= ref.t_events[0][0]
    assert ends == {"reached-t-end", "blowup-detected"}


# Cells of berger3 that blow up, collapse, or sit at a fixed point (a = b = 0,
# where R = 0, so scalar-curvature is undefined from the start), forward and
# backward in time; the last also rejects steps.
_CELLS = ((1.0, 2.0, 0.0), (1.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.5, -0.3, 0.1), (0.0, -0.5, 0.0),
          (1.8, 1.4, 1.0))
_STRATEGIES = (UNNORMALIZED, SCALAR_CURVATURE)
_SPANS = ((0.0, 5.0), (0.0, -1.0))
_EVENTS = EventConfig(blowup_norm=1e3)


def _batch(cells, strategy, span):
    params = [_CELLS[i] for i in cells]
    return integrate_reduced_batch(Berger3(), params, _STRATEGIES[strategy], _SPANS[span],
                                   samples=21, events=_EVENTS)


@lru_cache(maxsize=None)
def _alone(cell, strategy, span):
    return _batch([cell], strategy, span)[0]


def _same(a, b) -> bool:
    arrays = ("times", "states", "derivs", "c", "tau")
    return (all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in arrays)
            and (a.termination, a.stats, a.notes) == (b.termination, b.stats, b.notes))


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1, max_size=6),
       st.integers(0, len(_STRATEGIES) - 1), st.integers(0, len(_SPANS) - 1))
def test_every_row_is_bitwise_the_cell_solved_alone(cells, strategy, span):
    for cell, result in zip(cells, _batch(cells, strategy, span)):
        assert _same(result, _alone(cell, strategy, span))


def test_batch_mixes_every_ending():
    ends = {(i, s, d): _alone(i, s, d) for i in range(len(_CELLS)) for s in (0, 1) for d in (0, 1)}
    assert all(isinstance(r, FlowTrajectory) for r in ends.values())
    assert {r.termination for r in ends.values()} == {
        "blowup-detected", "reached-t-end", "converged-to-fixed-point", "normalization-undefined"}
    assert any(r.stats.n_rejected for (i, _, _), r in ends.items() if i == len(_CELLS) - 1)
    # A cell whose rate is undefined at its start keeps that one sample.
    traj = integrate_reduced(Berger3(), _CELLS[2], SCALAR_CURVATURE, _SPANS[0])
    assert (traj.termination, traj.notes) == (
        "normalization-undefined", ("scalar-curvature normalization needs R != 0",))
    assert traj.n_samples == 1 and traj.states[0].tolist() == list(_CELLS[2])


def test_custom_rate_runs_once_per_row_and_fails_per_row():
    calls = []

    def rate(mu):
        calls.append(1)
        if mu.c[2, 3, 0] < 0:  # the b < 0 cell
            raise NormalizationError("no rate for b < 0")
        return 0.1

    strategy = custom_rate(rate)
    cells = [(1.0, 0.5, 0.2), (1.0, -1.0, 0.0), (0.5, 0.3, 0.1)]
    results = integrate_reduced_batch(Berger3(), cells, strategy, (0.0, 0.2), samples=11)
    assert (results[1].termination, results[1].notes) == ("normalization-undefined",
                                                          ("no rate for b < 0",))
    assert results[1].n_samples == 1
    # The failing cell ends at its first evaluation; the others rate each stage.
    assert len(calls) == 1 + sum(r.stats.nfev for r in (results[0], results[2]))
    for cell in (0, 2):
        alone = integrate_reduced(Berger3(), cells[cell], strategy, (0.0, 0.2), samples=11)
        assert _same(results[cell], alone)
