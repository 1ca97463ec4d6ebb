"""solve_rk54's DOP853 pair and its dense sampling: free steps, samples from
the 7th-degree continuous extension, checked against scipy's dense output and
a closed form."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853

from bracketflow._rk import DOP853, TERM_REACHED_END, TERM_UNDERFLOW, _dense_samples, solve_rk54

RTOL, ATOL = 1e-6, 1e-9
GRID = np.linspace(0.0, 3.0, 301)


def oscillating(t, y):
    # y' = 30 cos(30 t) y, so y = exp(sin(30 t)); steep enough to reject steps.
    return 30.0 * np.cos(30.0 * t) * y


def exact(t):
    return np.exp(np.sin(30.0 * t))


def test_dense_steps_are_not_sample_bound():
    clamped = solve_rk54(oscillating, np.array([1.0]), GRID, RTOL, ATOL)
    dense = solve_rk54(oscillating, np.array([1.0]), GRID, RTOL, ATOL, sampling="dense")
    assert clamped.n_steps >= len(GRID) - 1
    assert dense.n_steps < clamped.n_steps / 2


# (rhs, y0, grid, step_callback, status) of runs that end in each way; on
# these coarse grids both sampling modes reject steps.
COARSE = np.linspace(0.0, 3.0, 7)
ENDINGS = {
    "forward": (oscillating, 1.0, COARSE, None, TERM_REACHED_END),
    "backward": (oscillating, 1.0, -COARSE, None, TERM_REACHED_END),
    "stopped": (oscillating, 1.0, COARSE, lambda t, y, f, h: "stopped" if t > 1.0 else None,
                "stopped"),
    "underflow": (lambda t, y: y**3, 0.75, np.linspace(0.0, 1.0, 11), None, TERM_UNDERFLOW),
}


def test_dense_reruns_are_byte_identical():
    runs = [solve_rk54(oscillating, np.array([1.0, 2.0]), GRID, RTOL, ATOL, sampling="dense")
            for _ in range(2)]
    for field in ("sample_t", "sample_y", "sample_f"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
    assert runs[0].n_steps == runs[1].n_steps and runs[0].nfev == runs[1].nfev


def test_two_sample_grid_steps_as_clamped():
    # With only the end sample both modes clamp the same steps; without a
    # rejection the FSAL copy changes nothing, so the runs agree bitwise.
    grid = np.array([0.0, 1.0])
    clamped = solve_rk54(lambda t, y: -y, np.array([1.0, 0.5]), grid)
    dense = solve_rk54(lambda t, y: -y, np.array([1.0, 0.5]), grid, sampling="dense")
    assert clamped.n_rejected == 0
    assert dense.sample_y.tobytes() == clamped.sample_y.tobytes()
    assert dense.sample_f.tobytes() == clamped.sample_f.tobytes()


def test_dense_early_stop_keeps_its_closing_sample():
    # Events see accepted steps only; the samples before the stop come from
    # the extension, and the stop adds one sample at the stopping time.
    seen = []

    def stop(t, y, f, h):
        seen.append(t)
        return "stopped" if t > 1.0 else None

    res = solve_rk54(oscillating, np.array([1.0]), GRID, RTOL, ATOL, step_callback=stop,
                     sampling="dense")
    assert res.status == "stopped"
    assert len(seen) == res.n_steps and res.sample_t[-1] == seen[-1]
    inner = res.sample_t[:-1]
    assert inner.tobytes() == GRID[: len(inner)].tobytes() and inner[-1] < seen[-1]
    assert np.max(np.abs(res.sample_y[:, 0] - exact(res.sample_t)) / exact(res.sample_t)) <= 10 * RTOL


def _kept_steps(grid, stop_after=None):
    """A dense run on grid (forward from 0, so s = t) and every step its callback
    kept: (t, y, dy/dt, k, s, h, y at s), the stages k copied."""
    steps = []

    def keep(t, y, f, step):
        _, k, s, h, y_start = step
        steps.append((t, y.copy(), f.copy(), k.copy(), s, h, y_start))
        return "stopped" if stop_after is not None and t > stop_after else None

    res = solve_rk54(oscillating, np.array([1.0, 2.0]), grid, RTOL, ATOL, step_callback=keep,
                     sampling="dense")
    return res, steps


def _grid_with_a_step_end():
    # Dense steps do not depend on the samples before the last one, so a grid
    # that adds a step end of the run on GRID takes the same steps.
    _, steps = _kept_steps(GRID)
    t_end = next(st[0] for st in steps[len(steps) // 2:] if st[0] not in GRID)
    return np.sort(np.append(GRID, t_end)), t_end


@pytest.mark.parametrize("case", ["inside", "on-step-end", "stopped-between",
                                  "stopped-on-sample"])
def test_dense_sample_blocks_are_the_kept_steps(case):
    # Samples inside a step are one block from its extension, a sample on a step
    # end is that step's state, and an early stop between samples closes with
    # one sample at its stopping time (none when the stop lands on a sample).
    grid, stop_after, on_end = GRID, None, None
    if case != "inside":
        grid, on_end = _grid_with_a_step_end()
    if case == "stopped-between":
        stop_after = 1.0
    if case == "stopped-on-sample":
        stop_after = np.nextafter(on_end, -np.inf)
    res, steps = _kept_steps(grid, stop_after)
    m = len(res.sample_t)
    assert len(res.sample_y) == len(res.sample_f) == m
    assert all(a.flags.c_contiguous for a in (res.sample_t, res.sample_y, res.sample_f))
    assert res.sample_y[0].tobytes() == np.array([1.0, 2.0]).tobytes()
    covered = [0]
    for t, y, f, k, s, h, y_start in steps:
        inside = np.flatnonzero((grid > s) & (grid < t))
        inside = inside[inside < m]
        if inside.size:
            y_in, f_in = _dense_samples(k, s, h, y_start, grid[inside])
            assert res.sample_y[inside].tobytes() == y_in.tobytes()
            assert res.sample_f[inside].tobytes() == f_in.tobytes()
        end = np.flatnonzero(res.sample_t == t)
        if end.size:
            assert end.size == 1
            assert res.sample_y[end[0]].tobytes() == y.tobytes()
            assert res.sample_f[end[0]].tobytes() == f.tobytes()
        covered += [*inside, *end]
    assert sorted(covered) == list(range(m))
    n_inside = max(np.sum((grid > st[4]) & (grid < st[0])) for st in steps)
    assert n_inside >= 3  # several samples inside one step
    if case == "on-step-end":
        assert res.status == TERM_REACHED_END and on_end in res.sample_t
    if case == "stopped-between":
        assert res.status == "stopped" and res.sample_t[-1] == steps[-1][0]
        assert res.sample_t[-1] not in grid and res.sample_t[-2] < res.sample_t[-1]
        assert res.sample_t[:-1].tobytes() == grid[: m - 1].tobytes()
    if case == "stopped-on-sample":
        assert res.status == "stopped" and res.sample_t[-1] == on_end == steps[-1][0]
        assert res.sample_t.tobytes() == grid[:m].tobytes()


def test_unknown_sampling_is_rejected():
    with pytest.raises(ValueError, match="sampling"):
        solve_rk54(lambda t, y: -y, np.array([1.0]), GRID, sampling="uniform")


def test_dop853_coefficients_are_scipys():
    # The literals are scipy's dop853_coefficients by repr, bitwise; the
    # weights B are row 12 of A, and the FSAL stage has weight 0.
    assert np.array(DOP853.c).tobytes() == dop853.C.tobytes()
    for i in range(1, dop853.N_STAGES_EXTENDED):
        assert DOP853.a[i].tobytes() == dop853.A[i, :i].tobytes()
        assert not dop853.A[i, i:].any()
    assert DOP853.b.tobytes() == np.append(dop853.B, 0.0).tobytes()
    from bracketflow._rk import _D8, _E53

    assert _E53.tobytes() == np.array([dop853.E5, dop853.E3]).tobytes()
    assert _D8.tobytes() == dop853.D.tobytes()


# DOP853 runs at the package's default tolerances, where the bracket and
# metric flows run.  Its E5/E3 error rule (scipy's too) weighs the 3rd-order estimate in:
# on this oscillator at rtol 1e-6 it accepts one backward step 400 times
# its tolerance off, so a looser tolerance would bound nothing useful here.
RTOL8, ATOL8 = 1e-9, 1e-12


@pytest.mark.parametrize("grid", [GRID, -GRID])
def test_dop853_dense_samples_match_the_closed_form_and_scipy(grid):
    res = solve_rk54(oscillating, np.array([1.0]), grid, RTOL8, ATOL8, sampling="dense")
    assert res.status == TERM_REACHED_END
    assert res.n_rejected > 0
    assert res.sample_t.tobytes() == grid.tobytes()
    y, f = res.sample_y[:, 0], res.sample_f[:, 0]
    want = exact(grid)
    assert np.max(np.abs(y - want) / want) <= 20 * RTOL8
    # The extension's derivative is one order below its state, over steps
    # of about 0.01.
    assert np.max(np.abs(f - oscillating(grid, want)) / (30.0 * want)) <= 1000 * RTOL8

    ref = solve_ivp(oscillating, (grid[0], grid[-1]), [1.0], method="DOP853",
                    dense_output=True, rtol=RTOL8, atol=ATOL8)
    assert ref.success
    ref_y = ref.sol(grid)[0]
    assert np.max(np.abs(y - ref_y) / ref_y) <= 200 * RTOL8  # scipy's own error is 110 rtol


def _assert_mirrored(y0, sampling, rtol, atol):
    """Solve y' = y^3 forward and y' = -y^3 backward from y0 and compare."""
    back = solve_rk54(lambda t, y: -y**3, np.array([y0]), np.linspace(0.0, -1.0, 11),
                      rtol, atol, sampling=sampling)
    fwd = solve_rk54(lambda t, y: y**3, np.array([y0]), np.linspace(0.0, 1.0, 11),
                     rtol, atol, sampling=sampling)
    assert fwd.n_rejected > 0
    assert (back.status, back.n_steps, back.n_rejected, back.nfev) == (
        fwd.status, fwd.n_steps, fwd.n_rejected, fwd.nfev)
    assert np.array_equal(back.sample_t, -fwd.sample_t)  # t = 0.0 against -0.0
    assert back.sample_y.tobytes() == fwd.sample_y.tobytes()
    assert back.sample_f.tobytes() == (-fwd.sample_f).tobytes()


@pytest.mark.parametrize("sampling", ["clamped", "dense"])
@pytest.mark.parametrize("y0", [0.7, 0.75])
def test_dop853_backward_solve_is_the_mirrored_forward_solve(y0, sampling):
    # y' = -y^3 backward in t is y' = y^3 forward in s = -t.  The signed
    # step enters the stage sums, the extension and the initial step, and
    # negation is exact, so the runs agree bitwise and their derivatives
    # differ by sign.  y0 = 0.75 blows up before t = 1 and ends on underflow.
    _assert_mirrored(y0, sampling, RTOL, ATOL)


@pytest.mark.parametrize("sampling", ["clamped", "dense"])
@pytest.mark.parametrize("y0", [0.7, 0.75])
def test_backward_solve_is_the_mirrored_forward_solve(y0, sampling):
    # As above at the flows' tolerances, where the runs take 23 to 176 steps.
    _assert_mirrored(y0, sampling, RTOL8, ATOL8)


@pytest.mark.parametrize("sampling", ["clamped", "dense"])
@pytest.mark.parametrize("ending", ENDINGS)
def test_dop853_nfev_is_the_count_of_rhs_calls(ending, sampling):
    # Two calls start the run, twelve stages make each trial step, and a
    # dense run adds three extension stages on each step that holds a sample.
    rhs, y0, grid, stop, status = ENDINGS[ending]
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    res = solve_rk54(counted, np.array([y0]), grid, RTOL, ATOL, step_callback=stop,
                     sampling=sampling)
    assert res.status == status and res.n_rejected > 0
    assert res.nfev == len(calls)
    extended = (res.nfev - 2 - 12 * (res.n_steps + res.n_rejected)) / 3
    assert extended == 0 if sampling == "clamped" else 0 < extended < res.n_steps
