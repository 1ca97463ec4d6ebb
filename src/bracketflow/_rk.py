"""Adaptive embedded Runge-Kutta 5(4) core (Dormand-Prince pair).

solve_rk54 is the sampled solve of every single ODE of the package.  It maps
a forward or backward time grid onto one forward loop in s = |t - t_grid[0]|
and closes an early stop with a sample at the stopping time.  Under
sampling="dense", the mode of every tensor and metric solve, it steps freely,
lands only on the last sample, and fills the samples inside each accepted
step from the quartic continuous extension of the pair (Dormand & Prince
1980; Shampine 1986), which the step callback also receives, so a caller may
keep the steps to sample them later.  Under sampling="clamped" it lands on
every sample; that stays the default only as the one-row twin of
solve_rk54_batch, which always clamps.  Step-size selection uses a PI
controller on the embedded error estimate.  No stage is tested for finiteness:
the rhs may return NaN or inf at a non-finite stage, which reaches the step's
new state, and a new state that is not finite is rejected; the retry starts
from the accepted (FSAL) derivative.  Clamped samples carry the full order of
the method, dense ones the order of the extension; reruns are bit-reproducible
either way.  A forward grid calls rhs itself: the product with direction = 1.0
of a backward grid would be an exact copy.  Neither loop counts its rhs calls;
nfev is 2 + 6 (n_steps + n_rejected).

solve_rk54_batch steps many independent rows (the cells of a reduced-family
sweep) in one vectorized loop, each row bitwise as if solved alone; only the
controller's powers and the end of a row run per row in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["RKResult", "solve_rk54", "solve_rk54_batch"]

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between 5th and embedded 4th order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

# Quartic continuous extension: over an accepted step of size h from (s, y)
# with stages k, the state at s + x h is y + ((h k).T @ _P) @ (x, x^2, x^3, x^4)
# (the coefficients of scipy's RK45.P).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order propagating solution.
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0

TERM_REACHED_END = "reached-t-end"
TERM_UNDERFLOW = "step-underflow"


@dataclass
class RKResult:
    """Outcome of one sampled solve, in t.

    sample_t, sample_y and sample_f stack the sample times, states and
    derivatives by row; a run that stopped early ends with one more sample at
    its stopping time.  nfev counts the rhs calls, 2 + 6 (n_steps + n_rejected).
    """

    status: str
    sample_t: np.ndarray
    sample_y: np.ndarray
    sample_f: np.ndarray
    n_steps: int
    n_rejected: int
    nfev: int


def _initial_step(f, Y0, F0, t_end, rtol, atol):
    """Initial step of each row of Y0 (B, D), one call f(h0, Y1) for all rows.
    Python's min(a, b) and max(a, b) become where(b < a, b, a) and where(b > a,
    b, a), which keep NaNs as they do; a denominator is raised only where its
    quotient is unused, and the power runs on Python floats."""
    scale = atol + rtol * np.abs(Y0)
    d0 = np.sqrt(np.mean((Y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((F0 / scale) ** 2, axis=1))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = np.where(t_end < h0, t_end, h0)
    F1 = f(h0, Y0 + h0[:, None] * F0)
    d2 = np.sqrt(np.mean(((F1 - F0) / scale) ** 2, axis=1)) / h0
    d12 = np.where(d2 > d1, d2, d1)
    h1 = np.where(d12 <= 1e-15, np.fmax(1e-6, h0 * 1e-3),
                  [x ** (1 / 5) for x in (0.01 / np.maximum(d12, 1e-15)).tolist()])
    h = np.where(h1 < 100 * h0, h1, 100 * h0)
    return np.where(t_end < h, t_end, h)


def _grid(t_grid, rtol: float, atol: float) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(t_grid, t0, direction, samples in s = |t - t0|), the arguments checked."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ValueError("need at least two samples")
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    if t1 == t0:
        raise ValueError("t_span must be nondegenerate")
    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError("tolerances must be positive and finite")
    return t_grid, t0, 1.0 if t1 > t0 else -1.0, np.abs(t_grid - t0)


def _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected) -> RKResult:
    """RKResult of a run stopped at s in (y, f_cur) with samples ys, fs; an
    early stop adds a closing sample."""
    t_grid, t0, direction, samples = grid
    ts, ys, fs = t_grid[: len(ys)].copy(), np.asarray(ys), np.asarray(fs)
    if status != TERM_REACHED_END and s > samples[len(ys) - 1]:
        ts = np.append(ts, t0 + direction * s)
        ys, fs = np.vstack([ys, y]), np.vstack([fs, direction * f_cur])
    return RKResult(status, ts, ys, fs, n_steps, n_rejected, 2 + 6 * (n_steps + n_rejected))


def _dense_samples(k, s, h, y, sample_s):
    """States and derivatives (in s) at sample_s inside the accepted step of
    size h from (s, y) with stages k, from the quartic continuous extension.
    h is folded into the stages first: the products of k alone may overflow
    where the increments of a finite step do not."""
    q = (h * k).T @ _P
    x = (sample_s - s) / h
    powers = np.cumprod(np.tile(x, (4, 1)), axis=0)  # x, x^2, x^3, x^4
    slopes = np.vstack([np.ones_like(x), 2.0 * powers[0], 3.0 * powers[1], 4.0 * powers[2]])
    return y + (q @ powers).T, (q @ slopes).T / h


def solve_rk54(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[[float, np.ndarray, np.ndarray, tuple], str | None] | None = None,
    sampling: str = "clamped",
) -> RKResult:
    """Solve y' = rhs(t, y) from t_grid[0], sampled on t_grid.

    The grid may run forward or backward: the stepper runs forward in
    s = |t - t_grid[0]| and maps the samples and their derivatives back to t.
    sampling="clamped" clamps each step to land on the next sample.
    sampling="dense" clamps only at the last sample; a sample strictly inside
    an accepted step takes the state and derivative of the step's quartic
    continuous extension (no extra rhs calls), and one on a step end that
    step's state and derivative.  In either mode the FSAL stage is copied out
    of the stage buffer, so a retry after a rejected step starts from the
    accepted derivative.  ``step_callback(t, y, dy/dt, step)`` runs after each
    accepted step and may return a status string to stop the run; step is
    the step's extension (k, s, h, y) in s, the leading arguments of
    _dense_samples, with k the live stage buffer (copy it to keep it).  A
    run the callback or a step underflow stops early ends with one more
    sample at its stopping time.  Trial stages run with NumPy's overflow and
    invalid-value warnings off: a step whose new state is not finite is
    rejected, never accepted.  nfev, the number of rhs calls, is
    2 + 6 (n_steps + n_rejected).
    """
    if sampling not in ("clamped", "dense"):
        raise ValueError(f"sampling must be 'clamped' or 'dense', got {sampling!r}")
    dense = sampling == "dense"
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    f = rhs if direction == 1.0 else (lambda t, y: direction * rhs(t, y))  # dy/ds at t
    stage_c = _C.tolist()

    with np.errstate(over="ignore", invalid="ignore"):
        status = TERM_REACHED_END
        n_steps = n_rejected = 0
        s = 0.0
        y = np.asarray(y0, dtype=float).copy()
        f_cur = f(t0 + direction * s, y)
        ys = [y.copy()]
        fs = [direction * f_cur]
        si = 1

        h = float(_initial_step(lambda h, Y: f(t0 + direction * float(h[0]), Y[0])[None],
                                y[None], f_cur[None], s_end, rtol, atol)[0])
        err_prev = 1.0
        k = np.empty((7, y.size))
        abs_y = np.abs(y)  # of the accepted state, shared by its trial steps' error scales
        min_step = 16 * np.finfo(float).eps

        while s < s_end:
            # The last sample is s_end, so this clamp also stops the run there.
            target = s_end if dense else samples[si]
            if s + h >= target:
                h = target - s
            else:
                target = None
            # Written so that a NaN step size (from a NaN derivative) ends the run.
            if not h >= min_step * max(abs(s), 1.0):
                status = TERM_UNDERFLOW
                break

            k[0] = f_cur
            for i in range(1, 7):
                k[i] = f(t0 + direction * (s + stage_c[i] * h), y + h * _A[i].dot(k[:i]))
            y_new = y + h * _B5.dot(k)
            abs_new = np.abs(y_new)
            # An overflowed y_new would enlarge its own scale and read as error 0.
            if np.isfinite(y_new).all():
                z = h * _E.dot(k) / (atol + rtol * np.maximum(abs_y, abs_new))
                err_norm = math.sqrt(float(np.add.reduce(z * z)) / z.size)  # np.mean's reduction
            else:
                err_norm = math.inf

            # Written so that a NaN error norm rejects the step.
            if not err_norm <= 1.0:
                n_rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1 / 5))
                continue

            # Land exactly on the clamp target so sample bookkeeping stays exact.
            s_new = target if target is not None else s + h
            n_steps += 1
            # FSAL: the last stage is f(s_new, y_new), copied out of the stage
            # buffer so a retry after a rejected step starts from it.
            f_new = k[6].copy()
            if dense and samples[si] < s_new:
                sj = int(np.searchsorted(samples, s_new))  # the first sample >= s_new
                y_in, f_in = _dense_samples(k, s, h, y, samples[si:sj])
                ys.extend(y_in)
                fs.extend(direction * f_in)
                si = sj

            step = (k, s, h, y)
            s, y, f_cur, abs_y = s_new, y_new, f_new, abs_new
            if s == samples[si]:
                ys.append(y.copy())
                fs.append(direction * f_cur)
                si += 1

            if step_callback is not None:
                verdict = step_callback(t0 + direction * s, y, direction * f_cur, step)
                if verdict is not None:
                    status = verdict
                    break

            # PI step-size update.
            e = max(err_norm, 1e-10)
            factor = _SAFETY * e ** (-_ALPHA) * err_prev**_BETA
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = e

    return _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected)


def solve_rk54_batch(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    Y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[..., dict] | None = None,
) -> list[RKResult]:
    """solve_rk54 on every row of Y0 (B, D) at once; one RKResult per row.

    ``rhs(t, Y, rows)`` and ``step_callback(t, Y, dY/dt, h, rows)`` see only
    the active rows (rows: their indices in Y0; t, h: one value per row).  The
    callback runs on the rows that just accepted a step and returns
    {index into rows: status} for the rows it stops.  Every row keeps its own
    step size, controller state, samples, status and counters, and leaves the
    batch when it ends.  No arithmetic mixes rows and the stage sums are
    per-row matmuls, so each row is bitwise the row solved alone.  Only the
    controller's powers (on Python floats: NumPy's array powers round
    differently in the last bit) and the recording of an ending row run per row.
    A forward grid takes the rhs result as it is, as solve_rk54 does.
    """
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    Y = np.array(Y0, dtype=float)
    B, D = Y.shape
    status, ends = [TERM_REACHED_END] * B, [None] * B
    sample_y, sample_f = np.empty((2, B, len(samples), D))
    rows = np.arange(B)  # the active rows; the state arrays below hold only them

    def f(t, Y):  # dY/ds at t = t0 + direction * s
        return rhs(t, Y, rows) if direction == 1.0 else direction * rhs(t, Y, rows)

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.zeros(B)
        F = f(t0 + direction * s, Y)
        sample_y[:, 0], sample_f[:, 0] = Y, direction * F
        H = _initial_step(lambda h, Y: f(t0 + direction * h, Y), Y, F, s_end, rtol, atol)
        n_steps, n_rejected = np.zeros((2, B), dtype=int)
        si = np.ones(B, dtype=int)
        beta = np.ones(B)  # the PI controller's err_prev ** _BETA, err_prev = 1 at first
        done = np.zeros(B, dtype=bool)  # rows ended by their last step
        min_step, last = 16 * np.finfo(float).eps, len(samples) - 1

        while True:
            # The last sample is s_end, so this clamp also stops a row there.
            target = samples[np.minimum(si, last)]
            clamp = s + H >= target
            H = np.where(clamp, target - s, H)
            # Written so that a NaN step size (from a NaN derivative) ends the row; s >= 0.
            underflow = ~done & ~(H >= min_step * np.maximum(s, 1.0))
            done |= underflow
            if done.any():
                for j in done.nonzero()[0]:
                    if underflow[j]:
                        status[rows[j]] = TERM_UNDERFLOW
                    ends[rows[j]] = (s[j], Y[j], F[j], si[j], n_steps[j], n_rejected[j])
                keep = ~done
                rows, s, H, si, beta, Y, F, target, clamp, n_steps, n_rejected = (
                    x[keep] for x in (rows, s, H, si, beta, Y, F, target, clamp, n_steps,
                                      n_rejected))
            if not rows.size:
                break

            K = np.empty((rows.size, 7, D))
            K[:, 0] = F
            Hc, stage_t = H[:, None], t0 + direction * (s + _C[:, None] * H)
            for i in range(1, 7):
                K[:, i] = f(stage_t[i], Y + Hc * np.matmul(_A[i], K[:, :i]))
            Y_new = Y + Hc * np.matmul(_B5, K)
            z = Hc * np.matmul(_E, K) / (atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new)))
            err_norm = np.sqrt(np.add.reduce(z * z, axis=1) / D)  # np.mean's reduction, unwrapped
            # An overflowed row would enlarge its own scale and read as error 0.
            err_norm[~np.isfinite(Y_new).all(axis=1)] = np.inf

            # Written so that a NaN error norm rejects the step.
            accepted = err_norm <= 1.0
            n_steps += accepted
            n_rejected += ~accepted
            # Land exactly on the clamp target so sample bookkeeping stays exact.
            s = np.where(accepted, np.where(clamp, target, s + H), s)
            acc = accepted[:, None]
            Y, F = np.where(acc, Y_new, Y), np.where(acc, K[:, 6], F)  # FSAL, copied out of K
            hit = accepted & (s == samples[si])
            at = rows[hit], si[hit]
            sample_y[at], sample_f[at] = Y[hit], direction * F[hit]
            si += hit

            done = s >= s_end
            acc = accepted.nonzero()[0]
            if step_callback is not None and acc.size:
                stops = step_callback(t0 + direction * s[acc], Y[acc], direction * F[acc],
                                      H[acc], rows[acc])
                for j, verdict in stops.items():
                    status[rows[acc[j]]], done[acc[j]] = verdict, True

            # PI update on the accepted rows, shrink on the rejected ones.  fmax,
            # like Python's max(_MIN_FACTOR, x), turns a NaN factor into _MIN_FACTOR.
            e = np.maximum(err_norm, 1e-10).tolist()  # a rejected row's norm is > 1 or NaN
            power = map(pow, e, np.where(accepted, -_ALPHA, -1 / 5).tolist())
            factor = _SAFETY * np.array(list(power))
            factor = np.where(accepted, np.fmin(_MAX_FACTOR, factor * beta), factor)
            H *= np.fmax(_MIN_FACTOR, factor)
            beta = np.where(accepted, [x**_BETA for x in e], beta)

    return [_result(grid, status[g], s, y, f_end, sample_y[g, :n], sample_f[g, :n],
                    int(steps), int(rejected))
            for g, (s, y, f_end, n, steps, rejected) in enumerate(ends)]
