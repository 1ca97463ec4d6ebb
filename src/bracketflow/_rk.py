"""Adaptive embedded Runge-Kutta 5(4) core (Dormand-Prince pair).

solve_rk54 is the sampled solve of every single ODE of the package.  It maps
a forward or backward time grid onto one forward loop in s = |t - t_grid[0]|
and closes an early stop with a sample at the stopping time.  Under
sampling="clamped" (the default) it lands exactly on every sample; under
sampling="dense" it steps freely, lands only on the last sample, and fills
the samples inside each accepted step from the quartic continuous extension
of the pair (Dormand & Prince 1980; Shampine 1986).  Step-size selection
uses a PI controller on the embedded error estimate; a trial step whose
state is not finite is rejected, and the retry starts from the accepted
(FSAL) derivative.  Clamped samples carry the full order of the method,
dense ones the order of the extension; reruns are bit-reproducible either
way.

solve_rk54_batch steps many independent rows (the cells of a reduced-family
sweep) in one vectorized loop, each row bitwise as if solved alone.
"""

from __future__ import annotations

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


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    # An overflowed y1 would enlarge its own scale and read as error 0.
    if not np.isfinite(y1).all():
        return np.inf
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    y1 = y0 + h0 * f0
    f1 = f(h0, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


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


def _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected, nfev) -> RKResult:
    """RKResult of a run stopped at s in (y, f_cur); an early stop adds a closing sample."""
    t_grid, t0, direction, samples = grid
    ts = list(t_grid[: len(ys)])
    if status != TERM_REACHED_END and s > samples[len(ys) - 1]:
        ts.append(t0 + direction * s)
        ys.append(y)
        fs.append(direction * f_cur)
    return RKResult(status, np.array(ts), np.array(ys), np.array(fs), n_steps, n_rejected, nfev)


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
    step_callback: Callable[[float, np.ndarray, np.ndarray, float], str | None] | None = None,
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
    accepted derivative.  ``step_callback(t, y, dy/dt, h)`` runs after each
    accepted step and may return a status string to stop the run.  A run the
    callback or a step underflow stops early ends with one more sample at its
    stopping time.  Trial stages run with NumPy's overflow and invalid-value
    warnings off: a stage that overflows or is not finite is rejected, never
    accepted.
    """
    if sampling not in ("clamped", "dense"):
        raise ValueError(f"sampling must be 'clamped' or 'dense', got {sampling!r}")
    dense = sampling == "dense"
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    nfev = 0

    def f(s, y):
        nonlocal nfev
        nfev += 1
        return direction * rhs(t0 + direction * s, y)

    with np.errstate(over="ignore", invalid="ignore"):
        status = TERM_REACHED_END
        n_steps = n_rejected = 0
        s = 0.0
        y = np.asarray(y0, dtype=float).copy()
        f_cur = f(s, y)
        ys = [y.copy()]
        fs = [direction * f_cur]
        si = 1

        h = _initial_step(f, y, f_cur, s_end, rtol, atol)
        err_prev = 1.0
        k = np.empty((7, y.size))

        while s < s_end:
            # The last sample is s_end, so this clamp also stops the run there.
            target = s_end if dense else samples[si]
            if s + h >= target:
                h = target - s
            else:
                target = None
            # Written so that a NaN step size (from a NaN derivative) ends the run.
            if not h >= 16 * np.finfo(float).eps * max(abs(s), 1.0):
                status = TERM_UNDERFLOW
                break

            k[0] = f_cur
            for i in range(1, 7):
                k[i] = f(s + _C[i] * h, y + h * (_A[i] @ k[:i]))
            y_new = y + h * (_B5 @ k)
            err = h * (_E @ k)
            err_norm = _error_norm(err, y, y_new, rtol, atol)

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
            if dense:
                sj = int(np.searchsorted(samples, s_new))  # the first sample >= s_new
                if sj > si:
                    y_in, f_in = _dense_samples(k, s, h, y, samples[si:sj])
                    ys.extend(y_in)
                    fs.extend(direction * f_in)
                    si = sj

            s, y, f_cur = s_new, y_new, f_new
            if s == samples[si]:
                ys.append(y.copy())
                fs.append(direction * f_cur)
                si += 1

            if step_callback is not None:
                verdict = step_callback(t0 + direction * s, y, direction * f_cur, h)
                if verdict is not None:
                    status = verdict
                    break

            # PI step-size update.
            e = max(err_norm, 1e-10)
            factor = _SAFETY * e ** (-_ALPHA) * err_prev**_BETA
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = e

    return _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected, nfev)


def solve_rk54_batch(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    Y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[..., list] | None = None,
) -> list[RKResult]:
    """solve_rk54 on every row of Y0 (B, D) at once; one RKResult per row.

    ``rhs(t, Y, rows)`` and ``step_callback(t, Y, dY/dt, h, rows)`` see only
    the active rows (rows: their indices in Y0; t, h: one value per row).  The
    callback runs on the rows that just accepted a step and returns a status
    or None for each.  Every row keeps its own step size, controller state,
    samples, status and counters, and leaves the batch when it ends.  The
    accepted derivative is copied out of the stage buffer, so a retry after a
    rejected step starts from it.  No arithmetic mixes rows,
    so each row's result is bitwise that of the row solved alone.  As in
    solve_rk54, the stage sums are per-row matmuls and the controller's powers
    run on Python floats (NumPy's array powers round differently).
    """
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    Y = np.array(Y0, dtype=float)
    B, D = Y.shape
    nfev, n_steps, n_rejected = (np.zeros(B, dtype=int) for _ in range(3))
    status, ends = [TERM_REACHED_END] * B, [None] * B
    rows = np.arange(B)  # the active rows; the state arrays below hold only them

    def f(s, Y, rows):
        nfev[rows] += 1
        return direction * rhs(t0 + direction * s, Y, rows)

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.zeros(B)
        F = f(s, Y, rows)
        ys = [[y.copy()] for y in Y]
        fs = [[direction * fr] for fr in F]
        si = np.ones(B, dtype=int)
        H = np.array([
            _initial_step(lambda h, y: f(np.array([h]), y[None], rows[[j]])[0], Y[j], F[j],
                          s_end, rtol, atol)
            for j in range(B)
        ])
        err_prev = np.ones(B)
        done = np.zeros(B, dtype=bool)  # rows ended by their last step

        while True:
            # The last sample is s_end, so this clamp also stops a row there.
            target = samples[np.minimum(si, len(samples) - 1)]
            clamp = s + H >= target
            H = np.where(clamp, target - s, H)
            # Written so that a NaN step size (from a NaN derivative) ends the row.
            underflow = ~done & ~(H >= 16 * np.finfo(float).eps * np.maximum(np.abs(s), 1.0))
            done |= underflow
            if done.any():
                for j in done.nonzero()[0]:
                    if underflow[j]:
                        status[rows[j]] = TERM_UNDERFLOW
                    ends[rows[j]] = (s[j], Y[j].copy(), F[j])
                keep = ~done
                rows, s, H, si, err_prev, Y, F, target, clamp = (
                    x[keep] for x in (rows, s, H, si, err_prev, Y, F, target, clamp))
            if not rows.size:
                break

            K = np.empty((rows.size, 7, D))
            K[:, 0] = F
            for i in range(1, 7):
                K[:, i] = f(s + _C[i] * H, Y + H[:, None] * np.matmul(_A[i], K[:, :i]), rows)
            Y_new = Y + H[:, None] * np.matmul(_B5, K)
            err = H[:, None] * np.matmul(_E, K)
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            # An overflowed row would enlarge its own scale and read as error 0.
            err_norm = np.sqrt(np.mean((err / scale) ** 2, axis=1))
            err_norm[~np.isfinite(Y_new).all(axis=1)] = np.inf
            e = err_norm.tolist()

            # Written so that a NaN error norm rejects the step.
            accepted = err_norm <= 1.0
            rej, acc = (~accepted).nonzero()[0], accepted.nonzero()[0]
            n_rejected[rows[rej]] += 1
            H[rej] *= [max(_MIN_FACTOR, _SAFETY * e[j] ** (-1 / 5)) for j in rej]

            # Land exactly on the clamp target so sample bookkeeping stays exact.
            s[acc] = np.where(clamp, target, s + H)[acc]
            Y[acc], F[acc] = Y_new[acc], K[acc, 6]  # FSAL, copied out of K
            n_steps[rows[acc]] += 1
            hit = acc[s[acc] == samples[si[acc]]]
            for j in hit:
                ys[rows[j]].append(Y[j].copy())
                fs[rows[j]].append(direction * F[j])
            si[hit] += 1

            done = s >= s_end
            if step_callback is not None and acc.size:
                verdicts = step_callback(t0 + direction * s[acc], Y[acc], direction * F[acc],
                                         H[acc], rows[acc])
                for j, verdict in zip(acc, verdicts):
                    if verdict is not None:
                        status[rows[j]], done[j] = verdict, True

            # PI step-size update.
            ep, e_acc = err_prev.tolist(), [max(e[j], 1e-10) for j in acc]
            H[acc] *= [min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ej ** (-_ALPHA) * ep[j]**_BETA))
                       for ej, j in zip(e_acc, acc)]
            err_prev[acc] = e_acc

    return [_result(grid, status[g], *ends[g], ys[g], fs[g],
                    int(n_steps[g]), int(n_rejected[g]), int(nfev[g])) for g in range(B)]

