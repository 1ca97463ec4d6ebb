"""Adaptive embedded Runge-Kutta 5(4) core (Dormand-Prince pair).

solve_rk54 is the one sampled solve: every ODE of the package runs through
it.  It maps a forward or backward time grid onto one forward loop in
s = |t - t_grid[0]|, lands exactly on every sample and closes an early stop
with a sample at the stopping time.  Step-size selection uses a PI
controller on the embedded error estimate; a trial step whose state is not
finite is rejected.  Sampled states carry the full order of the method and
reruns are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["RKResult", "solve_rk54", "hermite_eval", "HermitePath"]

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


def solve_rk54(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[[float, np.ndarray, np.ndarray, float], str | None] | None = None,
) -> RKResult:
    """Solve y' = rhs(t, y) from t_grid[0], sampled on t_grid.

    The grid may run forward or backward: the stepper runs forward in
    s = |t - t_grid[0]|, clamping each step to land on the next sample, and
    maps the samples and their derivatives back to t.  ``step_callback(t, y,
    dy/dt, h)`` runs after each accepted step and may return a status string
    to stop the run.  A run the callback or a step underflow stops early ends
    with one more sample at its stopping time.  Trial stages run with NumPy's
    overflow and invalid-value warnings off: a stage that overflows or is not
    finite is rejected, never accepted.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ValueError("need at least two samples")
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    if t1 == t0:
        raise ValueError("t_span must be nondegenerate")
    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError("tolerances must be positive and finite")
    direction = 1.0 if t1 > t0 else -1.0
    samples = np.abs(t_grid - t0)
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
            target = None
            if s + h >= samples[si]:
                h = samples[si] - s
                target = samples[si]
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
            f_new = k[6]  # FSAL: last stage is f(s_new, y_new)
            n_steps += 1

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

    ts = list(t_grid[: len(ys)])
    if status != TERM_REACHED_END and s > samples[len(ys) - 1]:
        ts.append(t0 + direction * s)
        ys.append(y)
        fs.append(direction * f_cur)
    return RKResult(status, np.array(ts), np.array(ys), np.array(fs), n_steps, n_rejected, nfev)


def hermite_eval(t, t0, t1, y0, y1, f0, f1):
    """Cubic Hermite interpolation on one segment using stored derivatives."""
    dt = t1 - t0
    s = (t - t0) / dt
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * dt * f0 + h01 * y1 + h11 * dt * f1


class HermitePath:
    """Piecewise-cubic Hermite interpolant over a sampled trajectory.

    Accepts increasing or decreasing sample grids; evaluation outside the
    sampled range raises.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray, derivs: np.ndarray):
        times = np.asarray(times, dtype=float)
        if len(times) < 2:
            raise ValueError("need at least two samples to interpolate")
        self._reversed = times[-1] < times[0]
        if self._reversed:
            times = times[::-1]
            values = values[::-1]
            derivs = derivs[::-1]
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly monotone")
        self.times = times
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def __call__(self, t: float) -> np.ndarray:
        eps = 1e-12 * max(1.0, abs(self.t_min), abs(self.t_max))
        if t < self.t_min - eps or t > self.t_max + eps:
            raise ValueError(f"time {t} outside interpolation range "
                             f"[{self.t_min}, {self.t_max}]")
        t = min(max(t, self.t_min), self.t_max)
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.times) - 2)
        return hermite_eval(
            t,
            self.times[i],
            self.times[i + 1],
            self.values[i],
            self.values[i + 1],
            self.derivs[i],
            self.derivs[i + 1],
        )
