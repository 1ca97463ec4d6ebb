"""Adaptive embedded Runge-Kutta 5(4) core (Dormand-Prince pair).

One forward loop in s from 0 to the last sample time; flow.py's
_solve_sampled maps forward and backward time grids onto it.  Step-size
selection uses a PI controller on the embedded error estimate, and steps are
clamped to land exactly on the sample times, so sampled states carry the
full order of the method and reruns are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    status: str
    t: float
    y: np.ndarray
    f: np.ndarray
    sample_t: list[float] = field(default_factory=list)
    sample_y: list[np.ndarray] = field(default_factory=list)
    sample_f: list[np.ndarray] = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0
    min_step: float = float("inf")
    max_step: float = 0.0


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
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
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    sample_times: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[[float, np.ndarray, np.ndarray, float], str | None] | None = None,
) -> RKResult:
    """Integrate y' = f(s, y) forward from s = 0 to s = sample_times[-1].

    ``sample_times`` must increase strictly from sample_times[0] = 0, the
    initial state's sample, to a positive end; every later sample is hit
    exactly by clamping the step.  ``step_callback`` runs after each accepted
    step and may return a status string to terminate early.
    """
    samples = np.asarray(sample_times, dtype=float)
    t_end = float(samples[-1])
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    f_cur = f(t, y)
    res = RKResult(status=TERM_REACHED_END, t=t, y=y, f=f_cur)
    res.sample_t.append(t)
    res.sample_y.append(y.copy())
    res.sample_f.append(f_cur.copy())
    si = 1

    h = _initial_step(f, y, f_cur, t_end, rtol, atol)
    err_prev = 1.0
    k = np.empty((7, y.size))

    while t < t_end:
        # The last sample is t_end, so this clamp also stops the run there.
        target = None
        if t + h >= samples[si]:
            h = samples[si] - t
            target = samples[si]
        # Written so that a NaN step size (from a NaN derivative) ends the run.
        if not h >= 16 * np.finfo(float).eps * max(abs(t), 1.0):
            res.status = TERM_UNDERFLOW
            break

        k[0] = f_cur
        for s in range(1, 7):
            k[s] = f(t + _C[s] * h, y + h * (_A[s] @ k[:s]))
        y_new = y + h * (_B5 @ k)
        err = h * (_E @ k)
        err_norm = _error_norm(err, y, y_new, rtol, atol)

        # Written so that a NaN error norm rejects the step.
        if not err_norm <= 1.0:
            res.n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1 / 5))
            continue

        # Land exactly on the clamp target so sample bookkeeping stays exact.
        t_new = target if target is not None else t + h
        f_new = k[6]  # FSAL: last stage is f(t_new, y_new)
        res.n_steps += 1
        res.min_step = min(res.min_step, h)
        res.max_step = max(res.max_step, h)

        t, y, f_cur = t_new, y_new, f_new
        if t == samples[si]:
            res.sample_t.append(t)
            res.sample_y.append(y.copy())
            res.sample_f.append(f_cur.copy())
            si += 1

        if step_callback is not None:
            verdict = step_callback(t, y, f_cur, h)
            if verdict is not None:
                res.status = verdict
                break

        # PI step-size update.
        e = max(err_norm, 1e-10)
        factor = _SAFETY * e ** (-_ALPHA) * err_prev**_BETA
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = e

    res.t, res.y, res.f = t, y, f_cur
    return res


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
