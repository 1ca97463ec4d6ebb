"""Adaptive embedded Runge-Kutta: the Dormand-Prince 8(5,3) pair.

solve_rk54 is the sampled solve of every single ODE of the package, one scalar
loop stepping DOP853, the 8(5,3) pair (Prince & Dormand 1981; Hairer, Norsett &
Wanner II.10), with the error rule and 7th-degree extension of scipy's DOP853
(its coefficients as float64 literals: scipy is a test-only dependency) and
scipy's controller times Gustafsson's predictive factor, at half the caller's
tolerances.  (The "54" in the names is that of the 5(4) pair they first
stepped.)  A forward or backward grid maps onto one forward loop in
s = |t - t_grid[0]|; rhs is called as given and the signed step enters the
stage sums, the extension and the initial step.  An early stop closes with a
sample at the stopping time.  Under sampling="dense", the mode of every tensor
and metric solve, it steps freely, lands only on the last sample and fills the
samples inside each accepted step from the extension, whose 3 extra stages
are computed only for such a step, as one block of rows (the blocks are
concatenated once, when the run ends); the step callback also receives each step,
so a caller may keep it to sample it later.  Under sampling="clamped" it lands
on every sample; that stays the default only as the one-row twin of
solve_rk54_batch, which always clamps.  No stage is tested for finiteness: a
NaN or inf stage reaches the step's new state, and a new state that is not
finite is rejected; the retry starts from the accepted (FSAL) derivative.
Reruns are bit-reproducible.  nfev counts the rhs calls.

solve_rk54_batch steps many independent rows (the cells of a reduced-family
sweep) in one vectorized loop, each row bitwise the clamped solve of the row
alone; only the controller's powers and the end of a row run per row in
Python.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["RKResult", "solve_rk54", "solve_rk54_batch"]

# Dormand-Prince 8(5,3), scipy's dop853_coefficients by repr: 12 stages, the FSAL
# stage (row 12 of _A8 holds the weights B) and the 3 stages of the extension.
_C8 = [
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778
]
_A8 = [np.array([])] + [np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
    -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
    -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)]
_E53 = np.array([  # E5 and E3
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294, 0],
    [-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0],
])
_D8 = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPO = 1 / 8  # the error exponent: 1 / the order of the propagated solution


def _nested_extension(b, d):
    """(16, 7) map from the stages (h k) of a DOP853 step to the coefficients of
    x, ..., x^7 in scipy's Dop853DenseOutput, x (F0 + (1 - x) (F1 + x (F2 + ...)))
    with F = (dy, h f0 - dy, 2 dy - h (f0 + f1), h D k), dy = h b . k, unrolled."""
    e, b = np.eye(16), np.pad(b, (0, 16 - b.size))
    q = np.zeros((8, 16))  # the coefficients of x^0, ..., x^7
    for i, row in enumerate([*d[::-1], 2 * b - e[0] - e[12], e[0] - b, b]):
        q[0] += row
        q = np.roll(q, 1, axis=0) if i % 2 == 0 else q - np.roll(q, 1, axis=0)
    return q[1:].T


def _dop853_error(k, h, scale):
    """scipy's DOP853._estimate_error_norm, with h folded into E5 and E3."""
    e = (h * _E53).dot(k) / scale
    n5, n3 = np.add.reduce(e * e, axis=1).tolist()
    return n5 / math.sqrt((n5 + 0.01 * n3) * scale.size) if n5 or n3 else 0.0


# The tableau as the solvers read it: a step of signed size h from (s, y) takes the stages
# k[i] = rhs(t(s + c[i] |h|), y + (h a[i]) . k), 1 <= i < b.size, the last (FSAL) at
# y + (h b) . k; the 3 later stages extend it to y + ((h k).T @ p) @ (x, ..., x^7).  h goes
# into the weights before each sum over the stages, whose weights reach 545: k alone may
# overflow where the increments of a finite step do not.
_Tableau = namedtuple("_Tableau", "c a b p")
DOP853 = _Tableau(_C8, _A8, np.append(_A8[12], 0.0), _nested_extension(_A8[12], _D8))
_SLOPES = np.arange(1, DOP853.p.shape[1] + 1)[:, None]  # d/dx x^i = i x^(i-1), i <= 7
# The step stages' weights as one lower-triangular matrix: row i is a[i], zero-padded.
_A_STEP = np.array([np.pad(row, (0, DOP853.b.size - row.size)) for row in _A8[:DOP853.b.size]])

TERM_REACHED_END = "reached-t-end"
TERM_UNDERFLOW = "step-underflow"


@dataclass
class RKResult:
    """Outcome of one sampled solve, in t.

    sample_t, sample_y and sample_f stack the sample times, states and
    derivatives by row; a run that stopped early ends with one more sample at
    its stopping time.  nfev counts the rhs calls.
    """

    status: str
    sample_t: np.ndarray
    sample_y: np.ndarray
    sample_f: np.ndarray
    n_steps: int
    n_rejected: int
    nfev: int


def _initial_step(f, Y0, F0, t_end, rtol, atol, direction):
    """Initial step of each row of Y0 (B, D), one call f(h0, Y1) for all rows.
    Python's min(a, b) and max(a, b) become where(b < a, b, a) and where(b > a,
    b, a), which keep NaNs as they do; a denominator is raised only where its
    quotient is unused, and the power runs on Python floats."""
    scale = atol + rtol * np.abs(Y0)
    d0 = np.sqrt(np.mean((Y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((F0 / scale) ** 2, axis=1))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = np.where(t_end < h0, t_end, h0)
    F1 = f(h0, Y0 + (direction * h0)[:, None] * F0)
    d2 = np.sqrt(np.mean(((F1 - F0) / scale) ** 2, axis=1)) / h0
    d12 = np.where(d2 > d1, d2, d1)
    h1 = np.where(d12 <= 1e-15, np.fmax(1e-6, h0 * 1e-3),
                  [x**_EXPO for x in (0.01 / np.maximum(d12, 1e-15)).tolist()])
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


def _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected, nfev) -> RKResult:
    """RKResult of a run stopped at s in (y, f_cur) with samples ys, fs; an
    early stop adds a closing sample."""
    t_grid, t0, direction, samples = grid
    ts, ys, fs = t_grid[: len(ys)].copy(), np.asarray(ys), np.asarray(fs)
    if status != TERM_REACHED_END and s > samples[len(ys) - 1]:
        ts = np.append(ts, t0 + direction * s)
        ys, fs = np.vstack([ys, y]), np.vstack([fs, f_cur])
    return RKResult(status, ts, ys, fs, n_steps, n_rejected, nfev)


def _dense_samples(k, s, h, y, sample_s):
    """States and derivatives (in t) at sample_s inside the accepted step of signed size h
    from (s, y) with extended stages k, as (len(sample_s), y.size) blocks.  h goes into
    the stages first and x's powers, multiplied out in place, into the weights: k alone,
    or the monomial coefficients, may overflow where the increments of a finite step do
    not."""
    x = (sample_s - s) / abs(h)
    powers = np.empty((len(_SLOPES) + 1, x.size))  # 1, x, ..., x^7
    powers[0], powers[1:] = 1.0, x
    np.multiply.accumulate(powers[1:], out=powers[1:])
    hk = (h * k).T
    return (y + (hk @ (DOP853.p @ powers[1:])).T,
            (hk @ (DOP853.p @ (_SLOPES * powers[:-1]))).T / h)


def solve_rk54(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[[float, np.ndarray, np.ndarray, tuple], str | None] | None = None,
    sampling: str = "clamped",
) -> RKResult:
    """Solve y' = rhs(t, y) from t_grid[0], sampled on t_grid, by DOP853 at half
    the tolerances rtol and atol.

    The grid may run forward or backward: the stepper runs forward in
    s = |t - t_grid[0]| with the signed step h.  sampling="clamped" clamps
    each step to land on the next sample.  sampling="dense" clamps only at the
    last sample; a sample strictly inside an accepted step takes the state and
    derivative of the step's continuous extension, and one on a step end that
    step's state and derivative.  In either mode the FSAL stage is copied out
    of the stage buffer, so a retry after a rejected step starts from the
    accepted derivative.  ``step_callback(t, y, dy/dt, step)`` runs after each
    accepted step and may return a status string to stop the run; step is
    (extend, k, s, h, y), where extend(k, s, h, y) computes the extension
    stages into k (the live stage buffer: copy it to keep it) and returns its
    rhs calls, after which _dense_samples(k, s, h, y, ...) samples the
    step.  A run the callback or a step underflow stops early ends with one
    more sample at its stopping time.  Trial stages run with NumPy's overflow
    and invalid-value warnings off: a step whose new state is not finite is
    rejected, never accepted.  nfev counts the rhs calls of the solve.
    """
    if sampling not in ("clamped", "dense"):
        raise ValueError(f"sampling must be 'clamped' or 'dense', got {sampling!r}")
    dense = sampling == "dense"
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    rtol, atol = 0.5 * rtol, 0.5 * atol
    c, a, b = DOP853.c, DOP853.a, DOP853.b
    n = b.size  # the stages of a step, the FSAL stage last

    def extend(k, s, h, y):
        for i in range(n, len(c)):
            k[i] = rhs(t0 + direction * (s + c[i] * abs(h)), y + (h * a[i]).dot(k[:i]))
        return len(c) - n  # the rhs calls made

    with np.errstate(over="ignore", invalid="ignore"):
        status = TERM_REACHED_END
        n_steps = n_rejected = n_extra = 0
        s = 0.0
        y = np.asarray(y0, dtype=float).copy()
        f_cur = rhs(t0 + direction * s, y)
        ys, fs = [y[None]], [f_cur[None]]  # row blocks; no state is written in place
        si = 1

        h = float(_initial_step(lambda h, Y: rhs(t0 + direction * float(h[0]), Y[0])[None],
                                y[None], f_cur[None], s_end, rtol, atol, direction)[0])
        err_prev, retry, h_free = 1.0, False, 0.0  # h_free: the last step's size if unclamped
        k = np.empty((len(c), y.size))
        k_step = k[:n]
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

            hs = direction * h
            weights = hs * _A_STEP  # row i is hs * a[i]
            k[0] = f_cur
            for i in range(1, n):
                k[i] = rhs(t0 + direction * (s + c[i] * h), y + weights[i, :i].dot(k[:i]))
            y_new = y + (hs * b).dot(k_step)
            abs_new = np.abs(y_new)
            # An overflowed y_new would enlarge its own scale and read as error 0.
            if np.isfinite(y_new).all():
                err_norm = _dop853_error(k_step, hs, atol + rtol * np.maximum(abs_y, abs_new))
            else:
                err_norm = math.inf

            # Written so that a NaN error norm rejects the step.
            if not err_norm <= 1.0:
                n_rejected += 1
                retry = True
                h *= max(_MIN_FACTOR, _SAFETY * err_norm**-_EXPO)
                continue

            # Land exactly on the clamp target so sample bookkeeping stays exact.
            s_new = target if target is not None else s + h
            n_steps += 1
            # FSAL: the last stage is f(s_new, y_new), copied out of the stage
            # buffer so a retry after a rejected step starts from it.
            f_new = k[n - 1].copy()
            if dense and samples[si] < s_new:
                sj = int(np.searchsorted(samples, s_new))  # the first sample >= s_new
                n_extra += extend(k, s, hs, y)
                y_in, f_in = _dense_samples(k, s, hs, y, samples[si:sj])
                ys.append(y_in)
                fs.append(f_in)
                si = sj

            step = (extend, k, s, hs, y)
            s, y, f_cur, abs_y = s_new, y_new, f_new, abs_new
            if s == samples[si]:
                ys.append(y[None])
                fs.append(f_cur[None])
                si += 1

            if step_callback is not None:
                verdict = step_callback(t0 + direction * s, y, f_cur, step)
                if verdict is not None:
                    status = verdict
                    break

            # scipy's step-size update, times Gustafsson's predictive factor
            # min(1, (h_n / h_n-1) (e_n-1 / e_n)^(1/8)) (ACM TOMS 20, 1994; Hairer-Wanner
            # IV.8) when this step and the one before it ran unclamped, so the step keeps
            # shrinking toward a blowup; no growth right after a rejection.
            e = max(err_norm, 1e-10)
            factor = _SAFETY * e**-_EXPO
            if target is None and h_free:
                factor *= min(1.0, h / h_free * (err_prev / e) ** _EXPO)
            h_free = h if target is None else 0.0
            h *= min(1.0 if retry else _MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev, retry = e, False

    nfev = 2 + (n - 1) * (n_steps + n_rejected) + n_extra
    ys, fs = (np.concatenate(b, out=np.empty((si, y.size))) for b in (ys, fs))  # C-ordered
    return _result(grid, status, s, y, f_cur, ys, fs, n_steps, n_rejected, nfev)


def solve_rk54_batch(
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    Y0: np.ndarray,
    t_grid: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    step_callback: Callable[..., dict] | None = None,
) -> list[RKResult]:
    """solve_rk54 by DOP853 on every row of Y0 (B, D) at once, landing on every
    sample; one RKResult per row.

    ``rhs(t, Y, rows)`` and ``step_callback(t, Y, dY/dt, h, rows)`` see only
    the active rows (rows: their indices in Y0; t, h: one value per row).  The
    callback runs on the rows that just accepted a step and returns
    {index into rows: status} for the rows it stops.  Every row keeps its own
    step size, controller history, samples, status and counters, and leaves
    the batch when it ends.  No arithmetic mixes rows, and the stage sums are
    per-row matmuls of the folded weights, so each row is bitwise the clamped
    solve_rk54 of the row alone.  Only the controller's
    powers (on Python floats: NumPy's array powers round differently in the
    last bit) and the recording of an ending row run per row.
    """
    grid = _grid(t_grid, rtol, atol)
    t_grid, t0, direction, samples = grid
    s_end = float(samples[-1])
    rtol, atol = 0.5 * rtol, 0.5 * atol
    n, a, b = DOP853.b.size, DOP853.a, DOP853.b
    c = np.array(DOP853.c[:n])[:, None]
    Y = np.array(Y0, dtype=float)
    B, D = Y.shape
    status, ends = [TERM_REACHED_END] * B, [None] * B
    sample_y, sample_f = np.empty((2, B, len(samples), D))
    rows = np.arange(B)  # the active rows; the state arrays below hold only them

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.zeros(B)
        F = rhs(t0 + direction * s, Y, rows)
        sample_y[:, 0], sample_f[:, 0] = Y, F
        H = _initial_step(lambda h, Y: rhs(t0 + direction * h, Y, rows), Y, F, s_end, rtol, atol,
                          direction)
        n_steps, n_rejected = np.zeros((2, B), dtype=int)
        si = np.ones(B, dtype=int)
        # Per row as in solve_rk54: the last accepted error norm, the last step's size
        # if it ran unclamped (else 0) and whether the last attempt was rejected.
        e_prev, h_free, retry = np.ones(B), np.zeros(B), np.zeros(B, dtype=bool)
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
                rows, s, H, si, Y, F, target, clamp, n_steps, n_rejected, e_prev, h_free, retry = (
                    x[keep] for x in (rows, s, H, si, Y, F, target, clamp, n_steps, n_rejected,
                                      e_prev, h_free, retry))
            if not rows.size:
                break

            K = np.empty((rows.size, n, D))
            K[:, 0] = F
            Hc, stage_t = (direction * H)[:, None], t0 + direction * (s + c * H)
            for i in range(1, n):
                K[:, i] = rhs(stage_t[i], Y + np.matmul((Hc * a[i])[:, None], K[:, :i])[:, 0], rows)
            Y_new = Y + np.matmul((Hc * b)[:, None], K)[:, 0]
            scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            E = np.matmul(Hc[:, :, None] * _E53, K) / scale[:, None]
            n5, n3 = np.add.reduce(E * E, axis=2).T
            err_norm = np.where((n5 != 0) | (n3 != 0), n5 / np.sqrt((n5 + 0.01 * n3) * D), 0.0)
            # An overflowed row would enlarge its own scale and read as error 0.
            err_norm[~np.isfinite(Y_new).all(axis=1)] = np.inf

            # Written so that a NaN error norm rejects the step.
            accepted = err_norm <= 1.0
            n_steps += accepted
            n_rejected += ~accepted
            # Land exactly on the clamp target so sample bookkeeping stays exact.
            s = np.where(accepted, np.where(clamp, target, s + H), s)
            acc = accepted[:, None]
            Y, F = np.where(acc, Y_new, Y), np.where(acc, K[:, n - 1], F)  # FSAL, copied out of K
            hit = accepted & (s == samples[si])
            at = rows[hit], si[hit]
            sample_y[at], sample_f[at] = Y[hit], F[hit]
            si += hit

            done = s >= s_end
            acc = accepted.nonzero()[0]
            if step_callback is not None and acc.size:
                stops = step_callback(t0 + direction * s[acc], Y[acc], F[acc], H[acc], rows[acc])
                for j, verdict in stops.items():
                    status[rows[acc[j]]], done[acc[j]] = verdict, True

            # solve_rk54's update: 0.9 e^(-1/8) on every row, Gustafsson's factor on the
            # accepted rows whose step and the one before ran unclamped, then the clamps.
            # fmax, like Python's max(_MIN_FACTOR, x), turns a NaN factor into _MIN_FACTOR.
            e = np.maximum(err_norm, 1e-10)  # a rejected row's norm is > 1 or NaN
            factor = _SAFETY * np.array([x**-_EXPO for x in e.tolist()])
            free = accepted & ~clamp
            pred = (free & (h_free > 0)).nonzero()[0]
            ratio = (e_prev[pred] / e[pred]).tolist()
            g = H[pred] / h_free[pred] * np.array([x**_EXPO for x in ratio])
            factor[pred] *= np.where(g < 1.0, g, 1.0)
            h_free = np.where(accepted, np.where(free, H, 0.0), h_free)
            e_prev = np.where(accepted, e, e_prev)
            H = H * np.fmin(np.where(retry, 1.0, _MAX_FACTOR),
                            np.fmax(_MIN_FACTOR, factor))
            retry = ~accepted

    return [_result(grid, status[g], s, y, f_end, sample_y[g, :m], sample_f[g, :m],
                    int(steps), int(rejected), 2 + (n - 1) * int(steps + rejected))
            for g, (s, y, f_end, m, steps, rejected) in enumerate(ends)]
