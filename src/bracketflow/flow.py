"""Bracket-flow, metric-flow and gauge ODEs with adaptive integration.

The bracket flow moves only the two components of mu restricted to p x p
(the isotropy rows are constant in time), so the integration state packs the
canonical i < j entries of the structure array and the tangent of the
isotropy rows is exactly zero.  The tangent, Ric, the rates, the Jacobi drift
and the blowup estimate read the packed state through the polynomial tables
of _poly; only a custom rate builds a BracketTensor, to call its rate
function.  Every trajectory co-integrates the scaling pair (c, tau) with
c' = r c, tau' = c^2, which ties a normalized run to its unnormalized parent.
Blowup time and type come from the closing sample.  The metric flow
dP/dt = -2 R reads the Ricci form R of <P., .> from P and P^-1
(_metric_ricci_form, whose contractions of the initial bracket are made once
per run): no square root of P, no gauged bracket and no _poly table, so the
equivalence report compares two independent computations.  A gauge is
integrated together with its flow, as a tail of the flow's state:
h' = -(Ric + r I) h with the tangent's Ric on the bracket side,
h' = -h P^-1 R on the metric side.

The bracket and metric flows, with or without their gauges, run through one
sampled solve, _rk.solve_rk54, and read its RKResult directly; each steps
DOP853 freely at half the caller's tolerances and fills its samples from the
pair's 7th-degree extension.  Both check their invariants after each step:
the Jacobi identity on the bracket side, the isotropy invariance of P on the
metric side.  The rescaling of an unnormalized run (reparametrize, which
rescale_to_ricci_norm calls with RICCI_NORM) is a normalized bracket flow
solved from the run's first bracket, whose (c, tau) record is
c(t) . mu(tau(t)); no source sample is interpolated; its one solve keeps its
steps, ends where tau meets the source end and fills the samples from them.
The reduced-family flow instead steps a whole batch of cells (a sweep grid,
or one cell for integrate_reduced) by DOP853 in one _rk.solve_rk54_batch,
landing on every sample and reading the families' closed forms for all cells
at once.

A single integration owns its state; trajectories and all inputs are
immutable once produced, so independent integrations may run concurrently.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import core as _core
from ._rk import DOP853, TERM_REACHED_END, RKResult, _dense_samples, solve_rk54, solve_rk54_batch
from .core import (
    BracketTensor,
    CompatibilityError,
    HomogeneousPoint,
    _canonical,
    _packed_names,
    _pairs,
    act_gl,
    gl_action_packed,
    pack_state,
    unpack_state,
)
from .curvature import CurvatureReport, _killing, curvature_pieces

__all__ = [
    "Normalization",
    "UNNORMALIZED",
    "VOLUME",
    "SCALAR_CURVATURE",
    "BRACKET_NORM",
    "RICCI_NORM",
    "custom_rate",
    "NormalizationError",
    "EventConfig",
    "IntegrationStats",
    "FlowTrajectory",
    "MetricState",
    "MetricTrajectory",
    "GaugeRecord",
    "EquivalenceReport",
    "bracket_rhs",
    "normalization_rate",
    "normalized_rhs",
    "integrate",
    "integrate_reduced",
    "integrate_reduced_batch",
    "metric_rhs",
    "integrate_metric",
    "integrate_gauge",
    "reparametrize",
    "rescale_to_ricci_norm",
    "equivalence_report",
]

TERM_BLOWUP = "blowup-detected"
TERM_CONVERGED = "converged-to-fixed-point"
TERM_DRIFT = "validity-drift"
TERM_UNDEFINED = "normalization-undefined"
_METRIC_BLOWUP_NORM = 1e8
_FINE_RTOL, _FINE_ATOL = 1e-10, 1e-13  # the gauges, the equivalence pairs, the rescalings

_NO_POINTWISE_RATE = (
    "ricci-norm has no pointwise rate; integrate unnormalized and "
    "apply rescale_to_ricci_norm"
)
_FLAT_RICCI = "ricci-norm rate undefined at a flat bracket"


class NormalizationError(ValueError):
    """A normalization strategy cannot be applied to the given point."""


@dataclass(frozen=True)
class Normalization:
    """Tagged normalization choice for the flow; the rate r(mu) follows the tag.

    kinds: none | volume | scalar-curvature | bracket-norm | ricci-norm |
    custom.  'ricci-norm' has no pointwise rate and is realized by the
    reparametrization in rescale_to_ricci_norm.
    """

    kind: str
    rate_fn: Callable[[BracketTensor], float] | None = None


UNNORMALIZED = Normalization("none")
VOLUME = Normalization("volume")
SCALAR_CURVATURE = Normalization("scalar-curvature")
BRACKET_NORM = Normalization("bracket-norm")
RICCI_NORM = Normalization("ricci-norm")


def custom_rate(fn: Callable[[BracketTensor], float]) -> Normalization:
    return Normalization("custom", rate_fn=fn)


def _require_pointwise(strategy: Normalization) -> None:
    if strategy.kind == "ricci-norm":
        raise NormalizationError(_NO_POINTWISE_RATE)
    if strategy.kind not in ("none", "custom", *_RATES):
        raise NormalizationError(f"unknown normalization kind {strategy.kind!r}")


# The pointwise rates from the curvature scalars (n, R, tr Ric^2, tr Ric M,
# |mu_p|^2), elementwise over arrays of cells: (rate, the position of the
# scalar it divides by, why that scalar must not vanish).
_RATES = {
    "volume": (lambda n, R, tr2, trm, mp2: -R / n, 0, "volume normalization needs n != 0"),
    "scalar-curvature": (lambda n, R, tr2, trm, mp2: -tr2 / R, 1,
                         "scalar-curvature normalization needs R != 0"),
    "bracket-norm": (lambda n, R, tr2, trm, mp2: 4.0 * trm / mp2, 4,
                     "bracket-norm normalization needs mu_p != 0"),
}


def _rate_from_scalars(strategy: Normalization, *scalars: float) -> float:
    """Rate r from the curvature scalars (n, R, tr Ric^2, tr Ric M, |mu_p|^2)."""
    if strategy.kind == "none":
        return 0.0
    rate, divisor, reason = _RATES[strategy.kind]
    if scalars[divisor] == 0.0:
        raise NormalizationError(reason)
    return rate(*scalars)


def _bound_rate(strategy: Normalization, tab, q: int, n: int) -> Callable:
    """The rate (y, ric) -> r of a tensor system on the tables tab, at a flow state y and
    the Ricci form's output ric (its slots still 0.0), bound to its kind once, in the
    float operations of _rate_from_scalars (ricci-norm: D0, the exact derivative of Ric
    along the unnormalized tangent).  An exact zero divisor raises, except at a
    non-finite trial stage (NaN).  No closure holds the system, so it frees by refcount."""
    reason = _RATES[strategy.kind][2] if strategy.kind in _RATES else _FLAT_RICCI
    m = tab.rate_w.size

    def quotient(y, num, den):
        if den != 0.0:
            return num / den
        if np.isfinite(y[:m]).all():
            raise NormalizationError(reason)
        return np.nan

    return {
        "none": lambda y, a: 0.0,
        "volume": lambda y, a: -tab.trace(a) / n,  # n >= 1
        "scalar-curvature": lambda y, a: quotient(y, -tab.trace_product(a, a), tab.trace(a)),
        "bracket-norm": lambda y, a: quotient(
            y, 4.0 * tab.trace_product(a, tab.moment(y, y)), tab.mu_p_norm2(y)),
        "ricci-norm": lambda y, a: quotient(  # r = 0 in a's slot: the unnormalized tangent
            y, -tab.trace_product(a, tab.ricci.polar(y, tab.tangent(a, y))),
            2.0 * tab.trace_product(a, a)),
        "custom": lambda y, a: float(strategy.rate_fn(unpack_state(q, n, y[:m]))),
    }[strategy.kind]


def _report_rate(
    c: np.ndarray, q: int, strategy: Normalization, rep: CurvatureReport, d0: np.ndarray | None
) -> np.ndarray:
    """Rates r of a stack of brackets c (m, d, d, d), whose first q directions
    are isotropy, from their stacked curvature report rep; d0, the stacked
    unnormalized Ric evolution, is read by the ricci-norm rate only.  A custom
    rate calls rate_fn once per bracket; a rate undefined anywhere raises."""
    kind, n, ric = strategy.kind, c.shape[-1] - q, rep.Ric
    if kind == "custom":
        return np.array([float(strategy.rate_fn(_canonical(q, n, ci))) for ci in c])
    tr_ric2 = np.sum(ric * ric, axis=(-2, -1))
    if kind == "ricci-norm":
        if np.any(tr_ric2 <= 0):
            raise NormalizationError(_FLAT_RICCI)
        return -np.sum(ric * d0, axis=(-2, -1)) / (2.0 * tr_ric2)
    if kind == "none":
        return np.zeros(len(c))
    rate, divisor, reason = _RATES[kind]
    scalars = (n, rep.R, tr_ric2, np.sum(ric * rep.M, axis=(-2, -1)),
               np.sum(c[..., q:, q:, q:] ** 2, axis=(-3, -2, -1)))
    if not np.all(scalars[divisor]):
        raise NormalizationError(reason)
    return rate(*scalars)


def normalization_rate(
    point: HomogeneousPoint | BracketTensor, strategy: Normalization
) -> float:
    """Normalization rate r for one bracket under the given strategy."""
    mu = point.bracket if isinstance(point, HomogeneousPoint) else point
    _require_pointwise(strategy)
    return TensorFlowSystem(mu, strategy).rate()


def bracket_rhs(point: HomogeneousPoint) -> BracketTensor:
    """Right-hand side of the bracket flow at a validated point.

    Assembled componentwise, so the isotropy rows of the tangent are exactly
    zero.
    """
    return normalized_rhs(point, UNNORMALIZED)


def normalized_rhs(point: HomogeneousPoint, strategy: Normalization) -> BracketTensor:
    """Right-hand side of the r-normalized bracket flow."""
    point.require_valid()
    _require_pointwise(strategy)
    system = TensorFlowSystem(point.bracket, strategy)
    return system.bracket(system.tangent(system.state0)[0][: system.core0.size])


@dataclass(frozen=True)
class EventConfig:
    """Event thresholds for flow integration.

    blowup_norm triggers on the auxiliary tensor norm; conv_tangent must stay
    below threshold for conv_window consecutive accepted steps (free steps on
    a tensor run, one per sample on a reduced run) to declare convergence; a
    tensor run ends in 'validity-drift' when the Jacobi residual, quadratic in
    the bracket, exceeds drift_factor * rtol * max(1, |mu|^2).  A value out of
    range raises ValueError (a non-positive blowup_norm or drift_factor would
    end every run at its first step).
    """

    blowup_norm: float = 1e6
    conv_tangent: float = 1e-10
    conv_window: int = 8
    drift_factor: float = 1e3

    def __post_init__(self):
        for name, bound, ok in (("blowup_norm", "> 0", self.blowup_norm > 0),
                                ("conv_tangent", ">= 0", self.conv_tangent >= 0),
                                ("conv_window", ">= 1", self.conv_window >= 1),
                                ("drift_factor", "> 0", self.drift_factor > 0)):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class IntegrationStats:
    """Step and rhs-evaluation counts; after a blowup, the blowup time T on the run's
    own time axis and |T - t| |Ric| at the closing sample t, bounded at type I.
    trigger_value is the value that ended a tensor or metric run on an event: the
    aux norm (|P|) past the blowup norm, the last tangent norm of the convergence
    window, or the Jacobi (isotropy) residual past the drift bound."""

    n_steps: int
    n_rejected: int
    nfev: int
    blowup_time_estimate: float | None = None
    blowup_ricci_product: float | None = None
    trigger_value: float | None = None


class TensorFlowSystem:
    """Flow state = packed i < j structure entries of the full tensor (the core),
    then the scaling pair (c, tau); a gauged run appends its gauge."""

    kind = "bracket"

    def __init__(self, mu0: BracketTensor, strategy: Normalization):
        self.q, self.n = mu0.q, mu0.n
        self.strategy = strategy
        self.core0 = pack_state(mu0)
        self.state0 = np.append(self.core0, [1.0, 0.0])  # (c, tau) = (1, 0)
        self.param_names = _packed_names(self.q + self.n)
        from ._poly import tables  # compiled on first use, not by `import bracketflow`
        self.tables = tab = tables(self.q, self.n)
        self._custom = strategy.kind == "custom"
        self._rate = _bound_rate(strategy, tab, self.q, self.n)

    def bracket(self, core: np.ndarray) -> BracketTensor:
        return unpack_state(self.q, self.n, core)

    def ricci(self, core: np.ndarray) -> np.ndarray:
        return self.tables.ricci_matrix(core)

    def ricci_dot(self, core: np.ndarray, dcore: np.ndarray) -> np.ndarray:
        """Derivative of Ric along dcore, exact (Ric is quadratic in the state)."""
        return self.tables.ricci.polar(core, dcore)[self.tables.full]

    def rate(self) -> float:
        """Normalization rate r at mu0 (see _bound_rate)."""
        return self._rate(self.state0, self.tables.ricci(self.state0, self.state0))

    def tangent(self, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """(core', c', tau') at the flow state y from one tangent-table call, the rate r
        and the Ricci form's output read, Ric's sym vector then (r, c).  A non-finite
        trial stage never raises: its NaN or inf reaches the derivative, which the
        stepper rejects.  A custom rate_fn takes a bracket, which unpack_state does not
        build from non-finite entries, so there that stage gets the NaN triple."""
        tab, m = self.tables, self.core0.size
        if self._custom and not np.isfinite(y[:m]).all():
            return np.full(tab.tangent.size, np.nan), np.nan, np.full(tab.ricci.size, np.nan)
        ric = tab.ricci(y, y)
        r = ric[-2] = self._rate(y, ric)
        ric[-1] = y[m]
        return tab.tangent(ric, y), r, ric

    def aux_norm2(self, core: np.ndarray) -> float:
        return 2.0 * float(np.dot(core, core))

    def drift(self, core: np.ndarray) -> float:
        return self.tables.jacobi_residual(core)

    def describe(self) -> dict:
        return {"kind": self.kind, "q": self.q, "n": self.n}


class ReducedFlowSystem:
    """Flow state = parameters of a catalog family (see families module)."""

    kind = "reduced"

    def __init__(self, family, strategy: Normalization):
        self.family = family
        self.strategy = strategy
        self.param_names = list(family.param_names)
        self._weights = np.asarray(family.rate_weights, dtype=float)

    def bracket(self, core: np.ndarray) -> BracketTensor:
        return self.family.embed(core)

    def ricci(self, core: np.ndarray) -> np.ndarray:
        return np.diag(self.family.ricci_diag(core))

    def ricci_dot(self, core: np.ndarray, dcore: np.ndarray) -> np.ndarray:
        # A central difference: exact, the Ricci diagonals being quadratic.
        h = float(np.linalg.norm(core) / np.linalg.norm(dcore))
        return (self.ricci(core + h * dcore) - self.ricci(core - h * dcore)) / (2.0 * h)

    def rates(self, cores: np.ndarray) -> tuple[np.ndarray, dict[int, NormalizationError]]:
        """Rates at the columns of cores (P, B), a batch of cells, and the
        NormalizationError of each column (by index) whose rate is undefined;
        its rate is NaN.  A custom rate calls rate_fn once per finite column
        (a non-finite trial stage gets NaN, so the stepper rejects it)."""
        kind = self.strategy.kind
        if kind == "none":
            return np.zeros(cores.shape[1]), {}
        r, errors = np.full(cores.shape[1], np.nan), {}
        if kind == "custom":
            for j, core in enumerate(cores.T):
                try:
                    if np.isfinite(core).all():
                        r[j] = float(self.strategy.rate_fn(self.family.embed(core)))
                except NormalizationError as exc:
                    errors[j] = exc
            return r, errors
        scalars = self.family.rate_scalars(cores)
        rate, divisor, reason = _RATES[kind]
        ok = np.broadcast_to(scalars[divisor] != 0.0, r.shape)
        r[ok] = rate(*(x[ok] if np.ndim(x) else x for x in scalars))
        return r, {j: NormalizationError(reason) for j in np.flatnonzero(~ok).tolist()}

    def tangent(self, cores: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """Tangents (P, B) and rates (B,) at the columns of cores (P, B), with
        the errors of rates(cores); a column whose rate is undefined is NaN."""
        base = self.family.rhs(cores)
        if self.strategy.kind == "none":
            return base, np.zeros(cores.shape[1]), {}
        r, errors = self.rates(cores)
        return base + r * self._weights[:, None] * cores, r, errors

    def describe(self) -> dict:
        return {"kind": self.kind, "family": self.family.name,
                "context": self.family.context()}


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Sampled flow solution with scaling record and per-run diagnostics."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    system: object
    strategy: Normalization
    termination: str
    stats: IntegrationStats
    notes: tuple[str, ...] = ()

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def is_backward(self) -> bool:
        return self.n_samples >= 2 and self.times[-1] < self.times[0]

    def bracket_at(self, i: int) -> BracketTensor:
        return self.system.bracket(self.states[i])

    def final_bracket(self) -> BracketTensor:
        return self.bracket_at(-1)

    def curvature_at(self, i: int) -> CurvatureReport:
        return curvature_pieces(self.bracket_at(i))

    def describe(self) -> dict:
        d = {
            "system": self.system.describe(),
            "strategy": self.strategy.kind,
            "termination": self.termination,
            "t_start": float(self.times[0]),
            "t_final": float(self.times[-1]),
            "samples": int(self.n_samples),
            "steps": self.stats.n_steps,
            "rejected_steps": self.stats.n_rejected,
            "rhs_evals": self.stats.nfev,
        }
        if self.stats.blowup_time_estimate is not None:
            d["blowup_time_estimate"] = self.stats.blowup_time_estimate
            d["blowup_ricci_product"] = self.stats.blowup_ricci_product
        if self.stats.trigger_value is not None:
            d["trigger_value"] = self.stats.trigger_value
        if self.notes:
            d["notes"] = list(self.notes)
        return d


def _blowup_estimate(system, res: RKResult) -> tuple[float | None, float | None]:
    """(T, |T - t| |Ric|) from the closing sample (t, y, y') of a blowup run:
    near a type-I blowup 1/|Ric| is linear in t, so T = t + |Ric|^2 / tr(Ric
    Ric'), with Ric' = system.ricci_dot(y, y') exact (Ric is quadratic in y).
    None, None when Ric = 0 or |Ric| does not grow in the run's direction."""
    m = len(system.param_names)
    t, core, dcore = res.sample_t[-1], res.sample_y[-1, :m], res.sample_f[-1, :m]
    if not np.any(dcore):
        return None, None
    ric, dric = system.ricci(core), system.ricci_dot(core, dcore)
    ric2, growth = float(np.sum(ric * ric)), float(np.sum(ric * dric))
    if not np.sign(t - res.sample_t[0]) * growth > 0.0:  # also Ric = 0
        return None, None
    return float(t + ric2 / growth), ric2**1.5 / abs(growth)


def _run_flow(
    system: TensorFlowSystem,
    t_grid: np.ndarray,
    rtol: float,
    atol: float,
    events: EventConfig | Callable | None,
    gauge: bool = False,
    errors: list | None = None,
):
    """Solve the flow with its (c, tau) record on t_grid; events=None runs no
    event checks, and a callable in its place is the step callback (t, y,
    dy/dt, step) -> status or None, on the whole state.  With gauge=True the
    state also carries the bracket-side gauge h, h' = -(Ric + r I) h with Ric
    the sym vector the tangent read, and the result is the pair
    (FlowTrajectory, GaugeRecord) of that one solve.  A stage whose rate is
    undefined gets NaN, its NormalizationError goes to errors, and the run ends
    in 'normalization-undefined' on its next accepted step or step underflow."""
    m, n, full = system.core0.size, system.n, system.tables.full
    y0 = system.state0
    if gauge:
        y0 = np.concatenate([y0, np.eye(n).ravel()])
    errors = [] if errors is None else errors

    def rhs(t, y):
        try:
            f, r, ric = system.tangent(y)
        except NormalizationError as exc:
            errors.append(exc)
            return np.full(y.shape, np.nan)
        if not gauge:
            return f
        h = y[m + 2:].reshape(n, n)
        return np.concatenate([f, (-(ric[full] @ h) - r * h).ravel()])

    conv_count, trigger = 0, None  # trigger: the value that ends the run, set on its last step
    notes: list[str] = []

    def check_events(t, y, f, step):
        nonlocal conv_count, trigger
        core = y[:m]
        norm2 = system.aux_norm2(core)
        size = math.sqrt(norm2)
        if size > events.blowup_norm:
            trigger = size
            return TERM_BLOWUP
        speed = math.sqrt(2.0) * math.sqrt(float(f[:m].dot(f[:m])))  # 1-D np.linalg.norm
        if speed < events.conv_tangent:
            conv_count += 1
            if conv_count >= events.conv_window:
                trigger = speed
                return TERM_CONVERGED
        else:
            conv_count = 0
        drift = system.drift(core)  # quadratic in the bracket, as |mu|^2 is
        bound = events.drift_factor * rtol * max(1.0, norm2)
        if drift > bound:
            trigger = drift
            notes.append(
                f"Jacobi residual {drift:.3e} exceeded {bound:.3e} = "
                f"{events.drift_factor:g} * rtol * max(1, |mu|^2) at t = {t:.6g}"
            )
            return TERM_DRIFT
        return None

    step_events = check_events if isinstance(events, EventConfig) else events

    def callback(t, y, f, step):  # after a rate error, the next accepted step ends the run
        return TERM_UNDEFINED if errors else step_events and step_events(t, y, f, step)

    res = solve_rk54(rhs, y0, t_grid, rtol=rtol, atol=atol, sampling="dense",
                     step_callback=callback)
    if errors:  # the samples inside a step whose extension met the error are NaN: dropped
        ok = np.isfinite(res.sample_y).all(axis=1)
        res = replace(res, status=TERM_UNDEFINED, sample_t=res.sample_t[ok],
                      sample_y=res.sample_y[ok], sample_f=res.sample_f[ok])
        notes, trigger = [str(errors[0])], None
    traj = _trajectory(system, res, notes, trigger)
    return (traj, _gauge_record(res, "bracket", n)) if gauge else traj


def _trajectory(system, res: RKResult, notes=(), trigger=None) -> FlowTrajectory:
    """FlowTrajectory of a flow run whose states start with (core, c, tau);
    trigger is the value that ended it on an event, if recorded."""
    estimate = _blowup_estimate(system, res) if res.status == TERM_BLOWUP else (None, None)
    ys, m = res.sample_y, len(system.param_names)
    return FlowTrajectory(
        times=res.sample_t,
        states=ys[:, :m].copy(),
        derivs=res.sample_f[:, :m].copy(),
        c=ys[:, m].copy(),
        tau=ys[:, m + 1].copy(),
        system=system,
        strategy=system.strategy,
        termination=res.status,
        stats=IntegrationStats(res.n_steps, res.n_rejected, res.nfev, *estimate, trigger),
        notes=tuple(notes),
    )


def _check_strategy_start(mu: BracketTensor, strategy: Normalization) -> None:
    _require_pointwise(strategy)
    if strategy.kind == "scalar-curvature":
        rep = curvature_pieces(mu)
        if abs(rep.R) < 1e-12:
            raise NormalizationError(
                "scalar-curvature normalization needs R(mu0) != 0"
            )
    if strategy.kind == "bracket-norm" and float(np.sum(mu.mu_p**2)) == 0.0:
        raise NormalizationError("bracket-norm normalization needs mu_p(0) != 0")
    if strategy.kind == "custom" and strategy.rate_fn is None:
        raise NormalizationError("custom normalization needs a rate function")


def integrate(
    point: HomogeneousPoint,
    strategy: Normalization = UNNORMALIZED,
    t_span: tuple[float, float] = (0.0, 1.0),
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 200,
    events: EventConfig = EventConfig(),
) -> FlowTrajectory:
    """Integrate the (normalized) bracket flow from a validated point.

    Backward runs use a decreasing t_span; the trajectory then carries
    strictly decreasing sample times.  The record (c, tau) starts at (1, 0) at
    t_span[0], so tau = t - t_span[0] unnormalized; the rescalings offset their
    tau by the source's first time.  A run that fails ends typed, keeping its
    samples: in 'validity-drift' at a Jacobi drift past the event bound, in
    'normalization-undefined' at a stage whose rate is undefined (see _run_flow).
    """
    point.require_valid()
    _check_strategy_start(point.bracket, strategy)
    grid = np.linspace(float(t_span[0]), float(t_span[1]), samples)
    return _run_flow(TensorFlowSystem(point.bracket, strategy), grid, rtol, atol, events)


def integrate_reduced(
    family, params0, strategy: Normalization = UNNORMALIZED,
    t_span: tuple[float, float] = (0.0, 1.0), **options,
) -> FlowTrajectory:
    """Integrate the reduced parameter-space flow of a catalog family: the
    batch of one of integrate_reduced_batch, whose keyword options it takes."""
    return integrate_reduced_batch(family, [params0], strategy, t_span, **options)[0]


def integrate_reduced_batch(
    family,
    params0s,
    strategy: Normalization = UNNORMALIZED,
    t_span: tuple[float, float] = (0.0, 1.0),
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 200,
    events: EventConfig = EventConfig(),
) -> list:
    """Integrate the reduced flow of a catalog family from every row of
    params0s (B, P), all cells stepped together in one solve_rk54_batch.

    Returns per cell its FlowTrajectory; a kind with no pointwise rate raises
    NormalizationError up front.  A cell whose rate is undefined at a stage
    ends as a tensor run does, in 'normalization-undefined' with its samples
    and the error in notes.  The events run per cell, and each cell's result
    is bitwise that of the cell integrated alone.  The step callback tests
    them as arrays over the cells that just accepted a step and returns
    {index: status} for the cells that end, so a status string is made only
    for those.
    """
    _require_pointwise(strategy)
    params0s = np.asarray(params0s, dtype=float)
    system = ReducedFlowSystem(family, strategy)
    errors: dict[int, NormalizationError] = {}
    failed = np.zeros(len(params0s), dtype=bool)  # the cells in errors

    def rhs(t, Y, rows):
        dcore, r, undefined = system.tangent(Y[:, :-2].T)
        for j, exc in undefined.items():
            errors.setdefault(int(rows[j]), exc)
            failed[rows[j]] = True
        out, c = np.empty_like(Y), Y[:, -2]
        out[:, :-2], out[:, -2], out[:, -1] = dcore.T, r * c, c * c
        return out

    conv_count = np.zeros(len(params0s), dtype=int)

    def callback(t, Y, F, h, rows):
        undefined, dcore = failed[rows], F[:, :-2]
        blowup = np.sqrt(family.aux_norm2(Y[:, :-2].T)) > events.blowup_norm
        small = np.sqrt(2.0) * np.sqrt(np.add.reduce(dcore * dcore, axis=1)) < events.conv_tangent
        count = conv_count[rows] = np.where(small, conv_count[rows] + 1, 0)
        converged = count >= events.conv_window
        return {
            j: TERM_UNDEFINED if undefined[j] else TERM_BLOWUP if blowup[j] else TERM_CONVERGED
            for j in (undefined | blowup | converged).nonzero()[0].tolist()
        }

    results = solve_rk54_batch(
        rhs,
        np.column_stack([params0s, np.ones(len(params0s)), np.zeros(len(params0s))]),
        np.linspace(float(t_span[0]), float(t_span[1]), samples),
        rtol=rtol,
        atol=atol,
        step_callback=callback,
    )
    return [_trajectory(system, replace(res, status=TERM_UNDEFINED), [str(errors[g])])
            if g in errors else _trajectory(system, res) for g, res in enumerate(results)]


# ---------------------------------------------------------------------------
# Metric-side Ricci flow.


@dataclass(frozen=True, eq=False)
class MetricState:
    """Inner product <P., .> relative to the fixed one; P symmetric positive."""

    P: np.ndarray


def _block_maps(q: int, h: np.ndarray) -> np.ndarray:
    """diag(I_q, h) for a map h (n, n) on p, or for each map of a stack (m, n, n)."""
    n = h.shape[-1]
    out = np.zeros((*h.shape[:-2], q + n, q + n))
    out[..., :q, :q] = np.eye(q)
    out[..., q:, q:] = h
    return out


def _metric_ricci_form(mu0: BracketTensor) -> Callable[[np.ndarray], tuple]:
    """P -> (R, P^-1), R the Ricci form of the inner product <P., .> on p
    (Besse, Einstein Manifolds, 7.38, in the basis X_i with Gram matrix P):
    R = -1/2 sum P^-1_ab mu_xak P_kl mu_ybl + 1/4 P W P - B/2 - sym(V P), with
    mu the p-part of mu0, B its Killing form, t_i = tr ad(X_i),
    W_kl = sum P^-1_ac P^-1_bd mu_abk mu_cdl and V_xk = sum (P^-1 t)_a mu_axk.
    The P-free contractions are made once, here; the Ricci operator is P^-1 R.
    A P that is not positive definite raises LinAlgError (a ValueError) from
    the Cholesky test; a non-finite P gives a NaN R.
    """
    n, mu = mu0.n, mu0.mu_p
    # Each term's weight (-1/2, 1/4, -1/2) sits on its P-free factor.
    first = -0.5 * np.einsum("xak,ybl->xyabkl", mu, mu).reshape(n * n, -1)
    second = 0.25 * np.einsum("abk,cdl->klacbd", mu, mu).reshape(n * n, -1)
    half_b = 0.5 * _killing(mu0.c, mu0.q)
    t, mu_flat = np.einsum("ijj->i", mu), -0.5 * mu.reshape(n, n * n)

    def form(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        np.linalg.cholesky(p)  # the positive-definiteness test
        p_inv = np.linalg.inv(p)
        m = (first @ np.multiply.outer(p_inv, p).ravel()).reshape(n, n)
        w = (second @ np.multiply.outer(p_inv, p_inv).ravel()).reshape(n, n)
        vp = ((p_inv @ t) @ mu_flat).reshape(n, n) @ p
        return m + p @ w @ p - half_b + (vp + vp.T), p_inv

    return form


def metric_ricci(p: np.ndarray, mu0: BracketTensor) -> np.ndarray:
    """Ricci operator P^-1 R of the inner product <P., .> on the fixed space."""
    r, p_inv = _metric_ricci_form(mu0)(p)
    return p_inv @ r


def metric_rhs(state: MetricState, point0: HomogeneousPoint) -> np.ndarray:
    """Tangent -2 P Ric(<P., .>) = -2 R of the metric-side flow; symmetric."""
    point0.require_valid()
    mu0 = point0.bracket
    p = np.asarray(state.P, dtype=float)
    if np.isfinite(p).all():  # first: a non-finite P would poison the compatibility test
        tol = _core.COMPATIBILITY_TOL * (1.0 + np.linalg.norm(p))
        if _core.compatibility_residual(mu0, p) > tol:
            raise CompatibilityError("inner product is not invariant under the isotropy operators")
        with suppress(np.linalg.LinAlgError):  # from the Cholesky test
            return -2.0 * _metric_ricci_form(mu0)(p)[0]
    raise ValueError("metric operator must be positive definite")


@dataclass(frozen=True, eq=False)
class MetricTrajectory:
    times: np.ndarray
    P: np.ndarray
    point0: HomogeneousPoint
    termination: str
    stats: IntegrationStats

    @property
    def n(self) -> int:
        return self.P.shape[1]


def _pack_sym(p: np.ndarray) -> np.ndarray:
    return p[_pairs(p.shape[0], 0)]


@lru_cache(maxsize=None)
def _sym_index(n: int) -> np.ndarray:
    """Read-only (n, n) index of each entry's slot in the packed upper triangle."""
    iu, ju = _pairs(n, 0)
    idx = np.empty((n, n), dtype=np.intp)
    idx[iu, ju] = idx[ju, iu] = np.arange(iu.size)
    idx.setflags(write=False)
    return idx


def _unpack_sym(n: int, y: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) of a packed upper triangle, or (m, n, n) of a stack (m, k)."""
    return y[..., _sym_index(n)]


def integrate_metric(
    point0: HomogeneousPoint,
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 200,
) -> MetricTrajectory:
    """Integrate dP/dt = -2 P Ric(<P., .>) = -2 R from P(0) = I, with R the
    Ricci form of <P., .> computed from P and P^-1 (see _metric_ricci_form).

    Steps DOP853 at half of rtol and atol.  Ends in 'blowup-detected' once
    |P| > 1e8, and in 'validity-drift' once P's commutator with an isotropy
    operator (core.compatibility_residual) passes EventConfig().drift_factor *
    rtol * |P|, as a run collapsing toward a finite-time singularity does;
    either keeps its samples, and raises nothing.  A trial stage whose P is
    not positive definite (its Cholesky test fails) or not finite gets a NaN
    derivative and is rejected, so a run heading for a degenerate metric ends
    in 'step-underflow' with its samples so far.
    """
    point0.require_valid()
    grid = np.linspace(float(t_span[0]), float(t_span[1]), samples)
    return _run_metric(point0, grid, rtol, atol)


def _run_metric(
    point0: HomogeneousPoint,
    t_grid: np.ndarray,
    rtol: float,
    atol: float,
    gauge: bool = False,
):
    """Solve the metric flow dP/dt = -2 R on t_grid, R the Ricci form of
    <P., .>.  With gauge=True the state also carries the metric-side gauge h,
    h' = -h P^-1 R, both terms from one _metric_ricci_form call, and the
    result is the pair (MetricTrajectory, GaugeRecord) of that one solve.
    The run ends in 'validity-drift' once P's isotropy residual passes
    drift_factor * rtol * |P|, the twin of the bracket side's Jacobi drift."""
    mu0 = point0.bracket
    n = mu0.n
    k = n * (n + 1) // 2  # the packed P ahead of the gauge
    form = _metric_ricci_form(mu0)
    drift_bound = EventConfig().drift_factor * rtol
    y0 = _pack_sym(np.eye(n))
    if gauge:
        y0 = np.concatenate([y0, np.eye(n).ravel()])

    def rhs(t, y):
        try:
            r, p_inv = form(_unpack_sym(n, y[:k]))
        except ValueError:  # LinAlgError: a trial stage whose P is not positive definite
            return np.full(y.shape, np.nan)
        if not gauge:
            return _pack_sym(-2.0 * r)
        dh = -(y[k:].reshape(n, n) @ (p_inv @ r))
        return np.concatenate([_pack_sym(-2.0 * r), dh.ravel()])

    trigger = None  # the |P| or isotropy residual that ends the run, set on its last step

    def callback(t, y, f, step):
        nonlocal trigger
        p = _unpack_sym(n, y[:k])
        size = float(np.linalg.norm(p))
        if size > _METRIC_BLOWUP_NORM:
            trigger = size
            return TERM_BLOWUP
        residual = _core.compatibility_residual(mu0, p)
        if residual > drift_bound * size:
            trigger = residual
            return TERM_DRIFT
        return None

    res = solve_rk54(rhs, y0, t_grid, rtol=rtol, atol=atol, step_callback=callback,
                     sampling="dense")
    mtraj = MetricTrajectory(
        times=res.sample_t,
        P=_unpack_sym(n, res.sample_y[:, :k]),
        point0=point0,
        termination=res.status,
        stats=IntegrationStats(res.n_steps, res.n_rejected, res.nfev, trigger_value=trigger),
    )
    return (mtraj, _gauge_record(res, "metric", n)) if gauge else mtraj


# ---------------------------------------------------------------------------
# Gauge ODEs (the time-dependent equivalence maps).


@dataclass(frozen=True, eq=False)
class GaugeRecord:
    """Sampled gauge h(t) with h(0) = I, integrated together with its flow in
    one solve: the bracket side with the bracket flow, the metric side with
    the metric flow.  times, termination and stats are those of that solve,
    so the gauge covers exactly the samples its flow covers.
    """

    times: np.ndarray
    h: np.ndarray
    side: str
    termination: str
    stats: IntegrationStats

    def pushforward(self, mu0: BracketTensor, i: int) -> BracketTensor:
        return act_gl(mu0, np.eye(mu0.q), self.h[i], require_compatible=False)


def _gauge_record(res: RKResult, side: str, n: int) -> GaugeRecord:
    """The gauge of a paired solve, whose states end with vec h."""
    return GaugeRecord(
        times=res.sample_t, h=res.sample_y[:, -n * n:].reshape(-1, n, n), side=side,
        termination=res.status, stats=IntegrationStats(res.n_steps, res.n_rejected, res.nfev),
    )


def integrate_gauge(traj, side: str = "bracket") -> GaugeRecord:
    """The gauge h(t), h(0) = I, of a stored trajectory, sampled at its times.

    side='bracket': dh/dt = -(Ric_mu(t) + r(t) I) h along a FlowTrajectory;
    the tensor flow restarts from its first bracket under its strategy, so
    reduced and rescaled trajectories work too.
    side='metric':  dh/dt = -h Ric(<P(t)., .>) along a MetricTrajectory.
    The gauge is integrated together with its flow: the pair is re-solved from
    the trajectory's start on traj.times, at the gauge tolerances (1e-10,
    1e-13) and without the flow's events; no sample is interpolated.  A
    re-solve that stops short ends the record with its stopping sample.
    """
    if side == "bracket":
        system = TensorFlowSystem(traj.bracket_at(0), traj.strategy)
        return _run_flow(system, traj.times, _FINE_RTOL, _FINE_ATOL, None, gauge=True)[1]
    if side == "metric":
        return _run_metric(traj.point0, traj.times, _FINE_RTOL, _FINE_ATOL, gauge=True)[1]
    raise ValueError("side must be 'bracket' or 'metric'")


# ---------------------------------------------------------------------------
# Reparametrization between unnormalized and normalized solutions.


_AUTO_HORIZON = 100.0
_TAU_END, _ZERO_SCALE = "tau-exhausted", "zero-scale"


def reparametrize(
    traj: FlowTrajectory,
    strategy: Normalization,
    *,
    samples: int = 200,
) -> FlowTrajectory:
    """Build the normalized solution c(t) . mu(tau(t)) from an unnormalized run.

    Solves the r-normalized flow (RICCI_NORM included) from the run's first
    bracket, with its scaling record c' = r c, tau' = c^2 (tau counted in the
    source's time), until tau reaches the end of the source (up to t = 100), in
    one solve that ends once tau is within its own error of the source end.  Its
    last step's 7th-degree extension gives t*, the root of tau(t) = tau_end (or
    that step's end), and the extensions of the steps it keeps give the samples
    on [0, t*].  Termination: 'reached-t-end'; 'converged-to-fixed-point' when
    the normalized bracket collapses to zero (tau stalling short of the source
    end while the scaling dies, reported in the notes); 'normalization-undefined'
    at a stage whose rate is undefined; or 'step-underflow' as the steps underflow.
    """
    if strategy.kind != "ricci-norm":
        _require_pointwise(strategy)
    if traj.strategy.kind != "none":
        raise ValueError("reparametrization expects an unnormalized source trajectory")
    if traj.is_backward:
        raise ValueError("reparametrization expects a forward source trajectory")
    if not isinstance(traj.system, TensorFlowSystem):
        raise ValueError("reparametrization expects a bracket-flow source trajectory")
    system = TensorFlowSystem(traj.bracket_at(0), strategy)
    tab, m = system.tables, system.core0.size
    if strategy.kind == "ricci-norm" and tab.ricci_norm2(system.core0) < 1e-24:
        raise NormalizationError("ricci-norm rescaling needs a nonflat start")
    tau0, tau_max = float(traj.times[0]), float(traj.times[-1])
    tau_end = tau_max - tau0
    # The solve ends once tau is within its own error of the source end,
    # which tau may approach only asymptotically.
    tau_stop = tau_end - (_FINE_ATOL + _FINE_RTOL * tau_end)
    pp = tab.rate_w > 0  # the p x p entries: the isotropy rows never rescale
    zero = 1e-9 * max(float(np.sqrt(2.0 * np.sum(system.core0[pp] ** 2))), 1.0)
    steps = []  # the accepted steps (extend, k, s, h, y), with s = t
    errors = []  # the rate errors of the solve and of the steps' later extensions

    def stop(t, y, f, step):
        steps.append((step[0], step[1].copy(), *step[2:]))
        if y[m + 1] >= tau_stop:
            return _TAU_END
        if np.sqrt(2.0 * np.sum(y[:m][pp] ** 2)) < zero:
            return _ZERO_SCALE
        return None

    run = _run_flow(system, np.array([0.0, _AUTO_HORIZON]), _FINE_RTOL, _FINE_ATOL, stop,
                    errors=errors)
    status = run.termination
    if steps:  # none when the start's derivative is not finite
        # t* is the first root in [0, 1] of tau(x) = tau_end on the last step's
        # extension (tau' = c^2 >= 0, so that step brackets it), or the end of
        # that step when its extension stays short of it.
        extend, k, s, h, y = last = steps[-1]
        nfev = run.stats.nfev + extend(k, s, h, y)
        coef = [*((h * k[:, m + 1]) @ DOP853.p)[::-1], y[m + 1] - tau_end]
        roots = np.roots(coef) if np.isfinite(coef).all() else []  # else a rate error
        xs = [x.real for x in roots if abs(x.imag) <= 1e-9 and 0.0 <= x.real <= 1.0]
        grid = np.linspace(0.0, s + h * min(xs) if status == _TAU_END and xs else s + h,
                           samples)
        # The samples of each kept step; a step that holds one is extended once.
        ends = np.searchsorted(grid, [st[2] + st[3] for st in steps[:-1]], side="right")
        parts = []
        for st, i, j in zip(steps, [0, *ends], [*ends, samples]):
            if j > i:
                if st is not last:
                    nfev += extend(*st[1:])
                parts.append(_dense_samples(*st[1:], grid[i:j]))
        ys, fs = np.vstack([p[0] for p in parts]), np.vstack([p[1] for p in parts])
        if errors:  # a stage or an extension met a rate error: the solve's samples stay
            status, run = TERM_UNDEFINED, replace(run, notes=(str(errors[0]),))
        else:
            run = replace(run, times=grid, states=ys[:, :m], derivs=fs[:, :m], c=ys[:, m],
                          tau=ys[:, m + 1], stats=replace(run.stats, nfev=nfev))
    tau = run.tau + tau0
    termination, notes = TERM_REACHED_END if status == _TAU_END else status, run.notes
    if status == _ZERO_SCALE:
        termination = TERM_CONVERGED
        notes = ("normalized bracket collapsed to zero while tau stalled at "
                 f"{tau[-1]:.6g} < {tau_max:.6g}",)
    return replace(run, tau=tau, termination=termination, notes=notes)


def rescale_to_ricci_norm(
    traj: FlowTrajectory,
    *,
    samples: int = 200,
) -> FlowTrajectory:
    """Reparametrize an unnormalized run so tr(Ric^2) stays constant: the
    scaling is c = (tr Ric_0^2 / tr Ric(mu(tau))^2)^(1/4).  This is
    reparametrize(traj, RICCI_NORM), which also raises on a flat start."""
    return reparametrize(traj, RICCI_NORM, samples=samples)


def ricci_norm_rate(mu: BracketTensor) -> float:
    """Pointwise rate keeping tr(Ric^2) constant along the normalized flow.

    Derived from the evolution equation of Ric: the unnormalized part D0
    gives d tr(Ric^2)/dt = 2 tr(Ric D0) + 4 r tr(Ric^2) = 0.
    """
    return TensorFlowSystem(mu, RICCI_NORM).rate()


# ---------------------------------------------------------------------------
# Numerical verification of the flow equivalence.


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Max deviations between bracket-side and metric-side solutions; stats
    holds the counts of the two solves, each a flow integrated together with
    its gauge, keyed like per_side (bracket, metric).  The max_* fields and
    each side's bracket_dev |h . mu0 - mu(t)| and metric_dev |h^t h - P(t)|
    are absolute, so a partial report whose shared prefix ends next to a
    blowup can exceed a fixed threshold on the scale of mu alone; each side
    also holds bracket_rel_dev and metric_rel_dev, the max over the samples
    of the same deviations divided by |mu(t)| and |P(t)|."""

    times: np.ndarray
    max_bracket_dev: float
    max_metric_dev: float
    iso_drift: float
    per_side: dict
    partial: bool
    stats: dict

    def as_dict(self) -> dict:
        return {
            "t_start": float(self.times[0]),
            "t_final": float(self.times[-1]),
            "max_bracket_dev": self.max_bracket_dev,
            "max_metric_dev": self.max_metric_dev,
            "iso_drift": self.iso_drift,
            "per_side": self.per_side,
            "partial": self.partial,
            "stats": {
                solve: {"steps": st.n_steps, "rejected_steps": st.n_rejected, "rhs_evals": st.nfev}
                for solve, st in self.stats.items()
            },
        }


_BLOCK = 64  # samples per stacked pushforward in equivalence_report


def _shared_prefix(records) -> int:
    """Number of leading samples whose times agree bitwise across records."""
    m = min(len(r.times) for r in records)
    same = np.all([r.times[:m] == records[0].times[:m] for r in records], axis=0)
    return int(np.logical_and.accumulate(same).sum())


def equivalence_report(
    point0: HomogeneousPoint,
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 601,
) -> EquivalenceReport:
    """Integrate the bracket flow and the metric flow, each together with its
    gauge, and compare.

    Checks that the gauge pushforward of the initial bracket reproduces the
    bracket flow and that h^t h reproduces the metric flow; both checks are
    gauge-invariant, so either gauge must pass them.  Each pair is one solve
    at min(rtol, 1e-10) and min(atol, 1e-13), stepping freely as every tensor
    and metric solve does; each comparison runs on all samples at once.  When
    a pair stops short of the end of t_span, the report is marked partial and
    compares only the leading samples whose times both pairs share, as after a
    blowup or a validity drift on either side.
    """
    point0.require_valid()
    mu0 = point0.bracket
    grid = np.linspace(float(t_span[0]), float(t_span[1]), samples)
    rtol, atol = min(rtol, _FINE_RTOL), min(atol, _FINE_ATOL)
    traj, bracket_gauge = _run_flow(TensorFlowSystem(mu0, UNNORMALIZED), grid, rtol, atol,
                                    EventConfig(), gauge=True)
    mtraj, metric_gauge = _run_metric(point0, grid, rtol, atol, gauge=True)
    gauges = {"bracket": bracket_gauge, "metric": metric_gauge}
    partial = any(r.termination != TERM_REACHED_END for r in (traj, mtraj))
    m = _shared_prefix((traj, mtraj))
    times = traj.times[:m]

    size_mu = np.sqrt(2.0 * np.sum(traj.states[:m] ** 2, axis=1))  # |mu(t)|
    size_p = np.sqrt(np.sum(mtraj.P[:m] ** 2, axis=(1, 2)))  # |P(t)|
    per_side = {}
    for side, gauge in gauges.items():
        h = gauge.h[:m]
        # In blocks of samples: the stacked action holds a few (block, d, d, d) arrays.
        pushed = np.concatenate([gl_action_packed(mu0.c, _block_maps(mu0.q, h[i:i + _BLOCK]))
                                 for i in range(0, m, _BLOCK)])
        # h^t h of a gauge near a blowup may overflow: an infinite deviation.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # The full tensor holds each packed (i < j) entry twice, its diagonal is 0.
            dev_mu = np.sqrt(2.0 * np.sum((pushed - traj.states[:m]) ** 2, axis=1))
            dev_p = np.sqrt(np.sum((h.swapaxes(1, 2) @ h - mtraj.P[:m]) ** 2, axis=(1, 2)))
            rel_mu, rel_p = dev_mu / size_mu, dev_p / size_p
        # fmax skips the NaN of an h^t h whose overflowed products cancel, and
        # of 0 / 0 on a zero bracket.
        per_side[side] = {key: float(np.fmax.reduce(dev, initial=0.0)) for key, dev in (
            ("bracket_dev", dev_mu), ("metric_dev", dev_p),
            ("bracket_rel_dev", rel_mu), ("metric_rel_dev", rel_p))}

    # Drift of the packed isotropy rows (i < q): their mirrors are exact negatives.
    d = mu0.dim
    rows = _pairs(d)[0] < mu0.q
    iso = traj.states[:m].reshape(m, -1, d)[:, rows] - pack_state(mu0).reshape(-1, d)[rows]
    iso_drift = float(np.abs(iso).max(initial=0.0))

    return EquivalenceReport(
        times=times,
        max_bracket_dev=max(dev["bracket_dev"] for dev in per_side.values()),
        max_metric_dev=max(dev["metric_dev"] for dev in per_side.values()),
        iso_drift=iso_drift,
        per_side=per_side,
        partial=partial,
        stats={"bracket": traj.stats, "metric": mtraj.stats},
    )
