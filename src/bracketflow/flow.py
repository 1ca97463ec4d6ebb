"""Bracket-flow, metric-flow and gauge ODEs with adaptive integration.

The bracket flow moves only the two components of mu restricted to p x p
(the isotropy rows are constant in time), so the integration state packs the
canonical i < j entries of the structure array and the tangent of the
isotropy rows is exactly zero.  Every trajectory co-integrates the scaling
pair (c, tau) with c' = r c, tau' = c^2, which ties a normalized run to its
unnormalized parent.  Blowup time and type come from the closing sample.

The bracket, metric and gauge ODEs and both solves of the (c, tau) rescaling
(the probe for the reachable horizon and the sampled rerun) all run through
one sampled solve, _rk.solve_rk54, and read its RKResult directly.

A single integration owns its state; trajectories and all inputs are
immutable once produced, so independent integrations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import core as _core
from ._rk import (
    TERM_REACHED_END,
    TERM_UNDERFLOW,
    HermitePath,
    RKResult,
    solve_rk54,
)
from .core import (
    BracketTensor,
    CompatibilityError,
    HomogeneousPoint,
    _canonical,
    _packed_names,
    _pairs,
    act_gl,
    act_pi_array,
    pack_array,
    pack_state,
    rescale,
    unpack_state,
)
from .curvature import (
    CurvatureReport,
    _ricci_evolution,
    curvature_pieces,
    ricci_operator,
)

__all__ = [
    "Normalization",
    "UNNORMALIZED",
    "VOLUME",
    "SCALAR_CURVATURE",
    "BRACKET_NORM",
    "RICCI_NORM",
    "custom_rate",
    "NormalizationError",
    "ValidityDriftError",
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
    "metric_rhs",
    "integrate_metric",
    "integrate_gauge",
    "reparametrize",
    "rescale_to_ricci_norm",
    "equivalence_report",
]

TERM_BLOWUP = "blowup-detected"
TERM_CONVERGED = "converged-to-fixed-point"
_TERM_DRIFT = "validity-drift"
_METRIC_BLOWUP_NORM = 1e8
_GAUGE_RTOL, _GAUGE_ATOL = 1e-10, 1e-13
_SCALING_RTOL, _SCALING_ATOL = 1e-10, 1e-13

_NO_POINTWISE_RATE = (
    "ricci-norm has no pointwise rate; integrate unnormalized and "
    "apply rescale_to_ricci_norm"
)


class NormalizationError(ValueError):
    """A normalization strategy cannot be applied to the given point."""


class ValidityDriftError(RuntimeError):
    """Membership residuals drifted past the abort threshold during a run."""

    def __init__(self, message: str, trajectory: "FlowTrajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


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


def _rate_from_scalars(
    strategy: Normalization,
    n: int,
    R: float,
    tr_ric2: float,
    tr_ric_m: float,
    mu_p_norm2: float,
) -> float:
    if strategy.kind == "none":
        return 0.0
    if strategy.kind == "volume":
        return -R / n
    if strategy.kind == "scalar-curvature":
        if R == 0.0:
            raise NormalizationError("scalar-curvature normalization needs R != 0")
        return -tr_ric2 / R
    if strategy.kind == "bracket-norm":
        if mu_p_norm2 == 0.0:
            raise NormalizationError("bracket-norm normalization needs mu_p != 0")
        return 4.0 * tr_ric_m / mu_p_norm2
    _require_pointwise(strategy)
    raise NormalizationError(f"unknown normalization kind {strategy.kind!r}")


def _report_rate(
    mu: BracketTensor, strategy: Normalization, rep: CurvatureReport, d0: np.ndarray | None
) -> float:
    """Normalization rate r of one bracket from its curvature report.

    d0 is the unnormalized Ric evolution D0, read by the ricci-norm rate only.
    """
    if strategy.kind == "custom":
        return float(strategy.rate_fn(mu))
    ric = rep.Ric
    tr_ric2 = float(np.sum(ric * ric))
    if strategy.kind == "ricci-norm":
        if tr_ric2 <= 0:
            raise NormalizationError("ricci-norm rate undefined at a flat bracket")
        return -float(np.sum(ric * d0)) / (2.0 * tr_ric2)
    return _rate_from_scalars(
        strategy, mu.n, rep.R, tr_ric2, float(np.sum(ric * rep.M)), float(np.sum(mu.mu_p**2))
    )


def _rate_and_ricci(mu: BracketTensor, strategy: Normalization) -> tuple[float, np.ndarray]:
    """Normalization rate r and Ricci operator of one bracket."""
    rep = curvature_pieces(mu)
    d0 = _ricci_evolution(mu.mu_p, rep)[0] if strategy.kind == "ricci-norm" else None
    return _report_rate(mu, strategy, rep, d0), rep.Ric


def normalization_rate(
    point: HomogeneousPoint | BracketTensor, strategy: Normalization
) -> float:
    """Normalization rate r for one bracket under the given strategy."""
    mu = point.bracket if isinstance(point, HomogeneousPoint) else point
    _require_pointwise(strategy)
    return _rate_and_ricci(mu, strategy)[0]


def _tangent_array(mu: BracketTensor, ric: np.ndarray, r: float) -> np.ndarray:
    """Structure array of the r-normalized flow tangent -pi(diag(0, Ric)) mu.

    Assembled componentwise on the p x p components, so the isotropy rows are
    exactly zero.
    """
    ck = mu.mu_k
    cp = mu.mu_p
    dck = np.einsum("xi,xjz->ijz", ric, ck) + np.einsum("xj,ixz->ijz", ric, ck)
    dcp = -act_pi_array(ric, cp)
    if r != 0.0:
        dck = dck + 2.0 * r * ck
        dcp = dcp + r * cp
    d = mu.dim
    q = mu.q
    dc = np.zeros((d, d, d))
    dc[q:, q:, :q] = dck
    dc[q:, q:, q:] = dcp
    return dc


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
    mu = point.bracket
    r, ric = _rate_and_ricci(mu, strategy)
    return _canonical(mu.q, mu.n, _tangent_array(mu, ric, r))


@dataclass(frozen=True)
class EventConfig:
    """Event thresholds for flow integration.

    blowup_norm triggers on the auxiliary tensor norm; conv_tangent must stay
    below threshold for conv_window consecutive accepted steps to declare
    convergence; the run aborts when the Jacobi residual exceeds
    drift_factor * rtol.
    """

    blowup_norm: float = 1e6
    conv_tangent: float = 1e-10
    conv_window: int = 8
    drift_factor: float = 1e3


@dataclass(frozen=True)
class IntegrationStats:
    """Step counts; after a blowup, the blowup time T on the run's own time axis
    and |T - t| |Ric| at the closing sample t, bounded at a type-I singularity."""

    n_steps: int
    n_rejected: int
    blowup_time_estimate: float | None = None
    blowup_ricci_product: float | None = None


class TensorFlowSystem:
    """Flow state = packed i < j structure entries of the full tensor."""

    kind = "bracket"

    def __init__(self, mu0: BracketTensor, strategy: Normalization):
        self.q, self.n = mu0.q, mu0.n
        self.strategy = strategy
        self.core0 = pack_state(mu0)
        self.param_names = _packed_names(self.q + self.n)

    def bracket(self, core: np.ndarray) -> BracketTensor:
        return unpack_state(self.q, self.n, core)

    def ricci(self, core: np.ndarray) -> np.ndarray:
        return ricci_operator(self.bracket(core))

    def tangent(self, core: np.ndarray) -> tuple[np.ndarray, float]:
        try:
            mu = self.bracket(core)
        except ValueError:  # a non-finite trial stage: the stepper rejects it
            return np.full(core.shape, np.nan), np.nan
        r, ric = _rate_and_ricci(mu, self.strategy)
        return pack_array(_tangent_array(mu, ric, r)), r

    def aux_norm2(self, core: np.ndarray) -> float:
        return 2.0 * float(np.dot(core, core))

    def drift(self, core: np.ndarray) -> float:
        return _core.jacobi_residual(self.bracket(core))

    def describe(self) -> dict:
        return {"kind": self.kind, "q": self.q, "n": self.n}


class ReducedFlowSystem:
    """Flow state = parameters of a catalog family (see families module)."""

    kind = "reduced"

    def __init__(self, family, params0, strategy: Normalization):
        self.family = family
        self.strategy = strategy
        self.core0 = np.asarray(params0, dtype=float)
        self.param_names = list(family.param_names)
        self._weights = np.asarray(family.rate_weights, dtype=float)

    def bracket(self, core: np.ndarray) -> BracketTensor:
        return self.family.embed(core)

    def ricci(self, core: np.ndarray) -> np.ndarray:
        return np.diag(self.family.ricci_diag(core))

    def rate(self, core: np.ndarray) -> float:
        """Rate r from the family's closed-form scalars."""
        if self.strategy.kind == "custom":
            return float(self.strategy.rate_fn(self.family.embed(core)))
        return _rate_from_scalars(self.strategy, *self.family.rate_scalars(core))

    def tangent(self, core: np.ndarray) -> tuple[np.ndarray, float]:
        base = self.family.rhs(core)
        if self.strategy.kind == "none":
            return base, 0.0
        r = self.rate(core)
        return base + r * self._weights * core, r

    def aux_norm2(self, core: np.ndarray) -> float:
        return self.family.aux_norm2(core)

    def drift(self, core: np.ndarray) -> float:
        return 0.0

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

    def interpolator(self) -> HermitePath:
        return HermitePath(self.times, self.states, self.derivs)

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
        }
        if self.stats.blowup_time_estimate is not None:
            d["blowup_time_estimate"] = self.stats.blowup_time_estimate
            d["blowup_ricci_product"] = self.stats.blowup_ricci_product
        if self.notes:
            d["notes"] = list(self.notes)
        return d


def _blowup_estimate(system, res: RKResult) -> tuple[float | None, float | None]:
    """(T, |T - t| |Ric|) from the closing sample (t, y, y') of a blowup run:
    near a type-I blowup 1/|Ric| is linear in t, so T = t + |Ric|^2 / tr(Ric
    Ric'), with Ric' exact as a central difference (Ric is quadratic in y).
    None, None when Ric = 0 or |Ric| does not grow in the run's direction."""
    t, core, dcore = res.sample_t[-1], res.sample_y[-1, :-2], res.sample_f[-1, :-2]
    if not np.any(dcore):
        return None, None
    h = float(np.linalg.norm(core) / np.linalg.norm(dcore))
    ric = system.ricci(core)
    dric = (system.ricci(core + h * dcore) - system.ricci(core - h * dcore)) / (2.0 * h)
    ric2, growth = float(np.sum(ric * ric)), float(np.sum(ric * dric))
    if not np.sign(t - res.sample_t[0]) * growth > 0.0:  # also Ric = 0
        return None, None
    return float(t + ric2 / growth), ric2**1.5 / abs(growth)


def _run_flow(
    system,
    t_span: tuple[float, float],
    rtol: float,
    atol: float,
    samples: int,
    events: EventConfig,
) -> FlowTrajectory:
    def rhs(t, y):
        dcore, r = system.tangent(y[:-2])
        cval = y[-2]
        return np.concatenate([dcore, [r * cval, cval * cval]])

    conv_count = 0
    drift_message: list[str] = []

    def callback(t, y, f, h):
        nonlocal conv_count
        core = y[:-2]
        if float(np.sqrt(system.aux_norm2(core))) > events.blowup_norm:
            return TERM_BLOWUP
        if float(np.sqrt(2.0) * np.linalg.norm(f[:-2])) < events.conv_tangent:
            conv_count += 1
            if conv_count >= events.conv_window:
                return TERM_CONVERGED
        else:
            conv_count = 0
        drift = system.drift(core)
        if drift > events.drift_factor * rtol:
            drift_message.append(
                f"Jacobi residual {drift:.3e} exceeded "
                f"{events.drift_factor:g} * rtol at t = {t:.6g}"
            )
            return _TERM_DRIFT
        return None

    res = solve_rk54(
        rhs,
        np.concatenate([system.core0, [1.0, 0.0]]),
        np.linspace(float(t_span[0]), float(t_span[1]), samples),
        rtol=rtol,
        atol=atol,
        step_callback=callback,
    )
    estimate = _blowup_estimate(system, res) if res.status == TERM_BLOWUP else (None, None)
    ys = res.sample_y
    traj = FlowTrajectory(
        times=res.sample_t,
        states=ys[:, :-2].copy(),
        derivs=res.sample_f[:, :-2].copy(),
        c=ys[:, -2].copy(),
        tau=ys[:, -1].copy(),
        system=system,
        strategy=system.strategy,
        termination=res.status,
        stats=IntegrationStats(res.n_steps, res.n_rejected, *estimate),
        notes=tuple(drift_message),
    )
    if res.status == _TERM_DRIFT:
        raise ValidityDriftError(drift_message[0], traj)
    return traj


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
    strictly decreasing sample times.  A Jacobi drift past the event
    threshold raises ValidityDriftError carrying the partial trajectory.
    """
    point.require_valid()
    _check_strategy_start(point.bracket, strategy)
    system = TensorFlowSystem(point.bracket, strategy)
    return _run_flow(system, t_span, rtol, atol, samples, events)


def integrate_reduced(
    family,
    params0,
    strategy: Normalization = UNNORMALIZED,
    t_span: tuple[float, float] = (0.0, 1.0),
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 200,
    events: EventConfig = EventConfig(),
) -> FlowTrajectory:
    """Integrate the reduced parameter-space flow of a catalog family."""
    _require_pointwise(strategy)
    system = ReducedFlowSystem(family, params0, strategy)
    return _run_flow(system, t_span, rtol, atol, samples, events)


# ---------------------------------------------------------------------------
# Metric-side Ricci flow.


@dataclass(frozen=True, eq=False)
class MetricState:
    """Inner product <P., .> relative to the fixed one; P symmetric positive."""

    P: np.ndarray


def _sym_sqrt(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric positive square root and its inverse."""
    w, v = np.linalg.eigh(p)
    if w.min() <= 0:
        raise ValueError("metric operator must be positive definite")
    sq = np.sqrt(w)
    return (v * sq) @ v.T, (v / sq) @ v.T


def _gauged_ricci(p: np.ndarray, mu0: BracketTensor):
    """(h, h^-1, Ric(diag(I, h) . mu0)) for the symmetric square root h of P.

    The point moved by diag(I, h) has the fixed inner product; the Ricci
    operator of <P., .> is its Ricci operator conjugated back by h.
    """
    hs, hs_inv = _sym_sqrt(p)
    gauged = act_gl(mu0, np.eye(mu0.q), hs, require_compatible=False)
    return hs, hs_inv, ricci_operator(gauged)


def metric_ricci(p: np.ndarray, mu0: BracketTensor) -> np.ndarray:
    """Ricci operator of the inner product <P., .> on the fixed space."""
    hs, hs_inv, ric = _gauged_ricci(p, mu0)
    return hs_inv @ ric @ hs


def _metric_tangent(p: np.ndarray, mu0: BracketTensor) -> np.ndarray:
    hs, _, ric = _gauged_ricci(p, mu0)
    return -2.0 * hs @ ric @ hs


def metric_rhs(state: MetricState, point0: HomogeneousPoint) -> np.ndarray:
    """Tangent -2 P Ric(<P., .>) of the metric-side flow; symmetric."""
    point0.require_valid()
    mu0 = point0.bracket
    p = np.asarray(state.P, dtype=float)
    if _core.compatibility_residual(mu0, p) > _core.COMPATIBILITY_TOL * (1.0 + np.linalg.norm(p)):
        raise CompatibilityError(
            "inner product is not invariant under the isotropy operators"
        )
    return _metric_tangent(p, mu0)


@dataclass(frozen=True, eq=False)
class MetricTrajectory:
    times: np.ndarray
    P: np.ndarray
    derivs: np.ndarray
    point0: HomogeneousPoint
    termination: str
    stats: IntegrationStats

    @property
    def n(self) -> int:
        return self.P.shape[1]

    def interpolator(self) -> HermitePath:
        m = self.P.shape[0]
        return HermitePath(
            self.times, self.P.reshape(m, -1), self.derivs.reshape(m, -1)
        )


def _pack_sym(p: np.ndarray) -> np.ndarray:
    return p[_pairs(p.shape[0], 0)]


def _unpack_sym(n: int, y: np.ndarray) -> np.ndarray:
    p = np.zeros((n, n))
    p[_pairs(n, 0)] = y
    p = p + p.T - np.diag(np.diag(p))
    return p


def integrate_metric(
    point0: HomogeneousPoint,
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 200,
) -> MetricTrajectory:
    """Integrate dP/dt = -2 P Ric(<P., .>) from P(0) = I.

    Ends in 'blowup-detected' once |P| > 1e8.  A trial stage whose P is not
    positive definite or not finite is rejected, so a run heading for a
    degenerate metric ends in 'step-underflow' with its samples so far.
    """
    point0.require_valid()
    mu0 = point0.bracket
    n = mu0.n

    def rhs(t, y):
        try:
            return _pack_sym(_metric_tangent(_unpack_sym(n, y), mu0))
        except ValueError:  # from _sym_sqrt, or an overflowed gauged bracket
            return np.full(y.shape, np.nan)

    def callback(t, y, f, h):
        if np.linalg.norm(_unpack_sym(n, y)) > _METRIC_BLOWUP_NORM:
            return TERM_BLOWUP
        return None

    res = solve_rk54(
        rhs,
        _pack_sym(np.eye(n)),
        np.linspace(float(t_span[0]), float(t_span[1]), samples),
        rtol=rtol,
        atol=atol,
        step_callback=callback,
    )
    return MetricTrajectory(
        times=res.sample_t,
        P=np.array([_unpack_sym(n, y) for y in res.sample_y]),
        derivs=np.array([_unpack_sym(n, f) for f in res.sample_f]),
        point0=point0,
        termination=res.status,
        stats=IntegrationStats(res.n_steps, res.n_rejected),
    )


# ---------------------------------------------------------------------------
# Gauge ODEs (the time-dependent equivalence maps).


@dataclass(frozen=True, eq=False)
class GaugeRecord:
    """Sampled gauge h(t) with h(0) = I, solving one of the two gauge ODEs.

    termination is 'reached-t-end', or 'step-underflow' when the gauge stops
    short of the end of its trajectory; times and h then cover the prefix
    up to the stop.
    """

    times: np.ndarray
    h: np.ndarray
    side: str
    termination: str

    def htt_h(self, i: int) -> np.ndarray:
        return self.h[i].T @ self.h[i]

    def pushforward(self, mu0: BracketTensor, i: int) -> BracketTensor:
        return act_gl(mu0, np.eye(mu0.q), self.h[i], require_compatible=False)


def integrate_gauge(traj, side: str = "bracket") -> GaugeRecord:
    """Integrate the gauge ODE along a stored trajectory.

    side='bracket': dh/dt = -(Ric_mu(t) + r(t) I) h over a FlowTrajectory.
    side='metric':  dh/dt = -h Ric(<P(t)., .>) over a MetricTrajectory.
    The underlying trajectory is interpolated with cubic Hermite polynomials
    built from its stored derivatives.  A trial stage whose interpolated P is
    not positive definite, or whose state is not finite, is rejected, so a
    gauge that cannot follow its trajectory to the end (as past a blowup)
    ends in 'step-underflow' with the prefix it covered.
    """
    if side not in ("bracket", "metric"):
        raise ValueError("side must be 'bracket' or 'metric'")
    path = traj.interpolator()

    if side == "bracket":
        system = traj.system
        n = traj.bracket_at(0).n
        normalized = traj.strategy.kind != "none"

        def rhs(t, y):
            core = path(t)
            ric = ricci_operator(system.bracket(core))
            if normalized:
                ric = ric + system.tangent(core)[1] * np.eye(n)
            return (-(ric @ y.reshape(n, n))).ravel()

    else:
        mu0 = traj.point0.bracket
        n = mu0.n

        def rhs(t, y):
            p = path(t).reshape(n, n)
            try:
                ric = metric_ricci(p, mu0)
            except ValueError:  # _sym_sqrt's, or a LinAlgError of its eigh
                return np.full(y.shape, np.nan)
            return (-(y.reshape(n, n) @ ric)).ravel()

    res = solve_rk54(rhs, np.eye(n).ravel(), traj.times, rtol=_GAUGE_RTOL, atol=_GAUGE_ATOL)
    return GaugeRecord(
        times=res.sample_t, h=res.sample_y.reshape(-1, n, n), side=side, termination=res.status
    )


# ---------------------------------------------------------------------------
# Reparametrization between unnormalized and normalized solutions.


class _SourceRun:
    """Unnormalized forward run, read at source times tau clamped to its span."""

    def __init__(self, traj: FlowTrajectory):
        if traj.strategy.kind != "none":
            raise ValueError("reparametrization expects an unnormalized source trajectory")
        if traj.is_backward:
            raise ValueError("reparametrization expects a forward source trajectory")
        self.traj = traj
        self.path = traj.interpolator()
        self.tau0 = float(traj.times[0])
        self.tau_max = float(traj.times[-1])

    def clamp(self, tau) -> float:
        return float(min(max(tau, self.tau0), self.tau_max))

    def bracket(self, tau) -> BracketTensor:
        return self.traj.system.bracket(self.path(self.clamp(tau)))

    def scaled(self, cval, tau) -> BracketTensor | None:
        """c . mu(tau), or None when that bracket overflows."""
        mu = self.bracket(tau)
        if not np.isfinite(cval * cval * np.abs(mu.c).max()):
            return None
        return rescale(cval, mu)

    def exhausted(self, tau) -> bool:
        return tau >= self.tau_max - 1e-12 * max(1.0, abs(self.tau_max))

    def stalled(self, tau) -> bool:
        """tau stopped clearly short of the source end."""
        return tau < self.tau_max - 1e-6 * max(1.0, abs(self.tau_max))


_AUTO_HORIZON = 100.0


def _scaling_ode(src: _SourceRun, rhs, callback, horizon, samples):
    """Two-phase solve of the (c, tau) system: a probe on [0, horizon] finds
    the reachable horizon, then a rerun samples a uniform grid over it;
    returns the probe's status with the rerun's RKResult.

    A trial stage that is not finite, or whose rescaled bracket overflows
    (rhs returns None), gets a NaN derivative, so the stepper rejects it.
    The probe's stopping step may overshoot tau_max, so the final horizon is
    backed off along tau' to land on the source boundary; otherwise the last
    samples would sit at clamped tau and spoil finite differencing there.
    """
    if horizon <= 0:
        raise ValueError("reparametrization needs t_end > 0")

    def f(t, y):
        dy = rhs(t, y) if np.isfinite(y).all() else None
        return np.full(2, np.nan) if dy is None else dy

    y0 = np.array([1.0, src.tau0])
    probe = solve_rk54(
        f, y0, np.array([0.0, horizon]), _SCALING_RTOL, _SCALING_ATOL, step_callback=callback
    )
    t_star = probe.sample_t[-1]
    if probe.status == "tau-exhausted":
        overshoot = float(probe.sample_y[-1, 1]) - src.tau_max
        tau_rate = float(probe.sample_f[-1, 1])
        if overshoot > 0 and tau_rate > 0:
            t_star -= overshoot / tau_rate
    if t_star <= 0:
        raise ValueError("reparametrized range too short to sample")
    res = solve_rk54(f, y0, np.linspace(0.0, t_star, samples), _SCALING_RTOL, _SCALING_ATOL)
    if len(res.sample_t) < 2:
        raise ValueError("reparametrized range too short to sample")
    return probe.status, res


def _scaled_trajectory(
    src: _SourceRun,
    strategy: Normalization,
    res: RKResult,
    scale_of,
    termination: str,
    notes: tuple[str, ...] = (),
) -> FlowTrajectory:
    """Normalized run c . mu(tau) on the sampled (c, tau) rows of res.

    scale_of(y, tau) gives c at a row and its clamped source time.
    """
    system = TensorFlowSystem(src.traj.bracket_at(0), strategy)
    states, derivs, cs, taus = [], [], [], []
    for y in res.sample_y:
        tau = src.clamp(y[1])
        cval = scale_of(y, tau)
        core = pack_state(src.scaled(cval, tau))
        states.append(core)
        derivs.append(system.tangent(core)[0])
        cs.append(cval)
        taus.append(tau)
    return FlowTrajectory(
        times=res.sample_t,
        states=np.array(states),
        derivs=np.array(derivs),
        c=np.array(cs),
        tau=np.array(taus),
        system=system,
        strategy=strategy,
        termination=termination,
        stats=IntegrationStats(res.n_steps, res.n_rejected),
        notes=notes,
    )


def reparametrize(
    traj: FlowTrajectory,
    strategy: Normalization,
    *,
    t_end: float | None = None,
    samples: int = 200,
) -> FlowTrajectory:
    """Build the normalized solution c(t) . mu(tau(t)) from an unnormalized run.

    Solves c' = r c, tau' = c^2 with the source trajectory interpolated in
    tau, over [0, t_end] or, with t_end=None, over what the source supports
    (up to t = 100); with an explicit t_end, running out of source range
    raises.  Termination: 'reached-t-end'; 'converged-to-fixed-point' when
    the normalized bracket collapses to zero (tau stalling short of the
    source end while the scaling dies, reported in the notes); or
    'step-underflow' when the steps underflow first, as where c . mu(tau)
    overflows near a blowup of the source, ending at the last accepted point.
    """
    _require_pointwise(strategy)
    src = _SourceRun(traj)

    def _pp_norm(mu: BracketTensor) -> float:
        # The isotropy rows never rescale, so collapse is measured on the
        # evolving p x p components only.
        p2, k2, _ = _core.component_norms(mu)
        return float(np.sqrt(p2 + k2))

    pp0 = _pp_norm(traj.bracket_at(0))

    def rhs(t, y):
        cval, tau = y
        mu = src.scaled(cval, tau)
        if mu is None:
            return None
        r = _rate_and_ricci(mu, strategy)[0]
        return np.array([r * cval, cval * cval])

    def callback(t, y, f, h):
        cval, tau = y
        if src.exhausted(tau):
            return "tau-exhausted"
        if _pp_norm(src.scaled(cval, tau)) < 1e-9 * max(pp0, 1.0):
            return "zero-scale"
        return None

    horizon = _AUTO_HORIZON if t_end is None else float(t_end)
    status, res = _scaling_ode(src, rhs, callback, horizon, samples)
    if t_end is not None and status == "tau-exhausted":
        raise ValueError(f"tau leaves the available source range before t_end={t_end}")

    notes: tuple[str, ...] = ()
    termination = TERM_UNDERFLOW if status == TERM_UNDERFLOW else TERM_REACHED_END
    final_c, final_tau = float(res.sample_y[-1][0]), float(res.sample_y[-1][1])
    if status == "zero-scale" or (
        src.stalled(final_tau)
        and _pp_norm(src.scaled(final_c, final_tau)) < 1e-8 * max(pp0, 1.0)
    ):
        notes = (
            "normalized bracket collapsed to zero while tau stalled at "
            f"{final_tau:.6g} < {src.tau_max:.6g}",
        )
        termination = TERM_CONVERGED
    return _scaled_trajectory(src, strategy, res, lambda y, tau: float(y[0]), termination, notes)


def rescale_to_ricci_norm(
    traj: FlowTrajectory,
    *,
    samples: int = 200,
) -> FlowTrajectory:
    """Reparametrize an unnormalized run so tr(Ric^2) stays constant.

    The scaling is c(tau) = (tr Ric_0^2 / tr Ric(mu(tau))^2)^(1/4) and the
    normalized time solves tau' = c(tau)^2 up to the end of the source.
    Raises on a flat start.  The termination is 'reached-t-end', or
    'step-underflow' as in reparametrize.  When tau stalls short of the
    source end (c dies as Ric grows near a blowup), a note says so.
    """
    src = _SourceRun(traj)
    ric0 = ricci_operator(traj.bracket_at(0))
    tr0 = float(np.sum(ric0 * ric0))
    if tr0 < 1e-24:
        raise NormalizationError("ricci-norm rescaling needs a nonflat start")

    def c_of_tau(tau):
        ric = ricci_operator(src.bracket(tau))
        tr = float(np.sum(ric * ric))
        if tr <= 0:
            raise NormalizationError("trajectory reached a flat bracket")
        return (tr0 / tr) ** 0.25

    # Same (c, tau)-state layout as reparametrize; c rides along for records.
    def rhs(t, y):
        cval = c_of_tau(float(y[1]))
        return np.array([0.0, cval * cval])

    def callback(t, y, f, h):
        return "tau-exhausted" if src.exhausted(y[1]) else None

    status, res = _scaling_ode(src, rhs, callback, _AUTO_HORIZON, samples)
    termination = TERM_UNDERFLOW if status == TERM_UNDERFLOW else TERM_REACHED_END
    tau = float(res.sample_y[-1][1])
    notes = (f"tau stalled at {tau:.6g} < {src.tau_max:.6g}",) if src.stalled(tau) else ()
    return _scaled_trajectory(
        src, RICCI_NORM, res, lambda y, tau: c_of_tau(tau), termination, notes
    )


def ricci_norm_rate(mu: BracketTensor) -> float:
    """Pointwise rate keeping tr(Ric^2) constant along the normalized flow.

    Derived from the evolution equation of Ric: the unnormalized part D0
    gives d tr(Ric^2)/dt = 2 tr(Ric D0) + 4 r tr(Ric^2) = 0.
    """
    return _rate_and_ricci(mu, RICCI_NORM)[0]


# ---------------------------------------------------------------------------
# Numerical verification of the flow equivalence.


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Max deviations between bracket-side and metric-side solutions."""

    times: np.ndarray
    max_bracket_dev: float
    max_metric_dev: float
    iso_drift: float
    per_side: dict
    partial: bool

    def as_dict(self) -> dict:
        return {
            "t_start": float(self.times[0]),
            "t_final": float(self.times[-1]),
            "max_bracket_dev": self.max_bracket_dev,
            "max_metric_dev": self.max_metric_dev,
            "iso_drift": self.iso_drift,
            "per_side": self.per_side,
            "partial": self.partial,
        }


def _shared_prefix(records) -> int:
    """Number of leading samples whose times agree bitwise across records."""
    m = min(len(r.times) for r in records)
    same = np.all([r.times[:m] == records[0].times[:m] for r in records], axis=0)
    return int(np.logical_and.accumulate(same).sum())


def _head(record, m: int, *fields: str):
    """The record cut to its first m samples, or whole when m < 2."""
    return replace(record, **{f: getattr(record, f)[:m] for f in fields}) if m >= 2 else record


def equivalence_report(
    point0: HomogeneousPoint,
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    samples: int = 601,
) -> EquivalenceReport:
    """Integrate bracket flow, metric flow and both gauge ODEs, and compare.

    Checks that the gauge pushforward of the initial bracket reproduces the
    bracket flow and that h^t h reproduces the metric flow; both checks are
    gauge-invariant, so either gauge ODE must pass them.  When a flow or a
    gauge stops short of the end of t_span, the report is marked partial and
    compares only the leading samples whose times all four records share.
    """
    mu0 = point0.bracket
    traj = integrate(point0, UNNORMALIZED, t_span, rtol=rtol, atol=atol, samples=samples)
    mtraj = integrate_metric(point0, t_span, rtol=rtol, atol=atol, samples=samples)
    # Each gauge follows its flow only over the samples both flows share, so
    # it never crawls through the closing segment of a run past a blowup.
    m = _shared_prefix((traj, mtraj))
    gauges = {
        "bracket": integrate_gauge(_head(traj, m, "times", "states", "derivs", "c", "tau")),
        "metric": integrate_gauge(_head(mtraj, m, "times", "P", "derivs"), "metric"),
    }
    records = (traj, mtraj, *gauges.values())
    partial = any(r.termination != TERM_REACHED_END for r in records)
    m = _shared_prefix(records)
    times = traj.times[:m]

    per_side = {}
    for side, gauge in gauges.items():
        dev_mu = 0.0
        dev_p = 0.0
        for i in range(m):
            pushed = gauge.pushforward(mu0, i)
            dev_mu = max(
                dev_mu,
                float(np.sqrt(np.sum((pushed.c - traj.bracket_at(i).c) ** 2))),
            )
            # h^t h of a gauge near a blowup may overflow: an infinite deviation.
            with np.errstate(over="ignore"):
                dev_p = max(dev_p, float(np.linalg.norm(gauge.htt_h(i) - mtraj.P[i])))
        per_side[side] = {"bracket_dev": dev_mu, "metric_dev": dev_p}

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
    )
