"""Numerical audits and qualitative classification of flow trajectories.

The identity audit compares finite differences of curvature quantities along
a trajectory against their analytic evolution laws (with the normalization
correction when a rate is active).  Classification applies a fixed decision
ladder to a terminated trajectory, and the injectivity-radius helpers report
the closed-form and generic lower bounds used to label convergence strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BracketTensor, InvalidPointError, act_pi_array, component_norms, validate_point
from .curvature import _ricci_evolution, _sym, curvature_pieces
from .families import Berger3, NoRealizationError
from .flow import (
    TERM_BLOWUP,
    TERM_CONVERGED,
    TERM_REACHED_END,
    FlowTrajectory,
    ReducedFlowSystem,
    _report_rate,
)

__all__ = [
    "AuditReport",
    "DerivationBasis",
    "SolitonDecomposition",
    "LimitClassification",
    "InjectivityBound",
    "identity_audit",
    "derivation_algebra",
    "block_derivations",
    "soliton_residual",
    "classify_limit",
    "injectivity_lower_bound",
]

IDENTITY_NAMES = ("Ric", "M", "B", "H", "U", "R", "mu_p_norm2", "trB", "H_norm2")


@dataclass(frozen=True)
class AuditReport:
    """Max relative error of each evolution identity along one trajectory."""

    max_rel_error: dict
    samples_checked: int
    strategy: str

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values())

    def passed(self, tol: float = 1e-4) -> bool:
        return self.worst <= tol

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "samples_checked": self.samples_checked,
            "max_rel_error": dict(self.max_rel_error),
            "worst": self.worst,
        }


def _central_derivative(tm, t0, tp, fm, f0, fp):
    """Three-point derivative at t0, exact for quadratics on nonuniform grids."""
    h1 = t0 - tm
    h2 = tp - t0
    return (
        -h2 / (h1 * (h1 + h2)) * fm
        + (h2 - h1) / (h1 * h2) * f0
        + h1 / (h2 * (h1 + h2)) * fp
    )


def _derivative_stencils(t: np.ndarray):
    """Centered finite-difference plans over the interior sample indices.

    On a uniform grid the fourth-order five-point stencil is used and the
    audited interior is the set of indices carrying a full stencil
    (quantities near blowup have large higher derivatives, where second
    order is not enough).  Nonuniform grids fall back to the three-point
    formula on all interior indices.
    """
    m = len(t)
    gaps = np.diff(t)
    h = gaps[0]
    uniform = np.all(np.abs(gaps - h) <= 1e-9 * abs(h))
    if uniform and m >= 7:
        return [(i, "five", h) for i in range(2, m - 2)]
    return [(i, "three", None) for i in range(1, m - 1)]


def identity_audit(traj: FlowTrajectory) -> AuditReport:
    """Check the nine curvature evolution identities along a trajectory.

    For each sampled interior time the finite difference of the quantity is
    compared with the analytic right-hand side evaluated there; normalized
    trajectories use the rate-corrected laws.  Relative error is measured
    against 1 + the right-hand-side norm to stay scale-aware.
    """
    m = traj.n_samples
    if m < 3:
        raise ValueError("identity audit needs at least three samples")

    quantities = {name: [] for name in IDENTITY_NAMES}
    rhs = {name: [] for name in IDENTITY_NAMES}
    # A reduced run's rate comes from the family's closed forms, as in its flow.
    reduced = isinstance(traj.system, ReducedFlowSystem)

    for i in range(m):
        mu = traj.bracket_at(i)
        rep = curvature_pieces(mu)
        mu_p = mu.mu_p
        ric = rep.Ric
        d0, lap, ad_h, ad_rich = _ricci_evolution(mu_p, rep)
        if reduced:
            r = traj.system.rate(traj.states[i])
        else:
            r = _report_rate(mu, traj.strategy, rep, d0)
        mu_p2 = float(np.sum(mu_p**2))
        h2 = float(rep.H @ rep.H)
        tr_b = float(np.trace(rep.B))

        quantities["Ric"].append(ric)
        quantities["M"].append(rep.M)
        quantities["B"].append(rep.B)
        quantities["H"].append(rep.H)
        quantities["U"].append(rep.U)
        quantities["R"].append(rep.R)
        quantities["mu_p_norm2"].append(mu_p2)
        quantities["trB"].append(tr_b)
        quantities["H_norm2"].append(h2)

        d_m = -0.5 * lap + 2 * r * rep.M
        d_b = rep.B @ ric + ric @ rep.B + 2 * r * rep.B
        d_u = 2 * _sym(ad_rich) + _sym(ad_h @ ric - ric @ ad_h) + 2 * r * rep.U
        rhs["Ric"].append(d0 + 2 * r * ric)
        rhs["M"].append(d_m)
        rhs["B"].append(d_b)
        rhs["H"].append(ric @ rep.H + r * rep.H)
        rhs["U"].append(d_u)
        rhs["R"].append(2 * float(np.sum(ric * ric)) + 2 * r * rep.R)
        rhs["mu_p_norm2"].append(-8 * float(np.sum(ric * rep.M)) + 2 * r * mu_p2)
        rhs["trB"].append(2 * float(np.sum(ric * rep.B)) + 2 * r * tr_b)
        rhs["H_norm2"].append(-2 * float(np.sum(rep.U * rep.U)) + 2 * r * h2)

    t = traj.times
    plans = _derivative_stencils(t)
    errors = {}
    for name in IDENTITY_NAMES:
        q = quantities[name]
        worst = 0.0
        for i, kind, h in plans:
            if kind == "five":
                fd = (q[i - 2] - 8 * q[i - 1] + 8 * q[i + 1] - q[i + 2]) / (12 * h)
            else:
                fd = _central_derivative(
                    t[i - 1], t[i], t[i + 1], q[i - 1], q[i], q[i + 1]
                )
            expect = rhs[name][i]
            err = np.linalg.norm(np.atleast_1d(fd - expect))
            scale = 1.0 + np.linalg.norm(np.atleast_1d(expect))
            worst = max(worst, float(err / scale))
        errors[name] = worst

    return AuditReport(
        max_rel_error=errors, samples_checked=len(plans), strategy=traj.strategy.kind
    )


@dataclass(frozen=True, eq=False)
class DerivationBasis:
    """Orthonormal basis (trace inner product) of a derivation algebra."""

    basis: list
    dim: int
    tol: float
    block: bool

    def residuals(self, mu: BracketTensor) -> list[float]:
        out = []
        for a in self.basis:
            full = self._full(a, mu)
            out.append(float(np.linalg.norm(act_pi_array(full, mu.c))))
        return out

    def _full(self, a: np.ndarray, mu: BracketTensor) -> np.ndarray:
        if not self.block:
            return a
        d = mu.dim
        full = np.zeros((d, d))
        full[mu.q :, mu.q :] = a
        return full


def _derivations(mu: BracketTensor, tol: float, block: bool) -> DerivationBasis:
    """Kernel of A -> pi(A) mu over the operators on g, or on p when block."""
    d = mu.dim
    q = mu.q if block else 0
    m = d - q
    cols = []
    for x in range(m):
        for y in range(m):
            e = np.zeros((d, d))
            e[q + x, q + y] = 1.0
            cols.append(act_pi_array(e, mu.c).ravel())
    mat = np.column_stack(cols)
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    smax = s.max() if len(s) else 0.0
    cut = tol * smax if smax > tol else tol
    basis = [vt[i].reshape(m, m) for i in range(m * m) if i >= len(s) or s[i] < cut]
    return DerivationBasis(basis=basis, dim=len(basis), tol=tol, block=block)


def derivation_algebra(mu: BracketTensor, tol: float = 1e-8) -> DerivationBasis:
    """Orthonormal basis of the kernel of A -> pi(A) mu over gl(g).

    Rank is cut at singular values below tol times the largest one.
    """
    return _derivations(mu, tol, block=False)


def block_derivations(mu: BracketTensor, tol: float = 1e-8) -> DerivationBasis:
    """Derivations of block form diag(0, A) with A an operator on p."""
    return _derivations(mu, tol, block=True)


@dataclass(frozen=True, eq=False)
class SolitonDecomposition:
    residual: float
    c: float
    D: np.ndarray


def soliton_residual(point, tol: float = 1e-8) -> SolitonDecomposition:
    """Least-squares distance of Ric from span{I} + block derivations.

    Residual (up to tolerance) zero exactly on algebraic solitons; returns
    the minimizing scalar c and derivation part D.
    """
    point.require_valid()
    mu = point.bracket
    ric = curvature_pieces(mu).Ric
    der = block_derivations(mu, tol)
    n = mu.n
    cols = [np.eye(n).ravel()] + [b.ravel() for b in der.basis]
    mat = np.column_stack(cols)
    coef = np.linalg.lstsq(mat, ric.ravel(), rcond=None)[0]
    fit = mat @ coef
    residual = float(np.linalg.norm(ric.ravel() - fit))
    d_part = (fit - coef[0] * np.eye(n).ravel()).reshape(n, n)
    return SolitonDecomposition(residual=residual, c=float(coef[0]), D=d_part)


@dataclass(frozen=True, eq=False)
class LimitClassification:
    verdict: str
    witness: BracketTensor | None
    residuals: dict
    labels: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "labels": list(self.labels),
        }


def _final_ricci(traj: FlowTrajectory):
    """Final Ric and (when realizable) the final bracket."""
    try:
        mu = traj.final_bracket()
        return curvature_pieces(mu).Ric, mu
    except NoRealizationError:
        return traj.system.ricci(traj.states[-1]), None


def _soliton_rel(traj: FlowTrajectory, mu, scale: float):
    if mu is not None:
        try:
            return soliton_residual(validate_point(mu)).residual / scale
        except (InvalidPointError, np.linalg.LinAlgError):  # drifted off the set; SVD/lstsq
            return None
    fam = getattr(traj.system, "family", None)
    if fam is not None and hasattr(fam, "soliton_residual_closed"):
        return fam.soliton_residual_closed(traj.states[-1]) / scale
    return None


def classify_limit(
    traj: FlowTrajectory,
    *,
    flat_tol: float = 1e-6,
    einstein_tol: float = 1e-6,
    soliton_tol: float = 1e-6,
    zero_tol: float = 1e-6,
) -> LimitClassification:
    """Classify the end state of a terminated trajectory.

    Ladder: finite-time blowup; converged to a fixed point (tested as
    Einstein, then algebraic soliton, then flat, with the scalar scale
    1 + |Ric| keeping the thresholds scale-aware); p-part collapsed to zero;
    bounded backward run (ancient); otherwise inconclusive.  The Einstein
    and soliton tests require a genuinely nonflat limit so that a vanishing
    Ricci operator is classified flat rather than trivially Einstein.
    """
    ric, mu = _final_ricci(traj)
    n = ric.shape[0]
    ric_norm = float(np.linalg.norm(ric))
    scale = 1.0 + ric_norm
    r_mean = float(np.trace(ric)) / n
    einstein_dev = float(np.linalg.norm(ric - r_mean * np.eye(n))) / scale

    residuals = {
        "ric_norm": ric_norm,
        "einstein_dev": einstein_dev,
        "final_R": float(np.trace(ric)),
    }
    if mu is not None:
        mu_p2, _, _ = component_norms(mu)
        residuals["mu_p_norm"] = math.sqrt(mu_p2)
    else:
        residuals["mu_p_norm"] = math.sqrt(traj.system.family.mu_p_norm2(traj.states[-1]))

    labels: tuple[str, ...] = ()

    if traj.termination == TERM_BLOWUP:
        if traj.stats.blowup_time_estimate is not None:
            residuals["blowup_time_estimate"] = traj.stats.blowup_time_estimate
        return LimitClassification("finite-time-blowup", None, residuals)

    nonflat = ric_norm / scale >= flat_tol

    if traj.termination == TERM_CONVERGED:
        if einstein_dev < einstein_tol and nonflat:
            return LimitClassification(
                "einstein-limit", mu, residuals, _convergence_labels(mu)
            )
        sol = _soliton_rel(traj, mu, scale)
        if sol is not None:
            residuals["soliton_rel"] = sol
        if sol is not None and sol < soliton_tol and nonflat:
            return LimitClassification(
                "soliton-limit", mu, residuals, _convergence_labels(mu)
            )
        if not nonflat:
            return LimitClassification(
                "flat-limit", mu, residuals, _convergence_labels(mu)
            )

    if residuals["mu_p_norm"] < zero_tol:
        return LimitClassification("zero-collapse", mu, residuals)

    if traj.is_backward and traj.termination == TERM_REACHED_END:
        return LimitClassification("bounded-ancient", mu, residuals)

    return LimitClassification("inconclusive", None, residuals, labels)


def _convergence_labels(mu: BracketTensor | None) -> tuple[str, ...]:
    """Informational strength-of-convergence labels, never proof claims."""
    labels = ["infinitesimal-convergence-indicated"]
    if mu is not None:
        point = validate_point(mu, tol=1e-6)
        if point.valid and injectivity_lower_bound(point).value > 0:
            labels.append("local-convergence-indicated")
            labels.append("pointed-subconvergence-indicated")
    return tuple(labels)


@dataclass(frozen=True)
class InjectivityBound:
    """Lower bound for the Lie injectivity radius (inf marks no obstruction)."""

    value: float
    generic: float
    family_value: float | None = None

    def as_dict(self) -> dict:
        def enc(x):
            return "inf" if x is not None and math.isinf(x) else x

        return {
            "value": enc(self.value),
            "generic": enc(self.generic),
            "family_value": enc(self.family_value),
        }


def injectivity_lower_bound(point) -> InjectivityBound:
    """Injectivity-radius lower bound of a validated point.

    Always reports the generic bound pi / |mu|_aux (built on the auxiliary
    inner product that declares the full basis orthonormal).  Points matching
    the isotropy-1 dimension-3 catalog family with c = 0 additionally use the
    closed form: min(2 pi |a| / b, 2 pi / sqrt(b), generic) for b > 0 and an
    infinite radius for b <= 0.
    """
    point.require_valid()
    mu = point.bracket
    _, _, aux2 = component_norms(mu)
    generic = math.inf if aux2 == 0 else math.pi / math.sqrt(aux2)

    family_value = None
    if (mu.q, mu.n) == (1, 3):
        try:
            a, b, c = Berger3().project(mu, tol=1e-9)
        except ValueError:
            a = b = c = None
        if a is not None and abs(c) <= 1e-12:
            if b > 0:
                family_value = min(
                    2 * math.pi * abs(a) / b, 2 * math.pi / math.sqrt(b), generic
                )
            else:
                family_value = math.inf

    value = generic if family_value is None else family_value
    return InjectivityBound(value=value, generic=generic, family_value=family_value)
