"""Numerical audits and qualitative classification of flow trajectories.

The identity audit compares finite differences of curvature quantities on
the stack of a trajectory's samples with their analytic evolution laws
(rate-corrected on normalized runs).  Classification applies a fixed decision
ladder to a terminated trajectory, and the injectivity-radius helpers report
the closed-form and generic lower bounds used to label convergence strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BracketTensor, InvalidPointError, act_pi_array, component_norms,
                   unpack_array, validate_point)
from .curvature import _pieces, _ricci_evolution, curvature_pieces
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


def _derivative(t: np.ndarray):
    """Finite differences along the sample times t, on any spacing: the audited
    interior samples, and the map from samples (m, k) to derivatives there.
    Each is the derivative at the centre sample of the Lagrange polynomial
    through the 5 samples around it, exact for quartics (3 and quadratics on a
    grid of 3 or 4), with weights from the window's own offsets d (Fornberg,
    Math. Comp. 51, 1988): (1, -8, 0, 8, -1) / 12h on a uniform grid."""
    w = 5 if len(t) >= 5 else 3
    c, n = w // 2, len(t) - w + 1
    d = t[np.arange(w)[:, None] + np.arange(n)] - t[c:c + n]  # (w, n), d[c] = 0
    gaps = d[:, None] - d + np.eye(w)[:, :, None]  # d_j - d_k, and 1 where k = j
    # w_j = prod_{k != j, c} (-d_k) / prod_{k != j} (d_j - d_k); w_c = -sum_{k != c} 1 / d_k
    weights = gaps[c].prod(0) / gaps[c] / gaps.prod(1)
    weights[c] = -np.sum(1 / np.delete(d, c, axis=0), axis=0)
    return slice(c, c + n), lambda f: sum(weights[j, :, None] * f[j:j + n] for j in range(w))


def _bracket_stack(traj: FlowTrajectory) -> tuple[int, np.ndarray]:
    """q and the structure arrays (m, d, d, d) of all samples of traj."""
    system = traj.system
    if not isinstance(system, ReducedFlowSystem):
        return system.q, unpack_array(system.q + system.n, traj.states)
    # A family embedding writes each parameter, times a constant, into entries
    # of its own: it is affine in the parameters, and exactly so entry by entry.
    embed, p = system.family.embed, traj.states.shape[1]
    base = embed(np.zeros(p))
    steps = np.array([embed(e).c for e in np.eye(p)]) - base.c
    return base.q, base.c + np.einsum("mk,k...->m...", traj.states, steps)


def identity_audit(traj: FlowTrajectory) -> AuditReport:
    """Check the nine curvature evolution identities along a trajectory.

    Each quantity and its analytic right-hand side are evaluated on the stack
    of all samples by the einsum formulas of curvature.py (never the flow's
    polynomial tables), and its finite difference at the interior samples is
    compared with that right-hand side.  Normalized runs use the rate-corrected
    laws; a reduced run's rate comes from the family's closed forms, as in its
    flow.  Relative error is measured against 1 + the right-hand-side norm.  The
    einsums stream over a copy of the stack with the sample axis fastest; the
    |mu_p|^2 sums (its law, the bracket-norm rate) keep the C-ordered stack."""
    m = traj.n_samples
    if m < 3:
        raise ValueError("identity audit needs at least three samples")
    q, c = _bracket_stack(traj)
    cs = np.asfortranarray(c)  # the sample axis fastest
    mu_p, rep = cs[:, q:, q:, q:], _pieces(cs, q)
    ric = rep.Ric
    d0, d_m, d_b, d_u = _ricci_evolution(mu_p, rep)
    if isinstance(traj.system, ReducedFlowSystem):
        r, undefined = traj.system.rates(traj.states.T)
        if undefined:
            raise undefined[min(undefined)]
    else:
        r = _report_rate(c, q, traj.strategy, rep, d0)

    def inner(a, b):
        return np.sum(a * b, axis=(-2, -1))

    # name: (quantity Q, its unnormalized derivative, k); the rate r adds k r Q.
    laws = {
        "Ric": (ric, d0, 2),
        "M": (rep.M, d_m, 2),
        "B": (rep.B, d_b, 2),
        "H": (rep.H, np.einsum("...ij,...j->...i", ric, rep.H), 1),
        "U": (rep.U, d_u, 2),
        "R": (rep.R, 2 * inner(ric, ric), 2),
        "mu_p_norm2": (np.sum(c[:, q:, q:, q:]**2, axis=(1, 2, 3)), -8 * inner(ric, rep.M), 2),
        "trB": (np.trace(rep.B, axis1=1, axis2=2), 2 * inner(ric, rep.B), 2),
        "H_norm2": (np.sum(rep.H**2, axis=1), -2 * inner(rep.U, rep.U), 2),
    }
    interior, derivative = _derivative(traj.times)
    errors = {}
    for name, (quantity, plain, k) in laws.items():
        f = quantity.reshape(m, -1)
        expect = (plain.reshape(m, -1) + k * r[:, None] * f)[interior]
        err = np.linalg.norm(derivative(f) - expect, axis=1)
        errors[name] = float(np.max(err / (1.0 + np.linalg.norm(expect, axis=1))))
    return AuditReport(
        max_rel_error=errors, samples_checked=len(expect), strategy=traj.strategy.kind
    )


@dataclass(frozen=True, eq=False)
class DerivationBasis:
    """Orthonormal basis (trace inner product) of a derivation algebra."""

    basis: list
    dim: int
    tol: float
    block: bool

    def residuals(self, mu: BracketTensor) -> list[float]:
        q = mu.q if self.block else 0
        full = np.zeros((self.dim, mu.dim, mu.dim))
        full[:, q:, q:] = np.reshape(self.basis, (self.dim, mu.dim - q, mu.dim - q))
        moved = act_pi_array(full, mu.c).reshape(self.dim, mu.dim**3)
        return np.linalg.norm(moved, axis=1).tolist()


def _derivations(mu: BracketTensor, tol: float, block: bool) -> DerivationBasis:
    """Kernel of A -> pi(A) mu over the operators on g, or on p when block."""
    d = mu.dim
    q = mu.q if block else 0
    m = d - q
    units = np.zeros((m * m, d, d))  # E_xy, x-major, on the last m directions
    units[:, q:, q:] = np.eye(m * m).reshape(m * m, m, m)
    mat = act_pi_array(units, mu.c).reshape(m * m, -1).T
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
