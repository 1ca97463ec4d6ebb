"""Ricci curvature of a homogeneous space from its structure constants.

The Ricci operator on p decomposes as Ric = M - B/2 - U, where M is the
moment-map operator (a quadratic expression in the p-valued part of the
bracket), B is the Killing form of the full algebra restricted to p, and
U = S(ad H) symmetrizes left multiplication by the mean-curvature vector H.
Traces and adjoints are always taken against the fixed orthonormal basis
of p.  Each formula also takes a stack of brackets with a leading sample
axis (einsums over ``...``, transposes of the last two axes), so one
definition serves a bracket and the stack of a whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BracketTensor, HomogeneousPoint, act_pi_array

__all__ = [
    "CurvatureReport",
    "mean_curvature",
    "killing_operator",
    "moment_operator",
    "ricci_operator",
    "curvature_report",
    "delta_map",
    "delta_adjoint",
    "laplacian_op",
]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _ad(v: np.ndarray, mu_p: np.ndarray) -> np.ndarray:
    """Matrix of left multiplication X -> mu_p(v, X) on p."""
    return np.einsum("...i,...ijk->...kj", v, mu_p)


def mean_curvature(mu: BracketTensor | np.ndarray) -> np.ndarray:
    """Mean-curvature vector H in p, with <H, X_i> = tr ad(X_i).

    Computed from the p-valued part of the bracket; on valid points this
    equals the trace of ad over all of g (the isotropy blocks contribute
    nothing there).
    """
    mu_p = mu.mu_p if isinstance(mu, BracketTensor) else np.asarray(mu, dtype=float)
    return np.einsum("...ijj->...i", mu_p)


def killing_operator(mu: BracketTensor) -> np.ndarray:
    """Killing form restricted to p as a symmetric operator.

    <B X, Y> = tr ad(X) ad(Y) over the whole algebra, so unlike the other
    curvature pieces this sees the full bracket, isotropy rows included.
    """
    return _killing(mu.c, mu.q)


def _killing(c: np.ndarray, q: int) -> np.ndarray:
    rows = c[..., q:, :, :]
    return _sym(np.einsum("...ilk,...jkl->...ij", rows, rows))


def moment_operator(mu_p: np.ndarray) -> np.ndarray:
    """Moment-map operator M on p from the p-valued bracket part.

    M also satisfies tr(M E) = (1/4) <pi(E) mu_p, mu_p> for every operator E,
    which the tests use as an independent oracle.
    """
    mu_p = np.asarray(mu_p, dtype=float)
    first = np.einsum("...xij,...yij->...xy", mu_p, mu_p)
    second = np.einsum("...ijx,...ijy->...xy", mu_p, mu_p)
    return _sym(-0.5 * first + 0.25 * second)


def mean_curvature_op(mu_p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """U = S(ad_{mu_p} H): symmetrized left multiplication by H."""
    return _sym(_ad(h, mu_p))


def ricci_operator(mu: BracketTensor) -> np.ndarray:
    """Ricci operator Ric = M - B/2 - U on p.

    Defined for every bracket, membership conditions or not; the flow
    right-hand side relies on that.
    """
    return curvature_pieces(mu).Ric


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """All Ricci-curvature ingredients of a homogeneous point, or of a stack of them."""

    H: np.ndarray
    B: np.ndarray
    M: np.ndarray
    U: np.ndarray
    Ric: np.ndarray
    R: float | np.ndarray

    def as_dict(self) -> dict:
        return {k: np.asarray(getattr(self, k)).tolist() for k in ("H", "B", "M", "U", "Ric", "R")}


def curvature_pieces(mu: BracketTensor) -> CurvatureReport:
    """Assemble the full curvature report without membership checks."""
    return _pieces(mu.c, mu.q)


def _pieces(c: np.ndarray, q: int) -> CurvatureReport:
    """Curvature report of structure arrays c (..., d, d, d), q of isotropy."""
    mu_p = c[..., q:, q:, q:]
    h = mean_curvature(mu_p)
    b = _killing(c, q)
    m = moment_operator(mu_p)
    u = mean_curvature_op(mu_p, h)
    ric = m - 0.5 * b - u
    r = np.trace(ric, axis1=-2, axis2=-1)
    return CurvatureReport(H=h, B=b, M=m, U=u, Ric=ric, R=float(r) if r.ndim == 0 else r)


def curvature_report(point: HomogeneousPoint) -> CurvatureReport:
    """Curvature report of a validated point (raises on invalid input)."""
    point.require_valid()
    return curvature_pieces(point.bracket)


def delta_map(mu_p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """delta(A) = -pi(A) mu_p, the variation of the bracket along gl(p)."""
    return -act_pi_array(np.asarray(a, dtype=float), mu_p)


def delta_adjoint(mu_p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Adjoint of delta w.r.t. the trace form on gl(p) and the tensor norm.

    Satisfies <delta_adj(lam), A> = <lam, delta(A)> for all A, and
    delta_adj(mu_p) = -4 M.
    """
    mu_p = np.asarray(mu_p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    t1 = -np.einsum("...ijm,...ijl->...ml", lam, mu_p)
    t2 = np.einsum("...ijm,...ajm->...ai", lam, mu_p)
    t3 = np.einsum("...ijm,...ibm->...bj", lam, mu_p)
    return t1 + t2 + t3


def laplacian_op(mu_p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Delta(A) = S(delta_adj(delta(A))); positive semidefinite in A."""
    return _sym(delta_adjoint(mu_p, delta_map(mu_p, a)))


def _ricci_evolution(mu_p: np.ndarray, rep: CurvatureReport):
    """Evolution laws along the unnormalized bracket flow: (D0, dM/dt, dB/dt,
    dU/dt) with dRic/dt = D0 = dM/dt - dB/dt / 2 - dU/dt.  The normalized
    flow adds 2 r times the quantity to each."""
    ric = rep.Ric
    ad_h = _ad(rep.H, mu_p)
    ad_rich = _ad(np.einsum("...ij,...j->...i", ric, rep.H), mu_p)
    d_m = -0.5 * laplacian_op(mu_p, ric)
    d_b = rep.B @ ric + ric @ rep.B
    d_u = 2 * _sym(ad_rich) + _sym(ad_h @ ric - ric @ ad_h)
    return d_m - 0.5 * d_b - d_u, d_m, d_b, d_u
