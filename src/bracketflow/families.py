"""Parameterized bracket families with closed-form curvature and reduced ODEs.

Three families cover the worked dynamics: the 3-dimensional unimodular
family (all left-invariant metrics on unimodular 3-dimensional groups), the
isotropy-1 family in dimension 3 (Berger spheres and their degenerations),
and a 2-parameter family on compact/noncompact semisimple groups described
through a Cartan-type splitting g = h + m with Killing-form ratio alpha.
The semisimple family is exposed through closed forms in (a, b, alpha); only
the 3-dimensional rotation-line case (h_dim, m_dim) = (1, 2) is realized as
an explicit tensor and anchors the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import H2_KNOWN, BracketTensor, HomogeneousPoint, _canonical, validate_point
from .curvature import CurvatureReport, killing_operator

__all__ = [
    "NoRealizationError",
    "ReducedFamilyPoint",
    "CatalogPoint",
    "Unimodular3",
    "Berger3",
    "SemisimpleFamily",
    "SemisimpleSu2",
    "unimodular3",
    "berger3",
    "semisimple_family",
    "semisimple_concrete_su2",
    "embed",
    "get_family",
]


class NoRealizationError(ValueError):
    """The family has no concrete tensor realization for these parameters."""


def _set(t: np.ndarray, i: int, j: int, k: int, v: float) -> None:
    t[i, j, k] = v
    t[j, i, k] = -v


@dataclass(frozen=True)
class ReducedFamilyPoint:
    """A point of one parameterized family, given by name and parameters."""

    family: str
    params: tuple[float, ...]
    context: dict | None = None


@dataclass(frozen=True, eq=False)
class CatalogPoint:
    """Catalog constructor output: validated point plus closed forms."""

    point: HomogeneousPoint | None
    closed: CurvatureReport
    family: object
    params: np.ndarray

    def reduced_rhs(self) -> np.ndarray:
        return self.family.rhs(self.params)


class _FamilyBase:
    """Shared machinery: closed forms are provided as diagonals on p."""

    name = "family"
    param_names: tuple[str, ...] = ()
    rate_weights: tuple[float, ...] = ()
    n_p = 0
    # ((q, n), entries c[i, j, k] holding the parameters) of a concrete family.
    _realization: tuple | None = None

    def context(self) -> dict:
        return {}

    # Closed forms; subclasses return diagonal vectors of length n_p.
    def ricci_diag(self, params) -> np.ndarray:
        raise NotImplementedError

    def moment_diag(self, params) -> np.ndarray:
        raise NotImplementedError

    def killing_diag(self, params) -> np.ndarray:
        raise NotImplementedError

    def mu_p_norm2(self, params) -> float:
        raise NotImplementedError

    def aux_norm2(self, params) -> float:
        return self.mu_p_norm2(params)

    def rhs(self, params) -> np.ndarray:
        raise NotImplementedError

    def embed(self, params) -> BracketTensor:
        raise NoRealizationError(f"family {self.name} has no concrete realization")

    def project(self, mu: BracketTensor, tol: float = 1e-8) -> np.ndarray:
        if self._realization is None:
            raise NoRealizationError(f"family {self.name} has no concrete realization")
        (q, n), entries = self._realization
        if (mu.q, mu.n) != (q, n):
            raise ValueError(f"expected a q={q}, n={n} bracket")
        params = np.array([mu.c[e] for e in entries])
        if np.abs(self.embed(params).c - mu.c).max() > tol:
            raise ValueError(f"bracket is not in the {self.name} family")
        return params

    def rate_scalars(self, params):
        ric = self.ricci_diag(params)
        m = self.moment_diag(params)
        return (
            self.n_p,
            float(np.sum(ric)),
            float(np.sum(ric * ric)),
            float(np.sum(ric * m)),
            self.mu_p_norm2(params),
        )

    def closed_report(self, params) -> CurvatureReport:
        ric = self.ricci_diag(params)
        return CurvatureReport(
            H=np.zeros(self.n_p),
            B=np.diag(self.killing_diag(params)),
            M=np.diag(self.moment_diag(params)),
            U=np.zeros((self.n_p, self.n_p)),
            Ric=np.diag(ric),
            R=float(np.sum(ric)),
        )


class Unimodular3(_FamilyBase):
    """mu(X2,X3) = a X1, mu(X3,X1) = b X2, mu(X1,X2) = c X3 on q = 0, n = 3."""

    name = "unimodular3"
    param_names = ("a", "b", "c")
    rate_weights = (1.0, 1.0, 1.0)
    n_p = 3
    _realization = ((0, 3), ((1, 2, 0), (2, 0, 1), (0, 1, 2)))

    def ricci_diag(self, params):
        a, b, c = params
        return 0.5 * np.array(
            [a**2 - (b - c) ** 2, b**2 - (a - c) ** 2, c**2 - (a - b) ** 2]
        )

    def moment_diag(self, params):
        a, b, c = params
        return -0.5 * np.array(
            [-(a**2) + b**2 + c**2, a**2 - b**2 + c**2, a**2 + b**2 - c**2]
        )

    def killing_diag(self, params):
        a, b, c = params
        return np.array([-2 * b * c, -2 * a * c, -2 * a * b])

    def mu_p_norm2(self, params):
        a, b, c = params
        return 2.0 * float(a**2 + b**2 + c**2)

    def rhs(self, params):
        a, b, c = params
        return np.array(
            [
                (-0.5 * (3 * a**2 - b**2 - c**2) + a * b + a * c - b * c) * a,
                (-0.5 * (3 * b**2 - a**2 - c**2) + a * b - a * c + b * c) * b,
                (-0.5 * (3 * c**2 - a**2 - b**2) - a * b + a * c + b * c) * c,
            ]
        )

    def embed(self, params) -> BracketTensor:
        a, b, c = (float(x) for x in params)
        t = np.zeros((3, 3, 3))
        _set(t, 1, 2, 0, a)
        _set(t, 2, 0, 1, b)
        _set(t, 0, 1, 2, c)
        return _canonical(0, 3, t)


class Berger3(_FamilyBase):
    """Isotropy-1 family in dimension 3: basis (Z1, X1, X2, X3).

    mu(X3,Z1) = X2, mu(Z1,X2) = X3, mu(X2,X3) = a X1 + b Z1,
    mu(X3,X1) = c X2, mu(X1,X2) = c X3.  a and c scale like the p-part, b
    like the k-part.
    """

    name = "berger3"
    param_names = ("a", "b", "c")
    rate_weights = (1.0, 2.0, 1.0)
    n_p = 3
    _realization = ((1, 3), ((2, 3, 1), (2, 3, 0), (1, 2, 3)))

    def ricci_diag(self, params):
        a, b, c = params
        e = -0.5 * a**2 + b + a * c
        return np.array([0.5 * a**2, e, e])

    def moment_diag(self, params):
        a, b, c = params
        return -0.5 * np.array([2 * c**2 - a**2, a**2, a**2])

    def killing_diag(self, params):
        a, b, c = params
        return np.array([-2 * c**2, -2 * (b + a * c), -2 * (b + a * c)])

    def mu_p_norm2(self, params):
        a, b, c = params
        return float(2 * a**2 + 4 * c**2)

    def aux_norm2(self, params):
        a, b, c = params
        return 2.0 * float(a**2 + b**2 + 2 * c**2 + 2)

    def rhs(self, params):
        a, b, c = params
        return np.array(
            [
                (-1.5 * a**2 + 2 * b + 2 * a * c) * a,
                (-(a**2) + 2 * b + 2 * a * c) * b,
                0.5 * a**2 * c,
            ]
        )

    def embed(self, params) -> BracketTensor:
        a, b, c = (float(x) for x in params)
        t = np.zeros((4, 4, 4))
        _set(t, 3, 0, 2, 1.0)  # mu(X3, Z1) = X2
        _set(t, 0, 2, 3, 1.0)  # mu(Z1, X2) = X3
        _set(t, 2, 3, 1, a)
        _set(t, 2, 3, 0, b)
        _set(t, 3, 1, 2, c)
        _set(t, 1, 2, 3, c)
        return _canonical(1, 3, t)


class SemisimpleFamily(_FamilyBase):
    """Two-parameter metrics on a semisimple group via a splitting g = h + m.

    The subalgebra block scales by a, the transverse block by b, against a
    background bracket whose basis is orthonormal for minus the Killing form.
    alpha = (2 h_dim - m_dim) / (2 h_dim) must lie in [0, 1).
    """

    name = "semisimple"
    param_names = ("a", "b")
    rate_weights = (1.0, 1.0)

    def __init__(self, h_dim: int, m_dim: int):
        if h_dim < 1 or m_dim < 1:
            raise ValueError("need h_dim >= 1 and m_dim >= 1")
        alpha = (2 * h_dim - m_dim) / (2 * h_dim)
        if not (0 <= alpha < 1):
            raise ValueError(
                f"(h_dim, m_dim) = ({h_dim}, {m_dim}) gives alpha = {alpha:.4g} "
                "outside [0, 1)"
            )
        self.h_dim = int(h_dim)
        self.m_dim = int(m_dim)
        self.alpha = alpha
        self.n_p = self.h_dim + self.m_dim

    def context(self) -> dict:
        return {"h_dim": self.h_dim, "m_dim": self.m_dim, "alpha": self.alpha}

    def _blocks(self, vh: float, vm: float) -> np.ndarray:
        return np.concatenate([np.full(self.h_dim, vh), np.full(self.m_dim, vm)])

    def ricci_blocks(self, params) -> tuple[float, float]:
        a, b = params
        al = self.alpha
        return (
            0.25 * (al * a**2 + (1 - al) * b**2),
            0.25 * (2 * a * b - b**2),
        )

    def ricci_diag(self, params):
        return self._blocks(*self.ricci_blocks(params))

    def moment_diag(self, params):
        a, b = params
        al = self.alpha
        m_h = -0.5 * a**2 + 0.25 * al * a**2 + 0.25 * (1 - al) * b**2
        m_m = -0.25 * b**2
        return self._blocks(m_h, m_m)

    def killing_diag(self, params):
        a, b = params
        return self._blocks(-(a**2), -a * b)

    def mu_p_norm2(self, params):
        a, b = params
        al = self.alpha
        return float(
            self.h_dim * (2 - al) * a**2 + (self.m_dim - (1 - al) * self.h_dim) * b**2
        )

    def rhs(self, params):
        a, b = params
        al = self.alpha
        return np.array(
            [
                0.25 * (al * a**2 + (1 - al) * b**2) * a,
                -0.25 * (al * a**2 + (3 - al) * b**2 - 4 * a * b) * b,
            ]
        )

    def einstein_loci(self) -> tuple[float, float]:
        """Slopes s of the Einstein lines b = s a."""
        return (1.0, self.alpha / (2.0 - self.alpha))

    def soliton_residual_closed(self, params) -> float:
        """Least-squares distance of Ric to c I + block-scalar derivations.

        Block-scalar maps diag(d_h I, d_m I) are derivations exactly when
        d_h a = 0 and (d_h - 2 d_m) b = 0, which covers the nilpotent a = 0
        and product b = 0 soliton loci.
        """
        a, b = params
        ric_h, ric_m = self.ricci_blocks(params)
        w = np.array([np.sqrt(self.h_dim), np.sqrt(self.m_dim)])
        target = np.array([ric_h, ric_m]) * w
        cols = [np.array([1.0, 1.0]) * w]
        scale = max(abs(a), abs(b), 1e-30)
        if abs(a) <= 1e-12 * scale:
            cols.append(np.array([2.0, 1.0]) * w)
        elif abs(b) <= 1e-12 * scale:
            cols.append(np.array([0.0, 1.0]) * w)
        mat = np.column_stack(cols)
        coef = np.linalg.lstsq(mat, target, rcond=None)[0]
        return float(np.linalg.norm(target - mat @ coef))


@lru_cache(maxsize=None)
def _su2_base_constant() -> float:
    """Structure constant of the rotation algebra in a basis orthonormal for
    minus its Killing form, derived numerically once."""
    base = Unimodular3().embed([1.0, 1.0, 1.0])
    k = killing_operator(base)
    return float(1.0 / np.sqrt(-k[0, 0]))


class SemisimpleSu2(SemisimpleFamily):
    """Concrete (h_dim, m_dim) = (1, 2) realization on the rotation algebra.

    The subalgebra line is spanned by X1; blocks scale by (a, a, b) against
    the Killing-normalized bracket, which lands in the unimodular3 family
    with parameters (b, a, a) times the base constant.
    """

    name = "semisimple-su2"

    def __init__(self):
        super().__init__(1, 2)

    def embed(self, params) -> BracketTensor:
        a, b = (float(x) for x in params)
        lam = _su2_base_constant()
        return Unimodular3().embed([b * lam, a * lam, a * lam])

    def project(self, mu: BracketTensor, tol: float = 1e-8) -> np.ndarray:
        lam = _su2_base_constant()
        u = Unimodular3().project(mu, tol=tol)
        params = np.array([u[1] / lam, u[0] / lam])
        if abs(u[2] - u[1]) > tol:
            raise ValueError("bracket is not in the su(2)-type family")
        return params


_FAMILIES = {
    "unimodular3": lambda ctx: Unimodular3(),
    "berger3": lambda ctx: Berger3(),
    # (h_dim, m_dim) = (1, 2) is the one concrete semisimple family.
    "semisimple": lambda ctx: (
        SemisimpleSu2() if (ctx["h_dim"], ctx["m_dim"]) == (1, 2)
        else SemisimpleFamily(ctx["h_dim"], ctx["m_dim"])
    ),
    "semisimple-su2": lambda ctx: SemisimpleSu2(),
}


def get_family(name: str, **context):
    try:
        factory = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
    return factory(context)


def _catalog(fam: _FamilyBase, *params: float) -> CatalogPoint:
    """Catalog point of a family: validated embedding (None when the family
    has no concrete realization) plus the closed forms."""
    params = np.array(params, dtype=float)
    try:
        point = validate_point(fam.embed(params), h2_status=H2_KNOWN)
    except NoRealizationError:
        point = None
    return CatalogPoint(point=point, closed=fam.closed_report(params), family=fam, params=params)


def unimodular3(a: float, b: float, c: float) -> CatalogPoint:
    """Unimodular 3-dimensional family with its closed-form curvature."""
    return _catalog(Unimodular3(), a, b, c)


def berger3(a: float, b: float, c: float = 0.0) -> CatalogPoint:
    """Isotropy-1 dimension-3 family (Berger spheres and degenerations)."""
    return _catalog(Berger3(), a, b, c)


def semisimple_family(a: float, b: float, h_dim: int, m_dim: int) -> CatalogPoint:
    """Closed-form semisimple family point; concrete only for (1, 2)."""
    return _catalog(get_family("semisimple", h_dim=h_dim, m_dim=m_dim), a, b)


def semisimple_concrete_su2(a: float, b: float) -> CatalogPoint:
    """Concrete rotation-algebra realization of the semisimple family."""
    return _catalog(SemisimpleSu2(), a, b)


def embed(point: ReducedFamilyPoint) -> BracketTensor:
    """Materialize a reduced family point as a full tensor.

    Raises NoRealizationError when the family has no concrete realization
    for the given context (the general semisimple family).
    """
    ctx = point.context or {}
    fam = get_family(point.family, **ctx)
    return fam.embed(np.asarray(point.params, dtype=float))
