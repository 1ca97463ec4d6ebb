"""Skew-symmetric structure-constant tensors on a fixed splitting g = k + p.

A bracket is stored as a 3-index array ``c`` of shape ``(d, d, d)`` with
``d = q + n``: ``c[i, j, k]`` is the coefficient of basis vector ``e_k`` in
``mu(e_i, e_j)``.  The first ``q`` basis vectors span the isotropy block k,
the remaining ``n`` span the tangent block p; the p-basis is orthonormal for
the fixed inner product.  Antisymmetry in (i, j) is enforced structurally:
only the entries with ``i < j`` are canonical, the rest are mirrored at
construction time, so ``mu(x, y) = -mu(y, x)`` holds exactly.  Outside input
is validated: the ``BracketTensor`` constructor (so ``zero``, ``from_entries``
and ``bracket_from_json``) checks shape, finiteness and antisymmetry.  Computed
brackets are only canonicalized and checked for finiteness: ``_canonical``
builds those of gl_action, act_pi, the flow tangent and the family embeddings,
``unpack_state`` the integrator's packed states.

All values are immutable after construction and every operation here is a
pure function, so everything is safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BracketTensor",
    "ComponentSplit",
    "HomogeneousPoint",
    "ValidationReport",
    "CompatibilityError",
    "InvalidPointError",
    "MalformedInputError",
    "bracket_eval",
    "jacobi_residual",
    "validate_point",
    "act_gl",
    "act_pi",
    "rescale",
    "component_split",
    "component_norms",
    "bracket_from_json",
    "bracket_to_json",
]

DEFAULT_VALIDATION_TOL = 1e-9
# Isotropy-commutator residual act_gl accepts (the metric flow scales it by 1 + |P|).
COMPATIBILITY_TOL = 1e-8

H2_TRIVIAL = "holds-trivially"
H2_KNOWN = "known-by-construction"
H2_UNVERIFIED = "unverified"


class CompatibilityError(ValueError):
    """A block map violates the isotropy-compatibility condition."""


class InvalidPointError(ValueError):
    """An operation requiring a validated point received an invalid one."""


class MalformedInputError(ValueError):
    """A bracket JSON document does not follow the input schema."""


@lru_cache(maxsize=None)
def _pairs(d: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the packed layout: i < j (k=1) or
    i <= j (k=0) over range(d), in row-major order."""
    iu, ju = np.triu_indices(d, k=k)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _packed_names(d: int) -> list[str]:
    """Names c_i_j_k of the packed state entries, in pack_state order."""
    return [f"c_{i}_{j}_{k}" for i, j in zip(*_pairs(d)) for k in range(d)]


@dataclass(frozen=True, eq=False)
class BracketTensor:
    """Antisymmetric bilinear map on g = k + p, stored as structure constants.

    The constructor checks q, n, shape, finiteness and antisymmetry up to
    floating noise, and stores the exactly antisymmetric read-only copy whose
    i < j entries are those of (c - c^T)/2.
    """

    q: int
    n: int
    c: np.ndarray

    def __post_init__(self):
        if self.q < 0 or self.n <= 0:
            raise ValueError("need q >= 0 and n >= 1")
        d = self.q + self.n
        c = np.asarray(self.c, dtype=float)
        if c.shape != (d, d, d):
            raise ValueError(f"structure array must have shape {(d, d, d)}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        skew_defect = np.abs(c + c.swapaxes(0, 1)).max()
        if skew_defect > 1e-9 * (1.0 + np.abs(c).max()):
            raise ValueError(
                "structure array is not antisymmetric in its first two indices "
                f"(defect {skew_defect:.3e}); set mirrored entries or use from_entries"
            )
        object.__setattr__(self, "c", _canonical(self.q, self.n, c).c)

    @property
    def dim(self) -> int:
        return self.q + self.n

    @property
    def mu_p(self) -> np.ndarray:
        """p-valued part of mu restricted to p x p, shape (n, n, n)."""
        return self.c[self.q :, self.q :, self.q :]

    @property
    def mu_k(self) -> np.ndarray:
        """k-valued part of mu restricted to p x p, shape (n, n, q)."""
        return self.c[self.q :, self.q :, : self.q]

    def iso_part(self) -> np.ndarray:
        """mu restricted to k x g (rows touching the isotropy block)."""
        out = np.zeros_like(self.c)
        q = self.q
        out[:q, :, :] = self.c[:q, :, :]
        out[q:, :q, :] = self.c[q:, :q, :]
        return out

    def ad_iso_p(self, z: int) -> np.ndarray:
        """Matrix on p of ad(Z_z) restricted to p, for 0 <= z < q."""
        return self.c[z, self.q :, self.q :].T

    def allclose(self, other: "BracketTensor", tol: float = 0.0) -> bool:
        return (
            self.q == other.q
            and self.n == other.n
            and bool(np.all(np.abs(self.c - other.c) <= tol))
        )

    @staticmethod
    def zero(q: int, n: int) -> "BracketTensor":
        d = q + n
        return BracketTensor(q, n, np.zeros((d, d, d)))

    @staticmethod
    def from_entries(q: int, n: int, entries) -> "BracketTensor":
        """Build from a list of (i, j, k, value) with i < j, 0-based indices."""
        d = q + n
        c = np.zeros((d, d, d))
        seen = set()
        for item in entries:
            if len(item) != 4:
                raise MalformedInputError(f"entry {item!r} is not [i, j, k, value]")
            i, j, k, value = item
            if not all(isinstance(x, (int, np.integer)) for x in (i, j, k)):
                raise MalformedInputError(f"indices in {item!r} must be integers")
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise MalformedInputError(f"index out of range in {item!r} (dim {d})")
            if i >= j:
                raise MalformedInputError(f"entries must have i < j, got {item!r}")
            if (i, j, k) in seen:
                raise MalformedInputError(f"duplicate entry for indices {(i, j, k)}")
            value = float(value)
            if not np.isfinite(value):
                raise MalformedInputError(f"non-finite value in {item!r}")
            seen.add((i, j, k))
            c[i, j, k] = value
            c[j, i, k] = -value
        return BracketTensor(q, n, c)


@dataclass(frozen=True, eq=False)
class ComponentSplit:
    """The three pieces of a bracket: k/p parts of mu|pxp and the k x g part."""

    mu_k: np.ndarray
    mu_p: np.ndarray
    mu_iso: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Numerical residuals for the membership conditions.

    h1 combines the Jacobi residual with the closure residual of the isotropy
    rows; h3 measures failure of skew-adjointness of ad(Z)|p; h4_sigma is the
    smallest singular value of Z -> mu(Z, .)|p (inf when q = 0, where the
    condition is vacuous).
    """

    jacobi: float
    closure: float
    h3: float
    h4_sigma: float
    tol: float

    @property
    def h1(self) -> float:
        return max(self.jacobi, self.closure)

    @property
    def h1_ok(self) -> bool:
        return self.h1 <= self.tol

    @property
    def h3_ok(self) -> bool:
        return self.h3 <= self.tol

    @property
    def h4_ok(self) -> bool:
        return self.h4_sigma > self.tol

    def as_dict(self) -> dict:
        return {
            "jacobi": self.jacobi,
            "closure": self.closure,
            "h1": self.h1,
            "h3": self.h3,
            "h4_sigma": self.h4_sigma,
            "tol": self.tol,
        }


@dataclass(frozen=True, eq=False)
class HomogeneousPoint:
    """A bracket together with its membership report.

    h2 (closedness of the isotropy subgroup) is not decidable from structure
    constants; it is 'holds-trivially' when q = 0, 'known-by-construction'
    for catalog points, and 'unverified' otherwise.
    """

    bracket: BracketTensor
    report: ValidationReport
    h2_status: str

    @property
    def valid(self) -> bool:
        r = self.report
        return r.h1_ok and r.h3_ok and (self.bracket.q == 0 or r.h4_ok)

    def require_valid(self) -> "HomogeneousPoint":
        if not self.valid:
            raise InvalidPointError(
                f"point fails membership validation: {self.report.as_dict()}"
            )
        return self


def bracket_eval(mu: BracketTensor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate mu(x, y) by contraction against the structure constants.

    Contracts the canonical i < j entries with antisymmetrized coefficient
    pairs, so swapping the arguments negates the result bitwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = mu.dim
    if x.shape != (d,) or y.shape != (d,):
        raise ValueError(f"vectors must have dimension {d}")
    iu, ju = _pairs(d)
    w = x[iu] * y[ju] - x[ju] * y[iu]
    return w @ mu.c[iu, ju, :]


def jacobi_residual(mu: BracketTensor) -> float:
    """Max norm over basis triples of the cyclic sum of mu(mu(., .), .).

    Zero exactly when the bracket satisfies the Jacobi identity.
    """
    c = mu.c
    t = np.einsum("ijl,lkm->ijkm", c, c)
    s = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.sqrt(np.einsum("ijkm,ijkm->ijk", s, s)).max())


def _closure_residual(mu: BracketTensor) -> float:
    """Max-norm failure of mu(k,k) c k and mu(k,p) c p."""
    q = mu.q
    if q == 0:
        return 0.0
    bad_kk = np.abs(mu.c[:q, :q, q:]).max()
    bad_kp = np.abs(mu.c[:q, q:, :q]).max()
    return float(max(bad_kk, bad_kp))


def _h3_residual(mu: BracketTensor) -> float:
    q = mu.q
    if q == 0:
        return 0.0
    worst = 0.0
    for z in range(q):
        a = mu.ad_iso_p(z)
        worst = max(worst, float(np.linalg.norm(a + a.T)))
    return worst


def _h4_sigma(mu: BracketTensor) -> float:
    q = mu.q
    if q == 0:
        return float("inf")
    rows = mu.c[:q, q:, :].reshape(q, -1)
    return float(np.linalg.svd(rows, compute_uv=False).min())


def validate_point(
    mu: BracketTensor,
    tol: float = DEFAULT_VALIDATION_TOL,
    h2_status: str | None = None,
) -> HomogeneousPoint:
    """Check membership conditions and wrap the bracket in a report.

    Failures are recorded in the report, never raised.  ``h2_status`` may be
    passed by catalog constructors; q = 0 forces 'holds-trivially'.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = ValidationReport(
        jacobi=jacobi_residual(mu),
        closure=_closure_residual(mu),
        h3=_h3_residual(mu),
        h4_sigma=_h4_sigma(mu),
        tol=tol,
    )
    if mu.q == 0:
        status = H2_TRIVIAL
    elif h2_status is not None:
        status = h2_status
    else:
        status = H2_UNVERIFIED
    return HomogeneousPoint(bracket=mu, report=report, h2_status=status)


def gl_action(mu: BracketTensor, h: np.ndarray) -> BracketTensor:
    """Raw linear action (h . mu)(x, y) = h mu(h^-1 x, h^-1 y).

    c'_ijm = sum_abl hinv_ai hinv_bj c_abl h_ml, summed over a, then b, then
    l as three matmuls: the path np.einsum(..., optimize=True) picks for this
    string, run as its pairwise steps run, so the bytes are equal without the
    per-call path search. No block or compatibility checks; see act_gl.
    """
    h = np.asarray(h, dtype=float)
    hinv = np.linalg.inv(h)
    d = mu.dim
    t = (mu.c.transpose(1, 2, 0).reshape(d * d, d) @ hinv).reshape(d, d, d).transpose(0, 2, 1)
    t = (t.transpose(1, 2, 0).reshape(d * d, d) @ hinv).reshape(d, d, d).transpose(0, 2, 1)
    c = (t.reshape(d * d, d) @ h.T).reshape(d, d, d)
    return _canonical(mu.q, mu.n, c)


def compatibility_residual(mu: BracketTensor, g: np.ndarray) -> float:
    """Max commutator norm of the operator g on p with the isotropy operators."""
    worst = 0.0
    for z in range(mu.q):
        a = mu.ad_iso_p(z)
        worst = max(worst, float(np.linalg.norm(g @ a - a @ g)))
    return worst


def act_gl(
    mu: BracketTensor,
    h_q: np.ndarray,
    h_n: np.ndarray,
    require_compatible: bool = True,
) -> BracketTensor:
    """Act by the block-diagonal map diag(h_q, h_n) on the bracket.

    The compatibility residual of h_n^T h_n with the isotropy operators must
    stay below COMPATIBILITY_TOL (otherwise the image leaves the membership
    set and a CompatibilityError is raised); pass require_compatible=False
    for identities that hold on the ambient space of all brackets.
    """
    q, n = mu.q, mu.n
    h_q = np.asarray(h_q, dtype=float).reshape(q, q)
    h_n = np.asarray(h_n, dtype=float).reshape(n, n)
    if require_compatible:
        res = compatibility_residual(mu, h_n.T @ h_n)
        if res > COMPATIBILITY_TOL:
            raise CompatibilityError(
                "block map incompatible with isotropy "
                f"(residual {res:.3e} > {COMPATIBILITY_TOL:.3e})"
            )
    h = np.zeros((mu.dim, mu.dim))
    h[:q, :q] = h_q
    h[q:, q:] = h_n
    return gl_action(mu, h)


def act_pi(a: np.ndarray, mu: BracketTensor) -> BracketTensor:
    """Derivative of the linear action: pi(A)mu = A mu(.,.) - mu(A.,.) - mu(.,A.)."""
    a = np.asarray(a, dtype=float)
    d = mu.dim
    if a.shape != (d, d):
        raise ValueError(f"operator must be {d}x{d}")
    return _canonical(mu.q, mu.n, act_pi_array(a, mu.c))


def act_pi_array(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """pi(A) applied to a raw structure array (any square dimension)."""
    term0 = np.einsum("ml,ijl->ijm", a, c)
    term1 = np.einsum("ai,ajm->ijm", a, c)
    term2 = np.einsum("bj,ibm->ijm", a, c)
    return term0 - term1 - term2


def rescale(c_scale: float, mu: BracketTensor) -> BracketTensor:
    """Geometric rescaling: keep mu|kxg, map mu_k -> c^2 mu_k and mu_p -> c mu_p."""
    if c_scale == 0:
        raise ValueError("rescaling factor must be nonzero")
    q = mu.q
    y = pack_state(mu).reshape(-1, mu.dim)
    pp = _pairs(mu.dim)[0] >= q  # packed rows of p x p pairs
    y[pp, :q] *= c_scale**2
    y[pp, q:] *= c_scale
    return unpack_state(q, mu.n, y)


def component_split(mu: BracketTensor) -> ComponentSplit:
    """Split into the k/p parts of mu|pxp and the isotropy rows.

    The three full-shape tensors have disjoint supports and sum back to the
    original structure array entrywise.
    """
    q = mu.q
    k_part = np.zeros_like(mu.c)
    p_part = np.zeros_like(mu.c)
    k_part[q:, q:, :q] = mu.c[q:, q:, :q]
    p_part[q:, q:, q:] = mu.c[q:, q:, q:]
    return ComponentSplit(mu_k=k_part, mu_p=p_part, mu_iso=mu.iso_part())


def component_norms(mu: BracketTensor) -> tuple[float, float, float]:
    """Return (|mu_p|^2, |mu_k|^2, |mu|^2_aux).

    All three are ordered-pair sums of squared values; the auxiliary norm
    declares the full fixed basis (isotropy block included) orthonormal and
    is used only for diagnostics and injectivity bounds.
    """
    q = mu.q
    mu_p2 = float(np.sum(mu.c[q:, q:, q:] ** 2))
    mu_k2 = float(np.sum(mu.c[q:, q:, :q] ** 2))
    mu_aux2 = float(np.sum(mu.c**2))
    return mu_p2, mu_k2, mu_aux2


def pack_state(mu: BracketTensor) -> np.ndarray:
    """Flatten the canonical i < j entries into a state vector."""
    return mu.c[_pairs(mu.dim)].ravel()


def pack_array(c: np.ndarray) -> np.ndarray:
    return c[_pairs(c.shape[0])].ravel()


def _canonical(q: int, n: int, c: np.ndarray) -> BracketTensor:
    """Bracket with i < j entries (c - c^T)/2 of a computed array, antisymmetric up
    to rounding: only finiteness is checked (upper - lower overflows above max/2)."""
    iu, ju = _pairs(q + n)
    with np.errstate(over="ignore", invalid="ignore"):
        return unpack_state(q, n, 0.5 * (c[iu, ju] - c[ju, iu]))


def unpack_state(q: int, n: int, y: np.ndarray) -> BracketTensor:
    """Inverse of pack_state.  unpack_array's output is canonical by
    construction (lower = -upper bitwise, +0.0 diagonal), so only finiteness
    is checked (an integrator trial stage may have overflowed)."""
    c = unpack_array(q + n, y)
    if not np.isfinite(c).all():
        raise ValueError("structure constants must be finite")
    c.setflags(write=False)
    mu = object.__new__(BracketTensor)
    mu.__dict__.update(q=q, n=n, c=c)
    return mu


def unpack_array(d: int, y: np.ndarray) -> np.ndarray:
    iu, ju = _pairs(d)
    c = np.zeros((d, d, d))
    c[iu, ju, :] = np.asarray(y, dtype=float).reshape(len(iu), d)
    c[ju, iu, :] = -c[iu, ju, :]
    return c


def bracket_from_json(text_or_obj) -> BracketTensor:
    """Load a bracket from the JSON input format.

    Schema: {"q": int, "n": int, "entries": [[i, j, k, value], ...]} with
    0-based indices over the concatenated basis (k-block first) and only
    i < j listed.  Duplicate (i, j, k) triples are rejected.
    """
    if isinstance(text_or_obj, (str, bytes)):
        try:
            obj = json.loads(text_or_obj)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"invalid JSON: {exc}") from exc
    else:
        obj = text_or_obj
    if not isinstance(obj, dict):
        raise MalformedInputError("bracket document must be a JSON object")
    try:
        q = int(obj["q"])
        n = int(obj["n"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError("bracket document needs integer q, n and entries") from exc
    if q < 0 or n <= 0:
        raise MalformedInputError("need q >= 0 and n >= 1")
    if not isinstance(entries, list):
        raise MalformedInputError("entries must be a list")
    return BracketTensor.from_entries(q, n, entries)


def bracket_to_json(mu: BracketTensor) -> dict:
    """Serialize to the JSON input format (canonical i < j entries only)."""
    iu, ju = _pairs(mu.dim)
    entries = [
        [int(i), int(j), k, float(v)]
        for i, j, row in zip(iu, ju, mu.c[iu, ju])
        for k, v in enumerate(row)
        if v != 0.0
    ]
    return {"q": mu.q, "n": mu.n, "entries": entries}
