"""The bracket flow as sparse polynomial tables on the packed state.

On the packed state y (pack_state's i < j entries) the Ricci operator
Ric = M - B/2 - U of curvature.py is a quadratic form, the flow tangent
-pi(diag(0, Ric)) mu is bilinear in (Ric, y), and M, |mu_p|^2 and the Jacobi
cyclic sum of core.jacobi_residual are quadratic too.  tables(q, n) turns
those index sums into sparse COO tables (output index, two input indices,
coefficient) once per (q, n), evaluated with np.bincount.  Symmetric
operators on p travel as their i <= j entries in row-major order ("sym
vectors"); Tables.full maps one back to an n x n matrix.
The Ricci form's output ends in two slots (0.0) for the rate r and the scale c;
with them, one call of the tangent table maps a flow state (y, c, tau) to its
derivative: the r-normalized tangent, c' = r c and tau' = c^2.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import _pairs


class _Form:
    """Bilinear map (u, v) -> out, out[o] = sum over terms of coef u[a] v[b],
    built from flat term arrays (see _flat)."""

    def __init__(self, size: int, out, a, b, coef, symmetric: bool):
        if symmetric:  # a quadratic form: merge the (a, b) and (b, a) terms
            a, b = np.minimum(a, b), np.maximum(a, b)
        # Merge terms on (out, a, b); the coefficients are dyadic, so the sums are exact.
        merged: dict[tuple[int, int, int], float] = {}
        for key, c in zip(zip(out.tolist(), a.tolist(), b.tolist()), coef.tolist()):
            merged[key] = merged.get(key, 0.0) + c
        terms = sorted((key, c) for key, c in merged.items() if c != 0.0)
        self.size = size
        self.out, self.a, self.b = (np.array([key[k] for key, _ in terms], dtype=np.intp)
                                    for k in range(3))
        self.coef = np.array([c for _, c in terms])
        for arr in (self.out, self.a, self.b, self.coef):
            arr.setflags(write=False)  # shared by every caller of the cached tables

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.out, self.coef * u[self.a] * v[self.b], self.size)

    def polar(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Derivative of the quadratic form y -> self(y, y) along f."""
        return np.bincount(
            self.out, self.coef * (f[self.a] * y[self.b] + y[self.a] * f[self.b]), self.size
        )


def _flat(terms) -> list[np.ndarray]:
    """Concatenate terms, each a tuple of arrays that broadcast together, into
    one flat array per tuple position."""
    parts = [np.broadcast_arrays(*t) for t in terms]
    return [np.concatenate([p[k].ravel() for p in parts]) for k in range(len(parts[0]))]


class Tables:
    """The bracket flow's polynomial tables for one (q, n), built by
    enumerating curvature.py's index sums; get them through tables(q, n)."""

    def __init__(self, q: int, n: int):
        d = q + n
        self.q, self.n = q, n
        iu, ju = _pairs(d)
        # c[i, j, k] = sgn[i, j, k] * y[idx[i, j, k]]
        pos = np.arange(len(iu) * d).reshape(len(iu), d)
        idx = np.zeros((d, d, d), dtype=np.intp)
        sgn = np.zeros((d, d, d))
        idx[iu, ju], idx[ju, iu] = pos, pos
        sgn[iu, ju], sgn[ju, iu] = 1.0, -1.0
        # sym-vector positions of (x, y), x, y in p
        su, sv = _pairs(n, 0)
        full = np.zeros((n, n), dtype=np.intp)
        full[su, sv] = full[sv, su] = np.arange(len(su))

        ip = np.arange(q, d)
        x, y, i, j = np.ix_(range(n), range(n), range(n), range(n))
        xp, yp, ipp, jpp = x + q, y + q, i + q, j + q
        # Raw p x p operators indexed (x, y); sym() is applied when folding.
        # M: -1/2 sum c[x,i,j] c[y,i,j] + 1/4 sum c[i,j,x] c[i,j,y]
        moment = [
            (x, y, idx[xp, ipp, jpp], idx[yp, ipp, jpp],
             -0.5 * sgn[xp, ipp, jpp] * sgn[yp, ipp, jpp]),
            (x, y, idx[ipp, jpp, xp], idx[ipp, jpp, yp],
             0.25 * sgn[ipp, jpp, xp] * sgn[ipp, jpp, yp]),
        ]
        # Killing form b[x,y] = sum_{l,k} c[x,l,k] c[y,k,l] over all of g, weight -1/2
        bx, by, bl, bk = np.ix_(ip, ip, range(d), range(d))
        killing = (bx - q, by - q, idx[bx, bl, bk], idx[by, bk, bl],
                   -0.5 * sgn[bx, bl, bk] * sgn[by, bk, bl])
        # U = S(ad H), ad_H[x,y] = sum_{i,j} c[i,j,j] c[i,y,x], weight -1
        mean = (x, y, idx[ipp, jpp, jpp], idx[ipp, yp, xp], -sgn[ipp, jpp, jpp] * sgn[ipp, yp, xp])

        def sym_form(terms, slots=0) -> _Form:
            ox, oy, a, b, coef = _flat(terms)
            # sym(X)[x, y] = (X[x, y] + X[y, x]) / 2 folds onto one sym-vector entry
            return _Form(len(su) + slots, full[ox, oy], a, b, np.where(ox == oy, 1.0, 0.5) * coef,
                         True)

        # (y, y) -> sym vector of Ric, and two slots, 0.0 here, for the tangent's r and c
        self.ricci = sym_form(moment + [killing, mean], slots=2)
        self.moment = sym_form(moment)  # (y, y) -> sym vector of M

        # Tangent -pi(diag(0, Ric)) mu on p x p pairs i < j, any component k:
        # sum_x Ric[x,i] c[x,j,k] + Ric[x,j] c[i,x,k] - [k in p] sum_x Ric[k,x] c[i,j,x]
        ti, tj, tk, tx = np.ix_(ip, ip, range(d), range(n))
        live = ti < tj
        out = np.where(live, idx[ti, tj, tk], 0)
        kp, live_p = np.maximum(tk - q, 0), live & (tk >= q)
        rows = np.repeat(iu, d)
        comp = np.tile(np.arange(d), len(iu))
        in_p = rows >= q
        # r rate_w y: 2 on p x p -> k entries, 1 on p x p -> p, 0 on isotropy rows
        self.rate_w = np.where(in_p, np.where(comp < q, 2.0, 1.0), 0.0)
        m, pos, r_slot = len(iu) * d, np.arange(len(iu) * d), len(su)
        tangent = [
            (out, full[tx, ti - q], idx[tx + q, tj, tk], live * sgn[tx + q, tj, tk]),
            (out, full[tx, tj - q], idx[ti, tx + q, tk], live * sgn[ti, tx + q, tk]),
            (out, full[kp, tx], idx[ti, tj, tx + q], -1.0 * live_p * sgn[ti, tj, tx + q]),
            (pos, r_slot, pos, self.rate_w),  # sorts after each output's Ric terms
            (m, r_slot, m, 1.0),  # c' = r c
            (m + 1, r_slot + 1, m, 1.0),  # tau' = c c
        ]
        # (Ricci form output with (r, c) in its slots, (y, c, tau)) -> (y', c', tau')
        self.tangent = _Form(m + 2, *_flat(tangent), symmetric=False)

        # Jacobi cyclic sums s[t, m] over triples t = (i < j < k):
        # sum_l c[i,j,l] c[l,k,m] + c[j,k,l] c[l,i,m] + c[k,i,l] c[l,j,m]
        trip = np.array(list(combinations(range(d), 3)), dtype=np.intp).reshape(-1, 3)
        t_, m_, l_ = np.ix_(range(len(trip)), range(d), range(d))
        jac = []
        for r0, r1, r2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            a0, a1, a2 = trip[t_, r0], trip[t_, r1], trip[t_, r2]
            coef = sgn[a0, a1, l_] * sgn[l_, a2, m_]
            jac.append((t_ * d + m_, idx[a0, a1, l_], idx[l_, a2, m_], coef))
        self.jacobi = _Form(len(trip) * d, *_flat(jac), symmetric=True)

        self.mu_p_w = np.where(in_p & (comp >= q), 2.0, 0.0)  # |mu_p|^2 = mu_p_w . y^2
        self.sym_w = np.where(su == sv, 1.0, 2.0)  # tr(A B) = sym_w . (a * b)
        self.diag = full[np.arange(n), np.arange(n)]  # sym-vector positions of the diagonal
        self.full = full
        for arr in (self.rate_w, self.mu_p_w, self.sym_w, self.diag, self.full):
            arr.setflags(write=False)

    def ricci_matrix(self, y: np.ndarray) -> np.ndarray:
        return self.ricci(y, y)[self.full]

    def ricci_norm2(self, y: np.ndarray) -> float:
        """tr(Ric^2)."""
        ric = self.ricci(y, y)
        return self.trace_product(ric, ric)

    def trace(self, a: np.ndarray) -> float:
        return float(a[self.diag].sum())

    # These read the sym vectors without the Ricci form's slots, a flow state without (c, tau).
    def trace_product(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.sym_w @ (a[: self.sym_w.size] * b[: self.sym_w.size]))

    def mu_p_norm2(self, y: np.ndarray) -> float:
        return float(self.mu_p_w @ np.square(y[: self.mu_p_w.size]))

    def jacobi_residual(self, y: np.ndarray) -> float:
        s = self.jacobi(y, y).reshape(-1, self.q + self.n)
        # sqrt is monotone and correctly rounded: the root of the max is the max of the roots.
        return math.sqrt(float(np.einsum("tm,tm->t", s, s).max(initial=0.0)))


@lru_cache(maxsize=None)
def tables(q: int, n: int) -> Tables:
    """The tables of H_{q,n}, built on first use and shared after."""
    return Tables(q, n)
