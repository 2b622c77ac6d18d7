"""Embedded geometry of rank-k matrices in R^{m x n}.

Points are factored triples (U, S, V) with U, V orthonormal and S a k x k
positive diagonal; tangent vectors are triples (M, Up, Vp) with U'Up = 0 and
V'Vp = 0.  The retraction is the rank-k truncated SVD of the perturbed
matrix, computed through a 2k x 2k core so the m x n matrix is never formed.
The thin QR factors of a tangent's Up and Vp do not depend on the step t,
so each tangent computes them once and keeps them for every t it is
retracted at (a line search, a derivative check's sweep): tangents are
values, never written into once built.  A core with a NaN or infinite
entry raises LinAlgError, as ``np.linalg.svd`` does on NaN (on inf it
returns NaN factors, or, with zeros elsewhere, never returns).

Ambient vectors (Euclidean gradients) may be passed either as dense m x n
arrays or as a list of (A, B) pairs representing sum_i A_i B_i', which keeps
large problems cheap.

There is no exact Euclidean-to-Riemannian Hessian conversion here (the
curvature term is out of scope); callers fall back to the finite-difference
Hessian approximation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..exceptions import DimensionMismatchError, RankCollapseError
from .base import ManifoldDescriptor, qr_positive


@dataclass(frozen=True)
class FixedRankPoint:
    u: np.ndarray  # m x k, orthonormal columns
    s: np.ndarray  # k x k, diagonal, positive
    v: np.ndarray  # n x k, orthonormal columns

    def to_dense(self) -> np.ndarray:
        return self.u @ self.s @ self.v.T


@dataclass(frozen=True)
class FixedRankTangent:
    """A tangent vector, and a value: nothing may write into its arrays
    after it is built, since the first retraction along it keeps the QR
    factors of Up and Vp for every later one.  Up and Vp turn read-only
    then, so a later write through them raises instead of leaving the
    factors stale.  Every operation here returns a new tangent."""

    m: np.ndarray  # k x k
    up: np.ndarray  # m x k, U'Up = 0
    vp: np.ndarray  # n x k, V'Vp = 0

    @functools.cached_property  # writes the instance dict, frozen or not
    def qr_factors(self):
        """(Qu, Ru, Qv, Rv): ``qr_positive`` of Up and Vp, on first use."""
        self.up.flags.writeable = False
        self.vp.flags.writeable = False
        return (*qr_positive(self.up, with_r=True), *qr_positive(self.vp, with_r=True))


def fixed_rank_factory(m: int, n: int, k: int) -> ManifoldDescriptor:
    if k < 1 or k > min(m, n):
        raise ValueError(
            f"fixed_rank_factory: need 1 <= k <= min(m, n), got ({m}, {n}, {k})"
        )
    dim = (m + n - k) * k

    def _ambient_products(z, x: FixedRankPoint):
        """Return (Z @ V, Z' @ U) for dense or low-rank-factored Z."""
        if isinstance(z, np.ndarray):
            if z.shape != (m, n):
                raise DimensionMismatchError(
                    f"fixed-rank ambient: expected shape {(m, n)}, got {z.shape}"
                )
            return z @ x.v, z.T @ x.u
        zv = np.zeros((m, k))
        ztu = np.zeros((n, k))
        for a, b in z:
            zv += a @ (b.T @ x.v)
            ztu += b @ (a.T @ x.u)
        return zv, ztu

    def inner(x, u, v):
        return float(np.vdot(u.m, v.m) + np.vdot(u.up, v.up) + np.vdot(u.vp, v.vp))

    def proj(x, z):
        zv, ztu = _ambient_products(z, x)
        mid = x.u.T @ zv
        return FixedRankTangent(m=mid, up=zv - x.u @ mid, vp=ztu - x.v @ mid.T)

    def retract(x, u, t=1.0):
        nz = np.count_nonzero  # the truth value of np.any, as in zero_step
        if t == 0 or not (nz(u.m) or nz(u.up) or nz(u.vp)):
            return x
        qu, ru, qv, rv = u.qr_factors
        core = np.zeros((2 * k, 2 * k))
        core[:k, :k] = x.s + t * u.m
        core[:k, k:] = t * rv.T
        core[k:, :k] = t * ru
        if not np.isfinite(core).all():  # LAPACK's SVD may never return on inf
            raise np.linalg.LinAlgError("SVD did not converge")
        us, sv, vts = np.linalg.svd(core)
        if sv[k - 1] < 1e-14:
            raise RankCollapseError(
                f"fixed-rank retract: singular value {k} fell to {sv[k - 1]:.3e}"
            )
        # concatenate is np.hstack's body without its wrapper, and s is
        # built as np.diag builds it.
        left = np.concatenate((x.u, qu), axis=1) @ us[:, :k]
        right = np.concatenate((x.v, qv), axis=1) @ vts[:k].T
        s = np.zeros((k, k))
        s.ravel()[:: k + 1] = sv[:k]
        return FixedRankPoint(u=left, s=s, v=right)

    def rand_point(rng):
        z = rng.standard_normal((m, n))
        uu, sv, vvt = np.linalg.svd(z, full_matrices=False)
        return FixedRankPoint(u=uu[:, :k], s=np.diag(sv[:k]), v=vvt[:k].T)

    def zero_tangent(x):
        return FixedRankTangent(
            m=np.zeros((k, k)), up=np.zeros((m, k)), vp=np.zeros((n, k))
        )

    def lincomb(x, a, u, b=0.0, v=None):
        if v is None:
            return FixedRankTangent(m=a * u.m, up=a * u.up, vp=a * u.vp)
        return FixedRankTangent(
            m=a * u.m + b * v.m, up=a * u.up + b * v.up, vp=a * u.vp + b * v.vp
        )

    def tangent_to_ambient(x, u):
        return x.u @ u.m @ x.v.T + u.up @ x.v.T + x.u @ u.vp.T

    def transport(x, y, u):
        return proj(y, tangent_to_ambient(x, u))

    def violation(x):
        v = max(
            float(np.max(np.abs(x.u.T @ x.u - np.eye(k)))),
            float(np.max(np.abs(x.v.T @ x.v - np.eye(k)))),
            float(np.max(np.abs(x.s - np.diag(np.diagonal(x.s))))),
        )
        if np.min(np.diagonal(x.s)) <= 0:
            v = max(v, 1.0)
        return v

    return ManifoldDescriptor(
        name=f"FixedRank({m},{n},{k})",
        dim=dim,
        typical_dist=float(dim),
        inner=inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=proj,
        ehess2rhess=None,
        rand_point=rand_point,
        rand_ambient=lambda x, rng: rng.standard_normal((m, n)),
        transport=transport,
        zero_tangent=zero_tangent,
        lincomb=lincomb,
        tangent_to_ambient=tangent_to_ambient,
        constraint_violation=violation,
    )
