"""Orthonormal-frame geometries: Stiefel, Grassmann, rotation group.

All three store points as matrices with orthonormal columns and retract via
the Q factor of a thin QR decomposition with positive diagonal R (so the
retraction is a deterministic function).  The rotation retraction flips the
sign of the last Q column if rounding pushed the determinant to -1.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (
    ManifoldDescriptor,
    check_shape,
    embedded_descriptor,
    qr_positive,
    zero_step,
)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _skew(a: np.ndarray) -> np.ndarray:
    return (a - a.T) / 2.0


def _orthonormality(x: np.ndarray) -> float:
    return float(np.max(np.abs(x.T @ x - np.eye(x.shape[1]))))


def _orthonormal_factory(n: int, p: int, proj, fix=lambda q: q, **fields):
    """n x p matrices with orthonormal columns and the trace metric,
    retracted by the Q factor of a positive-diagonal QR; ``fix`` adjusts
    each Q factor (and each random point) after the decomposition.

    The Hessian conversion defaults to the embedded Stiefel one; ``fields``
    gives the name, dimension and length scale and may override the rest.
    """

    def q_factor(a):
        return fix(qr_positive(a))

    def retract(x, u, t=1.0):
        if zero_step(u, t):
            return x
        return q_factor(x + t * u)

    def ehess2rhess(x, egrad):
        # Checked first: a (1, p) or (n, 1) array would broadcast through.
        check_shape(x, egrad, "ehess2rhess: egrad")
        s = _sym(x.T @ egrad)

        def hess(ehess_u, u):
            check_shape(x, ehess_u, "ehess2rhess: ehess")
            return proj(x, ehess_u - u @ s)

        return hess

    defaults = dict(
        retract=retract,
        ehess2rhess=ehess2rhess,
        rand_point=lambda rng: q_factor(rng.standard_normal((n, p))),
        constraint_violation=_orthonormality,
    )
    return embedded_descriptor((n, p), proj, **{**defaults, **fields})


def stiefel_factory(n: int, p: int) -> ManifoldDescriptor:
    """Orthonormal n x p matrices, X'X = I_p."""
    if p < 1 or p > n:
        raise ValueError(f"stiefel_factory: need 1 <= p <= n, got ({n}, {p})")

    def proj(x, z):
        check_shape(x, z, "stiefel proj")
        return z - x @ _sym(x.T @ z)

    return _orthonormal_factory(
        n, p, proj,
        name=f"Stiefel({n},{p})",
        dim=n * p - p * (p + 1) // 2,
        typical_dist=math.pi * math.sqrt(p),
    )


def grassmann_factory(n: int, p: int) -> ManifoldDescriptor:
    """p-dimensional subspaces of R^n, stored as orthonormal representatives.

    Costs placed on this manifold must be invariant under X -> XQ for
    orthogonal Q (documented contract; not enforced at runtime).
    """
    if p < 1 or p > n:
        raise ValueError(f"grassmann_factory: need 1 <= p <= n, got ({n}, {p})")

    def proj(x, z):
        check_shape(x, z, "grassmann proj")
        return z - x @ (x.T @ z)

    def ehess2rhess(x, egrad):
        check_shape(x, egrad, "ehess2rhess: egrad")
        xg = x.T @ egrad

        def hess(ehess_u, u):
            return proj(x, ehess_u) - u @ xg

        return hess

    return _orthonormal_factory(
        n, p, proj,
        name=f"Grassmann({n},{p})",
        dim=p * (n - p),
        typical_dist=math.pi * math.sqrt(p),
        ehess2rhess=ehess2rhess,
    )


def rotations_factory(n: int) -> ManifoldDescriptor:
    """Special orthogonal group: X'X = I_n and det(X) = +1."""
    if n < 1:
        raise ValueError(f"rotations_factory: n must be >= 1, got {n}")

    def proj(x, z):
        check_shape(x, z, "rotations proj")
        return x @ _skew(x.T @ z)

    def det_fix(q: np.ndarray) -> np.ndarray:
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, -1] = -q[:, -1]
        return q

    return _orthonormal_factory(
        n, n, proj, fix=det_fix,
        name=f"Rotations({n})",
        dim=n * (n - 1) // 2,
        # n = 1 is a single point; any positive scale works there.
        typical_dist=math.pi * math.sqrt(n * (n - 1) / 2) / 2 if n > 1 else 1.0,
        constraint_violation=lambda x: max(
            _orthonormality(x), abs(np.linalg.det(x) - 1.0)
        ),
    )
