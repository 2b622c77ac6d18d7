"""Sphere-like geometries: unit sphere, oblique, elliptope, spectrahedron.

All four carry the trace metric of the ambient space and use normalization
retractions (which are second order).  The oblique manifold normalizes
columns, the fixed-rank elliptope normalizes rows, the fixed-rank
spectrahedron normalizes the whole matrix in Frobenius norm.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import DegenerateStepError
from .base import (
    ManifoldDescriptor,
    array_identity_ambient,
    array_lincomb,
    array_zero,
    check_shape,
    trace_inner,
)

_DEGENERATE = 1e-14


def _zero_step(u, t) -> bool:
    # Preserves the retraction axiom retract(x, 0) = x bit for bit.
    return t == 0 or not np.any(u)


def _normalize_axis(y: np.ndarray, axis, what: str) -> np.ndarray:
    norms = np.linalg.norm(y, axis=axis, keepdims=True) if axis is not None else np.linalg.norm(y)
    if np.min(norms) < _DEGENERATE:
        raise DegenerateStepError(f"{what}: normalization of a (near-)zero vector")
    return y / norms


def sphere_factory(n: int) -> ManifoldDescriptor:
    """Unit sphere in R^n; points are 1-D arrays of length n."""
    if n < 1:
        raise ValueError(f"sphere_factory: n must be >= 1, got {n}")

    def proj(x, z):
        check_shape(x, z, "sphere proj")
        return z - np.dot(x, z) * x

    def retract(x, u, t=1.0):
        if _zero_step(u, t):
            return x
        return _normalize_axis(x + t * u, None, "sphere retract")

    def ehess2rhess(x, egrad, ehess_u, u):
        return proj(x, ehess_u) - np.dot(x, egrad) * u

    def rand_point(rng):
        return _normalize_axis(rng.standard_normal(n), None, "sphere rand_point")

    def transport(x, y, u):
        return proj(y, u)

    return ManifoldDescriptor(
        name=f"Sphere({n})",
        dim=n - 1,
        typical_dist=math.pi,
        inner=trace_inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=proj,
        ehess2rhess=ehess2rhess,
        rand_point=rand_point,
        rand_ambient=lambda x, rng: rng.standard_normal(n),
        transport=transport,
        zero_tangent=array_zero,
        lincomb=array_lincomb,
        tangent_to_ambient=array_identity_ambient,
        constraint_violation=lambda x: abs(np.linalg.norm(x) - 1.0),
        second_order_retraction=True,
    )


def oblique_factory(n: int, m: int) -> ManifoldDescriptor:
    """Matrices in R^{n x m} with unit-norm columns (a product of m spheres)."""
    if n < 1 or m < 1:
        raise ValueError(f"oblique_factory: need n, m >= 1, got ({n}, {m})")

    def proj(x, z):
        check_shape(x, z, "oblique proj")
        # The ndarray.sum method gives np.sum's bits without its dispatch cost.
        return z - x * (x * z).sum(axis=0, keepdims=True)

    def retract(x, u, t=1.0):
        if _zero_step(u, t):
            return x
        return _normalize_axis(x + t * u, 0, "oblique retract")

    def ehess2rhess(x, egrad, ehess_u, u):
        return proj(x, ehess_u) - u * (x * egrad).sum(axis=0, keepdims=True)

    def rand_point(rng):
        return _normalize_axis(rng.standard_normal((n, m)), 0, "oblique rand_point")

    return ManifoldDescriptor(
        name=f"Oblique({n},{m})",
        dim=(n - 1) * m,
        typical_dist=math.pi * math.sqrt(m),
        inner=trace_inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=proj,
        ehess2rhess=ehess2rhess,
        rand_point=rand_point,
        rand_ambient=lambda x, rng: rng.standard_normal((n, m)),
        transport=lambda x, y, u: proj(y, u),
        zero_tangent=array_zero,
        lincomb=array_lincomb,
        tangent_to_ambient=array_identity_ambient,
        constraint_violation=lambda x: float(
            np.max(np.abs(np.linalg.norm(x, axis=0) - 1.0))
        ),
        second_order_retraction=True,
    )


def elliptope_factory(n: int, k: int) -> ManifoldDescriptor:
    """Fixed-rank elliptope factor matrices: Y in R^{n x k} with unit rows.

    X = Y Y' is then positive semidefinite with unit diagonal and rank <= k.
    The geometry is the embedded one (rowwise spheres); the right orthogonal
    symmetry Y -> YQ is not quotiented out.
    """
    if k < 1 or k > n:
        raise ValueError(f"elliptope_factory: need 1 <= k <= n, got ({n}, {k})")

    def proj(y, z):
        check_shape(y, z, "elliptope proj")
        return z - y * (y * z).sum(axis=1, keepdims=True)

    def retract(y, u, t=1.0):
        if _zero_step(u, t):
            return y
        return _normalize_axis(y + t * u, 1, "elliptope retract")

    def ehess2rhess(y, egrad, ehess_u, u):
        return proj(y, ehess_u) - u * (y * egrad).sum(axis=1, keepdims=True)

    def rand_point(rng):
        return _normalize_axis(rng.standard_normal((n, k)), 1, "elliptope rand_point")

    return ManifoldDescriptor(
        name=f"Elliptope({n},{k})",
        dim=n * (k - 1),
        typical_dist=math.pi * math.sqrt(n),
        inner=trace_inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=proj,
        ehess2rhess=ehess2rhess,
        rand_point=rand_point,
        rand_ambient=lambda y, rng: rng.standard_normal((n, k)),
        transport=lambda x, y, u: proj(y, u),
        zero_tangent=array_zero,
        lincomb=array_lincomb,
        tangent_to_ambient=array_identity_ambient,
        constraint_violation=lambda y: float(
            np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0))
        ),
        second_order_retraction=True,
    )


def spectrahedron_factory(n: int, k: int) -> ManifoldDescriptor:
    """Fixed-rank spectrahedron factors: Y in R^{n x k}, ||Y||_F = 1.

    X = Y Y' then has unit trace; this is a sphere in matrix space.
    """
    if k < 1 or k > n:
        raise ValueError(f"spectrahedron_factory: need 1 <= k <= n, got ({n}, {k})")

    def proj(y, z):
        check_shape(y, z, "spectrahedron proj")
        return z - trace_inner(y, y, z) * y

    def retract(y, u, t=1.0):
        if _zero_step(u, t):
            return y
        return _normalize_axis(y + t * u, None, "spectrahedron retract")

    def ehess2rhess(y, egrad, ehess_u, u):
        return proj(y, ehess_u) - trace_inner(y, y, egrad) * u

    def rand_point(rng):
        return _normalize_axis(
            rng.standard_normal((n, k)), None, "spectrahedron rand_point"
        )

    return ManifoldDescriptor(
        name=f"Spectrahedron({n},{k})",
        dim=n * k - 1,
        typical_dist=math.pi,
        inner=trace_inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=proj,
        ehess2rhess=ehess2rhess,
        rand_point=rand_point,
        rand_ambient=lambda y, rng: rng.standard_normal((n, k)),
        transport=lambda x, y, u: proj(y, u),
        zero_tangent=array_zero,
        lincomb=array_lincomb,
        tangent_to_ambient=array_identity_ambient,
        constraint_violation=lambda y: abs(np.linalg.norm(y) - 1.0),
        second_order_retraction=True,
    )
