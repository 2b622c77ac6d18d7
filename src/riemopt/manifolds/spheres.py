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
    check_shape,
    embedded_descriptor,
    trace_inner,
    zero_step,
)

_DEGENERATE = 1e-14


def _normalize_axis(y: np.ndarray, axis, what: str) -> np.ndarray:
    """The float array y divided by the norms of its slices along ``axis``
    (by its Frobenius norm when ``axis`` is None).

    The norms are those of ``np.linalg.norm(y, axis=axis)`` bit for bit:
    this is its body for these arguments (the sum runs in memory order),
    without its wrapper, which took half the time of a retraction.  A
    slice of norm below 1e-14 raises ``DegenerateStepError``; a NaN norm
    does not, and gives NaN entries.
    """
    if axis is None:
        flat = y.ravel(order="K")
        norms = np.sqrt(flat.dot(flat))
    else:
        norms = np.sqrt(np.add.reduce(y * y, axis=axis, keepdims=True))
    if norms.min() < _DEGENERATE:
        raise DegenerateStepError(f"{what}: normalization of a (near-)zero vector")
    return y / norms


def _normalized_factory(name: str, shape, axis, dim: int, typical_dist: float):
    """Arrays of the given shape whose slices along ``axis`` (the whole
    array when ``axis`` is None) have unit norm, with the trace metric.

    The tangent projection removes, slice by slice, the component along
    the point; the retraction renormalizes x + t u.
    """
    what = name.split("(")[0].lower()
    proj_what, retract_what = f"{what} proj", f"{what} retract"

    def along(x, z):
        # <x, z> per slice.  np.add.reduce gives np.sum's bits without
        # its dispatch cost.
        if axis is None:
            return trace_inner(x, x, z)
        return np.add.reduce(x * z, axis=axis, keepdims=True)

    def proj(x, z):
        check_shape(x, z, proj_what)
        return z - x * along(x, z)

    def retract(x, u, t=1.0):
        if zero_step(u, t):
            return x
        return _normalize_axis(x + t * u, axis, retract_what)

    def ehess2rhess(x, egrad):
        # Checked first: a (1, m) or (n, 1) array would broadcast through.
        check_shape(x, egrad, "ehess2rhess: egrad")
        xg = along(x, egrad)

        def hess(ehess_u, u):
            return proj(x, ehess_u) - u * xg

        return hess

    return embedded_descriptor(
        shape,
        proj,
        name=name,
        dim=dim,
        typical_dist=typical_dist,
        retract=retract,
        ehess2rhess=ehess2rhess,
        rand_point=lambda rng: _normalize_axis(
            rng.standard_normal(shape), axis, f"{what} rand_point"
        ),
        constraint_violation=lambda x: float(
            np.max(np.abs(np.linalg.norm(x, axis=axis) - 1.0))
        ),
    )


def sphere_factory(n: int) -> ManifoldDescriptor:
    """Unit sphere in R^n; points are 1-D arrays of length n."""
    if n < 1:
        raise ValueError(f"sphere_factory: n must be >= 1, got {n}")
    return _normalized_factory(f"Sphere({n})", n, None, n - 1, math.pi)


def oblique_factory(n: int, m: int) -> ManifoldDescriptor:
    """Matrices in R^{n x m} with unit-norm columns (a product of m spheres)."""
    if n < 1 or m < 1:
        raise ValueError(f"oblique_factory: need n, m >= 1, got ({n}, {m})")
    return _normalized_factory(
        f"Oblique({n},{m})", (n, m), 0, (n - 1) * m, math.pi * math.sqrt(m)
    )


def elliptope_factory(n: int, k: int) -> ManifoldDescriptor:
    """Fixed-rank elliptope factor matrices: Y in R^{n x k} with unit rows.

    X = Y Y' is then positive semidefinite with unit diagonal and rank <= k.
    The geometry is the embedded one (rowwise spheres); the right orthogonal
    symmetry Y -> YQ is not quotiented out.
    """
    if k < 1 or k > n:
        raise ValueError(f"elliptope_factory: need 1 <= k <= n, got ({n}, {k})")
    return _normalized_factory(
        f"Elliptope({n},{k})", (n, k), 1, n * (k - 1), math.pi * math.sqrt(n)
    )


def spectrahedron_factory(n: int, k: int) -> ManifoldDescriptor:
    """Fixed-rank spectrahedron factors: Y in R^{n x k}, ||Y||_F = 1.

    X = Y Y' then has unit trace; this is a sphere in matrix space.
    """
    if k < 1 or k > n:
        raise ValueError(f"spectrahedron_factory: need 1 <= k <= n, got ({n}, {k})")
    return _normalized_factory(f"Spectrahedron({n},{k})", (n, k), None, n * k - 1, math.pi)
