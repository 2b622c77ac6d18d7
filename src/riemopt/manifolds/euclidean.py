"""Euclidean spaces and Cartesian products of manifolds."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .base import ManifoldDescriptor, check_shape, embedded_descriptor


def _flat_ehess2rhess(x, egrad):
    check_shape(x, egrad, "ehess2rhess: egrad")

    def hess(ehess_u, u):
        check_shape(x, ehess_u, "ehess2rhess: ehess")
        return np.asarray(ehess_u, dtype=float)

    return hess


def euclidean_factory(*shape: int) -> ManifoldDescriptor:
    """Flat R^{shape} with all geometry operations trivial."""
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise ValueError(f"euclidean_factory: need positive dimensions, got {shape}")
    dim = int(np.prod(shape))

    def proj(x, z):
        check_shape(x, z, "euclidean proj")
        return np.asarray(z, dtype=float)

    def retract(x, u, t=1.0):
        return x + t * u

    return embedded_descriptor(
        shape,
        proj,
        name=f"Euclidean{shape}",
        dim=dim,
        typical_dist=math.sqrt(dim),
        retract=retract,
        ehess2rhess=_flat_ehess2rhess,
        rand_point=lambda rng: rng.standard_normal(shape),
        transport=lambda x, y, u: u,
        constraint_violation=lambda x: 0.0,
        second_order_retraction=True,
    )


def product_factory(components: Sequence[ManifoldDescriptor]) -> ManifoldDescriptor:
    """Cartesian product; points and tangents are tuples of component values.

    Every operation applies componentwise and the metric is the sum of the
    component metrics.
    """
    comps = tuple(components)
    if len(comps) == 0:
        raise ValueError("product_factory: need at least one component")

    def inner(x, u, v):
        return sum(c.inner(xi, ui, vi) for c, xi, ui, vi in zip(comps, x, u, v))

    def proj(x, z):
        return tuple(c.proj(xi, zi) for c, xi, zi in zip(comps, x, z))

    def retract(x, u, t=1.0):
        return tuple(c.retract(xi, ui, t) for c, xi, ui in zip(comps, x, u))

    def egrad2rgrad(x, g):
        return tuple(c.egrad2rgrad(xi, gi) for c, xi, gi in zip(comps, x, g))

    ehess2rhess = None
    if all(c.ehess2rhess is not None for c in comps):

        def ehess2rhess(x, egrad):  # noqa: F811
            ops = tuple(c.ehess2rhess(xi, gi) for c, xi, gi in zip(comps, x, egrad))

            def hess(ehess_u, u):
                return tuple(op(hi, ui) for op, hi, ui in zip(ops, ehess_u, u))

            return hess

    def lincomb(x, a, u, b=0.0, v=None):
        if v is None:
            return tuple(c.lincomb(xi, a, ui) for c, xi, ui in zip(comps, x, u))
        return tuple(
            c.lincomb(xi, a, ui, b, vi) for c, xi, ui, vi in zip(comps, x, u, v)
        )

    return ManifoldDescriptor(
        name="Product(" + ", ".join(c.name for c in comps) + ")",
        dim=sum(c.dim for c in comps),
        typical_dist=math.sqrt(sum(c.typical_dist**2 for c in comps)),
        inner=inner,
        proj=proj,
        retract=retract,
        egrad2rgrad=egrad2rgrad,
        ehess2rhess=ehess2rhess,
        rand_point=lambda rng: tuple(c.rand_point(rng) for c in comps),
        rand_ambient=lambda x, rng: tuple(
            c.rand_ambient(xi, rng) for c, xi in zip(comps, x)
        ),
        transport=lambda x, y, u: tuple(
            c.transport(xi, yi, ui) for c, xi, yi, ui in zip(comps, x, y, u)
        ),
        zero_tangent=lambda x: tuple(c.zero_tangent(xi) for c, xi in zip(comps, x)),
        lincomb=lincomb,
        tangent_to_ambient=lambda x, u: tuple(
            c.tangent_to_ambient(xi, ui) for c, xi, ui in zip(comps, x, u)
        ),
        constraint_violation=lambda x: max(
            c.constraint_violation(xi) for c, xi in zip(comps, x)
        ),
        second_order_retraction=all(c.second_order_retraction for c in comps),
    )
