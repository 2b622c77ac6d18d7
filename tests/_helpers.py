"""Shared fixtures-in-plain-python for the test suite: the manifold matrix
and generic smooth test costs that work on any point representation."""

from __future__ import annotations

import numpy as np

from riemopt import (
    ProblemDef,
    elliptope_factory,
    euclidean_factory,
    fixed_rank_factory,
    grassmann_factory,
    oblique_factory,
    product_factory,
    rotations_factory,
    spectrahedron_factory,
    sphere_factory,
    stiefel_factory,
)
from riemopt.manifolds import FixedRankPoint, FixedRankTangent


def manifold_matrix():
    """All 10 factories at 3 sizes each (dims kept >= 1)."""
    return [
        sphere_factory(3),
        sphere_factory(10),
        sphere_factory(50),
        oblique_factory(3, 4),
        oblique_factory(5, 2),
        oblique_factory(10, 6),
        stiefel_factory(5, 2),
        stiefel_factory(6, 3),
        stiefel_factory(10, 4),
        grassmann_factory(4, 2),
        grassmann_factory(6, 3),
        grassmann_factory(8, 2),
        rotations_factory(2),
        rotations_factory(3),
        rotations_factory(5),
        fixed_rank_factory(5, 4, 2),
        fixed_rank_factory(6, 6, 3),
        fixed_rank_factory(8, 5, 2),
        elliptope_factory(4, 2),
        elliptope_factory(6, 3),
        elliptope_factory(10, 4),
        spectrahedron_factory(3, 2),
        spectrahedron_factory(5, 3),
        spectrahedron_factory(8, 2),
        euclidean_factory(4),
        euclidean_factory(3, 2),
        euclidean_factory(7),
        product_factory([sphere_factory(3), euclidean_factory(2)]),
        product_factory([stiefel_factory(4, 2), sphere_factory(5)]),
        product_factory([oblique_factory(3, 2), rotations_factory(3)]),
    ]


def solver_matrix_manifolds():
    """One representative size per factory for the solver composition test."""
    return [
        sphere_factory(6),
        oblique_factory(4, 3),
        stiefel_factory(5, 2),
        grassmann_factory(5, 2),
        rotations_factory(3),
        fixed_rank_factory(5, 4, 2),
        elliptope_factory(5, 2),
        spectrahedron_factory(4, 2),
        euclidean_factory(3, 2),
        product_factory([sphere_factory(3), euclidean_factory(2)]),
    ]


# --- dense-view helpers (points/tangents as ambient arrays or trees) ------


def dense_point(x):
    if isinstance(x, FixedRankPoint):
        return x.to_dense()
    if isinstance(x, tuple):
        return tuple(dense_point(c) for c in x)
    return x


def dense_tangent(x, u):
    if isinstance(u, FixedRankTangent):
        return x.u @ u.m @ x.v.T + u.up @ x.v.T + x.u @ u.vp.T
    if isinstance(u, tuple):
        return tuple(dense_tangent(xc, uc) for xc, uc in zip(x, u))
    return u


def tree_sub(a, b):
    if isinstance(a, tuple):
        return tuple(tree_sub(ac, bc) for ac, bc in zip(a, b))
    return a - b


def tree_add(a, b):
    if isinstance(a, tuple):
        return tuple(tree_add(ac, bc) for ac, bc in zip(a, b))
    return a + b


def tree_scale(a, s):
    if isinstance(a, tuple):
        return tuple(tree_scale(ac, s) for ac in a)
    return s * a


def tree_inner(a, b):
    if isinstance(a, tuple):
        return sum(tree_inner(ac, bc) for ac, bc in zip(a, b))
    return float(np.tensordot(a, b, np.ndim(a)))


def tree_maxabs(a):
    if isinstance(a, tuple):
        return max(tree_maxabs(c) for c in a)
    return float(np.max(np.abs(a)))


# --- generic smooth test cost ---------------------------------------------


def _spd(n, rng, spread=1.0):
    """Well-conditioned SPD matrix: identity plus a mild random part."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(1.0 + spread * rng.random(n)) @ q.T


class _QuadNode:
    """cost = 0.5 tr((X - A)' B (X - A)) on one dense block."""

    def __init__(self, shape, rng, spread):
        n = shape[0] if len(shape) > 1 else shape[0]
        self.a = rng.standard_normal(shape)
        self.b = _spd(n, rng, spread)

    def cost(self, xd):
        d = xd - self.a
        return 0.5 * float(np.tensordot(d, self.b @ d, np.ndim(d)))

    def egrad(self, xd):
        return self.b @ (xd - self.a)

    def ehess(self, ud):
        return self.b @ ud


class _InvariantQuadNode:
    """cost = -0.5 tr(X' A X), invariant under X -> XQ (needed on Grassmann,
    where a cost must be constant along equivalence classes)."""

    def __init__(self, shape, rng, spread):
        self.a = _spd(shape[0], rng, spread)

    def cost(self, xd):
        return -0.5 * float(np.tensordot(xd, self.a @ xd, 2))

    def egrad(self, xd):
        return -self.a @ xd

    def ehess(self, ud):
        return -self.a @ ud


def _build_nodes(x0, rng, spread, invariant=False):
    if isinstance(x0, tuple):
        return tuple(_build_nodes(c, rng, spread) for c in x0)
    xd = dense_point(x0)
    if invariant:
        return _InvariantQuadNode(np.shape(xd), rng, spread)
    return _QuadNode(np.shape(xd), rng, spread)


def _apply(nodes, method, tree):
    if isinstance(nodes, tuple):
        return tuple(_apply(nc, method, tc) for nc, tc in zip(nodes, tree))
    return getattr(nodes, method)(tree)


def _sum_costs(nodes, tree):
    if isinstance(nodes, tuple):
        return sum(_sum_costs(nc, tc) for nc, tc in zip(nodes, tree))
    return nodes.cost(tree)


def make_quadratic_problem(M, seed=0, spread=1.0, with_hessian=True) -> ProblemDef:
    """Smooth strongly convex ambient cost adapted to M's representation.

    The minimizer is a generic full-rank target, so the cost is safe on
    every manifold in the matrix, including fixed rank.
    """
    rng = np.random.default_rng(seed)
    x0 = M.rand_point(rng)
    nodes = _build_nodes(x0, rng, spread, invariant=M.name.startswith("Grassmann"))

    def cost(x):
        return _sum_costs(nodes, dense_point(x))

    def egrad(x):
        return _apply(nodes, "egrad", dense_point(x))

    def ehess(x, u):
        return _apply(nodes, "ehess", dense_tangent(x, u))

    return ProblemDef(
        manifold=M,
        cost=cost,
        egrad=egrad,
        ehess=ehess if with_hessian else None,
    )


class CountingMatrix(np.ndarray):
    """A matrix that counts the products M @ X taken with it; make one with
    ``A.view(CountingMatrix)`` and reset ``CountingMatrix.products``."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


def rayleigh_problem(n, seed=0):
    """min -x'Ax on the sphere; returns (problem, A)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    M = sphere_factory(n)
    p = ProblemDef(
        manifold=M,
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -2.0 * a @ x,
        ehess=lambda x, u: -2.0 * a @ u,
    )
    return p, a
