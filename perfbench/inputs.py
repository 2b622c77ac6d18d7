"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed always yields the same inputs.  Nothing here imports
the test suite's helpers.
"""

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


# --- max-cut graphs ----------------------------------------------------------


def gnm_edges(n: int, deg: float, rng, weighted: bool = False):
    """G(n, m) with m = n * deg / 2 distinct edges, as 1-based (i, j, w).

    Weights are 1 or, when ``weighted``, integers drawn from 1..9.
    """
    m = int(round(n * deg / 2))
    if m > n * (n - 1) // 2:
        raise ValueError(f"gnm_edges: {m} edges do not fit on {n} nodes")
    chosen = set()
    while len(chosen) < m:
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            chosen.add((int(min(i, j)), int(max(i, j))))
    pairs = sorted(chosen)
    if weighted:
        weights = rng.integers(1, 10, size=len(pairs)).astype(float)
    else:
        weights = np.ones(len(pairs))
    return [(i, j, float(w)) for (i, j), w in zip(pairs, weights)]


def write_edge_list(path, n: int, edges) -> None:
    """Edge-list file with the ``p n m`` header, one ``i j w`` line per edge."""
    with open(path, "w") as fh:
        fh.write(f"p {n} {len(edges)}\n")
        for i, j, w in edges:
            fh.write(f"{i} {j} {w:g}\n")


# --- quadratic costs on every manifold factory --------------------------------


def suite_manifolds(tiny: bool = False):
    """One instance of each of the 10 factories."""
    if tiny:
        return [
            sphere_factory(4),
            oblique_factory(3, 2),
            stiefel_factory(4, 2),
            grassmann_factory(4, 2),
            rotations_factory(3),
            fixed_rank_factory(4, 3, 1),
            elliptope_factory(4, 2),
            spectrahedron_factory(3, 2),
            euclidean_factory(3),
            product_factory([sphere_factory(3), euclidean_factory(2)]),
        ]
    return [
        sphere_factory(40),
        oblique_factory(8, 6),
        stiefel_factory(10, 3),
        grassmann_factory(10, 3),
        rotations_factory(4),
        fixed_rank_factory(8, 6, 2),
        elliptope_factory(12, 3),
        spectrahedron_factory(10, 3),
        euclidean_factory(6, 4),
        product_factory([stiefel_factory(5, 2), sphere_factory(6)]),
    ]


def _dense_point(x):
    if isinstance(x, FixedRankPoint):
        return x.to_dense()
    if isinstance(x, tuple):
        return tuple(_dense_point(c) for c in x)
    return x


def _dense_tangent(x, u):
    if isinstance(u, FixedRankTangent):
        return x.u @ u.m @ x.v.T + u.up @ x.v.T + x.u @ u.vp.T
    if isinstance(u, tuple):
        return tuple(_dense_tangent(xc, uc) for xc, uc in zip(x, u))
    return u


def _spd(n: int, rng) -> np.ndarray:
    """SPD matrix with eigenvalues spread evenly over [1, 2] and a random
    eigenbasis, so every draw has the same condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.linspace(1.0, 2.0, n)) @ q.T


def _target(shape, rng) -> np.ndarray:
    """The point a block pulls towards.  A matrix gets singular values
    spread evenly over [1, 2] and random singular vectors.  With i.i.d.
    entries, a draw whose r-th and (r+1)-th singular values nearly met made
    one fixed-rank solve take 15x as long as the typical one (6x at worst
    over four seeds with this spectrum), and the suite's total time
    followed the luck of the draw."""
    if len(shape) != 2:
        return rng.standard_normal(shape)
    k = min(shape)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (u * np.linspace(2.0, 1.0, k)) @ v.T


class _Block:
    """One dense block of the cost: 0.5 <X - A, B (X - A)>.

    With ``invariant`` the block is -0.5 <X, B X> instead, which is constant
    on the equivalence classes X -> XQ that Grassmann points stand for.
    """

    def __init__(self, shape, rng, invariant: bool):
        self.b = _spd(shape[0], rng)
        self.a = None if invariant else _target(shape, rng)

    def cost(self, x):
        if self.a is None:
            return -0.5 * float(np.tensordot(x, self.b @ x, x.ndim))
        d = x - self.a
        return 0.5 * float(np.tensordot(d, self.b @ d, d.ndim))

    def egrad(self, x):
        return -(self.b @ x) if self.a is None else self.b @ (x - self.a)

    def ehess(self, u):
        return -(self.b @ u) if self.a is None else self.b @ u


def _blocks(x0, rng, invariant: bool):
    if isinstance(x0, tuple):
        return tuple(_blocks(c, rng, False) for c in x0)
    return _Block(np.shape(_dense_point(x0)), rng, invariant)


def _tree(blocks, method: str, value):
    if isinstance(blocks, tuple):
        return tuple(_tree(b, method, v) for b, v in zip(blocks, value))
    return getattr(blocks, method)(value)


def _total_cost(blocks, x) -> float:
    if isinstance(blocks, tuple):
        return sum(_total_cost(b, v) for b, v in zip(blocks, x))
    return blocks.cost(x)


def quadratic_problem(M, rng) -> ProblemDef:
    """Quadratic ambient cost with exact egrad and ehess, adapted to M.

    Points are mapped to their dense view, so the same cost works on
    arrays, fixed-rank triples and product tuples.
    """
    blocks = _blocks(M.rand_point(rng), rng, M.name.startswith("Grassmann"))

    def cost(x):
        return _total_cost(blocks, _dense_point(x))

    def egrad(x):
        return _tree(blocks, "egrad", _dense_point(x))

    def ehess(x, u):
        return _tree(blocks, "ehess", _dense_tangent(x, u))

    return ProblemDef(manifold=M, cost=cost, egrad=egrad, ehess=ehess)
