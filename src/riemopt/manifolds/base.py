"""Manifold descriptor: an immutable record of a search space's geometry.

Every factory in this package returns a :class:`ManifoldDescriptor` whose
callable fields implement tangent projection, retraction, metric, derivative
conversion, random generation and vector transport.  Solvers and diagnostics
talk to manifolds exclusively through this record, so points and tangent
vectors can be whatever representation suits the manifold (dense arrays,
factored triples, tuples of components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from ..exceptions import DegenerateStepError, DimensionMismatchError

Point = Any
Tangent = Any
Ambient = Any


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Geometry of one search space.

    Attributes:
        name: human-readable label, e.g. ``"Sphere(5)"``.
        dim: intrinsic dimension.
        typical_dist: positive length scale, used to size trust-region radii
            and line-search steps.
        second_order_retraction: True when the retraction matches geodesics
            to second order (gates the expected slope in Hessian checks).
        ehess2rhess: ``ehess2rhess(x, egrad)`` returns the Hessian
            conversion at the point x, an operator ``op(ehess_u, u)`` that
            maps the Euclidean Hessian applied to u to the Riemannian one.
            The curvature term depends on x and egrad only, so it is
            computed once per point and ``get_hessian`` caches the operator
            per point like egrad.  None when the manifold has no exact
            conversion (callers fall back to finite differences).
    """

    name: str
    dim: int
    typical_dist: float
    inner: Callable[[Point, Tangent, Tangent], float]
    proj: Callable[[Point, Ambient], Tangent]
    retract: Callable[..., Point]
    egrad2rgrad: Callable[[Point, Ambient], Tangent]
    rand_point: Callable[[np.random.Generator], Point]
    rand_ambient: Callable[[Point, np.random.Generator], Ambient]
    transport: Callable[[Point, Point, Tangent], Tangent]
    zero_tangent: Callable[[Point], Tangent]
    lincomb: Callable[..., Tangent]
    tangent_to_ambient: Callable[[Point, Tangent], Ambient]
    constraint_violation: Callable[[Point], float]
    ehess2rhess: Optional[
        Callable[[Point, Ambient], Callable[[Ambient, Tangent], Tangent]]
    ] = None
    second_order_retraction: bool = True

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dim must be nonnegative, got {self.dim}")
        if not self.typical_dist > 0:
            raise ValueError(f"typical_dist must be positive, got {self.typical_dist}")

    def norm(self, x: Point, u: Tangent) -> float:
        """Riemannian norm sqrt(inner(x, u, u))."""
        return math.sqrt(max(self.inner(x, u, u), 0.0))

    def rand_tangent(self, x: Point, rng: np.random.Generator) -> Tangent:
        """Unit-norm tangent vector: projected Gaussian ambient sample."""
        for _ in range(5):
            v = self.proj(x, self.rand_ambient(x, rng))
            nv = self.norm(x, v)
            if nv > 0.0:
                return self.lincomb(x, 1.0 / nv, v)
        raise DegenerateStepError(
            f"{self.name}: random ambient samples kept projecting to zero"
        )


# --- helpers shared by the dense-array factories -------------------------


def check_shape(x: np.ndarray, z: np.ndarray, what: str) -> None:
    # The attribute is several times cheaper than np.shape on an array.
    xs = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    zs = z.shape if isinstance(z, np.ndarray) else np.shape(z)
    if xs != zs:
        raise DimensionMismatchError(f"{what}: expected shape {xs}, got {zs}")


def trace_inner(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    check_shape(x, u, "inner: first tangent")
    check_shape(x, v, "inner: second tangent")
    # vdot flattens both operands in C order and calls the same BLAS dot as
    # a full-axes tensordot, so the value is the same bit for bit.
    return float(np.vdot(u, v))


def array_zero(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def array_lincomb(x, a: float, u, b: float = 0.0, v=None):
    if v is None:
        return a * u
    if a == 1.0:
        return u + b * v  # 1.0 * u == u exactly: skips one temporary
    return a * u + b * v


def array_identity_ambient(x, u):
    return u


def zero_step(u: np.ndarray, t) -> bool:
    # Retractions return x itself here: retract(x, 0) = x bit for bit.
    # count_nonzero has the truth value of np.any (NaN counts, -0.0 does
    # not) at a tenth of its cost on small arrays.
    return t == 0 or not np.count_nonzero(u)


def embedded_descriptor(shape, proj, **fields) -> ManifoldDescriptor:
    """Descriptor of a manifold embedded in R^shape with the trace metric.

    Tangent vectors are ambient arrays, the Riemannian gradient and the
    vector transport are projections, and random ambient vectors are
    standard normal; ``fields`` supplies the rest and may override these.
    """
    defaults = dict(
        inner=trace_inner,
        egrad2rgrad=proj,
        rand_ambient=lambda x, rng: rng.standard_normal(shape),
        transport=lambda x, y, u: proj(y, u),
        zero_tangent=array_zero,
        lincomb=array_lincomb,
        tangent_to_ambient=array_identity_ambient,
    )
    return ManifoldDescriptor(proj=proj, **{**defaults, **fields})


def qr_positive(a: np.ndarray, with_r: bool = False):
    """Q factor of the thin QR of a real m x n matrix with diag(R) >= 0, or
    (Q, R) with ``with_r``.

    The sign rule makes the factorization a function of ``a``: Q's columns
    are multiplied by sign(diag R), with 0 mapped to +1, and so are R's
    rows.  The values are those of ``np.linalg.qr`` bit for bit: this calls
    the two LAPACK gufuncs that ``np.linalg.qr`` calls (``qr_r_raw`` runs
    dgeqrf, ``qr_reduced`` dorgqr; ``qr_r_raw`` needs numpy >= 2.1) on a
    private float copy, as it does, and skips its per-call wrapper (type
    promotion, two ``errstate`` blocks and an ``np.triu`` that most callers
    discard), which costs more than the factorization of the small matrices
    the retractions pass in.
    """
    packed = a.astype(float, copy=True)  # qr_r_raw overwrites its argument
    # R on and above the diagonal of packed, the Householder vectors below.
    tau = _umath_linalg.qr_r_raw(packed)
    q = _umath_linalg.qr_reduced(packed, tau)
    d = np.sign(np.diagonal(packed))
    d[d == 0] = 1.0
    if not with_r:
        return q * d
    return q * d, np.triu(packed[: d.size]) * d[:, None]
