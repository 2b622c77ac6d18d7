"""Problem description, derivative resolution and per-point caching.

A :class:`ProblemDef` bundles a manifold with user callables for the cost
and (optionally) its derivatives.  ``get_cost`` / ``get_gradient`` /
``get_hessian`` resolve the best available derivative information:
Riemannian callables win over Euclidean ones, and Hessians fall back to a
finite-difference approximation built from the gradient.

Caching is keyed by solver-issued point tokens, not by hashing point
contents: a solver requests a fresh token per candidate point and passes it
along with the point.  User callables may declare an extra trailing
parameter to receive a per-point scratch dict, which lets the cost and the
gradient share intermediate products.
"""

from __future__ import annotations

import inspect
import logging
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .exceptions import MissingDerivativeError
from .manifolds.base import ManifoldDescriptor, Point, Tangent

logger = logging.getLogger(__name__)

FD_STEP_SCALE = 1e-4  # step length of the FD Hessian, relative to typical_dist


def _positional_arity(fn: Callable) -> int:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 1
    n = 0
    for p in params:
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            n += 1
        elif p.kind == p.VAR_POSITIONAL:
            return 99
    return n


class CacheStore:
    """Per-run cache of cost/gradient values plus evaluation counters.

    Entries live under integer point tokens issued by :meth:`token`; at most
    ``capacity`` recent tokens are retained (solvers only revisit the
    current point and one candidate).  An entry holds the cost, the
    Riemannian gradient, the user's Euclidean gradient and the manifold's
    Hessian conversion ``ehess2rhess(x, egrad)`` at the point, so both run
    once per point however many Hessian-vector products follow.  Disabling
    caching keeps the counters but stores nothing, so every query is a miss.
    """

    def __init__(self, caching: bool = True, capacity: int = 2):
        self.caching = caching
        self.capacity = capacity
        self.cost_evals = 0
        self.grad_evals = 0
        self.hess_evals = 0
        self._entries: OrderedDict[int, dict] = OrderedDict()
        self._next = 0
        self._fd_fallback_logged = False

    def token(self) -> int:
        tok = self._next
        self._next += 1
        if self.caching:
            self._entries[tok] = {"user": {}}
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return tok

    def entry(self, token: Optional[int]) -> dict:
        if token is not None and token in self._entries:
            return self._entries[token]
        return {"user": {}}  # throwaway: uncached call

    def discard_except(self, tokens) -> None:
        keep = set(tokens)
        for tok in list(self._entries):
            if tok not in keep:
                del self._entries[tok]

    def counters(self) -> dict:
        return {
            "cost_evals": self.cost_evals,
            "grad_evals": self.grad_evals,
            "hess_evals": self.hess_evals,
        }


@dataclass(frozen=True)
class ProblemDef:
    """Manifold plus cost and optional derivative callables.

    Derivative callables: ``egrad(x)`` returns the Euclidean gradient in
    ambient coordinates, ``rgrad(x)`` a Riemannian (tangent) gradient;
    ``ehess(x, u)`` the directional derivative of the Euclidean gradient
    along u, ``rhess(x, u)`` the Riemannian Hessian applied to u.  If both
    Euclidean and Riemannian versions are given, the Riemannian one wins.
    ``precond(x, u)`` must act as a symmetric positive-definite operator on
    each tangent space.

    Any callable may take one extra positional parameter to receive the
    per-point scratch dict managed by the cache store.
    """

    manifold: ManifoldDescriptor
    cost: Callable
    egrad: Optional[Callable] = None
    rgrad: Optional[Callable] = None
    ehess: Optional[Callable] = None
    rhess: Optional[Callable] = None
    precond: Optional[Callable] = None

    def __post_init__(self):
        wants = {
            "cost": self.cost is not None and _positional_arity(self.cost) >= 2,
            "egrad": self.egrad is not None and _positional_arity(self.egrad) >= 2,
            "rgrad": self.rgrad is not None and _positional_arity(self.rgrad) >= 2,
            "ehess": self.ehess is not None and _positional_arity(self.ehess) >= 3,
            "rhess": self.rhess is not None and _positional_arity(self.rhess) >= 3,
        }
        object.__setattr__(self, "_wants_cache", wants)

    def has_gradient(self) -> bool:
        return self.rgrad is not None or self.egrad is not None

    def has_exact_hessian(self) -> bool:
        if self.rhess is not None:
            return True
        return self.ehess is not None and self.manifold.ehess2rhess is not None


def _call(p: ProblemDef, which: str, fn: Callable, args, user_cache: dict):
    if p._wants_cache[which]:
        return fn(*args, user_cache)
    return fn(*args)


def get_cost(
    p: ProblemDef, x: Point, store: Optional[CacheStore] = None, token: Optional[int] = None
) -> float:
    """Cost at x, cached under the given point token."""
    entry = store.entry(token) if store is not None else {"user": {}}
    if "cost" in entry:
        return entry["cost"]
    value = float(_call(p, "cost", p.cost, (x,), entry["user"]))
    if store is not None:
        store.cost_evals += 1
    entry["cost"] = value
    return value


def _euclidean_gradient(p: ProblemDef, x: Point, entry: dict):
    """User egrad at x, kept in the point's cache entry."""
    if "egrad" not in entry:
        entry["egrad"] = _call(p, "egrad", p.egrad, (x,), entry["user"])
    return entry["egrad"]


def _hessian_conversion(p: ProblemDef, x: Point, entry: dict):
    """The manifold's Hessian conversion at x, kept in the point's cache
    entry next to the egrad it is built from."""
    if "ehess2rhess" not in entry:
        entry["ehess2rhess"] = p.manifold.ehess2rhess(x, _euclidean_gradient(p, x, entry))
    return entry["ehess2rhess"]


def get_gradient(
    p: ProblemDef, x: Point, store: Optional[CacheStore] = None, token: Optional[int] = None
) -> Tangent:
    """Riemannian gradient at x: rgrad if supplied, else projected egrad."""
    entry = store.entry(token) if store is not None else {"user": {}}
    if "grad" in entry:
        return entry["grad"]
    if p.rgrad is not None:
        g = _call(p, "rgrad", p.rgrad, (x,), entry["user"])
    elif p.egrad is not None:
        g = p.manifold.egrad2rgrad(x, _euclidean_gradient(p, x, entry))
    else:
        raise MissingDerivativeError(
            "problem supplies neither 'rgrad' nor 'egrad'; gradient unavailable"
        )
    if store is not None:
        store.grad_evals += 1
    entry["grad"] = g
    return g


def get_hessian(
    p: ProblemDef,
    x: Point,
    u: Tangent,
    store: Optional[CacheStore] = None,
    token: Optional[int] = None,
) -> Tangent:
    """Riemannian Hessian applied to u.

    Resolution order: rhess, then converted ehess, then the FD
    approximation.  Manifolds without an exact conversion (fixed rank)
    silently fall back to FD; this is logged once per store.  The
    conversion ``ehess2rhess(x, egrad)`` of the point is built from the
    Euclidean gradient at x and kept in the point's cache entry with it, so
    with caching on the user ``egrad`` and the conversion's curvature term
    are computed once per point, and with caching off (or without a store
    and token) once per call.
    """
    entry = store.entry(token) if store is not None else {"user": {}}
    if p.rhess is not None:
        if store is not None:
            store.hess_evals += 1
        return _call(p, "rhess", p.rhess, (x, u), entry["user"])
    if p.ehess is not None:
        if p.manifold.ehess2rhess is not None:
            if p.egrad is None:
                raise MissingDerivativeError(
                    "'ehess' conversion needs 'egrad' on this problem"
                )
            hess = _hessian_conversion(p, x, entry)
            eh = _call(p, "ehess", p.ehess, (x, u), entry["user"])
            if store is not None:
                store.hess_evals += 1
            return hess(eh, u)
        if store is not None and not store._fd_fallback_logged:
            store._fd_fallback_logged = True
            logger.info(
                "%s has no exact ehess2rhess; using the FD Hessian approximation",
                p.manifold.name,
            )
    if store is not None:
        store.hess_evals += 1
    return approx_hessian_fd(p, x, u, store=store, token=token)


def approx_hessian_fd(
    p: ProblemDef,
    x: Point,
    u: Tangent,
    store: Optional[CacheStore] = None,
    token: Optional[int] = None,
) -> Tangent:
    """Finite-difference Hessian from two gradients.

    Steps to x+ = retract(x, u, t) with t = 1e-4 * typical_dist / ||u||,
    transports the gradient at x+ back to T_xM by projection, and divides
    the difference by t.  Exact for quadratics on Euclidean space; only
    approximately symmetric in general.
    """
    M = p.manifold
    c = M.norm(x, u)
    if c == 0.0:
        return M.zero_tangent(x)
    t = FD_STEP_SCALE * M.typical_dist / c
    g0 = get_gradient(p, x, store, token)
    x1 = M.retract(x, u, t)
    g1 = get_gradient(p, x1, store, None)
    g1_at_x = M.proj(x, M.tangent_to_ambient(x1, g1))
    return M.lincomb(x, 1.0 / t, g1_at_x, -1.0 / t, g0)


def apply_precond(p: ProblemDef, x: Point, u: Tangent) -> Tangent:
    if p.precond is None:
        return u
    return p.precond(x, u)


@dataclass
class ProblemReport:
    """Preflight summary of which solver capabilities a problem enables."""

    has_cost: bool
    gradient_source: str  # "rgrad" | "egrad" | "missing"
    hessian_source: str  # "rhess" | "ehess" | "fd-fallback" | "unavailable"
    has_precond: bool
    capabilities: list = field(default_factory=list)
    probe_failures: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"cost: {'present' if self.has_cost else 'missing'}",
            f"gradient: {self.gradient_source}",
            f"hessian: {self.hessian_source}",
            f"preconditioner: {'present' if self.has_precond else 'absent'}",
            "capabilities: " + (", ".join(self.capabilities) or "none"),
        ]
        if self.probe_failures:
            lines.append("probe failures: " + "; ".join(self.probe_failures))
        return "\n".join(lines)


def check_problem(p: ProblemDef, rng=None) -> ProblemReport:
    """Validate derivative availability and probe shapes at a random point."""
    import numpy as np

    rng = rng if rng is not None else np.random.default_rng(0)
    if p.rgrad is not None:
        grad_src = "rgrad"
    elif p.egrad is not None:
        grad_src = "egrad"
    else:
        grad_src = "missing"
    if p.rhess is not None:
        hess_src = "rhess"
    elif p.ehess is not None and p.manifold.ehess2rhess is not None:
        hess_src = "ehess"
    elif grad_src != "missing":
        hess_src = "fd-fallback"
    else:
        hess_src = "unavailable"

    caps = []
    if grad_src != "missing":
        caps.append("gradient-based solvers")
        caps.append(
            "Hessian-based solvers"
            + (" (FD approximation)" if hess_src == "fd-fallback" else "")
        )
    else:
        caps.append("gradient missing; gradient-based solvers unavailable")

    report = ProblemReport(
        has_cost=p.cost is not None,
        gradient_source=grad_src,
        hessian_source=hess_src,
        has_precond=p.precond is not None,
        capabilities=caps,
    )

    M = p.manifold
    try:
        x = M.rand_point(rng)
        f = get_cost(p, x)
        if not np.isfinite(f):
            report.probe_failures.append(f"cost returned non-finite value {f}")
        if grad_src != "missing":
            g = get_gradient(p, x)
            resid = M.norm(x, M.lincomb(x, 1.0, g, -1.0, M.proj(x, M.tangent_to_ambient(x, g))))
            if resid > 1e-8 * max(1.0, M.norm(x, g)):
                report.probe_failures.append(
                    f"gradient is not tangent (residual {resid:.2e})"
                )
    except Exception as exc:  # the report carries failures instead of raising
        report.probe_failures.append(f"{type(exc).__name__}: {exc}")
    return report
