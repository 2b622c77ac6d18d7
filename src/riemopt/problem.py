"""Problem description, derivative routes and per-point caching.

A :class:`ProblemDef` bundles a manifold with user callables for the cost
and (optionally) its derivatives.  It decides once, when it is built, which
route ``get_gradient`` and ``hessian_at`` take: Riemannian callables win
over Euclidean ones, and Hessians fall back to a finite-difference
approximation built from the gradient.  ``hessian_at`` returns the Hessian
at a point as a map.

Caching is keyed by solver-held point tokens, not by hashing point
contents: a token (``new_token``) is the point's cache entry itself, which
the solver keeps next to the point and drops with it.  A :class:`Counters`
record counts the evaluations of one run.  User callables may declare an
extra trailing parameter to receive a per-point scratch dict, which lets the
cost and the gradient share intermediate products.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class Counters:
    """Evaluation counters of one run; its fields are ``RunResult.counters``.

    ``hess_evals`` counts the Hessian-vector products computed, not the
    tCG's inner steps: a trust-region rerun after a rejected step reads
    the products of the first run back and adds none.
    """

    cost_evals: int = 0
    grad_evals: int = 0
    hess_evals: int = 0
    fd_fallback_logged = False  # not a field: the FD route logs why once per run


def new_token() -> dict:
    """A fresh point token, an empty cache entry.  An entry keeps the cost,
    the Riemannian gradient, the user's egrad and the Hessian conversion
    ``ehess2rhess(x, egrad)`` at its point, so each runs once per point,
    and the trust-region rule keeps the tCG's products there.  A call with
    ``token=None`` is one-shot: it caches nothing."""
    return {"user": {}}


@dataclass(frozen=True)
class ProblemDef:
    """Manifold plus cost and optional derivative callables.

    Derivative callables: ``egrad(x)`` returns the Euclidean gradient in
    ambient coordinates, ``rgrad(x)`` a Riemannian (tangent) gradient;
    ``ehess(x, u)`` the directional derivative of the Euclidean gradient
    along u, ``rhess(x, u)`` the Riemannian Hessian applied to u.
    ``precond(x, u)`` must act as a symmetric positive-definite operator on
    each tangent space.

    The routes are decided once, here (``dataclasses.replace`` decides them
    anew): ``gradient_source`` is ``rgrad``, ``egrad`` or ``missing``, in
    that order; ``hessian_source`` is ``rhess``, then ``ehess`` (which needs
    ``egrad`` and the manifold's ``ehess2rhess`` too), then ``fd-fallback``
    when there is a gradient, else ``unavailable``.

    Any callable may take one extra positional parameter to receive the
    per-point scratch dict of the point's cache entry.
    """

    manifold: ManifoldDescriptor
    cost: Callable
    egrad: Optional[Callable] = None
    rgrad: Optional[Callable] = None
    ehess: Optional[Callable] = None
    rhess: Optional[Callable] = None
    precond: Optional[Callable] = None
    gradient_source: str = field(init=False)
    hessian_source: str = field(init=False)

    def __post_init__(self):
        arity = {"cost": 2, "egrad": 2, "rgrad": 2, "ehess": 3, "rhess": 3}
        wants = {
            name: getattr(self, name) is not None and _positional_arity(getattr(self, name)) >= n
            for name, n in arity.items()
        }
        grad = next((name for name in ("rgrad", "egrad") if getattr(self, name) is not None),
                    "missing")
        if self.rhess is not None:
            hess, why = "rhess", None
        elif self.ehess is None:
            hess, why = "fd-fallback", "the problem supplies no 'rhess' or 'ehess'"
        elif self.egrad is None:
            hess, why = "fd-fallback", "converting 'ehess' needs 'egrad'"
        elif self.manifold.ehess2rhess is None:
            hess, why = "fd-fallback", f"{self.manifold.name} has no exact ehess2rhess"
        else:
            hess, why = "ehess", None
        if grad == "missing" and hess == "fd-fallback":
            hess = "unavailable"
        # Frozen: the derived fields go straight into the instance dict.
        vars(self).update(
            _wants_cache=wants, gradient_source=grad, hessian_source=hess, _fd_reason=why
        )

    def has_gradient(self) -> bool:
        return self.gradient_source != "missing"

    def has_exact_hessian(self) -> bool:
        return self.hessian_source in ("rhess", "ehess")


def _user_callable(p: ProblemDef, which: str, user_cache: dict) -> Callable:
    """The user callable ``which``, with the scratch dict bound as its last
    argument when it takes one."""
    fn = getattr(p, which)
    if p._wants_cache[which]:
        return lambda *args: fn(*args, user_cache)
    return fn


def _entry(token: Optional[dict]) -> dict:
    return token if token is not None else new_token()  # throwaway: one-shot


def get_cost(
    p: ProblemDef, x: Point, store: Optional[Counters] = None, token: Optional[dict] = None
) -> float:
    """Cost at x, cached under the given point token."""
    entry = _entry(token)
    if "cost" in entry:
        return entry["cost"]
    value = float(_user_callable(p, "cost", entry["user"])(x))
    if store is not None:
        store.cost_evals += 1
    entry["cost"] = value
    return value


def _euclidean_gradient(p: ProblemDef, x: Point, entry: dict):
    """User egrad at x, kept in the point's cache entry."""
    if "egrad" not in entry:
        entry["egrad"] = _user_callable(p, "egrad", entry["user"])(x)
    return entry["egrad"]


def _hessian_conversion(p: ProblemDef, x: Point, entry: dict):
    """The manifold's Hessian conversion at x, kept in the point's cache
    entry next to the egrad it is built from."""
    if "ehess2rhess" not in entry:
        entry["ehess2rhess"] = p.manifold.ehess2rhess(x, _euclidean_gradient(p, x, entry))
    return entry["ehess2rhess"]


def get_gradient(
    p: ProblemDef, x: Point, store: Optional[Counters] = None, token: Optional[dict] = None
) -> Tangent:
    """Riemannian gradient at x: rgrad, or the projected egrad."""
    entry = _entry(token)
    if "grad" in entry:
        return entry["grad"]
    if p.gradient_source == "rgrad":
        g = _user_callable(p, "rgrad", entry["user"])(x)
    elif p.gradient_source == "egrad":
        g = p.manifold.egrad2rgrad(x, _euclidean_gradient(p, x, entry))
    else:
        raise MissingDerivativeError(
            "problem supplies neither 'rgrad' nor 'egrad'; gradient unavailable"
        )
    if store is not None:
        store.grad_evals += 1
    entry["grad"] = g
    return g


def hessian_at(
    p: ProblemDef,
    x: Point,
    store: Optional[Counters] = None,
    token: Optional[dict] = None,
) -> Callable[[Tangent], Tangent]:
    """The Riemannian Hessian at x, as the map u -> Hess f(x)[u].

    The route ``p.hessian_source`` is resolved here, once per call:
    ``rhess`` applies the user's rhess at x; ``ehess`` builds the point's
    conversion ``ehess2rhess(x, egrad)`` now and keeps it in the point's
    cache entry next to the Euclidean gradient it is built from (with a
    token the user ``egrad`` and the conversion run once per point, without
    one once per call of this function); ``fd-fallback`` differences two
    gradients per product and logs why it took that route once per
    ``Counters`` record.
    Each product the map computes counts one in ``store.hess_evals``.
    """
    route = p.hessian_source
    if route == "unavailable":
        raise MissingDerivativeError(
            "problem supplies no Hessian and no gradient to approximate one"
        )
    entry = _entry(token)
    if route == "ehess":
        convert = _hessian_conversion(p, x, entry)
        ehess = _user_callable(p, "ehess", entry["user"])

        def apply(u):
            return convert(ehess(x, u), u)
    elif route == "rhess":
        rhess = _user_callable(p, "rhess", entry["user"])

        def apply(u):
            return rhess(x, u)
    else:
        if store is not None and not store.fd_fallback_logged:
            store.fd_fallback_logged = True
            logger.info("using the FD Hessian approximation: %s", p._fd_reason)

        def apply(u):
            return approx_hessian_fd(p, x, u, store=store, token=token)

    if store is None:
        return apply

    def hess(u):
        store.hess_evals += 1
        return apply(u)

    return hess


def approx_hessian_fd(
    p: ProblemDef,
    x: Point,
    u: Tangent,
    store: Optional[Counters] = None,
    token: Optional[dict] = None,
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
