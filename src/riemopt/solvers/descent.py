"""First-order solvers: steepest descent and nonlinear conjugate gradients.

Both take one line-search step rule; steepest descent is that rule with
the direction reset to -grad at every point.  The step comes from Armijo
backtracking (or a user-supplied line search).  Each accepted step fits
kappa, the curvature per unit length of the quadratic through f(0), the
slope and f(t); the next search starts at -slope / (kappa ||d||^2), for
steepest descent on a quadratic the Barzilai-Borwein step (Barzilai &
Borwein 1988; Iannazzo & Porcelli 2018 on manifolds).  While kappa is
unknown (first search, a step that did not lower the cost, a failed fit)
it starts from min(typical_dist / ||d||, typical_dist).  CG, which needs
near-exact steps, lets its default search try the fitted minimizer once.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from ..exceptions import DegenerateStepError
from ..problem import ProblemDef, get_cost, get_gradient, new_token
from .core import (
    STEP_COLLAPSE,
    RunResult,
    SolverOptions,
    backtracking_line_search,
    iterate,
)


def _make_ray(p, M, x, d, store):
    """Cost along the retracted ray, and the point at an accepted step.

    Degenerate trial steps cost +inf.  Each trial's point and token are kept
    by t, so the accepted point is neither retracted nor evaluated again.
    """
    trials = {}

    def phi(t):
        try:
            y = M.retract(x, d, t)
            tok = new_token()
            f = get_cost(p, y, store, tok)
        except DegenerateStepError:
            return math.inf
        trials[t] = y, tok
        return f

    def point(t):
        if t in trials:
            return trials[t]
        return M.retract(x, d, t), new_token()

    return phi, point


def _initial_step(kappa, slope, typical_dist, dnorm):
    """-slope / (kappa ||d||^2), or the a-priori step while kappa is unknown or
    that step is not positive and finite.  Python floats overflow silently."""
    curvature = kappa * float(dnorm) * float(dnorm) if kappa else 0.0
    t0 = -float(slope) / curvature if curvature > 0 else 0.0
    return t0 if 0 < t0 < math.inf else min(typical_dist / dnorm, typical_dist)


def _fitted_curvature(f0, slope, t, f_t, dnorm):
    """kappa = 2 (f(t) - f0 - slope t) / (t ||d||)^2, or None when the step did
    not strictly lower the cost or kappa is not positive and finite (also
    when (t ||d||)^2 underflows)."""
    step_sq = float(t * dnorm) * float(t * dnorm)
    kappa = 2.0 * float(f_t - f0 - slope * t) / step_sq if f_t < f0 and step_sq > 0 else 0.0
    return kappa if 0 < kappa < math.inf else None


def steepest_descent(
    p: ProblemDef,
    x0=None,
    opts: Optional[SolverOptions] = None,
    rng=None,
) -> RunResult:
    """Riemannian gradient descent with Armijo backtracking."""
    return _descent(p, x0, opts, rng, conjugate=False)


def conjugate_gradient(
    p: ProblemDef,
    x0=None,
    opts: Optional[SolverOptions] = None,
    rng=None,
) -> RunResult:
    """Preconditioned nonlinear CG with the Polak-Ribiere-plus beta rule.

    The search direction is transported to each new point; beta is clamped
    at zero and the direction is reset to steepest descent whenever it
    fails to be a descent direction.  A first trial of the default search
    that passes Armijo far from the fitted minimizer is followed by one
    trial there.
    """
    return _descent(p, x0, opts, rng, conjugate=True)


def _descent(p: ProblemDef, x0, opts, rng, conjugate: bool) -> RunResult:
    """The line-search step rule of both solvers.

    Without ``conjugate`` the direction is -grad, with slope -||grad||^2 and
    no preconditioner.  With it, the gradient at the new point also gives
    beta and the next direction, and a search that fails along a conjugate
    direction (beta > 0) is tried once more along -P grad, from the
    a-priori initial step rather than the fitted curvature.
    """
    M = p.manifold

    def rule(opts, store):
        kappa = None
        d, beta = None, 0.0
        line_search = opts.line_search or functools.partial(
            backtracking_line_search, opts=opts, extrapolate=conjugate
        )

        def search(x, f, d, slope, dnorm):
            """Line search from x along d: (step, cost, point, token) or None."""
            nonlocal kappa
            t0 = _initial_step(kappa, slope, M.typical_dist, dnorm)
            phi, point = _make_ray(p, M, x, d, store)
            ls = line_search(phi, f, slope, t0)
            if ls is None:
                return None
            kappa = _fitted_curvature(f, slope, *ls, dnorm)
            return ls[0] * dnorm, ls[1], *point(ls[0])

        def step(x, tok, f, g, gnorm):
            nonlocal kappa, d, beta
            if not conjugate:
                d = M.lincomb(x, -1.0, g)
                found = search(x, f, d, -(gnorm**2), gnorm)
            else:
                pg = g if p.precond is None else p.precond(x, g)
                if d is None or M.inner(x, d, g) >= 0:
                    d, beta = M.lincomb(x, -1.0, pg), 0.0
                found = search(x, f, d, M.inner(x, g, d), M.norm(x, d))
                if found is None and beta > 0:  # once more, along -P grad
                    d, beta = M.lincomb(x, -1.0, pg), 0.0
                    kappa = None  # from the a-priori step
                    found = search(x, f, d, M.inner(x, g, d), M.norm(x, d))
            if found is None:
                return STEP_COLLAPSE
            step_size, f_new, x_new, tok_new = found
            if conjugate:
                g_new = get_gradient(p, x_new, store, tok_new)
                pg_new = g_new if p.precond is None else p.precond(x_new, g_new)
                pg_moved = M.transport(x, x_new, pg)
                d_moved = M.transport(x, x_new, d)
                denom = M.inner(x, g, pg)
                beta = 0.0
                if denom > 0:
                    beta = max(
                        0.0,
                        M.inner(x_new, g_new, M.lincomb(x_new, 1.0, pg_new, -1.0, pg_moved))
                        / denom,
                    )
                d = M.lincomb(x_new, -1.0, pg_new, beta, d_moved)
            return x_new, tok_new, step_size, None, None, None

        return step, (0.0, None, None, None)

    return iterate(p, x0, opts, rng, rule)
