"""First-order solvers: steepest descent and nonlinear conjugate gradients.

Both take one line-search step rule; steepest descent is that rule with
the direction reset to -grad at every point.  The step comes from Armijo
backtracking (or a user-supplied line search) with an adaptive initial
step: twice the previous cost decrease divided by the directional
derivative, which keeps the expected number of backtracks around one.
"""

from __future__ import annotations

import math
from typing import Optional

from ..exceptions import DegenerateStepError, RankCollapseError
from ..problem import ProblemDef, apply_precond, get_cost, get_gradient
from .core import (
    STEP_COLLAPSE,
    RunResult,
    SolverOptions,
    backtracking_line_search,
    iterate,
)


def _make_ray(p, M, x, d, store):
    """Cost along the retracted ray, and the point at an accepted step.

    Degenerate trial steps cost +inf.  The last trial's point and token are
    kept, so the accepted point is neither retracted nor evaluated again.
    """
    trial = [None, None, None]

    def phi(t):
        try:
            y = M.retract(x, d, t)
            tok = store.token()
            f = get_cost(p, y, store, tok)
        except (DegenerateStepError, RankCollapseError):
            return math.inf
        trial[:] = t, y, tok
        return f

    def point(t):
        if trial[0] == t:
            return trial[1], trial[2]
        return M.retract(x, d, t), store.token()

    return phi, point


def _initial_step(prev_decrease, slope, typical_dist, dnorm):
    if prev_decrease is not None and prev_decrease > 0 and slope < 0:
        return 2.0 * prev_decrease / (-slope)
    return min(typical_dist / dnorm, typical_dist)


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
    fails to be a descent direction.
    """
    return _descent(p, x0, opts, rng, conjugate=True)


def _descent(p: ProblemDef, x0, opts, rng, conjugate: bool) -> RunResult:
    """The line-search step rule of both solvers.

    Without ``conjugate`` the direction is -grad, with slope -||grad||^2 and
    no preconditioner.  With it, the gradient at the new point also gives
    beta and the next direction.
    """
    M = p.manifold

    def rule(opts, store):
        prev_decrease = None
        d = None

        def step(x, tok, f, g, gnorm):
            nonlocal prev_decrease, d
            if conjugate:
                pg = apply_precond(p, x, g)
                if d is None or M.inner(x, d, g) >= 0:
                    d = M.lincomb(x, -1.0, pg)
                slope = M.inner(x, g, d)
                dnorm = M.norm(x, d)
            else:
                d = M.lincomb(x, -1.0, g)
                slope = -(gnorm**2)
                dnorm = gnorm
            t0 = _initial_step(prev_decrease, slope, M.typical_dist, dnorm)
            phi, point = _make_ray(p, M, x, d, store)
            if opts.line_search is None:
                ls = backtracking_line_search(phi, f, slope, t0, opts)
            else:
                ls = opts.line_search(phi, f, slope, t0)
            if ls is None:
                return STEP_COLLAPSE
            t, f_new = ls
            prev_decrease = f - f_new

            x_new, tok_new = point(t)
            g_new = get_gradient(p, x_new, store, tok_new)
            if conjugate:
                pg_new = apply_precond(p, x_new, g_new)
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
            return (x_new, tok_new, f_new, g_new, M.norm(x_new, g_new),
                    t * dnorm, None, None, None)

        return step, (0.0, None, None, None)

    return iterate(p, x0, opts, rng, rule)
