"""First-order solvers: steepest descent and nonlinear conjugate gradients.

Both take one line-search step rule; steepest descent is that rule with
the direction reset to -grad at every point.  The step comes from Armijo
backtracking (or a user-supplied line search) with an adaptive initial
step: twice the previous cost decrease divided by the directional
derivative.  On a quadratic that step is the minimizer along the ray when
the cost falls as much as it did at the last step; near a minimizer the
decrease shrinks from step to step, so the step overshoots, and each
backtrack moves to the minimizer of the quadratic fitted along the ray
rather than shrinking by a fixed factor (see ``backtracking_line_search``).
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from ..exceptions import DegenerateStepError, RankCollapseError
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
        except (DegenerateStepError, RankCollapseError):
            return math.inf
        trials[t] = y, tok
        return f

    def point(t):
        if t in trials:
            return trials[t]
        return M.retract(x, d, t), new_token()

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
    beta and the next direction, and a search that fails along a conjugate
    direction (beta > 0) is tried once more along -P grad, from the
    a-priori initial step: the failed search's guess came from the last
    decrease, which may have been tiny.
    """
    M = p.manifold

    def rule(opts, store):
        prev_decrease = None
        d, beta = None, 0.0
        line_search = opts.line_search or functools.partial(backtracking_line_search, opts=opts)

        def search(x, f, d, slope, dnorm):
            """Line search from x along d: (step, cost, point, token) or None."""
            t0 = _initial_step(prev_decrease, slope, M.typical_dist, dnorm)
            phi, point = _make_ray(p, M, x, d, store)
            ls = line_search(phi, f, slope, t0)
            return None if ls is None else (ls[0] * dnorm, ls[1], *point(ls[0]))

        def step(x, tok, f, g, gnorm):
            nonlocal prev_decrease, d, beta
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
                    prev_decrease = None  # from the a-priori step
                    found = search(x, f, d, M.inner(x, g, d), M.norm(x, d))
            if found is None:
                return STEP_COLLAPSE
            step_size, f_new, x_new, tok_new = found
            prev_decrease = f - f_new
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
