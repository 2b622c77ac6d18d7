"""First-order solvers: steepest descent and nonlinear conjugate gradients.

Both run one line-search loop; steepest descent is that loop with the
direction reset to -grad at every point.  The step comes from Armijo
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
    IterationRecord,
    RunResult,
    SolverOptions,
    backtracking_line_search,
    emit_record,
    finish_run,
    shared_stopping,
    start_run,
)


def _make_phi(p, M, x, d, store):
    """Cost along the retracted ray; degenerate trial steps count as +inf."""

    def phi(t):
        try:
            return get_cost(p, M.retract(x, d, t), store, None)
        except (DegenerateStepError, RankCollapseError):
            return math.inf

    return phi


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
    """The line-search loop of both solvers.

    Without ``conjugate`` the direction is -grad, with slope -||grad||^2 and
    no preconditioner.  With it, the gradient computed at the new point for
    beta is cached under the token the next iteration reads.
    """
    if conjugate and opts is not None and opts.beta_rule != "PR+":
        raise ValueError(f"unsupported beta_rule {opts.beta_rule!r}; only 'PR+'")
    opts, store, x, t_start = start_run(p, x0, opts, rng)
    M = p.manifold

    history = []
    prev_decrease = None
    step_size = 0.0
    d = None
    tok = store.token()
    it = 0
    while True:
        f = get_cost(p, x, store, tok)
        g = get_gradient(p, x, store, tok)
        gnorm = M.norm(x, g)
        rec = IterationRecord(it, f, gnorm, opts.clock() - t_start, step_size)
        history.append(rec)
        emit_record(rec, opts)
        stop, reason = shared_stopping(rec, opts)
        if stop:
            return finish_run(x, f, gnorm, reason, history, store)
        if gnorm <= opts.tol_grad_norm:
            # Already critical; idle at the same point (and cache token)
            # until min_iter allows the stop.
            step_size = 0.0
            d = None
            it += 1
            continue

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
        phi = _make_phi(p, M, x, d, store)
        if opts.line_search is None:
            ls = backtracking_line_search(phi, f, slope, t0, opts)
        else:
            ls = opts.line_search(phi, f, slope, t0)
        if ls is None:
            return finish_run(x, f, gnorm, STEP_COLLAPSE, history, store)
        t, f_new = ls
        prev_decrease = f - f_new

        x_new = M.retract(x, d, t)
        tok_new = store.token()
        if conjugate:
            g_new = get_gradient(p, x_new, store, tok_new)
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
        x, tok = x_new, tok_new
        step_size = t * dnorm
        it += 1
