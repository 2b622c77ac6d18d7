"""Riemannian trust-region method with a truncated-CG model solver.

The outer loop minimizes the quadratic model <g, eta> + 0.5 <eta, H eta>
inside a radius Delta, compares actual and predicted decrease through the
ratio rho (regularized against 0/0 near convergence), and adjusts Delta by
the classic quarter/double rule.  The inner solver is the Steihaug-Toint
truncated CG: it stops on a residual target, negative curvature, the
trust-region boundary, or an iteration cap.
"""

from __future__ import annotations

import math
from typing import Optional

from ..exceptions import DegenerateStepError, RankCollapseError
from ..problem import ProblemDef, get_cost, get_gradient, get_hessian
from .core import RunResult, SolverOptions, iterate

# tCG stop flags
TCG_RESIDUAL = "residual"
TCG_NEGATIVE_CURVATURE = "negative_curvature"
TCG_BOUNDARY = "boundary"
TCG_MAX_INNER = "max_inner"


def tcg_subsolver(
    p: ProblemDef,
    x,
    g,
    delta: float,
    opts: Optional[SolverOptions] = None,
    store=None,
    token=None,
):
    """Truncated CG on the trust-region model at x.

    Returns (eta, H_eta, stop_flag, inner_iterations).  The residual target
    is ||r|| <= ||r0|| * min(||r0||^theta, kappa), the usual switch between
    a superlinear and a linear convergence goal; theta is ``tcg_theta``
    with an exact Hessian and 0 otherwise, since finite-difference noise
    defeats a superlinear target.  Without a preconditioner
    z = r, so one inner product <r, r> gives both ||r|| and <r, z>.
    """
    opts = opts if opts is not None else SolverOptions()
    M = p.manifold
    kappa = opts.tcg_kappa
    theta = opts.tcg_theta if p.has_exact_hessian() else 0.0
    max_inner = opts.max_inner if opts.max_inner is not None else 2 * max(M.dim, 1)

    precond = p.precond
    eta = M.zero_tangent(x)
    h_eta = M.zero_tangent(x)
    r = g
    r_r = M.inner(x, r, r)
    if precond is None:
        z, r_z = r, r_r
    else:
        z = precond(x, r)
        r_z = M.inner(x, r, z)
    d = M.lincomb(x, -1.0, z)
    e_pe = 0.0
    e_pd = 0.0
    d_pd = r_z
    norm_r0 = math.sqrt(max(r_r, 0.0))
    delta2 = delta * delta

    inner_iters = 0
    stop = TCG_MAX_INNER
    for j in range(max_inner):
        inner_iters = j + 1
        h_d = get_hessian(p, x, d, store, token)
        d_hd = M.inner(x, d, h_d)
        if d_hd > 0:
            alpha = r_z / d_hd
            e_pe_new = e_pe + 2.0 * alpha * e_pd + alpha * alpha * d_pd
        else:
            alpha = 0.0
            e_pe_new = math.inf
        if d_hd <= 0 or e_pe_new >= delta2:
            # Move to the boundary along d.
            tau = (-e_pd + math.sqrt(max(e_pd * e_pd + d_pd * (delta2 - e_pe), 0.0))) / d_pd
            eta = M.lincomb(x, 1.0, eta, tau, d)
            h_eta = M.lincomb(x, 1.0, h_eta, tau, h_d)
            stop = TCG_NEGATIVE_CURVATURE if d_hd <= 0 else TCG_BOUNDARY
            break
        e_pe = e_pe_new
        eta = M.lincomb(x, 1.0, eta, alpha, d)
        h_eta = M.lincomb(x, 1.0, h_eta, alpha, h_d)
        r = M.lincomb(x, 1.0, r, alpha, h_d)
        r_r = M.inner(x, r, r)
        norm_r = math.sqrt(max(r_r, 0.0))
        if norm_r <= norm_r0 * min(norm_r0**theta, kappa):
            stop = TCG_RESIDUAL
            break
        if precond is None:
            z, r_z_new = r, r_r
        else:
            z = precond(x, r)
            r_z_new = M.inner(x, r, z)
        beta = r_z_new / r_z
        r_z = r_z_new
        e_pd = beta * (e_pd + alpha * d_pd)
        d_pd = r_z + beta * beta * d_pd
        d = M.lincomb(x, -1.0, z, beta, d)
    return eta, h_eta, stop, inner_iters


def trust_regions(
    p: ProblemDef,
    x0=None,
    opts: Optional[SolverOptions] = None,
    rng=None,
) -> RunResult:
    """Riemannian trust-region solver (globally convergent; locally
    quadratic when an exact Hessian is available)."""
    M = p.manifold

    def rule(opts, store):
        delta_bar = opts.delta_bar if opts.delta_bar is not None else M.typical_dist
        delta = opts.delta0 if opts.delta0 is not None else delta_bar / 8.0

        def step(x, tok, f, g, gnorm):
            nonlocal delta
            eta, h_eta, tcg_stop, inner = tcg_subsolver(p, x, g, delta, opts, store, tok)
            try:
                x_prop = M.retract(x, eta, 1.0)
                tok_prop = store.token()
                f_prop = get_cost(p, x_prop, store, tok_prop)
            except (DegenerateStepError, RankCollapseError):
                # Step left the representable set; shrink and retry.
                delta /= 4.0
                return x, tok, f, g, gnorm, 0.0, inner, delta, -math.inf

            model_decrease = -(M.inner(x, g, eta) + 0.5 * M.inner(x, eta, h_eta))
            reg = opts.rho_regularization * max(1.0, abs(f))
            rho = (f - f_prop + reg) / (model_decrease + reg)

            if model_decrease <= 0 or rho < 0.25:
                delta /= 4.0
            elif rho > 0.75 and tcg_stop in (TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE):
                delta = min(2.0 * delta, delta_bar)
            if not (model_decrease > 0 and rho > opts.rho_prime):
                return x, tok, f, g, gnorm, 0.0, inner, delta, rho
            step_size = M.norm(x, eta)
            g_prop = get_gradient(p, x_prop, store, tok_prop)
            return (x_prop, tok_prop, f_prop, g_prop, M.norm(x_prop, g_prop),
                    step_size, inner, delta, rho)

        return step, (0.0, None, delta, None)

    return iterate(p, x0, opts, rng, rule)
