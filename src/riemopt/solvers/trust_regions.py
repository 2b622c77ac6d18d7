"""Riemannian trust-region method with a truncated-CG model solver.

The outer loop minimizes the quadratic model <g, eta> + 0.5 <eta, H eta>
inside a radius Delta, compares actual and predicted decrease through the
ratio rho (regularized against 0/0 near convergence), and adjusts Delta by
the classic quarter/double rule.  The inner solver is the Steihaug-Toint
truncated CG: it stops on a residual target, negative curvature, the
trust-region boundary, or an iteration cap.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..exceptions import DegenerateStepError, RankCollapseError
from ..manifolds.base import array_lincomb, check_shape, trace_inner
from ..problem import ProblemDef, get_cost, hessian_at, new_token
from .core import NONFINITE, RunResult, SolverOptions, iterate

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
    products: Optional[list] = None,
):
    """Truncated CG on the trust-region model at x.

    Returns (eta, H_eta, stop_flag, inner_iterations).  The residual target
    is ||r|| <= ||r0|| * min(||r0||^theta, kappa), the usual switch between
    a superlinear and a linear convergence goal; theta is ``tcg_theta``
    with an exact Hessian and 0 otherwise, since finite-difference noise
    defeats a superlinear target.  Without a preconditioner
    z = r, so one inner product <r, r> gives both ||r|| and <r, z>.

    The Hessian route is resolved once per call (``hessian_at``).  One loop
    runs the Steihaug-Toint recurrence over one of two vector algebras,
    picked once per call.  When the manifold uses the dense-array algebra
    (``inner`` is ``trace_inner`` and ``lincomb`` is ``array_lincomb``, as
    for every factory built by ``embedded_descriptor``) the loop takes
    inner products with ``np.vdot`` and updates eta, H eta and the residual
    in place (``_array_step``), with the same bits as the descriptor's
    calls; it checks the shape of g, of each new Hessian product and of
    each preconditioner output, as ``trace_inner`` would.  Every other
    descriptor (fixed-rank and product tangents, or callables wrapped for
    tracing) goes through ``M.inner`` and ``M.lincomb``.  Either way the
    loop never writes into g, into a direction d, or into any array a
    callable returned or ``products`` holds (a Hessian may return its
    input): only eta, H eta and r, which are its own, change in place.

    ``products``, when given, holds the pairs (H d_j, <d_j, H d_j>) of
    earlier calls at the same x and g, by inner step j; steps beyond it are
    computed and appended.  Delta enters only the boundary test, so the
    directions d_j do not depend on it: a later call at the same x and g
    repeats the same d_j in the same order, reads their products back and
    returns what a fresh call would, bit for bit.  A call with a smaller
    Delta stops at or before the step where the first one stopped, so it
    computes no product at all.  The products are kept as the Hessian
    returned them, so a Hessian callable must not reuse its output array.
    """
    opts = opts if opts is not None else SolverOptions()
    M = p.manifold
    precond = p.precond
    hess = hessian_at(p, x, store, token)
    kappa = opts.tcg_kappa
    theta = opts.tcg_theta if p.has_exact_hessian() else 0.0
    max_inner = opts.max_inner if opts.max_inner is not None else 2 * max(M.dim, 1)

    if M.inner is trace_inner and M.lincomb is array_lincomb:
        inner, check, step = np.vdot, check_shape, _array_step
        check(x, g, "inner: first tangent")
        r = np.array(g, dtype=float)  # a copy: g is never written into
        eta = np.zeros_like(r)
        h_eta = np.zeros_like(r)

        def direction(beta, d, z):
            return beta * d - z
    else:
        inner, check = functools.partial(M.inner, x), _no_check
        r = g
        eta = M.zero_tangent(x)
        h_eta = M.zero_tangent(x)

        def step(eta, h_eta, r, a, d, h_d):
            eta = M.lincomb(x, 1.0, eta, a, d)
            h_eta = M.lincomb(x, 1.0, h_eta, a, h_d)
            if r is not None:
                r = M.lincomb(x, 1.0, r, a, h_d)
            return eta, h_eta, r

        def direction(beta, d, z):
            return M.lincomb(x, -1.0, z, beta, d)

    r_r = float(inner(r, r))
    if precond is None:
        z, r_z = r, r_r
    else:
        z = precond(x, r)
        check(x, z, "inner: second tangent")
        r_z = float(inner(r, z))
    d = M.lincomb(x, -1.0, z)
    e_pe = 0.0
    e_pd = 0.0
    d_pd = r_z
    norm_r0 = math.sqrt(max(r_r, 0.0))
    target = norm_r0 * min(norm_r0**theta, kappa)
    delta2 = delta * delta

    inner_iters = 0
    stop = TCG_MAX_INNER
    for j in range(max_inner):
        inner_iters = j + 1
        if products is not None and j < len(products):
            h_d, d_hd = products[j]
        else:
            h_d = hess(d)
            check(x, h_d, "inner: second tangent")
            d_hd = float(inner(d, h_d))
            if products is not None:
                products.append((h_d, d_hd))
        if 0 < d_hd < math.inf:
            alpha = r_z / d_hd
            e_pe_new = e_pe + 2.0 * alpha * e_pd + alpha * alpha * d_pd
        else:
            alpha = 0.0
            e_pe_new = math.inf
        if d_hd <= 0 or e_pe_new >= delta2:
            # Move to the boundary along d.
            tau = (-e_pd + math.sqrt(max(e_pd * e_pd + d_pd * (delta2 - e_pe), 0.0))) / d_pd
            eta, h_eta, _ = step(eta, h_eta, None, tau, d, h_d)
            stop = TCG_NEGATIVE_CURVATURE if d_hd <= 0 else TCG_BOUNDARY
            break
        e_pe = e_pe_new
        eta, h_eta, r = step(eta, h_eta, r, alpha, d, h_d)
        r_r = float(inner(r, r))
        norm_r = math.sqrt(max(r_r, 0.0))
        if norm_r <= target:
            stop = TCG_RESIDUAL
            break
        if precond is None:
            z, r_z_new = r, r_r
        else:
            z = precond(x, r)
            check(x, z, "inner: second tangent")
            r_z_new = float(inner(r, z))
        beta = r_z_new / r_z
        r_z = r_z_new
        e_pd = beta * (e_pd + alpha * d_pd)
        d_pd = r_z + beta * beta * d_pd
        d = direction(beta, d, z)
    return eta, h_eta, stop, inner_iters


def _array_step(eta, h_eta, r, a, d, h_d):
    """eta += a d and H eta += a H d in place, and r += a H d unless r is
    None (the boundary step); a H d is formed once."""
    eta += a * d
    a_h_d = a * h_d
    h_eta += a_h_d
    if r is not None:
        r += a_h_d
    return eta, h_eta, r


def _no_check(x, u, what):
    pass


def trust_regions(
    p: ProblemDef,
    x0=None,
    opts: Optional[SolverOptions] = None,
    rng=None,
) -> RunResult:
    """Riemannian trust-region solver (globally convergent; locally
    quadratic when an exact Hessian is available).

    The tCG's Hessian-vector products at a point are kept in the point's
    cache entry (see ``tcg_subsolver``): after a rejected step, or a
    retraction that raised ``DegenerateStepError`` or ``RankCollapseError``,
    the rerun at the same point with a smaller Delta computes no product
    again, and the products go with the entry when a step is accepted.  The
    rule itself keeps only Delta.  A step whose model decrease is NaN or
    infinite (a non-finite Hessian product) ends the run as ``nonfinite``
    before it retracts.
    """
    M = p.manifold

    def rule(opts, store):
        delta_bar = opts.delta_bar if opts.delta_bar is not None else M.typical_dist
        delta = opts.delta0 if opts.delta0 is not None else delta_bar / 8.0

        def step(x, tok, f, g, gnorm):
            nonlocal delta
            eta, h_eta, tcg_stop, inner = tcg_subsolver(
                p, x, g, delta, opts, store, tok, tok.setdefault("tcg_products", [])
            )
            model_decrease = -(M.inner(x, g, eta) + 0.5 * M.inner(x, eta, h_eta))
            if not math.isfinite(model_decrease):
                # A NaN or infinite Hessian product: rho would reject every
                # step, and each rerun would read the same product back.
                return NONFINITE
            try:
                x_prop = M.retract(x, eta, 1.0)
                tok_prop = new_token()
                f_prop = get_cost(p, x_prop, store, tok_prop)
            except (DegenerateStepError, RankCollapseError):
                # Step left the representable set; shrink and retry.
                delta /= 4.0
                return x, tok, 0.0, inner, delta, -math.inf

            reg = opts.rho_regularization * max(1.0, abs(f))
            rho = (f - f_prop + reg) / (model_decrease + reg)

            if model_decrease <= 0 or rho < 0.25:
                delta /= 4.0
            elif rho > 0.75 and tcg_stop in (TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE):
                delta = min(2.0 * delta, delta_bar)
            if not (model_decrease > 0 and rho > opts.rho_prime):
                return x, tok, 0.0, inner, delta, rho
            return x_prop, tok_prop, M.norm(x, eta), inner, delta, rho

        return step, (0.0, None, delta, None)

    return iterate(p, x0, opts, rng, rule)
