"""Max-cut via the rank-r elliptope relaxation.

The relaxation optimizes Y in R^{n x r} with unit rows, minimizing
-trace(Y'LY)/4.  Random hyperplane rounding turns Y into a sign vector.
At any Y the dual matrix S = Diag(d) - L with d_i = (L Y Y')_ii gives, by
weak duality, the upper bound (trace(L Y Y') - n min(lambda_min(S), 0))/4
on every cut.  If S is (numerically) positive semidefinite, Y Y' solves the
max-cut SDP and the bound is its optimum up to the tolerance.  Otherwise
each eigenvector of a negative eigenvalue of S, placed in a zero column
appended to Y, is a descent direction to second order; the
rank-escalation loop grows the rank geometrically and steps off along
them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..manifolds import elliptope_factory
from ..problem import ProblemDef
from ..solvers import (
    RunResult,
    SolverOptions,
    conjugate_gradient,
    steepest_descent,
    trust_regions,
)

logger = logging.getLogger(__name__)

CERTIFIED = "certified"  # the stop reason of a solve that the certificate ended

SOLVERS = {
    "tr": trust_regions,
    "cg": conjugate_gradient,
    "sd": steepest_descent,
}


@dataclass
class CutResult:
    s: np.ndarray  # sign vector in {+1, -1}^n
    cut_value: float
    upper_bound: float
    certified: bool
    rank_used: int
    histories: List[RunResult] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        """Iterations over all solves: each solve's last record's
        ``iteration`` (its history also holds the iteration-0 record)."""
        return sum(r.history[-1].iteration for r in self.histories if r.history)


class FoldedLaplacian:
    """L folded once into Lh = L * -0.5 (an operator given as L shares its
    Lh).  Each value has the bits of its formula in L: scaling by a power of
    two is exact, up to subnormal products (weights below about 1e-290).
    Products are a plain ``Lh @ ·``, and Lh keeps L's ndarray subclass."""

    def __init__(self, L: np.ndarray | FoldedLaplacian):
        self.Lh = L.Lh if isinstance(L, FoldedLaplacian) else L * -0.5

    def dual(self, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(L Y) * Y, whose row i sums to d_i and all of it to trace(L Y Y'),
        and the dual matrix S = Diag(d) - L."""
        lyy = ((self.Lh @ Y) * -2.0 + 0.0) * Y  # + 0.0: the zeros of L Y are +0.0
        S = self.Lh * 2.0  # -L
        S += 0.0  # Diag(d) - L reads +0.0 where -L reads -0.0
        S.flat[:: S.shape[0] + 1] = np.sum(lyy, axis=1) + np.diagonal(self.Lh) * 2.0
        return lyy, S

    def threshold(self, tol: float) -> float:
        """The least lambda_min(S) that certifies: -tol ||L||_1 (-tol when L = 0)."""
        return -tol * (float(np.linalg.norm(self.Lh, 1)) * 2.0 or 1.0)


def build_problem(L: np.ndarray | FoldedLaplacian, r: int) -> ProblemDef:
    """Relaxed max-cut problem of L (dense or folded) on the rank-r elliptope.

    cost(Y) = -trace(Y'LY)/4 = <Y, Lh Y>/2, egrad(Y) = -(LY)/2 = Lh Y and
    ehess(Y, U) = Lh U.  Lh Y is kept in the per-point cache, so the cost
    and the gradient share one multiply; the point's token keeps egrad, so
    Hessian-vector products there cost one Lh U each.
    """
    if r < 1:
        raise ValueError(f"build_problem: rank must be >= 1, got {r}")
    Lh = FoldedLaplacian(L).Lh
    manifold = elliptope_factory(Lh.shape[0], r)

    def cached_lhy(y: np.ndarray, cache: dict) -> np.ndarray:
        if "LhY" not in cache:
            cache["LhY"] = Lh @ y
        return cache["LhY"]

    def cost(y, cache):
        return float(np.vdot(y, cached_lhy(y, cache))) / 2.0

    def ehess(y, u):
        return Lh @ u

    return ProblemDef(manifold=manifold, cost=cost, egrad=cached_lhy, ehess=ehess)


def solve_rank_r(
    L: np.ndarray | FoldedLaplacian,
    r: int,
    opts: Optional[SolverOptions] = None,
    rng=None,
    x0: Optional[np.ndarray] = None,
    solver: str = "tr",
) -> Tuple[np.ndarray, RunResult]:
    """Optimize the rank-r relaxation from a random (or given) start."""
    result = SOLVERS[solver](build_problem(L, r), x0, opts, rng)
    return result.x_final, result


def round_cut(
    L: np.ndarray | FoldedLaplacian, Y: np.ndarray, trials: int, rng
) -> Tuple[np.ndarray, float]:
    """Random hyperplane rounding: keep the best of ``trials`` projections.

    Zero components of Y z are mapped to +1 so the rule is deterministic.
    All trials are drawn and scored at once; the draw consumes the same
    numbers as ``trials`` draws of size r, and the first best trial wins.
    The winner's value is recomputed as s'Ls/4 on its own.
    """
    if trials < 1:
        raise ValueError(f"round_cut: trials must be >= 1, got {trials}")
    Lh = FoldedLaplacian(L).Lh
    Z = rng.standard_normal((trials, Y.shape[1]))
    S = np.where(Y @ Z.T >= 0, 1.0, -1.0)  # column k: signs of trial k
    vals = (S * (Lh @ S)).sum(axis=0)  # -1/2 of each trial's s'Ls
    s = S[:, int(np.argmin(vals))].copy()
    return s, 0.0 - float(s @ Lh @ s) / 2.0  # s'Ls/4, and +0.0 for an empty cut


def certify(
    L: np.ndarray | FoldedLaplacian, Y: np.ndarray, tol: float = 1e-6
) -> Tuple[bool, float, float, np.ndarray]:
    """Dual certificate and upper bound at Y, for L dense or folded.

    Returns (certified, lambda_min(S), upper_bound, V).  For any mu <=
    lambda_min(S), d - mu 1 is feasible for the SDP's dual, so the bound
    (trace(L Y Y') - n min(lambda_min, 0))/4 holds for every cut at every
    Y, critical or not (up to the rounding of ``eigh``).  Certification
    demands lambda_min >= -tol * ||L||_1 (the induced 1-norm keeps the
    tolerance scale-aware); the bound of a certified Y then exceeds
    trace(L Y Y')/4, the relaxation's value at Y, by at most
    n tol ||L||_1 / 4.  V holds copies of the eigenvectors of S whose
    eigenvalues lie below that threshold, most negative first (a view would
    keep all n), so V has no columns exactly when Y is certified.  ``tol``
    must be positive and finite (ValueError otherwise), as the CLI's ``--tol``.
    """
    _check_tol("certify", tol)
    L = FoldedLaplacian(L)
    lyy, S = L.dual(Y)
    evals, evecs = np.linalg.eigh(S)  # ascending
    lam_min = float(evals[0])
    threshold = L.threshold(tol)
    bound = (float(np.sum(lyy)) - Y.shape[0] * min(lam_min, 0.0)) / 4.0
    return lam_min >= threshold, lam_min, bound, evecs[:, : int(np.searchsorted(evals, threshold))].copy()


def _certificate_stop(L: FoldedLaplacian, tol: float, opts: SolverOptions):
    """An escalating solve's stop callback: the caller's own first, then, at
    gradient norms up to sqrt(``tol_grad_norm``), ``certified`` if S - t I at
    Y has a Cholesky factor (lambda_min(S) > t, ``certify``'s threshold, up
    to rounding): a tenth or less of ``certify``'s ``eigh`` time (n = 40 to
    2000, one BLAS thread), but no lambda_min or bound."""
    user, gate, threshold = opts.stop_callback, math.sqrt(opts.tol_grad_norm), L.threshold(tol)

    def stop(record, Y):
        verdict = user(record, Y) if user is not None else None
        if verdict or record.grad_norm > gate:
            return verdict
        S = L.dual(Y)[1]
        S.flat[:: S.shape[0] + 1] -= threshold
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return verdict
        return CERTIFIED

    return stop


def _check_tol(who: str, tol: float) -> None:
    # Written so that NaN fails the test: a NaN, negative or zero tol
    # certifies nothing, and an infinite one certifies any Y.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{who}: tol must be positive and finite, got {tol}")


def next_rank(r: int, n: int) -> int:
    """The rank that escalation tries after r on an n-node graph.

    Below the Barvinok-Pataki rank r_BP, the least r with r(r+1)/2 >= n
    (that is, ceil((sqrt(8n+1) - 1)/2)), the rank doubles up to r_BP; from
    r_BP on it doubles up to n.
    """
    r_bp = (math.isqrt(8 * n + 1) - 1) // 2
    if r_bp * (r_bp + 1) // 2 < n:
        r_bp += 1
    return min(2 * r, r_bp if r < r_bp else n)


def rank_escalation(
    L: np.ndarray | FoldedLaplacian,
    r0: int = 4,
    opts: Optional[SolverOptions] = None,
    rng=None,
    trials: int = 100,
    tol: float = 1e-6,
    solver: str = "tr",
) -> CutResult:
    """Escalate the relaxation rank until the dual certificate is PSD.

    The ranks tried are r0 capped at n (so at the default r0 = 4 a graph
    of at most 4 nodes runs one solve, at rank n), then ``next_rank`` of
    each until one certifies or the rank reaches n.  A rank-2 start rarely
    certifies and costs more than its warm start saves the next rank, so
    the default skips it.  A rank's solve also ends once a Cholesky test
    of the certificate passes (``_certificate_stop``); ``certify`` then
    decides the verdict, lambda_min and the bound.  At an uncertified
    point Y of rank r, critical or not (a solve may stop at ``max_iter``),
    the next rank r + k is warm-started from Y padded with k zero columns,
    stepped along up to k eigenvectors of the certificate's negative
    eigenvalues, one per new column (``_step_off``; Y padded alone if that
    step does not lower the cost).  Each rank's Y is rounded with
    ``trials`` hyperplanes per column added by the step that reached it,
    every column of the first rank counting as added: as much rounding per
    column as a schedule that adds one column per rank draws.  The result
    carries the last rank's bound, which holds for every cut whether it
    certified or not.

    Each rank logs one DEBUG record to this module's logger: the rank, the
    solver's iterations, lambda_min, the eigenvectors the warm start used
    and whether the rank certified.
    """
    if r0 < 2:
        raise ValueError(f"rank_escalation: r0 must be >= 2, got {r0}")
    _check_tol("rank_escalation", tol)
    rng = rng if rng is not None else np.random.default_rng(0)
    L = FoldedLaplacian(L)
    n = L.Lh.shape[0]
    opts = opts if opts is not None else SolverOptions()
    opts = replace(opts, stop_callback=_certificate_stop(L, tol, opts))

    histories: List[RunResult] = []
    best_s, best_val = None, -np.inf
    x0 = None
    r = added = min(r0, n)
    while True:
        Y, run = solve_rank_r(L, r, opts, rng, x0=x0, solver=solver)
        histories.append(run)
        s, val = round_cut(L, Y, trials * added, rng)
        if val > best_val:
            best_s, best_val = s, val

        certified, lam_min, bound, V = certify(L, Y, tol)
        done = certified or r >= n
        used = 0
        if not done:
            r_next = next_rank(r, n)
            added = r_next - r
            x0, used = _step_off(L, Y, added, V)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "rank %d: %d iterations, lambda_min %.6e, %d eigenvectors used, certified %s",
                r, run.history[-1].iteration, lam_min, used, certified,
            )
        if done:
            return CutResult(
                s=best_s,
                cut_value=best_val,
                upper_bound=bound,
                certified=certified,
                rank_used=r,
                histories=histories,
            )
        r = r_next


def _step_off(L: FoldedLaplacian, Y: np.ndarray, k: int, V: np.ndarray) -> Tuple[np.ndarray, int]:
    """Warm start at rank r + k near the n x r point Y (unit rows).

    Y padded with k zero columns is y.  The first m = min(k, #columns of V)
    new columns of z are the first m columns of V, the rest of z is zero.
    z is tangent at y, and it needs no critical Y: the gradient's block in
    the new columns of y is zero, so the cost's slope along z is zero, and
    <z, Hess z> = sum of v'Sv / 2 over those columns v of V at any unit-row
    Y.  Each eigenvalue below zero thus lowers the cost to second order,
    so only the certificate's negative eigenvectors go in.  The start is
    the first of the retracted steps of length 1e-2, 1e-3, 1e-4 along z
    that lowers the cost <y, Lh y>/2; y itself when none does.  Returns the
    start and m, or 0 when y is returned.
    """
    n, r = Y.shape
    retract = elliptope_factory(n, r + k).retract
    y = np.hstack([Y, np.zeros((n, k))])
    m = min(k, V.shape[1])
    z = np.zeros_like(y)
    z[:, r : r + m] = V[:, :m]
    f0 = float(np.vdot(y, L.Lh @ y)) / 2.0
    for t in (1e-2, 1e-3, 1e-4):
        cand = retract(y, z, t)
        if float(np.vdot(cand, L.Lh @ cand)) / 2.0 < f0:
            return cand, m
    return y, 0
