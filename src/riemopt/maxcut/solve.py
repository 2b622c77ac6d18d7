"""Max-cut via the rank-r elliptope relaxation.

The relaxation optimizes Y in R^{n x r} with unit rows, minimizing
-trace(Y'LY)/4.  Random hyperplane rounding turns Y into a sign vector.
At a critical Y the dual matrix S = Diag(d) - L with d_i = (L Y Y')_ii
satisfies S Y ~ 0; if S is (numerically) positive semidefinite, Y Y' solves
the max-cut SDP globally and trace(L Y Y')/4 is a valid upper bound on any
cut.  Otherwise the eigenvector of the most negative eigenvalue of S gives
a descent direction after appending a zero column to Y, which drives the
rank-escalation loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..manifolds import elliptope_factory
from ..problem import ProblemDef, get_cost
from ..solvers import (
    RunResult,
    SolverOptions,
    conjugate_gradient,
    steepest_descent,
    trust_regions,
)
from .graph import cut_value_from_signs

SOLVERS = {
    "tr": trust_regions,
    "cg": conjugate_gradient,
    "sd": steepest_descent,
}


@dataclass
class CutResult:
    s: np.ndarray  # sign vector in {+1, -1}^n
    cut_value: float
    upper_bound: Optional[float]
    certified: bool
    rank_used: int
    histories: List[RunResult] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(len(r.history) for r in self.histories)


def build_problem(L: np.ndarray, r: int) -> ProblemDef:
    """Relaxed max-cut problem on the rank-r elliptope.

    cost(Y) = -trace(Y'LY)/4, egrad(Y) = -(LY)/2, ehess(Y, U) = -(LU)/2.
    The product LY is stored in the per-point cache so the cost and the
    gradient share one multiply; the solvers' cache store keeps egrad per
    point, so Hessian-vector products at that point cost one LU each.
    Every product is a plain ``L @ ·``, so an ndarray subclass of L sees
    (and can count) each one.
    """
    if r < 1:
        raise ValueError(f"build_problem: rank must be >= 1, got {r}")
    manifold = elliptope_factory(L.shape[0], r)

    def cached_ly(y: np.ndarray, cache: dict) -> np.ndarray:
        if "LY" not in cache:
            cache["LY"] = L @ y
        return cache["LY"]

    def cost(y, cache):
        return -float(np.vdot(y, cached_ly(y, cache))) / 4.0

    # Times -0.5 in one pass: the same bits as negating, then halving.
    def egrad(y, cache):
        return cached_ly(y, cache) * -0.5

    def ehess(y, u):
        return (L @ u) * -0.5

    return ProblemDef(manifold=manifold, cost=cost, egrad=egrad, ehess=ehess)


def solve_rank_r(
    L: np.ndarray,
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
    L: np.ndarray, Y: np.ndarray, trials: int, rng
) -> Tuple[np.ndarray, float]:
    """Random hyperplane rounding: keep the best of ``trials`` projections.

    Zero components of Y z are mapped to +1 so the rule is deterministic.
    All trials are drawn and scored at once; the draw consumes the same
    numbers as ``trials`` draws of size r, and the first best trial wins.
    The winner's value is recomputed as s'Ls/4 on its own.
    """
    if trials < 1:
        raise ValueError(f"round_cut: trials must be >= 1, got {trials}")
    Z = rng.standard_normal((trials, Y.shape[1]))
    S = np.where(Y @ Z.T >= 0, 1.0, -1.0)  # column k: signs of trial k
    vals = (S * (L @ S)).sum(axis=0)
    s = S[:, int(np.argmax(vals))].copy()
    return s, cut_value_from_signs(L, s)


def certify(
    L: np.ndarray, Y: np.ndarray, tol: float = 1e-6
) -> Tuple[bool, Optional[float], Optional[float], Optional[np.ndarray]]:
    """Dual certificate at Y.

    Returns (certified, lambda_min(S), upper_bound, eigenvector of
    lambda_min).  Certification demands lambda_min >= -tol * ||L||_1 (the
    induced 1-norm keeps the tolerance scale-aware); the bound is
    trace(L Y Y')/4.  The certificate holds only at a critical Y: when the
    Riemannian gradient norm exceeds 1e-6 * max(1, ||L||_F) (for example
    after ``max_iter``), Y is not certified and there is no bound, nor an
    eigenpair: the result is (False, None, None, None).
    """
    M = elliptope_factory(*Y.shape)
    ly = L @ Y
    gnorm = M.norm(Y, M.proj(Y, ly * -0.5))  # the Riemannian gradient's norm
    if gnorm > 1e-6 * max(1.0, float(np.linalg.norm(L))):
        return False, None, None, None
    d = np.sum(ly * Y, axis=1)
    S = np.diag(d) - L
    evals, evecs = np.linalg.eigh(S)
    lam_min = float(evals[0])
    scale = float(np.linalg.norm(L, 1)) or 1.0
    certified = lam_min >= -tol * scale
    bound = float(np.sum(ly * Y)) / 4.0 if certified else None
    return certified, lam_min, bound, evecs[:, 0]


def rank_escalation(
    L: np.ndarray,
    r0: int = 2,
    opts: Optional[SolverOptions] = None,
    rng=None,
    trials: int = 100,
    tol: float = 1e-6,
    solver: str = "tr",
) -> CutResult:
    """Escalate the relaxation rank until the dual certificate is PSD.

    At an uncertified critical point the certificate's most negative
    eigenvector, appended as a fresh column direction, is a descent
    direction; the next rank is warm-started from a small retracted step
    along it (falling back to a random tangent if descent is not observed).
    A rank whose solve stops short of criticality has no certificate and
    no eigenvector; it escalates from a random tangent step.
    """
    if r0 < 2:
        raise ValueError(f"rank_escalation: r0 must be >= 2, got {r0}")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = L.shape[0]

    histories: List[RunResult] = []
    best_s, best_val = None, -np.inf
    x0 = None
    r = min(r0, n)
    while True:
        Y, run = solve_rank_r(L, r, opts, rng, x0=x0, solver=solver)
        histories.append(run)
        s, val = round_cut(L, Y, trials, rng)
        if val > best_val:
            best_s, best_val = s, val

        certified, _, bound, v = certify(L, Y, tol)
        if certified or r >= n:
            return CutResult(
                s=best_s,
                cut_value=best_val,
                upper_bound=bound,
                certified=certified,
                rank_used=r,
                histories=histories,
            )

        # Embed at rank r+1 and step off the saddle.
        y_up = np.hstack([Y, np.zeros((n, 1))])
        p_up = build_problem(L, r + 1)
        z = None if v is None else np.hstack([np.zeros((n, r)), v[:, None]])
        x0 = _step_off(p_up, y_up, z, rng)
        r += 1


def _step_off(p: ProblemDef, y: np.ndarray, z, rng) -> np.ndarray:
    """Warm start near the saddle y: the first of the retracted steps of
    length 1e-2, 1e-3, 1e-4 along z that lowers the cost, else along a
    random tangent; y itself when no step does.  A missing z is a random
    tangent too, drawn first."""
    M = p.manifold
    f0 = get_cost(p, y)
    for direction in (z, None):
        if direction is None:
            direction = M.rand_tangent(y, rng)
        for t in (1e-2, 1e-3, 1e-4):
            cand = M.retract(y, direction, t)
            if get_cost(p, cand) < f0:
                return cand
    return y
