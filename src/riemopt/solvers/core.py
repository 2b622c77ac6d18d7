"""Shared solver machinery: options, iteration records, stopping, CSV export."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..problem import Counters, get_cost, get_gradient, new_token

logger = logging.getLogger(__name__)

# Stop reasons
GRADIENT_TOLERANCE = "gradient_tolerance"
MAX_ITER = "max_iter"
MAX_TIME = "max_time"
USER_STOP = "user_stop"
STEP_COLLAPSE = "step_collapse"
NONFINITE = "nonfinite"


@dataclass
class SolverOptions:
    """Configuration shared by all solvers; a solver ignores the fields it
    does not use (an unknown field name raises TypeError).

    Line-search fields apply to steepest descent and conjugate gradients;
    the ``delta_*`` / ``tcg_*`` fields to the trust-region method.  The
    default Armijo backtracking moves each rejected trial t to the
    minimizer of a fitted quadratic, kept within [0.1 t, ``ls_contraction``
    t]: ``ls_contraction`` is the largest factor one backtrack keeps, and
    the only one when the fit fails or when it is below 0.1.  A
    ``line_search`` callable with signature ``(phi, phi0, slope, t0) ->
    (t, phi_t) or None`` replaces the default backtracking.  The
    ``clock`` is injectable so runs can produce deterministic timings.
    ``tol_grad_norm`` and, when given, ``delta_bar`` and ``delta0`` must be
    positive and finite, and ``max_inner`` at least 1.  ``ls_contraction``
    and ``ls_sufficient_decrease`` must lie in (0, 1), ``ls_max_backtracks``
    must be at least 0, ``rho_prime`` must lie in [0, 1/4) as in Absil,
    Baker & Gallivan's trust-region method, and ``rho_regularization`` must
    be finite and at least 0.  Other values raise ValueError here, since
    they would make a run crash, spin, or end as a failed line search.
    """

    max_iter: int = 1000
    tol_grad_norm: float = 1e-6
    max_time_seconds: float = math.inf
    min_iter: int = 3
    stats_callback: Optional[Callable] = None
    stop_callback: Optional[Callable] = None

    # line search (steepest descent / CG)
    ls_contraction: float = 0.5
    ls_sufficient_decrease: float = 1e-4
    ls_max_backtracks: int = 25
    line_search: Optional[Callable] = None

    # trust regions
    delta_bar: Optional[float] = None
    delta0: Optional[float] = None
    rho_prime: float = 0.1
    rho_regularization: float = 1e-15
    tcg_kappa: float = 0.1
    tcg_theta: float = 1.0
    max_inner: Optional[int] = None

    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        # Written so that NaN fails each test: a NaN tolerance or radius
        # would run the solver into a zero division or to max_iter.
        if not 0 < self.tol_grad_norm < math.inf:
            raise ValueError(f"tol_grad_norm must be positive and finite, got {self.tol_grad_norm}")
        if self.max_iter < self.min_iter:
            raise ValueError("max_iter must be >= min_iter")
        for name in ("delta_bar", "delta0"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_inner is not None and self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        for name in ("ls_contraction", "ls_sufficient_decrease"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not self.ls_max_backtracks >= 0:
            raise ValueError(f"ls_max_backtracks must be >= 0, got {self.ls_max_backtracks}")
        if not 0 <= self.rho_prime < 0.25:
            raise ValueError(f"rho_prime must lie in [0, 1/4), got {self.rho_prime}")
        if not 0 <= self.rho_regularization < math.inf:
            raise ValueError(
                f"rho_regularization must be finite and >= 0, got {self.rho_regularization}"
            )


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    grad_norm: float
    elapsed_seconds: float
    step_size: float = 0.0
    inner_iters: Optional[int] = None
    delta: Optional[float] = None
    rho: Optional[float] = None


@dataclass
class RunResult:
    x_final: object
    cost_final: float
    grad_norm_final: float
    stop_reason: str
    history: List[IterationRecord]
    counters: dict = field(default_factory=dict)


def shared_stopping(record: IterationRecord, opts: SolverOptions):
    """Evaluate the standard stopping criteria, in fixed priority order."""
    if record.grad_norm <= opts.tol_grad_norm and record.iteration >= opts.min_iter:
        return True, GRADIENT_TOLERANCE
    if record.iteration >= opts.max_iter:
        return True, MAX_ITER
    if record.elapsed_seconds >= opts.max_time_seconds:
        return True, MAX_TIME
    if opts.stop_callback is not None and opts.stop_callback(record):
        return True, USER_STOP
    return False, None


def emit_record(record: IterationRecord, opts: SolverOptions) -> None:
    """Pass the record to the stats callback and log it at DEBUG level."""
    if opts.stats_callback is not None:
        opts.stats_callback(record)
    if logger.isEnabledFor(logging.DEBUG):
        extras = ""
        if record.inner_iters is not None:
            extras += f"  inner {record.inner_iters:3d}"
        if record.delta is not None:
            extras += f"  Delta {record.delta:.3e}"
        if record.rho is not None:
            extras += f"  rho {record.rho:+.3f}"
        logger.debug(
            "%5d  cost %+.12e  grad %.6e%s",
            record.iteration, record.cost, record.grad_norm, extras,
        )


def iterate(p, x0, opts: Optional[SolverOptions], rng, rule) -> RunResult:
    """The outer loop of every solver.

    Missing options default to ``SolverOptions()``, a missing start point
    is drawn from ``rng`` (a seed-0 generator when that is missing too).
    ``rule(opts, store)`` returns the solver's step and the first record's
    ``(step_size, inner_iters, delta, rho)``.  ``step(x, token, f, g,
    gnorm)`` returns the next point, its token (x's own if it stays) and
    those four fields, or a stop reason.  The loop reads each new point's
    cost and gradient from its token, where the step left what it
    evaluated, so no point is evaluated twice.  A point whose gradient is
    below tolerance before ``min_iter`` is recorded again, without a step,
    until the stop is allowed.  A NaN or infinite cost or gradient norm
    ends the run as ``nonfinite``.
    """
    opts = opts if opts is not None else SolverOptions()
    store = Counters()
    M = p.manifold
    x = x0 if x0 is not None else M.rand_point(
        rng if rng is not None else np.random.default_rng(0)
    )
    t_start = opts.clock()
    step, (step_size, inner, delta, rho) = rule(opts, store)
    tok, tok_read = new_token(), None

    history = []
    it = 0
    while True:
        if tok is not tok_read:  # a new point
            tok_read = tok
            f = get_cost(p, x, store, tok)
            g = get_gradient(p, x, store, tok)
            gnorm = M.norm(x, g)
        rec = IterationRecord(
            it, f, gnorm, opts.clock() - t_start, step_size, inner, delta, rho
        )
        history.append(rec)
        emit_record(rec, opts)
        if not (math.isfinite(f) and math.isfinite(gnorm)):
            reason = NONFINITE
            break
        stop, reason = shared_stopping(rec, opts)
        if stop:
            break
        if gnorm <= opts.tol_grad_norm:
            step_size, inner, rho = 0.0, None, None
        else:
            out = step(x, tok, f, g, gnorm)
            if isinstance(out, str):
                reason = out
                break
            x, tok, step_size, inner, delta, rho = out
        it += 1
    return RunResult(x, f, gnorm, reason, history, asdict(store))


CSV_COLUMNS = ["iter", "cost", "gradnorm", "time", "stepsize", "inner", "Delta", "rho"]


def history_to_csv(history: List[IterationRecord], path) -> None:
    """Write the iteration history, one column per record field in order."""

    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, int):
            return str(v)
        return repr(float(v))

    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in history:
            fh.write(",".join(fmt(v) for v in astuple(r)) + "\n")


def backtracking_line_search(phi, phi0, slope, t0, opts: SolverOptions):
    """Armijo backtracking by quadratic interpolation.

    Tries t0 first.  After a rejected trial t with a finite phi(t), the
    next trial is the minimizer of the quadratic that matches phi0, the
    slope and phi(t) (Nocedal & Wright, Numerical Optimization, 3.5),
    safeguarded to lie in [0.1 t, ``ls_contraction`` t]; the contraction
    wins when it is below 0.1.  A NaN or infinite phi(t), or a quadratic
    without positive curvature, shrinks t by ``ls_contraction`` alone.

    Returns (t, phi(t)) for the first trial with sufficient decrease, or
    None when the first trial and ls_max_backtracks backtracks all fail.
    """
    c1 = opts.ls_sufficient_decrease
    contraction = opts.ls_contraction
    t = t0
    for _ in range(opts.ls_max_backtracks + 1):
        f_new = phi(t)
        if f_new <= phi0 + c1 * t * slope:
            return t, f_new
        curvature = f_new - phi0 - slope * t
        if math.isfinite(f_new) and curvature > 0:
            t_min = -slope * t * t / (2.0 * curvature)
            t = min(contraction * t, max(0.1 * t, t_min))
        else:
            t *= contraction
    return None
