"""Shared solver machinery: options, iteration records, stopping, CSV export."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import astuple, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..problem import CacheStore, get_cost, get_gradient

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
    """Configuration shared by all solvers; unknown fields are ignored by
    solvers that do not use them.

    Line-search fields apply to steepest descent and conjugate gradients;
    the ``delta_*`` / ``tcg_*`` fields to the trust-region method.  A
    ``line_search`` callable with signature ``(phi, phi0, slope, t0) ->
    (t, phi_t) or None`` replaces the default Armijo backtracking.  The
    ``clock`` is injectable so runs can produce deterministic timings.
    """

    max_iter: int = 1000
    tol_grad_norm: float = 1e-6
    max_time_seconds: float = math.inf
    min_iter: int = 3
    stats_callback: Optional[Callable] = None
    stop_callback: Optional[Callable] = None
    caching: bool = True

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
        if self.tol_grad_norm <= 0:
            raise ValueError("tol_grad_norm must be positive")
        if self.max_iter < self.min_iter:
            raise ValueError("max_iter must be >= min_iter")


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
    gnorm)`` returns either the next point with its token, cost, gradient,
    gradient norm and those four record fields, or a stop reason.  The loop
    carries them forward, so no point is evaluated twice.  A point whose
    gradient is below tolerance before ``min_iter`` is recorded again,
    without a step, until the stop is allowed.  A record whose cost or
    gradient norm is NaN or infinite ends the run as ``nonfinite``.
    """
    opts = opts if opts is not None else SolverOptions()
    store = CacheStore(caching=opts.caching)
    M = p.manifold
    x = x0 if x0 is not None else M.rand_point(
        rng if rng is not None else np.random.default_rng(0)
    )
    t_start = opts.clock()
    step, (step_size, inner, delta, rho) = rule(opts, store)
    tok = store.token()
    f = get_cost(p, x, store, tok)
    g = get_gradient(p, x, store, tok)
    gnorm = M.norm(x, g)

    history = []
    it = 0
    while True:
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
            x, tok, f, g, gnorm, step_size, inner, delta, rho = out
        it += 1
    return RunResult(x, f, gnorm, reason, history, store.counters())


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
    """Armijo backtracking: halve t until sufficient decrease holds.

    Returns (t, phi(t)) or None when ls_max_backtracks halvings all fail.
    """
    c1 = opts.ls_sufficient_decrease
    t = t0
    for _ in range(opts.ls_max_backtracks + 1):
        f_new = phi(t)
        if f_new <= phi0 + c1 * t * slope:
            return t, f_new
        t *= opts.ls_contraction
    return None
