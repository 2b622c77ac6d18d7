"""Numerical derivative checks via Taylor-remainder slope tests.

If the gradient is correct, the remainder f(R_x(t u)) - f(x) - t <g, u>
shrinks like t^2; if the Hessian is also correct (and the retraction is
second order), subtracting the t^2/2 <u, H u> term leaves a t^3 remainder.
The checks sample the remainder over log-spaced t, fit a log-log slope over
the cleanest window, and pass when it reaches the expected order: a wrong
derivative leaves a remainder one order lower, while a correct one whose
next Taylor term vanishes falls faster than expected.  When the cleanest
window falls short, the fit is taken again over the windows that lie
wholly above the rounding floor, since a window on or across that floor
measures rounding noise rather than the derivative.  Windows that hold a
NaN or infinite remainder take no part in the fit, and the report flags
such remainders.  Exactly linear or quadratic costs produce remainders at
machine precision; those pass through a dedicated branch instead of the
slope fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problem import CacheStore, ProblemDef, get_cost, get_gradient, get_hessian
from .exceptions import MissingDerivativeError

NUM_SAMPLES = 51
T_MIN, T_MAX = 1e-8, 1.0
WINDOW = 13
GRADIENT_SLOPE_RANGE = (1.8, 2.2)
HESSIAN_SLOPE_RANGE = (2.7, 3.3)
EXACT_REMAINDER_SCALE = 1e-12
ROUNDING_FLOOR_SCALE = 1e-14  # about 50 machine epsilons of max(1, |f(x)|)
TANGENCY_TOL = 1e-8


@dataclass
class SlopeReport:
    samples: list  # (t, remainder) pairs, sorted by t
    fitted_slope: float
    window: tuple  # (t_low, t_high) of the selected fitting span
    tangency_residual: float
    verdict: bool
    expected_slope_range: tuple
    exact_branch: bool = False
    symmetry_residual: Optional[float] = None
    linearity_residual: Optional[float] = None
    flags: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.verdict else "FAIL"
        lines = [
            f"{status}: fitted slope {self.fitted_slope:.4f} "
            f"(expected at least {self.expected_slope_range[0]})"
            + (" [exact-remainder branch]" if self.exact_branch else ""),
            f"window: t in [{self.window[0]:.3e}, {self.window[1]:.3e}]",
            f"tangency residual: {self.tangency_residual:.3e}",
        ]
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines)


def fit_loglog_slope(ts, remainders, window: int = WINDOW, floor: Optional[float] = None):
    """Least-squares log-log slope over the contiguous window (of the given
    length) with the smallest line-fit residual.

    Returns (slope, (t_low, t_high)).  The t must be positive and distinct;
    windows run over consecutive samples in the order given.  Every window
    is fitted in one vectorised pass from centred sums.  Zero remainders
    are clamped to 1e-300 so the logs stay finite: a window that mixes them
    with nonzero remainders fits badly, and a run of them fits exactly and
    ties (see below).  A window that holds a non-finite t or remainder
    never competes; when no window is left, the slope is NaN and the span
    is the whole range of t.  With ``floor``, only the windows whose
    remainders all exceed it compete, unless there is none.

    Ties: a straight run of samples (a clean power law, a flat rounding
    floor or a run of zeros) fits exactly up to rounding, so residuals
    within ``window * (8 * eps * s)**2`` of the smallest one, with s the
    largest of 1 and the fitted |log10| values, count as tied.  A tie goes
    to the window whose largest t is largest, the one furthest above the
    rounding floor.
    """
    ts = np.asarray(ts, dtype=float)
    rem = np.maximum(np.asarray(remainders, dtype=float), 1e-300)
    n = len(ts)
    if n < 2:
        raise ValueError("need at least two samples to fit a slope")
    sorted_ts = np.sort(ts)  # NaN sorts last and fails the test
    if not (sorted_ts[0] > 0 and np.all(np.diff(sorted_ts) > 0)):
        raise ValueError("sample points t must be positive and distinct")
    window = min(window, n)
    lt = np.log10(ts)
    lr = np.log10(rem)
    idx = np.arange(n - window + 1)[:, None] + np.arange(window)
    ok = (np.isfinite(lt) & np.isfinite(lr))[idx].all(axis=1)
    if floor is not None:
        above = ok & (rem[idx].min(axis=1) > floor)
        if above.any():
            ok = above
    if not ok.any():
        return float("nan"), (float(ts.min()), float(ts.max()))
    cols = idx[ok]
    x, y = lt[cols], lr[cols]
    top = x.max(axis=1)
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    slopes = (x * y).sum(axis=1) / (x * x).sum(axis=1)
    resid = ((y - slopes[:, None] * x) ** 2).sum(axis=1)
    tied = resid <= resid.min() + window * (8 * np.finfo(float).eps * scale) ** 2
    tied = np.flatnonzero(tied)
    best = tied[np.argmax(top[tied])]
    span = ts[cols[best]]
    return float(slopes[best]), (float(span.min()), float(span.max()))


def _resolve_point_direction(p: ProblemDef, x, u, rng):
    M = p.manifold
    rng = rng if rng is not None else np.random.default_rng(0)
    if x is None:
        x = M.rand_point(rng)
    if u is None:
        u = M.rand_tangent(x, rng)
    return x, u


def _taylor_report(p: ProblemDef, x, u, f0, remainder, expected, v) -> SlopeReport:
    """Slope test of |remainder(t, f(R_x(t u)))| over log-spaced t, plus the
    tangency residual of v.  The fitted slope passes from the low end of
    ``expected`` up, from the second fit above the rounding floor if the
    first falls short; exact remainders pass without the slope.  Non-finite
    remainders are counted in a flag."""
    M = p.manifold
    ts = np.logspace(np.log10(T_MIN), np.log10(T_MAX), NUM_SAMPLES)
    rem = np.array([abs(remainder(t, get_cost(p, M.retract(x, u, t)))) for t in ts])
    nonfinite = int(np.count_nonzero(~np.isfinite(rem)))
    slope, span = fit_loglog_slope(ts, rem)
    if slope < expected[0]:
        slope, span = fit_loglog_slope(ts, rem, floor=ROUNDING_FLOOR_SCALE * max(1.0, abs(f0)))
    exact = bool(np.all(rem <= EXACT_REMAINDER_SCALE * max(1.0, abs(f0))))
    v_proj = M.proj(x, M.tangent_to_ambient(x, v))
    tangency = M.norm(x, M.lincomb(x, 1.0, v, -1.0, v_proj)) / max(1.0, M.norm(x, v))
    return SlopeReport(
        samples=list(zip(ts.tolist(), rem.tolist())),
        fitted_slope=slope,
        window=span,
        tangency_residual=float(tangency),
        verdict=exact or slope >= expected[0],
        expected_slope_range=expected,
        exact_branch=exact,
        flags=[f"{nonfinite} of {len(rem)} remainders are not finite"] if nonfinite else [],
    )


def check_gradient(p: ProblemDef, x=None, u=None, rng=None) -> SlopeReport:
    """First-order Taylor test of the gradient along a tangent direction."""
    if not p.has_gradient():
        raise MissingDerivativeError("check_gradient needs 'egrad' or 'rgrad'")
    M = p.manifold
    x, u = _resolve_point_direction(p, x, u, rng)
    f0 = get_cost(p, x)
    g = get_gradient(p, x)
    df = M.inner(x, g, u)
    report = _taylor_report(
        p, x, u, f0, lambda t, f: f - f0 - t * df, GRADIENT_SLOPE_RANGE, g
    )
    tangency = report.tangency_residual
    if tangency > TANGENCY_TOL:
        report.verdict = False
        report.flags.append(f"gradient not tangent (residual {tangency:.3e})")
    return report


def check_hessian(p: ProblemDef, x=None, u=None, rng=None) -> SlopeReport:
    """Second-order Taylor test of the Hessian, plus symmetry and linearity
    audits over random tangent pairs.

    Expects slope 3 for second-order retractions; otherwise the slope-2
    remainder of the retraction itself dominates and only slope 2 plus the
    audits can be verified.
    """
    if not p.has_gradient():
        raise MissingDerivativeError("check_hessian needs a gradient")
    if not p.has_exact_hessian():
        warnings.warn(
            "check_hessian running against the FD Hessian approximation; "
            "expect looser symmetry",
            stacklevel=2,
        )
    M = p.manifold
    rng = rng if rng is not None else np.random.default_rng(0)
    x, u = _resolve_point_direction(p, x, u, rng)
    # Every Hessian-vector product below is taken at x: one cache entry
    # lets them share the gradient's egrad.
    store = CacheStore()
    tok = store.token()
    f0 = get_cost(p, x)
    g = get_gradient(p, x, store, tok)
    hu = get_hessian(p, x, u, store, tok)
    df = M.inner(x, g, u)
    d2f = M.inner(x, u, hu)
    expected = HESSIAN_SLOPE_RANGE if M.second_order_retraction else GRADIENT_SLOPE_RANGE
    report = _taylor_report(
        p, x, u, f0, lambda t, f: f - f0 - t * df - 0.5 * t * t * d2f, expected, hu
    )

    # Symmetry audit: <H v, w> vs <v, H w> over random pairs.
    sym = 0.0
    for _ in range(10):
        v = M.rand_tangent(x, rng)
        w = M.rand_tangent(x, rng)
        hv = get_hessian(p, x, v, store, tok)
        hw = get_hessian(p, x, w, store, tok)
        a = M.inner(x, hv, w)
        b = M.inner(x, v, hw)
        sym = max(sym, abs(a - b) / max(1.0, abs(a)))
    report.symmetry_residual = sym
    if sym > 1e-8:
        report.flags.append(f"Hessian asymmetry {sym:.3e}")

    # Linearity audit: H(a v + b w) vs a Hv + b Hw.
    v = M.rand_tangent(x, rng)
    w = M.rand_tangent(x, rng)
    a, b = 0.7, -1.3
    combo = get_hessian(p, x, M.lincomb(x, a, v, b, w), store, tok)
    ref = M.lincomb(
        x, a, get_hessian(p, x, v, store, tok), b, get_hessian(p, x, w, store, tok)
    )
    lin = M.norm(x, M.lincomb(x, 1.0, combo, -1.0, ref)) / max(1.0, M.norm(x, ref))
    report.linearity_residual = lin
    if lin > 1e-10:
        report.flags.append(f"Hessian nonlinearity {lin:.3e}")
    if p.has_exact_hessian():
        # The slope test only sees <u, Hu>; an exact Hessian must also be
        # symmetric and linear (the FD approximation is exempt).
        report.verdict = report.verdict and sym <= 1e-8 and lin <= 1e-10
    return report


def export_slope_csv(report: SlopeReport, path) -> None:
    """Write the (t, remainder) samples with 17 significant digits."""
    try:
        with open(path, "w") as fh:
            fh.write("t,remainder\n")
            for t, r in report.samples:
                fh.write(f"{t:.17g},{r:.17g}\n")
    except OSError as exc:
        raise OSError(f"failed writing slope CSV to {path}: {exc}") from exc
