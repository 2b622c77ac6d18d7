"""Numerical derivative checks via Taylor-remainder slope tests.

Both checks run one first-order Taylor test along y = R_x(t u): the
gradient check on the cost, |f(y) - f(x) - t <g, u>|, and the Hessian
check on the gradient field, ||P_x(grad f(y)) - g - t H u|| with P_x the
projection onto T_xM.  As H u = P_x(D grad f(x)[u]) on a Riemannian
submanifold, either remainder shrinks like t^2 when the derivative is
right and like t when it is wrong, whatever the retraction's order.  The
checks sample the remainder at 26 log-spaced t from 1e-8 to 1, fit a
log-log slope over the cleanest window of 7 consecutive samples (two
decades), and pass when it reaches 1.8 (a remainder whose next
Taylor term vanishes falls faster).  When the cleanest window falls
short, the fit is taken again over the windows wholly above the rounding
floor, since a window on or across it measures rounding noise.  Windows
that hold a NaN or infinite remainder take no part in the fit, and the
report flags such remainders.  Remainders at machine precision (a linear
cost, a Euclidean quadratic's gradient) pass through a dedicated branch.

The Hessian check resolves the Hessian at x once and audits that one map:
symmetry over all 15 pairs of six random tangents, and linearity on two of
them, so an exact check makes 8 Hessian-vector products in all.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problem import Counters, ProblemDef, get_cost, get_gradient, hessian_at, new_token
from .exceptions import MissingDerivativeError

NUM_SAMPLES = 26
T_MIN, T_MAX = 1e-8, 1.0
WINDOW = 7  # samples 0.32 decades apart: a window spans two decades
# Every other point of a 51-point grid, so each t has the bits it had when
# the checks sampled all 51.
SAMPLE_TS = np.logspace(np.log10(T_MIN), np.log10(T_MAX), 2 * NUM_SAMPLES - 1)[::2]
SAMPLE_TS.flags.writeable = False
GRADIENT_SLOPE_RANGE = (1.8, 2.2)
EXACT_REMAINDER_SCALE = 1e-12
ROUNDING_FLOOR_SCALE = 1e-14  # about 50 machine epsilons of the remainder's scale
TANGENCY_TOL = 1e-8
AUDIT_TANGENTS = 6  # check_hessian's symmetry audit takes all 15 pairs of them


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
    length, by default ``WINDOW`` = 7 samples) with the smallest line-fit
    residual.

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
    elif not M.norm(x, u) > 0.0:  # a zero u would pass any derivative
        raise ValueError("the direction u must have a positive norm")
    return x, u, rng


def _ambient_norm(z) -> float:
    """Frobenius norm of an ambient array, or over a tuple's components; a
    component of any other form (a factored fixed-rank egrad) adds 0."""
    if isinstance(z, np.ndarray):
        return float(np.linalg.norm(z))
    if isinstance(z, tuple):
        return math.hypot(*map(_ambient_norm, z))
    return 0.0


def _taylor_report(p: ProblemDef, x, u, remainder, scale, v, v_scale=0.0) -> SlopeReport:
    """Slope test of remainder(t, R_x(t u)) at the t of SAMPLE_TS, plus the
    tangency residual of v relative to max(1, ||v||, v_scale).  The fitted
    slope passes from the low end of the expected range up, from the second
    fit above the rounding floor if the first falls short; exact remainders
    pass without the slope.  The floor and the exact branch scale with
    max(1, scale).  Non-finite remainders are counted in a flag."""
    M = p.manifold
    expected = GRADIENT_SLOPE_RANGE
    ts = SAMPLE_TS
    rem = np.array([remainder(t, M.retract(x, u, t)) for t in ts])
    nonfinite = int(np.count_nonzero(~np.isfinite(rem)))
    scale = max(1.0, scale)
    slope, span = fit_loglog_slope(ts, rem)
    if slope < expected[0]:
        slope, span = fit_loglog_slope(ts, rem, floor=ROUNDING_FLOOR_SCALE * scale)
    exact = bool(np.all(rem <= EXACT_REMAINDER_SCALE * scale))
    v_proj = M.proj(x, M.tangent_to_ambient(x, v))
    tangency = M.norm(x, M.lincomb(x, 1.0, v, -1.0, v_proj)) / max(1.0, M.norm(x, v), v_scale)
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
    """First-order Taylor test of the gradient along a tangent direction.

    A drawn u is turned into u + s g/||g||, normalised, with s the sign of
    <g, u> so that the two parts never cancel: a small <g, u> then cannot
    hide a wrongly scaled gradient, and an error orthogonal to g still
    shows.  A u the caller passes is used as given; one of zero norm
    raises ValueError, since the remainder along it vanishes whatever g is.

    The tangency audit takes the gradient's normal residual relative to
    max(1, ||g||), and to ||egrad|| too when g is the projected egrad:
    projecting a large egrad leaves a rounding residual of its size, even
    where g itself is small (near a critical point).
    """
    if not p.has_gradient():
        raise MissingDerivativeError("check_gradient needs 'egrad' or 'rgrad'")
    M = p.manifold
    drawn = u is None
    x, u, _ = _resolve_point_direction(p, x, u, rng)
    f0 = get_cost(p, x)
    tok = new_token()  # keeps the egrad that g is projected from
    g = get_gradient(p, x, None, tok)
    df = M.inner(x, g, u)
    g_norm = M.norm(x, g)
    if drawn and g_norm > 0:
        u = M.lincomb(x, 1.0, u, math.copysign(1.0, df) / g_norm, g)
        u = M.lincomb(x, 1.0 / M.norm(x, u), u)
        df = M.inner(x, g, u)
    report = _taylor_report(
        p, x, u, lambda t, y: abs(get_cost(p, y) - f0 - t * df), abs(f0), g,
        _ambient_norm(tok.get("egrad")),
    )
    tangency = report.tangency_residual
    if tangency > TANGENCY_TOL:
        report.verdict = False
        report.flags.append(f"gradient not tangent (residual {tangency:.3e})")
    return report


def check_hessian(p: ProblemDef, x=None, u=None, rng=None) -> SlopeReport:
    """First-order Taylor test of the gradient field along u (its floor
    and exact branch scale with max(1, ||g||)), plus symmetry and
    linearity audits.

    The Hessian at x is resolved once (``hessian_at``), and every product
    below comes from that one map.  The symmetry audit applies it to six
    random tangents v_0..v_5 and takes the largest
    |<H v_i, v_j> - <v_i, H v_j>| / max(1, |<H v_i, v_j>|) over all 15
    pairs i < j.  The linearity audit compares H(0.7 v_0 - 1.3 v_1) with
    0.7 H v_0 - 1.3 H v_1 from the products already taken.  An exact check
    thus makes 8 Hessian-vector products: H u, six audit products and the
    combination.  x and u are drawn from rng before the audit tangents, so
    the slope test does not depend on the audits.  A given u of zero norm
    raises ValueError before anything is evaluated.
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
    x, u, rng = _resolve_point_direction(p, x, u, rng)
    # Every Hessian-vector product below is taken at x: one cache entry
    # lets them share the gradient's egrad.
    store, tok = Counters(), new_token()
    g = get_gradient(p, x, store, tok)
    hess = hessian_at(p, x, store, tok)
    hu = hess(u)

    def remainder(t, y):
        gy = M.proj(x, M.tangent_to_ambient(y, get_gradient(p, y)))
        return M.norm(x, M.lincomb(x, 1.0, M.lincomb(x, 1.0, gy, -1.0, g), -t, hu))

    report = _taylor_report(p, x, u, remainder, M.norm(x, g), hu)

    vs = [M.rand_tangent(x, rng) for _ in range(AUDIT_TANGENTS)]
    hvs = [hess(v) for v in vs]
    sym = 0.0
    for i, j in itertools.combinations(range(AUDIT_TANGENTS), 2):
        a = M.inner(x, hvs[i], vs[j])
        b = M.inner(x, vs[i], hvs[j])
        sym = max(sym, abs(a - b) / max(1.0, abs(a)))
    report.symmetry_residual = sym
    if sym > 1e-8:
        report.flags.append(f"Hessian asymmetry {sym:.3e}")

    a, b = 0.7, -1.3
    combo = hess(M.lincomb(x, a, vs[0], b, vs[1]))
    ref = M.lincomb(x, a, hvs[0], b, hvs[1])
    lin = M.norm(x, M.lincomb(x, 1.0, combo, -1.0, ref)) / max(1.0, M.norm(x, ref))
    report.linearity_residual = lin
    if lin > 1e-10:
        report.flags.append(f"Hessian nonlinearity {lin:.3e}")
    if p.has_exact_hessian():
        # The slope test only sees H along u; an exact Hessian must also
        # be symmetric and linear (the FD approximation is exempt).
        report.verdict = report.verdict and sym <= 1e-8 and lin <= 1e-10
    return report
