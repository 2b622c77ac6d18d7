"""Derivative checks: slope estimator sanity, pass on correct derivatives,
fail on injected errors, and CSV export."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemopt import (
    ProblemDef,
    check_gradient,
    check_hessian,
    elliptope_factory,
    euclidean_factory,
    export_slope_csv,
    fit_loglog_slope,
    fixed_rank_factory,
    get_hessian,
    grassmann_factory,
    oblique_factory,
    product_factory,
    rotations_factory,
    sphere_factory,
    stiefel_factory,
)
from riemopt.diagnostics import NUM_SAMPLES, SAMPLE_TS, WINDOW, SlopeReport, _ambient_norm
from riemopt.exceptions import MissingDerivativeError

from _helpers import make_quadratic_problem, manifold_matrix, rayleigh_problem, tree_scale

SLOPE_MANIFOLDS = manifold_matrix()[::3]  # the smallest size of each factory


# --- slope estimator ---------------------------------------------------------


@pytest.mark.parametrize("p_true", [1, 2, 3])
def test_fit_loglog_slope_exact_power(p_true):
    ts = np.logspace(-8, 0, 51)
    slope, span = fit_loglog_slope(ts, 2.5 * ts**p_true)
    assert slope == pytest.approx(p_true, abs=1e-6)
    assert span[0] >= ts[0] and span[1] <= ts[-1]


def test_fit_loglog_slope_picks_clean_window():
    # Noise floor below t=1e-5, clean c t^p above: the flat floor and the
    # power law both fit a line exactly, up to rounding, and the tie goes
    # to the window with the largest t.
    ts = np.logspace(-8, 0, 51)
    for c in (0.3, 1.0, 2.5, 3.7):
        for p_true in (2, 3):
            rem = np.where(ts < 1e-5, 1e-14, c * ts**p_true)
            slope, span = fit_loglog_slope(ts, rem)
            assert slope == pytest.approx(p_true, abs=1e-9), (c, p_true)
            assert span[1] == ts[-1], (c, p_true)


def test_fit_loglog_slope_above_a_flat_rounding_floor():
    # A third-order remainder that sinks into a flat rounding floor: the
    # flat windows fit a line exactly and the curved ones do not, so the
    # least-residual rule picks slope 0.  With the floor given, only the
    # windows above it compete.
    ts = np.logspace(-8, 0, 51)
    rem = np.maximum(ts**3 * (1.0 + ts), 1e-15)
    slope, _ = fit_loglog_slope(ts, rem)
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, span = fit_loglog_slope(ts, rem, floor=1e-14)
    assert slope == pytest.approx(3.0, abs=1e-3)
    assert span[0] ** 3 > 1e-14
    # No window lies above the floor: all of them compete, as without it.
    assert fit_loglog_slope(ts, rem, floor=1.0) == fit_loglog_slope(ts, rem)


def _fit_loglog_slope_reference(ts, remainders, window=WINDOW, floor=None):
    """The np.polyfit loop that fit_loglog_slope replaced (first window wins
    a tie)."""
    ts = np.asarray(ts, dtype=float)
    rem = np.maximum(np.asarray(remainders, dtype=float), 1e-300)
    lt, lr = np.log10(ts), np.log10(rem)
    starts = range(len(ts) - window + 1)
    if floor is not None:
        starts = [i for i in starts if rem[i:i + window].min() > floor] or starts
    best = None
    for start in starts:
        sl = slice(start, start + window)
        coeffs, residuals, *_ = np.polyfit(lt[sl], lr[sl], 1, full=True)
        resid = float(residuals[0]) if len(residuals) else 0.0
        if best is None or resid < best[0]:
            best = (resid, float(coeffs[0]), (float(ts[sl][0]), float(ts[sl][-1])))
    return best[1], best[2]


@pytest.mark.parametrize("M", SLOPE_MANIFOLDS, ids=[M.name for M in SLOPE_MANIFOLDS])
def test_fit_loglog_slope_matches_the_polyfit_loop(M):
    # Remainders of real checks: noisy at small t, so no two windows tie.
    # Centred sums and polyfit's least squares round differently.
    p = make_quadratic_problem(M, seed=5)
    for seed in range(4):
        for check in (check_gradient, check_hessian):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the FD Hessian warns
                ts, rem = zip(*check(p, rng=np.random.default_rng(seed)).samples)
            for floor in (None, 1e-14):
                slope, span = fit_loglog_slope(ts, rem, floor=floor)
                ref_slope, ref_span = _fit_loglog_slope_reference(ts, rem, floor=floor)
                assert span == ref_span
                assert abs(slope - ref_slope) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_loglog_slope_skips_windows_with_non_finite_remainders(bad):
    ts = np.logspace(-8, 0, 51)
    clean = fit_loglog_slope(ts, ts**2)
    fits = []
    for k in (3, 30):
        rem = ts**2
        rem[k] = bad
        fits.append(fit_loglog_slope(ts, rem))
        fits.append(fit_loglog_slope(ts, rem, floor=1e-14))
    for slope, span in fits:
        assert slope == pytest.approx(2.0, abs=1e-9)
    assert fits[0][0] == fits[2][0] == clean[0]


def test_fit_loglog_slope_without_a_finite_window_is_nan():
    ts = np.logspace(-8, 0, 51)
    slope, span = fit_loglog_slope(ts, np.full(51, np.nan))
    assert np.isnan(slope) and span == (ts[0], ts[-1])
    # One bad sample in every window of WINDOW leaves none.
    rem = ts**2
    rem[::WINDOW] = np.nan
    assert np.isnan(fit_loglog_slope(ts, rem)[0])
    assert np.isnan(fit_loglog_slope(ts, rem, floor=1e-14)[0])


def test_check_gradient_flags_non_finite_remainders():
    p, _ = rayleigh_problem(5, seed=0)
    f = p.cost
    # Along the retraction x[0] = t / sqrt(1 + t^2): the cost is NaN from
    # t = 1/sqrt(3) on.
    nan_far = ProblemDef(
        manifold=p.manifold,
        cost=lambda x: f(x) if x[0] < 0.5 else np.nan,
        egrad=p.egrad,
    )
    x, u = np.eye(5)[1], np.eye(5)[0]
    report = check_gradient(nan_far, x=x, u=u)
    far = int(np.count_nonzero(SAMPLE_TS >= 1 / np.sqrt(3)))
    assert far >= 1
    assert sum(not np.isfinite(r) for _, r in report.samples) == far
    assert report.verdict and report.fitted_slope == pytest.approx(2.0, abs=0.05)
    assert report.flags == [f"{far} of {NUM_SAMPLES} remainders are not finite"]
    nan_cost = ProblemDef(manifold=p.manifold, cost=lambda x: np.nan, egrad=p.egrad)
    report = check_gradient(nan_cost, x=x, u=u)
    assert not report.verdict and np.isnan(report.fitted_slope)
    assert report.flags == [f"{NUM_SAMPLES} of {NUM_SAMPLES} remainders are not finite"]


@pytest.mark.parametrize("M", SLOPE_MANIFOLDS, ids=[M.name for M in SLOPE_MANIFOLDS])
def test_checks_sample_every_other_point_of_the_51_point_grid(M):
    # The same t, bit for bit, as the even-indexed samples of the 51-point
    # grid the checks swept before.
    grid = np.logspace(-8, 0, 51)[::2]
    p = make_quadratic_problem(M, seed=6)
    for check in (check_gradient, check_hessian):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the FD Hessian warns
            ts = [t for t, _ in check(p, rng=np.random.default_rng(7)).samples]
        assert len(ts) == NUM_SAMPLES
        assert np.array(ts).tobytes() == grid.tobytes()


def test_fit_loglog_slope_needs_two_samples():
    with pytest.raises(ValueError):
        fit_loglog_slope([1e-3], [1e-6])


@pytest.mark.parametrize(
    "ts", [[1e-3, 1e-3, 1e-2], [1e-2, 1e-3, 1e-2], [0.0, 1e-3, 1e-2], [-1.0, 1e-3, 1e-2],
           [np.nan, 1e-3, 1e-2], [1e-3, np.nan, 1e-2]],
)
def test_fit_loglog_slope_needs_distinct_positive_t(ts):
    # A window of equal t has no slope.
    with pytest.raises(ValueError, match="positive and distinct"):
        fit_loglog_slope(ts, [1e-6, 1e-5, 1e-4], window=2)


def test_fit_loglog_slope_does_not_depend_on_sample_order():
    # Decreasing t give the same windows, so the same fit; the tie still
    # goes to the window with the largest t.
    ts = np.logspace(-8, 0, 51)
    rem = np.where(ts < 1e-5, 1e-14, 0.3 * ts**3)
    slope, span = fit_loglog_slope(ts[::-1], rem[::-1])
    assert slope == pytest.approx(3.0, abs=1e-9)
    assert span == fit_loglog_slope(ts, rem)[1]
    assert span[1] == ts[-1]


def test_fit_loglog_slope_handles_zero_remainders():
    ts = np.logspace(-8, 0, 51)
    slope, _ = fit_loglog_slope(ts, np.zeros(51))
    assert np.isfinite(slope)


# --- gradient check ----------------------------------------------------------


def test_check_gradient_pass_rayleigh():
    p, _ = rayleigh_problem(6, seed=0)
    rep = check_gradient(p, rng=np.random.default_rng(1))
    assert rep.verdict
    assert 1.8 <= rep.fitted_slope <= 2.2
    assert rep.tangency_residual <= 1e-8
    assert "PASS" in rep.summary()
    assert len(rep.samples) == NUM_SAMPLES
    assert rep.samples == sorted(rep.samples)


def test_check_gradient_detects_scaled_gradient():
    M = sphere_factory(6)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2
    p = ProblemDef(
        manifold=M,
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -0.9 * 2.0 * a @ x,  # wrong by 10%
    )
    rep = check_gradient(p, rng=np.random.default_rng(3))
    assert not rep.verdict
    assert rep.fitted_slope < 1.5  # first-order term no longer cancels
    assert "FAIL" in rep.summary()


def _one_percent_off(p):
    """p with its ehess scaled by 1.01, or its egrad when it has no ehess."""
    if p.ehess is None:
        return ProblemDef(p.manifold, p.cost, egrad=lambda x: tree_scale(p.egrad(x), 1.01))
    return ProblemDef(p.manifold, p.cost, egrad=p.egrad,
                      ehess=lambda x, u: tree_scale(p.ehess(x, u), 1.01))


# Draws at which a random direction alone hides egrad scaled by 1.01.
@pytest.mark.parametrize(
    "M, seed, draw",
    [
        (grassmann_factory(6, 3), 5, 8),
        (fixed_rank_factory(8, 5, 2), 3, 15),
        (product_factory([sphere_factory(3), euclidean_factory(2)]), 2, 18),
        (product_factory([sphere_factory(3), euclidean_factory(2)]), 4, 3),
        (product_factory([oblique_factory(3, 2), rotations_factory(3)]), 0, 9),
    ],
    ids=["grassmann", "fixed-rank", "sphere-x-euclidean-a", "sphere-x-euclidean-b",
         "oblique-x-rotations"],
)
def test_check_gradient_fails_egrad_one_percent_off(M, seed, draw):
    p = make_quadratic_problem(M, seed=seed, with_hessian=False)
    assert check_gradient(p, rng=np.random.default_rng(draw)).verdict
    assert not check_gradient(_one_percent_off(p), rng=np.random.default_rng(draw)).verdict


def test_check_gradient_uses_a_given_direction_as_given():
    p, _ = rayleigh_problem(5, seed=0)
    M = p.manifold
    rng = np.random.default_rng(1)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    rep = check_gradient(p, x=x, u=u)
    g = M.egrad2rgrad(x, p.egrad(x))
    t, rem = rep.samples[-1]
    assert rem == abs(p.cost(M.retract(x, u, t)) - p.cost(x) - t * M.inner(x, g, u))


def test_check_gradient_detects_nontangent_gradient():
    M = sphere_factory(5)
    a = np.diag(np.arange(1.0, 6.0))
    p = ProblemDef(
        manifold=M,
        cost=lambda x: -float(x @ a @ x),
        rgrad=lambda x: -2.0 * a @ x,  # radial component not removed
    )
    rep = check_gradient(p, rng=np.random.default_rng(4))
    assert not rep.verdict
    assert rep.tangency_residual > 1e-8
    assert any("not tangent" in f for f in rep.flags)


def _large_rayleigh_near_the_top_eigenvector(scale):
    # min -x'Ax on Sphere(40) with A of size `scale`, at the top
    # eigenvector plus 1e-9 noise: g is tiny, while egrad = -2Ax is large.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40))
    a = scale * (a + a.T) / 2.0
    x = np.linalg.eigh(a)[1][:, -1] + 1e-9 * rng.standard_normal(40)
    p = ProblemDef(
        manifold=sphere_factory(40),
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -2.0 * a @ x,
    )
    return p, x / np.linalg.norm(x), rng


def test_check_gradient_tangency_is_relative_to_the_projected_egrad():
    # Projecting egrad leaves a rounding residual of egrad's size, which is
    # far above 1e-8 * max(1, ||g||) here.
    p, x, rng = _large_rayleigh_near_the_top_eigenvector(1e6)
    g = p.manifold.egrad2rgrad(x, p.egrad(x))
    assert np.linalg.norm(g) < 1.0 < 1e6 < np.linalg.norm(p.egrad(x))
    rep = check_gradient(p, x=x, rng=rng)
    assert rep.verdict, rep.summary()
    assert rep.tangency_residual <= 1e-14
    assert not rep.flags


def test_check_gradient_still_fails_an_rgrad_with_a_small_normal_component():
    # An rgrad is taken as given: its normal component counts relative to
    # max(1, ||rgrad||) alone, however large the cost's scale.
    p, _, rng = _large_rayleigh_near_the_top_eigenvector(1e6)
    M = p.manifold
    x = M.rand_point(rng)

    def rgrad(y):
        g = M.egrad2rgrad(y, p.egrad(y))
        return g + 1e-6 * np.linalg.norm(g) * y  # y is normal to the sphere at y

    bad = ProblemDef(manifold=M, cost=p.cost, rgrad=rgrad)
    assert check_gradient(p, x=x, rng=np.random.default_rng(5)).verdict
    rep = check_gradient(bad, x=x, rng=np.random.default_rng(5))
    assert not rep.verdict
    assert rep.tangency_residual == pytest.approx(1e-6, rel=1e-3)
    assert any("not tangent" in f for f in rep.flags)


def test_ambient_norm_over_arrays_and_tuples():
    a, b = np.arange(6.0).reshape(2, 3), np.array([3.0, 4.0])
    assert _ambient_norm(a) == pytest.approx(np.sqrt(55.0))
    assert _ambient_norm((a, b)) == pytest.approx(np.sqrt(80.0))
    # A factored fixed-rank egrad (a list of pairs) adds nothing.
    assert _ambient_norm([(a, a)]) == 0.0
    assert _ambient_norm((b, [(a, a)])) == pytest.approx(5.0)


def test_check_gradient_linear_cost_exact_branch():
    M = euclidean_factory(4)
    c = np.array([1.0, -2.0, 0.5, 3.0])
    p = ProblemDef(manifold=M, cost=lambda x: float(c @ x), egrad=lambda x: c)
    rep = check_gradient(p, x=np.zeros(4), u=c / np.linalg.norm(c))
    assert rep.verdict
    assert rep.exact_branch


def test_check_gradient_requires_gradient():
    p = ProblemDef(manifold=sphere_factory(3), cost=lambda x: 0.0)
    with pytest.raises(MissingDerivativeError):
        check_gradient(p)


@pytest.mark.parametrize("M", manifold_matrix(), ids=[M.name for M in manifold_matrix()])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 2**32 - 1))
def test_check_gradient_on_random_quadratics(M, seed, draw):
    # Any quadratic, any draw: the exact egrad passes and egrad * 1.01 fails.
    p = make_quadratic_problem(M, seed=seed, with_hessian=False)
    assert check_gradient(p, rng=np.random.default_rng(draw)).verdict
    assert not check_gradient(_one_percent_off(p), rng=np.random.default_rng(draw)).verdict


# --- Hessian check -----------------------------------------------------------


def test_check_hessian_pass_rayleigh():
    p, _ = rayleigh_problem(6, seed=5)
    rep = check_hessian(p, rng=np.random.default_rng(6))
    assert rep.verdict
    assert 1.8 <= rep.fitted_slope <= 2.2
    assert rep.symmetry_residual <= 1e-8
    assert rep.linearity_residual <= 1e-10


EXACT_HESSIAN = [M for M in manifold_matrix() if M.ehess2rhess is not None and M.dim > 0]


@pytest.mark.parametrize("M", EXACT_HESSIAN, ids=[M.name for M in EXACT_HESSIAN])
def test_check_hessian_fails_ehess_one_percent_off(M):
    p = make_quadratic_problem(M, seed=21)
    assert check_hessian(p, rng=np.random.default_rng(22)).verdict
    assert not check_hessian(_one_percent_off(p), rng=np.random.default_rng(22)).verdict


def test_check_hessian_zero_hessian_fails_slope_two():
    M = sphere_factory(5)
    a = np.diag(np.arange(1.0, 6.0))
    p = ProblemDef(
        manifold=M,
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -2.0 * a @ x,
        rhess=lambda x, u: M.zero_tangent(x),
    )
    rep = check_hessian(p, rng=np.random.default_rng(7))
    assert not rep.verdict
    assert rep.fitted_slope < 1.5  # nothing cancels the gradient's first-order change


def test_check_hessian_detects_transposed_term():
    # B nonsymmetric: ehess uses B' instead of B.  The slope test cannot see
    # it (u'(B - B')u = 0), but the symmetry audit must.
    M = euclidean_factory(4)
    rng = np.random.default_rng(8)
    b = rng.standard_normal((4, 4))
    b = b + np.diag(10.0 * np.ones(4))  # keep it PD-ish
    p = ProblemDef(
        manifold=M,
        cost=lambda x: 0.5 * float(x @ b @ x),
        egrad=lambda x: 0.5 * (b + b.T) @ x,
        ehess=lambda x, u: b.T @ u,  # wrong: should be sym(b) @ u
    )
    rep = check_hessian(p, rng=np.random.default_rng(9))
    assert not rep.verdict
    assert rep.symmetry_residual > 1e-8
    assert any("asymmetry" in f for f in rep.flags)


def test_check_hessian_exact_branch_on_euclidean_quadratic():
    M = euclidean_factory(3)
    q = np.diag([1.0, 2.0, 3.0])
    p = ProblemDef(
        manifold=M,
        cost=lambda x: 0.5 * float(x @ q @ x),
        egrad=lambda x: q @ x,
        ehess=lambda x, u: q @ u,
    )
    rep = check_hessian(p, rng=np.random.default_rng(10))
    assert rep.verdict
    assert rep.exact_branch


def test_check_hessian_expects_slope_two_whatever_the_retraction():
    # Stiefel's QR retraction is first order, the elliptope's row
    # normalization second order: the gradient-field remainder falls like
    # t^2 on both.
    for M, seed in ((stiefel_factory(5, 2), 11), (elliptope_factory(6, 3), 13)):
        p = make_quadratic_problem(M, seed=seed)
        rep = check_hessian(p, rng=np.random.default_rng(seed + 1))
        assert rep.expected_slope_range == (1.8, 2.2)
        assert rep.verdict and rep.fitted_slope <= 2.2


def _rayleigh_at_an_eigenvector():
    # The gradient vanishes at e_2, and so does the remainder's t^2 term.
    a = np.diag(np.arange(1.0, 41.0))
    p = ProblemDef(
        manifold=sphere_factory(40),
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -2.0 * a @ x,
        ehess=lambda x, u: -2.0 * a @ u,
    )
    return p, np.eye(40)[2]


def _quartic_at_zero():
    # f = sum(x^4)/12: grad f(tu) - g - t H u = t^3 u^3 / 3.
    p = ProblemDef(
        manifold=euclidean_factory(5),
        cost=lambda x: float(np.sum(x**4)) / 12.0,
        egrad=lambda x: x**3 / 3.0,
        ehess=lambda x, u: x**2 * u,
    )
    return p, np.zeros(5)


@pytest.mark.parametrize(
    "make", [_rayleigh_at_an_eigenvector, _quartic_at_zero],
    ids=["sphere-eigenvector", "quartic-at-zero"],
)
def test_check_hessian_passes_slope_above_expected_range(make):
    # Exact Hessians whose remainder falls like t^3: the slope passes from
    # the low end of the range up.
    p, x = make()
    rep = check_hessian(p, x=x, rng=np.random.default_rng(3))
    assert not rep.exact_branch
    assert rep.fitted_slope > rep.expected_slope_range[1]
    assert rep.verdict


def test_check_hessian_fd_path_warns():
    M = sphere_factory(4)
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    p = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x
    )
    with pytest.warns(UserWarning, match="FD"):
        check_hessian(p, rng=np.random.default_rng(15))


# --- CSV export --------------------------------------------------------------


def test_export_slope_csv_roundtrip(tmp_path):
    p, _ = rayleigh_problem(5, seed=16)
    rep = check_gradient(p, rng=np.random.default_rng(17))
    path = tmp_path / "slope.csv"
    export_slope_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,remainder"
    assert len(lines) == NUM_SAMPLES + 1
    ts, rems = [], []
    for line in lines[1:]:
        t, r = line.split(",")
        ts.append(float(t))
        rems.append(float(r))
    slope, _ = fit_loglog_slope(ts, rems)
    assert slope == pytest.approx(rep.fitted_slope, abs=1e-12)


def test_export_slope_csv_empty_report(tmp_path):
    rep = SlopeReport(
        samples=[],
        fitted_slope=0.0,
        window=(0.0, 0.0),
        tangency_residual=0.0,
        verdict=False,
        expected_slope_range=(1.8, 2.2),
    )
    path = tmp_path / "empty.csv"
    export_slope_csv(rep, path)
    assert path.read_text() == "t,remainder\n"


def test_export_slope_csv_bad_path():
    p, _ = rayleigh_problem(4, seed=18)
    rep = check_gradient(p, rng=np.random.default_rng(19))
    with pytest.raises(OSError, match="no/such/dir"):
        export_slope_csv(rep, "/no/such/dir/slope.csv")


def test_check_hessian_runs_egrad_once():
    # Every Hessian-vector product is taken at the same point, so the
    # user's egrad there runs once and is shared through one cache entry;
    # the slope test takes one gradient at each of its sample points.
    M = sphere_factory(6)
    base = make_quadratic_problem(M, seed=16)
    calls = []

    def egrad(x):
        calls.append(1)
        return base.egrad(x)

    p = ProblemDef(manifold=M, cost=base.cost, egrad=egrad, ehess=base.ehess)
    rep = check_hessian(p, rng=np.random.default_rng(17))
    assert rep.verdict
    assert len(calls) == 1 + len(rep.samples)


def test_check_hessian_takes_eight_products_and_audits_all_fifteen_pairs():
    # One Hessian map per check: H u, six audit tangents and one
    # combination for the linearity audit, so the user ehess runs 8 times.
    M = stiefel_factory(5, 2)
    base = make_quadratic_problem(M, seed=23)
    calls = []

    def ehess(x, u):
        calls.append(1)
        return base.ehess(x, u)

    p = ProblemDef(manifold=M, cost=base.cost, egrad=base.egrad, ehess=ehess)
    rep = check_hessian(p, rng=np.random.default_rng(24))
    assert rep.verdict
    assert len(calls) == 8

    # The same draws: x, u, then the six audit tangents.
    rng = np.random.default_rng(24)
    x = M.rand_point(rng)
    M.rand_tangent(x, rng)
    vs = [M.rand_tangent(x, rng) for _ in range(6)]
    hvs = [get_hessian(base, x, v) for v in vs]
    pairs = [
        (M.inner(x, hvs[i], vs[j]), M.inner(x, vs[i], hvs[j]))
        for i in range(6) for j in range(i + 1, 6)
    ]
    assert len(pairs) == 15
    assert rep.symmetry_residual == max(abs(a - b) / max(1.0, abs(a)) for a, b in pairs)
