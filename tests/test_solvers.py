"""Solver behavior: line-search descent, CG finite termination, truncated CG,
trust regions, shared stopping, CSV export, and determinism."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemopt import (
    ProblemDef,
    SolverOptions,
    conjugate_gradient,
    euclidean_factory,
    fixed_rank_factory,
    history_to_csv,
    sphere_factory,
    steepest_descent,
    stiefel_factory,
    tcg_subsolver,
    trust_regions,
)
from riemopt.exceptions import DegenerateStepError
from riemopt.solvers.core import (
    GRADIENT_TOLERANCE,
    MAX_ITER,
    MAX_TIME,
    NONFINITE,
    STEP_COLLAPSE,
    USER_STOP,
    IterationRecord,
    backtracking_line_search,
    shared_stopping,
)
from riemopt.solvers.trust_regions import (
    TCG_BOUNDARY,
    TCG_NEGATIVE_CURVATURE,
    TCG_RESIDUAL,
)

from _helpers import make_quadratic_problem, rayleigh_problem


def _euclid_quadratic(q, b=None):
    n = q.shape[0]
    b = b if b is not None else np.zeros(n)
    return ProblemDef(
        manifold=euclidean_factory(n),
        cost=lambda x: 0.5 * float(x @ q @ x) - float(b @ x),
        egrad=lambda x: q @ x - b,
        ehess=lambda x, u: q @ u,
    )


# --- shared stopping ---------------------------------------------------------


def test_shared_stopping_cases():
    opts = SolverOptions()
    rec = IterationRecord(5, 1.0, 1e-9, 0.1)
    assert shared_stopping(rec, opts) == (True, GRADIENT_TOLERANCE)
    # min_iter blocks an early gradient stop
    assert shared_stopping(IterationRecord(1, 1.0, 1e-9, 0.1), opts) == (False, None)
    assert shared_stopping(IterationRecord(1000, 1.0, 1.0, 0.1), opts) == (
        True,
        MAX_ITER,
    )
    opts_t = SolverOptions(max_time_seconds=0.5)
    assert shared_stopping(IterationRecord(4, 1.0, 1.0, 0.6), opts_t) == (
        True,
        MAX_TIME,
    )
    opts_u = SolverOptions(stop_callback=lambda r: True)
    assert shared_stopping(IterationRecord(0, 1.0, 1.0, 0.0), opts_u) == (
        True,
        USER_STOP,
    )
    # priority: gradient tolerance reported before max_iter
    assert shared_stopping(IterationRecord(1000, 1.0, 1e-9, 0.0), opts) == (
        True,
        GRADIENT_TOLERANCE,
    )


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient, trust_regions])
@pytest.mark.parametrize(
    "bad, value", [("cost", math.nan), ("cost", math.inf), ("egrad", math.nan)]
)
def test_nonfinite_cost_or_gradient_stops_the_run(solver, bad, value):
    # egrad(x) = x has a zero Riemannian gradient on the sphere, so a NaN
    # cost alone would otherwise pass for convergence.
    p = ProblemDef(
        manifold=sphere_factory(5),
        cost=(lambda x: value) if bad == "cost" else (lambda x: float(x @ x)),
        egrad=(lambda x: np.full(5, value)) if bad == "egrad" else (lambda x: x),
        ehess=lambda x, u: u,
    )
    res = solver(p, rng=np.random.default_rng(0), opts=SolverOptions(clock=lambda: 0.0))
    assert res.stop_reason == NONFINITE
    assert len(res.history) == 1
    assert res.counters["cost_evals"] == 1
    assert res.counters["hess_evals"] == 0


# Fixed rank has no exact ehess2rhess, so only its rhess route is exact.
_NONFINITE_MODEL_CASES = [
    (M, route)
    for M in (sphere_factory(5), stiefel_factory(5, 2), fixed_rank_factory(5, 4, 2))
    for route in ("ehess", "rhess")
    if route == "rhess" or M.ehess2rhess is not None
]


@pytest.mark.parametrize(
    "M, route", _NONFINITE_MODEL_CASES,
    ids=[f"{M.name}-{route}" for M, route in _NONFINITE_MODEL_CASES],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in a projection
def test_trust_regions_stops_on_a_nonfinite_model(M, route, value):
    # With a NaN or inf Hessian product rho is NaN, so every step would be
    # rejected and every rerun read the same product back, to max_iter.
    bad = ((lambda x, u: np.full_like(u, value)) if route == "ehess"
           else (lambda x, u: M.lincomb(x, value, u)))
    p = dataclasses.replace(make_quadratic_problem(M, seed=3), **{route: bad})
    assert p.hessian_source == route
    res = trust_regions(p, rng=np.random.default_rng(0), opts=SolverOptions(max_iter=200))
    assert res.stop_reason == NONFINITE
    assert len(res.history) == 1
    # The step stops before it retracts: no cost beyond the start point's.
    # A NaN or infinite curvature sends the tCG to the boundary after its
    # first product.
    assert res.counters["cost_evals"] == 1 and res.counters["grad_evals"] == 1
    assert res.counters["hess_evals"] == 1
    assert math.isfinite(res.cost_final)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol_grad_norm=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=1, min_iter=5)


# Each of these used to be accepted: a NaN gradient tolerance passed the
# "<= 0" test and made TR call the tCG with an exactly zero gradient
# (ZeroDivisionError); max_inner=0 and a zero or NaN delta0 ran to max_iter.
@pytest.mark.parametrize("field, value", [
    ("tol_grad_norm", math.nan),
    ("tol_grad_norm", math.inf),
    ("tol_grad_norm", -1e-6),
    ("max_inner", 0),
    ("max_inner", -1),
    ("delta0", 0.0),
    ("delta0", math.nan),
    ("delta0", math.inf),
    ("delta0", -1.0),
    ("delta_bar", 0.0),
    ("delta_bar", math.nan),
    ("delta_bar", math.inf),
    ("delta_bar", -1.0),
    # A zero contraction made SD spin to max_iter; the other line-search
    # values ended the run as a failed line search (step_collapse).
    ("ls_contraction", 0.0),
    ("ls_contraction", 1.0),
    ("ls_contraction", math.nan),
    ("ls_contraction", -0.5),
    ("ls_sufficient_decrease", 0.0),
    ("ls_sufficient_decrease", 1.0),
    ("ls_sufficient_decrease", 1.5),
    ("ls_sufficient_decrease", math.nan),
    ("ls_max_backtracks", -1),
    # TR never accepted a step and ran to max_iter.
    ("rho_prime", 0.25),
    ("rho_prime", 1.5),
    ("rho_prime", -0.1),
    ("rho_prime", math.nan),
    ("rho_regularization", math.nan),
    ("rho_regularization", math.inf),
    ("rho_regularization", -1e-15),
])
def test_options_reject_values_that_crash_or_spin(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_options_accept_the_smallest_valid_values():
    # One tCG step per iteration (a Cauchy step), with no margin on rho and
    # no regularization of it, still converges.
    opts = SolverOptions(max_inner=1, delta0=1e-3, delta_bar=1e-3, rho_prime=0.0,
                         rho_regularization=0.0, clock=lambda: 0.0)
    res = trust_regions(make_quadratic_problem(sphere_factory(5)), opts=opts)
    assert res.stop_reason == "gradient_tolerance"
    assert {rec.inner_iters for rec in res.history[1:]} == {1}
    # So do both line-search solvers with a tiny contraction and a tiny
    # sufficient-decrease constant.
    opts = SolverOptions(ls_contraction=1e-3, ls_sufficient_decrease=1e-12, clock=lambda: 0.0)
    for solver in (steepest_descent, conjugate_gradient):
        res = solver(make_quadratic_problem(sphere_factory(5)), opts=opts)
        assert res.stop_reason == "gradient_tolerance"


# --- Armijo line search ------------------------------------------------------


def _logged(phi):
    """phi, recording each trial t."""
    trials = []

    def logged(t):
        trials.append(t)
        return phi(t)

    return logged, trials


def _parabola(f0, slope, curvature):
    return lambda t: f0 + slope * t + 0.5 * curvature * t * t


def test_line_search_backtracks_to_the_minimizer_of_a_quadratic():
    # t0 fails Armijo; the quadratic through phi(0), phi'(0) and phi(t0) is
    # phi itself, so the second trial is its minimizer, which is accepted.
    f0, slope, curvature, t0 = 3.7, -2.3, 5.9, 1.3
    phi, trials = _logged(_parabola(f0, slope, curvature))
    t, f_t = backtracking_line_search(phi, f0, slope, t0, SolverOptions())
    assert len(trials) == 2 and trials[0] == t0
    assert t == trials[1] == pytest.approx(-slope / curvature, rel=1e-12)
    assert f_t == phi(t)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("contraction", [0.5, 0.3])
def test_line_search_contracts_past_a_nonfinite_trial(bad, contraction):
    f0, slope, t0 = 1.0, -1.0, 2.0
    quadratic = _parabola(f0, slope, 1.0)
    phi, trials = _logged(lambda t: bad if t == t0 else quadratic(t))
    opts = SolverOptions(ls_contraction=contraction)
    t, _ = backtracking_line_search(phi, f0, slope, t0, opts)
    assert trials[:2] == [t0, contraction * t0] and t == trials[-1]


def test_line_search_contraction_wins_below_one_tenth():
    # The minimizer 0.25 t0 lies inside [0.1 t0, 0.5 t0], but a contraction
    # below 0.1 caps every backtrack.
    f0, slope, t0 = 1.0, -1.0, 1.0
    phi, trials = _logged(_parabola(f0, slope, 4.0))
    opts = SolverOptions(ls_contraction=1e-3)
    t, _ = backtracking_line_search(phi, f0, slope, t0, opts)
    assert trials == [t0, 1e-3 * t0] and t == 1e-3 * t0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    contraction=st.floats(0.01, 0.99),
    slope=st.floats(-1e3, -1e-6),
    t0=st.floats(1e-6, 1e3),
    log_excess=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=8),
)
def test_line_search_backtracks_within_the_safeguards(contraction, slope, t0, log_excess):
    # Each trial fails Armijo by 10**log_excess (a curvature from nearly 0
    # to huge); every backtrack keeps between 0.1 and ls_contraction of t,
    # and exactly ls_contraction of it when that is below 0.1.
    f0 = 2.0
    opts = SolverOptions(ls_contraction=contraction, ls_max_backtracks=len(log_excess) - 1)
    c1 = opts.ls_sufficient_decrease
    excess = iter(log_excess)
    phi, trials = _logged(lambda t: f0 + c1 * t * slope + 10.0 ** next(excess))
    assert backtracking_line_search(phi, f0, slope, t0, opts) is None
    assert len(trials) == len(log_excess)
    for t, t_next in zip(trials, trials[1:]):
        if contraction < 0.1:
            assert t_next == contraction * t
        else:
            assert 0.1 * t <= t_next <= contraction * t


@pytest.mark.parametrize("phi", [lambda t: 1.0 + t, _parabola(1.0, -1.0, 4.0)],
                         ids=["rising", "parabola"])
def test_line_search_without_backtracks_makes_one_trial(phi):
    # The initial step is tried once and the search gives up if it fails,
    # even where the quadratic's minimizer (0.25 for the parabola) would pass.
    opts = SolverOptions(ls_max_backtracks=0)
    assert backtracking_line_search(lambda t: 1.0 - t, 1.0, -1.0, 0.5, opts) == (0.5, 0.5)
    phi, trials = _logged(phi)
    assert backtracking_line_search(phi, 1.0, -1.0, 1.0, opts) is None
    assert trials == [1.0]


# --- steepest descent --------------------------------------------------------


def test_sd_euclidean_norm_squared():
    q = 2.0 * np.eye(2)
    p = _euclid_quadratic(q)
    res = steepest_descent(p, x0=np.array([1.0, 1.0]), opts=SolverOptions(tol_grad_norm=1e-8))
    assert res.stop_reason == GRADIENT_TOLERANCE
    assert np.max(np.abs(res.x_final)) < 1e-8
    costs = [r.cost for r in res.history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_sd_sphere_rayleigh_converges_to_top_eigenvector():
    M = sphere_factory(3)
    a = np.diag([3.0, 2.0, 1.0])
    p = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x
    )
    res = steepest_descent(p, rng=np.random.default_rng(0))
    assert res.grad_norm_final <= 1e-6
    assert abs(abs(res.x_final[0]) - 1.0) < 1e-5  # +-e1
    assert res.cost_final == pytest.approx(-3.0, abs=1e-9)


def test_sd_critical_start_stops_after_min_iter():
    M = sphere_factory(3)
    a = np.diag([3.0, 2.0, 1.0])
    p = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x
    )
    res = steepest_descent(p, x0=np.array([1.0, 0.0, 0.0]))
    assert res.stop_reason == GRADIENT_TOLERANCE
    assert res.history[-1].iteration == SolverOptions().min_iter
    np.testing.assert_allclose(res.x_final, [1.0, 0.0, 0.0])


def test_sd_step_collapse():
    # Discontinuous drop that Armijo can never satisfy from x0.
    M = euclidean_factory(1)

    def cost(x):
        return float(abs(x[0])) if abs(x[0]) > 0.5 else -1e6

    p = ProblemDef(manifold=M, cost=cost, egrad=lambda x: np.array([-1.0]))
    res = steepest_descent(p, x0=np.array([0.6]), opts=SolverOptions(max_iter=10))
    assert res.stop_reason in (STEP_COLLAPSE, MAX_ITER)


def test_sd_iterates_stay_on_manifold():
    p, _ = rayleigh_problem(8, seed=1)
    M = p.manifold
    seen = []
    opts = SolverOptions(stats_callback=lambda r: seen.append(r.iteration))
    res = steepest_descent(p, rng=np.random.default_rng(2), opts=opts)
    assert M.constraint_violation(res.x_final) <= 1e-10
    assert seen == [r.iteration for r in res.history]
    its = [r.iteration for r in res.history]
    assert its == sorted(set(its))


# --- conjugate gradients -----------------------------------------------------


def _exact_quadratic_line_search(phi, phi0, slope, t0):
    """Parabola fit through phi(0), phi'(0), phi(t0): exact for quadratics."""
    f_t0 = phi(t0)
    curv = 2.0 * (f_t0 - phi0 - slope * t0) / (t0 * t0)
    if curv <= 0:
        return t0, f_t0
    t = -slope / curv
    return t, phi(t)


def test_cg_finite_termination_on_quadratic():
    n = 8
    rng = np.random.default_rng(3)
    m = rng.standard_normal((n, n))
    q = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    p = _euclid_quadratic(q, b)
    opts = SolverOptions(
        tol_grad_norm=1e-8, line_search=_exact_quadratic_line_search, min_iter=0
    )
    res = conjugate_gradient(p, x0=np.zeros(n), opts=opts)
    assert res.stop_reason == GRADIENT_TOLERANCE
    assert res.history[-1].iteration <= n + 2
    x_star = np.linalg.solve(q, b)
    np.testing.assert_allclose(res.x_final, x_star, atol=1e-6)


def test_cg_preconditioner_speedup():
    n = 10
    q = np.diag(np.logspace(0, 3, n))  # ill-conditioned
    b = np.ones(n)
    p_plain = _euclid_quadratic(q, b)
    q_inv = np.linalg.inv(q)
    p_pre = ProblemDef(
        manifold=p_plain.manifold,
        cost=p_plain.cost,
        egrad=p_plain.egrad,
        ehess=p_plain.ehess,
        precond=lambda x, u: q_inv @ u,
    )
    opts = SolverOptions(
        tol_grad_norm=1e-8, line_search=_exact_quadratic_line_search, min_iter=0
    )
    r_plain = conjugate_gradient(p_plain, x0=np.zeros(n), opts=opts)
    r_pre = conjugate_gradient(p_pre, x0=np.zeros(n), opts=opts)
    assert r_pre.history[-1].iteration <= r_plain.history[-1].iteration
    assert r_pre.history[-1].iteration <= 3  # exact inverse: one-step-like


def test_cg_sphere_rayleigh_and_monotone_cost():
    p, a = rayleigh_problem(12, seed=5)
    res = conjugate_gradient(p, rng=np.random.default_rng(6))
    lam_max = float(np.linalg.eigvalsh(a)[-1])
    assert res.grad_norm_final <= 1e-6
    assert res.cost_final == pytest.approx(-lam_max, abs=1e-8)
    assert p.manifold.constraint_violation(res.x_final) <= 1e-10


# --- truncated CG subsolver --------------------------------------------------


def test_tcg_identity_hessian_one_step():
    n = 5
    p = _euclid_quadratic(np.eye(n))
    x = np.zeros(n)
    g = np.array([1.0, 2.0, 0.0, -1.0, 0.5])
    eta, h_eta, stop, inner = tcg_subsolver(p, x, g, delta=1e6)
    assert stop == TCG_RESIDUAL
    assert inner == 1
    np.testing.assert_allclose(eta, -g, atol=1e-12)
    np.testing.assert_allclose(h_eta, -g, atol=1e-12)


def test_tcg_negative_curvature_hits_boundary():
    q = np.diag([1.0, -2.0])
    p = _euclid_quadratic(q)
    x = np.zeros(2)
    g = np.array([0.0, 1.0])  # aligned with the negative eigendirection
    delta = 0.7
    eta, _, stop, _ = tcg_subsolver(p, x, g, delta=delta)
    assert stop == TCG_NEGATIVE_CURVATURE
    assert abs(float(np.linalg.norm(eta)) - delta) <= 1e-12


def test_tcg_boundary_stop():
    p = _euclid_quadratic(np.eye(3))
    g = np.array([10.0, 0.0, 0.0])
    delta = 0.25
    eta, _, stop, _ = tcg_subsolver(p, np.zeros(3), g, delta=delta)
    assert stop == TCG_BOUNDARY
    assert abs(float(np.linalg.norm(eta)) - delta) <= 1e-12


def test_tcg_beats_cauchy_point():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    q = m @ m.T + 0.5 * np.eye(6)
    p = _euclid_quadratic(q)
    g = rng.standard_normal(6)
    delta = 0.8

    def model(eta):
        return float(g @ eta) + 0.5 * float(eta @ q @ eta)

    eta, _, _, _ = tcg_subsolver(p, np.zeros(6), g, delta=delta)
    # explicit Cauchy point
    ghg = float(g @ q @ g)
    gnorm = float(np.linalg.norm(g))
    t_c = min(gnorm**2 / ghg, delta / gnorm) if ghg > 0 else delta / gnorm
    cauchy = -t_c * g
    assert model(eta) <= model(cauchy) + 1e-12
    assert model(eta) < 0.0


# --- trust regions -----------------------------------------------------------


def test_tr_newton_like_on_euclidean_quadratic():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    q = m @ m.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    p = _euclid_quadratic(q, b)
    opts = SolverOptions(
        tol_grad_norm=1e-10, min_iter=0, delta_bar=1e6, delta0=1e5, tcg_kappa=1e-10
    )
    res = trust_regions(p, x0=np.zeros(6), opts=opts)
    assert res.stop_reason == GRADIENT_TOLERANCE
    assert res.history[-1].iteration <= 3
    np.testing.assert_allclose(res.x_final, np.linalg.solve(q, b), atol=1e-8)


def test_tr_sphere_rayleigh_50():
    p, a = rayleigh_problem(50, seed=9)
    res = trust_regions(p, rng=np.random.default_rng(10))
    lam_max = float(np.linalg.eigvalsh(a)[-1])
    assert res.cost_final == pytest.approx(-lam_max, abs=1e-8)
    assert p.manifold.constraint_violation(res.x_final) <= 1e-10


def test_tr_local_quadratic_convergence():
    p, _ = rayleigh_problem(20, seed=11)
    opts = SolverOptions(tol_grad_norm=1e-12, min_iter=0)
    res = trust_regions(p, rng=np.random.default_rng(12), opts=opts)
    gnorms = [r.grad_norm for r in res.history if r.grad_norm > 0]
    # superlinear tail: log gnorm_{k+1} / log gnorm_k >= 1.8 over the last
    # contractions before hitting machine precision
    tail = [g for g in gnorms if 1e-14 < g < 1e-2]
    assert len(tail) >= 2
    for a_, b_ in zip(tail, tail[1:]):
        assert math.log(b_) / math.log(a_) >= 1.8


def test_tr_monotone_accepted_costs():
    p, _ = rayleigh_problem(15, seed=13)
    res = trust_regions(p, rng=np.random.default_rng(14))
    costs = [r.cost for r in res.history]
    for a_, b_ in zip(costs, costs[1:]):
        assert b_ <= a_ + 1e-13 * max(1.0, abs(a_))


def test_tr_fd_hessian_still_converges():
    M = sphere_factory(8)
    rng = np.random.default_rng(15)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2
    p = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x
    )
    assert not p.has_exact_hessian()
    res = trust_regions(p, rng=np.random.default_rng(16), opts=SolverOptions(max_iter=500))
    lam_max = float(np.linalg.eigvalsh(a)[-1])
    assert res.cost_final == pytest.approx(-lam_max, abs=1e-6)


def test_tr_history_extras_present():
    p, _ = rayleigh_problem(6, seed=17)
    res = trust_regions(p, rng=np.random.default_rng(18))
    assert all(r.delta is not None for r in res.history)
    assert any(r.inner_iters is not None for r in res.history[1:])


# --- determinism and CSV export ---------------------------------------------


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient, trust_regions])
def test_determinism(solver):
    p, _ = rayleigh_problem(10, seed=19)
    opts = lambda: SolverOptions(clock=lambda: 0.0)  # noqa: E731
    r1 = solver(p, rng=np.random.default_rng(20), opts=opts())
    r2 = solver(p, rng=np.random.default_rng(20), opts=opts())
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a == b
    np.testing.assert_array_equal(r1.x_final, r2.x_final)
    assert r1.counters == r2.counters


def test_history_csv_format(tmp_path):
    p, _ = rayleigh_problem(5, seed=21)
    res = trust_regions(p, rng=np.random.default_rng(22), opts=SolverOptions(clock=lambda: 0.0))
    path = tmp_path / "hist.csv"
    history_to_csv(res.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,cost,gradnorm,time,stepsize,inner,Delta,rho"
    assert len(lines) == len(res.history) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == res.history[0].cost
    # trust-region extras are empty on the very first record, filled later
    assert any(line.split(",")[6] != "" for line in lines[1:])


def test_counters_reported_in_result():
    p, _ = rayleigh_problem(5, seed=23)
    res = steepest_descent(p, rng=np.random.default_rng(24))
    c = res.counters
    assert c["cost_evals"] > 0 and c["grad_evals"] > 0
    assert c["hess_evals"] == 0
    # The FD route's log-once flag is not a counter.
    p_fd = ProblemDef(manifold=p.manifold, cost=p.cost, egrad=p.egrad)
    assert p_fd.hessian_source == "fd-fallback"
    res = trust_regions(p_fd, rng=np.random.default_rng(24), opts=SolverOptions(max_iter=5))
    assert list(res.counters) == ["cost_evals", "grad_evals", "hess_evals"]
    assert res.counters["hess_evals"] > 0


def test_cg_evaluates_gradient_once_per_point():
    # The gradient CG takes at the new point for beta is the one the next
    # iteration reads.
    p, _ = rayleigh_problem(10, seed=19)
    res = conjugate_gradient(
        p, rng=np.random.default_rng(20), opts=SolverOptions(clock=lambda: 0.0)
    )
    assert res.counters["grad_evals"] == len(res.history)


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient])
def test_idle_records_reuse_the_point_token(solver):
    # Started at the minimizer, the solver idles at one point until
    # min_iter allows the stop; the cost and gradient there are cached.
    p = _euclid_quadratic(np.eye(3))
    opts = SolverOptions(clock=lambda: 0.0)
    res = solver(p, np.zeros(3), opts)
    assert res.stop_reason == GRADIENT_TOLERANCE
    assert len(res.history) == opts.min_iter + 1
    assert res.counters["cost_evals"] == 1
    assert res.counters["grad_evals"] == 1


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient])
def test_descent_evaluates_each_point_cost_once(solver):
    # The accepted point's cost is the line search's last trial: only the
    # start point and the trials are evaluated.
    p, _ = rayleigh_problem(8, seed=27)
    trials = []

    def line_search(phi, phi0, slope, t0):
        def counted(t):
            trials.append(t)
            return phi(t)

        return backtracking_line_search(counted, phi0, slope, t0, opts)

    opts = SolverOptions(line_search=line_search, clock=lambda: 0.0)
    res = solver(p, opts=opts, rng=np.random.default_rng(28))
    assert len(res.history) > 5
    assert res.counters["cost_evals"] == 1 + len(trials)


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient])
def test_line_search_may_accept_an_earlier_trial(solver):
    # A trial after the accepted one must not stand in for the accepted point.
    p, _ = rayleigh_problem(8, seed=31)

    def accept_t0(phi, phi0, slope, t0):
        return t0, phi(t0)

    def accept_t0_probe_after(phi, phi0, slope, t0):
        f_t0 = phi(t0)
        phi(0.5 * t0)
        return t0, f_t0

    a, b = (
        solver(p, opts=SolverOptions(line_search=ls, max_iter=20, clock=lambda: 0.0),
               rng=np.random.default_rng(32))
        for ls in (accept_t0, accept_t0_probe_after)
    )
    assert a.history == b.history
    assert np.array_equal(a.x_final, b.x_final)
    # Every trial keeps its token, so the accepted point's cost is not
    # evaluated again: each step adds the probe and nothing else.
    steps = len(b.history) - 1
    assert a.counters["cost_evals"] == 1 + steps
    assert b.counters["cost_evals"] == 1 + 2 * steps


@pytest.mark.parametrize("solver", [steepest_descent, conjugate_gradient])
def test_a_degenerate_trial_step_costs_infinity(solver):
    # A trial whose retraction raises DegenerateStepError costs +inf, and
    # the line search backtracks past it instead of ending the run.
    p = _euclid_quadratic(np.diag([1.0, 2.0, 3.0]))
    M = p.manifold

    def retract(x, u, t=1.0):
        if t * M.norm(x, u) > 0.5:
            raise DegenerateStepError("trial step too long")
        return M.retract(x, u, t)

    p = dataclasses.replace(p, manifold=dataclasses.replace(M, retract=retract))
    values = []

    def line_search(phi, phi0, slope, t0):
        def logged(t):
            values.append(phi(t))
            return values[-1]

        return backtracking_line_search(logged, phi0, slope, t0, opts)

    opts = SolverOptions(line_search=line_search, clock=lambda: 0.0)
    res = solver(p, np.array([3.0, -2.0, 1.0]), opts)
    assert math.inf in values
    assert res.stop_reason == GRADIENT_TOLERANCE


@pytest.mark.parametrize("refused", ["conjugate", "all"])
def test_cg_retries_a_failed_conjugate_direction_along_minus_grad(refused):
    # The line search refuses the first conjugate direction (its second
    # call); CG retries once at the same point along -grad.  Only when that
    # retry fails too does the run end as step_collapse.
    p, _ = rayleigh_problem(8, seed=33)
    calls = []  # (phi0, slope) of each line search

    def line_search(phi, phi0, slope, t0):
        calls.append((phi0, slope))
        if len(calls) == 2 or (refused == "all" and len(calls) > 2):
            return None
        return backtracking_line_search(phi, phi0, slope, t0, opts)

    opts = SolverOptions(line_search=line_search, clock=lambda: 0.0)
    res = conjugate_gradient(p, opts=opts, rng=np.random.default_rng(34))
    (f1, conj_slope), (f1_again, retry_slope) = calls[1], calls[2]
    assert f1 == f1_again == res.history[1].cost and conj_slope != retry_slope
    assert retry_slope == pytest.approx(-res.history[1].grad_norm ** 2, rel=1e-12)
    if refused == "all":
        assert res.stop_reason == STEP_COLLAPSE and len(calls) == 3
    else:
        assert res.stop_reason == GRADIENT_TOLERANCE


def test_cg_retry_along_minus_grad_starts_from_the_a_priori_step():
    # The failed conjugate search's initial step came from the last
    # decrease, which may be tiny; the retry along -grad starts afresh from
    # min(typical_dist / ||grad||, typical_dist).
    p, _ = rayleigh_problem(8, seed=33)
    M = p.manifold
    calls = []  # (phi0, slope, t0) of each line search

    def line_search(phi, phi0, slope, t0):
        calls.append((phi0, slope, t0))
        if len(calls) == 2:
            return None
        return backtracking_line_search(phi, phi0, slope, t0, opts)

    opts = SolverOptions(line_search=line_search, clock=lambda: 0.0)
    res = conjugate_gradient(p, opts=opts, rng=np.random.default_rng(34))
    assert res.stop_reason == GRADIENT_TOLERANCE
    (_, conj_slope, conj_t0), (_, retry_slope, retry_t0) = calls[1], calls[2]
    decrease = res.history[0].cost - res.history[1].cost
    assert conj_t0 == pytest.approx(2.0 * decrease / -conj_slope, rel=1e-12)
    gnorm = res.history[1].grad_norm
    assert retry_t0 == pytest.approx(min(M.typical_dist / gnorm, M.typical_dist), rel=1e-12)
    assert retry_t0 != pytest.approx(2.0 * decrease / -retry_slope, rel=1e-6)


def test_tr_rerun_after_a_rejected_step_adds_no_hess_evals():
    # The tCG products at a point live in the point's cache entry, so the
    # rerun after a rejected step reads them back: only the first tCG call
    # at each point computes Hessian-vector products.
    p, _ = rayleigh_problem(8, seed=29)
    res = trust_regions(p, opts=SolverOptions(delta0=math.pi, clock=lambda: 0.0),
                        rng=np.random.default_rng(30))
    rerun = [rec.rho is not None and rec.step_size == 0.0 for rec in res.history[:-1]]
    assert any(rerun)
    assert res.counters["hess_evals"] == sum(
        rec.inner_iters
        for rec, again in zip(res.history[1:], rerun)
        if rec.inner_iters is not None and not again
    )


def test_records_are_logged_at_debug_level(caplog):
    p, _ = rayleigh_problem(5, seed=25)
    opts = SolverOptions(max_iter=6, clock=lambda: 0.0)
    with caplog.at_level(logging.INFO, logger="riemopt.solvers.core"):
        trust_regions(p, opts=opts, rng=np.random.default_rng(26))
    assert not caplog.records  # not watched at DEBUG: nothing is logged
    with caplog.at_level(logging.DEBUG, logger="riemopt.solvers.core"):
        res = trust_regions(p, opts=opts, rng=np.random.default_rng(26))
    msgs = [r.getMessage() for r in caplog.records if r.name == "riemopt.solvers.core"]
    assert len(msgs) == len(res.history)
    first, last = res.history[0], res.history[-1]
    assert msgs[0] == f"    0  cost {first.cost:+.12e}  grad {first.grad_norm:.6e}  Delta {first.delta:.3e}"
    assert f"inner {last.inner_iters:3d}" in msgs[-1] and f"rho {last.rho:+.3f}" in msgs[-1]
