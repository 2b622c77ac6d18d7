"""Problem layer: derivative resolution, token caching, counters, the FD
Hessian fallback, and the preflight report."""

import logging

import numpy as np
import pytest

from riemopt import (
    CacheStore,
    ProblemDef,
    approx_hessian_fd,
    check_problem,
    euclidean_factory,
    fixed_rank_factory,
    get_cost,
    get_gradient,
    get_hessian,
    sphere_factory,
)
from riemopt.exceptions import MissingDerivativeError

from _helpers import rayleigh_problem


def _counting_problem(n=4):
    """Euclidean quadratic with call counters on every callable."""
    M = euclidean_factory(n)
    q = np.diag(np.arange(1.0, n + 1.0))
    calls = {"cost": 0, "egrad": 0, "ehess": 0}

    def cost(x):
        calls["cost"] += 1
        return 0.5 * float(x @ q @ x)

    def egrad(x):
        calls["egrad"] += 1
        return q @ x

    def ehess(x, u):
        calls["ehess"] += 1
        return q @ u

    return ProblemDef(manifold=M, cost=cost, egrad=egrad, ehess=ehess), calls, q


# --- caching and counters ---------------------------------------------------


def test_cache_hit_skips_reevaluation():
    p, calls, _ = _counting_problem()
    store = CacheStore()
    x = np.ones(4)
    tok = store.token()
    v1 = get_cost(p, x, store, tok)
    v2 = get_cost(p, x, store, tok)
    assert v1 == v2
    assert calls["cost"] == 1
    assert store.cost_evals == 1


def test_counter_law_distinct_points():
    p, calls, _ = _counting_problem()
    store = CacheStore()
    for k in range(5):
        tok = store.token()
        x = np.full(4, float(k))
        get_cost(p, x, store, tok)
        get_cost(p, x, store, tok)  # same token: no increment
    assert store.cost_evals == 5
    assert calls["cost"] == 5


def test_cache_never_crosses_tokens():
    p, _, _ = _counting_problem()
    store = CacheStore()
    t1, t2 = store.token(), store.token()
    v1 = get_cost(p, np.ones(4), store, t1)
    v2 = get_cost(p, 2 * np.ones(4), store, t2)
    assert v1 != v2
    assert get_cost(p, np.ones(4), store, t1) == v1
    assert get_cost(p, 2 * np.ones(4), store, t2) == v2


def test_caching_disabled_counts_every_call():
    # A one-shot call (no token) caches nothing.
    p, calls, _ = _counting_problem()
    store = CacheStore()
    a = get_cost(p, np.ones(4), store)
    b = get_cost(p, np.ones(4), store)
    assert a == b  # caching changes counters only, never values
    assert calls["cost"] == 2
    assert store.cost_evals == 2


def test_user_scratch_dict_shared_between_cost_and_grad():
    M = sphere_factory(5)
    a = np.diag(np.arange(1.0, 6.0))
    hits = {"reused": 0}

    def cost(x, scratch):
        scratch["ax"] = a @ x
        return -float(x @ scratch["ax"])

    def egrad(x, scratch):
        if "ax" in scratch:
            hits["reused"] += 1
            ax = scratch["ax"]
        else:
            ax = a @ x
        return -2.0 * ax

    p = ProblemDef(manifold=M, cost=cost, egrad=egrad)
    store = CacheStore()
    x = M.rand_point(np.random.default_rng(0))
    tok = store.token()
    get_cost(p, x, store, tok)
    get_gradient(p, x, store, tok)
    assert hits["reused"] == 1


def test_counters_without_store_are_untouched():
    p, calls, _ = _counting_problem()
    assert get_cost(p, np.ones(4)) == get_cost(p, np.ones(4))
    assert calls["cost"] == 2


# --- derivative resolution --------------------------------------------------


def test_rgrad_wins_over_egrad():
    M = sphere_factory(4)
    sentinel = {"rgrad_used": False}
    a = np.diag([4.0, 3.0, 2.0, 1.0])

    def egrad(x):
        return -2.0 * a @ x

    def rgrad(x):
        sentinel["rgrad_used"] = True
        return M.egrad2rgrad(x, egrad(x))

    p = ProblemDef(manifold=M, cost=lambda x: -float(x @ a @ x), egrad=egrad, rgrad=rgrad)
    x = M.rand_point(np.random.default_rng(1))
    g = get_gradient(p, x)
    assert sentinel["rgrad_used"]
    p2 = ProblemDef(manifold=M, cost=p.cost, egrad=egrad)
    g2 = get_gradient(p2, x)
    np.testing.assert_allclose(g, g2, atol=1e-12)


def test_missing_gradient_error_names_fields():
    p = ProblemDef(manifold=sphere_factory(3), cost=lambda x: 0.0)
    with pytest.raises(MissingDerivativeError, match="rgrad|egrad"):
        get_gradient(p, np.array([1.0, 0.0, 0.0]))
    assert not p.has_gradient()


def test_rayleigh_critical_point_gradient_zero():
    # A = diag(2,1), x = e2 is an eigenvector: rgrad must vanish.
    M = sphere_factory(2)
    a = np.diag([2.0, 1.0])
    p = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x
    )
    e2 = np.array([0.0, 1.0])
    np.testing.assert_allclose(get_gradient(p, e2), np.zeros(2), atol=1e-15)


def test_hessian_resolution_priority():
    M = sphere_factory(4)
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    used = []

    def ehess(x, u):
        used.append("ehess")
        return -2.0 * a @ u

    def rhess(x, u):
        used.append("rhess")
        return M.ehess2rhess(x, -2.0 * a @ x)(-2.0 * a @ u, u)

    kw = dict(manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -2.0 * a @ x)
    p_both = ProblemDef(ehess=ehess, rhess=rhess, **kw)
    x = M.rand_point(np.random.default_rng(2))
    u = M.rand_tangent(x, np.random.default_rng(3))
    h1 = get_hessian(p_both, x, u)
    assert used == ["rhess"]
    h2 = get_hessian(ProblemDef(ehess=ehess, **kw), x, u)
    np.testing.assert_allclose(h1, h2, atol=1e-12)
    assert p_both.has_exact_hessian()


def test_hessian_of_zero_is_zero():
    p, _, _ = _counting_problem()
    M = p.manifold
    x = np.ones(4)
    np.testing.assert_allclose(get_hessian(p, x, np.zeros(4)), np.zeros(4))


def test_euclidean_quadratic_hessian_exact():
    p, _, q = _counting_problem()
    rng = np.random.default_rng(4)
    x, u = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_allclose(get_hessian(p, x, u), q @ u, atol=1e-12)


# --- FD Hessian fallback ----------------------------------------------------


def test_fd_hessian_exact_on_euclidean_quadratic():
    p, _, q = _counting_problem()
    rng = np.random.default_rng(5)
    x, u = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_allclose(approx_hessian_fd(p, x, u), q @ u, rtol=1e-9, atol=1e-9)


def test_fd_hessian_zero_direction():
    p, _, _ = _counting_problem()
    np.testing.assert_allclose(approx_hessian_fd(p, np.ones(4), np.zeros(4)), np.zeros(4))


def test_fd_hessian_accuracy_sphere_rayleigh():
    # Unit spectral norm keeps the O(t) forward-difference error well under
    # the 1e-3 budget (the error constant scales with ||A||).
    M = sphere_factory(6)
    rng0 = np.random.default_rng(6)
    a = rng0.standard_normal((6, 6))
    a = (a + a.T) / 2.0
    a /= np.linalg.norm(a, 2)
    p = ProblemDef(
        manifold=M,
        cost=lambda x: -float(x @ a @ x),
        egrad=lambda x: -2.0 * a @ x,
        ehess=lambda x, u: -2.0 * a @ u,
    )
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = M.rand_point(rng)
        u = M.rand_tangent(x, rng)
        exact = get_hessian(p, x, u)
        fd = approx_hessian_fd(p, x, u)
        err = M.norm(x, M.lincomb(x, 1.0, fd, -1.0, exact))
        assert err <= 1e-3 * max(1.0, M.norm(x, exact))


def test_fd_fallback_on_fixed_rank_logged_once(caplog):
    M = fixed_rank_factory(5, 4, 2)
    a = np.random.default_rng(8).standard_normal((5, 4))

    def cost(x):
        return 0.5 * float(np.sum((x.to_dense() - a) ** 2))

    def egrad(x):
        return x.to_dense() - a

    def ehess(x, u):
        d = x.u @ u.m @ x.v.T + u.up @ x.v.T + x.u @ u.vp.T
        return d

    p = ProblemDef(manifold=M, cost=cost, egrad=egrad, ehess=ehess)
    assert not p.has_exact_hessian()
    store = CacheStore()
    x = M.rand_point(np.random.default_rng(9))
    u = M.rand_tangent(x, np.random.default_rng(10))
    with caplog.at_level(logging.INFO, logger="riemopt.problem"):
        get_hessian(p, x, u, store, store.token())
        get_hessian(p, x, u, store, store.token())
    msgs = [r for r in caplog.records if "FD Hessian" in r.getMessage()]
    assert len(msgs) == 1
    # The fallback result is still a usable tangent vector.
    h = get_hessian(p, x, u)
    assert np.isfinite(M.norm(x, h))


# --- preflight report -------------------------------------------------------


def test_check_problem_cost_only():
    p = ProblemDef(manifold=sphere_factory(3), cost=lambda x: float(x[0]))
    rep = check_problem(p)
    assert rep.gradient_source == "missing"
    assert rep.hessian_source == "unavailable"
    assert any("gradient missing" in c for c in rep.capabilities)
    assert "gradient: missing" in rep.summary()


def test_check_problem_fd_fallback():
    p = ProblemDef(
        manifold=sphere_factory(3),
        cost=lambda x: float(x @ x),
        egrad=lambda x: 2.0 * x,
    )
    rep = check_problem(p)
    assert rep.gradient_source == "egrad"
    assert rep.hessian_source == "fd-fallback"
    assert any("FD approximation" in c for c in rep.capabilities)


def test_check_problem_full():
    p, _ = rayleigh_problem(4, seed=11)
    rep = check_problem(p)
    assert rep.gradient_source == "egrad"
    assert rep.hessian_source == "ehess"
    assert rep.probe_failures == []


def test_check_problem_detects_nontangent_rgrad():
    M = sphere_factory(3)
    p = ProblemDef(
        manifold=M,
        cost=lambda x: float(x @ x),
        rgrad=lambda x: np.array([1.0, 1.0, 1.0]),  # not tangent
    )
    rep = check_problem(p)
    assert any("not tangent" in f for f in rep.probe_failures)


def test_check_problem_reports_exceptions_not_raises():
    def bad_cost(x):
        raise RuntimeError("boom")

    p = ProblemDef(manifold=sphere_factory(3), cost=bad_cost)
    rep = check_problem(p)
    assert any("boom" in f for f in rep.probe_failures)
