"""Derivative routes: the route a problem reports is the route it takes.

Every combination of egrad / rgrad / ehess / rhess on a sphere, plus ehess
on fixed rank (no exact Hessian conversion there).  For each one the
route ``ProblemDef.hessian_source`` reports is the one ``hessian_at``
takes, and ``trust_regions`` fails with ``MissingDerivativeError`` exactly
when the problem has no gradient.
"""

import dataclasses
import itertools
import logging

import numpy as np
import pytest

import riemopt.problem
from riemopt import (
    ProblemDef,
    SolverOptions,
    fixed_rank_factory,
    hessian_at,
    sphere_factory,
    trust_regions,
)
from riemopt.exceptions import MissingDerivativeError
from riemopt.problem import Counters, new_token

FIELDS = ("egrad", "rgrad", "ehess", "rhess")


def _sphere_callables(calls):
    M = sphere_factory(4)
    a = np.diag([4.0, 3.0, 2.0, 1.0])

    def egrad(x):
        calls.append("egrad")
        return -2.0 * a @ x

    def rgrad(x):
        calls.append("rgrad")
        return M.proj(x, -2.0 * a @ x)

    def ehess(x, u):
        calls.append("ehess")
        return -2.0 * a @ u

    def rhess(x, u):
        calls.append("rhess")
        return M.ehess2rhess(x, -2.0 * a @ x)(-2.0 * a @ u, u)

    fns = dict(egrad=egrad, rgrad=rgrad, ehess=ehess, rhess=rhess)
    return M, (lambda x: -float(x @ a @ x)), fns


def _expected_route(given):
    """The route rule, written out independently of the library."""
    if "rhess" in given:
        return "rhess"
    if "ehess" in given and "egrad" in given:
        return "ehess"
    if "egrad" in given or "rgrad" in given:
        return "fd-fallback"
    return "unavailable"


def _route_taken(p, monkeypatch, calls):
    """Which route one Hessian-vector product takes, seen from outside."""
    fd = []
    original = riemopt.problem.approx_hessian_fd

    def spy(*args, **kwargs):
        fd.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(riemopt.problem, "approx_hessian_fd", spy)
    rng = np.random.default_rng(0)
    x = p.manifold.rand_point(rng)
    u = p.manifold.rand_tangent(x, rng)
    store = Counters()
    calls.clear()
    try:
        hessian_at(p, x, store, new_token())(u)
    except MissingDerivativeError:
        return "unavailable"
    if "rhess" in calls:
        return "rhess"
    if "ehess" in calls:
        return "ehess"
    assert fd, "no Hessian route was taken"
    return "fd-fallback"


COMBOS = [
    tuple(name for name, on in zip(FIELDS, bits) if on)
    for bits in itertools.product((False, True), repeat=len(FIELDS))
]


@pytest.mark.parametrize("given", COMBOS, ids=lambda g: "+".join(g) or "cost-only")
def test_reported_route_is_the_route_taken(given, monkeypatch):
    calls = []
    M, cost, fns = _sphere_callables(calls)
    p = ProblemDef(manifold=M, cost=cost, **{k: fns[k] for k in given})
    expected = _expected_route(given)
    assert p.hessian_source == expected
    assert _route_taken(p, monkeypatch, calls) == expected
    assert p.has_exact_hessian() == (expected in ("rhess", "ehess"))
    grad = "rgrad" if "rgrad" in given else "egrad" if "egrad" in given else "missing"
    assert p.gradient_source == grad
    assert p.has_gradient() == (grad != "missing")


@pytest.mark.parametrize("given", COMBOS, ids=lambda g: "+".join(g) or "cost-only")
def test_trust_regions_fails_only_without_gradient(given):
    M, cost, fns = _sphere_callables([])
    p = ProblemDef(manifold=M, cost=cost, **{k: fns[k] for k in given})
    opts = SolverOptions(max_iter=5)
    if p.has_gradient():
        result = trust_regions(p, opts=opts, rng=np.random.default_rng(1))
        assert np.isfinite(result.cost_final)
    else:
        with pytest.raises(MissingDerivativeError):
            trust_regions(p, opts=opts, rng=np.random.default_rng(1))


def _fixed_rank_problem(calls):
    M = fixed_rank_factory(5, 4, 2)
    a = np.random.default_rng(8).standard_normal((5, 4))

    def egrad(x):
        calls.append("egrad")
        return x.to_dense() - a

    def ehess(x, u):
        calls.append("ehess")
        return x.u @ u.m @ x.v.T + u.up @ x.v.T + x.u @ u.vp.T

    def cost(x):
        return 0.5 * float(np.sum((x.to_dense() - a) ** 2))

    return ProblemDef(manifold=M, cost=cost, egrad=egrad, ehess=ehess)


def test_fixed_rank_ehess_takes_the_fd_route_and_says_why(monkeypatch, caplog):
    calls = []
    p = _fixed_rank_problem(calls)
    assert p.hessian_source == "fd-fallback"
    with caplog.at_level(logging.INFO, logger="riemopt.problem"):
        assert _route_taken(p, monkeypatch, calls) == "fd-fallback"
    assert "ehess" not in calls
    (msg,) = [r.getMessage() for r in caplog.records if "FD Hessian" in r.getMessage()]
    assert "has no exact ehess2rhess" in msg
    result = trust_regions(p, opts=SolverOptions(max_iter=5), rng=np.random.default_rng(2))
    assert np.isfinite(result.cost_final)


def test_fd_log_names_the_missing_egrad(caplog):
    M, cost, fns = _sphere_callables([])
    p = ProblemDef(manifold=M, cost=cost, rgrad=fns["rgrad"], ehess=fns["ehess"])
    x = M.rand_point(np.random.default_rng(3))
    store = Counters()
    with caplog.at_level(logging.INFO, logger="riemopt.problem"):
        hessian_at(p, x, store, new_token())(M.rand_tangent(x, np.random.default_rng(4)))
    (msg,) = [r.getMessage() for r in caplog.records if "FD Hessian" in r.getMessage()]
    assert "needs 'egrad'" in msg


def test_replace_decides_the_routes_anew():
    M, cost, fns = _sphere_callables([])
    p = ProblemDef(manifold=M, cost=cost, egrad=fns["egrad"])
    assert p.hessian_source == "fd-fallback"
    q = dataclasses.replace(p, ehess=fns["ehess"])
    assert (q.gradient_source, q.hessian_source) == ("egrad", "ehess")
    r = dataclasses.replace(p, egrad=None, rgrad=fns["rgrad"])
    assert (r.gradient_source, r.hessian_source) == ("rgrad", "fd-fallback")
