"""The hot primitives of the trust-region inner loop against the formulas
they replaced: every value must agree bit for bit, and the per-point egrad
and Hessian-conversion caches must change call counts only."""

import dataclasses
import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemopt import (
    ProblemDef,
    SolverOptions,
    elliptope_factory,
    euclidean_factory,
    fixed_rank_factory,
    get_gradient,
    hessian_at,
    oblique_factory,
    product_factory,
    rotations_factory,
    sphere_factory,
    stiefel_factory,
    tcg_subsolver,
    trust_regions,
)
from riemopt.exceptions import DegenerateStepError, DimensionMismatchError, RankCollapseError
from riemopt.problem import Counters, new_token
from riemopt.manifolds.base import (
    array_lincomb,
    check_shape,
    qr_positive,
    trace_inner,
    zero_step,
)
from riemopt.manifolds.fixed_rank import FixedRankPoint, FixedRankTangent
from riemopt.manifolds.spheres import _normalize_axis
from riemopt.maxcut import Graph, build_problem, laplacian, round_cut
from riemopt.solvers.trust_regions import (
    TCG_BOUNDARY,
    TCG_MAX_INNER,
    TCG_NEGATIVE_CURVATURE,
    TCG_RESIDUAL,
)

from _helpers import make_quadratic_problem, manifold_matrix, rayleigh_problem


def _pairs(rng):
    """(u, v) pairs of equal shape in several memory layouts."""
    for shape in [(7,), (20, 3), (45, 6), (120, 8), (4, 5, 3)]:
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        yield u, v
        if u.ndim == 2:
            yield u.T, v.T  # transposed views
            yield np.asfortranarray(u), v
            yield u[::2], v[::2]  # strided rows


def test_trace_inner_matches_tensordot_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        for u, v in _pairs(rng):
            old = float(np.tensordot(u, v, axes=u.ndim))
            assert trace_inner(u, u, v) == old
            assert trace_inner(u, v, u) == float(np.tensordot(v, u, axes=v.ndim))


@pytest.mark.parametrize("which", [0, 1])
def test_trace_inner_rejects_either_mismatched_tangent(which):
    x = np.zeros((4, 2))
    good, bad = np.ones((4, 2)), np.ones((2, 4))
    args = (good, bad) if which else (bad, good)
    tangent = ("first", "second")[which]
    with pytest.raises(DimensionMismatchError, match=f"inner: {tangent} tangent"):
        trace_inner(x, *args)


def test_check_shape_message_and_non_array_inputs():
    with pytest.raises(DimensionMismatchError, match=r"proj: expected shape \(3,\), got \(2,\)"):
        check_shape(np.zeros(3), np.zeros(2), "proj")
    check_shape([1.0, 2.0], np.zeros(2), "lists")  # np.shape semantics
    check_shape(3.0, np.float64(1.0), "scalars")
    with pytest.raises(DimensionMismatchError, match=r"expected shape \(2,\), got \(\)"):
        check_shape([1.0, 2.0], 5.0, "mixed")


def test_array_lincomb_unit_coefficient_is_exact():
    rng = np.random.default_rng(1)
    for u, v in _pairs(rng):
        for b in (0.0, -1.0, 0.37, 1e-300):
            out = array_lincomb(None, 1.0, u, b, v)
            assert np.array_equal(out, 1.0 * u + b * v)
            assert out is not u
        assert np.array_equal(array_lincomb(None, 1.0, u), 1.0 * u)


def test_fixed_rank_inner_matches_tensordot_sum():
    M = fixed_rank_factory(9, 7, 3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = M.rand_point(rng)
        u, v = M.rand_tangent(x, rng), M.rand_tangent(x, rng)
        old = float(
            np.tensordot(u.m, v.m, 2)
            + np.tensordot(u.up, v.up, 2)
            + np.tensordot(u.vp, v.vp, 2)
        )
        assert M.inner(x, u, v) == old


@pytest.mark.parametrize(
    "M, axis",
    [(oblique_factory(20, 6), 0), (elliptope_factory(40, 5), 1)],
    ids=["oblique", "elliptope"],
)
def test_row_and_column_sums_match_np_sum(M, axis):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = M.rand_point(rng)
        z, eg, eh = (M.rand_ambient(x, rng) for _ in range(3))
        u = M.proj(x, M.rand_ambient(x, rng))
        proj_old = z - x * np.sum(x * z, axis=axis, keepdims=True)
        assert np.array_equal(M.proj(x, z), proj_old)
        hess_old = (eh - x * np.sum(x * eh, axis=axis, keepdims=True)) - u * np.sum(
            x * eg, axis=axis, keepdims=True
        )
        assert np.array_equal(M.ehess2rhess(x, eg)(eh, u), hess_old)


# --- one egrad per point ------------------------------------------------------


def _counting_sphere_problem():
    M = sphere_factory(6)
    a = np.diag(np.arange(1.0, 7.0))
    calls = {"egrad": 0, "ehess": 0}

    def egrad(x):
        calls["egrad"] += 1
        return -2.0 * a @ x

    def ehess(x, u):
        calls["ehess"] += 1
        return -2.0 * a @ u

    p = ProblemDef(manifold=M, cost=lambda x: -float(x @ a @ x), egrad=egrad, ehess=ehess)
    return p, calls


def _hessians(with_token):
    p, calls = _counting_sphere_problem()
    rng = np.random.default_rng(4)
    store = Counters()
    values = []
    for _ in range(3):  # three points, five directions each
        x = p.manifold.rand_point(rng)
        tok = new_token() if with_token else None  # None: one-shot calls
        get_gradient(p, x, store, tok)
        for _ in range(5):
            values.append(hessian_at(p, x, store, tok)(p.manifold.rand_tangent(x, rng)))
    return values, calls


def test_egrad_runs_once_per_point_with_caching():
    values, calls = _hessians(with_token=True)
    assert calls == {"egrad": 3, "ehess": 15}


def test_egrad_runs_per_hessian_product_without_caching():
    values, calls = _hessians(with_token=False)
    assert calls == {"egrad": 3 + 15, "ehess": 15}


def test_hessian_values_do_not_depend_on_caching():
    on, _ = _hessians(with_token=True)
    off, _ = _hessians(with_token=False)
    assert all(np.array_equal(a, b) for a, b in zip(on, off))


def test_hessian_first_then_gradient_shares_egrad():
    p, calls = _counting_sphere_problem()
    store = Counters()
    x = p.manifold.rand_point(np.random.default_rng(5))
    tok = new_token()
    u = p.manifold.rand_tangent(x, np.random.default_rng(6))
    hessian_at(p, x, store, tok)(u)
    g = get_gradient(p, x, store, tok)
    assert calls["egrad"] == 1
    assert np.array_equal(g, p.manifold.egrad2rgrad(x, p.egrad(x)))


# --- the Hessian conversion, built once per point --------------------------------


def _sym(a):
    return (a + a.T) / 2.0


def _ehess2rhess_reference(M, x, egrad, ehess_u, u):
    """The four-argument conversions that the per-point operator replaced."""
    kind = M.name.split("(")[0]
    if kind == "Product":
        return tuple(
            _ehess2rhess_reference(c, xi, gi, hi, ui)
            for c, xi, gi, hi, ui in zip(PRODUCT_COMPONENTS[M.name], x, egrad, ehess_u, u)
        )
    if kind == "Euclidean":
        return np.asarray(ehess_u, dtype=float)
    if kind in ("Sphere", "Spectrahedron"):
        return M.proj(x, ehess_u) - u * trace_inner(x, x, egrad)
    if kind in ("Oblique", "Elliptope"):
        axis = 0 if kind == "Oblique" else 1
        return M.proj(x, ehess_u) - u * (x * egrad).sum(axis=axis, keepdims=True)
    if kind in ("Stiefel", "Rotations"):
        return M.proj(x, ehess_u - u @ _sym(x.T @ egrad))
    if kind == "Grassmann":
        return M.proj(x, ehess_u) - u @ (x.T @ egrad)
    raise AssertionError(f"no reference conversion for {M.name}")


# The products of manifold_matrix(), by name, with their components.
PRODUCT_COMPONENTS = {
    product_factory(comps).name: comps
    for comps in [
        [sphere_factory(3), euclidean_factory(2)],
        [stiefel_factory(4, 2), sphere_factory(5)],
        [oblique_factory(3, 2), rotations_factory(3)],
    ]
}
EXACT = [M for M in manifold_matrix() if M.ehess2rhess is not None]


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(ai, bi) for ai, bi in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("M", EXACT, ids=[M.name for M in EXACT])
def test_hessian_operator_matches_four_argument_formula(M):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = M.rand_point(rng)
        eg, eh = M.rand_ambient(x, rng), M.rand_ambient(x, rng)
        hess = M.ehess2rhess(x, eg)
        for _ in range(3):  # one operator, several directions
            u = M.proj(x, M.rand_ambient(x, rng))
            old = _ehess2rhess_reference(M, x, eg, eh, u)
            assert _same(hess(eh, u), old)
            assert _same(M.ehess2rhess(x, eg)(eh, u), old)


def _maxcut_problem(seed):
    rng = np.random.default_rng(seed)
    L = laplacian(_random_graph(40, 100, rng, weighted=True))
    p = build_problem(L, 4)
    return p, p.manifold.rand_point(rng)


def test_hessian_operator_built_once_per_tcg_call(monkeypatch):
    p, x0 = _maxcut_problem(9)
    built = []

    def counted(x, egrad):
        built.append(1)
        return p.manifold.ehess2rhess(x, egrad)

    p_counted = dataclasses.replace(
        p, manifold=dataclasses.replace(p.manifold, ehess2rhess=counted)
    )
    opts = SolverOptions(clock=lambda: 0.0)
    ref = trust_regions(p, x0, opts)

    inner = []  # inner iterations of each tCG call

    def counted_tcg(*args, **kwargs):
        out = tcg_subsolver(*args, **kwargs)
        inner.append(out[3])
        return out

    tr_module = importlib.import_module("riemopt.solvers.trust_regions")
    monkeypatch.setattr(tr_module, "tcg_subsolver", counted_tcg)
    res = trust_regions(p_counted, x0, opts)
    assert 0 < len(built) <= len(inner)
    assert res.counters == ref.counters
    # One product per inner step: this run rejects no step, so no tCG call
    # repeats a point and no stored product is read back.
    assert res.counters["hess_evals"] == sum(inner)
    assert np.array_equal(res.x_final, ref.x_final)


def _degenerate_once(p):
    """p whose first retraction raises DegenerateStepError."""
    raised = []

    def retract(x, u, t):
        if not raised:
            raised.append(1)
            raise DegenerateStepError("first retraction")
        return p.manifold.retract(x, u, t)

    return dataclasses.replace(p, manifold=dataclasses.replace(p.manifold, retract=retract))


@pytest.mark.parametrize("rerun", ["rejected", "degenerate"])
def test_tcg_rerun_at_the_same_point_computes_no_hessian_product(monkeypatch, rerun):
    # After a rejected step (or a retraction that raised), the tCG runs
    # again at the same point with a smaller radius and reads the products
    # of the first call back: a point's user ehess calls are the first
    # call's inner steps.
    p, x0 = _maxcut_problem(5)  # TR rejects 2 steps from x0
    if rerun == "degenerate":
        p = _degenerate_once(p)
    ehess_calls = []

    def ehess(y, u):
        ehess_calls.append(1)
        return p.ehess(y, u)

    calls = []  # (point, inner steps, user ehess calls) of each tCG call

    def counted_tcg(p_, x, *args, **kwargs):
        before = len(ehess_calls)
        out = tcg_subsolver(p_, x, *args, **kwargs)
        calls.append((x, out[3], len(ehess_calls) - before))
        return out

    tr_module = importlib.import_module("riemopt.solvers.trust_regions")
    monkeypatch.setattr(tr_module, "tcg_subsolver", counted_tcg)
    opts = SolverOptions(clock=lambda: 0.0)
    res = trust_regions(dataclasses.replace(p, ehess=ehess), x0, opts)
    first = {}  # the calls keep every point alive, so ids are not reused
    reruns = []  # user ehess calls of each later call at a point
    for x, inner, products in calls:
        if id(x) in first:
            reruns.append(products)
        else:
            first[id(x)] = inner
    assert reruns and not any(reruns)
    assert len(ehess_calls) == sum(first.values()) == res.counters["hess_evals"]


def test_tcg_reads_stored_products_back_bit_for_bit():
    # A call that reads the products of a call at a larger radius back
    # returns what a fresh call at its radius returns, and computes none.
    p, _ = rayleigh_problem(12, seed=21)
    M = p.manifold
    rng = np.random.default_rng(3)
    x_star = trust_regions(p, opts=SolverOptions(clock=lambda: 0.0), rng=rng).x_final
    points = [M.retract(x_star, M.rand_tangent(x_star, rng), 0.1) for _ in range(3)]
    points += [M.rand_point(rng) for _ in range(3)]
    stops = set()
    for x in points:
        tok = new_token()
        g = get_gradient(p, x, token=tok)
        tcg_subsolver(p, x, g, 1e6, token=tok)
        for delta in (1e3, 0.3, 1e-3):
            store = Counters()
            eta, h_eta, stop, inner = tcg_subsolver(p, x, g, delta, store=store, token=tok)
            eta_0, h_eta_0, stop_0, inner_0 = tcg_subsolver(p, x, g, delta)
            assert store.hess_evals == 0
            assert (stop, inner) == (stop_0, inner_0)
            assert np.array_equal(eta, eta_0)
            assert np.array_equal(h_eta, h_eta_0)
            stops.add(stop)
    assert stops == {TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE, TCG_RESIDUAL}


@pytest.mark.parametrize("cached", ["nothing", "a copy of g"])
def test_tcg_keeps_no_products_in_a_token_that_does_not_cache_g(cached):
    # Only a token whose cached gradient is the very g of the call gets the
    # products: the memo is keyed by the point and that gradient.
    p, _ = rayleigh_problem(12, seed=21)
    x = p.manifold.rand_point(np.random.default_rng(4))
    g = get_gradient(p, x)
    tok = new_token()
    if cached == "a copy of g":
        assert np.array_equal(get_gradient(p, x, token=tok), g)
    evals = []
    for _ in range(2):
        store = Counters()
        tcg_subsolver(p, x, g, 1e-3, store=store, token=tok)
        evals.append(store.hess_evals)
    assert "tcg_products" not in tok
    assert evals[0] == evals[1] > 0  # the rerun computes its products again
    same = new_token()
    g_same = get_gradient(p, x, token=same)
    store = Counters()
    for _ in range(2):
        tcg_subsolver(p, x, g_same, 1e-3, store=store, token=same)
    assert len(same["tcg_products"]) == store.hess_evals == evals[0]


def test_tcg_identity_preconditioner_matches_none():
    # Without a preconditioner one <r, r> serves as both ||r||^2 and <r, z>.
    cases = [rayleigh_problem(12, seed=21), _maxcut_problem(23)]
    stops = set()
    for p, _ in cases:
        M = p.manifold
        p_id = dataclasses.replace(p, precond=lambda x, u: u)
        rng = np.random.default_rng(24)
        for delta in (1e-3, 0.3, 10.0):
            for _ in range(3):
                x = M.rand_point(rng)
                g = get_gradient(p, x)
                eta, h_eta, stop, inner = tcg_subsolver(p, x, g, delta)
                eta_id, h_eta_id, stop_id, inner_id = tcg_subsolver(p_id, x, g, delta)
                assert (stop, inner) == (stop_id, inner_id)
                assert np.array_equal(eta, eta_id)
                assert np.array_equal(h_eta, h_eta_id)
                stops.add(stop)
    assert len(stops) >= 2


# --- the tCG's dense-array algebra against its generic one ---------------------

DENSE = [M for M in manifold_matrix() if M.inner is trace_inner and M.lincomb is array_lincomb]


def _generic(p):
    """p with its manifold's inner wrapped, as the benchmark's tracer wraps
    it (``dataclasses.replace``): the tCG then takes its generic algebra."""
    M = p.manifold
    inner = M.inner
    return dataclasses.replace(
        p, manifold=dataclasses.replace(M, inner=lambda x, u, v: inner(x, u, v))
    )


def _diagonal_precond(M, seed):
    """Tangent projection of a positive diagonal scaling: symmetric and
    positive definite on each tangent space of an embedded manifold."""
    w = 1.0 + np.random.default_rng(seed).random(np.shape(M.rand_point(np.random.default_rng(0))))

    def precond(x, u):
        return M.proj(x, w * u)

    return precond


def _token_pair(p, x):
    """A token of x for p and one for ``_generic(p)``, each caching the
    gradient at x (the same bits), so the tCG keeps its products there."""
    pair = (new_token(), new_token())
    for q, tok in zip((p, _generic(p)), pair):
        get_gradient(q, x, token=tok)
    return pair


def _loops_agree(p, x, delta, tokens):
    """One tCG call on each algebra, each given its token and the gradient
    that token caches; both must agree bit for bit, stored products too."""
    out = []
    for q, tok in zip((p, _generic(p)), tokens):
        store = Counters()
        g = get_gradient(q, x, token=tok)
        eta, h_eta, stop, inner = tcg_subsolver(q, x, g, delta, store=store, token=tok)
        out.append((eta, h_eta, stop, inner, store.hess_evals))
    (eta, h_eta, *rest), (eta_g, h_eta_g, *rest_g) = out
    assert rest == rest_g
    assert np.array_equal(eta, eta_g)
    assert np.array_equal(h_eta, h_eta_g)
    a, b = (tok["tcg_products"] for tok in tokens)
    assert len(a) == len(b)
    assert all(np.array_equal(ha, hb) and da == db for (ha, da), (hb, db) in zip(a, b))
    return rest[0], rest[2]


@pytest.mark.parametrize("precond", [False, True], ids=["plain", "precond"])
@pytest.mark.parametrize("M", DENSE, ids=[M.name for M in DENSE])
def test_tcg_array_loop_matches_generic_loop(M, precond, monkeypatch):
    # Only the dense-array algebra calls the module's check_shape, and it
    # checks g once per call; the wrapped inner of ``_generic`` rules that
    # algebra out, so one check of g per pair of calls shows that the
    # unwrapped call took it.
    tr_module = importlib.import_module("riemopt.solvers.trust_regions")
    checked = []

    def spy(x, u, what, _check=tr_module.check_shape):
        checked.append(what)
        _check(x, u, what)

    monkeypatch.setattr(tr_module, "check_shape", spy)

    p = make_quadratic_problem(M, seed=3)
    if precond:
        p = dataclasses.replace(p, precond=_diagonal_precond(M, 4))
    rng = np.random.default_rng(5)
    x_star = trust_regions(p, opts=SolverOptions(clock=lambda: 0.0), rng=rng).x_final
    stops = set()
    for x in [M.retract(x_star, M.rand_tangent(x_star, rng), 0.1), M.rand_point(rng)]:
        g_before = get_gradient(p, x).copy()
        for delta in (10.0 * M.typical_dist, M.typical_dist / 8.0, 1e-3):
            tokens = _token_pair(p, x)
            checked.clear()
            stop, hess_evals = _loops_agree(p, x, delta, tokens)
            assert hess_evals == len(tokens[0]["tcg_products"]) > 0
            assert checked.count("inner: first tangent") == 1
            stops.add(stop)
            # A rerun at delta / 4 reads the stored products back.
            checked.clear()
            stop, hess_evals = _loops_agree(p, x, delta / 4.0, tokens)
            assert hess_evals == 0
            assert checked.count("inner: first tangent") == 1
            assert all(np.array_equal(t["grad"], g_before) for t in tokens)
    assert stops & {TCG_RESIDUAL, TCG_MAX_INNER} and TCG_BOUNDARY in stops


@pytest.mark.parametrize("precond", [None, "identity", "diagonal"])
def test_tcg_array_loop_with_a_hessian_that_returns_its_input(precond):
    # The identity ehess on Euclidean space: every product is the direction
    # d itself, so the loop must never write into d.  A non-scalar
    # preconditioner makes the CG take several steps.
    M = euclidean_factory(6)
    a = np.random.default_rng(6).standard_normal(6)
    p = ProblemDef(manifold=M, cost=lambda x: 0.5 * float(x @ x) - float(a @ x),
                   egrad=lambda x: x - a, ehess=lambda x, u: u)
    if precond == "identity":
        p = dataclasses.replace(p, precond=lambda x, u: u)
    elif precond == "diagonal":
        p = dataclasses.replace(p, precond=_diagonal_precond(M, 7))
    x = M.rand_point(np.random.default_rng(8))
    store = Counters()
    tok = new_token()
    g = get_gradient(p, x, store, tok)
    g_before = g.copy()
    steps = []
    for delta in (1e3, 1e-2):
        tokens = _token_pair(p, x)
        _loops_agree(p, x, delta, tokens)
        _loops_agree(p, x, delta / 4.0, tokens)
        steps.append(len(tokens[0]["tcg_products"]))
        assert all(np.array_equal(t["grad"], g_before) for t in tokens)
    assert steps[1] == 1  # the boundary
    assert (steps[0] > 1) == (precond == "diagonal")
    tcg_subsolver(p, x, g, 1e3, store=store, token=tok)
    assert np.array_equal(g, g_before)
    assert tok["grad"] is g and np.array_equal(get_gradient(p, x, store, tok), g_before)


@pytest.mark.parametrize("loop", ["arrays", "generic"])
@pytest.mark.parametrize("which", ["rhess", "ehess", "precond"])
@pytest.mark.parametrize(
    "M",
    [sphere_factory(4), euclidean_factory(4), stiefel_factory(6, 2), rotations_factory(3)],
    ids=lambda M: M.name,
)
@pytest.mark.parametrize("shape", ["longer", "broadcast"])
def test_tcg_rejects_a_wrong_shaped_product(M, which, loop, shape):
    # One more row, or a single row that broadcasts against the point.
    n, *rest = np.shape(M.rand_point(np.random.default_rng(0)))
    shape = (n + 1 if shape == "longer" else 1, *rest)
    p = make_quadratic_problem(M, seed=1)
    if which == "precond":
        p = dataclasses.replace(p, precond=lambda x, u: np.ones(shape))
    else:
        p = dataclasses.replace(p, **{"rhess": None, "ehess": None, which: lambda x, u: np.ones(shape)})
    if loop == "generic":
        p = _generic(p)
    x = M.rand_point(np.random.default_rng(2))
    g = get_gradient(p, x)
    with pytest.raises(DimensionMismatchError):
        tcg_subsolver(p, x, g, 1.0)


EXACT = [M for M in manifold_matrix() if make_quadratic_problem(M).has_exact_hessian()]


@pytest.mark.parametrize("M", EXACT, ids=[M.name for M in EXACT])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), log_delta=st.floats(-4.0, 2.0),
       max_inner=st.integers(1, 60))
def test_tcg_step_stays_in_the_region_and_decreases_the_model(M, seed, log_delta, max_inner):
    # Steihaug-Toint: eta lies in the trust region, the model does not rise
    # above its value at 0, and the H eta that the tCG accumulates is the
    # Hessian applied to eta.
    p = make_quadratic_problem(M, seed=seed)
    x = M.rand_point(np.random.default_rng(seed))
    g = get_gradient(p, x)
    delta = 10.0**log_delta * M.typical_dist
    eta, h_eta, _, _ = tcg_subsolver(p, x, g, delta, SolverOptions(max_inner=max_inner))
    assert M.norm(x, eta) <= delta * (1.0 + 1e-12)
    assert M.inner(x, g, eta) + 0.5 * M.inner(x, eta, h_eta) <= 0.0
    h_eta_exact = hessian_at(p, x)(eta)
    scale = max(1.0, M.norm(x, h_eta_exact))
    assert M.norm(x, M.lincomb(x, 1.0, h_eta, -1.0, h_eta_exact)) <= 1e-12 * scale


# --- QR kernel ------------------------------------------------------------------


def _qr_positive_reference(a):
    """The np.linalg.qr body that qr_positive replaced."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r)).copy()
    d[d == 0] = 1.0
    return q * d, r * d[:, None]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _qr_inputs(rng):
    for shape in [(10, 4), (50, 3), (6, 1), (4, 4), (1, 1), (3, 5)]:
        a = rng.standard_normal(shape)
        yield a
        yield np.asfortranarray(a)
        yield a.T  # a transposed view: wide becomes tall
    a = rng.standard_normal((10, 4))
    a[:, 2] = 0.0  # a zero column puts a zero on R's diagonal
    yield a
    yield np.zeros((5, 3))
    yield np.array([[1.0, -0.0], [0.0, -0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        a = rng.standard_normal((6, 3))
        a[2, 1] = bad
        yield a
    yield rng.integers(-5, 5, size=(7, 3))  # promoted to float, as numpy does


def test_qr_positive_matches_numpy_qr_bit_for_bit():
    rng = np.random.default_rng(11)
    for a in _qr_inputs(rng):
        before = a.copy()
        q_ref, r_ref = _qr_positive_reference(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN and inf entries included
            q, r = qr_positive(a, with_r=True)
            q_only = qr_positive(a)
        assert _same_bits(q, q_ref) and _same_bits(r, r_ref)
        assert _same_bits(q_only, q_ref)
        # The LAPACK call overwrites its argument: the caller's array must
        # not be the one it gets.
        assert _same_bits(a, before)


def test_qr_positive_diagonal_signs_are_positive():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 3))
    q, r = qr_positive(a, with_r=True)
    assert np.all(np.diagonal(r) > 0)
    assert np.allclose(q @ r, a) and np.allclose(q.T @ q, np.eye(3))


# --- fixed-rank and normalization retractions -------------------------------------


def _fixed_rank_retract_reference(k, x, u, t):
    """The fixed-rank retraction body that np.concatenate, qr_positive's
    cached mask and the direct diagonal replaced: R by np.triu (inside
    np.linalg.qr), blocks joined by np.hstack, S by np.diag."""
    qu, ru = _qr_positive_reference(u.up)
    qv, rv = _qr_positive_reference(u.vp)
    core = np.zeros((2 * k, 2 * k))
    core[:k, :k] = x.s + t * u.m
    core[:k, k:] = t * rv.T
    core[k:, :k] = t * ru
    us, sv, vts = np.linalg.svd(core)
    if sv[k - 1] < 1e-14:
        return None
    left = np.hstack([x.u, qu]) @ us[:, :k]
    right = np.hstack([x.v, qv]) @ vts[:k].T
    return FixedRankPoint(u=left, s=np.diag(sv[:k]), v=right)


def _fixed_rank_tangents(x, u):
    yield u
    yield FixedRankTangent(m=u.m, up=np.zeros_like(u.up), vp=u.vp)
    yield FixedRankTangent(m=u.m, up=u.up, vp=np.zeros_like(u.vp))
    yield FixedRankTangent(m=np.zeros_like(u.m), up=u.up, vp=u.vp)
    yield FixedRankTangent(m=-x.s, up=np.zeros_like(u.up), vp=np.zeros_like(u.vp))


# k = min(m, n) leaves no room for Up (k = m) or Vp (k = n): those blocks
# are zero in every tangent.
@pytest.mark.parametrize("m, n, k", [(8, 6, 2), (5, 4, 2), (6, 6, 3), (3, 7, 1),
                                     (4, 4, 4), (5, 3, 3), (3, 6, 3)])
def test_fixed_rank_retract_matches_the_reference_bit_for_bit(m, n, k):
    M = fixed_rank_factory(m, n, k)
    rng = np.random.default_rng(100 * m + 10 * n + k)
    collapses = 0
    for _ in range(4):
        x = M.rand_point(rng)
        for u in _fixed_rank_tangents(x, M.rand_tangent(x, rng)):
            for t in (1.0, 0.3, -0.7, 2.5):
                expected = _fixed_rank_retract_reference(k, x, u, t)
                if expected is None:
                    collapses += 1
                    with pytest.raises(RankCollapseError):
                        M.retract(x, u, t)
                    continue
                y = M.retract(x, u, t)
                assert all(_same_bits(getattr(y, f), getattr(expected, f)) for f in "usv")
    assert collapses >= 4  # at least the -S tangent at t = 1, at each point


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_fixed_rank_retract_along_a_non_finite_tangent_raises(bad, sparse):
    # np.linalg.svd raises this on NaN; on inf it returns NaN factors, or,
    # when the core is S + t M with zeros elsewhere (Up = Vp = 0), never
    # returns.
    M = fixed_rank_factory(8, 6, 2)
    rng = np.random.default_rng(18)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    m = u.m.copy()
    m[0, 0] = bad
    if sparse:
        u = FixedRankTangent(m=m, up=np.zeros((8, 2)), vp=np.zeros((6, 2)))
    else:
        u = FixedRankTangent(m=m, up=u.up, vp=u.vp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            M.retract(x, u, 1.0)


def test_fixed_rank_tangent_is_read_only_once_factored():
    # Its QR factors are kept, so a write into Up or Vp would leave them stale.
    M = fixed_rank_factory(8, 6, 2)
    rng = np.random.default_rng(20)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    u.up[0, 0] += 0.0  # writable until the first retraction
    M.retract(x, u, 0.5)
    for block in (u.up, u.vp):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0


def test_fixed_rank_tangent_factors_once_for_every_t(monkeypatch):
    fr = importlib.import_module("riemopt.manifolds.fixed_rank")
    calls = []

    def counted(a, with_r=False):
        calls.append(a.shape)
        return qr_positive(a, with_r)

    monkeypatch.setattr(fr, "qr_positive", counted)
    M = fixed_rank_factory(8, 6, 2)
    rng = np.random.default_rng(16)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    for t in np.logspace(-8, 0, 26):
        M.retract(x, u, t)
    assert calls == [(8, 2), (6, 2)]
    # A new tangent (here from lincomb) factors its own blocks.
    M.retract(x, M.lincomb(x, 0.5, u), 1.0)
    assert len(calls) == 4


def test_fixed_rank_retract_does_not_depend_on_earlier_retractions():
    # A tangent already retracted at other t gives the bits of a fresh copy.
    M = fixed_rank_factory(8, 6, 2)
    rng = np.random.default_rng(17)
    for _ in range(3):
        x = M.rand_point(rng)
        u = M.rand_tangent(x, rng)
        for t in (1e-8, 1e-3, 0.3, 1.0, -0.7, 2.5):
            y = M.retract(x, u, t)
            fresh = FixedRankTangent(m=u.m.copy(), up=u.up.copy(), vp=u.vp.copy())
            y_fresh = M.retract(x, fresh, t)
            assert all(_same_bits(getattr(y, f), getattr(y_fresh, f)) for f in "usv")


def _normalize_reference(y, axis):
    """The np.linalg.norm body that _normalize_axis replaced; None where it
    raised DegenerateStepError."""
    norms = np.linalg.norm(y, axis=axis, keepdims=True)
    if np.min(norms) < 1e-14:
        return None
    return y / norms


def _slice_of(y, axis, i):
    """Index of the i-th slice that _normalize_axis normalizes on its own."""
    return (slice(None),) * (y.ndim - 1 - axis) + (i,)


def _normalize_inputs(rng):
    for shape, axis in [((40,), None), ((1,), None), ((10, 3), None), ((12, 3), 1),
                        ((8, 6), 0), ((8, 6), 1)]:
        y = rng.standard_normal(shape)
        yield y, axis
        if y.ndim == 2:
            yield y.T, axis
            # A Fortran-order array sums in memory order, as np.linalg.norm
            # does (np.vdot would sum in C order): several draws, since the
            # two orders often round alike.
            for _ in range(10):
                yield np.asfortranarray(rng.standard_normal(shape)), axis
        for bad in (0.0, -0.0, np.nan, 1e-300, 1e200):
            z = y.copy()
            if axis is None:
                z[...] = bad  # the whole array is the one slice
            else:
                z[_slice_of(y, axis, 1)] = bad
            yield z, axis
            if bad == bad and axis is not None:
                w = z.copy()  # a NaN slice hides the bad one from min
                w[_slice_of(y, axis, 0)] = np.nan
                yield w, axis


def test_normalize_axis_matches_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    for y, axis in _normalize_inputs(rng):
        with np.errstate(all="ignore"):  # 0 / 0 and overflow, on both sides
            expected = _normalize_reference(y, axis)
            if expected is None:
                with pytest.raises(DegenerateStepError, match="near-"):
                    _normalize_axis(y, axis, "test")
                continue
            got = _normalize_axis(y, axis, "test")
        assert _same_bits(got, expected)


@pytest.mark.parametrize(
    "u", [np.zeros((3, 2)), np.full((3, 2), -0.0), np.array([[0.0, np.nan]]),
          np.array([1e-300, 0.0]), np.array([np.inf])],
    ids=["zeros", "negative-zeros", "nan", "tiny", "inf"],
)
def test_zero_step_has_the_truth_value_of_np_any(u):
    assert zero_step(u, 1.0) == (not np.any(u))
    assert zero_step(u, 0) and zero_step(u, 0.0)


# --- batched rounding -----------------------------------------------------------


def _round_cut_reference(L, Y, trials, rng):
    """The per-trial loop that round_cut replaced."""
    r = Y.shape[1]
    best_s, best_val = None, -np.inf
    for _ in range(trials):
        z = rng.standard_normal(r)
        s = np.where(Y @ z >= 0, 1.0, -1.0)
        val = float(s @ L @ s) / 4.0
        if val > best_val:
            best_val, best_s = val, s
    return best_s, best_val


def _random_graph(n, m, rng, weighted):
    pairs = set()
    while len(pairs) < m:
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            pairs.add((int(min(i, j)), int(max(i, j))))
    weights = rng.integers(1, 10, size=m) if weighted else np.ones(m)
    return Graph.from_edges(n, [(i, j, float(w)) for (i, j), w in zip(sorted(pairs), weights)])


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_round_cut_matches_per_trial_loop(weighted):
    rng = np.random.default_rng(7)
    for n, r, trials in [(6, 2, 1), (20, 3, 100), (60, 5, 100), (90, 8, 37)]:
        L = laplacian(_random_graph(n, 2 * n, rng, weighted))
        Y = elliptope_factory(n, r).rand_point(rng)
        seed = int(rng.integers(2**31))
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        s_new, val_new = round_cut(L, Y, trials, rng_new)
        s_old, val_old = _round_cut_reference(L, Y, trials, rng_old)
        assert np.array_equal(s_new, s_old)
        assert val_new == val_old
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
