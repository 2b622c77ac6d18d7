"""Acceptance suite: seven end-to-end criteria, each printing a single
PASS/FAIL line with its runtime (run pytest with -s to see them)."""

import json
import math
import time

import numpy as np
import pytest

from riemopt import (
    ProblemDef,
    SolverOptions,
    check_gradient,
    check_hessian,
    conjugate_gradient,
    sphere_factory,
    steepest_descent,
    stiefel_factory,
    trust_regions,
)
from riemopt.exceptions import DegenerateStepError, RankCollapseError
from riemopt.maxcut import (
    Graph,
    brute_force_max_cut,
    build_problem,
    laplacian,
    rank_escalation,
    run_cli,
)

from _helpers import (
    CountingMatrix,
    dense_point,
    dense_tangent,
    make_quadratic_problem,
    manifold_matrix,
    rayleigh_problem,
    solver_matrix_manifolds,
    tree_inner,
    tree_sub,
)


def _report(num, ok, label, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {status}: {label} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"acceptance criterion {num} failed: {label}"


def _err(a, b):
    d = tree_sub(a, b)
    return math.sqrt(tree_inner(d, d))


# --- 1. manifold invariant suite (10 factories x 3 sizes, < 10 s) -----------


def test_acceptance_1_manifold_invariants():
    t0 = time.perf_counter()
    ok = True
    for M in manifold_matrix():
        rng = np.random.default_rng(1)
        x = M.rand_point(rng)
        ok &= M.constraint_violation(x) <= 1e-12
        # projection idempotence
        z = M.rand_ambient(x, rng)
        v = M.proj(x, z)
        vd = dense_tangent(x, v)
        w = M.proj(x, vd)
        scale = max(1.0, math.sqrt(tree_inner(vd, vd)))
        ok &= _err(dense_tangent(x, w), vd) <= 1e-12 * scale
        # retraction axioms
        zero = M.zero_tangent(x)
        ok &= _err(dense_point(M.retract(x, zero, 1.0)), dense_point(x)) == 0.0
        if M.dim > 0:
            u = M.rand_tangent(x, rng)
            xd, ud = dense_point(x), dense_tangent(x, u)

            def lin_err(t):
                moved = dense_point(M.retract(x, u, t))
                lin = _tree_axpy(xd, ud, t)
                return _err(moved, lin)

            e3, e4 = lin_err(1e-3), lin_err(1e-4)
            ok &= e3 < 1e-14 or e3 / max(e4, 1e-300) >= 50.0
            # constraint preservation over 100 steps
            y = x
            for _ in range(100):
                uu = M.rand_tangent(y, rng)
                try:
                    y = M.retract(y, uu, 0.3 * rng.random() + 1e-3)
                except (DegenerateStepError, RankCollapseError):
                    continue
                ok &= M.constraint_violation(y) <= 1e-12
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 10.0, "manifold invariant suite (30 descriptors)", t0)


def _tree_axpy(a, b, t):
    if isinstance(a, tuple):
        return tuple(_tree_axpy(ac, bc, t) for ac, bc in zip(a, b))
    return a + t * b


# --- 2. derivative-check soundness (< 5 s) -----------------------------------


def test_acceptance_2_derivative_checks():
    t0 = time.perf_counter()
    ok = True

    # correct derivatives pass
    p, _ = rayleigh_problem(8, seed=0)
    g_rep = check_gradient(p, rng=np.random.default_rng(1))
    h_rep = check_hessian(p, rng=np.random.default_rng(2))
    ok &= g_rep.verdict and 1.8 <= g_rep.fitted_slope <= 2.2
    ok &= h_rep.verdict and 1.8 <= h_rep.fitted_slope <= 2.2
    p_mc = build_problem(laplacian(Graph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])), 2)
    ok &= check_gradient(p_mc, rng=np.random.default_rng(3)).verdict
    ok &= check_hessian(p_mc, rng=np.random.default_rng(4)).verdict

    # corruption 1: scaled gradient
    M = sphere_factory(8)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2
    p_bad = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), egrad=lambda x: -1.8 * a @ x
    )
    ok &= not check_gradient(p_bad, rng=np.random.default_rng(6)).verdict

    # corruption 2: transposed-term Hessian (slope-invisible, symmetry-visible)
    from riemopt import euclidean_factory

    b = rng.standard_normal((6, 6)) + 10 * np.eye(6)
    p_asym = ProblemDef(
        manifold=euclidean_factory(6),
        cost=lambda x: 0.5 * float(x @ b @ x),
        egrad=lambda x: 0.5 * (b + b.T) @ x,
        ehess=lambda x, u: b.T @ u,
    )
    ok &= not check_hessian(p_asym, rng=np.random.default_rng(7)).verdict

    # corruption 3: non-tangent gradient (radial component kept)
    p_rad = ProblemDef(
        manifold=M, cost=lambda x: -float(x @ a @ x), rgrad=lambda x: -2.0 * a @ x
    )
    rep = check_gradient(p_rad, rng=np.random.default_rng(8))
    ok &= (not rep.verdict) and rep.tangency_residual > 1e-8

    # corruption 4: Hessian 1 % off on a first-order (QR) retraction
    st = make_quadratic_problem(stiefel_factory(5, 2), seed=9)
    p_st = ProblemDef(
        manifold=st.manifold, cost=st.cost, egrad=st.egrad,
        ehess=lambda x, u: 1.01 * st.ehess(x, u),
    )
    ok &= not check_hessian(p_st, rng=np.random.default_rng(10)).verdict

    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, "derivative checks: correct pass, 4 corruptions detected", t0)


# --- 3. Rayleigh-quotient oracle on sphere(50) (< 30 s) ----------------------


def test_acceptance_3_rayleigh_oracle():
    t0 = time.perf_counter()
    ok = True
    for seed in range(10):
        p, a = rayleigh_problem(50, seed=100 + seed)
        res = trust_regions(
            p,
            rng=np.random.default_rng(seed),
            opts=SolverOptions(tol_grad_norm=1e-12, min_iter=0, max_iter=100),
        )
        lam_max = float(np.linalg.eigvalsh(a)[-1])
        ok &= abs(res.cost_final - (-lam_max)) <= 1e-8
        ok &= res.grad_norm_final <= 1e-6
        ok &= res.history[-1].iteration <= 100
        # local quadratic convergence: log-log contraction slope >= 1.8 on
        # the final pairs above the machine-precision floor
        g = [r.grad_norm for r in res.history]
        pairs = [
            (x, y) for x, y in zip(g, g[1:]) if x < 1e-3 and y > 1e-13
        ]
        ok &= len(pairs) >= 1
        ok &= all(math.log(y) / math.log(x) >= 1.8 for x, y in pairs)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 30.0, "RTR Rayleigh oracle, 10 random 50x50 instances", t0)


# --- 4. max-cut oracle equivalence on the corpus (< 60 s) --------------------


def _corpus():
    k3 = Graph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    c4 = Graph.from_edges(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])
    c5 = Graph.from_edges(5, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0)])
    k5 = Graph.from_edges(5, [(i, j, 1.0) for i in range(1, 6) for j in range(i + 1, 6)])
    petersen = Graph.from_edges(
        10,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0),
         (1, 6, 1.0), (2, 7, 1.0), (3, 8, 1.0), (4, 9, 1.0), (5, 10, 1.0),
         (6, 8, 1.0), (8, 10, 1.0), (7, 10, 1.0), (7, 9, 1.0), (6, 9, 1.0)],
    )
    graphs = [("K3", k3), ("C4", c4), ("C5", c5), ("K5", k5), ("Petersen", petersen)]
    for seed in (101, 102, 103):
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, 1.0)
            for i in range(1, 9)
            for j in range(i + 1, 9)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(8, edges)
        L = laplacian(g)
        assert np.linalg.eigvalsh(L)[1] > 1e-9, f"ER seed {seed} not connected"
        graphs.append((f"ER8-{seed}", g))
    return graphs


def _is_bipartite(g: Graph) -> bool:
    color = {}
    adj = {i: [] for i in range(1, g.n + 1)}
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    for start in range(1, g.n + 1):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_acceptance_4_maxcut_oracle():
    t0 = time.perf_counter()
    ok = True
    for name, g in _corpus():
        L = laplacian(g)
        res = rank_escalation(L, rng=np.random.default_rng(42), trials=1000)
        exact, _ = brute_force_max_cut(g)
        ok &= res.certified
        ok &= res.cut_value <= exact + 1e-9
        ok &= res.upper_bound is not None and exact <= res.upper_bound + 1e-6
        if _is_bipartite(g):
            # relaxation is tight on bipartite graphs: rounding must find it
            ok &= abs(res.cut_value - exact) <= 1e-6
        if not ok:
            print(f"  corpus failure on {name}")
            break
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 60.0, "max-cut corpus vs brute force (8 graphs)", t0)


# --- 5. caching fidelity ------------------------------------------------------


def test_acceptance_5_caching_fidelity():
    t0 = time.perf_counter()
    L = laplacian(_corpus()[3][1])  # K5

    def run(shared):
        CountingMatrix.products = 0
        p = build_problem(L.view(CountingMatrix), 3)
        if not shared:
            # The same callables without the scratch parameter: the cost
            # and the gradient then take one product with L each.
            cost, egrad = p.cost, p.egrad
            p = ProblemDef(manifold=p.manifold, cost=lambda y: cost(y, {}),
                           egrad=lambda y: egrad(y, {}), ehess=p.ehess)
        x0 = p.manifold.rand_point(np.random.default_rng(0))
        res = trust_regions(p, x0=x0, opts=SolverOptions(clock=lambda: 0.0))
        return res, CountingMatrix.products

    res_on, cnt_on = run(True)
    res_off, cnt_off = run(False)

    # bit-for-bit identical trajectories
    ok = len(res_on.history) == len(res_off.history)
    ok &= all(a == b for a, b in zip(res_on.history, res_off.history))
    ok &= bool(np.array_equal(res_on.x_final, res_off.x_final))

    # multiply accounting: the point's cache entry keeps its egrad, which the
    # gradient and the Hessian conversion share; the scratch dict lets the
    # cost share that LY too, so a point costs one LY instead of two.
    c_on, c_off = res_on.counters, res_off.counters
    ok &= c_on == c_off
    ok &= cnt_on == c_on["cost_evals"] + c_on["hess_evals"]
    ok &= cnt_off == c_off["cost_evals"] + c_off["grad_evals"] + c_off["hess_evals"]
    ok &= c_off["grad_evals"] > 0
    _report(5, ok, "caching: identical results, LY multiplies 2 -> 1 per point", t0)


# --- 6. determinism: byte-identical JSON and CSV ------------------------------


def test_acceptance_6_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    graph = tmp_path / "k3.txt"
    graph.write_text("1 2\n2 3\n1 3\n")

    outs, csvs = [], []
    for run in range(2):
        hist = tmp_path / f"hist{run}.csv"
        code = run_cli(
            ["solve", "--graph", str(graph), "--escalate", "--seed", "9",
             "--out", "json", "--timing", "none", "--history", str(hist)]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
        csvs.append(hist.read_bytes())

    ok = outs[0] == outs[1] and csvs[0] == csvs[1]
    fields = json.loads(outs[0])
    ok &= fields["certified"] is True and fields["time_seconds"] == 0.0
    with capsys.disabled():
        _report(6, ok, "identical seeds give byte-identical JSON and CSV", t0)


# --- 7. solver/manifold composition matrix ------------------------------------


@pytest.mark.parametrize(
    "solver", [steepest_descent, conjugate_gradient, trust_regions],
    ids=["sd", "cg", "tr"],
)
def test_acceptance_7_solver_matrix(solver):
    t0 = time.perf_counter()
    ok = True
    for M in solver_matrix_manifolds():
        for seed in (0, 1, 2):
            p = make_quadratic_problem(M, seed=seed)
            opts = SolverOptions(tol_grad_norm=1e-4, max_iter=2000, min_iter=0)
            res = solver(p, rng=np.random.default_rng(seed + 10), opts=opts)
            if res.grad_norm_final > 1e-4:
                print(f"  {solver.__name__} stalled on {M.name} seed {seed} "
                      f"(grad {res.grad_norm_final:.2e})")
                ok = False
    _report(7, ok, f"{solver.__name__} on 10 manifolds x 3 costs to 1e-4", t0)
