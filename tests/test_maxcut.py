"""Max-cut application: graph parsing, Laplacians, the relaxation problem,
rounding, dual certification, rank escalation, and the CLI."""

import contextlib
import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemopt import SolverOptions, check_gradient, check_hessian, get_cost, get_gradient
from riemopt.maxcut import (
    CutResult,
    Graph,
    brute_force_max_cut,
    build_problem,
    certify,
    cut_value_from_edges,
    cut_value_from_signs,
    laplacian,
    load_graph,
    rank_escalation,
    round_cut,
    run_cli,
    solve_rank_r,
)
from riemopt.maxcut import solve as maxcut_solve
from riemopt.maxcut.solve import next_rank
from riemopt.problem import Counters, new_token
from riemopt.solvers import RunResult

from _helpers import CountingMatrix


def k3():
    return Graph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])


def c4():
    return Graph.from_edges(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)])


def k5():
    edges = [(i, j, 1.0) for i in range(1, 6) for j in range(i + 1, 6)]
    return Graph.from_edges(5, edges)


# --- parsing -----------------------------------------------------------------


def test_load_graph_basic(tmp_path):
    f = tmp_path / "k3.txt"
    f.write_text("1 2\n2 3\n1 3\n")
    g = load_graph(f)
    assert g.n == 3
    assert g.edges == [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    np.testing.assert_allclose(laplacian(g), 3.0 * np.eye(3) - np.ones((3, 3)))


def test_load_graph_header_and_weights(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("p 5 2\n1 2 3.5\n4 5 1.0\n")
    g = load_graph(f)
    assert g.n == 5
    assert g.edges == [(1, 2, 3.5), (4, 5, 1.0)]


def test_load_graph_comments_blank_and_duplicates(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# a triangle\n\n1 2 0.5\n2 1 0.5  # duplicate, summed\n2 3\n1 3\n")
    g = load_graph(f)
    assert laplacian(g)[0, 1] == -1.0


def test_load_graph_self_loop_line_number(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\n1 1 2.0\n")
    with pytest.raises(ValueError, match=r":2: self-loop"):
        load_graph(f)


def test_load_graph_malformed_and_negative(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 two\n")
    with pytest.raises(ValueError, match=":1:"):
        load_graph(f)
    f.write_text("1 2 -3\n")
    with pytest.raises(ValueError, match="negative weight"):
        load_graph(f)
    f.write_text("p 2 1\n1 5\n")
    with pytest.raises(ValueError, match="header declares"):
        load_graph(f)
    f.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no nodes"):
        load_graph(f)
    for text, message in [
        ("p 3 1\np 3 1\n1 2\n", ":2: duplicate header line"),
        ("p\n1 2\n", ":1: malformed header"),
        ("p three 1\n", ":1: malformed header"),
        ("p 0 0\n", ":1: nonpositive node count"),
        ("1 2\n1 2 3 4\n", ":2: malformed edge line"),
        ("1\n", ":1: malformed edge line"),
        ("1 2\n0 2\n", ":2: nonpositive node index"),
        ("2 -1\n", ":1: nonpositive node index"),
    ]:
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_graph(f)


@pytest.mark.parametrize("weight", ["nan", "inf", "-nan", "Infinity"])
def test_load_graph_rejects_nonfinite_weight(tmp_path, weight):
    f = tmp_path / "bad.txt"
    f.write_text(f"1 2 1\n1 3 {weight}\n")
    with pytest.raises(ValueError, match=r":2: non-finite weight"):
        load_graph(f)


def test_from_edges_rejects_self_loops_out_of_range_edges_and_negative_weights():
    with pytest.raises(ValueError, match="self-loop on node 2"):
        Graph.from_edges(3, [(1, 2, 1.0), (2, 2, 1.0)])
    for edge in [(0, 1, 1.0), (1, 4, 1.0), (4, 1, 1.0)]:
        with pytest.raises(ValueError, match=r"out of range for n=3"):
            Graph.from_edges(3, [edge])
    with pytest.raises(ValueError, match=r"negative weight -0.5 on edge \(2, 1\)"):
        Graph.from_edges(3, [(2, 1, -0.5)])


def test_from_edges_rejects_nonfinite_weight():
    with pytest.raises(ValueError, match=r"non-finite weight nan on edge \(1, 2\)"):
        Graph.from_edges(2, [(2, 1, math.nan)])
    with pytest.raises(ValueError, match="non-finite weight inf"):
        Graph.from_edges(3, [(1, 2, 1.0), (1, 3, math.inf)])
    with pytest.raises(ValueError, match="non-finite weight inf"):
        Graph.from_edges(2, [(1, 2, 1e308), (2, 1, 1e308)])  # duplicates overflow


# --- Laplacian and cut values ------------------------------------------------


def test_k3_laplacian():
    np.testing.assert_allclose(
        laplacian(k3()), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(0)
    edges = [(i, j, float(rng.random())) for i in range(1, 8) for j in range(i + 1, 8) if rng.random() < 0.5]
    g = Graph.from_edges(7, edges)
    L = laplacian(g)
    np.testing.assert_allclose(L @ np.ones(7), np.zeros(7), atol=1e-12)
    np.testing.assert_allclose(L, L.T)


def test_edgeless_graph_zero_laplacian():
    g = Graph.from_edges(3, [])
    np.testing.assert_allclose(laplacian(g), np.zeros((3, 3)))


def test_cut_value_two_formulas_agree():
    rng = np.random.default_rng(1)
    edges = [(i, j, float(rng.random())) for i in range(1, 9) for j in range(i + 1, 9) if rng.random() < 0.4]
    g = Graph.from_edges(8, edges)
    L = laplacian(g)
    for _ in range(10):
        s = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        assert abs(cut_value_from_signs(L, s) - cut_value_from_edges(g, s)) <= 1e-9


def test_brute_force_known_values():
    assert brute_force_max_cut(k3())[0] == 2.0
    assert brute_force_max_cut(c4())[0] == 4.0
    assert brute_force_max_cut(k5())[0] == 6.0


# --- problem construction ----------------------------------------------------


def test_build_problem_formulas():
    L = laplacian(k3())
    p = build_problem(L, 2)
    rng = np.random.default_rng(2)
    y = p.manifold.rand_point(rng)
    u = p.manifold.rand_tangent(y, rng)
    assert get_cost(p, y) == pytest.approx(-float(np.trace(y.T @ L @ y)) / 4.0)
    store = Counters()
    tok = new_token()
    eg = -L @ y / 2.0
    np.testing.assert_allclose(
        get_gradient(p, y, store, tok), p.manifold.egrad2rgrad(y, eg), atol=1e-14
    )
    with pytest.raises(ValueError):
        build_problem(L, 0)


def test_build_problem_shares_one_multiply():
    L = laplacian(k5()).view(CountingMatrix)
    CountingMatrix.products = 0
    p = build_problem(L, 3)
    store = Counters()
    y = p.manifold.rand_point(np.random.default_rng(3))
    tok = new_token()
    get_cost(p, y, store, tok)
    get_gradient(p, y, store, tok)
    assert CountingMatrix.products == 1  # LY computed once, shared via the scratch dict


def test_build_problem_derivative_checks_pass():
    L = laplacian(k3())
    p = build_problem(L, 2)
    g_rep = check_gradient(p, rng=np.random.default_rng(4))
    h_rep = check_hessian(p, rng=np.random.default_rng(5))
    assert g_rep.verdict
    assert h_rep.verdict
    assert 1.8 <= h_rep.fitted_slope <= 2.2


# --- solving and rounding ----------------------------------------------------


def test_solve_k3_rank2_reaches_relaxation_value():
    # Angle-grid oracle: rows at angles (0, a, b) give
    # tr(Y'LY) = 6 - 2(cos a + cos b + cos(b-a)), so the cost is
    # (cos a + cos b + cos(b-a) - 3)/2, minimized at 120-degree spacing,
    # i.e. relaxation value 9/4.
    angles = np.linspace(0, 2 * math.pi, 361)
    best = min(
        (math.cos(a) + math.cos(b) + math.cos(b - a) - 3.0) / 2.0
        for a in angles
        for b in angles
    )
    assert best == pytest.approx(-2.25, abs=1e-3)

    L = laplacian(k3())
    Y, run = solve_rank_r(L, 2, rng=np.random.default_rng(6))
    assert run.cost_final <= -2.24
    assert np.max(np.abs(np.sum(Y * Y, axis=1) - 1.0)) <= 1e-10


def test_solve_c4_rank2_tight():
    L = laplacian(c4())
    Y, run = solve_rank_r(L, 2, rng=np.random.default_rng(7))
    assert run.cost_final == pytest.approx(-4.0, abs=1e-6)


def test_round_cut_recovers_known_cuts():
    rng = np.random.default_rng(8)
    L3 = laplacian(k3())
    Y3, _ = solve_rank_r(L3, 2, rng=rng)
    _, val3 = round_cut(L3, Y3, 100, rng)
    assert val3 == pytest.approx(2.0)
    L4 = laplacian(c4())
    Y4, _ = solve_rank_r(L4, 2, rng=rng)
    _, val4 = round_cut(L4, Y4, 100, rng)
    assert val4 == pytest.approx(4.0)


def test_round_cut_rank1_invariant_to_projection():
    L = laplacian(c4())
    y = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    rng = np.random.default_rng(9)
    s1, v1 = round_cut(L, y, 1, rng)
    s2, v2 = round_cut(L, y, 50, rng)
    assert v1 == v2 == 4.0  # 1-D projection: value independent of z


def test_round_cut_zero_rows_map_to_plus_one():
    L = laplacian(k3())
    y = np.zeros((3, 2))  # not on the manifold, but exercises the sign rule
    s, _ = round_cut(L, y, 3, np.random.default_rng(10))
    np.testing.assert_allclose(s, np.ones(3))


# --- certification -----------------------------------------------------------


def test_certify_k3():
    L = laplacian(k3())
    Y, _ = solve_rank_r(L, 2, rng=np.random.default_rng(11))
    certified, lam_min, bound, _ = certify(L, Y)
    assert certified
    assert bound == pytest.approx(2.25, abs=1e-6)
    assert lam_min >= -1e-6 * np.linalg.norm(L, 1)
    # Certificate residual at the certified point.
    d = np.sum((L @ Y) * Y, axis=1)
    S = np.diag(d) - L
    assert np.linalg.norm(S @ Y) <= 1e-5 * np.linalg.norm(L)


def test_certify_c4():
    L = laplacian(c4())
    Y, _ = solve_rank_r(L, 2, rng=np.random.default_rng(12))
    certified, _, bound, _ = certify(L, Y)
    assert certified
    assert bound == pytest.approx(4.0, abs=1e-6)


def _critical_threshold(L):
    """A gradient norm above this leaves Y clearly short of criticality at
    the scale of L."""
    return 1e-6 * max(1.0, float(np.linalg.norm(L)))


def _ring_with_chords(n, seed):
    """A ring on n nodes plus about 2n random chords (repeats add up)."""
    rng = np.random.default_rng(seed)
    edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
    edges += [(int(i), int(j), 1.0) for i, j in rng.integers(1, n + 1, (2 * n, 2)) if i != j]
    return Graph.from_edges(n, edges)


def test_certify_rejects_noncritical_point():
    # Off criticality there is still a verdict, eigenvectors and a bound.
    L = laplacian(k5())
    p = build_problem(L, 2)
    y = p.manifold.rand_point(np.random.default_rng(13))
    assert p.manifold.norm(y, get_gradient(p, y)) > _critical_threshold(L)
    certified, lam_min, bound, V = certify(L, y)
    assert not certified and V.shape[1] >= 1
    assert bound == pytest.approx((np.sum((L @ y) * y) - 5 * lam_min) / 4)
    assert bound >= brute_force_max_cut(k5())[0]


_WEIGHTS = {
    "unit": st.just(1.0),
    "int": st.integers(1, 9).map(float),
    "dec": st.integers(50, 250).map(lambda c: c / 100),
}


@st.composite
def _graph_and_point(draw):
    """A graph on 2..8 nodes with unit, integer or two-decimal weights, a
    rank from 1 to n and a random unit-row Y of that rank (not solved)."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    weight = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    edges = [(i, j, draw(weight)) for i, j in pairs if draw(st.booleans())]
    r = draw(st.integers(1, n))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, r))
    return Graph.from_edges(n, edges), y / np.linalg.norm(y, axis=1, keepdims=True)


@settings(derandomize=True, deadline=None)
@given(_graph_and_point(), st.sampled_from([1e-6, 1e-3]))
def test_certify_bounds_every_cut_at_any_point(graph_and_point, tol):
    g, Y = graph_and_point
    L = laplacian(g)
    n = g.n
    certified, lam_min, bound, V = certify(L, Y, tol)
    exact, _ = brute_force_max_cut(g)
    scale = max(1.0, float(np.abs(L).sum()))
    assert exact <= bound + 1e-12 * scale
    assert (V.shape[1] == 0) is certified
    if certified:
        value = float(np.sum((L @ Y) * Y)) / 4.0
        assert bound - value <= n * tol * np.linalg.norm(L, 1) / 4.0 + 1e-12 * scale


# --- rank escalation ---------------------------------------------------------


def test_escalation_k3():
    L = laplacian(k3())
    res = rank_escalation(L, rng=np.random.default_rng(14))
    assert res.certified
    assert res.cut_value == pytest.approx(2.0)
    assert res.upper_bound == pytest.approx(2.25, abs=1e-6)
    assert res.cut_value <= res.upper_bound


def test_escalation_c4_certified_at_rank2():
    L = laplacian(c4())
    res = rank_escalation(L, rng=np.random.default_rng(15))
    assert res.certified
    assert res.rank_used == 2
    assert res.cut_value == pytest.approx(4.0)
    assert res.upper_bound == pytest.approx(4.0, abs=1e-6)


def test_escalation_k5_bound_and_cut():
    # SDP value of K5 is 25/4 (e.g. X = (5I - J)/4, and also the rank-2
    # pentagon configuration with rows summing to zero), against max-cut 6.
    L = laplacian(k5())
    res = rank_escalation(L, rng=np.random.default_rng(16), trials=200)
    assert res.certified
    assert res.upper_bound == pytest.approx(6.25, abs=1e-4)
    assert res.cut_value == pytest.approx(6.0)


def _weighted_gnp(n, seed, p=0.5):
    """G(n, p) with weights uniform in [0, 1), drawn pair by pair."""
    rng = np.random.default_rng(seed)
    edges = [
        (i, j, float(rng.random()))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def test_escalation_actually_escalates():
    # A weighted random graph/seed pair where the rank-2 solve lands at an
    # uncertified critical point, so the certificate eigenvector step and a
    # rank-4 warm start (n = 10: r_BP = 4) are exercised.
    L = laplacian(_weighted_gnp(10, seed=0))
    res = rank_escalation(L, rng=np.random.default_rng(2), trials=100)
    assert [run.x_final.shape[1] for run in res.histories] == [2, 4]
    assert res.rank_used == 4
    assert res.certified
    # Warm-start invariant: the rank-4 solve starts from an embedding of the
    # rank-2 optimum, so its final cost cannot be worse.
    finals = [run.cost_final for run in res.histories]
    assert finals[1] <= finals[0] + 1e-9
    assert res.cut_value <= res.upper_bound + 1e-9


def test_escalation_carries_on_past_noncritical_ranks():
    # A few iterations leave the first ranks short of criticality; they
    # still get a verdict, eigenvectors to step along and a bound.  n = 20:
    # r_BP = 6, so the ranks are 2, 4, 6, 12, 20.  With 7 iterations a
    # rank the doubling reaches certifies; with 5 none does, and escalation
    # stops at n with an uncertified bound.
    L = laplacian(_ring_with_chords(20, seed=1))
    for max_iter, ranks, certified in ((7, [2, 4, 6, 12], True), (5, [2, 4, 6, 12, 20], False)):
        res = rank_escalation(L, opts=SolverOptions(max_iter=max_iter),
                              rng=np.random.default_rng(2))
        first = res.histories[0]
        assert first.stop_reason == "max_iter"
        assert first.grad_norm_final > _critical_threshold(L)
        assert [run.x_final.shape[1] for run in res.histories] == ranks
        assert res.rank_used == ranks[-1]
        assert res.certified is certified
        assert res.cut_value <= res.upper_bound + 1e-9


def test_next_rank_doubles_up_to_barvinok_pataki_then_up_to_n():
    for n in range(1, 2001):
        r_bp = math.ceil((math.sqrt(8 * n + 1) - 1) / 2)
        assert r_bp * (r_bp + 1) // 2 >= n > (r_bp - 1) * r_bp // 2
        for r in {1, r_bp // 2, r_bp - 1, r_bp, r_bp + 1, n // 2, n - 1}:
            if 1 <= r < n:
                expected = min(2 * r, r_bp) if r < r_bp else min(2 * r, n)
                assert next_rank(r, n) == expected


def _never_certified(L, Y, tol):
    """An uncertified certificate: lambda_min -1, the total edge weight as
    the bound, and one unit vector to step along."""
    return False, -1.0, float(np.trace(L)) / 2.0, np.eye(L.shape[0], 1)


@pytest.mark.parametrize(
    "n, r0, ranks",
    [
        (3, 2, [2, 3]),  # r_BP = 2
        (10, 2, [2, 4, 8, 10]),  # r_BP = 4
        (20, 2, [2, 4, 6, 12, 20]),  # r_BP = 6
        (50, 3, [3, 6, 10, 20, 40, 50]),  # r_BP = 10
        (20, 6, [6, 12, 20]),  # r0 = r_BP
        (20, 7, [7, 14, 20]),  # r0 > r_BP
        (5, 5, [5]),  # r0 = n
        (20, 25, [20]),  # r0 > n
    ],
)
def test_escalation_visits_the_rank_schedule(monkeypatch, n, r0, ranks):
    # No rank certifies, so escalation runs until the rank reaches n.
    monkeypatch.setattr(maxcut_solve, "certify", _never_certified)
    L = laplacian(_ring_with_chords(n, seed=3))
    res = rank_escalation(L, r0=r0, opts=SolverOptions(max_iter=3), rng=np.random.default_rng(4))
    assert [run.x_final.shape[1] for run in res.histories] == ranks
    assert res.rank_used == ranks[-1] and not res.certified


def test_escalation_rounds_with_trials_per_column_added(monkeypatch):
    trials_seen = []
    real = maxcut_solve.round_cut

    def spy(L, Y, trials, rng):
        trials_seen.append((Y.shape[1], trials))
        return real(L, Y, trials, rng)

    monkeypatch.setattr(maxcut_solve, "round_cut", spy)
    monkeypatch.setattr(maxcut_solve, "certify", _never_certified)
    L = laplacian(_ring_with_chords(20, seed=3))
    rank_escalation(L, opts=SolverOptions(max_iter=3), rng=np.random.default_rng(4), trials=7)
    assert trials_seen == [(2, 7), (4, 14), (6, 14), (12, 42), (20, 56)]


def _saddle_at_rank_6():
    """A critical, uncertified Y on a weighted 20-node graph: a rank-2
    optimum padded with four zero columns.  Its S has one negative
    eigenvalue, two zeros (S Y = 0) and positive ones after those, so the
    six smallest eigenvalues sum to more than zero."""
    L = laplacian(_weighted_gnp(20, seed=1))
    Y2, run = solve_rank_r(L, 2, rng=np.random.default_rng(1))
    return L, np.hstack([Y2, np.zeros((20, 4))]), run


def _dual_matrix(L, Y):
    return np.diag(np.sum((L @ Y) * Y, axis=1)) - L


def test_certify_returns_the_eigenvectors_below_the_threshold():
    L, Y, _ = _saddle_at_rank_6()
    certified, lam_min, bound, V = certify(L, Y)
    S = _dual_matrix(L, Y)
    evals = np.linalg.eigvalsh(S)
    threshold = -1e-6 * np.linalg.norm(L, 1)
    assert not certified
    assert bound == pytest.approx((np.sum((L @ Y) * Y) - 20 * lam_min) / 4)
    assert bound >= round_cut(L, Y, 100, np.random.default_rng(0))[1]
    assert V.shape == (20, np.count_nonzero(evals < threshold)) == (20, 1)
    lams = np.sum(V * (S @ V), axis=0)  # Rayleigh quotients of unit vectors
    np.testing.assert_allclose(S @ V, V * lams, atol=1e-10)
    assert np.all(lams < threshold)
    assert lams[0] == pytest.approx(lam_min)
    assert evals[:6].sum() > 0
    # At a certified point there is no such eigenvector.
    Yc, _ = solve_rank_r(L, 12, rng=np.random.default_rng(1))
    certified, _, _, V = certify(L, Yc)
    assert certified and V.shape == (20, 0)


def test_warm_start_steps_along_negative_eigenvectors_only():
    L, Y, _ = _saddle_at_rank_6()
    _, _, _, V = certify(L, Y)
    x0, used = maxcut_solve._step_off(L, Y, 6, V, np.random.default_rng(3))
    p = build_problem(L, 12)
    y = np.hstack([Y, np.zeros((20, 6))])
    assert used == 1
    assert get_cost(p, x0) < get_cost(p, y)
    assert np.any(x0[:, 6] != 0)
    np.testing.assert_array_equal(x0[:, 7:], 0.0)  # one new column per eigenvector
    # Filling all six new columns with the six smallest eigenvectors, the
    # positive ones included, raises the cost at every step length.
    z = np.zeros_like(y)
    z[:, 6:] = np.linalg.eigh(_dual_matrix(L, Y))[1][:, :6]
    for t in (1e-2, 1e-3, 1e-4):
        assert get_cost(p, p.manifold.retract(y, z, t)) > get_cost(p, y)


def test_escalation_does_not_run_to_n_from_a_saddle(monkeypatch):
    # The first rank "solves" to the saddle; the warm start must leave it.
    L, Y, run = _saddle_at_rank_6()
    real = maxcut_solve.solve_rank_r

    def saddle_first(L, r, opts=None, rng=None, x0=None, solver="tr"):
        if x0 is None:
            return Y, run
        return real(L, r, opts, rng, x0=x0, solver=solver)

    monkeypatch.setattr(maxcut_solve, "solve_rank_r", saddle_first)
    res = rank_escalation(L, r0=6, rng=np.random.default_rng(3))
    assert res.certified
    assert res.rank_used == 12 < 20
    assert [r.x_final.shape[1] for r in res.histories[1:]] == [12]
    assert res.histories[1].history[0].cost < get_cost(build_problem(L, 6), Y)
    assert res.cut_value <= res.upper_bound + 1e-9


def test_escalation_logs_one_debug_record_per_rank(caplog):
    L = laplacian(_weighted_gnp(10, seed=0))
    with caplog.at_level(logging.DEBUG, logger="riemopt.maxcut.solve"):
        res = rank_escalation(L, rng=np.random.default_rng(2))
    messages = [r.getMessage() for r in caplog.records if r.name == "riemopt.maxcut.solve"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == "riemopt.maxcut.solve")
    assert len(messages) == len(res.histories) == 2
    assert messages[0] == (
        "rank 2: 11 iterations, lambda_min -2.453213e-01, 1 eigenvectors used, certified False"
    )
    assert messages[1].startswith("rank 4: 6 iterations, lambda_min ")
    assert messages[1].endswith(", 0 eigenvectors used, certified True")


def test_escalation_formats_no_log_message_when_debug_is_off(monkeypatch, caplog):
    def must_not_run(*args, **kwargs):
        raise AssertionError("debug message formatted with DEBUG off")

    monkeypatch.setattr(maxcut_solve.logger, "debug", must_not_run)
    with caplog.at_level(logging.INFO, logger="riemopt.maxcut.solve"):
        res = rank_escalation(laplacian(_weighted_gnp(10, seed=0)), rng=np.random.default_rng(2))
    assert res.certified


def test_escalation_requires_r0_at_least_two():
    with pytest.raises(ValueError):
        rank_escalation(laplacian(k3()), r0=1)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_certify_and_escalation_reject_a_tol_that_is_not_positive_and_finite(tol):
    L = laplacian(k5())
    Y = build_problem(L, 3).manifold.rand_point(np.random.default_rng(0))
    with pytest.raises(ValueError, match="certify: tol must be positive and finite"):
        certify(L, Y, tol)
    with pytest.raises(ValueError, match="rank_escalation: tol must be positive and finite"):
        rank_escalation(L, tol=tol)


def test_escalation_random_graphs_bound_sandwich():
    rng0 = np.random.default_rng(17)
    for n, seed in ((6, 0), (7, 1), (8, 2)):
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, float(rng.random()))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = Graph.from_edges(n, edges)
        L = laplacian(g)
        res = rank_escalation(L, rng=rng0, trials=500)
        exact, _ = brute_force_max_cut(g)
        assert res.certified
        assert res.cut_value <= exact + 1e-9
        assert exact <= res.upper_bound + 1e-6


# --- CLI ---------------------------------------------------------------------


def _write_k3(tmp_path):
    f = tmp_path / "k3.txt"
    f.write_text("1 2\n2 3\n1 3\n")
    return str(f)


def test_cli_solve_json(tmp_path, capsys):
    path = _write_k3(tmp_path)
    code = run_cli(
        ["solve", "--graph", path, "--rank", "2", "--escalate", "--seed", "7",
         "--out", "json", "--timing", "none"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 3
    assert out["cut"] == pytest.approx(2.0)
    assert out["bound"] == pytest.approx(2.25, abs=1e-6)
    assert out["certified"] is True
    assert out["seed"] == 7
    assert out["time_seconds"] == 0.0
    assert list(out.keys()) == [
        "n", "rank_used", "cost", "cut", "bound", "certified", "seed",
        "iterations", "time_seconds",
    ]


def test_cli_iterations_do_not_count_the_iteration_zero_record(tmp_path, capsys):
    # Three iterations make four history records; the CLI used to print 4.
    code = run_cli(["solve", "--graph", _write_k3(tmp_path), "--rank", "1", "--max-iter", "3",
                    "--out", "csv", "--timing", "none"])
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert code == 0
    assert fields["iterations"] == "3"


def test_cli_byte_identical_reruns(tmp_path, capsys):
    path = _write_k3(tmp_path)
    args = ["solve", "--graph", path, "--escalate", "--seed", "3", "--out",
            "json", "--timing", "none"]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_history_csv(tmp_path, capsys):
    path = _write_k3(tmp_path)
    hist = tmp_path / "hist.csv"
    code = run_cli(
        ["solve", "--graph", path, "--seed", "1", "--history", str(hist),
         "--timing", "none", "--out", "text"]
    )
    assert code == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == "iter,cost,gradnorm,time,stepsize,inner,Delta,rho"
    assert len(lines) > 1
    capsys.readouterr()


def test_cli_unwritable_history_exits_one(tmp_path, capsys, monkeypatch):
    # The path is checked before any solve starts.
    import riemopt.maxcut.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before checking the --history path")

    monkeypatch.setattr(cli, "rank_escalation", must_not_run)
    monkeypatch.setattr(cli, "solve_rank_r", must_not_run)
    path = _write_k3(tmp_path)
    for extra in ([], ["--escalate"]):
        code = run_cli(["solve", "--graph", path, "--history", str(tmp_path / "missing" / "h.csv")]
                       + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "h.csv" in captured.err


def test_cli_noncritical_solve_is_not_certified(tmp_path, capsys):
    g = _ring_with_chords(20, seed=1)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{i} {j} {w}\n" for i, j, w in g.edges))
    hist = tmp_path / "hist.csv"
    code = run_cli(["solve", "--graph", str(graph), "--rank", "3", "--max-iter", "5",
                    "--seed", "3", "--out", "json", "--timing", "none",
                    "--history", str(hist)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["certified"] is False and out["cut"] <= out["bound"]
    last = hist.read_text().splitlines()[-1].split(",")
    assert int(last[0]) == 5
    assert float(last[2]) > _critical_threshold(laplacian(g))


def test_cli_check_subcommand(tmp_path, capsys):
    path = _write_k3(tmp_path)
    code = run_cli(["check", "--graph", path, "--rank", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2
    assert "gradient check:" in out and "hessian check:" in out


def test_cli_missing_graph_exits_one(tmp_path, capsys):
    code = run_cli(["solve", "--graph", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_nonfinite_weight_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2 nan\n1 3 inf\n")
    code = run_cli(["solve", "--graph", str(f), "--escalate", "--out", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err and ":1: non-finite weight nan" in captured.err


@pytest.mark.parametrize(
    "edges, extra",
    [
        ("1 2 1e308\n2 3 1e308\n1 3 1e308\n", []),  # degrees overflow; eigh failed
        ("1 2 1e308\n2 3 1e308\n1 3 1e308\n", ["--escalate"]),
        ("1 2 5e307\n2 3 5e307\n1 3 5e307\n3 4 1\n", ["--escalate"]),  # printed -Infinity
        ("1 2 1e200\n2 3 1e200\n1 3 1e200\n", ["--escalate"]),  # gradient norm overflowed
    ],
    ids=["1e308", "1e308-escalate", "5e307-escalate", "1e200-escalate"],
)
def test_cli_huge_finite_weight_exits_one(tmp_path, capsys, edges, extra):
    f = tmp_path / "huge.txt"
    f.write_text(edges)
    code = run_cli(["solve", "--graph", str(f), "--out", "json"] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Laplacian's norm overflows" in captured.err


def test_laplacian_rejects_weights_that_overflow_its_norm():
    L = laplacian(Graph.from_edges(3, [(1, 2, 1e153), (2, 3, 1e153), (1, 3, 1e153)]))
    assert np.isfinite(np.linalg.norm(L))
    with pytest.raises(ValueError, match=r"norm overflows \(largest weight 1e\+154\)"):
        laplacian(Graph.from_edges(3, [(1, 2, 1.0), (2, 3, 1e154), (1, 3, 1e154)]))


@pytest.mark.parametrize(
    "edges", ["1 2\n2 1000000000\n", "p 1000000000\n1 2\n"], ids=["node-index", "header"]
)
@pytest.mark.parametrize("command", [["solve"], ["solve", "--escalate"], ["check"]])
def test_cli_laplacian_too_large_for_memory_exits_one(tmp_path, capsys, edges, command):
    # n = 10^9 asks for a 6.94 EiB Laplacian, which numpy refuses at once.
    f = tmp_path / "huge-n.txt"
    f.write_text(edges)
    code = run_cli(command[:1] + ["--graph", str(f)] + command[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "1000000000 x 1000000000 Laplacian" in captured.err


# The edge-list fuzz: node indices up to 64 (so a header n too), and the
# numbers, header and comment marks that once reached the solver or broke
# the parser.  Well-formed edge lines are drawn often enough that some
# files load and reach the solvers and the derivative checks.
_FUZZ_INDEX = st.integers(1, 64).map(str)
_FUZZ_NUMBER = st.sampled_from(["1", "0.5", "-0", "1e-320", "1e308", "nan", "inf", "-inf", "-1"])
_FUZZ_LINE = st.one_of(
    st.tuples(_FUZZ_INDEX, _FUZZ_INDEX).map(" ".join),
    st.tuples(_FUZZ_INDEX, _FUZZ_INDEX, _FUZZ_NUMBER).map(" ".join),
    _FUZZ_INDEX.map("p {}".format),
    # Anything, bad arity included.
    st.lists(st.one_of(_FUZZ_INDEX, _FUZZ_NUMBER, st.sampled_from(["0", "p", "#", "x"])),
             max_size=4).map(" ".join),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lines=st.lists(_FUZZ_LINE, max_size=12))
def test_cli_fuzzed_edge_lists_exit_cleanly(tmp_path_factory, lines):
    # Whatever the file holds, run_cli returns 0, 1 or 2 and raises nothing.
    f = tmp_path_factory.mktemp("fuzz") / "g.txt"
    f.write_text("\n".join(lines) + "\n")
    for command in (["solve"], ["solve", "--escalate"], ["check"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(command[:1] + ["--graph", str(f)] + command[1:])
        assert code in (0, 1, 2), (command, code)
        assert code != 1 or err.getvalue().startswith("error:") or "FAIL" in out.getvalue()


def test_cli_json_with_a_nonfinite_value_exits_one(tmp_path, capsys, monkeypatch):
    # A backstop: the JSON output never carries NaN or Infinity.
    import riemopt.maxcut.cli as cli

    def infinite_cut(L, *args, **kwargs):
        run = RunResult(None, -math.inf, math.inf, "nonfinite", [])
        return CutResult(np.ones(L.shape[0]), math.inf, None, False, 2, [run])

    monkeypatch.setattr(cli, "rank_escalation", infinite_cut)
    code = run_cli(["solve", "--graph", _write_k3(tmp_path), "--escalate", "--out", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "JSON" in captured.err


def test_cli_bad_flag_exits_one(capsys):
    code = run_cli(["solve", "--graph", "x", "--bogus"])
    assert code == 1
    capsys.readouterr()


def test_cli_solver_choices(tmp_path, capsys):
    path = _write_k3(tmp_path)
    for solver in ("cg", "sd"):
        code = run_cli(
            ["solve", "--graph", path, "--solver", solver, "--seed", "2",
             "--out", "json", "--timing", "none", "--max-iter", "2000"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cut"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--trials", "0"], "--trials: must be >= 1"),
        (["solve", "--max-iter", "0"], "--max-iter: must be >= 3"),
        (["solve", "--max-iter", "2"], "--max-iter: must be >= 3"),
        (["solve", "--rank", "0"], "--rank: must be >= 1"),
        (["solve", "--rank", "4"], "--rank 4 exceeds the 3 nodes"),
        (["check", "--rank", "0"], "--rank: must be >= 1"),
        (["check", "--rank", "4"], "--rank 4 exceeds the 3 nodes"),
        (["solve", "--tol", "nan"], "--tol: must be positive and finite"),
        (["solve", "--tol", "0"], "--tol: must be positive and finite"),
        (["solve", "--tol=-1e-6"], "--tol: must be positive and finite"),
        (["solve", "--tol", "inf"], "--tol: must be positive and finite"),
        (["solve", "--seed=-1"], "--seed: must be >= 0"),
        (["check", "--seed=-1"], "--seed: must be >= 0"),
        (["check", "--rank", "1"], "check needs --rank >= 2"),  # no tangent direction
    ],
)
def test_cli_out_of_range_option_exits_one(tmp_path, capsys, argv, message):
    path = _write_k3(tmp_path)
    code = run_cli(argv[:1] + ["--graph", path] + argv[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err and message in captured.err
    assert "Traceback" not in captured.err


def test_cli_escalation_accepts_rank_above_n(tmp_path, capsys):
    # Escalation caps the starting rank at n instead of rejecting it.
    path = _write_k3(tmp_path)
    code = run_cli(["solve", "--graph", path, "--rank", "5", "--escalate",
                    "--out", "json", "--timing", "none"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rank_used"] == 3


def test_certify_takes_one_product_with_l():
    L = laplacian(Graph.from_edges(30, [(i, i % 30 + 1, 1.0) for i in range(1, 31)]
                                   + [(i, (i + 6) % 30 + 1, 2.0) for i in range(1, 31, 3)]))
    Y, _ = solve_rank_r(L, 3, rng=np.random.default_rng(40))
    expected = certify(L, Y)
    counted = L.view(CountingMatrix)
    CountingMatrix.products = 0
    got = certify(counted, Y)
    assert CountingMatrix.products == 1
    assert got[:3] == expected[:3]
    np.testing.assert_array_equal(np.asarray(got[3]), expected[3])
