"""Max-cut application: graph parsing, Laplacians, the relaxation problem,
rounding, dual certification, rank escalation, and the CLI."""

import contextlib
import io
import json
import logging
import math
import sys
import tracemalloc
from types import SimpleNamespace

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
from riemopt.maxcut import main as maxcut_main
from riemopt.maxcut import solve as maxcut_solve
from riemopt.maxcut.solve import FoldedLaplacian, next_rank
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


@pytest.mark.parametrize("escalate", [False, True])
def test_single_edge_bound_never_falls_below_its_cut(escalate):
    # Without the rounding allowance the bound read 0.9999999999999999
    # against the cut 1 at 14 of these seeds in plain rank-2 solves (as the
    # CLI runs them) and at 20 in escalations from rank 2.
    L = laplacian(Graph.from_edges(2, [(1, 2, 1.0)]))
    for seed in range(200):
        rng = np.random.default_rng(seed)
        if escalate:
            res = rank_escalation(L, r0=2, rng=rng)
            cut, bound = res.cut_value, res.upper_bound
        else:
            Y, _ = solve_rank_r(L, 2, rng=rng)
            _, cut = round_cut(L, Y, 100, rng)
            bound = certify(L, Y)[2]
        assert cut == 1.0 <= bound <= 1.0 + 1e-6


def test_certify_rounding_allowance_is_tiny_at_benchmark_sizes():
    # A 120-node graph with integer weights 1..9 at a solved Y: the
    # allowance lifts the bound by less than 1e-12 of it.
    rng = np.random.default_rng(5)
    edges = [(int(i), int(j), float(w)) for (i, j), w in
             zip(rng.integers(1, 121, (480, 2)), rng.integers(1, 10, 480)) if i != j]
    L = laplacian(Graph.from_edges(120, edges))
    Y = rank_escalation(L, rng=rng).histories[-1].x_final
    lyy, S = FoldedLaplacian(L).dual(Y)
    lam_min = float(np.linalg.eigvalsh(S)[0])
    plain = (float(np.sum(lyy)) - 120 * min(lam_min, 0.0)) / 4.0
    bound = certify(L, Y)[2]
    assert 0.0 < bound - plain < 1e-12 * bound


@settings(derandomize=True, deadline=None)
@given(_graph_and_point(), st.sampled_from([1e-6, 1e-3]))
def test_certify_bounds_every_cut_at_any_point(graph_and_point, tol):
    g, Y = graph_and_point
    L = laplacian(g)
    n = g.n
    certified, lam_min, bound, V = certify(L, Y, tol)
    exact, _ = brute_force_max_cut(g)
    scale = max(1.0, float(np.abs(L).sum()))
    assert exact <= bound  # the allowance covers eigh's and the sum's rounding
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
    res = rank_escalation(L, r0=2, rng=np.random.default_rng(15))
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
    res = rank_escalation(L, r0=2, rng=np.random.default_rng(2), trials=100)
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
    # stops at n with an uncertified bound.  These counts hold for the
    # quadratic tCG target, tcg_theta = 1: at escalation's default of 0.5
    # five iterations already certify rank 12.
    L = laplacian(_ring_with_chords(20, seed=1))
    for max_iter, ranks, certified in ((7, [2, 4, 6, 12], True), (5, [2, 4, 6, 12, 20], False)):
        res = rank_escalation(L, r0=2, opts=SolverOptions(max_iter=max_iter, tcg_theta=1.0),
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
    the bound, and one unit vector to step along.  rank_escalation passes
    L folded, so the weight trace(L)/2 is -trace(Lh)."""
    return False, -1.0, -float(np.trace(L.Lh)), np.eye(Y.shape[0], 1)


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


def _rounding_trials(monkeypatch, n, **kwargs):
    """(rank, trials) of each round_cut call of an escalation on a ring with
    chords that certifies at no rank, so it runs to rank n."""
    trials_seen = []
    real = maxcut_solve.round_cut

    def spy(L, Y, trials, rng):
        trials_seen.append((Y.shape[1], trials))
        return real(L, Y, trials, rng)

    monkeypatch.setattr(maxcut_solve, "round_cut", spy)
    monkeypatch.setattr(maxcut_solve, "certify", _never_certified)
    L = laplacian(_ring_with_chords(n, seed=3))
    rank_escalation(L, **kwargs, opts=SolverOptions(max_iter=3), rng=np.random.default_rng(4),
                    trials=7)
    return trials_seen


def test_escalation_rounds_with_trials_per_column_added(monkeypatch):
    trials_seen = _rounding_trials(monkeypatch, 20, r0=2)
    assert trials_seen == [(2, 14), (4, 14), (6, 14), (12, 42), (20, 56)]


@pytest.mark.parametrize("graph, ranks", [(k3, [3]), (c4, [4]), (k5, [4])])
def test_escalation_starts_at_rank_four_capped_at_n(graph, ranks):
    res = rank_escalation(laplacian(graph()), rng=np.random.default_rng(15))
    assert [run.x_final.shape[1] for run in res.histories] == ranks
    assert res.rank_used == ranks[-1] and res.certified


@pytest.mark.parametrize("n, kwargs, expected", [
    (20, {}, [(4, 28), (6, 14), (12, 42), (20, 56)]),
    (20, {"r0": 3}, [(3, 21), (6, 21), (12, 42), (20, 56)]),
    (3, {}, [(3, 21)]),
])
def test_escalation_rounds_the_first_rank_with_trials_per_column(monkeypatch, n, kwargs,
                                                                  expected):
    assert _rounding_trials(monkeypatch, n, **kwargs) == expected


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
    x0, used = maxcut_solve._step_off(FoldedLaplacian(L), Y, 6, V)
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


def _top_eigenvectors(L, Y, k):
    """The eigenvectors of S's k largest eigenvalues, largest first: a step
    along them raises the cost to second order."""
    return np.linalg.eigh(_dual_matrix(L, Y))[1][:, ::-1][:, :k]


def test_warm_start_at_a_certified_point_returns_the_padded_point():
    # No step lowers the cost at an optimum: a step along eigenvectors of
    # positive eigenvalues raises it, so Y comes back padded.
    L, _, _ = _saddle_at_rank_6()
    Y, _ = solve_rank_r(L, 12, rng=np.random.default_rng(1))
    assert certify(L, Y)[0]
    x0, used = maxcut_solve._step_off(FoldedLaplacian(L), Y, 6, _top_eigenvectors(L, Y, 6))
    assert used == 0
    np.testing.assert_array_equal(x0, np.hstack([Y, np.zeros((20, 6))]))


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


def _solve_options_seen(monkeypatch, opts):
    """The tcg_theta of each solve's options in one escalation of a
    20-node graph from rank 2."""
    seen, real = [], maxcut_solve.solve_rank_r

    def spy(L, r, opts=None, rng=None, x0=None, solver="tr"):
        seen.append(opts.tcg_theta)
        return real(L, r, opts, rng, x0=x0, solver=solver)

    monkeypatch.setattr(maxcut_solve, "solve_rank_r", spy)
    res = rank_escalation(laplacian(_weighted_gnp(20, seed=1)), r0=2, opts=opts,
                          rng=np.random.default_rng(2))
    assert res.certified and len(seen) == len(res.histories) == 2
    return seen


@pytest.mark.parametrize("theta, expected", [(None, 0.5), (1.0, 1.0), (0.25, 0.25), (0.0, 0.0)])
def test_escalation_solves_to_order_one_and_a_half_unless_told(monkeypatch, theta, expected):
    opts = SolverOptions(tcg_theta=theta)
    assert _solve_options_seen(monkeypatch, opts) == [expected, expected]
    assert opts.tcg_theta == theta  # the caller's options are not changed


def test_escalation_without_options_solves_to_order_one_and_a_half(monkeypatch):
    assert _solve_options_seen(monkeypatch, None) == [0.5, 0.5]


def test_escalation_at_order_one_and_a_half_takes_fewer_products():
    # The same escalation at theta = 1 and at the default 0.5: the same
    # ranks, verdict and cut, and fewer Hessian products at 0.5.
    L = laplacian(_ring_with_chords(60, seed=3))
    runs = {theta: rank_escalation(L, opts=SolverOptions(tcg_theta=theta),
                                   rng=np.random.default_rng(4))
            for theta in (1.0, None)}
    products = {theta: sum(run.counters["hess_evals"] for run in res.histories)
                for theta, res in runs.items()}
    assert runs[1.0].certified and runs[None].certified
    assert runs[1.0].rank_used == runs[None].rank_used
    assert runs[1.0].cut_value == runs[None].cut_value
    assert products[None] < products[1.0]


def test_escalation_logs_one_debug_record_per_rank(caplog):
    L = laplacian(_weighted_gnp(10, seed=0))
    with caplog.at_level(logging.DEBUG, logger="riemopt.maxcut.solve"):
        res = rank_escalation(L, r0=2, rng=np.random.default_rng(2))
    messages = [r.getMessage() for r in caplog.records if r.name == "riemopt.maxcut.solve"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == "riemopt.maxcut.solve")
    assert len(messages) == len(res.histories) == 2
    assert messages[0] == (
        "rank 2: 11 iterations, stop gradient_tolerance, 30 Hessian products, "
        "lambda_min -2.453213e-01, 1 eigenvectors used, certified False"
    )
    assert messages[1].startswith("rank 4: 6 iterations, stop certified, 28 Hessian products, "
                                  "lambda_min ")
    assert messages[1].endswith(", 0 eigenvectors used, certified True")
    # Each record's stop reason and product count are its solve's own.
    for message, run in zip(messages, res.histories):
        assert f", stop {run.stop_reason}, {run.counters['hess_evals']} Hessian products," in message


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


@pytest.mark.parametrize("call, kwargs, message", [
    (rank_escalation, {"trials": 0}, "rank_escalation: trials must be >= 1"),
    (rank_escalation, {"solver": "bogus"}, "solver must be one of tr, cg, sd"),
    (solve_rank_r, {"r": 2, "solver": "bogus"}, "solver must be one of tr, cg, sd"),
])
def test_bad_escalation_arguments_fail_before_any_problem_is_built(
    monkeypatch, call, kwargs, message
):
    # trials=0 used to run the first rank's whole solve before round_cut
    # raised, and an unknown solver raised KeyError.
    def must_not_run(*args):
        raise AssertionError("build_problem called")

    monkeypatch.setattr(maxcut_solve, "build_problem", must_not_run)
    with pytest.raises(ValueError, match=message):
        call(laplacian(k5()), **kwargs)


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


@pytest.mark.parametrize("solver", ["sd", "cg", "tr"])
def test_escalation_stops_the_certifying_rank_on_the_certificate(solver):
    # Rank 2 is uncertified and runs to the gradient tolerance; rank 4
    # certifies, and its solve ends on the Cholesky test, short of the
    # tolerance but past the square-root gate.
    L = laplacian(_weighted_gnp(20, seed=1))
    res = rank_escalation(L, r0=2, rng=np.random.default_rng(2), solver=solver)
    assert res.certified and res.rank_used == 4
    assert [run.x_final.shape[1] for run in res.histories] == [2, 4]
    assert [run.stop_reason for run in res.histories] == ["gradient_tolerance", "certified"]
    assert 1e-6 < res.histories[-1].grad_norm_final <= 1e-3
    assert certify(L, res.histories[-1].x_final)[0]
    assert res.cut_value <= res.upper_bound


def test_escalation_asks_the_callers_stop_callback_first():
    seen = []

    def stop(record, x):
        seen.append(x.shape)
        return "mine" if record.iteration == 2 else None

    L = laplacian(_weighted_gnp(20, seed=1))
    res = rank_escalation(L, r0=2, opts=SolverOptions(stop_callback=stop),
                          rng=np.random.default_rng(2))
    assert [run.stop_reason for run in res.histories] == ["mine"] * len(res.histories)
    assert [run.history[-1].iteration for run in res.histories] == [2] * len(res.histories)
    assert seen[:3] == [(20, 2)] * 3


@st.composite
def _small_graph(draw):
    """G(n, p) on 2..40 nodes with unit or integer weights 1..9, drawn by a
    seeded generator."""
    n = draw(st.integers(2, 40))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(i, j, float(rng.integers(1, 10)) if weighted else 1.0)
             for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph.from_edges(n, edges)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_small_graph(), st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
def test_escalation_certificate_stop_keeps_the_certificate(g, r0, seed):
    # Only the rank that certifies may end on the certificate; certify
    # still holds where it ended, and the bound stays within the slack of
    # the relaxation's value at the final Y.  A rank-2 start escalates
    # more often.  The bound holds up to the eigensolver's rounding: on a
    # single edge it can read 1 - 1e-16 against the cut 1.
    L = laplacian(g)
    tol = 1e-6
    res = rank_escalation(L, r0=r0, rng=np.random.default_rng(seed), tol=tol)
    for run in res.histories[:-1]:
        assert run.stop_reason in ("gradient_tolerance", "max_iter")
    Y = res.histories[-1].x_final
    assert res.certified and certify(L, Y, tol)[0]
    rounding = 1e-12 * max(1.0, float(np.abs(L).sum()))
    assert res.cut_value <= res.upper_bound + rounding
    value = float(np.sum((L @ Y) * Y)) / 4.0
    assert res.upper_bound - value <= g.n * tol * np.linalg.norm(L, 1) / 4.0 + rounding


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


@pytest.mark.parametrize("graph, code", [("k3", 0), ("missing", 1)])
def test_console_script_exits_with_the_cli_code(tmp_path, monkeypatch, capsys, graph, code):
    # main() is the riemopt-maxcut script of pyproject.toml.
    path = _write_k3(tmp_path) if graph == "k3" else str(tmp_path / "missing.txt")
    monkeypatch.setattr(sys, "argv", ["riemopt-maxcut", "solve", "--graph", path,
                                      "--escalate", "--out", "json", "--timing", "none"])
    with pytest.raises(SystemExit) as exit_:
        maxcut_main()
    assert exit_.value.code == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["certified"] is True
    else:
        assert out == "" and err.startswith("error:")


def test_cli_iterations_do_not_count_the_iteration_zero_record(tmp_path, capsys):
    # Three steps make four history records; the CLI used to print 4.
    hist = tmp_path / "hist.csv"
    code = run_cli(["solve", "--graph", _write_k3(tmp_path), "--rank", "2", "--max-iter", "3",
                    "--history", str(hist), "--out", "csv", "--timing", "none"])
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert code == 0
    assert fields["iterations"] == "3"
    records = [line.split(",") for line in hist.read_text().splitlines()[1:]]
    assert [rec[0] for rec in records] == ["0", "1", "2", "3"]
    assert all(float(rec[4]) > 0 for rec in records[1:])  # each a real step


def test_cli_max_iter_zero_solves_nothing(tmp_path, capsys):
    code = run_cli(["solve", "--graph", _write_k3(tmp_path), "--max-iter", "0",
                    "--out", "json", "--timing", "none"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 0


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

    def infinite_cut(L, *args, **kwargs):  # the CLI passes L folded
        run = RunResult(None, -math.inf, math.inf, "nonfinite", [])
        return CutResult(np.ones(L.Lh.shape[0]), math.inf, None, False, 2, [run])

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
        (["solve", "--max-iter=-1"], "--max-iter: must be >= 0"),
        (["solve", "--max-iter", "2.5"], "--max-iter: invalid int value"),
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


@pytest.mark.parametrize("rank, first", [(None, 4), ("2", 2), ("1", 2), ("3", 3)])
def test_cli_escalation_starts_at_rank_four_unless_given(tmp_path, capsys, monkeypatch,
                                                         rank, first):
    # Without --rank, --escalate takes rank_escalation's r0; an explicit
    # --rank r still starts at max(r, 2).
    ranks = []
    real = maxcut_solve.solve_rank_r

    def spy(L, r, *args, **kwargs):
        ranks.append(r)
        return real(L, r, *args, **kwargs)

    monkeypatch.setattr(maxcut_solve, "solve_rank_r", spy)
    g = _ring_with_chords(20, seed=1)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{i} {j} {w}\n" for i, j, w in g.edges))
    argv = ["solve", "--graph", str(graph), "--escalate", "--seed", "3", "--out", "json",
            "--timing", "none"] + ([] if rank is None else ["--rank", rank])
    assert run_cli(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert ranks[0] == first and out["rank_used"] == ranks[-1]
    assert out["certified"] is True


def test_cli_plain_solve_defaults_to_rank_two_on_a_triangle(tmp_path, capsys):
    # The escalation default of 4 exceeds K3's 3 nodes; a plain solve keeps
    # rank 2, so it must not be rejected.
    code = run_cli(["solve", "--graph", _write_k3(tmp_path), "--out", "json",
                    "--timing", "none"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    out = json.loads(captured.out)
    assert out["rank_used"] == 2 and out["cut"] == pytest.approx(2.0)


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


# --- the folded Laplacian ----------------------------------------------------


@st.composite
def _graph_with_zeros(draw):
    """G(n, 0.4) on 2..30 nodes with unit, integer (1..9) or two-decimal
    weights, about a sixth of its edges of weight 0 and up to a third of its
    nodes isolated."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["unit", "integer", "decimal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    isolated = set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n // 3 + 1)),
                              replace=False).tolist())
    weight = {"unit": lambda: 1.0, "integer": lambda: float(rng.integers(1, 10)),
              "decimal": lambda: float(rng.integers(1, 1000)) / 100.0}[kind]
    edges = [(i, j, 0.0 if rng.random() < 1 / 6 else weight())
             for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if i not in isolated and j not in isolated and rng.random() < 0.4]
    return Graph.from_edges(n, edges)


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_graph_with_zeros(), st.integers(1, 6), st.sampled_from([1e-6, 1e-2, 10.0]),
       st.integers(0, 2**32 - 1))
def test_dense_and_folded_laplacian_give_the_same_bits(g, r, tol, seed):
    # Each public function, from a dense L and from the operator, against
    # its formula in L itself (the form these functions took before L was
    # folded): the same bits, the signs of zeros included.
    L = laplacian(g)
    op = FoldedLaplacian(L)
    r = min(r, g.n)
    rng = np.random.default_rng(seed)
    Y = build_problem(L, r).manifold.rand_point(rng)
    U = rng.standard_normal(Y.shape)

    # build_problem: cost, egrad and ehess at Y, each from its own copy of
    # Lh = L * -0.5.
    Lh = L * -0.5
    expected = _bits(float(np.vdot(Y, Lh @ Y)) / 2.0, Lh @ Y, Lh @ U)
    for form in (L, op):
        p = build_problem(form, r)
        assert _bits(p.cost(Y, {}), p.egrad(Y, {}), p.ehess(Y, U)) == expected

    # round_cut: the first best of the trials, and its value s'Ls/4.
    S = np.where(Y @ np.random.default_rng(seed).standard_normal((7, r)).T >= 0, 1.0, -1.0)
    s = S[:, int(np.argmax((S * (L @ S)).sum(axis=0)))].copy()
    for form in (L, op):
        got_s, got_value = round_cut(form, Y, 7, np.random.default_rng(seed))
        assert _bits(got_s, got_value) == _bits(s, float(s @ L @ s) / 4.0)

    # certify: verdict, lambda_min, bound and eigenvectors.
    lyy = (L @ Y) * Y
    dual = np.diag(np.sum(lyy, axis=1)) - L
    evals, evecs = np.linalg.eigh(dual)
    threshold = -tol * (float(np.linalg.norm(L, 1)) or 1.0)
    allowance = np.finfo(float).eps * (
        g.n * g.n * float(np.linalg.norm(dual, 1)) + (g.n + 1) * r * float(np.sum(np.abs(lyy)))
    )
    bound = (float(np.sum(lyy)) - g.n * min(float(evals[0]), 0.0) + allowance) / 4.0
    V = evecs[:, : int(np.searchsorted(evals, threshold))]
    for form in (L, op):
        certified, lam_min, got_bound, got_V = certify(form, Y, tol)
        assert certified is (float(evals[0]) >= threshold)
        assert _bits(lam_min, got_bound, got_V) == _bits(evals[0], bound, V)

    # The Cholesky stop: certified exactly when S - threshold I factors.
    try:
        np.linalg.cholesky(dual - threshold * np.eye(g.n))
        verdict = "certified"
    except np.linalg.LinAlgError:
        verdict = None
    stop = maxcut_solve._certificate_stop(op, tol, SolverOptions())
    assert stop(SimpleNamespace(grad_norm=0.0), Y) == verdict


def test_escalation_builds_one_problem_per_solve(monkeypatch):
    # One build per rank's solve; the warm start between ranks builds none.
    built = []
    real = maxcut_solve.build_problem

    def spy(L, r):
        built.append(r)
        return real(L, r)

    monkeypatch.setattr(maxcut_solve, "build_problem", spy)
    monkeypatch.setattr(maxcut_solve, "certify", _never_certified)  # a step-off at each rank
    L = laplacian(_ring_with_chords(20, seed=3))
    res = rank_escalation(L, r0=2, opts=SolverOptions(max_iter=3), rng=np.random.default_rng(4))
    assert len(built) == len(res.histories) == 5
    assert built == [run.x_final.shape[1] for run in res.histories]


def _held_bytes(fn):
    """fn's result and the bytes that stay allocated while it is kept."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_problem_and_certificate_of_the_operator_hold_no_n_by_n_array():
    # One n x n array is 2 MB here; a problem built on the operator shares
    # its Lh, and certify's V does not keep the whole eigenvector matrix.
    n = 500
    op = FoldedLaplacian(laplacian(_ring_with_chords(n, seed=1)))
    p, held = _held_bytes(lambda: build_problem(op, 4))
    assert p.egrad(np.ones((n, 4)), {}).shape == (n, 4)
    assert held < n * n * 8 / 10
    Y = p.manifold.rand_point(np.random.default_rng(2))
    (certified, _, _, V), held = _held_bytes(lambda: certify(op, Y))
    assert not certified and V.shape[1] >= 1
    assert held - V.nbytes < n * n * 8 / 10
