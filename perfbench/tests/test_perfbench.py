"""Tests of the benchmark itself: tracing changes no result, per-layer
counts repeat, every workload runs at a tiny size, and the command refuses
to run without the library sources.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import tracing
import workloads
from riemopt import SolverOptions
from riemopt.maxcut import Graph, laplacian
from riemopt.maxcut.cli import run_cli
from riemopt.maxcut.solve import rank_escalation


def _graph(tmp_path, n=40, deg=4, weighted=True, seed=3):
    edges = inputs.gnm_edges(n, deg, np.random.default_rng(seed), weighted=weighted)
    path = tmp_path / "g.txt"
    inputs.write_edge_list(path, n, edges)
    return path, n, edges


def test_gnm_edges_are_seeded_and_simple(tmp_path):
    a = inputs.gnm_edges(50, 6, np.random.default_rng(1), weighted=True)
    b = inputs.gnm_edges(50, 6, np.random.default_rng(1), weighted=True)
    assert a == b
    assert len(a) == 150 and len({(i, j) for i, j, _ in a}) == 150
    assert all(1 <= i < j <= 50 and w in range(1, 10) for i, j, w in a)
    path, n, edges = _graph(tmp_path)
    assert path.read_text().splitlines()[0] == f"p {n} {len(edges)}"


@pytest.mark.parametrize("M", inputs.suite_manifolds(tiny=True), ids=lambda M: M.name)
def test_quadratic_gradient_matches_cost(M):
    p = inputs.quadratic_problem(M, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    g = M.egrad2rgrad(x, p.egrad(x))
    t = 1e-6
    slope = (p.cost(M.retract(x, u, t)) - p.cost(M.retract(x, u, -t))) / (2 * t)
    assert slope == pytest.approx(M.inner(x, g, u), rel=1e-5, abs=1e-7)


def _escalate(L):
    return rank_escalation(L, opts=SolverOptions(), rng=np.random.default_rng(5))


def test_tracing_changes_no_result(tmp_path):
    path, n, edges = _graph(tmp_path)
    L = laplacian(Graph.from_edges(n, edges))
    argv = ["solve", "--graph", str(path), "--escalate", "--seed", "2",
            "--timing", "none", "--out", "json"]

    def cli():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(argv) == 0
        return json.loads(out.getvalue())

    plain, plain_cli = _escalate(L), cli()
    tracer = tracing.Tracer()
    with tracer:
        traced, traced_cli = _escalate(L), cli()
    assert tracer.metrics(1, [1.0])["maxcut.rank_steps"][0] > 0
    assert traced_cli == plain_cli
    assert traced.cut_value == plain.cut_value
    assert traced.upper_bound == plain.upper_bound
    assert traced.rank_used == plain.rank_used
    assert traced.total_iterations == plain.total_iterations
    assert [h.counters for h in traced.histories] == [h.counters for h in plain.histories]

    p = inputs.quadratic_problem(inputs.suite_manifolds(tiny=True)[5], np.random.default_rng(4))
    x0 = p.manifold.rand_point(np.random.default_rng(6))
    for name in workloads.SUITE_SOLVERS:
        solver = getattr(sys.modules["riemopt.solvers"], name)
        a = solver(p, x0, SolverOptions())
        with tracing.Tracer() as t:
            b = getattr(sys.modules["riemopt.solvers"], name)(t.trace_problem(p), x0, SolverOptions())
        assert (b.counters, len(b.history), b.cost_final) == (a.counters, len(a.history), a.cost_final)


def test_tracer_restores_every_patch():
    before = {
        (m, a): getattr(sys.modules[m], a)
        for m in ("riemopt.maxcut.cli", "riemopt.maxcut.solve", "riemopt.solvers.descent",
                  "riemopt.solvers.trust_regions", "riemopt.problem", "riemopt.diagnostics")
        for a in dir(sys.modules[m]) if callable(getattr(sys.modules[m], a))
    }
    table = dict(sys.modules["riemopt.maxcut.solve"].SOLVERS)
    with tracing.Tracer():
        pass
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert after == before
    assert sys.modules["riemopt.maxcut.solve"].SOLVERS == table


def _run(tmp_path, name, trace, seed=1):
    r = run.Run(name, seed, 0, trace, tiny=True, work=tmp_path / "work", out=tmp_path / "out")
    r.execute()
    return r


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(tmp_path, name):
    r = _run(tmp_path, name, trace=False)
    assert r.attempted == len(r.ops) > 0
    assert r.wrong == 0
    assert all(r.op_walls) and len(r.setup_rounds) == run.SETUP_REPEATS
    if name.startswith("maxcut"):
        assert r.failed == 0 and r.cut_ratios
    metrics = r.end_to_end()
    assert all(value > 0 for value, _ in metrics.values())


def test_time_metrics_scale_each_run_by_its_probe():
    ref = run.PROBE_REFERENCE_S
    r = run.Run("manifold-suite", 1, 0, False)
    r.ops = [None] * 3
    r.op_walls = r.op_cpus = [[1.0, 3.0, 2.0], [0.5], [2.0, 2.0]]
    r.op_probes = [[ref, ref, 2 * ref], [ref / 2], [2 * ref, 4 * ref]]
    r.setup_rounds = [(0.4, ref), (0.9, 3 * ref), (1.0, ref)]
    m = r.end_to_end()
    assert m["wall_s"][0] == m["cpu_s"][0] == pytest.approx(1.0 + 1.0 + 0.75)
    assert m["solve_p50_ms"][0] == pytest.approx(1000.0)
    assert m["setup_s"][0] == pytest.approx(0.4)


def test_counts_do_not_depend_on_run_length(tmp_path):
    short = _run(tmp_path / "short", "manifold-suite", trace=False)
    long = run.Run("manifold-suite", 1, 3.0, False, tiny=True,
                   work=tmp_path / "long", out=tmp_path / "out")
    long.execute()
    assert max(len(t) for t in long.op_walls) > 1
    assert (long.attempted, long.failed) == (short.attempted, short.failed)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_layer_counts_repeat(tmp_path, name):
    first, second = _run(tmp_path, name, trace=True), _run(tmp_path, name, trace=True)
    counts = [{k: v for k, (v, unit) in r.layer.items()
               if unit in ("count", "ratio") and not k.startswith("trace.overhead")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0
    m = first.layer
    layers = sum(v for k, (v, _) in m.items() if k.startswith("layer."))
    assert layers + m["trace.unattributed_s"][0] == pytest.approx(m["trace.wall_s"][0])


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "manifold-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
