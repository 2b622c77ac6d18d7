"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload turns a seed into a fixed list of operations (one pass).  Each
operation is a closed-loop call into riemopt; its check runs after each
run, outside the timed region, and returns a :class:`Failure` or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import riemopt.diagnostics
import riemopt.maxcut.cli
import riemopt.maxcut.solve
import riemopt.solvers
from riemopt.maxcut import Graph, cut_value_from_edges
from riemopt.solvers import GRADIENT_TOLERANCE, SolverOptions

import inputs

# Relative tolerance for comparing two computations of the same cut weight,
# and for cut <= bound when the relaxation is tight.
CUT_RTOL = 1e-9


@dataclass
class Failure:
    """A failed check.  ``wrong`` marks an output that disagrees with the
    benchmark's own recomputation; otherwise the op reported that it did
    not reach its goal (exit code, certificate, stop reason, check verdict).
    """

    message: str
    wrong: bool = False


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[Failure]]
    # Filled by check(): cut / bound of a max-cut op, for cut_ratio.
    cut_ratio: Optional[float] = None


# --- max-cut -----------------------------------------------------------------


class CutTap:
    """Keeps the sign vectors that round_cut returns during one CLI solve.

    The CLI prints only the cut weight; the check needs the sign vector to
    recompute that weight edge by edge.  rank_escalation looks round_cut up
    in riemopt.maxcut.solve at call time, so replacing it there is enough.
    The tap adds one list append per rank step.
    """

    def __init__(self):
        self.rounds: list = []
        self._original = None

    def install(self):
        solve = riemopt.maxcut.solve
        self._original = solve.round_cut
        original = self._original

        def round_cut(L, Y, trials, rng):
            s, val = original(L, Y, trials, rng)
            self.rounds.append((s, val))
            return s, val

        solve.round_cut = round_cut

    def uninstall(self):
        riemopt.maxcut.solve.round_cut = self._original


def _reject_constant(token):  # json.loads would accept NaN and Infinity
    raise ValueError(f"non-finite number {token} in JSON output")


def _maxcut_op(label: str, path: str, n: int, edges, seed: int, tap: CutTap) -> Op:
    argv = ["solve", "--graph", path, "--escalate", "--seed", str(seed), "--out", "json"]

    def run():
        tap.rounds = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = riemopt.maxcut.cli.run_cli(argv)
        return code, out.getvalue(), tap.rounds

    def check(result):
        code, text, rounds = result
        if code != 0:
            return Failure(f"exit code {code}")
        try:
            fields = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return Failure(f"invalid JSON output: {exc}", wrong=True)
        if fields.get("certified") is not True:
            return Failure("not certified")
        cut, bound = fields["cut"], fields["bound"]
        if not rounds:
            return Failure("no rounding was recorded", wrong=True)
        s, best = max(rounds, key=lambda sv: sv[1])
        if best != cut:
            return Failure(f"printed cut {cut} is not the best rounded cut {best}", wrong=True)
        by_edges = cut_value_from_edges(Graph.from_edges(n, edges), s)
        if abs(by_edges - cut) > CUT_RTOL * max(1.0, abs(cut)):
            return Failure(f"printed cut {cut} != edge-by-edge cut {by_edges}", wrong=True)
        if cut > bound + CUT_RTOL * max(1.0, abs(bound)):
            return Failure(f"cut {cut} exceeds bound {bound}", wrong=True)
        op.cut_ratio = cut / bound
        return None

    op = Op(label, run, check)
    return op


def _rng(seed: int, stream: int):
    """Generator for one workload's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _write_graph(workdir, k, n, deg, weighted, rng):
    edges = inputs.gnm_edges(n, deg, rng, weighted=weighted)
    path = os.path.join(workdir, f"graph{k:04d}.txt")
    inputs.write_edge_list(path, n, edges)
    return path, edges


def maxcut_large(seed: int, workdir: str, tiny: bool, tap: CutTap, trace=None):
    """Escalating CLI solves on 48 G(n, m) graphs, n = 200, degree 6.

    L @ U is the largest user-callable cost at this size.  One solve takes
    from 0.13 to 0.85 s depending on the draw, so it takes this many graphs
    to keep the sum steady across seeds, and each must still run more than
    once in a run.  One n = 1000 solve takes 9 to 32 s and one n = 400
    solve 0.6 to 2.2 s: too few would fit.
    """
    rng = _rng(seed, 1)
    n, count = (60, 1) if tiny else (200, 48)
    ops = []
    for k in range(count):
        path, edges = _write_graph(workdir, k, n, 6, False, rng)
        ops.append(_maxcut_op(f"G({n}) #{k}", path, n, edges, int(rng.integers(2**31)), tap))
    return ops


def maxcut_small_batch(seed: int, workdir: str, tiny: bool, tap: CutTap, trace=None):
    """Many escalating CLI solves on small graphs, half of them weighted.

    Sizes and degrees are stratified rather than drawn: every n in
    20, 30, ..., 120 meets every degree in 3..8, once with unit and once
    with integer weights (132 graphs).  Solve time grows steeply with n, so
    independent draws made a pass's total work swing by about 10 % between
    seeds; the seed still draws every edge, weight and solver start.  Two
    graphs per cell would steady the total over seeds, but leave each
    graph only two or three runs in a run, whose medians then spread more.
    """
    rng = _rng(seed, 2)
    sizes = [(n, deg, weighted) for n in range(20, 121, 10) for deg in range(3, 9)
             for weighted in (False, True)]
    if tiny:
        sizes = [(20, 3, False), (30, 4, True)]
    ops = []
    for k in rng.permutation(len(sizes)):
        n, deg, weighted = sizes[k]
        path, edges = _write_graph(workdir, k, n, deg, weighted, rng)
        label = f"G({n}, deg {deg}{', weighted' if weighted else ''}) #{k}"
        ops.append(_maxcut_op(label, path, n, edges, int(rng.integers(2**31)), tap))
    return ops


# --- manifold suite ------------------------------------------------------------

SUITE_SOLVERS = ("steepest_descent", "conjugate_gradient", "trust_regions")


def _check_op(label, check_name, p, seed) -> Op:
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fn = getattr(riemopt.diagnostics, check_name)
            return fn(p, rng=np.random.default_rng(seed))

    def check(report):
        if report.verdict:
            return None
        return Failure(f"{check_name} gave FAIL on the exact derivative: slope "
                       f"{report.fitted_slope:.3f}, expected {report.expected_slope_range}, "
                       f"window {report.window[0]:.2e}..{report.window[1]:.2e}"
                       + "".join(f"; {flag}" for flag in report.flags))

    return Op(f"{label} {check_name}", run, check)


def _solver_op(label, solver_name, p, x0) -> Op:
    opts = SolverOptions(max_iter=5000)

    def run():
        return getattr(riemopt.solvers, solver_name)(p, x0, opts)

    def check(result):
        if result.stop_reason != GRADIENT_TOLERANCE:
            return Failure(f"{solver_name} stopped by {result.stop_reason} "
                           f"at gradient norm {result.grad_norm_final:.3e}")
        return None

    return Op(f"{label} {solver_name}", run, check)


def manifold_suite(seed: int, workdir: str, tiny: bool, tap: CutTap, trace=None):
    """Quadratic costs on every factory: derivative checks, then SD, CG, TR.

    16 problems per factory: a fixed-rank solve still takes several times
    as long on some draws as on others, and it takes this many to keep the
    suite's total steady over seeds.  ``trace`` wraps each problem's callables for the traced run; the
    max-cut workloads ignore it, because their problems are built inside
    the library and traced there.
    """
    rng = _rng(seed, 3)
    sets = 1 if tiny else 16
    ops = []
    for k in range(sets):
        for M in inputs.suite_manifolds(tiny):
            p = inputs.quadratic_problem(M, rng)
            if trace is not None:
                p = trace(p)
            label = f"{M.name} #{k}"
            ops.append(_check_op(label, "check_gradient", p, int(rng.integers(2**31))))
            if p.has_exact_hessian():
                ops.append(_check_op(label, "check_hessian", p, int(rng.integers(2**31))))
            x0 = M.rand_point(rng)
            ops.extend(_solver_op(label, name, p, x0) for name in SUITE_SOLVERS)
    return ops


WORKLOADS = {
    "maxcut-large": maxcut_large,
    "maxcut-small-batch": maxcut_small_batch,
    "manifold-suite": manifold_suite,
}
