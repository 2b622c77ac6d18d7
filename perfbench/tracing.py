"""Outside-in span tracing of riemopt's layers.

The library is not modified.  :class:`Tracer` replaces public functions in
the riemopt modules that call them with wrappers that record one span per
call (name, start, end, parent span, op id), and wraps the callables of
manifold descriptors and problems with ``dataclasses.replace``.  Spans stay
in memory in flat arrays; :meth:`Tracer.metrics` turns them into per-layer
counts and self times, and :meth:`Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Manifold callables traced on every descriptor.
MANIFOLD_OPS = ("inner", "proj", "retract", "lincomb", "ehess2rhess", "transport", "egrad2rgrad")
USER_CALLABLES = ("cost", "egrad", "ehess")
TCG_STOPS = ("residual", "boundary", "negative_curvature", "max_inner")

# Layer of a span, by the prefix of its name.  The user callables are
# reported apart from the `problem` functions that call them.
LAYERS = (
    ("maxcut.cli.", "maxcut.cli"),
    ("graph.", "maxcut.graph"),
    ("maxcut.", "maxcut.solve"),
    ("solvers.", "solvers"),
    ("problem.user_", "user"),
    ("problem.", "problem"),
    ("manifolds.", "manifolds"),
    ("diagnostics.", "diagnostics"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _cacheable(args, kwargs) -> bool:
    """get_cost / get_gradient(p, x, store, token): a cache lookup needs both."""
    store = args[2] if len(args) > 2 else kwargs.get("store")
    token = args[3] if len(args) > 3 else kwargs.get("token")
    return store is not None and token is not None


class Tracer:
    """Records spans around riemopt calls while installed.

    ``op_id`` and ``pass_id`` are set by the caller before each operation;
    counters that come from return values (tCG stop flags, accepted steps,
    check verdicts) are kept per pass so their repeatability can be checked.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.pass_id = 0
        self.counters: dict[int, Counter] = {}
        self._patches: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters.setdefault(self.pass_id, Counter())[key] += n

    def wrap(self, name: str, fn, observe=None, flag=None, transform=None):
        """Span-recording wrapper around ``fn``.

        ``functools.wraps`` keeps the signature visible to
        ``inspect.signature``, which ProblemDef reads to decide whether a
        callable takes the scratch cache.  After the span closes,
        ``observe(result)`` runs and ``transform(result)`` replaces the
        result; ``flag(args, kwargs)`` marks the span.
        """
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.flag.append(1 if flag is not None and flag(args, kwargs) else 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result if transform is None else transform(result)

        return traced

    def trace_manifold(self, M):
        ops = {
            op: self.wrap(f"manifolds.{op}", getattr(M, op))
            for op in MANIFOLD_OPS
            if getattr(M, op) is not None
        }
        return dataclasses.replace(M, **ops)

    def trace_problem(self, p):
        fns = {
            fn: self.wrap(f"problem.user_{fn}", getattr(p, fn))
            for fn in USER_CALLABLES
            if getattr(p, fn) is not None
        }
        return dataclasses.replace(p, manifold=self.trace_manifold(p.manifold), **fns)

    # --- installing --------------------------------------------------------

    def patch(self, module_name: str, attr: str, name: str, **hooks):
        module = sys.modules[module_name]
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def install(self) -> "Tracer":
        """Patch every module that calls into a traced layer.

        ``riemopt.solvers.trust_regions`` as an attribute is the function, so
        solver modules are reached through ``sys.modules``.  Names imported
        with ``from ... import`` are patched in each importing module.
        """
        cli, solve = "riemopt.maxcut.cli", "riemopt.maxcut.solve"
        tr, descent = "riemopt.solvers.trust_regions", "riemopt.solvers.descent"
        problem, diagnostics = "riemopt.problem", "riemopt.diagnostics"

        self.patch(cli, "run_cli", "maxcut.cli.run_cli")
        self.patch(cli, "load_graph", "graph.load_graph")
        self.patch(cli, "laplacian", "graph.laplacian")
        self.patch(cli, "rank_escalation", "maxcut.escalation")
        for module in (cli, solve):
            self.patch(module, "solve_rank_r", "maxcut.solve_rank_r")
            self.patch(module, "round_cut", "maxcut.round_cut")
            self.patch(module, "certify", "maxcut.certify")
            self.patch(module, "build_problem", "maxcut.build_problem",
                       transform=self.trace_problem)

        solvers = sys.modules["riemopt.solvers"]
        table = sys.modules[solve].SOLVERS
        for key, attr in (("tr", "trust_regions"), ("cg", "conjugate_gradient"), ("sd", "steepest_descent")):
            wrapped = self.wrap(f"solvers.{attr}", getattr(solvers, attr), observe=self._on_run)
            self._patches.append((solvers, attr, getattr(solvers, attr)))
            setattr(solvers, attr, wrapped)
            self._patches.append((table, key, table[key]))
            table[key] = wrapped
        self.patch(tr, "tcg_subsolver", "solvers.tcg", observe=self._on_tcg)
        self.patch(descent, "backtracking_line_search", "solvers.line_search")

        for module in (problem, tr, descent, diagnostics, solve):
            mod = sys.modules[module]
            for fn in ("get_cost", "get_gradient", "get_hessian"):
                if hasattr(mod, fn):
                    cacheable = _cacheable if fn != "get_hessian" else None
                    self.patch(module, fn, f"problem.{fn}", flag=cacheable)
        self.patch(problem, "approx_hessian_fd", "problem.approx_hessian_fd")

        for fn in ("check_gradient", "check_hessian"):
            self.patch(diagnostics, fn, f"diagnostics.{fn}", observe=self._on_check)
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- observers ---------------------------------------------------------

    def _on_run(self, result) -> None:
        self.count("solvers.outer_iters", len(result.history))
        steps = [rec for rec in result.history if rec.rho is not None]
        self.count("solvers.tr.steps", len(steps))
        self.count("solvers.tr.accepted", sum(1 for rec in steps if rec.step_size > 0))

    def _on_tcg(self, result) -> None:
        _, _, stop, inner = result
        self.count(f"solvers.tcg.stop.{stop}")
        self.count("solvers.tcg.inner_iters", inner)

    def _on_check(self, report) -> None:
        self.count("diagnostics.checks")
        self.count("diagnostics.passed", int(bool(report.verdict)))

    # --- analysis ----------------------------------------------------------

    def metrics(self, passes: int, pass_walls) -> dict:
        """Per-pass per-layer metrics, as (value, unit) pairs.

        Counts are totals divided by ``passes``; times are means per pass.
        Layer self times plus ``trace.unattributed_s`` add up to
        ``trace.wall_s``, the mean traced pass wall time.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        flag = np.frombuffer(self.flag, dtype=np.int8).astype(bool)
        n, k = len(dur), max(len(self.names), 1)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time[:n]
        calls = np.bincount(nid, minlength=k)
        self_by_name = np.bincount(nid, weights=self_time, minlength=k)
        incl_by_name = np.bincount(nid, weights=dur, minlength=k)
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def ids(name):
            return self._name_ids.get(name, -1)

        def n_calls(name):
            i = ids(name)
            return int(calls[i]) if i >= 0 else 0

        def self_s(name):
            i = ids(name)
            return float(self_by_name[i]) if i >= 0 else 0.0

        def incl_s(name):
            i = ids(name)
            return float(incl_by_name[i]) if i >= 0 else 0.0

        def calls_under(child, parent_names):
            pids = [i for i in map(ids, parent_names) if i >= 0]
            return int(np.sum((nid == ids(child)) & np.isin(parent_name, pids)))

        total = Counter()
        for c in self.counters.values():
            total.update(c)

        def ratio(num, den):
            return num / den if den else 0.0

        # Cache hits: lookups with a store and token that reached no user callable.
        user_ids = [ids(f"problem.user_{fn}") for fn in USER_CALLABLES]
        is_user = np.isin(nid, user_ids)
        user_children = np.bincount(parent[is_user & has_parent], minlength=n)[:n]
        lookups = flag & np.isin(nid, [ids("problem.get_cost"), ids("problem.get_gradient")])
        hits = int(np.sum(lookups & (user_children == 0)))

        m = {}

        def put(key, value, unit):
            m[key] = (value / passes if unit != "ratio" else value, unit)

        put("graph.load_graph.s", incl_s("graph.load_graph"), "s")
        put("graph.laplacian.s", incl_s("graph.laplacian"), "s")
        for fn in USER_CALLABLES:
            put(f"problem.user_{fn}.calls", n_calls(f"problem.user_{fn}"), "count")
            put(f"problem.user_{fn}.self_s", self_s(f"problem.user_{fn}"), "s")
        put("problem.get_hessian.calls", n_calls("problem.get_hessian"), "count")
        put("problem.get_hessian.self_s", self_s("problem.get_hessian"), "s")
        put("problem.egrad_per_hess",
            ratio(calls_under("problem.user_egrad", ["problem.get_hessian"]), n_calls("problem.get_hessian")),
            "ratio")
        put("problem.cache_lookups", int(np.sum(lookups)), "count")
        put("problem.cache_hit_ratio", ratio(hits, int(np.sum(lookups))), "ratio")
        for op in MANIFOLD_OPS:
            put(f"manifolds.{op}.calls", n_calls(f"manifolds.{op}"), "count")
            put(f"manifolds.{op}.self_s", self_s(f"manifolds.{op}"), "s")
        put("solvers.outer_iters", total["solvers.outer_iters"], "count")
        put("solvers.tr.steps", total["solvers.tr.steps"], "count")
        put("solvers.tr.accept_ratio", ratio(total["solvers.tr.accepted"], total["solvers.tr.steps"]), "ratio")
        put("solvers.tcg.calls", n_calls("solvers.tcg"), "count")
        put("solvers.tcg.inner_iters", total["solvers.tcg.inner_iters"], "count")
        put("solvers.tcg.self_s", self_s("solvers.tcg"), "s")
        for stop in TCG_STOPS:
            put(f"solvers.tcg.stop.{stop}", total[f"solvers.tcg.stop.{stop}"], "count")
        put("solvers.line_search.calls", n_calls("solvers.line_search"), "count")
        put("solvers.line_search.cost_evals_per_call",
            ratio(calls_under("problem.get_cost", ["solvers.line_search"]), n_calls("solvers.line_search")),
            "ratio")
        put("maxcut.certify.calls", n_calls("maxcut.certify"), "count")
        put("maxcut.certify.s", incl_s("maxcut.certify"), "s")
        put("maxcut.round_cut.s", incl_s("maxcut.round_cut"), "s")
        put("maxcut.rank_steps", calls_under("maxcut.solve_rank_r", ["maxcut.escalation"]), "count")
        put("maxcut.escalation.self_s", self_s("maxcut.escalation"), "s")
        put("diagnostics.check_gradient.s", incl_s("diagnostics.check_gradient"), "s")
        put("diagnostics.check_hessian.s", incl_s("diagnostics.check_hessian"), "s")
        put("diagnostics.checks", total["diagnostics.checks"], "count")
        put("diagnostics.pass_ratio", ratio(total["diagnostics.passed"], total["diagnostics.checks"]), "ratio")

        layer_self = Counter()
        for name, i in self._name_ids.items():
            layer_self[layer_of(name)] += float(self_by_name[i])
        for _, layer in LAYERS:
            put(f"layer.{layer}.self_s", layer_self[layer], "s")
        wall = float(sum(pass_walls))
        put("trace.unattributed_s", wall - sum(layer_self.values()), "s")
        put("trace.wall_s", wall, "s")
        put("trace.spans", n, "count")
        return m

    def passes_agree(self, ops_per_pass: int) -> bool:
        """True when every pass made the same calls and counted the same
        results; op ids run from ``pass * ops_per_pass``."""
        op = np.frombuffer(self.op, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        k = len(self.names)
        per_pass = [
            np.bincount(nid[op // ops_per_pass == i], minlength=k)
            for i in range(int(op.max()) // ops_per_pass + 1 if len(op) else 0)
        ]
        counters = list(self.counters.values())
        return all(np.array_equal(c, per_pass[0]) for c in per_pass) and all(
            c == counters[0] for c in counters
        )

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
