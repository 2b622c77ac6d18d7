"""Command line interface for the max-cut application.

Subcommands:
    solve   optimize the rank-r relaxation (optionally escalating the rank
            until certified) and round to a cut
    check   run the gradient and Hessian slope checks on the built problem

Exit codes: 0 success, 1 input error, 2 escalation requested but the
result could not be certified.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from ..diagnostics import check_gradient, check_hessian
from ..solvers import SolverOptions, history_to_csv
from .graph import laplacian, load_graph
from .solve import SOLVERS, CutResult, FoldedLaplacian, build_problem, certify, rank_escalation
from .solve import round_cut, solve_rank_r


def _checked(kind, ok, requirement: str):
    """argparse type: ``kind(text)``, rejected unless ``ok`` holds for it."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_TOLERANCE = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemopt-maxcut",
        description="Max-cut via Riemannian optimization of the rank-r "
        "elliptope relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the relaxation and round to a cut")
    solve.add_argument("--graph", required=True, help="edge-list file")
    solve.add_argument("--rank", type=_POSITIVE_INT, help="relaxation rank r (default 2); "
                       "with --escalate, the first rank, at least 2 (default 4)")
    solve.add_argument(
        "--escalate", action="store_true", help="increase r until certified"
    )
    solve.add_argument("--trials", type=_POSITIVE_INT, default=100, help="rounding trials per column added")
    solve.add_argument("--tol", type=_TOLERANCE, default=1e-6, help="certification tol")
    solve.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    solve.add_argument("--solver", choices=tuple(SOLVERS), default="tr")
    solve.add_argument("--out", choices=("text", "json", "csv"), default="text")
    solve.add_argument("--history", help="write per-iteration CSV history here")
    solve.add_argument(
        "--timing",
        choices=("wall", "none"),
        default="wall",
        help="'none' reports zero elapsed times (reproducible output)",
    )
    solve.add_argument("--max-iter", type=_NONNEGATIVE_INT, default=1000)

    check = sub.add_parser("check", help="derivative checks on the built problem")
    check.add_argument("--graph", required=True)
    check.add_argument("--rank", type=_POSITIVE_INT, default=2)
    check.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
    return parser


def _solver_options(args) -> SolverOptions:
    opts = SolverOptions(max_iter=args.max_iter)
    if args.timing == "none":
        opts.clock = lambda: 0.0
    return opts


def _emit_solve(args, result_fields: dict, histories) -> None:
    if args.history:
        records = [rec for run in histories for rec in run.history]
        history_to_csv(records, args.history)
    if args.out == "json":
        print(json.dumps(result_fields, allow_nan=False))
    elif args.out == "csv":
        print(",".join(result_fields.keys()))
        print(",".join(str(v) for v in result_fields.values()))
    else:
        for key, value in result_fields.items():
            print(f"{key}: {value}")


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command == "check" and args.rank < 2:
        print("error: check needs --rank >= 2: the rank-1 elliptope has dimension 0, "
              "so there is no tangent direction to test", file=sys.stderr)
        return 1

    try:
        g = load_graph(args.graph)
        try:
            L = FoldedLaplacian(laplacian(g))  # folded once; the dense L is dropped
        except MemoryError:  # a node index or header n far beyond the edges
            raise ValueError(
                f"the dense {g.n} x {g.n} Laplacian of this graph does not fit in memory"
            ) from None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not (args.command == "solve" and args.escalate):
        args.rank = args.rank or 2  # a plain solve's default
        if args.rank > g.n:
            print(f"error: --rank {args.rank} exceeds the {g.n} nodes of the graph",
                  file=sys.stderr)
            return 1
    rng = np.random.default_rng(args.seed)

    if args.command == "check":
        p = build_problem(L, args.rank)
        grad_report = check_gradient(p, rng=rng)
        hess_report = check_hessian(p, rng=rng)
        print("gradient check:")
        print(grad_report.summary())
        print("hessian check:")
        print(hess_report.summary())
        return 0 if (grad_report.verdict and hess_report.verdict) else 1

    opts = _solver_options(args)
    try:
        if args.history:  # fail on an unwritable path before solving
            open(args.history, "a").close()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_start = time.perf_counter()
    if args.escalate:
        result = rank_escalation(
            L,
            **({} if args.rank is None else {"r0": max(args.rank, 2)}),
            opts=opts,
            rng=rng,
            trials=args.trials,
            tol=args.tol,
            solver=args.solver,
        )
    else:
        Y, run = solve_rank_r(L, args.rank, opts, rng, solver=args.solver)
        s, cut = round_cut(L, Y, args.trials, rng)
        certified, _, bound, _ = certify(L, Y, args.tol)
        result = CutResult(s, cut, bound, certified, args.rank, [run])

    elapsed = 0.0 if args.timing == "none" else time.perf_counter() - wall_start
    fields = {
        "n": g.n,
        "rank_used": result.rank_used,
        "cost": result.histories[-1].cost_final,
        "cut": result.cut_value,
        "bound": result.upper_bound,
        "certified": result.certified,
        "seed": args.seed,
        "iterations": result.total_iterations,
        "time_seconds": elapsed,
    }
    try:
        _emit_solve(args, fields, result.histories)
    except (OSError, ValueError) as exc:  # ValueError: a NaN or infinity in the JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.escalate and not result.certified:
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())
