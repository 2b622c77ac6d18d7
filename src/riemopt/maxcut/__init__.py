from .graph import (
    Graph,
    brute_force_max_cut,
    cut_value_from_edges,
    cut_value_from_signs,
    laplacian,
    load_graph,
)
from .solve import (
    CutResult,
    build_problem,
    certify,
    rank_escalation,
    round_cut,
    solve_rank_r,
)
from .cli import main, run_cli

__all__ = [
    "Graph",
    "load_graph",
    "laplacian",
    "cut_value_from_signs",
    "cut_value_from_edges",
    "brute_force_max_cut",
    "CutResult",
    "build_problem",
    "solve_rank_r",
    "round_cut",
    "certify",
    "rank_escalation",
    "run_cli",
    "main",
]
