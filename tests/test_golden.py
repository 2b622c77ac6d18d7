"""Golden outputs of the escalating max-cut CLI on small seeded graphs.

The expected values were recorded before the trust-region inner loop was
tuned for per-call cost.  Any change to them must come with an explanation
of the floating-point drift that caused it.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from riemopt.maxcut import run_cli


def _gnm_edge_list(n, deg, seed, weights):
    """G(n, m) with m = n * deg / 2, as edge-list text; weights are unit,
    integers 1..9 ("int") or two-decimal values in [0.5, 2.5] ("dec")."""
    rng = np.random.default_rng(seed)
    m = n * deg // 2
    chosen = set()
    while len(chosen) < m:
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            chosen.add((int(min(i, j)), int(max(i, j))))
    if weights == "int":
        w = rng.integers(1, 10, size=m).astype(float)
    elif weights == "dec":
        w = np.round(rng.uniform(0.5, 2.5, size=m), 2)
    else:
        w = np.ones(m)
    return "".join(f"{i} {j} {float(x)!r}\n" for (i, j), x in zip(sorted(chosen), w))


# (n, degree, seed, weights) -> fields of the JSON output, the CSV history's
# SHA-256 and its line count.  The three escalating cases were re-recorded
# when the rank schedule went from r + 1 to next_rank (2 -> 4 here, for
# n = 30, 40 and 60): rank_used is 4, the rank-4 solve starts from other
# columns, so its history differs, one case needs 22 iterations instead of
# 25, and cost and bound moved in the last digits (a different point of
# the same SDP optimum).  cut and certified did not move.  The same three
# bounds were re-pinned when the bound took in its weak-duality slack
# n |lambda_min(S)| / 4 (the certified lambda_min is slightly negative):
# they rose by 1.1e-9, 2.6e-8 and 4.0e-7; every other field, the CSV
# digests included, stayed the same.  All four `iterations` were re-pinned
# when the CLI stopped counting each solve's iteration-0 record: one less
# per rank solved (1 rank for n12, 2 for the others), with the same CSVs.
# n12, n30 and n40 were re-pinned when the truncated CG began to stop at
# tol_grad_norm / 100 instead of its superlinear target, which is far
# below that in the last iterations: those tCG calls take fewer inner
# steps and end at a larger, still converged, gradient norm (n40's rank-2
# solve: 28 -> 20 inner steps, 6.3e-10 -> 5.2e-9), so the next rank starts
# from another point.  cost and bound moved by at most 1.1e-10 relative,
# and the CSV digests changed; cut, certified, rank_used, iterations and
# the CSV line counts did not.  n60 did not move.  All four were re-pinned
# when escalation began at rank 4 instead of 2: each graph now solves one
# rank, 4, from a random start (n12 certified at rank 2 before, so its
# rank_used went 2 -> 4), and its first rank is rounded with trials
# hyperplanes per column.  iterations went 9 -> 7, 26 -> 12, 20 -> 12 and
# 20 -> 16; the bounds moved by +2.2e-15, +2.4e-11, -2.4e-10 and -4.4e-9
# relative (another point of the same SDP optimum), well inside the
# n tol ||L||_1 / 4 slack of a certified bound (2e-6 relative or more
# here); cost moved in the last digits, and the CSV digests and line
# counts changed with the histories.  cut and certified did not move.
# All four were re-pinned again when an escalating solve began to stop at
# the first point, with gradient norm at most sqrt(tol_grad_norm), whose
# dual matrix passes a Cholesky test of the certificate: each solve ends
# one iteration sooner (7 -> 6, 12 -> 11, 12 -> 11, 16 -> 15), at a less
# converged point of the same optimum.  The bounds rose by 2.1e-8, 2.0e-7,
# 1.0e-7 and 4.3e-7 relative, 1 %, 10 %, 5 % and 17 % of each graph's
# n tol ||L||_1 / 4 slack; cost moved by 2.3e-7 relative on n12 and by
# 1.6e-10 or less on the others, and the CSV digests and line counts
# changed with the histories.  cut, certified and rank_used did not move.
# All four were re-pinned again when escalating solves began to ask the
# truncated CG for an order-1.5 target (tcg_theta 0.5 instead of 1), and
# when certify's bound took in an allowance for eigh's and the trace
# sum's rounding (below 1e-13 of each bound here).  The solves take other
# inner steps, so iterations went 6 -> 7, 11 -> 12, 11 -> 11 and 15 -> 14,
# and each ends at another certified point of the same optimum.  The
# bounds moved by -2.1e-8, -1.0e-7, +2.0e-6 and -2.0e-7 relative (-1 %,
# -5 %, +88 % and -8 % of each graph's n tol ||L||_1 / 4 slack; n40's
# bound now sits at 92 % of its slack above the relaxation's value, which
# the Cholesky stop allows); cost moved by 2.3e-7 relative on n12 and by
# 3.8e-10 or less on the others, and the CSV digests and line counts
# changed with the histories.  cut, certified and rank_used did not move.
GOLDEN = [
    (
        (12, 3, 1, "unit"),
        dict(cut=16.0, bound=16.00000000000839, certified=True, rank_used=4,
             iterations=7, cost=-15.999999999910568),
        "bb68ab550200ff9e706216d818e911eee12e54a5a28f85ecd07100ff36a9baff", 9,
    ),
    (
        (30, 5, 3, "int"),
        dict(cut=303.0, bound=314.142808708519, certified=True, rank_used=4,
             iterations=12, cost=-314.1427797360761),
        "787e05cd8d979cc541d2f1c00f7800823ed0598d8481277ab82294a8ba0075ca", 14,
    ),
    (
        (40, 6, 4, "dec"),
        dict(cut=153.61, bound=160.6847935468231, certified=True, rank_used=4,
             iterations=11, cost=-160.68445627701686),
        "5ad61ad1883d7892cfb0ebd3144ad77f1bb39bb367d5bb403102ba3e121346c5", 13,
    ),
    (
        (60, 3, 5, "unit"),
        dict(cut=80.0, bound=82.64207026886398, certified=True, rank_used=4,
             iterations=14, cost=-82.6420515080037),
        "61fa6eaabeb0516489a504ee677583cde39c0c1e0f5d3f69ac14c675e1c254f7", 16,
    ),
]


@pytest.mark.parametrize(
    "graph, expected, csv_sha256, csv_lines",
    GOLDEN,
    ids=[f"n{g[0]}-deg{g[1]}-{g[3]}" for g, *_ in GOLDEN],
)
def test_escalating_solve_matches_golden_output(
    tmp_path, capsys, graph, expected, csv_sha256, csv_lines
):
    n, deg, seed, weights = graph
    path, hist = tmp_path / "graph.txt", tmp_path / "history.csv"
    path.write_text(_gnm_edge_list(n, deg, seed, weights))
    code = run_cli(
        ["solve", "--graph", str(path), "--escalate", "--seed", str(seed),
         "--timing", "none", "--out", "json", "--history", str(hist)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in expected} == expected
    csv = hist.read_bytes()
    assert csv.count(b"\n") == csv_lines
    assert hashlib.sha256(csv).hexdigest() == csv_sha256


# --- solver histories on one seeded quadratic per dense factory ---------------

from riemopt import (  # noqa: E402
    SolverOptions,
    conjugate_gradient,
    elliptope_factory,
    euclidean_factory,
    grassmann_factory,
    oblique_factory,
    rotations_factory,
    spectrahedron_factory,
    sphere_factory,
    steepest_descent,
    stiefel_factory,
    trust_regions,
)

from _helpers import make_quadratic_problem  # noqa: E402

DENSE_FACTORIES = {
    "sphere": lambda: sphere_factory(6),
    "oblique": lambda: oblique_factory(4, 3),
    "stiefel": lambda: stiefel_factory(5, 2),
    "grassmann": lambda: grassmann_factory(5, 2),
    "rotations": lambda: rotations_factory(3),
    "elliptope": lambda: elliptope_factory(5, 2),
    "spectrahedron": lambda: spectrahedron_factory(4, 2),
    "euclidean": lambda: euclidean_factory(3, 2),
}
SOLVERS = {"sd": steepest_descent, "cg": conjugate_gradient, "tr": trust_regions}


def _run_digest(result) -> str:
    """SHA-256 over the history tuples and the bytes of the final point."""
    h = hashlib.sha256()
    for rec in result.history:
        h.update(repr(dataclasses.astuple(rec)).encode())
    x = np.ascontiguousarray(result.x_final)
    h.update(repr(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()


# (factory, solver) -> (digest, stop_reason, counters), recorded before the
# descent solvers were merged into one loop.  Since then CG evaluates the
# gradient once per point, so its grad_evals equal the history length.
# Since all solvers share one outer loop, SD and CG take each accepted
# point's cost from the line search: cost_evals is 1 + line-search trials.
# The 16 SD and CG entries were re-pinned when the Armijo search began to
# backtrack to the minimizer of the interpolating quadratic instead of
# halving: every search that rejects its first trial tries another t, so
# the histories differ from there on.  Their summed cost_evals fell from
# 866 to 515; elliptope-sd (54 -> 56 cost evals) and stiefel-cg (22 -> 28
# grad evals) rose.  The TR entries never call the line search and did
# not move.  They were re-pinned again when each search began to start
# from the curvature fitted on the last accepted step (BB1 for steepest
# descent on a quadratic) instead of 2 * (last decrease) / (-slope), and
# CG's default search began to try the fitted minimizer once after a first
# trial that passes Armijo: every second search starts from another t0.
# Their summed cost_evals fell from 515 to 295 and grad_evals from 276 to
# 227; euclidean-cg (9 -> 11 grad evals) and sphere-cg (10 -> 11) rose.
# sphere-tr (hess_evals 11 -> 10) and oblique-tr (15 -> 11) were re-pinned
# when the truncated CG began to stop at tol_grad_norm / 100: their last
# tCG calls stop earlier, with the same record count and stop reason.  The
# other TR entries did not move.
SOLVER_GOLDEN = {
    ("sphere", "sd"): (
        "8199582418b693db0a2c13b2c36e88766b44a3f06f48ddaa8f9a8918bd79cdd4",
        "gradient_tolerance", {'cost_evals': 9, 'grad_evals': 9, 'hess_evals': 0},
    ),  # 9 records
    ("sphere", "cg"): (
        "b56b1b6e764b521652d141a891b88d93b42975dcd6634d51e8e81732776587f7",
        "gradient_tolerance", {'cost_evals': 13, 'grad_evals': 11, 'hess_evals': 0},
    ),  # 11 records
    ("sphere", "tr"): (
        "d80a7fb7d840935220b2b50c100c5f233cc2240cdbe42247e7c2747457e01672",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 10},
    ),  # 7 records
    ("oblique", "sd"): (
        "959119f948ae4047433ac09a2d9de82c71e11e51986b70a11cbf7ccdc9a122dc",
        "gradient_tolerance", {'cost_evals': 11, 'grad_evals': 11, 'hess_evals': 0},
    ),  # 11 records
    ("oblique", "cg"): (
        "c5ee4e467e4a772e982256c63ea0eeb7fece494f5d522de50400e4a1e97ed173",
        "gradient_tolerance", {'cost_evals': 15, 'grad_evals': 12, 'hess_evals': 0},
    ),  # 12 records
    ("oblique", "tr"): (
        "abbbcab3a9d5278b1383898dd79527850c45f69b77e5d7cb6cb4a5d95adad6c9",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 11},
    ),  # 7 records
    ("stiefel", "sd"): (
        "bdb2ac9efe175f37f8829a70fdecd2c74e6f8f4feb901c87505bde31ae208772",
        "gradient_tolerance", {'cost_evals': 19, 'grad_evals': 17, 'hess_evals': 0},
    ),  # 17 records
    ("stiefel", "cg"): (
        "82ce98cf70966d42860b37eb64135edb641d8b42dfeb2590d7dadd2bb2cbf78a",
        "gradient_tolerance", {'cost_evals': 23, 'grad_evals': 14, 'hess_evals': 0},
    ),  # 14 records
    ("stiefel", "tr"): (
        "627af5607d1c9d0a5afc35bc98afaf80550035107dcf5324b570012d682bdbf2",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 17},
    ),  # 8 records
    ("grassmann", "sd"): (
        "873b162e6424fa97e481068b5ccbd66f92e16782c1f626377ba20b4287a802a6",
        "gradient_tolerance", {'cost_evals': 40, 'grad_evals': 29, 'hess_evals': 0},
    ),  # 29 records
    ("grassmann", "cg"): (
        "d9b66b02f08a0ec6175b664443e37b7ef3e821086a451a0220b465744c520188",
        "gradient_tolerance", {'cost_evals': 28, 'grad_evals': 19, 'hess_evals': 0},
    ),  # 19 records
    ("grassmann", "tr"): (
        "b25da5a29487bdc11d76edd725db47cabb2bc15362112bb992eda7584cb92463",
        "gradient_tolerance", {'cost_evals': 5, 'grad_evals': 5, 'hess_evals': 11},
    ),  # 5 records
    ("rotations", "sd"): (
        "1f8bc2ae813567174893d9d27863e541c31f9a8f0799da6d1aacd6f33087c3de",
        "gradient_tolerance", {'cost_evals': 18, 'grad_evals': 16, 'hess_evals': 0},
    ),  # 16 records
    ("rotations", "cg"): (
        "b237becf368f06fcf34175a20d54aea3f9fe7c2361b67b9324bfd294b0fcaaa9",
        "gradient_tolerance", {'cost_evals': 18, 'grad_evals': 12, 'hess_evals': 0},
    ),  # 12 records
    ("rotations", "tr"): (
        "c1f1bc9be66776aa98a53f91a333a94ef15f6e5e24d951c4c151557c8976f1fd",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 14},
    ),  # 8 records
    ("elliptope", "sd"): (
        "9d272fde70d8e8fa0f72a1e7c9b79c788a9b4efe9d8e60fe3a4936c20cdae210",
        "gradient_tolerance", {'cost_evals': 23, 'grad_evals': 21, 'hess_evals': 0},
    ),  # 21 records
    ("elliptope", "cg"): (
        "d71463d7bc3a591bf8b12cee79bc1ac68100492297bbfbf29e1b27c7b3799f21",
        "gradient_tolerance", {'cost_evals': 35, 'grad_evals': 19, 'hess_evals': 0},
    ),  # 19 records
    ("elliptope", "tr"): (
        "da642efba88b4fc08246fe97abe17da6f7879049c18cf413f15d4dc191953774",
        "gradient_tolerance", {'cost_evals': 10, 'grad_evals': 10, 'hess_evals': 20},
    ),  # 10 records
    ("spectrahedron", "sd"): (
        "98b8f5b57fd517769e9cc78703d3ecfcd33a11c8beb17683d6aebcd5ef29a5c1",
        "gradient_tolerance", {'cost_evals': 9, 'grad_evals': 8, 'hess_evals': 0},
    ),  # 8 records
    ("spectrahedron", "cg"): (
        "bb4a5b2ea220ca81306e92e368701539d557b65826cfd2d50f40901a88b36325",
        "gradient_tolerance", {'cost_evals': 10, 'grad_evals': 8, 'hess_evals': 0},
    ),  # 8 records
    ("spectrahedron", "tr"): (
        "85523890f2e3ae0291d6d79397f35a30d65bbaf5ec8505d31d8ad524be35b00c",
        "gradient_tolerance", {'cost_evals': 6, 'grad_evals': 6, 'hess_evals': 8},
    ),  # 6 records
    ("euclidean", "sd"): (
        "4546584f388d85f4b07a582da5913bdc08a5894685a7cfc6b6111036d20868b4",
        "gradient_tolerance", {'cost_evals': 10, 'grad_evals': 10, 'hess_evals': 0},
    ),  # 10 records
    ("euclidean", "cg"): (
        "402aa495c0c08aee2dc2a724d4c67e48914545eda7a0614bb193da620766e85f",
        "gradient_tolerance", {'cost_evals': 14, 'grad_evals': 11, 'hess_evals': 0},
    ),  # 11 records
    ("euclidean", "tr"): (
        "28ce760ecd3d5a414c923e482a81e0d9dbb98b3fa5ef92d9d7fc34d2bd6d4853",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 10},
    ),  # 7 records
}


@pytest.mark.parametrize("key", sorted(SOLVER_GOLDEN), ids="-".join)
def test_solver_history_matches_golden(key):
    factory, solver = key
    M = DENSE_FACTORIES[factory]()
    p = make_quadratic_problem(M, seed=7)
    x0 = M.rand_point(np.random.default_rng(8))
    result = SOLVERS[solver](p, x0, SolverOptions(clock=lambda: 0.0))
    digest, stop_reason, counters = SOLVER_GOLDEN[key]
    assert result.stop_reason == stop_reason
    assert result.counters == counters
    assert _run_digest(result) == digest
