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
GOLDEN = [
    (
        (12, 3, 1, "unit"),
        dict(cut=16.0, bound=16.0, certified=True, rank_used=2, iterations=9,
             cost=-16.000000000000004),
        "87ceb7422926630f7257d51d30ada2347793816a4f95f8d2a40f708cfb4ca475", 11,
    ),
    (
        (30, 5, 3, "int"),
        dict(cut=303.0, bound=314.14277973744737, certified=True, rank_used=4,
             iterations=26, cost=-314.14277973636683),
        "77022b756e2a1c0db3986b3e461bee9fffc373a3abded300dc321e211ef7c656", 29,
    ),
    (
        (40, 6, 4, "dec"),
        dict(cut=153.61, bound=160.6844563639028, certified=True, rank_used=4,
             iterations=20, cost=-160.68445633742618),
        "8fcf6f9531ace44774627874adfe01857ee3f8c61b424cc26918eeadd386a1db", 23,
    ),
    (
        (60, 3, 5, "unit"),
        dict(cut=80.0, bound=82.64205191361769, certified=True, rank_used=4,
             iterations=20, cost=-82.64205151042763),
        "cd3bf4cac8798758c259178d9a0c1b68f29f2a1edbde3affd24ebd094d90cca6", 23,
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
# not move.
SOLVER_GOLDEN = {
    ("sphere", "sd"): (
        "97c47d2cdb1520e89d634d42b0dd1f1ec39f9530f77ab211a25b37f4ffd24638",
        "gradient_tolerance", {'cost_evals': 22, 'grad_evals': 10, 'hess_evals': 0},
    ),  # 10 records
    ("sphere", "cg"): (
        "483b50ab36c3b8194a614b22b79ecb228874b94689c5a66fb4dd25118d054022",
        "gradient_tolerance", {'cost_evals': 20, 'grad_evals': 10, 'hess_evals': 0},
    ),  # 10 records
    ("sphere", "tr"): (
        "d0797dfc7f4106a4f8b0ace661a2121521e63700bba18a0eac31b9cf021910dc",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 11},
    ),  # 7 records
    ("oblique", "sd"): (
        "4eaf30c1142667d379296a9b8cdc43e06a75b291586c077f4e39609531649f17",
        "gradient_tolerance", {'cost_evals': 28, 'grad_evals': 15, 'hess_evals': 0},
    ),  # 15 records
    ("oblique", "cg"): (
        "806f19ba518dfab6301822955b72f9483334579b8ed99c719e723d7a367890b9",
        "gradient_tolerance", {'cost_evals': 26, 'grad_evals': 13, 'hess_evals': 0},
    ),  # 13 records
    ("oblique", "tr"): (
        "95c2df8543c5cd9c581c1d4f9a690c42e0880e066efbb959e6f35609df71e17c",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 15},
    ),  # 7 records
    ("stiefel", "sd"): (
        "c259a47baaf376dc8569b1affe1c2230eecd6ac409fd71685f7a6b54336865ec",
        "gradient_tolerance", {'cost_evals': 33, 'grad_evals': 20, 'hess_evals': 0},
    ),  # 20 records
    ("stiefel", "cg"): (
        "560dd82e680e285843cbb3426dba047a695d8724e56731032d7c322b6f34fdfb",
        "gradient_tolerance", {'cost_evals': 44, 'grad_evals': 28, 'hess_evals': 0},
    ),  # 28 records
    ("stiefel", "tr"): (
        "627af5607d1c9d0a5afc35bc98afaf80550035107dcf5324b570012d682bdbf2",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 17},
    ),  # 8 records
    ("grassmann", "sd"): (
        "2394212ffb9fc859e4cdfed9619ae6fe7d28a1e634d28ee8ba1bcf9d95a3d11d",
        "gradient_tolerance", {'cost_evals': 41, 'grad_evals': 32, 'hess_evals': 0},
    ),  # 32 records
    ("grassmann", "cg"): (
        "6110f28e0ec36f78e04b48badfd0f24dddd77ce2c7ffeed14c80df7aa329673e",
        "gradient_tolerance", {'cost_evals': 41, 'grad_evals': 24, 'hess_evals': 0},
    ),  # 24 records
    ("grassmann", "tr"): (
        "b25da5a29487bdc11d76edd725db47cabb2bc15362112bb992eda7584cb92463",
        "gradient_tolerance", {'cost_evals': 5, 'grad_evals': 5, 'hess_evals': 11},
    ),  # 5 records
    ("rotations", "sd"): (
        "108cc8ffd35041fdfc85cb06228c989c7a57e8088e78b0b09ecd796d5a6dad94",
        "gradient_tolerance", {'cost_evals': 42, 'grad_evals': 20, 'hess_evals': 0},
    ),  # 20 records
    ("rotations", "cg"): (
        "94d1197edaa112d8fecd9d8cc71c7e5b1ee5595091875d08edab8499b4473f09",
        "gradient_tolerance", {'cost_evals': 29, 'grad_evals': 12, 'hess_evals': 0},
    ),  # 12 records
    ("rotations", "tr"): (
        "c1f1bc9be66776aa98a53f91a333a94ef15f6e5e24d951c4c151557c8976f1fd",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 14},
    ),  # 8 records
    ("elliptope", "sd"): (
        "0fac6cc54d6bfb0239a39e71794664094bdf4c46d3ee14c3e611b8ca9afd4430",
        "gradient_tolerance", {'cost_evals': 56, 'grad_evals': 33, 'hess_evals': 0},
    ),  # 33 records
    ("elliptope", "cg"): (
        "cf0893aeb2b794578c6548cb52b0c6ea5d985b0f3c811610aaf2b7df2cad1a3c",
        "gradient_tolerance", {'cost_evals': 36, 'grad_evals': 22, 'hess_evals': 0},
    ),  # 22 records
    ("elliptope", "tr"): (
        "da642efba88b4fc08246fe97abe17da6f7879049c18cf413f15d4dc191953774",
        "gradient_tolerance", {'cost_evals': 10, 'grad_evals': 10, 'hess_evals': 20},
    ),  # 10 records
    ("spectrahedron", "sd"): (
        "5825e02edf9bcedf0dff8747b23b0fa1ed50a40be05545502bd5b661da5be7e9",
        "gradient_tolerance", {'cost_evals': 23, 'grad_evals': 8, 'hess_evals': 0},
    ),  # 8 records
    ("spectrahedron", "cg"): (
        "b87f3ee2fd6f1d2321bd90fe8aa0c370506e70fa3083c93d3dd56ef65d318059",
        "gradient_tolerance", {'cost_evals': 23, 'grad_evals': 8, 'hess_evals': 0},
    ),  # 8 records
    ("spectrahedron", "tr"): (
        "85523890f2e3ae0291d6d79397f35a30d65bbaf5ec8505d31d8ad524be35b00c",
        "gradient_tolerance", {'cost_evals': 6, 'grad_evals': 6, 'hess_evals': 8},
    ),  # 6 records
    ("euclidean", "sd"): (
        "354c4d0687dc95bf8a8a1b8e037be6d1c56dfafd401ac50d41d18c62095536fb",
        "gradient_tolerance", {'cost_evals': 31, 'grad_evals': 12, 'hess_evals': 0},
    ),  # 12 records
    ("euclidean", "cg"): (
        "d33ec8515b4ca8085c94a7af6388b0c4010416c02dd77239f546b1589106c628",
        "gradient_tolerance", {'cost_evals': 20, 'grad_evals': 9, 'hess_evals': 0},
    ),  # 9 records
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
