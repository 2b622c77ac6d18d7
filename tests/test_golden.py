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
SOLVER_GOLDEN = {
    ("sphere", "sd"): (
        "61da6e1d814e1cdb73d458c5583ffc63c2ac1086e8fd1f2de70a256d398452fa",
        "gradient_tolerance", {'cost_evals': 42, 'grad_evals': 19, 'hess_evals': 0},
    ),  # 19 records
    ("sphere", "cg"): (
        "765569fb7adee5c092a0f56cb34bcefd02d27ee8f536285b9193e7b01c05b038",
        "gradient_tolerance", {'cost_evals': 38, 'grad_evals': 16, 'hess_evals': 0},
    ),  # 16 records
    ("sphere", "tr"): (
        "d0797dfc7f4106a4f8b0ace661a2121521e63700bba18a0eac31b9cf021910dc",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 11},
    ),  # 7 records
    ("oblique", "sd"): (
        "5af80cf5b85a80b3cda11a97dcd5fb4544af1b6c22a1f333664e95a18c9ebc80",
        "gradient_tolerance", {'cost_evals': 52, 'grad_evals': 17, 'hess_evals': 0},
    ),  # 17 records
    ("oblique", "cg"): (
        "a4dafb73fbdbb2e4bbdddeec1fcf3aea4c99b303f049b3bd9dda486cbe626795",
        "gradient_tolerance", {'cost_evals': 71, 'grad_evals': 31, 'hess_evals': 0},
    ),  # 31 records
    ("oblique", "tr"): (
        "95c2df8543c5cd9c581c1d4f9a690c42e0880e066efbb959e6f35609df71e17c",
        "gradient_tolerance", {'cost_evals': 7, 'grad_evals': 7, 'hess_evals': 15},
    ),  # 7 records
    ("stiefel", "sd"): (
        "b982687ab67aa1bd22644e59f1c72f177e20f54e6e2e8787e8421e52733a9a47",
        "gradient_tolerance", {'cost_evals': 52, 'grad_evals': 25, 'hess_evals': 0},
    ),  # 25 records
    ("stiefel", "cg"): (
        "757727dc2c0154198a444fcb6d5934292f79adecf1b6d9fda6862a713ec51fff",
        "gradient_tolerance", {'cost_evals': 56, 'grad_evals': 22, 'hess_evals': 0},
    ),  # 22 records
    ("stiefel", "tr"): (
        "627af5607d1c9d0a5afc35bc98afaf80550035107dcf5324b570012d682bdbf2",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 17},
    ),  # 8 records
    ("grassmann", "sd"): (
        "7d29427df45ceabaa8bb0a7555265bf066bc1babbf964b66f2caf6aec37a9a46",
        "gradient_tolerance", {'cost_evals': 56, 'grad_evals': 32, 'hess_evals': 0},
    ),  # 32 records
    ("grassmann", "cg"): (
        "708d701161d620029683bb68313791bfa9a04b0f8c256e7685c97543802ec2ff",
        "gradient_tolerance", {'cost_evals': 50, 'grad_evals': 25, 'hess_evals': 0},
    ),  # 25 records
    ("grassmann", "tr"): (
        "b25da5a29487bdc11d76edd725db47cabb2bc15362112bb992eda7584cb92463",
        "gradient_tolerance", {'cost_evals': 5, 'grad_evals': 5, 'hess_evals': 11},
    ),  # 5 records
    ("rotations", "sd"): (
        "1406e35586f95bee06acd1f28ef00469df3cf5e5868ebde323969b2ab8f799fc",
        "gradient_tolerance", {'cost_evals': 54, 'grad_evals': 26, 'hess_evals': 0},
    ),  # 26 records
    ("rotations", "cg"): (
        "90cc84c7ea9c43a5b89c2bd986e0bc286651fb1bd69bf65d05d2835202daca61",
        "gradient_tolerance", {'cost_evals': 56, 'grad_evals': 25, 'hess_evals': 0},
    ),  # 25 records
    ("rotations", "tr"): (
        "c1f1bc9be66776aa98a53f91a333a94ef15f6e5e24d951c4c151557c8976f1fd",
        "gradient_tolerance", {'cost_evals': 8, 'grad_evals': 8, 'hess_evals': 14},
    ),  # 8 records
    ("elliptope", "sd"): (
        "c85e785e54da89012ded2178c710cd560f746b03921ffb2b35d2a52e07163087",
        "gradient_tolerance", {'cost_evals': 54, 'grad_evals': 27, 'hess_evals': 0},
    ),  # 27 records
    ("elliptope", "cg"): (
        "52258de177c7f44fb29ae49c9000811223cafca06821516bcf7e406c7a16ca78",
        "gradient_tolerance", {'cost_evals': 79, 'grad_evals': 41, 'hess_evals': 0},
    ),  # 41 records
    ("elliptope", "tr"): (
        "da642efba88b4fc08246fe97abe17da6f7879049c18cf413f15d4dc191953774",
        "gradient_tolerance", {'cost_evals': 10, 'grad_evals': 10, 'hess_evals': 20},
    ),  # 10 records
    ("spectrahedron", "sd"): (
        "48c3f5ea303c02c0a696c318b602e7914ef5474098887b0f8ba10fb247016edb",
        "gradient_tolerance", {'cost_evals': 47, 'grad_evals': 15, 'hess_evals': 0},
    ),  # 15 records
    ("spectrahedron", "cg"): (
        "efc921ff74de7e4ad24ebeb44a4a808606313280718ba70dfcac00b90d1fd0d7",
        "gradient_tolerance", {'cost_evals': 46, 'grad_evals': 15, 'hess_evals': 0},
    ),  # 15 records
    ("spectrahedron", "tr"): (
        "85523890f2e3ae0291d6d79397f35a30d65bbaf5ec8505d31d8ad524be35b00c",
        "gradient_tolerance", {'cost_evals': 6, 'grad_evals': 6, 'hess_evals': 8},
    ),  # 6 records
    ("euclidean", "sd"): (
        "315d10ea4a1f89695362a5cad3eec1417019d41988bf5a2c69df5adfb767d3a3",
        "gradient_tolerance", {'cost_evals': 49, 'grad_evals': 16, 'hess_evals': 0},
    ),  # 16 records
    ("euclidean", "cg"): (
        "8e33eb3c3b085931106e453c0d4d31bfa29edba0476a7a8592d5a524e43b718e",
        "gradient_tolerance", {'cost_evals': 64, 'grad_evals': 22, 'hess_evals': 0},
    ),  # 22 records
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
