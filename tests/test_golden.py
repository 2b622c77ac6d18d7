"""Golden outputs of the escalating max-cut CLI on small seeded graphs.

The expected values were recorded before the trust-region inner loop was
tuned for per-call cost.  Any change to them must come with an explanation
of the floating-point drift that caused it.
"""

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
# SHA-256 and its line count.
GOLDEN = [
    (
        (12, 3, 1, "unit"),
        dict(cut=16.0, bound=16.0, certified=True, rank_used=2, iterations=10,
             cost=-16.000000000000004),
        "87ceb7422926630f7257d51d30ada2347793816a4f95f8d2a40f708cfb4ca475", 11,
    ),
    (
        (30, 5, 3, "int"),
        dict(cut=303.0, bound=314.14277973636683, certified=True, rank_used=3,
             iterations=28, cost=-314.14277973636683),
        "c34e5fe2162f4cda7543f0a5eaf3927bedc59d57b1a748a53d964bf44d7ddf63", 29,
    ),
    (
        (40, 6, 4, "dec"),
        dict(cut=153.61, bound=160.68445633742618, certified=True, rank_used=3,
             iterations=22, cost=-160.68445633742616),
        "f7eaceacf0f4e8b8179ae52ab78a026fd56113f12132d4eb3fead139cb5563a0", 23,
    ),
    (
        (60, 3, 5, "unit"),
        dict(cut=80.0, bound=82.64205151042765, certified=True, rank_used=3,
             iterations=25, cost=-82.64205151042768),
        "df04a4dc2173ec1d6648f79b5bb2e19190c126f25f99e4b994e691666a004614", 26,
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
