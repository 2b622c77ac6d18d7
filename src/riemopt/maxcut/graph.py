"""Weighted undirected graphs for the max-cut application.

Edge-list file format: whitespace-separated lines ``i j w`` with 1-based
node indices and optional weight (default 1.0).  ``#`` starts a comment,
blank lines are skipped, duplicate edges sum their weights, and an optional
header line ``p <n> <m>`` fixes the node count (otherwise it is the largest
index seen).  Weights must be finite and nonnegative, and small enough that
the Laplacian's Frobenius norm is finite (for a triangle of equal weights,
below about 3.1e153): ``laplacian`` rejects a graph whose weights overflow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Graph:
    """n nodes and a sorted edge list; each edge (i, j, w) appears once,
    with 1-based i < j and the merged weight w >= 0."""

    n: int
    edges: List[Tuple[int, int, float]]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        merged: dict[tuple[int, int], float] = {}
        for i, j, weight in edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if i < 1 or j < 1 or i > n or j > n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if weight < 0:
                raise ValueError(f"negative weight {weight} on edge ({i}, {j})")
            a, b = min(i, j), max(i, j)
            total = merged.get((a, b), 0.0) + float(weight)
            if not math.isfinite(total):
                raise ValueError(f"non-finite weight {total} on edge ({a}, {b})")
            merged[(a, b)] = total
        return cls(n=n, edges=[(a, b, weight) for (a, b), weight in sorted(merged.items())])


def load_graph(path) -> Graph:
    """Parse an edge-list file; see the module docstring for the format."""
    raw_edges = []
    header_n = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if parts[0] == "p":
                if header_n is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate header line")
                try:
                    header_n = int(parts[1])
                except (IndexError, ValueError):
                    raise ValueError(f"{path}:{lineno}: malformed header {text!r}")
                if header_n < 1:
                    raise ValueError(f"{path}:{lineno}: nonpositive node count")
                continue
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: malformed edge line {text!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed edge line {text!r}")
            if i < 1 or j < 1:
                raise ValueError(f"{path}:{lineno}: nonpositive node index")
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-loop on node {i}")
            if w < 0:
                raise ValueError(f"{path}:{lineno}: negative weight {w}")
            if not math.isfinite(w):
                raise ValueError(f"{path}:{lineno}: non-finite weight {w}")
            raw_edges.append((i, j, w))

    max_index = max((max(i, j) for i, j, _ in raw_edges), default=0)
    n = header_n if header_n is not None else max_index
    if n < max_index:
        raise ValueError(f"{path}: header declares n={n} but saw node {max_index}")
    if n == 0:
        raise ValueError(f"{path}: no nodes found")
    return Graph.from_edges(n, raw_edges)


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - W (symmetric, PSD, zero row sums), dense.

    Raises ValueError when ||L||_F is not finite: the relaxation's
    arithmetic would overflow on such weights.
    """
    w = np.zeros((g.n, g.n))
    for i, j, weight in g.edges:
        w[i - 1, j - 1] = w[j - 1, i - 1] = weight
    with np.errstate(over="ignore"):  # overflow is the error reported below
        L = np.diag(w.sum(axis=1)) - w
        finite = np.isfinite(np.linalg.norm(L))
    if not finite:
        heaviest = max(weight for _, _, weight in g.edges)
        raise ValueError(
            f"edge weights too large: the Laplacian's norm overflows (largest weight {heaviest!r})"
        )
    return L


def cut_value_from_signs(L: np.ndarray, s: np.ndarray) -> float:
    """Weight of the cut induced by the sign vector s: s'Ls / 4."""
    return float(s @ L @ s) / 4.0


def cut_value_from_edges(g: Graph, s: np.ndarray) -> float:
    """Same cut weight, summed edge by edge (independent of the Laplacian)."""
    return sum(w for i, j, w in g.edges if s[i - 1] != s[j - 1])


def brute_force_max_cut(g: Graph) -> Tuple[float, np.ndarray]:
    """Enumerate all 2^(n-1) sign patterns; intended for small n only."""
    L = laplacian(g)
    best_val = 0.0
    best_s = np.ones(g.n)
    for bits in range(2 ** (g.n - 1)):
        s = np.ones(g.n)
        for b in range(g.n - 1):
            if bits >> b & 1:
                s[b + 1] = -1.0
        val = cut_value_from_signs(L, s)
        if val > best_val:
            best_val, best_s = val, s
    return best_val, best_s
