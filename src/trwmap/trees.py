"""Spanning trees, tree distributions and edge appearance probabilities."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import CapacityError, Edge, ModelFormatError, PairwiseMrf, StructureError

ENUMERATION_GUARD = 100_000
WEIGHT_SUM_TOL = 1e-12


def _connected(n: int, edges: Iterable[Edge]) -> bool:
    adj = [[] for _ in range(n)]
    for s, t in edges:
        adj[s].append(t)
        adj[t].append(s)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


@dataclass(frozen=True)
class SpanningTree:
    """A set of n-1 edges forming a connected, cycle-free spanning subgraph."""

    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))

    def validate(self, n: int) -> None:
        if len(self.edges) != n - 1:
            raise StructureError(f"tree has {len(self.edges)} edges, expected {n - 1}")
        if len(set(self.edges)) != len(self.edges):
            raise StructureError("tree has a repeated edge")
        for s, t in self.edges:
            if s == t or not (0 <= s < n and 0 <= t < n):
                raise StructureError(f"tree edge {(s, t)} is invalid")
        if not _connected(n, self.edges):
            raise StructureError("tree edges do not span all nodes")

    def neighbors(self, n: int) -> list:
        adj = [[] for _ in range(n)]
        for s, t in self.edges:
            adj[s].append(t)
            adj[t].append(s)
        return adj

    def parent_map(self, n: int, root: int) -> list:
        """Parent of each node when the tree is rooted at `root` (root: -1)."""
        if not 0 <= root < n:
            raise StructureError(f"root {root} out of range")
        adj = self.neighbors(n)
        parent = [-2] * n
        parent[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if parent[v] == -2:
                    parent[v] = u
                    stack.append(v)
        if any(p == -2 for p in parent):
            raise StructureError("tree does not reach every node from the root")
        return parent


@dataclass(frozen=True)
class TreeDistribution:
    """Explicit probability distribution over spanning trees of an n-node graph."""

    node_count: int
    trees: tuple
    weights: np.ndarray

    def __post_init__(self):
        trees = tuple(t if isinstance(t, SpanningTree) else SpanningTree(tuple(t)) for t in self.trees)
        object.__setattr__(self, "trees", trees)
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if len(trees) != w.shape[0]:
            raise ModelFormatError("one weight per tree required")
        if len(set(trees)) != len(trees):
            raise ModelFormatError("duplicate tree in distribution")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ModelFormatError(f"tree weight {bad[0]} is not finite: {float(w[bad[0]])!r}")
        if np.any(w < 0):
            raise ModelFormatError("tree weights must be non-negative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ModelFormatError(f"tree weights sum to {w.sum()!r}, expected 1")
        for t in trees:
            t.validate(self.node_count)

    def support_items(self) -> list:
        return [(t, float(w)) for t, w in zip(self.trees, self.weights) if w > 0]


def enumerate_spanning_trees(mrf: PairwiseMrf, guard: int = ENUMERATION_GUARD) -> list:
    """All spanning trees of the model's graph, by backtracking over edges."""
    n = mrf.node_count
    edges = list(mrf.edges)
    if not _connected(n, edges):
        raise StructureError("graph is disconnected")
    found: list[SpanningTree] = []

    def root_find(parent, u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    # Depth first on an explicit stack: (next edge, chosen edges, union-find
    # parents).  The include branch is pushed last, so it is explored first.
    stack = [(0, [], list(range(n)))]
    while stack:
        idx, chosen, parent = stack.pop()
        if len(chosen) == n - 1:
            found.append(SpanningTree(tuple(chosen)))
            if len(found) > guard:
                raise CapacityError(f"more than {guard} spanning trees")
            continue
        if idx == len(edges) or len(chosen) + (len(edges) - idx) < n - 1:
            continue
        s, t = edges[idx]
        rs, rt = root_find(parent, s), root_find(parent, t)
        stack.append((idx + 1, chosen, parent))
        if rs != rt:
            child = list(parent)
            child[rs] = rt
            stack.append((idx + 1, chosen + [edges[idx]], child))
    return found


def kirchhoff_count(n: int, edges: Sequence[Edge]) -> int:
    """Number of spanning trees via the matrix-tree theorem (multi-edges allowed)."""
    lap = np.zeros((n, n))
    for s, t in edges:
        lap[s, s] += 1
        lap[t, t] += 1
        lap[s, t] -= 1
        lap[t, s] -= 1
    if n == 1:
        return 1
    minor = lap[1:, 1:]
    return int(round(np.linalg.det(minor)))


def uniform_tree_distribution(mrf: PairwiseMrf, guard: int = ENUMERATION_GUARD) -> TreeDistribution:
    trees = enumerate_spanning_trees(mrf, guard=guard)
    w = np.full(len(trees), 1.0 / len(trees))
    return TreeDistribution(mrf.node_count, tuple(trees), w)


def edge_appearance(dist: TreeDistribution, mrf: PairwiseMrf) -> dict:
    """rho_e = total weight of support trees containing each graph edge."""
    return _appearance(dist, mrf.node_count, mrf.edges)


def _appearance(dist: TreeDistribution, n: int, edges) -> dict:
    """`edge_appearance` on the graph of n nodes and `edges`, in their order."""
    if dist.node_count != n:
        raise StructureError(f"tree distribution is for a different node count: "
                             f"{dist.node_count}, the graph has {n}")
    rho = {e: 0.0 for e in edges}
    for tree, w in zip(dist.trees, dist.weights):
        for e in tree.edges:
            if e not in rho:
                raise StructureError(f"tree edge {e} is not a graph edge")
            rho[e] += float(w)
    for e, r in rho.items():
        if r <= 0.0:
            raise StructureError(f"edge {e} appears in no supported tree")
    return rho


def grid_index(rows: int, cols: int, r: int, c: int) -> int:
    return r * cols + c


def grid_edges(rows: int, cols: int) -> list:
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = grid_index(rows, cols, r, c)
            if c + 1 < cols:
                edges.append((u, grid_index(rows, cols, r, c + 1)))
            if r + 1 < rows:
                edges.append((u, grid_index(rows, cols, r + 1, c)))
    return sorted(edges)


def grid_two_tree_distribution(rows: int, cols: int) -> TreeDistribution:
    """Two-tree grid distribution: all rows plus a connecting column, and the
    rotated version (all columns plus a connecting row), weight 1/2 each."""
    if rows < 2 or cols < 2:
        raise StructureError("grid must be at least 2x2")
    horiz = [(grid_index(rows, cols, r, c), grid_index(rows, cols, r, c + 1))
             for r in range(rows) for c in range(cols - 1)]
    vert = [(grid_index(rows, cols, r, c), grid_index(rows, cols, r + 1, c))
            for r in range(rows - 1) for c in range(cols)]
    t_rows = horiz + [(grid_index(rows, cols, r, 0), grid_index(rows, cols, r + 1, 0))
                      for r in range(rows - 1)]
    t_cols = vert + [(grid_index(rows, cols, 0, c), grid_index(rows, cols, 0, c + 1))
                     for c in range(cols - 1)]
    return TreeDistribution(rows * cols,
                            (SpanningTree(tuple(t_rows)), SpanningTree(tuple(t_cols))),
                            np.array([0.5, 0.5]))


def save_tree_distribution(dist: TreeDistribution) -> bytes:
    doc = [{"edges": [list(e) for e in t.edges], "weight": float(w)}
           for t, w in zip(dist.trees, dist.weights)]
    return json.dumps(doc, indent=1).encode("utf-8")


def _number(value, field: str) -> float:
    """A JSON number (int or float; not a bool or a string) as a float."""
    if type(value) not in (int, float):
        raise ModelFormatError(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ModelFormatError(f"{field}: expected a number, got {value!r}") from err


def load_tree_distribution(data: bytes | str, node_count: int | None = None):
    """Load a tree-distribution document.

    Returns a TreeDistribution for the explicit record form, or a plain
    {edge: rho_e} dict for the `{"rho_e": ...}` form (only usable by the
    message-passing path, which needs nothing but the edge weights).  Either
    form is checked against a model by `trw.resolve_rho`, which the CLI runs
    on every loaded file, whatever the method.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"not valid JSON: {err}") from err
    if isinstance(doc, dict) and "rho_e" in doc:
        if not isinstance(doc["rho_e"], dict):
            raise ModelFormatError("rho_e: expected an object mapping 's,t' to a weight")
        rho = {}
        for key, val in doc["rho_e"].items():
            try:
                s, t = (int(v) for v in key.split(","))
            except ValueError as err:
                raise ModelFormatError(f"rho_e key {key!r}: expected 's,t'") from err
            rho[(min(s, t), max(s, t))] = _number(val, f"rho_e[{key!r}]")
        return rho
    if not isinstance(doc, list):
        raise ModelFormatError("expected a list of tree records or a rho_e object")
    trees, weights = [], []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "edges" not in rec or "weight" not in rec:
            raise ModelFormatError(f"tree record {i}: expected edges and weight")
        edges = rec["edges"]
        if not (isinstance(edges, list) and all(
                type(e) is list and len(e) == 2 and all(type(v) is int for v in e)
                for e in edges)):
            raise ModelFormatError(f"tree record {i}: edges: expected a list of integer pairs")
        trees.append(SpanningTree(tuple(tuple(e) for e in edges)))
        weights.append(_number(rec["weight"], f"tree record {i}: weight"))
    if node_count is None:
        ends = [v for t in trees for e in t.edges for v in e]
        if not ends:
            raise ModelFormatError("the node count cannot be inferred without edges; "
                                   "give node_count")
        node_count = 1 + max(ends)
    return TreeDistribution(node_count, tuple(trees), np.asarray(weights))
