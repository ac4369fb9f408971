"""Tree forms the tests use as oracles and fixtures, outside the library.

- `enumerate_spanning_trees` is the recursive form of
  `trwmap.trees.enumerate_spanning_trees`: backtracking over the edges with
  one Python call per edge considered, the include branch first, then the
  exclude branch.  It is the oracle for the explicit-stack form in the
  library, which must list the same trees in the same order (everything
  built on `uniform_tree_distribution` depends on it), and stops at the
  library's `ENUMERATION_GUARD`, read when it runs.  Its depth grows with
  the edge count, so it is only run on small graphs.
- `kirchhoff_count` counts spanning trees by the matrix-tree theorem.
- `save_tree_distribution` writes the record form that
  `trwmap.load_tree_distribution` and `trwmap solve --trees` read.
"""

import json

import numpy as np

from trwmap import SpanningTree, trees
from trwmap.model import CapacityError, StructureError
from trwmap.trees import _connected


def enumerate_spanning_trees(mrf):
    n = mrf.node_count
    edges = list(mrf.edges)
    if not _connected(n, edges):
        raise StructureError("graph is disconnected")
    found = []
    guard = trees.ENUMERATION_GUARD

    def root_find(parent, u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def recurse(idx, chosen, parent):
        if len(chosen) == n - 1:
            found.append(SpanningTree(tuple(chosen)))
            if len(found) > guard:
                raise CapacityError(f"more than {guard} spanning trees")
            return
        if idx == len(edges) or len(chosen) + (len(edges) - idx) < n - 1:
            return
        s, t = edges[idx]
        rs, rt = root_find(parent, s), root_find(parent, t)
        if rs != rt:
            child = list(parent)
            child[rs] = rt
            recurse(idx + 1, chosen + [edges[idx]], child)
        recurse(idx + 1, chosen, parent)

    recurse(0, [], list(range(n)))
    return found


def kirchhoff_count(n, edges):
    """Number of spanning trees via the matrix-tree theorem (multi-edges allowed)."""
    lap = np.zeros((n, n))
    for s, t in edges:
        lap[s, s] += 1
        lap[t, t] += 1
        lap[s, t] -= 1
        lap[t, s] -= 1
    if n == 1:
        return 1
    return int(round(np.linalg.det(lap[1:, 1:])))


def save_tree_distribution(dist) -> bytes:
    """The distribution's trees and weights as a list of `{edges, weight}` records."""
    doc = [{"edges": [list(e) for e in t.edges], "weight": float(w)}
           for t, w in zip(dist.trees, dist.weights)]
    return json.dumps(doc, indent=1).encode("utf-8")
