"""Recursive form of `trwmap.trees.enumerate_spanning_trees`.

Backtracking over the edges with one Python call per edge considered: the
include branch first, then the exclude branch.  Kept as the oracle for the
explicit-stack form in the library, which must list the same trees in the
same order (everything built on `uniform_tree_distribution` depends on it).
Its depth grows with the edge count, so it is only run on small graphs.
"""

from trwmap import SpanningTree
from trwmap.model import CapacityError, StructureError
from trwmap.trees import ENUMERATION_GUARD, _connected


def enumerate_spanning_trees(mrf, guard=ENUMERATION_GUARD):
    n = mrf.node_count
    edges = list(mrf.edges)
    if not _connected(n, edges):
        raise StructureError("graph is disconnected")
    found = []

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
