"""The per-table model loader, kept as a test oracle.

Before the tables were packed into one node vector and one edge-entry
vector, `PairwiseMrf` converted, froze and checked every table on its own,
and `load_model` converted every table of a document with its own
`np.asarray` call.  `PairwiseMrf` and `load_model` below are that code.  The
packed loader must build the same model (`==` tables, same cardinalities and
edges, in the same order) and raise the same error text on the malformed
documents the tests use.  `score` is the loop that summed an assignment's
table entries one by one; the packed `score` must return the same float.

`neighbors`, `edge_key` and `edge_table` are the per-table accessors the
model had, which only the tests' loop-form references read.
"""

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from trwmap.model import ModelFormatError, _all_finite, _freeze, check_assignment

Edge = tuple[int, int]


@dataclass(frozen=True)
class PairwiseMrf:
    """A pairwise MRF: cardinalities, undirected edges and weight tables."""

    cardinalities: tuple
    edges: tuple
    theta_node: tuple
    theta_edge: Mapping[Edge, np.ndarray]

    def __post_init__(self):
        n = len(self.cardinalities)
        if n == 0:
            raise ModelFormatError("model has no nodes")
        if any(int(m) <= 0 for m in self.cardinalities):
            raise ModelFormatError("cardinalities must be positive")
        object.__setattr__(self, "cardinalities", tuple(int(m) for m in self.cardinalities))
        object.__setattr__(self, "edges", tuple((int(s), int(t)) for s, t in self.edges))
        object.__setattr__(self, "theta_edge",
                           {(int(s), int(t)): m for (s, t), m in self.theta_edge.items()})
        seen = set()
        for e in self.edges:
            s, t = e
            if s == t:
                raise ModelFormatError(f"edge {e}: self-loop")
            if not (0 <= s < n and 0 <= t < n):
                raise ModelFormatError(f"edge {e}: node index out of range")
            if s > t:
                raise ModelFormatError(f"edge {e}: must be ordered (s, t) with s < t")
            if e in seen:
                raise ModelFormatError(f"edge {e}: duplicate")
            seen.add(e)
        if len(self.theta_node) != n:
            raise ModelFormatError("theta_node: one table per node required")
        node = []
        for s, v in enumerate(self.theta_node):
            v = _freeze(v)
            if v.shape != (self.cardinalities[s],):
                raise ModelFormatError(f"theta_node[{s}]: shape {v.shape} does not match cardinality")
            node.append(v)
        object.__setattr__(self, "theta_node", tuple(node))
        if set(self.theta_edge) != set(self.edges):
            raise ModelFormatError("theta_edge: one table per edge required")
        etab = {}
        for (s, t) in self.edges:
            m = _freeze(self.theta_edge[(s, t)])
            want = (self.cardinalities[s], self.cardinalities[t])
            if m.shape != want:
                raise ModelFormatError(f"theta_edge[{(s, t)}]: shape {m.shape}, expected {want}")
            etab[(s, t)] = m
        object.__setattr__(self, "theta_edge", etab)
        # one test on all the tables; the loops only name the first bad one
        if not _all_finite((*node, *etab.values())):
            for s, v in enumerate(node):
                if not np.all(np.isfinite(v)):
                    raise ModelFormatError(f"theta_node[{s}]: non-finite entry")
            for e, m in etab.items():
                if not np.all(np.isfinite(m)):
                    raise ModelFormatError(f"theta_edge[{e}]: non-finite entry")


def load_model(data: bytes | str) -> PairwiseMrf:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ModelFormatError("top level: expected an object")
    for key in ("nodes", "edges", "theta_node", "theta_edge"):
        if key not in doc:
            raise ModelFormatError(f"missing field {key!r}")
    cards = doc["nodes"]
    if not isinstance(cards, list) or not all(isinstance(m, int) for m in cards):
        raise ModelFormatError("nodes: expected a list of integers")
    for key in ("edges", "theta_node", "theta_edge"):
        if not isinstance(doc[key], list):
            raise ModelFormatError(f"{key}: expected a list")
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, int) for v in e)):
            raise ModelFormatError(f"edges[{i}]: expected a pair of integers")
        edges.append((e[0], e[1]))
    if len(doc["theta_node"]) != len(cards):
        raise ModelFormatError("theta_node: length must match nodes")
    if len(doc["theta_edge"]) != len(edges):
        raise ModelFormatError("theta_edge: length must match edges")
    try:
        theta_node = tuple(np.asarray(v, dtype=float) for v in doc["theta_node"])
        theta_edge = {e: np.asarray(m, dtype=float) for e, m in zip(edges, doc["theta_edge"])}
    except (TypeError, ValueError) as err:
        raise ModelFormatError(f"ragged or non-numeric table: {err}") from err
    return PairwiseMrf(tuple(cards), tuple(edges), theta_node, theta_edge)


def score(mrf, x) -> float:
    """Objective value of an assignment: sum of selected node and edge entries."""
    x = check_assignment(mrf, x)
    total = 0.0
    for s in range(mrf.node_count):
        total += mrf.theta_node[s][x[s]]
    for (s, t) in mrf.edges:
        total += mrf.theta_edge[(s, t)][x[s], x[t]]
    return float(total)


def neighbors(mrf) -> tuple:
    """Each node's neighbors, sorted."""
    adj = [[] for _ in range(mrf.node_count)]
    for s, t in mrf.edges:
        adj[s].append(t)
        adj[t].append(s)
    return tuple(tuple(sorted(a)) for a in adj)


def edge_key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def edge_table(mrf, a: int, b: int) -> np.ndarray:
    """Edge table oriented so rows are states of `a` and columns of `b`."""
    m = mrf.theta_edge[edge_key(a, b)]
    return m if a < b else m.T
