"""Pairwise Markov random fields in the overcomplete indicator representation.

A model stores one weight table per node (one entry per state) and one weight
table per edge (one entry per state pair).  The objective of an assignment is
the sum of the selected entries.  Edges are kept with the lower node index
first, and the lower-index node always indexes the rows of the edge table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

Edge = tuple[int, int]

# Finite stand-in for log(0) in hard consistency couplings; large enough to
# never be paid by an optimal configuration at desk scale.
BIG = 1.0e6


class MrfError(Exception):
    pass


class ModelFormatError(MrfError):
    """A model or tree document violates its schema."""


class CapacityError(MrfError):
    """An enumeration guard would be exceeded."""


class StructureError(MrfError):
    """Graph-structure problem: disconnected graph, uncovered edge, bad tree."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _all_finite(tables) -> bool:
    """Whether every entry of every table is finite (one test on all of them)."""
    return not tables or bool(np.isfinite(np.concatenate(tables, axis=None)).all())


@dataclass(frozen=True)
class Potentials:
    """Node and edge weight tables; edges missing from the dict are zero."""

    node: tuple
    edge: Mapping[Edge, np.ndarray]


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

    @property
    def node_count(self) -> int:
        return len(self.cardinalities)

    @cached_property
    def neighbors(self) -> tuple:
        adj = [[] for _ in range(self.node_count)]
        for s, t in self.edges:
            adj[s].append(t)
            adj[t].append(s)
        return tuple(tuple(sorted(a)) for a in adj)

    def edge_key(self, a: int, b: int) -> Edge:
        return (a, b) if a < b else (b, a)

    def edge_table(self, a: int, b: int) -> np.ndarray:
        """Edge table oriented so rows are states of `a` and columns of `b`."""
        m = self.theta_edge[self.edge_key(a, b)]
        return m if a < b else m.T

    @property
    def potentials(self) -> Potentials:
        return Potentials(node=self.theta_node, edge=self.theta_edge)


def check_assignment(mrf: PairwiseMrf, x: Sequence[int]) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (mrf.node_count,):
        raise ValueError(f"invalid assignment: expected {mrf.node_count} values, got shape {x.shape}")
    if x.dtype.kind not in "iu":
        if not np.all(x == x.astype(int)):
            raise ValueError("invalid assignment: non-integer entries")
        x = x.astype(int)
    for s, v in enumerate(x):
        if not 0 <= v < mrf.cardinalities[s]:
            raise ValueError(f"invalid assignment: x[{s}]={v} outside cardinality {mrf.cardinalities[s]}")
    return x


def score(mrf: PairwiseMrf, x: Sequence[int]) -> float:
    """Objective value of an assignment: sum of selected node and edge entries."""
    x = check_assignment(mrf, x)
    total = 0.0
    for s in range(mrf.node_count):
        total += mrf.theta_node[s][x[s]]
    for (s, t) in mrf.edges:
        total += mrf.theta_edge[(s, t)][x[s], x[t]]
    return float(total)


def ising_to_overcomplete(node_weights: Sequence[float],
                          edge_weights: Mapping[Edge, float]) -> PairwiseMrf:
    """Convert spin-model weights to binary indicator tables.

    The spin objective is sum_s w_s * sigma_s + sum_st w_st * sigma_s * sigma_t
    with sigma in {-1, +1}; state 0 maps to sigma=-1 and state 1 to sigma=+1.
    """
    node_weights = [float(w) for w in node_weights]
    n = len(node_weights)
    edges = tuple(sorted((s, t) if s < t else (t, s) for (s, t) in edge_weights))
    if len(edges) != len(edge_weights):
        raise ModelFormatError("duplicate edge in edge_weights")
    theta_node = [np.array([-w, w]) for w in node_weights]
    theta_edge = {}
    for (s, t) in edges:
        w = float(edge_weights[(s, t)] if (s, t) in edge_weights else edge_weights[(t, s)])
        theta_edge[(s, t)] = np.array([[w, -w], [-w, w]])
    return PairwiseMrf(tuple([2] * n), edges, tuple(theta_node), theta_edge)


@dataclass(frozen=True)
class Factor:
    members: tuple
    table: np.ndarray


@dataclass(frozen=True)
class FactorGraph:
    """Discrete factor graph with strictly positive factor tables."""

    cardinalities: tuple
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "cardinalities", tuple(int(m) for m in self.cardinalities))
        n = len(self.cardinalities)
        facs = []
        for i, f in enumerate(self.factors):
            members = tuple(int(v) for v in f.members)
            if len(set(members)) != len(members):
                raise ModelFormatError(f"factor {i}: repeated member")
            if any(not 0 <= v < n for v in members):
                raise ModelFormatError(f"factor {i}: member out of range")
            table = _freeze(f.table)
            want = tuple(self.cardinalities[v] for v in members)
            if table.shape != want:
                raise ModelFormatError(f"factor {i}: table shape {table.shape}, expected {want}")
            if not np.all(table > 0):
                raise ValueError(f"factor {i}: table entries must be strictly positive")
            facs.append(Factor(members, table))
        object.__setattr__(self, "factors", tuple(facs))


def factor_to_pairwise(fg: FactorGraph) -> PairwiseMrf:
    """Reduce a factor graph to a pairwise MRF.

    Unary and binary factors are absorbed into node/edge tables directly.  Each
    factor of arity >= 3 becomes an auxiliary node whose states enumerate the
    joint states of its members (row-major in member order); its node table is
    the log factor, and each member is tied to it by a 0/-BIG consistency table.
    The augmented maximum over consistent states equals the maximum of the sum
    of log factors over the original variables.
    """
    n = len(fg.cardinalities)
    cards = list(fg.cardinalities)
    node = [np.zeros(m) for m in fg.cardinalities]
    edge: dict[Edge, np.ndarray] = {}

    def add_edge(s, t, table):
        key = (s, t) if s < t else (t, s)
        oriented = table if s < t else table.T
        if key in edge:
            edge[key] = edge[key] + oriented
        else:
            edge[key] = oriented

    for f in fg.factors:
        logf = np.log(f.table)
        if len(f.members) == 1:
            node[f.members[0]] = node[f.members[0]] + logf
        elif len(f.members) == 2:
            add_edge(f.members[0], f.members[1], logf)
        else:
            z = len(cards)
            member_cards = [fg.cardinalities[v] for v in f.members]
            mz = int(np.prod(member_cards))
            cards.append(mz)
            node.append(logf.reshape(mz))
            # joint state index -> member states, row-major in member order
            states = np.stack(np.unravel_index(np.arange(mz), tuple(member_cards)), axis=1)
            for axis, v in enumerate(f.members):
                table = np.full((mz, fg.cardinalities[v]), -BIG)
                table[np.arange(mz), states[:, axis]] = 0.0
                add_edge(z, v, table)

    edges = tuple(sorted(edge))
    return PairwiseMrf(tuple(cards), edges, tuple(node), edge)


def save_model(mrf: PairwiseMrf) -> bytes:
    doc = {
        "nodes": list(mrf.cardinalities),
        "edges": [list(e) for e in mrf.edges],
        "theta_node": [v.tolist() for v in mrf.theta_node],
        "theta_edge": [mrf.theta_edge[e].tolist() for e in mrf.edges],
    }
    return json.dumps(doc, indent=1).encode("utf-8")


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
