"""Pairwise Markov random fields in the overcomplete indicator representation.

A model stores one weight table per node (one entry per state) and one weight
table per edge (one entry per state pair).  The objective of an assignment is
the sum of the selected entries.  Edges are kept with the lower node index
first, and the lower-index node always indexes the rows of the edge table.

A `PairwiseMrf` is its tables packed in two frozen vectors: `node_vector`,
every node table in node order, and `edge_vector`, every edge table
row-major in `edges` order.  Together they are the LP vector, whose order
`_offsets` states once and in which `_indicator_index` finds the entries
phi(x) selects.  Every solver reads these vectors; `theta_node` and
`theta_edge`, read-only views of them per table, are built on first read.
A model is checked by one sequence, whatever it is built from: the graph,
then the tables' shapes, then their finiteness, each on whole arrays; a
loop over the tables runs only to name the first bad one.  The constructor
packs per-table arrays, and `load_model` flattens a document's nested lists
into the two vectors in one pass and checks the tables' shapes as one int
array of list lengths.  It parses with the cyclic garbage collector paused:
a JSON document holds no reference cycles, so a collector pass during the
parse could free nothing, and the caller's setting is restored afterwards,
also on error.  The pause is process-wide, so in a threaded program another
thread's collector passes wait for at most one parse.

A tree parameter theta(T), one term of the split theta = sum_T rho(T)
theta(T), is a `PairwiseMrf` too: on the model's nodes, with some of the
model's edges.  `treedp._tree_parameter` checks it against its model and
tree.  So is a pseudomarginal tau of the LP layer, on the model's graph: its
packed vectors are an LP vector (`lp.vector_to_pseudomarginal`), indexed
like theta's, so <theta, tau> is one dot product.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
from dataclasses import dataclass
from itertools import chain
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


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    """`a` as a read-only array of `dtype` (None: its own), in place when it
    is an array of that dtype already."""
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _all_finite(tables) -> bool:
    """Whether every entry of every table is finite (one test on all of them)."""
    return not tables or bool(np.isfinite(np.concatenate(tables, axis=None)).all())


def _sum_in_order(terms) -> np.ndarray:
    """0 + terms[0] + terms[1] + ..., added left to right along the first
    axis.  `np.sum` adds pairwise and builtin `sum` is compensated from
    Python 3.12 on, either of which would move results in the last ulps.
    It keeps every partial sum, so a stack of T terms takes about T + 1 times
    the memory of one; the largest stacks summed here are
    `check_reparameterization`'s, one table stack per tree."""
    terms = np.asarray(terms, dtype=float)
    return np.add.accumulate(np.concatenate((np.zeros((1,) + terms.shape[1:]), terms)))[-1]


def _offsets(cardinalities, ends: np.ndarray) -> tuple:
    """(node offsets, edge offsets) of the LP vector: every node table, then
    every edge table row-major in edge order, for the edges' (E, 2) array of
    end nodes; the last edge offset is the vector's length."""
    cards = np.asarray(cardinalities, dtype=np.intp)
    off = np.cumsum(np.concatenate(([0], cards, cards[ends[:, 0]] * cards[ends[:, 1]])))
    return off[:len(cards)], off[len(cards):]


@dataclass(frozen=True, init=False, eq=False)
class PairwiseMrf:
    """A pairwise MRF: cardinalities, undirected edges and weight tables.

    The model is its two packed vectors, frozen: `node_vector` and
    `edge_vector`, with `offsets` their `_offsets`.  `theta_node` and
    `theta_edge` are read-only views of them, built on first read.  The
    constructor and `_packed` run one check sequence, `_check_graph` and
    then `_check_tables`.  Models compare and hash by identity.
    """

    cardinalities: tuple
    edges: tuple
    node_vector: np.ndarray
    edge_vector: np.ndarray
    offsets: tuple

    def __init__(self, cardinalities, edges, theta_node, theta_edge: Mapping[Edge, np.ndarray]):
        """From per-node tables and a mapping {edge: table}."""
        self._check_graph(cardinalities, edges)
        edge = [theta_edge[e] for e in self.edges if e in theta_edge]
        one_node, one_edge = len(theta_node) == self.node_count, set(theta_edge) == set(self.edges)
        self._check_tables(theta_node, map(np.shape, theta_node) if one_node else None,
                           edge, map(np.shape, edge) if one_edge else None)

    @classmethod
    def _packed(cls, cardinalities, edges, node: np.ndarray,
                node_shapes: list, edge: np.ndarray, edge_shapes: list) -> PairwiseMrf:
        """A model from its edges, packed vectors and their tables' shapes."""
        self = cls.__new__(cls)
        self._check_graph(cardinalities, edges)
        self._check_tables((node,), node_shapes, (edge,), edge_shapes)
        return self

    def _check_graph(self, cardinalities, edges):
        """Positive cardinalities, and edges (s, t) with s < t, in range and
        distinct, from pairs of node indices or their (E, 2) array; an error
        names the first bad edge.  Keeps the cardinalities and the edges as
        int tuples, and the edges' (E, 2) array of end nodes as `_ends`."""
        if len(cardinalities) == 0:
            raise ModelFormatError("model has no nodes")
        object.__setattr__(self, "cardinalities", tuple(map(int, cardinalities)))
        if min(self.cardinalities) <= 0:
            raise ModelFormatError("cardinalities must be positive")
        ends = np.array(edges, dtype=np.intp)
        if ends.size and ends.shape[1:] != (2,):
            raise ModelFormatError("edges: expected pairs of node indices")
        ends = ends.reshape(-1, 2)
        object.__setattr__(self, "edges", tuple(zip(*ends.T.tolist())))
        s, t = ends.T
        order = np.lexsort((t, s))
        repeat = np.zeros(len(ends), dtype=bool)  # an edge equal to an earlier one
        repeat[order[1:]] = (s[order][1:] == s[order][:-1]) & (t[order][1:] == t[order][:-1])
        outside = ((ends < 0) | (ends >= self.node_count)).any(axis=1)
        # in the order an edge's problems are reported
        checks = ((s == t, "self-loop"), (outside, "node index out of range"),
                  (s > t, "must be ordered (s, t) with s < t"), (repeat, "duplicate"))
        bad = functools.reduce(np.logical_or, (flags for flags, _ in checks))
        if bad.any():
            i = int(bad.argmax())
            problem = next(problem for flags, problem in checks if flags[i])
            raise ModelFormatError(f"edge {self.edges[i]}: {problem}")
        ends.setflags(write=False)
        object.__setattr__(self, "_ends", ends)

    def _check_tables(self, node, node_shapes, edge, edge_shapes):
        """Check the node and then the edge tables, each given as arrays whose
        entries, concatenated, are the packed vector, and the tables' shapes
        (None: not one table per node, or per edge): each table (m_s,) or
        (m_s, m_t), then every entry finite; an error names the first bad
        table.  The shapes are an iterable of tuples, or a (K, 1) or (K, 2)
        int array of the list lengths, checked with one comparison; a table
        without rows has numpy's shape (0,).  Keeps the vectors, frozen, and
        their `_offsets`."""
        cards = np.array(self.cardinalities)
        for field, shapes, want in (("theta_node", node_shapes, cards[:, None]),
                                    ("theta_edge", edge_shapes, cards[self._ends])):
            if shapes is None:
                raise ModelFormatError(f"{field}: one table per {field[6:]} required")
            if isinstance(shapes, np.ndarray):
                if np.array_equal(shapes, want):
                    continue
                # a table without rows reads as numpy's shape (0,)
                shapes = [tuple(shape) if shape[0] else (0,) for shape in shapes.tolist()]
            shapes, want = list(shapes), list(map(tuple, want.tolist()))
            if shapes != want:
                k, shape = next((k, a) for k, (a, b) in enumerate(zip(shapes, want)) if a != b)
                raise ModelFormatError(
                    f"theta_node[{k}]: shape {shape} does not match cardinality"
                    if field == "theta_node" else
                    f"theta_edge[{self.edges[k]}]: shape {shape}, expected {want[k]}")
        node_off, edge_off = _offsets(self.cardinalities, self._ends)
        for name, tables, starts, field, keys in (
                ("node_vector", node, node_off, "theta_node", range(self.node_count)),
                ("edge_vector", edge, edge_off[:-1] - edge_off[0], "theta_edge", self.edges)):
            vector = _freeze(np.concatenate([[], *tables], axis=None))
            bad = np.flatnonzero(~np.isfinite(vector))
            if bad.size:
                k = int(np.searchsorted(starts, bad[0], side="right")) - 1
                raise ModelFormatError(f"{field}[{keys[k]}]: non-finite entry")
            object.__setattr__(self, name, vector)
        object.__setattr__(self, "offsets", (node_off, edge_off))

    @functools.cached_property
    def _edge_shapes(self) -> list:
        """Each edge's (m_s, m_t), in `edges` order."""
        cards = np.array(self.cardinalities)
        return list(zip(cards[self._ends[:, 0]].tolist(), cards[self._ends[:, 1]].tolist()))

    @functools.cached_property
    def theta_node(self) -> tuple:
        """Each node's table, a read-only view of `node_vector`."""
        return tuple(np.split(self.node_vector, self.offsets[0][1:]))

    @functools.cached_property
    def theta_edge(self) -> Mapping[Edge, np.ndarray]:
        """{edge: table} in `edges` order, read-only views of `edge_vector`."""
        tables = np.split(self.edge_vector, self.offsets[1][1:-1] - self.offsets[1][0])
        return dict(zip(self.edges, map(np.reshape, tables, self._edge_shapes)))

    @property
    def node_count(self) -> int:
        return len(self.cardinalities)


def check_assignment(mrf: PairwiseMrf, x: Sequence[int]) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (mrf.node_count,):
        raise ValueError(f"invalid assignment: expected {mrf.node_count} values, got shape {x.shape}")
    if x.dtype.kind not in "iu":
        if not np.all(x == x.astype(int)):
            raise ValueError("invalid assignment: non-integer entries")
        x = x.astype(int)
    bad = np.flatnonzero((x < 0) | (x >= np.array(mrf.cardinalities)))
    if bad.size:
        s = bad[0]
        raise ValueError(f"invalid assignment: x[{s}]={x[s]} outside cardinality {mrf.cardinalities[s]}")
    return x


def _checked_rho(edges: Sequence[Edge], rho_e: Mapping) -> dict:
    """Edge appearance weights rho_e as {(s, t): float} with s < t, checked
    against a graph's `edges`: every key a graph edge and every value finite,
    every edge given a positive one; a StructureError names the edge."""
    rho = {((a, b) if a < b else (b, a)): float(r) for (a, b), r in dict(rho_e).items()}
    known = set(edges)
    for e, r in rho.items():
        if e not in known:
            raise StructureError(f"rho_e given on {e}, which is not a graph edge")
        if not np.isfinite(r):
            raise StructureError(f"rho_e on edge {e} is not finite: {r!r}")
    missing = [e for e in edges if e not in rho or rho[e] <= 0]
    if missing:
        raise StructureError(f"rho_e missing or non-positive on edges {missing}")
    return rho


def _indicator_index(mrf: PairwiseMrf, states: np.ndarray) -> np.ndarray:
    """The positions of the ones of phi(x) in the LP vector, for each
    configuration x (a row of `states`): one per node, then one per edge."""
    node_off, edge_off = mrf.offsets
    s, t = mrf._ends.T
    mt = np.array(mrf.cardinalities)[t]
    return np.concatenate([node_off + states,
                           edge_off[:-1] + states[:, s] * mt + states[:, t]], axis=1)


def score(mrf: PairwiseMrf, x: Sequence[int]) -> float:
    """Objective value of an assignment: the entries phi(x) selects, added
    left to right, node by node and then edge by edge in `edges` order."""
    x = check_assignment(mrf, x)
    picked = np.concatenate((mrf.node_vector, mrf.edge_vector))[_indicator_index(mrf, x[None])[0]]
    return float(_sum_in_order(picked))


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
    node = np.array(node_weights)
    w = np.array([float(edge_weights[(s, t)] if (s, t) in edge_weights else edge_weights[(t, s)])
                  for (s, t) in edges])
    # node tables [-w, w], edge tables [[w, -w], [-w, w]], packed
    return PairwiseMrf._packed((2,) * n, edges, np.stack((-node, node), axis=1).ravel(), [(2,)] * n,
                               (w[:, None] * np.array([1.0, -1.0, -1.0, 1.0])).ravel(),
                               [(2, 2)] * len(edges))


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


def _entries(tables: list, depth: int, numbers=frozenset((int, float))):
    """The numbers of a list of tables nested `depth` lists deep, in order,
    and the list lengths of every level; None unless every table is lists
    of that depth holding JSON numbers of the types `numbers` (int or float
    by default; a bool is neither)."""
    lengths = []
    for _ in range(depth):
        if not set(map(type, tables)) <= {list}:
            return None
        lengths.append(list(map(len, tables)))
        tables = list(chain.from_iterable(tables))
    if not set(map(type, tables)) <= numbers:
        return None
    return tables, lengths


def _flatten(tables: list, field: str, depth: int) -> tuple:
    """(one float vector of all the entries, the tables' shapes as a (K,
    depth) int array of list lengths) for a document's list of node tables
    (depth 1) or edge tables (depth 2, a list of rows); a `ModelFormatError`
    names the first table that is not a list of numbers, or of equal-length
    rows of numbers."""
    found = _entries(tables, depth)
    if found is None:
        k = next(k for k, table in enumerate(tables) if _entries([table], depth) is None)
        what = "numbers" if depth == 1 else "rows of numbers"
        raise ModelFormatError(f"{field}[{k}]: expected a list of {what}")
    values, lengths = found
    if depth == 1:
        shapes = np.array(lengths[0], dtype=np.intp)[:, None]
    else:
        rows, widths = (np.array(v, dtype=np.intp) for v in lengths)
        first = np.cumsum(rows) - rows  # each table's first row
        table_of = np.repeat(np.arange(len(rows)), rows)
        odd = widths != widths[first[table_of]]
        if odd.any():
            raise ModelFormatError(f"{field}[{table_of[odd.argmax()]}]: rows of unequal length")
        # a table without rows gets any width; `_check_tables` reads it as (0,)
        shapes = np.stack((rows, np.append(widths, 0)[first]), axis=1)
    try:
        return np.array(values, dtype=float), shapes
    except OverflowError:
        raise ModelFormatError(f"{field}: a number is too large for a float") from None


@contextlib.contextmanager
def _collector_paused():
    """Run the block (or, as a decorator, the function) with the cyclic
    garbage collector off, and restore the caller's setting on the way out,
    also when it raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def load_model(data: bytes | str) -> PairwiseMrf:
    """Read a model document: `nodes` (the cardinalities), `edges` (pairs of
    node indices) and one table per node and per edge, as nested lists of
    numbers.  A malformed document raises `ModelFormatError` naming the
    field.

    The parse, the checks and the packing run with the cyclic collector
    paused.  A 32x32 3-state grid's document is about 11K lists, enough
    allocations to set off some 24 collector passes per load, and none of
    them can free anything: a JSON document holds no reference cycles, so
    reference counting frees the lists once the vectors are packed.  The
    caller's setting is restored afterwards, also on error; in a threaded
    program another thread's collector passes wait for at most one parse.
    The tables' shapes are checked as one int array of list lengths."""
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
    if not isinstance(cards, list) or not set(map(type, cards)) <= {int}:
        raise ModelFormatError("nodes: expected a list of integers")
    for key in ("edges", "theta_node", "theta_edge"):
        if not isinstance(doc[key], list):
            raise ModelFormatError(f"{key}: expected a list")
    edges = doc["edges"]
    found = _entries(edges, 1, {int})
    if found is None or not set(found[1][0]) <= {2}:
        for i, e in enumerate(edges):
            if not (type(e) is list and len(e) == 2 and set(map(type, e)) == {int}):
                raise ModelFormatError(f"edges[{i}]: expected a pair of integers")
    if len(doc["theta_node"]) != len(cards):
        raise ModelFormatError("theta_node: length must match nodes")
    if len(doc["theta_edge"]) != len(edges):
        raise ModelFormatError("theta_edge: length must match edges")
    node, node_shapes = _flatten(doc["theta_node"], "theta_node", 1)
    edge, edge_shapes = _flatten(doc["theta_edge"], "theta_edge", 2)
    try:
        ends = np.array(found[0], dtype=np.intp).reshape(-1, 2)
    except OverflowError:
        i = next(i for i, e in enumerate(edges) if max(map(abs, e)) >= 2 ** 62)
        raise ModelFormatError(f"edges[{i}]: node index out of range") from None
    return PairwiseMrf._packed(cards, ends, node, node_shapes, edge, edge_shapes)
