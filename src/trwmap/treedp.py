"""Exact computations: MAP oracles, tree max-marginals, consistency checks.

Two oracles return a model's MAP value and its complete optimal set, equal
(`==`) on every model both take.  `brute_force_map` scores the whole joint
state space, guarded at 2^24 states.  `grid_map` takes models whose edges are
`grid_edges(rows, cols)`: a max-sum DP over the grid's rows, or its columns
when those have fewer joint states, guarded by the size of a line-pair
table, (joint states of a line)^2.  It backtracks every configuration near
the DP value and rescores each in `score`'s left-to-right order, which is
the order brute force sums in, so its value and optimal set are brute
force's to the bit.  What it reads of the graph alone (lines, joint
states, the two sides of each edge's gather index) is a read-only plan per
grid shape, cached by `_grid_plan` next to the layout and tree-plan caches
below.  Every pair table is one gather from those sides, in column blocks
under one bound on a temporary's positions, `GRID_GATHER_BOUND`.  `grid_shape`
finds a model's grid shape.  The CLI uses `grid_map` on grids and brute
force elsewhere, and on grids past its guards.

Max-marginals are kept in the log domain and max-normalized (largest entry of
every table is 1, i.e. 0 in logs); that pins down the free per-table constants
and keeps all arithmetic overflow-safe.

`_Layout` is the one array layout of the package, built once per graph by
`_graph_layout`, a small cache of read-only layouts that every layer
(`trw`, `lp`, `cli`) and every run on the graph shares.  Node tables are one
vector with per-node offsets.  Edge tables are one padded (E, M, M) stack in
the layout's edge order, M the largest cardinality: edge k's table is [k,
:m_s, :m_t] and the padded entries are -inf, so a table's max and its row
and column maxima read the valid entries only.  Per-edge vectors over the
states of either endpoint are (E, 2, M) arrays, s side first.  Where a step
subtracts tables or compares them, it reads the valid entries or subtracts
a 0-padded stack, so no -inf - -inf is ever formed.  A model's tables enter
a layout by one scatter of its packed edge vector (`_Layout.model_tables`).
A `MaxMarginals` keeps the layout it was computed on, with its node vector
and table stack, and a `MessageSet` (messages, or the LP's multipliers) its
(E, 2, M) array; their per-table views are built on first read, and
`check_edge_consistency` tests every edge at once on the stack.

Trees are solved by one max-product DP, `_TreeLayout`, which runs on every
tree of a collection at once, each rooted at node 0, one batch of messages
per arc dependency level over all the trees and edge cardinalities.  Every
message is max-normalized, and the constants removed from the upward ones
(toward the root) give a tree's optimal value: its root belief's max plus
their sum.  `map_values` sends the upward messages alone, and `solve` every
level, which also gives the max-marginals, both refilling in place the
buffers of a per-run `_Workspace` (a call without one builds its own).
`tree_max_marginals` and `tree_map_value` run it on a single tree, on a
read-only plan from `_tree_plan`, the plan cache of the tree schedule, for
a tree parameter: a `PairwiseMrf` on the model's nodes and edges whose
tables vanish off the tree, a tree edge it lacks counting as zero.  They,
`tree_opt_set` and `trw.check_reparameterization` check it by one
function, `_tree_parameter`.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .model import (CapacityError, Edge, PairwiseMrf, StructureError,
                    _all_finite, _freeze, _indicator_index, _offsets, _sum_in_order)
from .trees import SpanningTree, grid_edges

BRUTE_FORCE_GUARD = 2 ** 24
GRID_OPTIMA_GUARD = 2 ** 16
GRID_GATHER_BOUND = 2 ** 16  # positions of a `grid_map` gather block's or backtrack block's temporary


@dataclass(frozen=True, init=False, eq=False)
class MaxMarginals:
    """Per-node vectors and per-edge matrices, stored as logs, on the
    `_Layout` they were computed on: `node` is its node vector and `tables`
    its padded (E, M, M) table stack.  `log_node` and `log_edge` are views
    of these arrays, with the edges in the layout's order, built on first
    read."""

    layout: _Layout
    node: np.ndarray
    tables: np.ndarray

    def __init__(self, log_node, log_edge):
        if not len(log_node):
            raise StructureError("max-marginals have no nodes")
        for s, v in enumerate(log_node):
            if np.ndim(v) != 1:
                raise StructureError(f"node {s} table has shape {np.shape(v)}, expected a vector")
            if not len(v):
                raise StructureError(f"node {s} table has no states")
        cards = [len(v) for v in log_node]
        for (s, t), m in log_edge.items():
            if not (0 <= s < len(cards) and 0 <= t < len(cards)):
                raise StructureError(f"edge {(s, t)} names a node outside 0..{len(cards) - 1}")
            if np.shape(m) != (cards[s], cards[t]):
                raise StructureError(f"edge {(s, t)} table has shape {np.shape(m)}, "
                                     f"expected {(cards[s], cards[t])}")
            if s == t:
                raise StructureError(f"edge {(s, t)} is a self-loop")
            if s > t:
                raise StructureError(f"edge {(s, t)} must be ordered (s, t) with s < t")
        layout = _graph_layout(tuple(cards), tuple((int(s), int(t)) for s, t in log_edge))
        self._place(layout, np.concatenate([np.asarray(v, dtype=float) for v in log_node]),
                    layout.stack(log_edge))

    @classmethod
    def on_layout(cls, layout: _Layout, node: np.ndarray, tables: np.ndarray) -> MaxMarginals:
        """From a node vector and a table stack of `layout`."""
        self = cls.__new__(cls)
        self._place(layout, node, tables)
        return self

    def _place(self, layout, node, tables):
        if not _all_finite((node, tables.take(layout.entries))):
            raise ValueError("non-finite log max-marginal")
        for name, value in zip(("layout", "node", "tables"), (layout, node, tables)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def log_node(self) -> tuple:
        return self.layout.node_views(self.node)

    @functools.cached_property
    def log_edge(self) -> Mapping[Edge, np.ndarray]:
        return self.layout.edge_views(self.tables)


@dataclass(frozen=True, init=False, eq=False)
class MessageSet:
    """Directed positive messages, one vector per edge direction, as logs.

    log_m[(t, s)] is the log message sent from t to s, indexed by states of s.
    The Lagrange multipliers of `lp.dual_from_messages` share this index set
    and are a message set too.  A message set built on a layout, the graph's
    cached one, keeps that layout and its (E, 2, M) array, which a step on
    the same layout reads as it is; `log_m`, views of it, is built on first
    read."""

    def __init__(self, log_m: Mapping[tuple, np.ndarray]):
        object.__setattr__(self, "log_m", log_m)

    @classmethod
    def on_layout(cls, layout: _Layout, msgs: np.ndarray) -> MessageSet:
        """From an (E, 2, M) message array of `layout`: [k, 0] is t -> s of
        the k-th edge (s, t), [k, 1] is s -> t."""
        self = cls.__new__(cls)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_msgs", msgs)
        return self

    @functools.cached_property
    def log_m(self) -> Mapping[tuple, np.ndarray]:
        logs = {}
        for (s, t), m, (ms, mt) in zip(self._layout.edges, self._msgs, self._layout.edge_cards):
            logs[(t, s)] = m[0, :ms]
            logs[(s, t)] = m[1, :mt]
        return logs


@dataclass(frozen=True)
class OptSet:
    """The complete set of maximizing assignments of some objective."""

    configurations: tuple

    def as_set(self) -> set:
        return set(self.configurations)

    def __contains__(self, x) -> bool:
        return tuple(int(v) for v in x) in self.as_set()

    def __len__(self) -> int:
        return len(self.configurations)


def assignment_scores(cardinalities: Sequence[int], node, edge: Mapping) -> np.ndarray:
    """Dense array of objective values over the whole joint state space, for
    per-node tables and a mapping {edge: table}: the node tables added in
    node order, then the edge tables in the mapping's order."""
    cards = tuple(int(m) for m in cardinalities)
    n = len(cards)
    total = np.zeros(cards)
    for s in range(n):
        shape = [1] * n
        shape[s] = cards[s]
        total += np.asarray(node[s]).reshape(shape)
    for (s, t), m in edge.items():
        shape = [1] * n
        shape[s], shape[t] = cards[s], cards[t]
        total += np.asarray(m).reshape(shape)
    return total


def _guard_states(cardinalities, max_states):
    total = 1
    for m in cardinalities:
        total *= int(m)
        if total > max_states:
            raise CapacityError(f"joint state space exceeds guard of {max_states}")
    return total


def brute_force_map(mrf: PairwiseMrf, max_states: int = BRUTE_FORCE_GUARD,
                    atol: float = 0.0):
    """Exact MAP value and the complete set of optimal assignments (those
    within `atol` of the value)."""
    _guard_states(mrf.cardinalities, max_states)
    scores = assignment_scores(mrf.cardinalities, mrf.theta_node, mrf.theta_edge)
    value = float(scores.max())
    return value, OptSet(tuple(map(tuple, np.argwhere(scores >= value - atol).tolist())))


def grid_shape(mrf: PairwiseMrf):
    """(rows, cols) with `grid_edges(rows, cols)` the model's edges, in any
    order, or None when its graph is no grid: the shape `grid_map` takes."""
    n = mrf.node_count
    for cols in range(1, n + 1):
        if n % cols == 0 and _is_grid(mrf.edges, n, n // cols, cols):
            return n // cols, cols
    return None


def _is_grid(edges, n: int, rows: int, cols: int) -> bool:
    return (n == rows * cols and len(edges) == rows * (cols - 1) + (rows - 1) * cols
            and sorted(edges) == grid_edges(rows, cols))


def _grid_lines(cardinalities: Sequence[int], rows: int, cols: int) -> list:
    """The lines `grid_map`'s DP runs over, as lists of nodes: the grid's
    rows, or its columns when a column has fewer joint states.  A
    CapacityError when a line-pair table, (joint states of a line)^2,
    exceeds `BRUTE_FORCE_GUARD`."""
    grid = np.arange(rows * cols).reshape(rows, cols)
    sizes = [max(math.prod(cardinalities[s] for s in line) for line in g)
             for g in (grid, grid.T)]
    if min(sizes) ** 2 > BRUTE_FORCE_GUARD:
        raise CapacityError(f"grid line-pair table exceeds guard of {BRUTE_FORCE_GUARD}")
    return (grid.T if sizes[1] < sizes[0] else grid).tolist()


@functools.lru_cache(maxsize=8)
def _grid_plan(cardinalities: tuple, edges: tuple, rows: int, cols: int) -> tuple:
    """What `grid_map` reads of a grid graph (edges in the model's order),
    as entries of a model's packed vector theta, read-only and shared by
    every call on the graph: (lines, states, unary, sides).  Per line r of
    `lines` ((R, L) nodes), its joint states `states[r]`, (K_r, L), and the
    entries that score them along the line, `unary[r]`, (K_r, 2L - 1).  The
    c-th edge between lines r and r + 1 at states i, j is entry
    `sides[r][0][c, i, 0] + sides[r][1][c, 0, j]`, shaped (L, K_r, 1) and
    (L, 1, K_{r+1}) to broadcast; a call forms these sums itself.
    Each line's arrays hold 4L - 1 integers per joint state, as the index
    arrays of one call did before.  Its StructureError on other edges and
    `_grid_lines`' CapacityError are never cached."""
    if not _is_grid(edges, len(cardinalities), rows, cols):
        raise StructureError(f"the model's graph is not the {rows}x{cols} grid")
    lines = np.array(_grid_lines(cardinalities, rows, cols), dtype=np.intp)
    cards = np.array(cardinalities, dtype=np.intp)
    node_off, edge_off = _offsets(cards, np.array(edges, dtype=np.intp).reshape(-1, 2))
    at = dict(zip(edges, edge_off.tolist()))
    shapes = [tuple(cards[line].tolist()) for line in lines]
    joint = {key: np.indices(key).reshape(len(key), -1).T for key in set(shapes)}
    states = [joint[key] for key in shapes]

    def starts(a, b):
        """The entry of each edge (a[c], b[c]) at states (0, 0)."""
        return np.array([at[e] for e in zip(a.tolist(), b.tolist())], dtype=np.intp)

    unary = [np.concatenate((node_off[line] + x, starts(line[:-1], line[1:])
                             + x[:, :-1] * cards[line[1:]] + x[:, 1:]), 1)
             for line, x in zip(lines, states)]
    sides = [((starts(a, b)[:, None] + x.T * cards[b][:, None])[:, :, None], y.T[:, None, :])
             for a, b, x, y in zip(lines, lines[1:], states, states[1:])]
    for a in chain([lines], states, unary, chain.from_iterable(sides)):
        a.setflags(write=False)
    return lines, tuple(states), tuple(unary), tuple(sides)


def grid_map(mrf: PairwiseMrf, rows: int, cols: int):
    """Exact MAP value and the complete set of optimal assignments of a model
    whose edges are `grid_edges(rows, cols)`, equal to `brute_force_map`'s.

    On the shape's cached `_grid_plan`, a max-sum DP runs over the grid's
    lines (`_grid_lines`), each line-pair table gathered at the plan's
    `sides` in column blocks of at most `GRID_GATHER_BOUND` positions, the
    backtrack's too.
    Backtracking collects every configuration whose DP score lies within
    1e-9 of the DP value, relative to the model's total absolute weight
    (which bounds any configuration's terms, so rounding never drops an
    optimum).  Each is rescored in `score`'s order, the order in which brute
    force sums too, and those equal to the maximum are returned in
    lexicographic order.  A CapacityError is raised when a line-pair table
    exceeds `BRUTE_FORCE_GUARD`, or when more than `GRID_OPTIMA_GUARD`
    configurations are collected.
    """
    lines, states, unary, sides = _grid_plan(mrf.cardinalities, mrf.edges, rows, cols)
    theta = np.concatenate((mrf.node_vector, mrf.edge_vector))
    bound = GRID_GATHER_BOUND

    def between(r, picked):
        """The pair table of lines r and r + 1: rows the states of line r,
        columns the states `picked` of line r + 1."""
        left, right = sides[r][0], sides[r][1][:, :, picked]
        step = max(1, bound // left.size)
        return np.concatenate([np.add.reduce(theta[left + right[:, :, lo:lo + step]])
                               for lo in range(0, right.shape[2], step)], axis=1)

    unary = [theta[pos].sum(axis=1) for pos in unary]
    best = [unary[0]]
    for r in range(1, len(states)):
        pair = between(r - 1, slice(None))
        pair += best[-1][:, None]
        best.append(unary[r] + pair.max(axis=0))
    floor = best[-1].max() - 1e-9 * (1.0 + np.abs(theta).sum())
    # backtrack from the last line: a partial configuration of lines r + 1
    # onward (`paths`, its score `tail`) extends by a state k of line r when
    # the best prefix ending in k completes it above the floor, so each
    # level's partial configurations are at most the complete ones
    too_many = CapacityError(f"more than {GRID_OPTIMA_GUARD} near-optimal grid configurations")
    paths = np.flatnonzero(best[-1] >= floor)[:, None]
    if len(paths) > GRID_OPTIMA_GUARD:
        raise too_many
    tail = unary[-1][paths[:, 0]]
    for r in range(len(states) - 2, -1, -1):
        step = max(1, bound // len(best[r]))  # bounds the (states, items) block
        grown, count = [], 0
        for lo in range(0, len(paths), step):
            p, t = paths[lo:lo + step], tail[lo:lo + step]
            pair = between(r, p[:, 0])
            k, i = np.nonzero(best[r][:, None] + pair + t >= floor)
            count += len(k)
            if count > GRID_OPTIMA_GUARD:
                raise too_many
            grown.append((np.concatenate((k[:, None], p[i]), 1), t[i] + pair[k, i] + unary[r][k]))
        paths, tail = (np.concatenate(part) for part in zip(*grown))
    x = np.empty((len(paths), mrf.node_count), dtype=np.intp)
    for r, line in enumerate(lines):
        x[:, line] = states[r][paths[:, r]]
    scores = np.concatenate([_sum_in_order(theta[_indicator_index(mrf, part)].T)
                             for part in (x[lo:lo + 4096] for lo in range(0, len(x), 4096))])
    top = scores.max()
    x = x[scores == top]
    x = x[np.lexsort(x.T[::-1])]
    return float(top), OptSet(tuple(map(tuple, x.tolist())))


def _top(a: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Max over one short axis as elementwise maxima of its slices, in order:
    numpy reduces over an axis of a few entries many times slower per entry.
    Written into `out` when given."""
    slabs = a.transpose(axis, *(k for k in range(a.ndim) if k != axis)) if axis else a
    out = np.maximum(slabs[0], slabs[min(1, len(slabs) - 1)], out=out)
    for j in range(2, len(slabs)):
        np.maximum(out, slabs[j], out=out)
    return out


def _normalized(a: np.ndarray) -> np.ndarray:
    """Shift every table of a stack (axis 0) so its largest entry is 0: the
    max of its row maxima, folded in `_top`'s order from the last axis in,
    so a tie of 0.0 and -0.0 gives one zero on every SIMD path."""
    top = a
    for axis in range(a.ndim - 1, 0, -1):
        top = _top(top, axis)
    return a - top[(...,) + (None,) * (a.ndim - 1)]


class _Layout:
    """Node and edge tables of a graph laid out as arrays.

    Node tables live in one vector; node s owns entries offsets[s] to
    offsets[s] + m_s.  Edge tables are one (E, M, M) stack in `edges` order,
    M the largest cardinality, with -inf on padded entries; `edge_cards`
    holds each edge's (m_s, m_t).  Per-edge vectors over the states of either
    endpoint are (E, 2, M) arrays, the s side first: idx[k, 0] and idx[k, 1]
    are the node entries of the k-th edge's s and t states, 0 where `pad`
    marks a padded state.  `sides` (`pad_at`) and `entries` are the flat
    positions of the valid (padded) entries of such an array and of a stack,
    `_target` the node entry of each valid side.  A synchronous run reverses
    their axes (edge axis last): `idx_last` is `idx` so, and `sides_last`,
    `pad_last` and `entries_last` the same entries there, in the same order.
    """

    def __init__(self, cardinalities, edges):
        self.cards = cards = np.array(cardinalities, dtype=np.intp)
        ends = np.cumsum(cards)
        self.offsets = ends - cards
        self.node_of = np.repeat(np.arange(len(cards)), cards)
        self.size = int(ends[-1])
        self.edges = tuple(edges)
        self.ends = pairs = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self.edge_cards = cards[pairs].tolist()
        states = np.arange(cards.max())
        valid = states < cards[pairs][:, :, None]
        self.pad = ~valid
        self.pad_at = np.flatnonzero(self.pad)
        self.idx = np.where(valid, self.offsets[pairs][:, :, None] + states, 0)
        self.sides = np.flatnonzero(valid)
        self._target = self.idx.ravel()[self.sides]
        tables = valid[:, 0, :, None] & valid[:, 1, None, :]
        self.entries = np.flatnonzero(tables)
        self.idx_last = np.ascontiguousarray(self.idx.T)
        sides, entries = (np.arange(a.size).reshape(a.shape[::-1]).T.ravel() for a in (valid, tables))
        self.sides_last, self.pad_last = sides[self.sides], sides[self.pad_at]
        self.entries_last = entries[self.entries]

    @functools.cached_property
    def position(self) -> dict:
        """{edge: its position in `edges`}."""
        return {e: k for k, e in enumerate(self.edges)}

    def node_max(self, v: np.ndarray) -> np.ndarray:
        """Every entry's node-table max, for a node vector or a stack of them
        (last axis)."""
        return np.maximum.reduceat(v, self.offsets, axis=-1)[..., self.node_of]

    def model_tables(self, mrf: PairwiseMrf, fill: float = -np.inf) -> np.ndarray:
        """The (E, M, M) stack of a model's edge tables, `fill` on the
        padded entries: one scatter of its packed edge vector.  The layout's
        edges are the model's, in any order."""
        values = mrf.edge_vector
        if self.edges != mrf.edges:
            # each layout edge's entries, in the model's edge vector
            where = {e: k for k, e in enumerate(mrf.edges)}
            k = np.array([where[e] for e in self.edges], dtype=np.intp)
            start = mrf.offsets[1][k] - mrf.offsets[1][0]
            size = np.diff(mrf.offsets[1])[k]
            values = values[np.repeat(start - (np.cumsum(size) - size), size)
                            + np.arange(len(values))]
        width = self.pad.shape[2]
        out = np.full((len(self.edges), width, width), fill)
        out.reshape(-1)[self.entries] = values
        return out

    def stack(self, tables: Mapping) -> np.ndarray:
        """The (E, M, M) stack of a mapping of edge tables, -inf on the
        padded entries; an edge the mapping lacks counts as zero."""
        width = self.pad.shape[2]
        out = np.full((len(self.edges), width, width), -np.inf)
        for k, (e, (ms, mt)) in enumerate(zip(self.edges, self.edge_cards)):
            out[k, :ms, :mt] = tables[e] if e in tables else 0.0
        return out

    def node_views(self, node: np.ndarray) -> tuple:
        """The per-node tables of a node vector, as views."""
        return tuple(np.split(node, self.offsets[1:]))

    def edge_views(self, tables: np.ndarray) -> dict:
        """{edge: table} in `edges` order, views of a table stack."""
        return {e: tables[k, :ms, :mt]
                for k, (e, (ms, mt)) in enumerate(zip(self.edges, self.edge_cards))}

    def directed(self, vectors: Mapping) -> np.ndarray:
        """The (E, 2, M) array of per-direction vectors keyed (sender,
        receiver) over the receiver's states: [k, 0] is t -> s of the k-th
        edge (s, t), [k, 1] is s -> t; 0 on padded states.  The mapping
        holds exactly one vector of the receiver's cardinality per
        direction; a StructureError names the first direction that breaks
        this."""
        keys = [key for s, t in self.edges for key in ((t, s), (s, t))]
        known = set(keys)
        for key in vectors:
            if key not in known:
                raise StructureError(f"direction {key} is not an edge direction of the graph")
        for key, m in zip(keys, chain.from_iterable(self.edge_cards)):
            if key not in vectors:
                raise StructureError(f"direction {key}: no vector given")
            if np.shape(vectors[key]) != (m,):
                raise StructureError(f"direction {key}: shape {np.shape(vectors[key])}, "
                                     f"expected {(m,)}")
        out = np.zeros(self.idx.shape)
        out.reshape(-1)[self.sides] = np.concatenate([[], *(vectors[key] for key in keys)])
        return out

    def messages(self, msgs: MessageSet) -> np.ndarray:
        """A message set's (E, 2, M) array: its own if it was built on this
        very layout, else `directed` of its vectors, which checks them."""
        if getattr(msgs, "_layout", None) is self:
            return msgs._msgs
        return self.directed(msgs.log_m)


@functools.lru_cache(maxsize=8)
def _graph_layout(cardinalities: tuple, edges: tuple) -> _Layout:
    """The read-only `_Layout` of a graph, built once per (cardinalities,
    edges), both plain int tuples, and shared by every layer and run on it."""
    layout = _Layout(cardinalities, edges)
    for a in vars(layout).values():
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return layout


class _TreeLayout:
    """Spanning trees of one graph, laid out for one max-product DP that
    runs on all of them at once.

    `graph` lays out the node and edge tables, which the trees share: tree k
    uses every node table and its own edges' tables.  Each tree is rooted at
    node 0.  A slot is one edge of one tree; the slots are ordered by tree,
    then by the tree's edge order, and `tree` and `edge` hold each slot's
    tree and its edge's position in `graph.edges`.  An arc is one direction
    of a slot: the message its sender u sends to its receiver v, computed
    from u's cavity vector (u's node table plus its incoming messages but
    v's).

    A message waits only for the messages into its sender from the other
    side, so the arcs go in one batch per dependency level, a flooding
    schedule: the up arc u -> parent(u) at level height(u), and the down arc
    p -> u at 1 + the largest level of the other arcs into p (0 if none).
    The levels run from 0 to the largest tree diameter less one, and each
    covers every tree and edge, its up arcs first.  The arcs are numbered
    in batch order, so a batch is a contiguous range of them, and every
    buffer of the DP is in that order: the edge tables, oriented receiver
    by sender and gathered once per call, and the cavities, the messages
    and the constants removed from them, all in one flat state
    buffer.  A batch reads and writes slices of it.  A sender's cavity
    starts from its node table, gathered for every arc at once, and adds
    its incoming messages in its tree's adjacency order, one gather from
    the state per rank; an arc with fewer messages reads a -0.0 entry
    there, and x + -0.0 is x, bit for bit.  So every valid entry sees the
    same floating-point operations in the same order as a per-edge
    recursion over each tree.  Padded message and cavity entries are -inf
    like the padded table entries, and every max-normalization is a max
    over the valid entries, so no batch needs a mask.  One gather at the
    end (`final`) reads the beliefs' two parts, the slots' cavities and the
    removed constants out of the state.

    `map_values` runs `upward`, the leading up arcs of each level below the
    tallest tree's height, and `solve` runs `batches`, every arc, which also
    gives the max-marginals.  `edge_sum` sums per-slot values onto the
    edges, and `by_edge` groups the slots by edge.  What only `solve` and
    the tree schedule read (`final`, `slot_nodes`, `slot_entries`,
    `by_edge`) is built on first read, read-only, so the `map_values`
    callers never build it.  Every array is frozen where it is built, so
    every view of it (a batch's ranks, a root's) is born read-only.  The
    DP's buffers live in a `_Workspace`, one per run, never on the plan.
    """

    def __init__(self, graph: _Layout, trees):
        self.graph = graph
        self.count = len(trees)
        n, N = len(graph.offsets), graph.size
        width, where = graph.pad.shape[2], graph.position
        slots = [(k, where[e]) for k, tree in enumerate(trees) for e in tree.edges]
        self.tree = _freeze([k for k, _ in slots], np.intp)
        self.edge = _freeze([i for _, i in slots], np.intp)
        S = len(slots)
        adjs, up, down, rev = [], [], [], []
        for k, tree in enumerate(trees):
            adj = tree.neighbors(n)
            parent = tree.parent_map(n, 0)
            order = []
            stack = [0]
            while stack:
                u = stack.pop()
                order.append(u)
                stack.extend(v for v in adj[u] if v != parent[u])
            height = [0] * n
            for u in reversed(order[1:]):
                height[parent[u]] = max(height[parent[u]], height[u] + 1)
            # the level of the down arc into each node, in preorder: p -> u
            # waits for the other arcs into p, the up arcs of p's other
            # children and the down arc into p (-1: no arc)
            into = [-1] * n
            for p in order:
                kids = [c for c in adj[p] if c != parent[p]]
                second, first = sorted([-1, into[p]] + [height[c] for c in kids])[-2:]
                for u in kids:
                    into[u] = 1 + (second if height[u] == first else first)
            adjs.append(adj)
            rev += [(k, u, parent[u]) for u in reversed(order[1:])]
            up += [(height[u], (k, u, parent[u])) for u in order[1:]]
            down += [(into[u], (k, parent[u], u)) for u in order[1:]]
        # one batch per level, its up arcs first; no level is empty
        grouped = {}
        for level, arc in up + down:
            grouped.setdefault(level, []).append(arc)
        levels = [grouped[level] for level in range(len(grouped))]
        arcs = [arc for level in levels for arc in level]
        at = {arc: p for p, arc in enumerate(arcs)}
        # the state buffer: messages (2S rows of M), one -0.0 entry, cavities
        # (2S rows), each arc's removed constant (2S entries)
        self._width = width
        self._zero = 2 * S * width
        self._cav = self._zero + 1
        self._tops = self._cav + 2 * S * width
        span = np.arange(width)
        cards = graph.cards
        # per node, its M states' entries in the node vector extended by one
        # -inf entry, N, which the padded states read
        node_rows = np.where(span < cards[:, None], graph.offsets[:, None] + span, N)

        def ranks(group):
            """Per rank r, the state entries of the r-th message each (k, u,
            skip) of `group` adds to u's node table, an (R, len(group), M)
            array: the messages into u in tree k's adjacency order but the
            one from `skip`, or the -0.0 entry."""
            into = [[at[(k, c, u)] for c in adjs[k][u] if c != skip] for k, u, skip in group]
            most = max(map(len, into), default=0)
            p = np.array([q + [-1] * (most - len(q)) for q in into], dtype=np.intp)
            p = np.ascontiguousarray(p.reshape(len(group), most).T)[:, :, None]
            p = _freeze(np.where(p < 0, self._zero, p * width + span), None)
            return p, [len(q) for q in into]

        # a batch adds as many ranks as its arcs' most incoming messages
        plan, counts = ranks(arcs)

        def batch(lo, hi):
            return lo, hi, tuple(plan[:max(counts[lo:hi]), lo:hi])
        ups = Counter(level for level, _ in up)
        self.batches, self.upward, lo = [], [], 0
        for level, group in enumerate(levels):
            self.batches.append(batch(lo, lo + len(group)))
            if ups[level]:
                self.upward.append(batch(lo, lo + ups[level]))
            lo += len(group)
        self._cav_node = _freeze(node_rows[[u for _, u, _ in arcs]].reshape(-1, width), None)
        # arc (k, u, v) reads its edge's table oriented v by u: the
        # transpose when u is the edge's s end
        a, b = span[:, None], span[None, :]
        ends = np.array([(u, v, where[(min(u, v), max(u, v))]) for _, u, v in arcs],
                        dtype=np.intp).reshape(-1, 3)
        self._oriented_at = _freeze(ends[:, 2, None, None] * width * width + np.where(
            (ends[:, 0] < ends[:, 1])[:, None, None], b * width + a, a * width + b), None)
        self.roots = (_freeze(node_rows[[0] * self.count], None),
                      tuple(ranks([(k, 0, None) for k in range(self.count)])[0]))
        self._rev_at = _freeze([at[arc] + self._tops for arc in rev], np.intp)
        # the parts only `solve` and the tree schedule read are built on first read
        self._at, self._adjs = at, adjs
        beliefs = int(sum(cards[u] for adj in adjs for u in range(n) if adj[u]))
        self._splits = (beliefs, 2 * beliefs + 2 * S * width)

    @functools.cached_property
    def final(self) -> np.ndarray:
        """The state entries `solve` reads at the end: a belief adds its last
        incoming message to the cavity that leaves it out, the valid entries
        of both, tree by tree and node by node; then each slot's cavities, s
        side and t side; then each tree's removed constants in reverse visit
        order.  `_splits` says where the second and the last part start."""
        at, edges, width = self._at, self.graph.edges, self._width
        last = [(at[(k, u, adj[u][-1])], at[(k, adj[u][-1], u)], u)
                for k, adj in enumerate(self._adjs) for u in range(len(adj)) if adj[u]]
        cav_arcs, msg_arcs, nodes = np.array(last, dtype=np.intp).reshape(-1, 3).T
        valid = np.arange(width) < self.graph.cards[nodes][:, None]
        slots = list(zip(self.tree.tolist(), self.edge.tolist()))
        sides = ([at[(k, *edges[i])] for k, i in slots]
                 + [at[(k, *edges[i][::-1])] for k, i in slots])
        return _freeze(np.concatenate((
            self._rows(cav_arcs)[valid] + self._cav, self._rows(msg_arcs)[valid],
            self._rows(sides).reshape(2, -1, width).transpose(1, 0, 2).reshape(-1) + self._cav,
            self._rev_at)), None)

    @functools.cached_property
    def slot_nodes(self) -> np.ndarray:
        """Each slot's s and t side node entries in a (T, N) stack of node
        vectors."""
        return _freeze(self.tree[:, None, None] * self.graph.size + self.graph.idx[self.edge], None)

    @functools.cached_property
    def slot_entries(self) -> np.ndarray:
        """Each slot's table entries in an (E, M, M) stack, slot by slot."""
        return _freeze((self.edge[:, None] * self._width ** 2
                        + np.arange(self._width ** 2)).reshape(-1), None)

    @functools.cached_property
    def by_edge(self) -> tuple:
        """(the slots stably sorted by edge, the first of each edge's slots
        in that order)."""
        order = np.argsort(self.edge, kind="stable")
        starts = np.searchsorted(self.edge[order], np.arange(len(self.graph.edges)))
        return _freeze(order, None), _freeze(starts, None)

    def _rows(self, ps) -> np.ndarray:
        """The state entries of message rows `ps`, one row of M per p."""
        return np.array(ps, dtype=np.intp).reshape(-1, 1) * self._width + np.arange(self._width)

    def _run(self, node, tables, work: _Workspace) -> np.ndarray:
        """`work`'s state buffer after its batches, filled in place."""
        work.node[:-1] = node
        # every position is in range; "clip" writes into `out` unbuffered
        work.node.take(work.cav_node, None, work.cav, "clip")
        tables.take(work.oriented_at, None, work.oriented, "clip")
        state = work.state
        # a max over the last axis is `_top`'s: np.maximum of its slices in order
        second, rest = min(1, self._width - 1), range(2, self._width)
        for c, ranks, t, cav, out, top, top_col in work.views:
            for src in ranks:
                c += state[src]
            t += cav
            np.maximum(t[..., 0], t[..., second], out=out)
            for j in rest:
                np.maximum(out, t[..., j], out=out)
            np.maximum(out[:, 0], out[:, second], out=top)
            for j in rest:
                np.maximum(top, out[:, j], out=top)
            out -= top_col
        return state

    def _root_beliefs(self, node, state) -> np.ndarray:
        rows, ranks = self.roots
        beliefs = np.append(node, -np.inf)[rows]
        for src in ranks:
            beliefs += state[src]
        return beliefs

    def _values(self, root_max, tops) -> list:
        """Each tree's optimal value: its root belief's max plus the constants
        the up arcs removed, summed in reverse visit order."""
        return (root_max + _sum_in_order(tops.reshape(self.count, -1).T)).tolist()

    def map_values(self, node: np.ndarray, tables: np.ndarray,
                   work: _Workspace | None = None) -> list:
        """Each tree's optimal value (the up arcs only), from a node
        vector and a table stack of the graph, on a run's workspace for
        `upward` (a new one when None)."""
        state = self._run(node, tables, work or _Workspace(self, self.upward))
        roots = self._root_beliefs(node, state)
        return self._values(roots.max(axis=1), state.take(self._rev_at))

    def solve(self, node: np.ndarray, tables: np.ndarray, work: _Workspace | None = None) -> tuple:
        """Both passes: (node max-marginals as a (T, N) stack, the edge
        max-marginals of the slots as an (S, M, M) stack, each tree's
        optimal value), on a run's workspace for `batches` (a new one when
        None).  None of them is a view of the workspace."""
        state = self._run(node, tables, work or _Workspace(self, self.batches))
        final = state.take(self.final)
        b, s = self._splits
        # a one-node tree has no edges: its belief is the root's node table
        beliefs = (final[:b] + final[b:2 * b] if len(self.edge)
                   else self._root_beliefs(node, state)).reshape(self.count, -1)
        top = self.graph.node_max(beliefs)
        sides = final[2 * b:s].reshape(len(self.edge), 2, self._width)
        edge = _normalized(tables[self.edge] + sides[:, 0, :, None] + sides[:, 1, None, :])
        return beliefs - top, edge, self._values(top[:, 0], final[s:])

    def edge_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-slot values, a vector or an (S, M, M) table stack, summed
        onto their edges from 0 in slot order, which is tree order: one
        `np.bincount`, which adds its weights in input order."""
        E = len(self.graph.edges)
        if slot_values.ndim == 1:
            return np.bincount(self.edge, slot_values, E)
        shape = (E,) + slot_values.shape[1:]
        return np.bincount(self.slot_entries, slot_values.reshape(-1),
                           math.prod(shape)).reshape(shape)


class _Workspace:
    """The buffers of one run of a plan's DP on `batches` (its `batches` or
    `upward`), refilled in place by each `_run`: the state buffer, its -0.0
    entry written once, the node vector and its -inf entry, the oriented
    tables, to which `_run` adds the cavities; and every batch's views of
    them, in the order `_run` reads them.  It belongs to the run and names
    the `plan` it was built on, which is read-only and shared."""

    def __init__(self, plan: _TreeLayout, batches):
        width, self.plan = plan._width, plan
        arcs = batches[-1][1] if batches else 0
        self.state = state = np.empty(plan._tops + arcs)
        state[plan._zero] = -0.0
        self.node = np.full(plan.graph.size + 1, -np.inf)
        msg = state[:plan._zero].reshape(-1, width)
        cav = state[plan._cav:plan._tops].reshape(-1, width)
        tops = state[plan._tops:]
        self.cav, self.cav_node = cav[:arcs], plan._cav_node[:arcs]
        self.oriented = oriented = np.empty((arcs, width, width))
        self.oriented_at = plan._oriented_at[:arcs]
        self.views = []
        for lo, hi, ranks in batches:
            c, top = cav[lo:hi], tops[lo:hi]
            self.views.append((c, ranks, oriented[lo:hi], c[:, None, :], msg[lo:hi], top,
                               top[:, None]))


@functools.lru_cache(maxsize=8)
def _tree_plan(cardinalities: tuple, edges: tuple, trees: tuple) -> _TreeLayout:
    """The read-only `_TreeLayout` of `trees` on `_graph_layout(cardinalities,
    edges)`, shared by every call on that shape, lazy parts included."""
    return _TreeLayout(_graph_layout(cardinalities, edges), trees)


def _tree_parameter(mrf: PairwiseMrf, tree: SpanningTree, theta: PairwiseMrf | None):
    """`theta` (the model itself when None) checked as a tree parameter of
    `mrf` on `tree`, the one check of every entry point that takes one: a
    model with `mrf`'s cardinalities whose edges are `mrf`'s edges and whose
    tables vanish off the tree.  A tree edge it lacks counts as zero."""
    theta = mrf if theta is None else theta
    if not isinstance(theta, PairwiseMrf):
        raise TypeError(f"a tree parameter is a PairwiseMrf, not {type(theta).__name__}")
    tree.validate(mrf.node_count)
    if theta.cardinalities != mrf.cardinalities:
        raise StructureError(f"tree parameter has cardinalities {list(theta.cardinalities)}, "
                             f"the model {list(mrf.cardinalities)}")
    known, on_tree = set(mrf.edges), set(tree.edges)
    for e, table in theta.theta_edge.items():
        if e not in known:
            raise StructureError(f"parameter given on {e}, which is not a graph edge")
        if e not in on_tree and table.any():
            raise StructureError(f"parameter on off-tree edge {e} must vanish")
    return theta


def _one_tree(mrf: PairwiseMrf, tree: SpanningTree, theta: PairwiseMrf | None):
    theta = _tree_parameter(mrf, tree, theta)
    layout = _tree_plan(mrf.cardinalities, tuple((int(s), int(t)) for s, t in tree.edges), (tree,))
    return layout, theta.node_vector, layout.graph.stack(theta.theta_edge)


def tree_max_marginals(mrf: PairwiseMrf, tree: SpanningTree,
                       theta: PairwiseMrf | None = None) -> MaxMarginals:
    """Exact max-marginals of the tree-structured distribution given by the
    tree parameter theta (`_tree_parameter`); it defaults to the model
    itself, valid only when the model is tree-structured.
    """
    layout, node, tables = _one_tree(mrf, tree, theta)
    node_mm, edge_mm, _ = layout.solve(node, tables)
    return MaxMarginals.on_layout(layout.graph, node_mm[0], edge_mm)


def tree_map_value(mrf: PairwiseMrf, tree: SpanningTree,
                   theta: PairwiseMrf | None = None) -> float:
    """Exact optimal value of a tree parameter's objective (single upward
    pass)."""
    layout, node, tables = _one_tree(mrf, tree, theta)
    return layout.map_values(node, tables)[0]


@dataclass(frozen=True, eq=False)
class EdgeConsistencyReport:
    """Each edge's deviation from max-consistency, a read-only vector in the
    order of `layout`'s edges.  `per_edge` (a dict in sorted edge order) and
    `max_deviation` are built from it on first read."""

    layout: _Layout
    deviation: np.ndarray

    @functools.cached_property
    def max_deviation(self) -> float:
        return float(self.deviation.max()) if len(self.deviation) else 0.0

    @functools.cached_property
    def per_edge(self) -> Mapping[Edge, float]:
        order = np.lexsort(self.layout.ends.T[::-1]).tolist()
        return dict(zip(map(self.layout.edges.__getitem__, order),
                        self.deviation[order].tolist()))


def check_edge_consistency(nu: MaxMarginals) -> EdgeConsistencyReport:
    """Deviation of each edge table from the max-consistency condition.

    An edge is consistent when row maxima of nu_st reproduce nu_s up to one
    multiplicative constant per direction; the reported deviation is the log
    spread of the implied constants over both directions (relative scale).
    Edges are reported in sorted order.
    """
    layout = nu.layout
    # the implied constants per side; -inf on padded states, which the
    # max skips and the min is kept off
    d = np.stack((_top(nu.tables, 2), _top(nu.tables, 1)), axis=1) - nu.node[layout.idx]
    spread = _top(d, 2) - np.where(layout.pad, np.inf, d).min(axis=2)
    dev = np.maximum(spread[:, 0], spread[:, 1])
    dev.setflags(write=False)
    return EdgeConsistencyReport(layout, dev)


def backtrack_optimum(nu: MaxMarginals, tree: SpanningTree, root: int = 0) -> np.ndarray:
    """Decode one optimal assignment from edge-consistent tree max-marginals.

    Picks an optimal root state, then walks parent-to-child choosing a child
    state jointly optimal with the parent's.  Ties break to the lowest state.
    The tree must span nu's nodes on edges that carry a table of nu.
    """
    n = len(nu.layout.cards)
    tree.validate(n)
    lacking = set(tree.edges) - set(nu.layout.edges)
    if lacking:
        raise StructureError(f"tree edge {min(lacking)} has no table in the max-marginals")
    parent = tree.parent_map(n, root)
    adj = tree.neighbors(n)
    x = np.full(n, -1, dtype=int)
    x[root] = int(np.argmax(nu.log_node[root]))
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v == parent[u]:
                continue
            m = nu.log_edge[(u, v)] if u < v else nu.log_edge[(v, u)].T
            x[v] = int(np.argmax(m[x[u]]))
            stack.append(v)
    return x


def tree_opt_set(mrf: PairwiseMrf, tree: SpanningTree,
                 theta: PairwiseMrf | None = None,
                 max_states: int = BRUTE_FORCE_GUARD,
                 atol: float = 0.0) -> OptSet:
    """Complete optimal set of a tree parameter's objective, by enumeration."""
    return brute_force_map(_tree_parameter(mrf, tree, theta), max_states, atol)[1]
