"""Tree-reweighted max-product: reparameterization, message passing and
tree-based updates, plus the certificate search that turns a fixed point into
a provably optimal assignment.

All state lives in the log domain.  Updates are fully synchronous (every node
and edge is updated from the previous iterate), optionally damped by linear
combination of old and new logs, and re-normalized so the largest entry of
every table is 0.

Every run, public step and check reads its graph's one cached, read-only
layout, `treedp._graph_layout`.  The synchronous schedules compute on
`_FlatMrf`, built once per run: that layout in the schedule's edge order
(`mrf.edges` for messages, sorted for reparameterization), the run's rho,
the model's node vector and its tables theta_st / rho_st.  A run's state
is the layout's arrays with their axes reversed, edge axis last, flipped
once at its start and back once at its end (`_flip`): every max over states
is np.maximum of contiguous length-E slabs in `_top`'s order, and both
directions of every edge are one add and one such max.  Padded table
entries are -inf and padded message entries 0, so no step subtracts -inf
from -inf.  A step maps one state (a tuple of arrays) to the next with no
loop over edges.  The message step returns new arrays; the
reparameterization step runs on its run's workspace (`_ReparamWorkspace`),
allocates nothing, and writes the one of its two states that it does not
read, so an iterate stays unchanged until the step after next.
`_iterate`, the one loop for both schedules, stops on the max log change
of the valid entries, read once per iterate into one vector (`_Change`)
and compared with the previous iterate's.  The per-node sums over incident
edges add the valid entries edge by edge (s side, then t side) in schedule
order, as a per-edge loop does: onto zeros by one `np.bincount`, which adds
its weights in input order, onto a node vector by one `np.add.at`.  A
result (`PseudoMaxMarginals`, `MessageSet`) keeps the cached layout, not
the run's tables; a message set built on a layout enters a step on it as
its own array (`_Layout.messages`).  An explicit tree distribution adds a
per-iteration bound, run by the tree DP on the plan of `treedp._tree_plan`.

The tree-based schedule keeps its own loop: its stopping rules (a
configuration optimal in every tree, or agreement of the per-tree tables) are
checked between the tree DP and the merge.  Each iteration runs one
`_TreeLayout.solve` for all trees, giving the max-marginals of every (tree,
edge) slot and the tree values of the bound; the split, the merge, the tie
masks and the agreement test are array operations.  Its plan comes from
`treedp._tree_plan`, cached and read-only, as is the experiment's two-tree
distribution (`_grid_trees`).  Sums over trees run in support order
(`_tree_sum`), and every ordered sum is added left to right
(`model._sum_in_order`).  `check_reparameterization` takes
pseudo-max-marginals, or one tree parameter per tree, a `PairwiseMrf`
checked by `treedp._tree_parameter`.

The certificate's tie rule, the entries within `CERT_TIE_TOL` of their
table's max, is `_tie_masks`, shared by `find_certificate`, the tree schedule
and the experiment's unique-maximizer count; padded entries are never ties.
The search prunes the candidates by arc consistency on the whole layout
(`_arc_consistent`), then searches depth first only on the ends of the edges
that still forbid a pair of candidates, so it finds the assignment a search
over all nodes finds.  A run reads a model's packed vectors only; the
per-table views of a model and of a result are built only when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import Edge, PairwiseMrf, StructureError, _checked_rho, _sum_in_order
from .trees import TreeDistribution, edge_appearance, grid_two_tree_distribution
from .treedp import (BRUTE_FORCE_GUARD, MaxMarginals, MessageSet, _graph_layout, _guard_states,
                     _Layout, _normalized, _top, _tree_parameter, _tree_plan, _TreeLayout,
                     _Workspace, assignment_scores)

CERT_TIE_TOL = 1e-9
CERT_SEARCH_GUARD = 1_000_000


class PseudoMaxMarginals(MaxMarginals):
    """Max-marginal-shaped tables on every edge of a graph with cycles."""


@dataclass(frozen=True)
class TrwConfig:
    damping: float = 0.5
    tol: float = 1e-8
    max_iterations: int = 2000

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class TrwResult:
    """Outcome of an iterative run.

    messages_per_edge counts one unit per directed message computed for the
    synchronous variants (two per edge per iteration), and one unit per edge
    touched per tree max-marginal pass for the tree-update variant, divided
    by the number of graph edges.
    """

    nu: PseudoMaxMarginals
    iterations: int
    converged: bool
    certificate: np.ndarray | None
    certificate_indeterminate: bool
    bound_trace: tuple
    messages: MessageSet | None
    variant: str
    terminated_by: str
    messages_per_edge: float


def uniform_rho(mrf: PairwiseMrf) -> dict:
    """Uniform edge appearance weights (n-1)/|E| on every edge."""
    if not mrf.edges:
        raise StructureError("model has no edges")
    r = (mrf.node_count - 1) / len(mrf.edges)
    return {e: r for e in mrf.edges}


def resolve_rho(mrf: PairwiseMrf, dist_or_rho=None):
    """Return (explicit distribution or None, per-edge rho dict)."""
    if dist_or_rho is None:
        return None, uniform_rho(mrf)
    if isinstance(dist_or_rho, TreeDistribution):
        return dist_or_rho, edge_appearance(dist_or_rho, mrf)
    return None, _checked_rho(mrf.edges, dist_or_rho)


def _damp(new: np.ndarray, old: np.ndarray, lam: float) -> np.ndarray:
    return new if lam >= 1.0 else lam * new + (1.0 - lam) * old


class _FlatMrf:
    """A run's rho and model on a cached `layout`, its state edge axis last:
    messages are one (M, 2, E) array, [i, 0, k] the log message t->s of the
    k-th edge at x_s = i and [i, 1, k] the one s->t at x_t = i, 0 on padded
    states; tables are one (M_t, M_s, E) stack.  `rho_e` comes checked
    (`_checked_rho`).  Only the public reparameterization step has no
    `mrf`: it reads no model tables.

    A message step returns new arrays and overwrites none.  A
    reparameterization step writes one of the two states of the run's
    workspace, the one `nu` is not (an outside `nu` is first copied into
    the other), and overwrites no other state: the iterate it returns stays
    unchanged until the step after next, and the state a result keeps is
    its run's own."""

    def __init__(self, layout: _Layout, rho_e, mrf: PairwiseMrf | None = None):
        self.layout = layout
        self.rho = np.fromiter(map(rho_e.__getitem__, layout.edges), float, len(layout.edges))
        self.entries = layout.entries_last
        # rho of each valid side's edge, as the node sums weight them
        self._rho_sides = np.repeat(self.rho, 2 * layout.pad.shape[2]).take(layout.sides)
        if mrf is not None:
            self.theta_node = mrf.node_vector
            self.table = _flip(layout.model_tables(mrf)) / self.rho
        self._work = None  # `bound`'s DP workspace, for the plan it was built on

    # --- messages: one (M, 2, E) array --------------------------------------

    @functools.cached_property
    def _oriented(self) -> np.ndarray:
        """(M, M, 2, E), sender state first: [j, i, 0, k] edge k's entry at
        x_t = j, x_s = i, and [j, i, 1, k] the one at x_s = j, x_t = i."""
        return np.stack((self.table, self.table.transpose(1, 0, 2)), axis=2)

    def unit_messages(self) -> tuple:
        return (np.zeros(self.layout.idx_last.shape),)

    def _cavities(self, msgs: np.ndarray) -> tuple:
        """(h, h[idx] - msgs): h is the node vector theta_s plus
        sum over neighbors v of rho_vs * log M_vs."""
        layout = self.layout
        weighted = self._rho_sides * msgs.take(layout.sides_last)
        h = self.theta_node + np.bincount(layout._target, weighted, layout.size)
        return h, h[layout.idx_last] - msgs

    def message_step(self, msgs: tuple, damping: float) -> tuple:
        old = msgs[0]
        _, cav = self._cavities(old)
        # message t -> s (indexed by x_s) maximizes over x_t, s -> t over x_s
        new = _top(self._oriented + cav[:, None, ::-1], 0)
        new -= _top(new, 0)
        if damping < 1.0:
            new = damping * new + (1.0 - damping) * old
            new -= _top(new, 0)
        if len(self.layout.pad_last):
            new.put(self.layout.pad_last, 0.0)
        return (new,)

    def pseudo_from_messages(self, msgs: tuple) -> tuple:
        h, cav = self._cavities(msgs[0])
        return (h - self.layout.node_max(h),
                _normalize_last(self.table + cav[None, :, 0] + cav[:, None, 1]))

    def pack_messages(self, msgs: MessageSet) -> tuple:
        return (_flip(self.layout.messages(msgs)),)

    def message_set(self, msgs: tuple) -> MessageSet:
        return MessageSet.on_layout(self.layout, _flip(msgs[0]))

    # --- pseudo-max-marginals: node vector, then the table stack ------------

    @functools.cached_property
    def _reparam(self) -> _ReparamWorkspace:
        """The run's reparameterization workspace, built on its first step."""
        return _ReparamWorkspace(self.layout)

    def reparameterization_step(self, nu: tuple, damping: float) -> tuple:
        """`reparameterization_step`'s update on the run's workspace: the
        row and column maxima by one reduce each over the outer axis of the
        stack and of its transposed copy, which numpy folds slab by slab as
        `_top` does (over the middle axis of a one-edge stack a reduce
        would take numpy's SIMD order), every temporary in its buffer, and
        the damping on the node vector and the tables at once."""
        layout, w = self.layout, self._reparam
        # write the workspace state `nu` is not; an outside `nu` is copied
        # into the other one first
        k = nu is w.states[0]
        if nu is not w.states[1 - k]:
            np.copyto(w.states[1 - k][0], nu[0])
            np.copyto(w.states[1 - k][1], nu[1])
        (node, tables), (new_node, new_tables) = w.states[1 - k], w.states[k]
        # row maxima (over x_t) and column maxima (over x_s), 0 on padded states
        np.maximum.reduce(tables, axis=0, out=w.row_max)
        np.copyto(w.swapped, tables.transpose(1, 0, 2))
        np.maximum.reduce(w.swapped, axis=0, out=w.col_max)
        w.marg.put(layout.pad_last, 0.0)
        gain, lost = w.sides
        # every index is in range; "clip" lets `take` write `out` unbuffered
        w.marg.take(layout.sides_last, out=gain, mode="clip")
        node.take(layout._target, out=lost, mode="clip")
        np.subtract(gain, lost, out=gain)
        np.multiply(self._rho_sides, gain, out=gain)
        np.copyto(new_node, node)
        np.add.at(new_node, layout._target, gain)
        w.center_nodes(new_node)
        new_node.take(layout.idx_last, out=w.near, mode="clip")
        np.subtract(tables, w.marg_s, out=new_tables)
        np.subtract(new_tables, w.marg_t, out=new_tables)
        np.add(new_tables, w.near_s, out=new_tables)
        np.add(new_tables, w.near_t, out=new_tables)
        w.center_tables(new_tables)
        if damping < 1.0:
            new, old = w.flat[k], w.flat[1 - k]
            np.multiply(new, damping, out=new)
            np.multiply(old, 1.0 - damping, out=w.term)
            np.add(new, w.term, out=new)
            w.center_nodes(new_node)
            w.center_tables(new_tables)
        return w.states[k]

    def pseudo(self, nu: tuple) -> PseudoMaxMarginals:
        return PseudoMaxMarginals.on_layout(self.layout, nu[0], _flip(nu[1]))

    def bound(self, trees: _TreeLayout, weights, offset: _ZeroOffset, nu: tuple) -> float:
        """The bound from pseudo-max-marginals: rho-weighted optimal values
        of the induced tree problems (the DP reads the layout's order, on a
        workspace kept while `trees` stays the same plan), corrected by the
        constant separating their sum from theta."""
        if self._work is None or self._work.plan is not trees:
            self._work = _Workspace(trees, trees.upward)
        node, stack = nu
        near = node[self.layout.idx_last]
        theta = (stack - near[None, :, 0]) - near[:, None, 1]
        return (float(_sum_in_order(weights * trees.map_values(node, theta.T, self._work)))
                - offset(node[self.layout.offsets], self.rho * theta[0, 0]))


class _ReparamWorkspace:
    """The buffers of one run's reparameterization steps on `layout`, edge
    axis last: two states, which the steps write in turn, and every
    temporary of a step, with the broadcast views it reads made once.  It
    belongs to one run's `_FlatMrf`; the layout is shared and read-only."""

    def __init__(self, layout: _Layout):
        width, n = layout.pad.shape[2], len(layout.edges)
        stack = (width, width, n)
        self.layout = layout
        # each state one vector, its node vector then its table stack, so
        # that damping runs on both at once
        self.flat = list(np.empty((2, layout.size + width * width * n)))
        self.states = tuple((f[:layout.size], f[layout.size:].reshape(stack)) for f in self.flat)
        self.term = np.empty(self.flat[0].shape)  # the damping term of the old state
        self.swapped = np.empty(stack)  # a state's tables, rows x_s
        self.marg = np.empty((width, 2, n))  # row and column maxima, as messages
        self.near = np.empty((width, 2, n))  # the new node entries of both sides
        self.sides = np.empty((2, len(layout.sides)))
        self.node_max, self.node_top = np.empty(len(layout.cards)), np.empty(layout.size)
        self.rows, self.top = np.empty((width, n)), np.empty(n)
        self.row_max, self.col_max = self.marg[:, 0], self.marg[:, 1]
        self.marg_s, self.marg_t = self.marg[None, :, 0], self.marg[:, None, 1]
        self.near_s, self.near_t = self.near[None, :, 0], self.near[:, None, 1]

    def center_nodes(self, v: np.ndarray):
        """v -= `layout.node_max(v)`, in place."""
        np.maximum.reduceat(v, self.layout.offsets, out=self.node_max)
        self.node_max.take(self.layout.node_of, out=self.node_top, mode="clip")
        np.subtract(v, self.node_top, out=v)

    def center_tables(self, a: np.ndarray):
        """`_normalize_last(a)`: the row maxima by one reduce over the outer
        axis, which numpy folds slab by slab as `_top` does; their max by
        `_top`, as a reduce over a contiguous axis (one edge) is ordered by
        numpy's SIMD dispatch."""
        np.maximum.reduce(a, axis=0, out=self.rows)
        np.subtract(a, _top(self.rows, 0, self.top), out=a)


def _flip(a: np.ndarray) -> np.ndarray:
    """`a` with its axes reversed, C-contiguous: into a run's order or back."""
    return np.ascontiguousarray(a.T)


def _normalize_last(a: np.ndarray) -> np.ndarray:
    """Shift every table of an edge-last stack, in place, so its largest
    entry is 0: the max of its row maxima (over x_t), in `_top`'s order."""
    a -= _top(_top(a, 0), 0)
    return a


def unit_messages(mrf: PairwiseMrf) -> MessageSet:
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    return MessageSet.on_layout(layout, np.zeros(layout.idx.shape))


def init_pseudo(mrf: PairwiseMrf, rho_e: Mapping[Edge, float]) -> PseudoMaxMarginals:
    """Starting pseudo-max-marginals: node tables from theta, edge tables from
    the edge table scaled by 1/rho plus both node tables, max-normalized."""
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    flat = _FlatMrf(layout, _checked_rho(mrf.edges, rho_e), mrf)
    return flat.pseudo(flat.pseudo_from_messages(flat.unit_messages()))


def reparameterization_step(nu: PseudoMaxMarginals, rho_e: Mapping[Edge, float],
                            damping: float = 1.0) -> PseudoMaxMarginals:
    """One synchronous edge-based reparameterization update.

    Every node table absorbs the rho-weighted row-max corrections of all its
    incident edge tables (in sorted edge order); every edge table is
    recentred by its row and column maxima and re-attached to the new node
    tables.  The update is computed from the previous iterate throughout,
    then damped in the log domain and re-normalized.
    """
    edges = tuple(sorted(nu.log_edge))
    flat = _FlatMrf(_graph_layout(tuple(nu.layout.cards.tolist()), edges),
                    _checked_rho(edges, rho_e))
    nu = (nu.node, _flip(flat.layout.stack(nu.log_edge)))
    return flat.pseudo(flat.reparameterization_step(nu, damping))


def message_step(msgs: MessageSet, mrf: PairwiseMrf, rho_e: Mapping[Edge, float],
                 damping: float = 1.0) -> MessageSet:
    """One synchronous tree-reweighted message update for every direction.

    The new message from t to s maximizes, over the sender's states, the edge
    table scaled by 1/rho plus the sender's node table and its rho-weighted
    incoming messages, with the reverse-direction message subtracted at full
    weight.  With rho identically 1 this is the ordinary max-product update.
    """
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    flat = _FlatMrf(layout, _checked_rho(mrf.edges, rho_e), mrf)
    return flat.message_set(flat.message_step(flat.pack_messages(msgs), damping))


def messages_to_pseudo(msgs: MessageSet, mrf: PairwiseMrf,
                       rho_e: Mapping[Edge, float]) -> PseudoMaxMarginals:
    """Pseudo-max-marginals induced by a message set, max-normalized."""
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    flat = _FlatMrf(layout, _checked_rho(mrf.edges, rho_e), mrf)
    return flat.pseudo(flat.pseudo_from_messages(flat.pack_messages(msgs)))


class _Change:
    """The stop rule's measure, read on one vector per iterate.  A state of
    one array compared whole (`valid` None) is read as it is; else its
    entries at `valid`'s flat positions per array (a None entry: all) are
    gathered into one vector, in one of two buffers in turn.  `since(state)`
    reads `state` and returns the largest absolute log change from the
    state read before it, which must be unchanged since, so each iterate is
    read once."""

    def __init__(self, state: tuple, valid=None):
        self.valid = valid
        if valid is not None:
            bounds = np.cumsum([0] + [a.size if v is None else len(v)
                                      for a, v in zip(state, valid)])
            self.buffers = list(np.empty((2, bounds[-1])))
            self.parts = [[b[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
                          for b in self.buffers]
            self.k = 1
        self.last = self._read(state)
        self.diff = np.empty(self.last.shape)

    def _read(self, state: tuple) -> np.ndarray:
        if self.valid is None:
            (a,) = state
            return a
        self.k = 1 - self.k
        for a, v, part in zip(state, self.valid, self.parts[self.k]):
            if v is None:
                np.copyto(part, a.reshape(-1))
            else:
                a.take(v, out=part, mode="clip")
        return self.buffers[self.k]

    def since(self, state: tuple) -> float:
        new = self._read(state)
        np.subtract(new, self.last, out=self.diff)
        self.last = new
        return float(np.abs(self.diff, out=self.diff).max())


def _iterate(step, state: tuple, config: TrwConfig, observe=None, valid=None):
    """The iteration driver shared by the synchronous schedules.

    Applies `step(state, damping)` until the `_Change` of two iterates
    (on `valid`'s entries) falls below the tolerance, or the iteration cap.
    `observe`, when given, sees the starting state and every iterate.
    A step may overwrite any state but the one it reads and the one it
    returns: the previous iterate is compared once the next is returned
    (the whole-array measure of the message schedule reads it in place), and
    `observe` reads the new one before the next step.
    Returns (final state, iterations, converged).
    """
    if observe is not None:
        observe(state)
    change = _Change(state, valid)
    for iterations in range(1, config.max_iterations + 1):
        state = step(state, config.damping)
        delta = change.since(state)
        if observe is not None:
            observe(state)
        if delta < config.tol:
            return state, iterations, True
    return state, iterations, False


@dataclass(frozen=True)
class CertificateResult:
    assignment: np.ndarray | None
    indeterminate: bool = False


def _search_common_config(candidates, sizes, edges, allowed, guard):
    """Depth-first search with forward pruning for a configuration whose node
    states all lie in `candidates` and whose pairs on every edge (s, t) of
    `edges` are allowed: allowed[i][js][jt], one nested list per edge.

    Nodes are fixed in order of increasing `sizes` (then index); fixing one
    prunes the domains of its later neighbors.  The replaced domains go on
    an undo trail, so backtracking restores them without copying, and the
    search keeps an explicit stack instead of recursing once per node.
    Returns (assignment or None, indeterminate).  Complete unless the node
    guard trips, which is reported as indeterminate rather than absence.
    """
    n = len(candidates)
    adj = {s: [] for s in range(n)}
    pairs = {}  # pairs[(s, t)][js][jt], for both orientations
    for (s, t), m in zip(edges, allowed):
        adj[s].append(t)
        adj[t].append(s)
        pairs[(s, t)] = m
        pairs[(t, s)] = list(zip(*m))
    order = sorted(range(n), key=lambda s: (sizes[s], s))
    rank = {s: i for i, s in enumerate(order)}
    later = [[t for t in adj[s] if rank[t] > pos] for pos, s in enumerate(order)]
    domains = [list(candidates[s]) for s in range(n)]
    x = [-1] * n
    tried = [0] * n  # per position: values of its domain tried so far
    marks = [0] * n  # per position: trail length before its current value
    trail = []
    expanded = 0
    pos = 0
    while 0 <= pos < n:
        s = order[pos]
        while len(trail) > marks[pos]:
            t, dom = trail.pop()
            domains[t] = dom
        if tried[pos] == len(domains[s]):
            pos -= 1
            continue
        j = domains[s][tried[pos]]
        tried[pos] += 1
        expanded += 1
        if expanded > guard:
            return None, True
        x[s] = j
        for t in later[pos]:
            ok = pairs[(s, t)][j]
            keep = [k for k in domains[t] if ok[k]]
            if not keep:
                break
            trail.append((t, domains[t]))
            domains[t] = keep
        else:
            pos += 1
            if pos < n:
                tried[pos] = 0
                marks[pos] = len(trail)
    if pos == n:
        return np.array(x, dtype=int), False
    return None, False


def _arc_consistent(layout: _Layout, node_mask: np.ndarray, edge_masks: np.ndarray):
    """The candidate states that arc consistency leaves: a state stays while
    every incident edge allows it together with some candidate state of the
    other end.  Prunes the node vector `node_mask` (a copy) on the stack of
    allowed pairs `edge_masks`, all edges at once, until nothing changes;
    None once a node has no candidate left.  A state it removes is in no
    common configuration, so the set of those is unchanged."""
    domain = node_mask.copy()
    while np.logical_or.reduceat(domain, layout.offsets).all():
        near = domain[layout.idx] & ~layout.pad
        supported = np.stack((_top(edge_masks & near[:, 1, None, :], 2),
                              _top(edge_masks & near[:, 0, :, None], 1)), axis=1)
        lost = near & ~supported
        if not lost.any():
            return domain
        domain[layout.idx[lost]] = False
    return None


def _tie_masks(layout: _Layout, node: np.ndarray, tables: np.ndarray, tie_tol: float):
    """The certificate's tie rule: the entries within `tie_tol` of their
    table's max, on a node vector of `layout` (or a stack of them) and on
    every table of a stack (padded entries, -inf, are never ties)."""
    return (node >= layout.node_max(node) - tie_tol,
            tables >= tables.max(axis=(1, 2), keepdims=True) - tie_tol)


def _search_tie_masks(layout: _Layout, node_mask: np.ndarray, edge_masks: np.ndarray,
                      guard: int):
    """A configuration of candidate states (node vector `node_mask`) whose
    pairs are allowed on every edge (stack `edge_masks`), laid out on
    `layout`.  Arc consistency prunes the candidates first.  Only the tight
    edges, which forbid a pair of the candidates left, then constrain:
    `_search_common_config` runs on their ends, in the order of their
    unpruned candidate counts, and every other node takes its first
    candidate.  The solutions left are a product, so it returns the
    assignment the search on the unpruned candidates returns, and expands
    no more nodes toward the guard."""
    domain = _arc_consistent(layout, node_mask, edge_masks)
    if domain is None:
        return None, False
    pos = np.flatnonzero(domain)
    x = pos[np.searchsorted(pos, layout.offsets)] - layout.offsets  # first candidates
    if not (np.add.reduceat(domain, layout.offsets) > 1).any():
        return x, False
    near = domain[layout.idx] & ~layout.pad
    tight = np.flatnonzero((near[:, 0, :, None] & near[:, 1, None, :] & ~edge_masks).any((1, 2)))
    # `np.unique` would import `numpy.ma`, a megabyte, on its first call
    free = np.flatnonzero(np.bincount(layout.ends[tight].ravel(), minlength=len(layout.cards)))
    pos = np.flatnonzero(domain & np.isin(layout.node_of, free))
    node = layout.node_of[pos]
    candidates = [[] for _ in free]
    for s, j in zip(np.searchsorted(free, node).tolist(), (pos - layout.offsets[node]).tolist()):
        candidates[s].append(j)
    found, indeterminate = _search_common_config(
        candidates, np.add.reduceat(node_mask, layout.offsets)[free].tolist(),
        np.searchsorted(free, layout.ends[tight]).tolist(), edge_masks[tight].tolist(), guard)
    if found is None:
        return None, indeterminate
    x[free] = found
    return x, False


def find_certificate(nu: PseudoMaxMarginals, mrf: PairwiseMrf,
                     tie_tol: float = CERT_TIE_TOL,
                     guard: int = CERT_SEARCH_GUARD) -> CertificateResult:
    """Search for an assignment that is optimal in every node table and every
    edge table of `nu` simultaneously (within `tie_tol` in the log domain).

    Such an assignment certifies MAP optimality at a fixed point of the
    tree-reweighted updates with valid edge appearance weights.
    """
    _check_graph(nu, mrf)
    masks = _tie_masks(nu.layout, nu.node, nu.tables, tie_tol)
    assignment, indet = _search_tie_masks(nu.layout, *masks, guard)
    return CertificateResult(assignment, indet)


def _check_graph(nu: MaxMarginals, mrf: PairwiseMrf):
    """Raise unless `nu` has tables on exactly the nodes and edges of `mrf`:
    its layout has the model's cardinalities and edges, in any order."""
    layout = nu.layout
    if not np.array_equal(layout.cards, mrf.cardinalities):
        raise StructureError(f"pseudo-max-marginals have cardinalities {layout.cards.tolist()}, "
                             f"the model {list(mrf.cardinalities)}")
    if layout.edges == mrf.edges:
        return
    have, known = set(layout.edges), set(mrf.edges)
    missing = [e for e in mrf.edges if e not in have]
    if missing:
        raise StructureError(f"pseudo-max-marginals missing on edges {missing}")
    extra = [e for e in layout.edges if e not in known]
    if extra:
        raise StructureError(f"pseudo-max-marginals given on edges {extra}, not graph edges")


class _ZeroOffset:
    """<combined - theta, phi(x)> at the all-zeros configuration x.

    Called with the combined parameter's first entries: one per node, in
    node order, and one per edge, in the order of `layout`.  The terms are
    summed in order: c - theta node by node, then +c and -theta edge by
    edge in model order.  They go into one buffer, filled in place on each
    call, that starts with the 0 of `model._sum_in_order`.
    """

    def __init__(self, mrf: PairwiseMrf, layout: _Layout):
        self.order = np.array([layout.position[e] for e in mrf.edges], dtype=np.intp)
        node_off, edge_off = mrf.offsets
        self.theta_node = mrf.node_vector[node_off]
        n = len(node_off)
        self.terms = np.zeros(1 + n + 2 * len(self.order))
        self.terms[n + 2::2] = -mrf.edge_vector[edge_off[:-1] - edge_off[0]]
        self.node_terms, self.edge_terms = self.terms[1:n + 1], self.terms[n + 1::2]

    def __call__(self, node: np.ndarray, edge: np.ndarray) -> float:
        np.subtract(node, self.theta_node, out=self.node_terms)
        self.edge_terms[:] = edge[self.order]
        return float(np.add.accumulate(self.terms)[-1])


def check_reparameterization(nu_or_thetas, dist: TreeDistribution, mrf: PairwiseMrf) -> float:
    """How far the rho-weighted tree parameters are from reproducing theta.

    Accepts either pseudo-max-marginals (tree parameters induced per edge) or
    an explicit list of tree parameters aligned with the distribution's
    trees, each a model checked by `treedp._tree_parameter`, where an edge a
    tree parameter lacks counts as zero.  Evaluates the difference of
    objectives over every configuration, guarded at `BRUTE_FORCE_GUARD`
    states, and returns the maximum deviation from its mean: zero means the
    combination equals theta up to an additive constant.
    """
    if isinstance(nu_or_thetas, MaxMarginals):
        _check_graph(nu_or_thetas, mrf)
        layout, node = nu_or_thetas.layout, nu_or_thetas.node
        rho_e = edge_appearance(dist, mrf)
        near = node[layout.idx]
        tables = (np.array([rho_e[e] for e in layout.edges])[:, None, None]
                  * (nu_or_thetas.tables - near[:, 0, :, None] - near[:, 1, None, :]))
    else:
        thetas = list(nu_or_thetas)
        support = dist.support_items()
        if len(thetas) != len(support):
            raise ValueError("one tree parameter per supported tree required")
        thetas = [_tree_parameter(mrf, tree, th) for (tree, _), th in zip(support, thetas)]
        layout = _graph_layout(mrf.cardinalities, mrf.edges)
        w = np.array([wk for _, wk in support])
        node = _sum_in_order(w[:, None] * np.array([th.node_vector for th in thetas]))
        tables = _sum_in_order(w[:, None, None, None]
                               * np.array([layout.stack(th.theta_edge) for th in thetas]))
    _guard_states(mrf.cardinalities, BRUTE_FORCE_GUARD)
    # theta is 0-padded, so the padded differences stay -inf, never NaN
    diff_edge = layout.edge_views(tables - layout.model_tables(mrf, 0.0))
    d = assignment_scores(mrf.cardinalities, layout.node_views(node - mrf.node_vector),
                          {e: diff_edge[e] for e in mrf.edges})
    return float(np.max(np.abs(d - d.mean())))


def run_trw(mrf: PairwiseMrf, dist_or_rho=None, config: TrwConfig | None = None,
            variant: str = "messages") -> TrwResult:
    """Iterate tree-reweighted updates to convergence or the iteration cap.

    variant "messages" runs message passing, "reparam" the direct
    reparameterization updates.  When an explicit tree distribution is
    supplied, the per-iteration upper bound is recorded.  Non-convergence is
    reported in the result, never raised.  After termination the certificate
    search runs on the final pseudo-max-marginals.
    """
    if not mrf.edges:
        raise StructureError("model has no edges")
    config = config or TrwConfig()
    dist, rho_e = resolve_rho(mrf, dist_or_rho)
    if variant == "reparam":
        # this update sums node corrections in sorted edge order
        flat = _FlatMrf(_graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges))), rho_e, mrf)
        state, step = flat.pseudo_from_messages(flat.unit_messages()), flat.reparameterization_step
        valid = (None, flat.entries)

        def tables(nu):
            return nu
    elif variant == "messages":
        flat = _FlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho_e, mrf)
        state, step, tables = flat.unit_messages(), flat.message_step, flat.pseudo_from_messages
        valid = None  # padded message entries are 0 in every iterate
    else:
        raise ValueError(f"unknown variant {variant!r}")
    bound_trace = []
    observe = None
    if dist is not None:
        support = dist.support_items()
        trees = _tree_plan(mrf.cardinalities, flat.layout.edges, tuple(t for t, _ in support))
        weights = np.array([w for _, w in support])
        offset = _ZeroOffset(mrf, flat.layout)

        def observe(state):
            bound_trace.append(flat.bound(trees, weights, offset, tables(state)))
    state, iterations, converged = _iterate(step, state, config, observe, valid)
    nu = flat.pseudo(tables(state))
    cert = find_certificate(nu, mrf)
    return TrwResult(
        nu=nu,
        iterations=iterations,
        converged=converged,
        certificate=cert.assignment,
        certificate_indeterminate=cert.indeterminate,
        bound_trace=tuple(bound_trace),
        messages=flat.message_set(state) if variant == "messages" else None,
        variant=variant,
        terminated_by="converged" if converged else "max_iterations",
        messages_per_edge=2.0 * iterations,
    )


@functools.lru_cache(maxsize=8)
def _grid_trees(rows: int, cols: int) -> TreeDistribution:
    """`grid_two_tree_distribution(rows, cols)`, built and checked once per
    shape and shared by every experiment cell of that shape: a frozen
    dataclass whose weights are read-only."""
    return grid_two_tree_distribution(rows, cols)


def run_tree_updates(mrf: PairwiseMrf, dist: TreeDistribution,
                     config: TrwConfig | None = None) -> TrwResult:
    """Tree-based updates: exact max-marginals per supported tree, early exit
    on a shared optimal configuration, merge otherwise.

    Each iteration computes exact max-marginals for every supported tree, then
    looks for a configuration optimal in all of them (nodewise and edgewise);
    if found it is returned immediately and is MAP-optimal.  If the per-tree
    max-marginal values all agree instead, the state is a fixed point.  Else
    the rho-weighted log tables are merged into a new shared parameter (damped
    against the previous one) and re-split onto the trees.

    The shared parameter is a node vector and a table stack of the model's
    layout.  Tree k's parameter is its node tables and its edges' tables
    scaled by 1/rho, so one `_TreeLayout.solve` runs the DP on every tree at
    once, and the per-tree results are slot stacks that the merge sums onto
    the edges in support order.
    """
    if not isinstance(dist, TreeDistribution):
        raise TypeError("tree updates require an explicit tree distribution")
    if not mrf.edges:
        raise StructureError("model has no edges")
    config = config or TrwConfig()
    rho_e = edge_appearance(dist, mrf)
    support = dist.support_items()
    trees = _tree_plan(mrf.cardinalities, mrf.edges, tuple(tree for tree, _ in support))
    work = _Workspace(trees, trees.batches)
    graph = trees.graph
    w = np.array([wk for _, wk in support])
    rho = np.array([rho_e[e] for e in graph.edges])[:, None, None]
    w_slot = w[trees.tree]
    offset = _ZeroOffset(mrf, graph)
    node, edge = mrf.node_vector, graph.model_tables(mrf)
    bound_trace = []
    converged = False
    terminated_by = "max_iterations"
    certificate = None
    indeterminate = False
    units_per_iter = sum(len(t.edges) for t, _ in support) / len(mrf.edges)
    for iterations in range(1, config.max_iterations + 1):
        split = edge / rho
        node_mm, edge_mm, values = trees.solve(node, split, work)
        # the offset sums the tree parameters over the trees, as the bound
        # is defined; taking `node` and `edge` as their sum instead would
        # move the bound in the last ulps
        combined = (_sum_in_order(w[:, None] * node[graph.offsets]),
                    trees.edge_sum(w_slot * split[trees.edge, 0, 0]))
        bound_trace.append(float(_sum_in_order(w * values)) - offset(*combined))
        certificate, indeterminate = _shared_tree_optimum(
            trees, *_tie_masks(graph, node_mm, edge_mm, CERT_TIE_TOL))
        if certificate is not None:
            converged = True
            terminated_by = "tree_agreement"
            break
        if _tree_tables_agree(trees, node_mm, edge_mm, config.tol):
            converged = True
            terminated_by = "max_marginal_agreement"
            break
        near = node_mm.take(trees.slot_nodes)
        theta = (edge_mm - near[:, 0, :, None]) - near[:, 1, None, :]
        merged_node, merged_edge = _tree_sum(trees, w, node_mm, theta)
        node = _damp(merged_node, node, config.damping)
        edge = _damp(merged_edge, edge, config.damping)
    total_node, total_edge = _tree_sum(trees, w, node_mm, edge_mm)
    nu = PseudoMaxMarginals.on_layout(graph, total_node - graph.node_max(total_node),
                                      _normalized(total_edge / rho))
    return TrwResult(
        nu=nu,
        iterations=iterations,
        converged=converged,
        certificate=certificate,
        certificate_indeterminate=indeterminate,
        bound_trace=tuple(bound_trace),
        messages=None,
        variant="tree",
        terminated_by=terminated_by,
        messages_per_edge=units_per_iter * iterations,
    )


def _tree_sum(trees: _TreeLayout, w: np.ndarray, node: np.ndarray,
              slot_tables: np.ndarray) -> tuple:
    """Sum over the trees of w_k times tree k's tables, in tree order: node
    tables from a stack over the trees (first axis), edge tables from a
    stack over the slots, each slot added onto its edge (`edge_sum`).  An
    edge sums over the trees that hold it."""
    return (_sum_in_order(w[:, None] * node),
            trees.edge_sum(w[trees.tree][:, None, None] * slot_tables))


def _shared_tree_optimum(trees: _TreeLayout, node_masks: np.ndarray, edge_masks):
    """Configuration optimal for every tree, if one exists, from per-tree tie
    masks: a (T, N) node stack and a stack of one mask per slot.

    Node candidates are the intersection of per-tree nodewise argmax sets;
    edge pairs must be argmax pairs in every tree containing the edge.  Local
    optimality on a tree characterizes its optimal set exactly, so this search
    decides non-emptiness of the intersection of the tree optima.
    """
    node = node_masks.all(axis=0)
    order, starts = trees.by_edge
    allowed = np.logical_and.reduceat(edge_masks[order], starts, axis=0)
    if not (np.logical_or.reduceat(node, trees.graph.offsets).all()
            and allowed.any(axis=(1, 2)).all()):
        return None, False
    return _search_tie_masks(trees.graph, node, allowed, CERT_SEARCH_GUARD)


def _tree_tables_agree(trees: _TreeLayout, node_mm: np.ndarray, edge_mm, tol: float) -> bool:
    """Whether the per-tree max-marginals agree within tol: each tree's node
    tables with the first tree's, and on every edge the tables of all trees
    holding it (their spread, max minus min, is the largest pairwise gap),
    read on the valid entries."""
    if not np.all(np.abs(node_mm[1:] - node_mm[0]) < tol):
        return False
    order, starts = trees.by_edge
    m = edge_mm[order]
    valid = trees.graph.entries
    return bool(np.all(np.maximum.reduceat(m, starts).take(valid)
                       - np.minimum.reduceat(m, starts).take(valid) < tol))
