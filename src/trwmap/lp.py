"""The tree-based linear-programming relaxation over the local polytope.

The LP vector is a model's packed tables, `PairwiseMrf.node_vector` then
`.edge_vector`: `PairwiseMrf.offsets` (from `model._offsets`, the one
statement of its order) and `model._indicator_index`, the positions of a
configuration's indicator vector phi(x) in it, are all the local LP, the
decoding of a solution, phi(x) as a pseudomarginal and the exact
marginal-polytope oracle read.  theta and tau live in one space: a
pseudomarginal tau is a `PairwiseMrf` on its model's graph whose packed
vectors are the LP vector, checked by the one sequence every model goes
through.  The local-polytope test, the vertex classification, the LP's
constraints and the dual read those vectors on `treedp._graph_layout`, the
graph's one cached layout, which the solver's runs share; the
marginal-polytope oracle takes tau alone.  The Lagrange multipliers lambda
share the messages' index set, one vector per edge direction over the
receiver's states, so lambda is a `treedp.MessageSet`: `dual_from_messages`
builds it on nu's layout as one (E, 2, M) array, 0 on padded states, and
`evaluate_dual` reads that array as it is when nu's layout is the model's
(`_Layout.messages`), so subtracting it leaves the -inf padding of the edge
stack in place.  Message sets live in `treedp`, next to `MaxMarginals`, so
the LP layer does not import the solver.

The dense simplex uses Bland's anti-cycling rule on a tableau buffer whose
last row, the reduced-cost row c_B T - c, each pivot updates; the dense
product runs once per phase and again at each terminal decision.  The
entering-column choice, ratio test and pivots are array operations over the
pivot column's and pivot row's nonzeros.  The loop form they reproduce pivot
for pivot is kept in `tests/lp_reference.py`.  Phase 1 searches for a vertex
from an all-artificial basis.  The local LP has one at every configuration:
`solve --method lp` runs phase 2 alone from `vertex_start`'s exact tableau
there, and with tied optima may end at another optimal vertex.  That
tableau is scattered from the layout's index arrays into one buffer, so the
solve path never builds the LP's dense A; `LP_GUARD` still bounds A's rows
times columns, checked before the buffer is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import (CapacityError, Edge, PairwiseMrf, _checked_rho, _indicator_index,
                    check_assignment)
from .trees import TreeDistribution, _appearance
from .treedp import MaxMarginals, MessageSet, _graph_layout, _guard_states

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
INTEGRAL_TOL = 1e-7
MEMBERSHIP_GUARD = 4096
LP_GUARD = 2 ** 22  # entries of the local LP's dense matrix A, 32 MiB


@dataclass(frozen=True)
class LinearProgram:
    """max c.x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if c.ndim != 1 or b.ndim != 1 or A.shape != (b.shape[0], c.shape[0]):
            raise ValueError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("non-finite LP data")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray | None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Pivot the C-contiguous tableau in place on (row, col).

    The pivot row is divided by the pivot.  Every other row i with
    f_i = T[i, col] nonzero gets T_ij - f_i * piv_j, one flat-indexed update,
    but only where the pivot row piv is nonzero: at the others a full row
    update subtracts a signed zero, so every value is `==` to the full
    update's.  The one difference is the sign of a zero: the full update can
    turn a -0.0 into +0.0 at a skipped column, so zero entries of a solution
    may differ in sign from the loop form kept in `tests/lp_reference.py`.
    """
    T[row] /= T[row, col]
    piv = T[row]
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    cols = piv.nonzero()[0]
    at = (rows[:, None] * T.shape[1] + cols).ravel()
    T.reshape(-1)[at] -= np.multiply.outer(T[rows, col], piv[cols]).ravel()


def _dense_row(T: np.ndarray, basis: list, c: np.ndarray) -> np.ndarray:
    """The reduced-cost row c_B T - c over the constraint rows, 0 on the basic
    columns: the dense product the carried objective row must agree with."""
    z = c[basis] @ T[:-1, :-1] - c
    z[basis] = 0.0
    return z


def _first_improving(z: np.ndarray) -> int:
    """Bland's entering column: the first j with z_j < -PIVOT_TOL, else -1."""
    improving = (z < -PIVOT_TOL).nonzero()[0]
    return int(improving[0]) if improving.size else -1


def _simplex_core(T: np.ndarray, basis: list, c: np.ndarray) -> str:
    """Maximize c.x on the tableau in place; Bland's rule throughout.

    The last row of T is the objective row z = c_B T - c.  It is computed
    once here with the dense product and then carried: `_pivot` updates it
    like any other row.  The entering column is the first j with
    z_j < -PIVOT_TOL, and the ratio test runs over the constraint rows.
    Before returning "optimal" or "unbounded", the dense row is computed
    again; if its entering column differs from the carried row's, it
    replaces the carried row and the iteration goes on.  So every status is
    decided by the dense row, as in the loop form in `tests/lp_reference.py`.
    """
    z = T[-1, :-1]
    z[:] = _dense_row(T, basis, c)
    while True:
        entering = _first_improving(z)
        leave = -1
        if entering >= 0:
            col = T[:-1, entering]
            rows = (col > PIVOT_TOL).nonzero()[0]
            ratios = T[rows, -1] / col[rows]
            # Smallest ratio; within the PIVOT_TOL band, the smallest basis index.
            best, best_var = np.inf, -1
            for i, ratio in zip(rows.tolist(), ratios.tolist()):
                if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                                and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            dense = _dense_row(T, basis, c)
            if _first_improving(dense) == entering:
                return "optimal" if entering < 0 else "unbounded"
            z[:] = dense
            continue
        _pivot(T, leave, entering)
        basis[leave] = entering


def simplex_solve(lp: LinearProgram | np.ndarray, start: tuple | None = None) -> SimplexResult:
    """Dense simplex; returns an optimal basic feasible solution.

    With a `start` (`vertex_start`), a feasible basis and its tableau
    [B^-1 A | B^-1 b] less the redundant rows, above a zero objective row,
    phase 2 alone runs from it, in place.  It reads only the objective c of
    `lp`, so `lp` may be c itself: `solve --method lp` passes the model's
    packed vectors and builds no A.  Without a start, both phases run in
    one buffer, [A | I | b] (rows with b < 0 negated) above the objective row
    each phase fills in and carries.  Phase 2 runs with the artificial block
    zeroed, so none of it can enter; the buffer is copied only when the
    drive-out of the remaining artificials drops a redundant row.
    """
    if start is not None:
        c = lp.c if isinstance(lp, LinearProgram) else np.asarray(lp, dtype=float)
        return _phase_two(*start, c, c)
    m, n = lp.A.shape
    sign = np.where(lp.b < 0, -1.0, 1.0)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, -1] = lp.A * sign[:, None], lp.b * sign
    T[range(m), range(n, n + m)] = 1.0
    basis = list(range(n, n + m))
    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    _simplex_core(T, basis, c1)
    if float(c1[basis] @ T[:m, -1]) < -FEAS_TOL:
        return SimplexResult("infeasible", np.nan, None)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = (np.abs(T[i, :n]) > PIVOT_TOL).nonzero()[0]
            if nonzero.size == 0:
                continue  # redundant constraint
            piv = int(nonzero[0])
            _pivot(T[:m], i, piv)
            basis[i] = piv
        keep_rows.append(i)
    if len(keep_rows) < m:
        T = T[keep_rows + [m]]
        basis = [basis[i] for i in keep_rows]
    T[:, n:-1] = 0.0
    return _phase_two(T, basis, np.concatenate((lp.c, np.zeros(m))), lp.c)


def _phase_two(T: np.ndarray, basis: list, c: np.ndarray, objective: np.ndarray) -> SimplexResult:
    """Phase 2 from a feasible basis on the tableau's objective c, which
    extends the LP's with zeros past its variables; x is read from the
    constraint rows."""
    status = _simplex_core(T, basis, c)
    if status != "optimal":
        return SimplexResult(status, np.nan, None)
    x = np.zeros(objective.size)
    x[basis] = T[:-1, -1]
    return SimplexResult("optimal", float(objective @ x), x)


def in_local(tau: PairwiseMrf, tol: float = 1e-9) -> bool:
    """Membership in the local polytope: non-negativity, unit node sums, and
    edge tables whose row/column sums reproduce the node vectors.  The sums
    are taken on tau's packed vectors and its layout's table stack."""
    node, layout = tau.node_vector, _graph_layout(tau.cardinalities, tau.edges)
    if min(node.min(), tau.edge_vector.min(initial=0.0)) < -tol:
        return False
    if np.abs(np.add.reduceat(node, layout.offsets) - 1.0).max() > tol:
        return False
    tables = layout.model_tables(tau, 0.0)
    margins = np.stack((tables.sum(axis=2), tables.sum(axis=1)), axis=1)
    gap = margins.take(layout.sides) - node[layout.idx.take(layout.sides)]
    return bool(np.abs(gap).max(initial=0.0) <= tol)


def _check_lp_size(mrf: PairwiseMrf, layout) -> None:
    """The guard on the local LP's dense matrix: (n + sides) x columns entries
    past `LP_GUARD` is a CapacityError, raised before anything that size is
    allocated."""
    rows, cols = mrf.node_count + layout.sides.size, mrf.offsets[1][-1]
    if rows * cols > LP_GUARD:
        raise CapacityError(f"the local LP's {rows} x {cols} dense matrix "
                            f"exceeds the guard of {LP_GUARD} entries")


def _scatter_rows(out: np.ndarray, mrf: PairwiseMrf, layout, side_row: np.ndarray) -> None:
    """Write the nonzeros of the local LP's A into the zeroed `out`, one
    column per LP variable: node row s at row s, side row r at row
    side_row[r], or nowhere where side_row[r] is -1."""
    edge_off = mrf.offsets[1]
    E, _, M = layout.idx.shape
    e, j, k = np.unravel_index(layout.entries, (E, M, M))
    # entry (e, j, k) of the edge vector is in the rows of side states (e, 0, j) and (e, 1, k)
    rows = side_row[np.searchsorted(layout.sides, np.stack(((2 * e) * M + j, (2 * e + 1) * M + k)))]
    cols = np.broadcast_to(np.arange(edge_off[0], edge_off[-1]), rows.shape)
    kept = side_row >= 0
    out[layout.node_of, np.arange(edge_off[0])] = 1.0
    out[side_row[kept], layout._target[kept]] = -1.0
    out[rows[rows >= 0], cols[rows >= 0]] = 1.0


def build_local_lp(mrf: PairwiseMrf) -> LinearProgram:
    """Relaxed MAP linear program: maximize theta.tau over the local polytope.

    Variables are the LP vector of `PairwiseMrf.offsets`.  Constraints are one
    normalization row per node, then one marginalization row per state of
    each edge's s and then its t, edge by edge: the order of `_Layout.sides`.
    Edge normalization is implied and omitted.  A is dense: past
    `LP_GUARD` entries it is a CapacityError, raised before it is allocated.
    """
    n = mrf.node_count
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    sides = layout.sides.size
    _check_lp_size(mrf, layout)
    A = np.zeros((n + sides, mrf.offsets[1][-1]))
    _scatter_rows(A, mrf, layout, np.arange(n, n + sides))
    b = np.concatenate([np.ones(n), np.zeros(sides)])
    return LinearProgram(np.concatenate((mrf.node_vector, mrf.edge_vector)), A, b)


def vertex_start(mrf: PairwiseMrf) -> tuple:
    """The start of `simplex_solve` at the vertex phi(x) of `mrf`'s local LP,
    x each node's first argmax of theta_s: its tableau [B^-1 A | B^-1 b]
    above a zero objective row, and its basis, row by row.

    The basis is every tau_s(x_s) and each edge table's cross through
    (x_s, x_t): a side row's basic entry takes the row's state on its side
    and x on the other.  The t-side row at x_t, implied by the others, is
    dropped.  Each kept row then holds one basic column but the s-side row
    at x_s, which gains node row s and loses the edge's kept t-side rows:
    exact small integers, no solve.  The kept rows of A are scattered from
    the layout straight into the one tableau buffer, so A is never built;
    `LP_GUARD` still bounds A's size, checked before the buffer exists.
    """
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    _check_lp_size(mrf, layout)
    n, (E, _, M) = mrf.node_count, layout.idx.shape
    x = _node_argmax(mrf.node_vector, layout.offsets)
    s, t = layout.ends.T
    e, side, state = np.unravel_index(layout.sides, (E, 2, M))
    own, other = np.where(side, x[s[e]], state), np.where(side, state, x[t[e]])
    kept = (side == 0) | (state != x[t[e]])
    basis = np.concatenate((layout.offsets + x,
                            (mrf.offsets[1][e] + own * layout.cards[t[e]] + other)[kept]))
    side_row = np.where(kept, n + np.cumsum(kept) - 1, -1)
    T = np.zeros((n + kept.sum() + 1, mrf.offsets[1][-1] + 1))
    _scatter_rows(T, mrf, layout, side_row)
    T[:n, -1] = 1.0
    cross = side_row[(side == 0) & (state == x[s[e]])]
    # +1 on node s's entries from node row s, and on node t's but x_t from the
    # kept t-side rows' -1s, which also take 1 off every tau_st(j, k != x_t)
    T[cross[e[kept]], layout._target[kept]] += 1.0
    ee, _, k = np.unravel_index(layout.entries, (E, M, M))
    off = k != x[t[ee]]
    T[cross[ee[off]], mrf.offsets[1][0] + np.flatnonzero(off)] -= 1.0
    T[cross, -1] = 1.0
    return T, basis.tolist()


def vector_to_pseudomarginal(mrf: PairwiseMrf, x: np.ndarray) -> PairwiseMrf:
    """An LP vector as a pseudomarginal: the model on `mrf`'s graph whose
    packed vectors are x's node and edge parts, checked like any model."""
    edge_off = mrf.offsets[1]
    x = np.asarray(x, dtype=float)
    if x.shape != (edge_off[-1],):
        raise ValueError("solution vector has the wrong length")
    return PairwiseMrf._packed(mrf.cardinalities, mrf._ends, x[:edge_off[0]],
                               list(zip(mrf.cardinalities)), x[edge_off[0]:], mrf._edge_shapes)


def delta_pseudomarginal(mrf: PairwiseMrf, x: Sequence[int]) -> PairwiseMrf:
    """Indicator vector phi(x) of a configuration as a pseudomarginal."""
    x = check_assignment(mrf, x)
    v = np.zeros(mrf.offsets[1][-1])
    v[_indicator_index(mrf, x[None, :])] = 1.0
    return vector_to_pseudomarginal(mrf, v)


@dataclass(frozen=True)
class VertexClassification:
    kind: str  # "integral" | "fractional"
    assignment: np.ndarray | None


def classify_vertex(tau: PairwiseMrf, tol: float = INTEGRAL_TOL) -> VertexClassification:
    """Integral (all entries within tol of 0 or 1, decodes to an assignment)
    or fractional.  The input must lie in the local polytope.  Each node's
    state is the first entry of its table at the table's maximum."""
    if not in_local(tau, tol=max(tol, 1e-7)):
        raise ValueError("pseudomarginal is not in the local polytope")
    flat = np.concatenate((tau.node_vector, tau.edge_vector))
    if np.any(np.minimum(np.abs(flat), np.abs(flat - 1.0)) > tol):
        return VertexClassification("fractional", None)
    return VertexClassification("integral", _node_argmax(tau.node_vector, tau.offsets[0]))


def _node_argmax(node: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each node's state at the first entry of its table at the table's maximum."""
    top = np.repeat(np.maximum.reduceat(node, offsets), np.diff(offsets, append=node.size))
    first = np.where(node == top, np.arange(node.size), node.size)
    return np.minimum.reduceat(first, offsets) - offsets


def in_marginal_polytope(tau: PairwiseMrf) -> bool:
    """Exact membership test: is there a distribution over configurations of
    tau's graph whose node and edge expectations reproduce tau?  Solved as a
    phase-1 feasibility LP with one variable per configuration: a sum-to-one
    row, then one row per LP-vector entry, which is 1 where phi(x) is.  At
    most `MEMBERSHIP_GUARD` configurations."""
    total = _guard_states(tau.cardinalities, MEMBERSHIP_GUARD)
    states = np.stack(np.unravel_index(np.arange(total), tau.cardinalities), axis=1)
    b = np.concatenate([[1.0], tau.node_vector, tau.edge_vector])
    A = np.zeros((b.size, total))
    A[0] = 1.0
    A[1 + _indicator_index(tau, states), np.arange(total)[:, None]] = 1.0
    return simplex_solve(LinearProgram(np.zeros(total), A, b)).status == "optimal"


def dual_from_messages(msgs: MessageSet, nu: MaxMarginals,
                       dist: TreeDistribution, root: int = 0) -> MessageSet:
    """Dual multipliers induced by a message fixed point, on nu's layout.

    Root every supported tree at `root` and let w_ts be the total probability
    of trees in which t is the parent of s: one (E, 2) array in the layout's
    direction order.  The multiplier for the direction t->s is the log message
    minus (w_ts / rho_st) times the node log table, 0 on padded states: the
    node correction enters the Lagrangian through the rho-scaled constraint
    terms, hence the division.  The messages enter by `_Layout.messages` and
    rho by `trees.edge_appearance`'s check on nu's graph, so a message set,
    max-marginals or distribution on another graph is a StructureError.
    Requires an explicit tree distribution; edge appearance weights alone do
    not determine parents.
    """
    if not isinstance(dist, TreeDistribution):
        raise TypeError("dual extraction requires explicit trees")
    layout = nu.layout
    m, n, where = layout.messages(msgs), len(layout.cards), layout.position
    rho = np.array(list(_appearance(dist, n, layout.edges).values()))
    w = np.zeros((len(rho), 2))
    for tree, weight in dist.support_items():
        # parent t -> child s: column 0 of edge (s, t) when s < t, else column 1
        arcs = [(s, t) for s, t in enumerate(tree.parent_map(n, root)) if t >= 0]
        w[[where[min(a), max(a)] for a in arcs], [int(s > t) for s, t in arcs]] += weight
    lam = m - (w / rho[:, None])[..., None] * nu.node[layout.idx]
    lam[layout.pad] = 0.0
    return MessageSet.on_layout(layout, lam)


def evaluate_dual(lam: MessageSet, mrf: PairwiseMrf,
                  rho_e: Mapping[Edge, float]) -> float:
    """Value of the Lagrangian dual function at `lam`.

    The relaxed maximization separates over nodes and edges: each node
    maximizes its table plus its rho-weighted incoming multipliers; each edge
    maximizes its table minus the rho-weighted multipliers of both endpoints.
    Always an upper bound on the relaxed-LP optimum.  Computed on the
    model's cached layout: one max per table, node maxima by `reduceat`.
    """
    rho_e = _checked_rho(mrf.edges, rho_e)
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    node, tables = mrf.node_vector.copy(), layout.model_tables(mrf)
    rho = np.array([rho_e[e] for e in layout.edges])[:, None, None]
    to = rho * layout.messages(lam)
    np.add.at(node, layout._target, to.take(layout.sides))
    total = (tables - to[:, 0, :, None] - to[:, 1, None, :]).max(axis=(1, 2)).sum()
    return float(np.maximum.reduceat(node, layout.offsets).sum() + total)
