"""The tree-based linear-programming relaxation over the local polytope.

`_offsets` is the one statement of the LP vector's order and
`_indicator_index` the positions of a configuration's indicator vector phi(x)
in it: the local LP, the decoding of a solution, phi(x) as a pseudomarginal
and the exact marginal-polytope oracle read these two.  The Lagrangian dual,
with multipliers from message fixed points, is evaluated on the `_Layout`
buckets of `treedp`.  Message sets are read only through their `log_m`
tables, so the LP layer does not import the solver at run time.

The dense two-phase simplex uses Bland's anti-cycling rule.  Its tableau
carries the reduced-cost row c_B T - c as its last row, which each pivot
updates; the dense product runs once per phase and again at each terminal
decision.  The entering-column choice, ratio test and pivots are array
operations over the pivot column's and pivot row's nonzeros.  The loop form
they reproduce pivot for pivot is kept in `tests/lp_reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .model import Edge, PairwiseMrf, StructureError, check_assignment
from .trees import TreeDistribution
from .treedp import MaxMarginals, _guard_states, _Layout

if TYPE_CHECKING:
    from .trw import MessageSet

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
INTEGRAL_TOL = 1e-7
MEMBERSHIP_GUARD = 4096


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
    """Pivot the tableau in place on (row, col).

    The pivot row is divided by the pivot.  Every other row i with
    f_i = T[i, col] nonzero gets T_ij - f_i * piv_j, but only at the columns
    j where the pivot row piv is nonzero: at the others a full row update
    subtracts a signed zero, so every value is `==` to the full update's.
    The one difference is the sign of a zero: the full update can turn a
    -0.0 into +0.0 at a skipped column, so zero entries of a solution may
    differ in sign from the loop form kept in `tests/lp_reference.py`.
    """
    T[row] /= T[row, col]
    piv = T[row]
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    cols = piv.nonzero()[0]
    T[rows[:, None], cols] -= T[rows, col][:, None] * piv[cols]


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


def _tableau(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Constraint rows [M | rhs] above a row of zeros for the objective row
    that `_simplex_core` fills in and carries."""
    T = np.zeros((M.shape[0] + 1, M.shape[1] + 1))
    T[:-1, :-1] = M
    T[:-1, -1] = rhs
    return T


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Two-phase dense simplex; returns an optimal basic feasible solution.

    Each phase's tableau carries an objective row below its constraint rows
    (`_tableau`).  Phase 1's is dropped before the remaining artificials are
    driven out, and phase 2 reads x from its constraint rows.
    """
    A, b, c = lp.A.copy(), lp.b.copy(), lp.c
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1

    # Phase 1: artificial basis, maximize minus their sum.
    T = _tableau(np.hstack([A, np.eye(m)]), b)
    basis = list(range(n, n + m))
    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    _simplex_core(T, basis, c1)
    T = T[:-1]
    art_sum = float(c1[basis] @ T[:, -1])
    if art_sum < -FEAS_TOL:
        return SimplexResult("infeasible", np.nan, None)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = (np.abs(T[i, :n]) > PIVOT_TOL).nonzero()[0]
            if nonzero.size == 0:
                continue  # redundant constraint
            piv = int(nonzero[0])
            _pivot(T, i, piv)
            basis[i] = piv
        keep_rows.append(i)
    kept = T[keep_rows]
    T = _tableau(kept[:, :n], kept[:, -1])
    basis = [basis[i] for i in keep_rows]

    status = _simplex_core(T, basis, np.asarray(c, dtype=float))
    if status != "optimal":
        return SimplexResult(status, np.nan, None)
    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    return SimplexResult("optimal", float(c @ x), x)


@dataclass(frozen=True)
class Pseudomarginal:
    """Per-node vectors and per-edge matrices of local marginal weights."""

    tau_node: tuple
    tau_edge: Mapping[Edge, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "tau_node",
                           tuple(np.asarray(v, dtype=float) for v in self.tau_node))
        object.__setattr__(self, "tau_edge",
                           {e: np.asarray(m, dtype=float) for e, m in self.tau_edge.items()})


def in_local(tau: Pseudomarginal, tol: float = 1e-9) -> bool:
    """Membership in the local polytope: non-negativity, unit node sums, and
    edge tables whose row/column sums reproduce the node vectors."""
    for v in tau.tau_node:
        if v.min() < -tol or abs(v.sum() - 1.0) > tol:
            return False
    for (s, t), m in tau.tau_edge.items():
        if m.min() < -tol:
            return False
        if np.max(np.abs(m.sum(axis=1) - tau.tau_node[s])) > tol:
            return False
        if np.max(np.abs(m.sum(axis=0) - tau.tau_node[t])) > tol:
            return False
    return True


def _offsets(mrf: PairwiseMrf) -> tuple:
    """(node offsets, edge offsets) of the LP vector: every node table, then
    every edge table row-major in `mrf.edges` order; the last is its length."""
    cards = mrf.cardinalities
    off = np.cumsum([0, *cards, *(cards[s] * cards[t] for s, t in mrf.edges)])
    return off[:len(cards)], off[len(cards):]


def _to_vector(mrf: PairwiseMrf, node, edge) -> np.ndarray:
    """Per-node tables and a mapping of edge tables as one LP vector."""
    return np.concatenate([*node, *(np.ravel(edge[e]) for e in mrf.edges)])


def _indicator_index(mrf: PairwiseMrf, states: np.ndarray) -> np.ndarray:
    """The positions of the ones of phi(x) in the LP vector, for each
    configuration x (a row of `states`): one per node, then one per edge."""
    node_off, edge_off = _offsets(mrf)
    s, t = np.array(mrf.edges, dtype=np.intp).reshape(-1, 2).T
    mt = np.array(mrf.cardinalities)[t]
    return np.concatenate([node_off + states,
                           edge_off[:-1] + states[:, s] * mt + states[:, t]], axis=1)


def build_local_lp(mrf: PairwiseMrf) -> LinearProgram:
    """Relaxed MAP linear program: maximize theta.tau over the local polytope.

    Variables are the LP vector of `_offsets`.  Constraints are one
    normalization row per node and both-direction marginalization rows per
    edge; edge normalization is implied and omitted.
    """
    cards, n = mrf.cardinalities, mrf.node_count
    node_off, edge_off = (a.tolist() for a in _offsets(mrf))
    A = np.zeros((n + sum(cards[s] + cards[t] for s, t in mrf.edges), edge_off[-1]))
    A[np.repeat(np.arange(n), cards), np.arange(edge_off[0])] = 1.0
    row = n
    for (s, t), base in zip(mrf.edges, edge_off):
        ms, mt = cards[s], cards[t]
        for j in range(ms):
            A[row, base + j * mt: base + (j + 1) * mt] = 1.0
            A[row, node_off[s] + j] = -1.0
            row += 1
        for k in range(mt):
            A[row, base + k: base + ms * mt: mt] = 1.0
            A[row, node_off[t] + k] = -1.0
            row += 1
    b = np.concatenate([np.ones(n), np.zeros(A.shape[0] - n)])
    return LinearProgram(_to_vector(mrf, mrf.theta_node, mrf.theta_edge), A, b)


def vector_to_pseudomarginal(mrf: PairwiseMrf, x: np.ndarray) -> Pseudomarginal:
    node_off, edge_off = _offsets(mrf)
    if x.shape != (edge_off[-1],):
        raise ValueError("solution vector has the wrong length")
    x, cards = x.copy(), mrf.cardinalities
    tau_edge = {(s, t): x[a:b].reshape(cards[s], cards[t])
                for (s, t), a, b in zip(mrf.edges, edge_off, edge_off[1:])}
    return Pseudomarginal(np.split(x[:edge_off[0]], node_off[1:]), tau_edge)


def delta_pseudomarginal(mrf: PairwiseMrf, x: Sequence[int]) -> Pseudomarginal:
    """Indicator vector phi(x) of a configuration as a pseudomarginal."""
    x = check_assignment(mrf, x)
    v = np.zeros(_offsets(mrf)[1][-1])
    v[_indicator_index(mrf, x[None, :])] = 1.0
    return vector_to_pseudomarginal(mrf, v)


@dataclass(frozen=True)
class VertexClassification:
    kind: str  # "integral" | "fractional"
    assignment: np.ndarray | None


def classify_vertex(tau: Pseudomarginal, tol: float = INTEGRAL_TOL) -> VertexClassification:
    """Integral (all entries within tol of 0 or 1, decodes to an assignment)
    or fractional.  The input must lie in the local polytope."""
    if not in_local(tau, tol=max(tol, 1e-7)):
        raise ValueError("pseudomarginal is not in the local polytope")
    flat = np.concatenate([*tau.tau_node, *(m.ravel() for m in tau.tau_edge.values())])
    if np.any(np.minimum(np.abs(flat), np.abs(flat - 1.0)) > tol):
        return VertexClassification("fractional", None)
    return VertexClassification("integral", np.array([np.argmax(v) for v in tau.tau_node]))


def in_marginal_polytope(tau: Pseudomarginal, mrf: PairwiseMrf,
                         max_states: int = MEMBERSHIP_GUARD) -> bool:
    """Exact membership test: is there a distribution over configurations
    whose node and edge expectations reproduce tau?  Solved as a phase-1
    feasibility LP with one variable per configuration: a sum-to-one row,
    then one row per LP-vector entry, which is 1 where phi(x) is."""
    total = _guard_states(mrf.cardinalities, max_states)
    states = np.stack(np.unravel_index(np.arange(total), mrf.cardinalities), axis=1)
    b = np.concatenate([[1.0], _to_vector(mrf, tau.tau_node, tau.tau_edge)])
    A = np.zeros((b.size, total))
    A[0] = 1.0
    A[1 + _indicator_index(mrf, states), np.arange(total)[:, None]] = 1.0
    return simplex_solve(LinearProgram(np.zeros(total), A, b)).status == "optimal"


@dataclass(frozen=True)
class DualVector:
    """One multiplier vector per edge direction; lam[(t, s)] is indexed by
    states of s and prices the constraint tying tau_s to the edge table."""

    lam: Mapping[tuple, np.ndarray]


def dual_from_messages(msgs: MessageSet, nu: MaxMarginals,
                       dist: TreeDistribution, root: int = 0) -> DualVector:
    """Dual multipliers induced by a message fixed point.

    Root every supported tree at `root` and let w_ts be the total probability
    of trees in which t is the parent of s.  The multiplier for the direction
    t->s is the log message minus (w_ts / rho_st) times the node log table:
    the node correction enters the Lagrangian through the rho-scaled
    constraint terms, hence the division.  Requires an explicit tree
    distribution; edge appearance weights alone do not determine parents.
    """
    if not isinstance(dist, TreeDistribution):
        raise TypeError("dual extraction requires explicit trees")
    n = len(nu.log_node)
    if not 0 <= root < n:
        raise StructureError(f"root {root} out of range")
    parent_weight: dict[tuple, float] = {}
    rho_e: dict[Edge, float] = {}
    for tree, w in dist.support_items():
        parent = tree.parent_map(n, root)
        for s in range(n):
            t = parent[s]
            if t >= 0:
                parent_weight[(t, s)] = parent_weight.get((t, s), 0.0) + w
        for e in tree.edges:
            rho_e[e] = rho_e.get(e, 0.0) + w
    lam = {}
    for key, omega in msgs.log_m.items():
        t, s = key
        rho = rho_e.get((s, t) if s < t else (t, s), 0.0)
        w = parent_weight.get(key, 0.0)
        lam[key] = omega - (w / rho) * nu.log_node[s] if w else omega.copy()
    return DualVector(lam)


def evaluate_dual(lam: DualVector, mrf: PairwiseMrf,
                  rho_e: Mapping[Edge, float]) -> float:
    """Value of the Lagrangian dual function at `lam`.

    The relaxed maximization separates over nodes and edges: each node
    maximizes its table plus its rho-weighted incoming multipliers; each edge
    maximizes its table minus the rho-weighted multipliers of both endpoints.
    Always an upper bound on the relaxed-LP optimum.  Computed on the
    `_Layout` buckets: one max per table stack, node maxima by `reduceat`.
    """
    layout = _Layout(mrf.cardinalities, mrf.edges)
    node, tables = layout.pack(mrf.theta_node, mrf.theta_edge)
    total = 0.0
    for b, table in zip(layout.buckets, tables):
        rho = np.array([float(rho_e[e]) for e in b.edges])[:, None]
        to_s = rho * np.array([lam.lam[(t, s)] for s, t in b.edges], dtype=float)
        to_t = rho * np.array([lam.lam[(s, t)] for s, t in b.edges], dtype=float)
        np.add.at(node, b.idx_s, to_s)
        np.add.at(node, b.idx_t, to_t)
        total += (table - to_s[:, :, None] - to_t[:, None, :]).max(axis=(1, 2)).sum()
    return float(np.maximum.reduceat(node, layout.offsets).sum() + total)
