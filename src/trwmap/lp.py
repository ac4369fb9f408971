"""The tree-based linear-programming relaxation over the local polytope.

Includes a dense two-phase simplex solver with Bland's anti-cycling rule,
whose entering-column choice, ratio test and pivots are array operations
over the pivot column's and pivot row's nonzeros (the loop form it
reproduces pivot for pivot is kept in `tests/lp_reference.py`),
vertex classification, an exact marginal-polytope oracle (enumeration of all
configurations), and extraction/evaluation of the Lagrangian dual from
message fixed points.  The LP layer does not import the solver at run time:
message sets are read only through their `log_m` tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .model import Edge, PairwiseMrf, StructureError
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
        if A.shape != (b.shape[0], c.shape[0]):
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


def _simplex_core(T: np.ndarray, basis: list, c: np.ndarray) -> str:
    """Maximize c.x on the tableau in place; Bland's rule throughout."""
    nvars = T.shape[1] - 1
    while True:
        reduced = c - c[basis] @ T[:, :nvars]
        reduced[basis] = 0.0
        improving = (reduced > PIVOT_TOL).nonzero()[0]
        if improving.size == 0:
            return "optimal"
        entering = int(improving[0])
        col = T[:, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        ratios = T[rows, -1] / col[rows]
        # Smallest ratio; within the PIVOT_TOL band, the smallest basis index.
        leave, best, best_var = -1, np.inf, -1
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                            and basis[i] < best_var):
                leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, entering)
        basis[leave] = entering


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Two-phase dense simplex; returns an optimal basic feasible solution."""
    A, b, c = lp.A.copy(), lp.b.copy(), lp.c
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1

    # Phase 1: artificial basis, maximize minus their sum.
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    _simplex_core(T, basis, c1)
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
    T = np.hstack([T[keep_rows][:, :n], T[keep_rows][:, -1:]])
    basis = [basis[i] for i in keep_rows]

    status = _simplex_core(T, basis, np.asarray(c, dtype=float))
    if status != "optimal":
        return SimplexResult(status, np.nan, None)
    x = np.zeros(n)
    x[basis] = T[:, -1]
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


def build_local_lp(mrf: PairwiseMrf) -> LinearProgram:
    """Relaxed MAP linear program: maximize theta.tau over the local polytope.

    Variables are all node entries then all edge entries (row-major, in edge
    order).  Constraints are one normalization row per node and both-direction
    marginalization rows per edge; edge normalization is implied and omitted.
    """
    layout = _Layout(mrf.cardinalities, ())
    cards, node_off = mrf.cardinalities, layout.offsets
    edge_off = np.cumsum([layout.size] + [cards[s] * cards[t] for s, t in mrf.edges]).tolist()
    nvars = edge_off[-1]
    c = np.concatenate([*mrf.theta_node, *(mrf.theta_edge[e].ravel() for e in mrf.edges)])
    rows = []
    rhs = []
    for s in range(mrf.node_count):
        row = np.zeros(nvars)
        row[node_off[s]:node_off[s] + cards[s]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for (s, t), base in zip(mrf.edges, edge_off):
        ms, mt = cards[s], cards[t]
        for j in range(ms):
            row = np.zeros(nvars)
            row[base + j * mt: base + (j + 1) * mt] = 1.0
            row[node_off[s] + j] = -1.0
            rows.append(row)
            rhs.append(0.0)
        for k in range(mt):
            row = np.zeros(nvars)
            row[base + k: base + ms * mt: mt] = 1.0
            row[node_off[t] + k] = -1.0
            rows.append(row)
            rhs.append(0.0)
    return LinearProgram(c, np.array(rows), np.array(rhs))


def vector_to_pseudomarginal(mrf: PairwiseMrf, x: np.ndarray) -> Pseudomarginal:
    layout = _Layout(mrf.cardinalities, ())
    cards = mrf.cardinalities
    edge_off = np.cumsum([layout.size] + [cards[s] * cards[t] for s, t in mrf.edges]).tolist()
    if x.shape != (edge_off[-1],):
        raise ValueError("solution vector has the wrong length")
    x = x.copy()
    tau_edge = {(s, t): x[a:b].reshape(cards[s], cards[t])
                for (s, t), a, b in zip(mrf.edges, edge_off, edge_off[1:])}
    return Pseudomarginal(np.split(x[:layout.size], layout.offsets[1:]), tau_edge)


def delta_pseudomarginal(mrf: PairwiseMrf, x: Sequence[int]) -> Pseudomarginal:
    """Indicator vector of a configuration as a pseudomarginal."""
    node = []
    for s, m in enumerate(mrf.cardinalities):
        v = np.zeros(m)
        v[x[s]] = 1.0
        node.append(v)
    edge = {}
    for (s, t) in mrf.edges:
        m = np.zeros((mrf.cardinalities[s], mrf.cardinalities[t]))
        m[x[s], x[t]] = 1.0
        edge[(s, t)] = m
    return Pseudomarginal(tuple(node), edge)


@dataclass(frozen=True)
class VertexClassification:
    kind: str  # "integral" | "fractional"
    assignment: np.ndarray | None


def classify_vertex(tau: Pseudomarginal, tol: float = INTEGRAL_TOL) -> VertexClassification:
    """Integral (all entries within tol of 0 or 1, decodes to an assignment)
    or fractional.  The input must lie in the local polytope."""
    if not in_local(tau, tol=max(tol, 1e-7)):
        raise ValueError("pseudomarginal is not in the local polytope")
    entries = [v for v in tau.tau_node] + [m.reshape(-1) for m in tau.tau_edge.values()]
    for v in entries:
        if np.any(np.minimum(np.abs(v), np.abs(v - 1.0)) > tol):
            return VertexClassification("fractional", None)
    x = np.array([int(np.argmax(v)) for v in tau.tau_node], dtype=int)
    return VertexClassification("integral", x)


def in_marginal_polytope(tau: Pseudomarginal, mrf: PairwiseMrf,
                         max_states: int = MEMBERSHIP_GUARD) -> bool:
    """Exact membership test: is there a distribution over configurations
    whose node and edge expectations reproduce tau?  Solved as a phase-1
    feasibility LP with one variable per configuration."""
    cards = mrf.cardinalities
    total = _guard_states(cards, max_states)
    states = np.stack(np.unravel_index(np.arange(total), cards), axis=1)
    rows = [np.ones(total)]
    rhs = [1.0]
    for s in range(mrf.node_count):
        for j in range(cards[s]):
            rows.append((states[:, s] == j).astype(float))
            rhs.append(float(tau.tau_node[s][j]))
    for (s, t) in mrf.edges:
        for j in range(cards[s]):
            for k in range(cards[t]):
                rows.append(((states[:, s] == j) & (states[:, t] == k)).astype(float))
                rhs.append(float(tau.tau_edge[(s, t)][j, k]))
    lp = LinearProgram(np.zeros(total), np.array(rows), np.array(rhs))
    return simplex_solve(lp).status == "optimal"


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
    Always an upper bound on the relaxed-LP optimum.
    """
    total = 0.0
    for s in range(mrf.node_count):
        v = np.asarray(mrf.theta_node[s], dtype=float).copy()
        for t in mrf.neighbors[s]:
            key = mrf.edge_key(s, t)
            v = v + rho_e[key] * lam.lam[(t, s)]
        total += float(v.max())
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        m = (mrf.theta_edge[(s, t)]
             - r * lam.lam[(t, s)][:, None]
             - r * lam.lam[(s, t)][None, :])
        total += float(m.max())
    return total

