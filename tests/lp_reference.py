"""Loop-form reference of the dense two-phase simplex in `trwmap.lp`.

These are the per-row and per-column loops the library used before its
pivots became array operations over the pivot row's and column's nonzeros.
They are kept only as a test oracle: the array code must choose the same
entering column and leaving row at every step (Bland's rule, the same
`PIVOT_TOL` band and tie-break), so its status, value and solution vector
are `==` to these.

Also kept: the start of phase 2 at a configuration's vertex, pivoted into
[A | I | b] one basic column at a time with the loop-form pivot, and the
same tableau built from the kept rows of a built A by index arrays
(`vertex_start_from_a`), as the library had it before it scattered those
rows from the graph's layout without building A; the library's tableau must
be `==` to both, sign bits included.

Also kept: the per-row and per-state builds of the local LP, of a
configuration's indicator pseudomarginal and of the marginal-polytope
feasibility LP, the edge-by-edge local-polytope test, and the node-by-node
Lagrangian dual, as the library had them before they read one index map of
the LP vector and the padded edge stack of `_Layout`.  The LP data must be
`np.array_equal` to these, the local-polytope answers equal, and the dual
within rounding, since it sums the same terms in another order.  A
pseudomarginal is a `PairwiseMrf`; these forms read its per-table views.

Also kept: the dict walk of `dual_from_messages` over each supported tree's
parent map, with its own sum of the edge appearances, as the library had it
before the multipliers became one (E, 2, M) array on nu's layout.  The
library's array must be `np.array_equal` to this dict's.
"""

import numpy as np

from trwmap.lp import FEAS_TOL, PIVOT_TOL, LinearProgram, SimplexResult, _node_argmax
from trwmap.model import PairwiseMrf, StructureError
from trwmap.trees import TreeDistribution
from trwmap.treedp import MessageSet, _graph_layout, _guard_states, _Layout

from model_reference import edge_key, neighbors


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * piv


def _simplex_core(T: np.ndarray, basis: list, c: np.ndarray) -> str:
    """Maximize c.x on the tableau in place; Bland's rule throughout."""
    m, ncols = T.shape
    nvars = ncols - 1
    while True:
        reduced = c - c[basis] @ T[:, :nvars]
        reduced[basis] = 0.0
        entering = -1
        for j in range(nvars):
            if reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = T[:, entering]
        leave, best, best_var = -1, np.inf, -1
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = T[i, -1] / col[i]
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
            piv = -1
            for j in range(n):
                if abs(T[i, j]) > PIVOT_TOL:
                    piv = j
                    break
            if piv < 0:
                continue  # redundant constraint
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


def vertex_start(mrf, lp: LinearProgram):
    """[B^-1 A | B^-1 b] and B of `lp = build_local_lp(mrf)` at phi(x), x each
    node's first argmax, by loop-form pivots on [A | I | b] in row order.

    The basic column of node row s is tau_s(x_s); of the s-side row j of
    edge (s, t), tau_st(j, x_t); of its t-side row k != x_t, tau_st(x_s, k).
    The t-side row at x_t is implied by the others and dropped, with the
    identity block."""
    cards = mrf.cardinalities
    x = [int(np.argmax(v)) for v in mrf.theta_node]
    node_off = np.cumsum([0, *cards]).tolist()
    rows, basis = [], []
    for s in range(mrf.node_count):
        rows.append(s)
        basis.append(node_off[s] + x[s])
    row, base = mrf.node_count, node_off[-1]
    for s, t in mrf.edges:
        ms, mt = cards[s], cards[t]
        for j in range(ms):
            rows.append(row + j)
            basis.append(base + j * mt + x[t])
        row += ms
        for k in range(mt):
            if k != x[t]:
                rows.append(row + k)
                basis.append(base + x[s] * mt + k)
        row += mt
        base += ms * mt
    m, n = lp.A.shape
    T = np.hstack([lp.A, np.eye(m), lp.b[:, None]])
    for i, j in zip(rows, basis):
        _pivot(T, i, j)
    return np.hstack([T[rows, :n], T[rows, -1:]]), basis


def vertex_start_from_a(mrf, lp: LinearProgram):
    """The library's start tableau, above its zero objective row, and basis,
    built from `lp = build_local_lp(mrf)`: the kept rows A[keep] and b[keep]
    copied into the tableau, then each cross row's corrections."""
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    n, (E, _, M) = mrf.node_count, layout.idx.shape
    x = _node_argmax(mrf.node_vector, layout.offsets)
    s, t = layout.ends.T
    e, side, state = np.unravel_index(layout.sides, (E, 2, M))
    own, other = np.where(side, x[s[e]], state), np.where(side, state, x[t[e]])
    basis = np.concatenate((layout.offsets + x,
                            mrf.offsets[1][e] + own * layout.cards[t[e]] + other))
    kept = (side == 0) | (state != x[t[e]])
    keep = np.concatenate((np.ones(n, dtype=bool), kept))
    T = np.zeros((keep.sum() + 1, lp.c.size + 1))
    T[:-1, :-1], T[:-1, -1] = lp.A[keep], lp.b[keep]
    cross = (np.cumsum(keep) - 1)[n + np.flatnonzero((side == 0) & (state == x[s[e]]))]
    T[cross[e[kept]], layout._target[kept]] += 1.0
    ee, _, k = np.unravel_index(layout.entries, (E, M, M))
    off = k != x[t[ee]]
    T[cross[ee[off]], mrf.offsets[1][0] + np.flatnonzero(off)] -= 1.0
    T[cross, -1] = 1.0
    return T, basis[keep].tolist()


def build_local_lp(mrf) -> LinearProgram:
    """Relaxed MAP linear program, one `np.zeros(nvars)` row at a time."""
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


def in_local(tau, tol: float = 1e-9) -> bool:
    """Membership in the local polytope, one node table and then one edge
    table at a time."""
    for v in tau.theta_node:
        if v.min() < -tol or abs(v.sum() - 1.0) > tol:
            return False
    for (s, t), m in tau.theta_edge.items():
        if m.min() < -tol:
            return False
        if np.max(np.abs(m.sum(axis=1) - tau.theta_node[s])) > tol:
            return False
        if np.max(np.abs(m.sum(axis=0) - tau.theta_node[t])) > tol:
            return False
    return True


def delta_pseudomarginal(mrf, x) -> PairwiseMrf:
    """Indicator vector of a configuration, one table per node and edge."""
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
    return PairwiseMrf(mrf.cardinalities, mrf.edges, tuple(node), edge)


def marginal_polytope_lp(tau, max_states) -> LinearProgram:
    """The feasibility LP of `in_marginal_polytope`, one row per state."""
    cards = tau.cardinalities
    total = _guard_states(cards, max_states)
    states = np.stack(np.unravel_index(np.arange(total), cards), axis=1)
    rows = [np.ones(total)]
    rhs = [1.0]
    for s in range(tau.node_count):
        for j in range(cards[s]):
            rows.append((states[:, s] == j).astype(float))
            rhs.append(float(tau.theta_node[s][j]))
    for (s, t) in tau.edges:
        for j in range(cards[s]):
            for k in range(cards[t]):
                rows.append(((states[:, s] == j) & (states[:, t] == k)).astype(float))
                rhs.append(float(tau.theta_edge[(s, t)][j, k]))
    return LinearProgram(np.zeros(total), np.array(rows), np.array(rhs))


def evaluate_dual(lam, mrf, rho_e) -> float:
    """The Lagrangian dual, node by node over `neighbors(mrf)`, then edge by edge."""
    total = 0.0
    adj = neighbors(mrf)
    for s in range(mrf.node_count):
        v = np.asarray(mrf.theta_node[s], dtype=float).copy()
        for t in adj[s]:
            key = edge_key(s, t)
            v = v + rho_e[key] * lam.log_m[(t, s)]
        total += float(v.max())
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        m = (mrf.theta_edge[(s, t)]
             - r * lam.log_m[(t, s)][:, None]
             - r * lam.log_m[(s, t)][None, :])
        total += float(m.max())
    return total


def dual_from_messages(msgs, nu, dist, root=0) -> MessageSet:
    """lam[(t, s)] = log M_ts - (w_ts / rho_st) * log nu_s, with w_ts the
    weight of the trees rooted at `root` in which t is the parent of s."""
    if not isinstance(dist, TreeDistribution):
        raise TypeError("dual extraction requires explicit trees")
    n = len(nu.log_node)
    if not 0 <= root < n:
        raise StructureError(f"root {root} out of range")
    parent_weight = {}
    rho_e = {}
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
    return MessageSet(lam)
