"""Loop-form reference of the dense two-phase simplex in `trwmap.lp`.

These are the per-row and per-column loops the library used before its
pivots became array operations over the pivot row's and column's nonzeros.
They are kept only as a test oracle: the array code must choose the same
entering column and leaving row at every step (Bland's rule, the same
`PIVOT_TOL` band and tie-break), so its status, value and solution vector
are `==` to these.

Also kept: the per-row and per-state builds of the local LP, of a
configuration's indicator pseudomarginal and of the marginal-polytope
feasibility LP, and the node-by-node Lagrangian dual, as the library had them
before they read one index map of the LP vector and the `_Layout` buckets.
The LP data must be `np.array_equal` to these, and the dual within rounding.
"""

import numpy as np

from trwmap.lp import FEAS_TOL, PIVOT_TOL, LinearProgram, Pseudomarginal, SimplexResult
from trwmap.treedp import _guard_states, _Layout


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


def delta_pseudomarginal(mrf, x) -> Pseudomarginal:
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
    return Pseudomarginal(tuple(node), edge)


def marginal_polytope_lp(tau, mrf, max_states) -> LinearProgram:
    """The feasibility LP of `in_marginal_polytope`, one row per state."""
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
    return LinearProgram(np.zeros(total), np.array(rows), np.array(rhs))


def evaluate_dual(lam, mrf, rho_e) -> float:
    """The Lagrangian dual, node by node over `mrf.neighbors`, then edge by edge."""
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
