"""Loop-form reference of the dense two-phase simplex in `trwmap.lp`.

These are the per-row and per-column loops the library used before its
pivots became array operations over the pivot row's and column's nonzeros.
They are kept only as a test oracle: the array code must choose the same
entering column and leaving row at every step (Bland's rule, the same
`PIVOT_TOL` band and tie-break), so its status, value and solution vector
are `==` to these.
"""

import numpy as np

from trwmap.lp import FEAS_TOL, PIVOT_TOL, LinearProgram, SimplexResult


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
