"""The array simplex in `trwmap.lp` against its loop form in `lp_reference`.

Both must take the same pivots, so status, value and solution vector are
`==` (a zero entry of x may differ in sign; `np.array_equal` ignores that).
The corpus covers the local LPs the CLI solves, the feasibility LPs of
`in_marginal_polytope`, and the infeasible, unbounded, negative-right-hand-
side and redundant-row paths of `simplex_solve`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import lp_reference
from conftest import random_graph_mrf
from trwmap import (LinearProgram, PairwiseMrf, build_local_lp, delta_pseudomarginal,
                    grid_edges, in_marginal_polytope, simplex_solve,
                    vector_to_pseudomarginal)
from trwmap import lp as lp_module
from trwmap.examples import triangle_mrf

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import mixed_cardinality_grid, potts_grid  # noqa: E402


def assert_same_as_loop_form(lp):
    got, want = simplex_solve(lp), lp_reference.simplex_solve(lp)
    assert got.status == want.status
    assert repr(got.value) == repr(want.value)
    if want.x is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want.x)
    return got


MIXED_GRIDS = [(side, seed) for side in (2, 3, 4) for seed in range(4)] + [
    (5, 0), (5, 1), (6, 0)]


@pytest.mark.parametrize("side,seed", MIXED_GRIDS)
def test_mixed_cardinality_grid_local_lps(side, seed):
    mrf = mixed_cardinality_grid(side, np.random.default_rng(1000 * side + seed))
    assert_same_as_loop_form(build_local_lp(mrf))


def test_random_graph_local_lps():
    rng = np.random.default_rng(20240817)
    for _ in range(12):
        assert_same_as_loop_form(build_local_lp(random_graph_mrf(rng)))


@pytest.mark.parametrize("side", [2, 3, 4])
def test_potts_grid_local_lps(side):
    for seed in range(2):
        mrf = potts_grid(side, 3, 2.0, np.random.default_rng(50 + seed))
        assert_same_as_loop_form(build_local_lp(mrf))


def test_all_zero_potential_model():
    edges = tuple(grid_edges(3, 3))
    mrf = PairwiseMrf((2, 3, 2, 3, 2, 3, 2, 3, 2), edges,
                      tuple(np.zeros(m) for m in (2, 3, 2, 3, 2, 3, 2, 3, 2)),
                      {(s, t): np.zeros((2 + s % 2, 2 + t % 2)) for s, t in edges})
    res = assert_same_as_loop_form(build_local_lp(mrf))
    assert repr(res.value) == "0.0"


def test_marginal_polytope_feasibility_lps(monkeypatch):
    lps = []

    def recording(lp):
        lps.append(lp)
        return simplex_solve(lp)

    monkeypatch.setattr(lp_module, "simplex_solve", recording)
    rng = np.random.default_rng(7)
    frustrated = triangle_mrf(-1.0)
    fractional = vector_to_pseudomarginal(
        frustrated, simplex_solve(build_local_lp(frustrated)).x)
    assert not in_marginal_polytope(fractional, frustrated)
    assert in_marginal_polytope(delta_pseudomarginal(frustrated, [1, 0, 1]), frustrated)
    for _ in range(6):
        mrf = random_graph_mrf(rng, n_nodes=4)
        tau = vector_to_pseudomarginal(mrf, simplex_solve(build_local_lp(mrf)).x)
        in_marginal_polytope(tau, mrf)
    assert len(lps) == 8
    statuses = {assert_same_as_loop_form(lp).status for lp in lps}
    assert statuses == {"optimal", "infeasible"}


def test_infeasible_lp():
    lp = LinearProgram(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert assert_same_as_loop_form(lp).status == "infeasible"


def test_unbounded_lp():
    lp = LinearProgram(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert assert_same_as_loop_form(lp).status == "unbounded"


def test_negative_right_hand_side_row_is_flipped():
    mrf = mixed_cardinality_grid(3, np.random.default_rng(11))
    lp = build_local_lp(mrf)
    A, b = lp.A.copy(), lp.b.copy()
    A[0] *= -1.0
    b[0] *= -1.0
    assert b.min() < 0
    res = assert_same_as_loop_form(LinearProgram(lp.c, A, b))
    assert res.status == "optimal"
    assert res.value == simplex_solve(lp).value


def test_redundant_row_is_dropped():
    lp = LinearProgram(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, 1.0]]),
                       np.array([1.0, 1.0]))
    res = assert_same_as_loop_form(lp)
    assert res.status == "optimal"
    assert np.array_equal(res.x, [0.0, 1.0])
    mrf = mixed_cardinality_grid(3, np.random.default_rng(12))
    local = build_local_lp(mrf)
    doubled = LinearProgram(local.c, np.vstack([local.A, local.A[-3:]]),
                            np.concatenate([local.b, local.b[-3:]]))
    assert assert_same_as_loop_form(doubled).value == simplex_solve(local).value
