"""The objective row that the simplex in `trwmap.lp` carries in its tableau.

`_simplex_core` computes z = c_B T - c once per phase and then lets `_pivot`
update it as the tableau's last row.  The checks here wrap `_pivot` and
assert, after every pivot of both phases, that the carried row still equals
the dense product (0 on the basic columns).  They run on the corpus of
`test_simplex_reference.py`, whose tests also compare every result with the
loop form.  A carried row that goes wrong must not change a result: the
dense row decides every terminal status, so a row zeroed after every pivot
still gives the loop form's result.  Larger grids are compared with the loop
form directly.
"""

import numpy as np
import pytest

import test_simplex_reference as corpus
from trwmap import build_local_lp
from trwmap import lp as lp_module

CARRY_TOL = 1e-12


def _is_phase_one(T, c):
    m = T.shape[0] - 1
    return np.array_equal(c[-m:], -np.ones(m)) and not c[:-m].any()


def _wrap_pivots(monkeypatch, after_pivot):
    """Call `after_pivot(T, basis, c)` after every pivot `_simplex_core`
    makes; the drive-out pivots between the phases are left alone."""
    core, pivot = lp_module._simplex_core, lp_module._pivot
    running = []

    def wrapped_core(T, basis, c):
        running.append((T, basis, c))
        try:
            return core(T, basis, c)
        finally:
            running.pop()

    def wrapped_pivot(T, row, col):
        pivot(T, row, col)
        if running and T is running[-1][0]:
            _, basis, c = running[-1]
            after = list(basis)
            after[row] = col
            after_pivot(T, after, c)

    monkeypatch.setattr(lp_module, "_simplex_core", wrapped_core)
    monkeypatch.setattr(lp_module, "_pivot", wrapped_pivot)


@pytest.fixture
def checked(monkeypatch):
    """Pivot counts per phase, with the carried row checked at each one."""
    counts = {1: 0, 2: 0}

    def check(T, basis, c):
        dense = c[basis] @ T[:-1, :-1] - c
        z = T[-1, :-1]
        assert np.max(np.abs(z - dense)) <= CARRY_TOL
        assert np.all(z[basis] == 0.0)
        counts[1 if _is_phase_one(T, c) else 2] += 1

    _wrap_pivots(monkeypatch, check)
    return counts


@pytest.mark.parametrize("side,seed", corpus.MIXED_GRIDS)
def test_carried_row_on_mixed_cardinality_grids(checked, side, seed):
    corpus.test_mixed_cardinality_grid_local_lps(side, seed)
    assert checked[1] > 0 and checked[2] > 0


def test_carried_row_on_random_graphs(checked):
    corpus.test_random_graph_local_lps()
    assert checked[1] > 0 and checked[2] > 0


@pytest.mark.parametrize("side", [2, 3, 4])
def test_carried_row_on_potts_grids(checked, side):
    corpus.test_potts_grid_local_lps(side)
    assert checked[1] > 0 and checked[2] > 0


def test_carried_row_on_all_zero_potential_model(checked):
    corpus.test_all_zero_potential_model()
    assert checked[1] > 0


def test_carried_row_on_marginal_polytope_feasibility_lps(checked, monkeypatch):
    corpus.test_marginal_polytope_feasibility_lps(monkeypatch)
    assert checked[1] > 0 and checked[2] > 0


@pytest.mark.parametrize("corpus_test", [
    corpus.test_infeasible_lp, corpus.test_unbounded_lp,
    corpus.test_negative_right_hand_side_row_is_flipped,
    corpus.test_redundant_row_is_dropped])
def test_carried_row_on_special_paths(checked, corpus_test):
    corpus_test()
    assert checked[1] > 0


@pytest.fixture
def zeroed(monkeypatch):
    """Zero the carried row after every pivot; counts the pivots."""
    count = [0]

    def zero(T, basis, c):
        T[-1] = 0.0
        count[0] += 1

    _wrap_pivots(monkeypatch, zero)
    return count


@pytest.mark.parametrize("corpus_test", [
    lambda: corpus.test_mixed_cardinality_grid_local_lps(4, 0),
    corpus.test_random_graph_local_lps,
    corpus.test_infeasible_lp, corpus.test_unbounded_lp,
    corpus.test_redundant_row_is_dropped])
def test_dense_row_decides_every_status(zeroed, corpus_test):
    # A zeroed row reads as optimal at once; only the dense row's
    # disagreement at that point lets the simplex go on to the same result.
    corpus_test()
    assert zeroed[0] > 0


@pytest.mark.parametrize("side", [7, 8])
def test_larger_mixed_cardinality_grids_match_loop_form(side):
    mrf = corpus.mixed_cardinality_grid(side, np.random.default_rng(1000 * side))
    assert corpus.assert_same_as_loop_form(build_local_lp(mrf)).status == "optimal"
