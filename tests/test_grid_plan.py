"""`treedp.grid_map` on its cached per-shape plan (`treedp._grid_plan`)
against the per-call form it replaced, kept in `grid_reference`.

The plan holds what depends on the grid's graph only: the check that the
graph is the grid, the lines, their joint states and every gather index.
A call gathers the model's entries, runs the DP, backtracks and rescores in
`score`'s order, so its value (`repr`) and optimal set must equal the
reference's on every grid: the `test_grid_oracle` corpus, the seed 1-3
`grid4_paper` pools, and grids past brute force's guard, whose pair tables
are gathered in one column block or, on 5x5 3-state and 10x10 binary
grids, in several.  The plan is read-only, built once per shape, and never
caches a failed check.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import grid_reference as ref
from test_grid_oracle import PAPER_GAMMAS, random_grid, random_shapes
from trwmap import (CapacityError, PairwiseMrf, StructureError, cli, grid_edges, grid_map,
                    ising_to_overcomplete, treedp)
from trwmap.cli import ExperimentSpec, _draw_grid_model
from trwmap.treedp import GRID_GATHER_BOUND, _grid_plan

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import Grid4Paper  # noqa: E402


def assert_same_answer(mrf, rows, cols):
    """The same value, to the bit, and optimal set; or the same error."""
    try:
        want = ref.grid_map(mrf, rows, cols)
    except CapacityError as err:
        with pytest.raises(CapacityError, match=str(err)):
            grid_map(mrf, rows, cols)
        return None
    got = grid_map(mrf, rows, cols)
    assert repr(got[0]) == repr(want[0]) and got[1] == want[1]
    return got


def corpus():
    """(rows, cols, model) of `test_grid_oracle`'s grids: random shapes with
    mixed cardinalities and ties, thin grids, paths, shuffled edges."""
    out = random_shapes(np.random.default_rng(16_000), 90, 2 ** 16)
    out += random_shapes(np.random.default_rng(16_001), 4, 2 ** 20, 2 ** 17)
    for rows, cols in [(1, 12), (12, 1), (1, 1), (2, 6), (6, 2)]:
        rng = np.random.default_rng(rows * 100 + cols)
        out.append((rows, cols, random_grid(rng, rows, cols, lambda shape: rng.normal(size=shape),
                                            most=3)))
    rng = np.random.default_rng(5)
    mrf = random_grid(rng, 3, 4, lambda shape: rng.normal(size=shape))
    edges = [mrf.edges[i] for i in rng.permutation(len(mrf.edges))]
    out.append((3, 4, PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)))
    out.append((4, 4, ising_to_overcomplete([0.0] * 16, {e: 0.0 for e in grid_edges(4, 4)})))
    return out


@pytest.mark.parametrize("case", corpus())
def test_grid_oracle_corpus_equals_the_per_call_form(case):
    rows, cols, mrf = case
    assert_same_answer(mrf, rows, cols)


@pytest.mark.parametrize("regime", ["attractive", "mixed"])
def test_criterion_7_cells_equal_the_per_call_form(regime):
    spec = ExperimentSpec(rows=4, cols=4, regime=regime, gammas=PAPER_GAMMAS, trials=20,
                          seed=20240817)
    for gi in range(len(PAPER_GAMMAS)):
        for trial in range(spec.trials):
            assert_same_answer(_draw_grid_model(spec, gi, trial), 4, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_pools_equal_the_per_call_form(seed):
    for spec in Grid4Paper().setup(seed, None):
        assert_same_answer(cli._draw_grid_model(spec, 0, 0), 4, 4)


def large_grids():
    """Grids past brute force's 2^24 states: 6x8 binary, whose pair tables
    are gathered in one block, then 5x5 with 3 states and 10x10 binary
    (integer tables, tied optima), gathered in several."""
    rng = np.random.default_rng(24_000)
    out = []
    for rows, cols, states, kinds in [(6, 8, 2, ("normal", "integer")),
                                      (8, 6, 2, ("normal", "integer")),
                                      (5, 5, 3, ("normal", "integer")),
                                      (10, 10, 2, ("integer",))]:
        for kind in kinds:
            cards = (states,) * (rows * cols)
            draw = ((lambda shape: rng.normal(size=shape)) if kind == "normal"
                    else (lambda shape: rng.integers(-2, 3, shape).astype(float)))
            edges = tuple(grid_edges(rows, cols))
            node = tuple(draw((m,)) for m in cards)
            edge = {e: draw((states, states)) for e in edges}
            out.append((rows, cols, PairwiseMrf(cards, edges, node, edge)))
    return out


@pytest.mark.parametrize("case", range(7))
def test_grids_past_brute_force_equal_the_per_call_form(case):
    rows, cols, mrf = large_grids()[case]
    assert_same_answer(mrf, rows, cols)


@pytest.mark.parametrize("case", range(7))
def test_the_gather_bound(case):
    # 6x8 binary: seven pairs of 64-state lines of 6 edges, each table one
    # block; 5x5 with 3 states (four pairs of 243-state lines of 5) and
    # 10x10 binary (nine pairs of 1024-state lines of 10) take several
    rows, cols, mrf = large_grids()[case]
    _, states, _, sides = _grid_plan(mrf.cardinalities, mrf.edges, rows, cols)
    line, pairs, joint = {2: (6, 7, 64), 3: (5, 4, 243)}[mrf.cardinalities[0]] if rows < 10 \
        else (10, 9, 1024)
    assert len(sides) == pairs and [len(x) for x in states] == [joint] * (pairs + 1)
    for left, right in sides:
        assert left.shape == (line, joint, 1) and right.shape == (line, 1, joint)
    assert (line * joint ** 2 <= GRID_GATHER_BOUND) == (joint == 64)


def plan_arrays(plan):
    found, parts = [], list(plan)
    while parts:
        part = parts.pop()
        if isinstance(part, np.ndarray):
            found.append(part)
        elif isinstance(part, (tuple, list)):
            parts.extend(part)
    return found


@pytest.mark.parametrize("case", [0, 4])
def test_plan_arrays_are_read_only(case):
    rows, cols, mrf = large_grids()[case]
    grid_map(mrf, rows, cols)
    arrays = plan_arrays(_grid_plan(mrf.cardinalities, mrf.edges, rows, cols))
    assert len(arrays) >= 3 * rows
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_warm_call_builds_no_plan(monkeypatch):
    spec = ExperimentSpec(rows=4, cols=4, regime="mixed", gammas=(1.0,), trials=2, seed=9)
    first, second = (_draw_grid_model(spec, 0, t) for t in range(2))
    grid_map(first, 4, 4)
    misses = _grid_plan.cache_info().misses
    built = []
    monkeypatch.setattr(treedp, "_grid_lines", lambda *args: built.append(args))
    assert_same_answer(second, 4, 4)
    assert built == [] and _grid_plan.cache_info().misses == misses


def test_other_edges_raise_after_the_shape_is_cached():
    grid = ising_to_overcomplete([0.1] * 4, {e: 1.0 for e in grid_edges(2, 2)})
    grid_map(grid, 2, 2)
    cycle = ising_to_overcomplete([0.1] * 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    for _ in range(2):
        with pytest.raises(StructureError, match="not the 2x2 grid"):
            grid_map(cycle, 2, 2)
    path = ising_to_overcomplete([0.1] * 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    with pytest.raises(StructureError, match="not the 2x2 grid"):
        grid_map(path, 2, 2)


def test_both_guards_raise_on_a_cached_shape():
    ties = ising_to_overcomplete([0.0] * 25, {e: 0.0 for e in grid_edges(5, 5)})
    for _ in range(2):
        with pytest.raises(CapacityError, match="more than 65536 near-optimal"):
            grid_map(ties, 5, 5)
    wide = ising_to_overcomplete([0.5] * 169, {e: 1.0 for e in grid_edges(13, 13)})
    for _ in range(2):
        with pytest.raises(CapacityError, match="line-pair table exceeds guard of 16777216"):
            grid_map(wide, 13, 13)
