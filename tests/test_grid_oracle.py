"""The exact grid oracle `treedp.grid_map` against brute force, its guards,
its use by `solve --verify-oracle`, and the tree schedule's plan cache.

`grid_map` must return `brute_force_map`'s value and optimum set exactly
(`==`): the experiment's `oracle_match` and `frac_unique_correct` columns
read both, and the benchmark's check of the paper workload trusts
`oracle_match`, so these tests are the oracle's independent check.
"""

import io

import numpy as np
import pytest

from trwmap import (CapacityError, PairwiseMrf, StructureError, TrwConfig, brute_force_map,
                    grid_edges, grid_map, ising_to_overcomplete, run_tree_updates, save_model)
from trwmap.cli import ExperimentSpec, _draw_grid_model, main, run_experiment
from trwmap.treedp import GRID_OPTIMA_GUARD, _Layout, grid_shape
from trwmap.trees import grid_two_tree_distribution
from trwmap.trw import _grid_trees, _tree_plan

PAPER_GAMMAS = (0.2, 0.5, 1.0, 1.5, 2.0)


def assert_same_oracle(mrf, rows, cols):
    got, want = grid_map(mrf, rows, cols), brute_force_map(mrf)
    assert got == want
    assert type(got[0]) is float and all(type(v) is int for x in got[1].configurations for v in x)


@pytest.mark.parametrize("regime", ["attractive", "mixed"])
def test_criterion_7_cells(regime):
    spec = ExperimentSpec(rows=4, cols=4, regime=regime, gammas=PAPER_GAMMAS, trials=20,
                          seed=20240817)
    for gi in range(len(PAPER_GAMMAS)):
        for trial in range(spec.trials):
            assert_same_oracle(_draw_grid_model(spec, gi, trial), 4, 4)


@pytest.mark.parametrize("seed", range(1, 11))
def test_paper_benchmark_pools(seed):
    # the models of `perfbench/workloads.py`'s Grid4Paper pool: cell i draws
    # stratum i mod 10 of (regime, gamma), with seed * 1_000_000 + i
    strata = [(regime, g) for regime in ("attractive", "mixed") for g in PAPER_GAMMAS]
    for i in range(200):
        regime, gamma = strata[i % len(strata)]
        spec = ExperimentSpec(rows=4, cols=4, regime=regime, gammas=(gamma,), trials=1,
                              seed=seed * 1_000_000 + i, max_iters=40)
        assert_same_oracle(_draw_grid_model(spec, 0, 0), 4, 4)


def random_grid(rng, rows, cols, tables, most=4):
    cards = tuple(int(m) for m in rng.integers(2, most + 1, rows * cols))
    edges = grid_edges(rows, cols)
    return PairwiseMrf(cards, tuple(edges), tuple(tables((m,)) for m in cards),
                       {(s, t): tables((cards[s], cards[t])) for s, t in edges})


def random_shapes(rng, count, max_states, min_states=1):
    """(rows, cols, model) of random grids with 2 to 4 states per node and
    `min_states` to `max_states` joint states."""
    draws = {
        "normal": lambda shape: rng.normal(size=shape),
        # many exact ties: entries in {-1, 0, 1}, or mostly 0
        "integer": lambda shape: rng.integers(-1, 2, shape).astype(float),
        "sparse": lambda shape: (rng.random(shape) < 0.2).astype(float),
    }
    out = []
    while len(out) < count:
        rows, cols = (int(v) for v in rng.integers(1, 7 if min_states == 1 else 9, 2))
        kind = list(draws)[len(out) % len(draws)]
        mrf = random_grid(rng, rows, cols, draws[kind])
        if min_states <= np.prod(mrf.cardinalities, dtype=float) <= max_states:
            out.append((rows, cols, mrf))
    return out


@pytest.mark.parametrize("case", random_shapes(np.random.default_rng(16_000), 90, 2 ** 16))
def test_random_mixed_cardinality_grids(case):
    assert_same_oracle(*case[2:], *case[:2])


@pytest.mark.parametrize("case", random_shapes(np.random.default_rng(16_001), 4, 2 ** 20,
                                                2 ** 17))
def test_random_grids_up_to_2_to_the_20_states(case):
    assert_same_oracle(*case[2:], *case[:2])


@pytest.mark.parametrize("rows, cols", [(1, 12), (12, 1), (1, 1), (2, 6), (6, 2)])
@pytest.mark.parametrize("kind", ["normal", "integer"])
def test_paths_and_thin_grids(rows, cols, kind):
    rng = np.random.default_rng(rows * 100 + cols)
    tables = ((lambda shape: rng.normal(size=shape)) if kind == "normal"
              else (lambda shape: rng.integers(-1, 2, shape).astype(float)))
    assert_same_oracle(random_grid(rng, rows, cols, tables, most=3), rows, cols)


def test_edges_in_any_order_are_summed_in_model_order():
    rng = np.random.default_rng(5)
    mrf = random_grid(rng, 3, 4, lambda shape: rng.normal(size=shape))
    edges = [mrf.edges[i] for i in rng.permutation(len(mrf.edges))]
    shuffled = PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)
    assert_same_oracle(shuffled, 3, 4)


def test_all_ties_up_to_the_optima_guard():
    # every one of the 2^16 configurations is optimal: exactly the guard
    mrf = ising_to_overcomplete([0.0] * 16, {e: 0.0 for e in grid_edges(4, 4)})
    value, opt = grid_map(mrf, 4, 4)
    assert len(opt) == GRID_OPTIMA_GUARD
    assert (value, opt) == brute_force_map(mrf)


def test_optima_guard_raises():
    mrf = ising_to_overcomplete([0.0] * 25, {e: 0.0 for e in grid_edges(5, 5)})
    with pytest.raises(CapacityError, match="more than 65536 near-optimal"):
        grid_map(mrf, 5, 5)


def test_line_pair_guard_raises():
    # 13 binary nodes per line either way: 2^26 line pairs
    mrf = ising_to_overcomplete([0.5] * 169, {e: 1.0 for e in grid_edges(13, 13)})
    with pytest.raises(CapacityError, match="line-pair table exceeds guard of 16777216"):
        grid_map(mrf, 13, 13)


def test_other_graphs_are_rejected():
    mrf = ising_to_overcomplete([0.1] * 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    with pytest.raises(StructureError, match="not the 2x2 grid"):
        grid_map(mrf, 2, 2)
    with pytest.raises(StructureError, match="not the 1x3 grid"):
        grid_map(mrf, 1, 3)


def test_grid_shape_detection():
    square = ising_to_overcomplete([0.0] * 12, {e: 1.0 for e in grid_edges(3, 4)})
    assert grid_shape(square) == (3, 4)
    path = ising_to_overcomplete([0.0] * 5, {e: 1.0 for e in grid_edges(1, 5)})
    assert grid_shape(path) == (5, 1)
    cycle = ising_to_overcomplete([0.0] * 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    assert grid_shape(cycle) is None


def test_experiment_guard_is_on_line_states():
    ExperimentSpec(rows=5, cols=5, regime="mixed", gammas=(1.0,), trials=1, seed=1)
    ExperimentSpec(rows=40, cols=12, regime="mixed", gammas=(1.0,), trials=1, seed=1)
    with pytest.raises(ValueError, match="too large for oracle"):
        ExperimentSpec(rows=13, cols=13, regime="mixed", gammas=(1.0,), trials=1, seed=1)


def solve(tmp_path, mrf, *argv):
    path = tmp_path / "model.json"
    path.write_bytes(save_model(mrf))
    out = io.StringIO()
    code = main(["solve", str(path), *argv], out=out)
    return code, out.getvalue()


def weak_ising(rng, n, edges):
    return ising_to_overcomplete(2.0 * rng.random(n) - 1.0,
                                 {e: 0.1 * w for e, w in zip(edges, rng.random(len(edges)))})


def test_verify_oracle_answers_on_an_8x8_binary_grid(tmp_path):
    mrf = weak_ising(np.random.default_rng(8), 64, grid_edges(8, 8))
    code, out = solve(tmp_path, mrf, "--method", "trw-msg", "--verify-oracle")
    assert code == 0
    assert "certificate: " in out and out.endswith("oracle-match: true\n")


def test_verify_oracle_answers_on_a_long_path(tmp_path):
    mrf = weak_ising(np.random.default_rng(30), 30, grid_edges(1, 30))
    code, out = solve(tmp_path, mrf, "--method", "trw-msg", "--verify-oracle")
    assert code == 0 and out.endswith("oracle-match: true\n")


def test_verify_oracle_answers_on_a_grid_past_the_optima_guard(tmp_path):
    # all 2^20 configurations tie: past `grid_map`'s optima guard, so the
    # oracle falls back to brute force
    mrf = ising_to_overcomplete([0.0] * 20, {e: 0.0 for e in grid_edges(4, 5)})
    with pytest.raises(CapacityError, match="near-optimal"):
        grid_map(mrf, 4, 5)
    code, out = solve(tmp_path, mrf, "--method", "trw-msg", "--verify-oracle")
    assert code == 0
    assert "certificate: " in out and out.endswith("oracle-match: true\n")


def test_verify_oracle_reports_a_skip_past_the_guard(tmp_path):
    # a 25-node cycle is no grid, and 2^25 states exceed the brute-force guard
    edges = [(s, s + 1) for s in range(24)] + [(0, 24)]
    mrf = weak_ising(np.random.default_rng(25), 25, edges)
    code, out = solve(tmp_path, mrf, "--method", "trw-msg", "--verify-oracle")
    assert code == 0 and "certificate: " in out
    assert out.splitlines()[-2:] == [
        out.splitlines()[-2], "oracle-match: skipped (joint state space exceeds 2^24)"]
    assert out.splitlines()[-2].startswith("value: ")


def test_verify_oracle_skips_a_grid_past_both_guards(tmp_path):
    # all 2^25 configurations tie: past `grid_map`'s optima guard and past
    # brute force's, with the one skip line of the non-grids
    mrf = ising_to_overcomplete([0.0] * 25, {e: 0.0 for e in grid_edges(5, 5)})
    code, out = solve(tmp_path, mrf, "--method", "trw-msg", "--verify-oracle")
    assert code == 0 and "certificate: " in out
    assert out.endswith("oracle-match: skipped (joint state space exceeds 2^24)\n")


# --- the tree schedule's plan cache ------------------------------------------

def paper_cells():
    spec = ExperimentSpec(rows=4, cols=4, regime="mixed", gammas=(1.0, 2.0), trials=3, seed=3)
    return [_draw_grid_model(spec, gi, t) for gi in range(2) for t in range(3)]


def test_a_second_run_of_one_shape_builds_no_layout(monkeypatch):
    dist = grid_two_tree_distribution(4, 4)
    first, second = paper_cells()[:2]
    run_tree_updates(first, dist, TrwConfig(max_iterations=5))
    built = []
    init = _Layout.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_Layout, "__init__", counted)
    run_tree_updates(second, dist, TrwConfig(max_iterations=5))
    assert built == []


def test_cached_plan_arrays_are_read_only():
    mrf = paper_cells()[0]
    dist = grid_two_tree_distribution(4, 4)
    run_tree_updates(mrf, dist, TrwConfig(max_iterations=2))
    plan = _tree_plan(mrf.cardinalities, mrf.edges, dist.trees)
    arrays = [plan.graph.idx, plan.graph.offsets, plan.graph.entries, plan.edge, plan.final,
              plan.slot_nodes, plan.slot_entries, plan.by_edge[0], plan.upward[-1][2][0],
              plan.roots[0], plan.roots[1][0], plan.batches[-1][2][0]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] = 0
    # and every other array the plan holds, in its batches too
    parts, seen = [vars(plan), vars(plan.graph)], 0
    while parts:
        part = parts.pop()
        if isinstance(part, np.ndarray):
            assert not part.flags.writeable
            seen += 1
        elif isinstance(part, (tuple, list)):
            parts.extend(part)
        elif isinstance(part, dict):
            parts.extend(part.values())
    assert seen > len(arrays)


def test_experiment_shares_one_two_tree_distribution_per_shape(monkeypatch):
    built = []
    monkeypatch.setattr("trwmap.trw.grid_two_tree_distribution",
                        lambda rows, cols: built.append((rows, cols)) or
                        grid_two_tree_distribution(rows, cols))
    _grid_trees.cache_clear()
    for seed in (1, 2):
        run_experiment(ExperimentSpec(rows=3, cols=4, regime="mixed", gammas=(1.0,), trials=1,
                                      seed=seed, max_iters=5))
    assert built == [(3, 4)]
    dist = _grid_trees(3, 4)
    fresh = grid_two_tree_distribution(3, 4)
    assert dist.trees == fresh.trees and np.array_equal(dist.weights, fresh.weights)
    with pytest.raises(ValueError, match="read-only"):
        dist.weights[0] = 1.0
    _grid_trees.cache_clear()


def test_results_are_equal_with_and_without_a_warm_cache():
    dist = grid_two_tree_distribution(4, 4)
    config = TrwConfig(max_iterations=60)
    for mrf in paper_cells():
        _tree_plan.cache_clear()
        cold = run_tree_updates(mrf, dist, config)
        warm = run_tree_updates(mrf, dist, config)
        assert _tree_plan.cache_info().hits >= 1
        assert np.array_equal(cold.nu.node, warm.nu.node)
        assert np.array_equal(cold.nu.tables, warm.nu.tables)
        assert cold.bound_trace == warm.bound_trace
        assert np.array_equal(cold.certificate, warm.certificate)
        for field in ("iterations", "converged", "certificate_indeterminate",
                      "terminated_by", "messages_per_edge"):
            assert getattr(cold, field) == getattr(warm, field)
