"""One cached, read-only layout per graph (`treedp._graph_layout`) and one
cached plan per tree set (`treedp._tree_plan`).

Results must not depend on the caches: a run after emptying them equals a
warm run bit for bit, sign bits included, and a message set that meets a
new layout of its graph (after an eviction, or built from a dict) goes
through the checked `_Layout.directed` to the same bits as the array path.
A result keeps the plain cached layout, which a later run on the graph
reads but never writes.
"""

import numpy as np
import pytest

from conftest import random_graph_mrf, random_tree_mrf
from test_batch_layouts import assert_same_bits, assert_same_result
from test_padded_kernels import CASES, random_rho
from trwmap import (MessageSet, PairwiseMrf, SpanningTree, StructureError, TreeDistribution,
                    TrwConfig, dual_from_messages, edge_appearance, evaluate_dual, message_step,
                    messages_to_pseudo, run_tree_updates, run_trw, tree_map_value,
                    tree_max_marginals)
from trwmap.treedp import _graph_layout, _Layout, _tree_plan
from trwmap.trw import _FlatMrf, _ZeroOffset

CONFIG = TrwConfig(max_iterations=40)


def clear_caches():
    _graph_layout.cache_clear()
    _tree_plan.cache_clear()


def runs(mrf, dist):
    """Every schedule: messages and reparam with rho and with trees, and
    the tree-based updates."""
    rho = random_rho(np.random.default_rng(len(mrf.edges)), mrf)
    return [run_trw(mrf, rho, CONFIG), run_trw(mrf, dist, CONFIG),
            run_trw(mrf, rho, CONFIG, variant="reparam"),
            run_trw(mrf, dist, CONFIG, variant="reparam"),
            run_tree_updates(mrf, dist, CONFIG)]


def unsorted(mrf, rng):
    edges = tuple(mrf.edges[i] for i in rng.permutation(len(mrf.edges)))
    assert edges != tuple(sorted(edges))
    return PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cold_and_warm_runs_are_equal(index):
    mrf, dist = CASES[index]
    clear_caches()
    cold = runs(mrf, dist)
    hits = _graph_layout.cache_info().hits
    warm = runs(mrf, dist)
    assert _graph_layout.cache_info().hits > hits
    for got, want in zip(warm, cold):
        assert_same_result(got, want)
        assert got.nu.layout is want.nu.layout


def test_models_of_one_graph_share_the_plain_layout():
    rng = np.random.default_rng(2200)
    first = random_graph_mrf(rng, n_nodes=6, card_choices=(2, 3, 4))
    second = PairwiseMrf(first.cardinalities, first.edges,
                         tuple(rng.normal(size=m) for m in first.cardinalities),
                         {(s, t): rng.normal(size=(first.cardinalities[s], first.cardinalities[t]))
                          for s, t in first.edges})
    done = run_trw(first, None, CONFIG)
    kept = [a.copy() for a in (done.nu.node, done.nu.tables, done.messages._msgs)]
    again = run_trw(second, None, CONFIG)
    layout = done.nu.layout
    assert again.nu.layout is layout and done.messages._layout is layout
    assert type(layout) is _Layout and not isinstance(layout, _FlatMrf)
    # the layout holds the graph only: no run's tables, no oriented stack
    assert not {"table", "theta_node", "_oriented"} & set(vars(layout))
    for a, b in zip((done.nu.node, done.nu.tables, done.messages._msgs), kept):
        assert_same_bits(a, b)


def test_the_reparameterization_layout_is_the_sorted_graph():
    mrf = random_graph_mrf(np.random.default_rng(2201), n_nodes=6)
    mrf = unsorted(mrf, np.random.default_rng(0))
    msgs, reparam = run_trw(mrf, None, CONFIG), run_trw(mrf, None, CONFIG, variant="reparam")
    assert msgs.nu.layout is _graph_layout(mrf.cardinalities, mrf.edges)
    assert reparam.nu.layout is _graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges)))


def writes_fail(arrays):
    count = 0
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        count += 1
    return count


def all_arrays(obj):
    found, parts = [], list(vars(obj).values())
    while parts:
        part = parts.pop()
        if isinstance(part, np.ndarray):
            found.append(part)
        elif isinstance(part, (tuple, list, dict)):
            parts.extend(part.values() if isinstance(part, dict) else part)
    return found


def test_cached_layout_and_plan_arrays_are_read_only():
    mrf, dist = CASES[-1]
    result = run_tree_updates(mrf, dist, TrwConfig(max_iterations=3))
    layout = result.nu.layout
    assert layout is _graph_layout(mrf.cardinalities, mrf.edges)
    assert writes_fail(all_arrays(layout)) >= 8
    plan = _tree_plan(mrf.cardinalities, mrf.edges, dist.trees)
    assert plan.graph is layout
    # the parts built on first read too
    lazy = [plan.final, plan.slot_nodes, plan.slot_entries, *plan.by_edge]
    assert writes_fail(all_arrays(plan)) > len(lazy)


def test_one_tree_plans_are_cached_and_read_only():
    mrf = random_tree_mrf(np.random.default_rng(0), n_nodes=8)
    tree = SpanningTree(mrf.edges)
    clear_caches()
    value = tree_map_value(mrf, tree)
    plan = _tree_plan(mrf.cardinalities, tree.edges, (tree,))
    assert _tree_plan.cache_info().misses == 1
    nu = tree_max_marginals(mrf, tree)
    assert tree_map_value(mrf, tree) == value
    assert _tree_plan.cache_info().misses == 1 and _graph_layout.cache_info().misses == 1
    assert nu.layout is plan.graph
    writes_fail(all_arrays(plan) + [plan.final, plan.slot_nodes, plan.slot_entries])


def result_arrays(result):
    return [result.nu.node, result.nu.tables, np.array(result.bound_trace)]


def test_a_second_run_on_the_plan_leaves_the_first_result_unchanged():
    # each run fills its own workspace: no result is a view of a buffer
    # that a later run on the same cached plan writes
    mrf, dist = CASES[-1]
    rng = np.random.default_rng(2400)
    other = PairwiseMrf(mrf.cardinalities, mrf.edges,
                        tuple(rng.normal(size=m) for m in mrf.cardinalities),
                        {(s, t): rng.normal(size=(mrf.cardinalities[s], mrf.cardinalities[t]))
                         for s, t in mrf.edges})
    first = run_tree_updates(mrf, dist, CONFIG)
    kept = [a.copy() for a in result_arrays(first)]
    hits = _tree_plan.cache_info().hits
    second = run_tree_updates(other, dist, CONFIG)
    assert _tree_plan.cache_info().hits > hits
    assert not np.array_equal(second.nu.tables, first.nu.tables)
    for a, b in zip(result_arrays(first), kept):
        assert_same_bits(a, b)
    assert_same_result(run_tree_updates(mrf, dist, CONFIG), first)


def test_one_tree_results_are_the_same_after_a_run_on_their_plan():
    # a tree model whose one-tree distribution is its own tree: the tree
    # schedule and the one-tree wrappers share one cached plan
    mrf = random_tree_mrf(np.random.default_rng(2401), n_nodes=9, card_choices=(2, 3, 4))
    tree = SpanningTree(mrf.edges)
    value, nu = tree_map_value(mrf, tree), tree_max_marginals(mrf, tree)
    plan = _tree_plan(mrf.cardinalities, tree.edges, (tree,))
    hits = _tree_plan.cache_info().hits
    run_tree_updates(mrf, TreeDistribution(len(mrf.cardinalities), (tree,), (1.0,)), CONFIG)
    assert _tree_plan.cache_info().hits > hits
    assert _tree_plan(mrf.cardinalities, tree.edges, (tree,)) is plan
    again = tree_max_marginals(mrf, tree)
    assert_same_bits(again.node, nu.node)
    assert_same_bits(again.tables, nu.tables)
    assert_same_bits(tree_map_value(mrf, tree), value)


def test_bound_builds_a_workspace_for_each_plan():
    # `_FlatMrf.bound` keeps its DP workspace while the plan stays the same
    # and builds another for another plan, whose batches differ
    mrf, dist = CASES[-1]
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    flat = _FlatMrf(layout, edge_appearance(dist, mrf), mrf)
    nu = flat.pseudo_from_messages(flat.message_step(flat.unit_messages(), 1.0))
    offset = _ZeroOffset(mrf, layout)
    support = dist.support_items()
    plans = [(_tree_plan(mrf.cardinalities, mrf.edges, tuple(t for t, _ in support)),
              np.array([w for _, w in support])),
             (_tree_plan(mrf.cardinalities, mrf.edges, (support[0][0],)), np.ones(1))]
    assert plans[0][0].upward != plans[1][0].upward
    for trees, weights in plans + plans[::-1] + plans:
        fresh = _FlatMrf(layout, edge_appearance(dist, mrf), mrf)
        assert_same_bits(flat.bound(trees, weights, offset, nu),
                         fresh.bound(trees, weights, offset, nu))


def dual_cases():
    """(model, its distribution, a nu, messages): messages-run and
    reparam-run nu on a model with sorted edges and one without."""
    out = []
    for k, (mrf, dist) in enumerate(CASES[:3] + CASES[-2:]):
        for model in (mrf, unsorted(mrf, np.random.default_rng(k))):
            msgs = run_trw(model, dist, CONFIG)
            out.append((model, dist, msgs.nu, msgs.messages))
            out.append((model, dist, run_trw(model, dist, CONFIG, variant="reparam").nu,
                        msgs.messages))
    return out


DUAL_CASES = dual_cases()


@pytest.mark.parametrize("index", range(len(DUAL_CASES)))
def test_array_and_dict_multipliers_give_equal_duals(index):
    mrf, dist, nu, msgs = DUAL_CASES[index]
    rho = edge_appearance(dist, mrf)
    lam = dual_from_messages(msgs, nu, dist)
    assert lam._layout is nu.layout
    by_dict = MessageSet(dict(lam.log_m))
    got, want = evaluate_dual(lam, mrf, rho), evaluate_dual(by_dict, mrf, rho)
    assert got == want and np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("index", range(0, len(DUAL_CASES), 2))
def test_multipliers_of_a_message_run_never_meet_directed(index, monkeypatch):
    # a fresh run: other tests empty the cache that DUAL_CASES' runs used
    mrf, dist, _, _ = DUAL_CASES[index]
    rho = edge_appearance(dist, mrf)
    result = run_trw(mrf, dist, CONFIG)
    nu, msgs = result.nu, result.messages
    want = evaluate_dual(MessageSet(dict(dual_from_messages(msgs, nu, dist).log_m)), mrf, rho)

    def refused(self, vectors):
        raise AssertionError("directed called")

    monkeypatch.setattr(_Layout, "directed", refused)
    assert evaluate_dual(dual_from_messages(msgs, nu, dist), mrf, rho) == want


def test_a_dict_set_lacking_a_direction_is_rejected():
    mrf, dist, nu, msgs = DUAL_CASES[0]
    vectors = dict(dual_from_messages(msgs, nu, dist).log_m)
    (s, t) = mrf.edges[0]
    del vectors[(t, s)]
    with pytest.raises(StructureError, match=rf"direction \({t}, {s}\): no vector given"):
        evaluate_dual(MessageSet(vectors), mrf, edge_appearance(dist, mrf))


def test_a_set_on_an_evicted_layout_gives_the_same_bits():
    mrf, dist = CASES[0]
    rho = edge_appearance(dist, mrf)
    result = run_trw(mrf, dist, CONFIG)
    msgs, lam = result.messages, dual_from_messages(result.messages, result.nu, dist)

    def outputs():
        return (message_step(msgs, mrf, rho, 0.5), messages_to_pseudo(msgs, mrf, rho),
                evaluate_dual(lam, mrf, rho))
    fast = outputs()
    clear_caches()
    assert _graph_layout(mrf.cardinalities, mrf.edges) is not result.nu.layout
    slow = outputs()
    assert_same_bits(slow[0]._msgs, fast[0]._msgs)
    assert_same_bits(slow[1].node, fast[1].node)
    assert_same_bits(slow[1].tables, fast[1].tables)
    assert slow[2] == fast[2]
