"""The batch-ordered layouts of the two schedules against the slot-ordered
forms they replaced, kept in `slot_reference`.

The message kernel computes both directions of an edge from one oriented
table stack, and takes its maxima as `np.maximum` of slices.  The tree DP
sends one batch per arc dependency level and keeps its cavities, messages
and removed constants in batch order.  Both must perform the same
floating-point operations on every entry in the same order as before, so
every result is `np.array_equal` to the reference's and has the same sign
bits, zeros included.  The models are the `grid4_paper` benchmark pools of
seeds 1-3, the padded mixed-cardinality cases of `test_padded_kernels`,
random trees with 2 to 4 states per node, paths of up to 3,000 nodes, and
tables of signed zeros, on which the DP's buffers themselves and the
message step are compared.

The DP's plan is checked on its own too: a batch reads only messages that
earlier batches sent, and there are as many batches as the largest tree
diameter (9 on the 4x4 grid's two trees, n - 1 on a path rooted at an end).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import slot_reference as ref
from conftest import random_graph_mrf, random_tree_mrf
from test_padded_kernels import CASES, random_rho
from trwmap import (PairwiseMrf, SpanningTree, TrwConfig, cli, grid_edges,
                    grid_two_tree_distribution, run_tree_updates, run_trw, tree_map_value,
                    tree_max_marginals, trw, uniform_rho, uniform_tree_distribution)
from trwmap.treedp import _graph_layout, _Layout, _normalized, _TreeLayout, _Workspace
from trwmap.trw import _flip, _FlatMrf

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import Grid4Paper  # noqa: E402


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_result(got, want):
    for field in ("iterations", "converged", "certificate_indeterminate", "variant",
                  "terminated_by", "messages_per_edge"):
        assert getattr(got, field) == getattr(want, field), field
    assert_same_bits(got.nu.node, want.nu.node)
    assert_same_bits(got.nu.tables, want.nu.tables)
    assert_same_bits(got.bound_trace, want.bound_trace)
    assert (got.certificate is None) == (want.certificate is None)
    if want.certificate is not None:
        assert np.array_equal(got.certificate, want.certificate)
    assert (got.messages is None) == (want.messages is None)
    if want.messages is not None:
        assert list(got.messages.log_m) == list(want.messages.log_m)
        for key, m in want.messages.log_m.items():
            assert_same_bits(got.messages.log_m[key], m)


@pytest.fixture
def reference_run_trw(monkeypatch):
    """`run_trw` on the slot-ordered message kernel, tree DP and offset."""
    def run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(trw, "_FlatMrf", ref.SlotFlatMrf)
            m.setattr(trw, "_tree_plan", lambda cards, edges, trees: ref.SlotTreeLayout(
                _graph_layout(cards, edges), trees))
            m.setattr(trw, "_ZeroOffset", ref.ZeroOffset)
            return run_trw(*args, **kwargs)
    return run


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_pool_runs_equal_slot_order(seed, reference_run_trw):
    # each cell as `run_experiment` runs it: both schedules, 40 iterations at most
    dist = grid_two_tree_distribution(4, 4)
    outcomes = set()
    for spec in Grid4Paper().setup(seed, None):
        mrf = cli._draw_grid_model(spec, 0, 0)
        config = TrwConfig(damping=spec.damping, tol=spec.eps, max_iterations=spec.max_iters)
        assert_same_result(run_trw(mrf, uniform_rho(mrf), config),
                           reference_run_trw(mrf, uniform_rho(mrf), config))
        tree = run_tree_updates(mrf, dist, config)
        assert_same_result(tree, ref.run_tree_updates(mrf, dist, config))
        outcomes.add(tree.terminated_by)
    assert outcomes == {"tree_agreement", "max_iterations"}


def test_paper_pool_bound_traces_equal_slot_order(reference_run_trw):
    dist = grid_two_tree_distribution(4, 4)
    for spec in Grid4Paper().setup(1, None)[:20]:
        mrf = cli._draw_grid_model(spec, 0, 0)
        config = TrwConfig(max_iterations=spec.max_iters)
        for variant in ("messages", "reparam"):
            got = run_trw(mrf, dist, config, variant=variant)
            assert len(got.bound_trace) == got.iterations + 1
            assert_same_result(got, reference_run_trw(mrf, dist, config, variant=variant))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_message_step_equals_slot_order(index, damping):
    mrf, _ = CASES[index]
    rho = random_rho(np.random.default_rng(index), mrf)
    flat = _FlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho, mrf)
    old = ref.SlotFlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho, mrf)
    got, want = flat.unit_messages(), old.unit_messages()
    for _ in range(100):
        got, want = flat.message_step(got, damping), old.message_step(want, damping)
        assert_same_bits(_flip(got[0]), want[0])
        (h, cav), (old_h, old_cav) = flat._cavities(got[0]), old._cavities(want[0])
        assert_same_bits(h, old_h)
        assert_same_bits(_flip(cav), old_cav)


@pytest.mark.parametrize("variant", ["messages", "reparam"])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_padded_runs_with_trees_equal_slot_order(index, variant, reference_run_trw):
    # the bound observer runs the tree DP on padded stacks every iteration
    mrf, dist = CASES[index]
    config = TrwConfig(max_iterations=60)
    assert_same_result(run_trw(mrf, dist, config, variant=variant),
                       reference_run_trw(mrf, dist, config, variant=variant))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_padded_tree_updates_equal_slot_order(index, damping):
    mrf, dist = CASES[index]
    config = TrwConfig(damping=damping, max_iterations=60)
    assert_same_result(run_tree_updates(mrf, dist, config),
                       ref.run_tree_updates(mrf, dist, config))


@pytest.mark.parametrize("seed", range(20))
def test_dp_buffers_equal_slot_order_on_signed_zeros(seed):
    # tables of -0.0 and 0.0 only: a cavity's sign shows whether the ranks
    # an arc lacks add -0.0, which the normalized results wash out
    rng = np.random.default_rng(19_100 + seed)
    mrf = random_graph_mrf(rng, n_nodes=5, card_choices=(2, 3))
    trees = [tree for tree, _ in uniform_tree_distribution(mrf).support_items()]
    graph = _Layout(mrf.cardinalities, mrf.edges)
    width = graph.pad.shape[2]
    node = np.where(rng.random(graph.size) < 0.5, -0.0, 0.0)
    tables = np.where(rng.random((len(graph.edges), width, width)) < 0.5, -0.0, 0.0)
    tables[graph.pad[:, 0, :, None] | graph.pad[:, 1, None, :]] = -np.inf
    new, old = _TreeLayout(graph, trees), ref.SlotTreeLayout(graph, trees)
    state = new._run(node, tables, _Workspace(new, new.batches))
    node_ext, oriented, msg, cav, tops = old._upward(node, tables)
    old._pass(old.down, node_ext, oriented, msg, cav)
    # the slots' cavities in slot order, and the messages into their sides:
    # the side of x on {x, y} receives the message whose sender y's cavity
    # is the other side
    b, s = new._splits
    sides = new.final[2 * b:s]
    assert_same_bits(state.take(sides), cav)
    into = (sides - new._cav).reshape(-1, 2, width)[:, ::-1]
    assert_same_bits(state.take(into).reshape(-1), msg)
    assert_same_bits(state.take(new.final[s:]), tops[old.rev])
    for a, c in zip(new.solve(node, tables), old.solve(node, tables)):
        assert_same_bits(a, c)


def signed_zeros(rng, shape, values=(0.0, -0.0, -1.0)):
    return rng.choice(np.array(values), size=shape)


@pytest.mark.parametrize("width", range(1, 7))
def test_normalized_folds_the_row_maxima_on_signed_zeros(width):
    # on a tie of 0.0 and -0.0, numpy's max over both table axes returns
    # either zero, by SIMD path; the fold of the row maxima returns one
    rng = np.random.default_rng(24_100 + width)
    for _ in range(50):
        a = signed_zeros(rng, (40, width, width))
        kept = a.copy()
        assert_same_bits(_normalized(a), ref.normalized(a))
        assert_same_bits(a, kept)  # the input is left as it was


@pytest.mark.parametrize("seed", range(20))
def test_tree_tables_fold_the_row_maxima_on_signed_zeros(seed):
    # `solve`'s edge tables, and the tree schedule's, against the slot
    # oracle's own fold, on node tables of -0.0 and edge tables of 0.0 and
    # -0.0: on 2 and 3 nodes, most sums a table's max reads are one table
    # entry plus -0.0 entries, which keep its sign
    rng = np.random.default_rng(24_200 + seed)
    mrf = random_graph_mrf(rng, n_nodes=2 + seed % 2, card_choices=(3, 5))
    dist = uniform_tree_distribution(mrf)
    trees = [tree for tree, _ in dist.support_items()]
    graph = _Layout(mrf.cardinalities, mrf.edges)
    width = graph.pad.shape[2]
    node = np.full(graph.size, -0.0)
    tables = signed_zeros(rng, (len(graph.edges), width, width), (0.0, -0.0))
    tables[graph.pad[:, 0, :, None] | graph.pad[:, 1, None, :]] = -np.inf
    new, old = _TreeLayout(graph, trees), ref.SlotTreeLayout(graph, trees)
    for a, c in zip(new.solve(node, tables), old.solve(node, tables)):
        assert_same_bits(a, c)
    zeros = PairwiseMrf(mrf.cardinalities, mrf.edges, graph.node_views(node),
                        graph.edge_views(tables))
    config = TrwConfig(max_iterations=5)
    assert_same_result(run_tree_updates(zeros, dist, config),
                       ref.run_tree_updates(zeros, dist, config))


@pytest.mark.parametrize("seed", range(12))
def test_one_tree_wrappers_equal_slot_order(seed):
    rng = np.random.default_rng(19_000 + seed)
    mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 12)), card_choices=(2, 3, 4))
    tree = SpanningTree(mrf.edges)
    node_mm, edge_mm, (value,) = ref.tree_max_marginals(mrf, tree)
    got = tree_max_marginals(mrf, tree)
    assert_same_bits(got.node, node_mm[0])
    assert_same_bits(got.tables, edge_mm)
    assert tree_map_value(mrf, tree) == ref.tree_map_value(mrf, tree) == value
    assert np.signbit(tree_map_value(mrf, tree)) == np.signbit(value)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_message_step_equals_slot_order_on_signed_zeros(index, damping):
    # messages, node vector and tables of -0.0 and 0.0 only: every max is a
    # tie of zeros, and its sign shows which operand each np.maximum returned
    mrf, _ = CASES[index]
    rng = np.random.default_rng(21_100 + index)
    rho = random_rho(rng, mrf)
    flat = _FlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho, mrf)
    old = ref.SlotFlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho, mrf)
    graph = flat.layout
    assert graph.pad.any()
    node = np.where(rng.random(graph.size) < 0.5, -0.0, 0.0)
    table = np.where(rng.random(old.table.shape) < 0.5, -0.0, 0.0)
    table[graph.pad[:, 0, :, None] | graph.pad[:, 1, None, :]] = -np.inf
    flat.theta_node, flat.table = node, _flip(table)
    old.theta_node, old.table = node, table
    msgs = np.where(rng.random(graph.idx.shape) < 0.5, -0.0, 0.0)
    msgs[graph.pad] = 0.0
    got, want = (_flip(msgs),), (msgs,)
    for _ in range(4):
        got, want = flat.message_step(got, damping), old.message_step(want, damping)
        assert_same_bits(_flip(got[0]), want[0])



def farthest(tree, n, source):
    """(a node farthest from `source` on the tree, its distance in edges),
    by breadth-first search."""
    adj = tree.neighbors(n)
    dist, queue = {source: 0}, [source]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist.items(), key=lambda item: item[1])


def diameter(tree, n):
    return farthest(tree, n, farthest(tree, n, 0)[0])[1]


def assert_batches_follow_dependencies(plan, trees, n):
    # a batch adds to its cavities only messages that an earlier batch of
    # its list sent (or the -0.0 entry); `batches` sends every arc once and
    # `upward` every up arc, toward the root 0, once
    parents = [tree.parent_map(n, 0) for tree in trees]
    up = {plan._at[(k, u, parent[u])] for k, parent in enumerate(parents) for u in range(1, n)}
    for batches, arcs in ((plan.batches, set(range(2 * len(plan.edge)))), (plan.upward, up)):
        sent = np.zeros(2 * len(plan.edge), dtype=bool)
        for lo, hi, ranks in batches:
            for src in ranks:
                assert sent[src[src != plan._zero] // plan._width].all()
            assert not sent[lo:hi].any()
            sent[lo:hi] = True
        assert set(np.flatnonzero(sent).tolist()) == arcs


def test_paper_plan_runs_one_batch_per_level():
    # by sender height, upward then downward, this plan ran 12 batches
    dist = grid_two_tree_distribution(4, 4)
    plan = _TreeLayout(_Layout((2,) * 16, grid_edges(4, 4)), dist.trees)
    assert [diameter(tree, 16) for tree in dist.trees] == [9, 9]
    assert len(plan.batches) == 9
    assert len(plan.upward) == 6
    # the up arcs lead each of the first six levels
    assert [lo for lo, _, _ in plan.upward] == [lo for lo, _, _ in plan.batches[:6]]
    assert_batches_follow_dependencies(plan, dist.trees, 16)


@pytest.mark.parametrize("seed", range(40))
def test_batches_equal_the_largest_tree_diameter(seed):
    # five random trees of 2 to 40 nodes, each alone and all five together
    rng = np.random.default_rng(21_000 + seed)
    n = int(rng.integers(2, 41))
    trees = [SpanningTree(random_tree_mrf(rng, n_nodes=n).edges) for _ in range(5)]
    graph = _Layout((2,) * n, sorted({e for tree in trees for e in tree.edges}))
    for chosen in [[tree] for tree in trees] + [trees]:
        plan = _TreeLayout(graph, chosen)
        assert len(plan.batches) == max(diameter(tree, n) for tree in chosen)
        # the up arcs' levels are their senders' heights below the root
        assert len(plan.upward) == max(farthest(tree, n, 0)[1] for tree in chosen)
        assert_batches_follow_dependencies(plan, chosen, n)


@pytest.mark.parametrize("n", [2, 3, 12, 3000])
def test_path_rooted_at_an_end_runs_n_minus_one_batches(n):
    # 3,000 nodes is past Python's default recursion limit of 1,000, so the
    # plan is built without recursion; its results are the slot layout's
    rng = np.random.default_rng(21_200 + n)
    edges = tuple((u, u + 1) for u in range(n - 1))
    cards = tuple(int(m) for m in rng.integers(2, 4, n))
    mrf = PairwiseMrf(cards, edges, tuple(rng.normal(size=m) for m in cards),
                      {(s, t): rng.normal(size=(cards[s], cards[t])) for s, t in edges})
    tree = SpanningTree(edges)
    plan = _TreeLayout(_Layout(cards, edges), [tree])
    assert len(plan.batches) == len(plan.upward) == n - 1
    node_mm, edge_mm, (value,) = ref.tree_max_marginals(mrf, tree)
    got = tree_max_marginals(mrf, tree)
    assert_same_bits(got.node, node_mm[0])
    assert_same_bits(got.tables, edge_mm)
    assert tree_map_value(mrf, tree) == value
