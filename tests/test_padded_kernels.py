"""The padded (E, M, M) edge stack of `trw._FlatMrf` against the bucketed
kernels it replaced, kept in `trw_reference.BucketedFlatMrf`.

Both must perform the same floating-point operations on every valid entry,
so every node vector, table and message is `==` after every step, the
change measures are `==`, and `run_trw` stops at the same iteration with the
same bound trace.  The models are pool models of the `lp_mixed_card`
benchmark, random graphs with 2 to 4 states, a model whose edges are not
sorted and a binary graph with one 6-state node, where padding is largest.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import trw_reference as ref
from conftest import random_graph_mrf
from trwmap import (PairwiseMrf, TrwConfig, grid_two_tree_distribution, run_trw,
                    uniform_tree_distribution)
from trwmap.treedp import _graph_layout
from trwmap.trw import _Change, _flip, _FlatMrf

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import _rng, mixed_cardinality_grid  # noqa: E402

STEPS = 100


def six_state_node(rng):
    """A binary random graph whose best-connected node has 6 states."""
    base = random_graph_mrf(rng, n_nodes=6, card_choices=(2,), extra_edge_prob=0.5)
    hub = max(range(6), key=lambda s: sum(s in e for e in base.edges))
    cards = tuple(6 if s == hub else 2 for s in range(6))
    return PairwiseMrf(cards, base.edges, tuple(rng.normal(size=m) for m in cards),
                       {(s, t): rng.normal(size=(cards[s], cards[t])) for s, t in base.edges})


def unsorted_edges(rng):
    mrf = random_graph_mrf(rng, n_nodes=6, card_choices=(2, 3, 4), extra_edge_prob=0.6)
    edges = tuple(mrf.edges[i] for i in rng.permutation(len(mrf.edges)))
    assert edges != tuple(sorted(edges))
    return PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)


def cases():
    """(model, its tree distribution) pairs."""
    out = [(mixed_cardinality_grid(5, _rng(1, 2, i)), grid_two_tree_distribution(5, 5))
           for i in range(3)]
    for seed in range(3):
        mrf = random_graph_mrf(np.random.default_rng(9700 + seed), n_nodes=5,
                               card_choices=(2, 3, 4))
        out.append((mrf, uniform_tree_distribution(mrf)))
    for mrf in (unsorted_edges(np.random.default_rng(9710)),
                six_state_node(np.random.default_rng(9720))):
        out.append((mrf, uniform_tree_distribution(mrf)))
    return out


CASES = cases()


def random_rho(rng, mrf):
    return {e: float(rng.uniform(0.2, 1.0)) for e in mrf.edges}


def layouts(mrf, edges, rho):
    return _FlatMrf(_graph_layout(mrf.cardinalities, tuple(edges)), rho, mrf), ref.BucketedFlatMrf(
        mrf.cardinalities, edges, rho, mrf)


def assert_messages_equal(got, want):
    assert list(got.log_m) == list(want.log_m)
    for k in want.log_m:
        assert np.array_equal(got.log_m[k], want.log_m[k]), k


def assert_pseudo_equal(got, want):
    # `want` is built from the bucketed tables through `log_node` and `log_edge`
    assert np.array_equal(got.node, want.node)
    assert np.array_equal(got.tables, want.tables)
    assert list(got.log_edge) == list(want.log_edge)


def assert_padding(flat, tables, msgs=None):
    """Padded table entries are -inf, padded message entries 0, on the
    layout's (E, M, M) and (E, 2, M) arrays."""
    pad = flat.layout.pad[:, 0, :, None] | flat.layout.pad[:, 1, None, :]
    assert np.all(tables[pad] == -np.inf) and np.isfinite(tables[~pad]).all()
    if msgs is not None:
        assert np.all(msgs[flat.layout.pad] == 0.0)


def test_cases_have_padding_and_several_table_shapes():
    for mrf, _ in CASES:
        layout = _graph_layout(mrf.cardinalities, mrf.edges)
        assert layout.pad.any()
        assert len({tuple(cards) for cards in layout.edge_cards}) >= 2
    worst = _graph_layout(CASES[-1][0].cardinalities, CASES[-1][0].edges)
    # at most a third of the (E, 6, 6) table entries are valid
    assert worst.pad.shape[2] == 6 and 3 * worst.entries.size <= 36 * len(worst.edges)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_message_kernels_match_bucketed(index, damping):
    mrf, _ = CASES[index]
    flat, old = layouts(mrf, mrf.edges, random_rho(np.random.default_rng(index), mrf))
    got, want = flat.unit_messages(), old.unit_messages()
    for _ in range(STEPS):
        new_got, new_want = flat.message_step(got, damping), old.message_step(want, damping)
        assert _Change(got).since(new_got) == ref.bucketed_change(new_want, want)
        got, want = new_got, new_want
        assert_messages_equal(flat.message_set(got), old.message_set(want))
        pseudo = flat.pseudo_from_messages(got)
        assert_padding(flat, _flip(pseudo[1]), _flip(got[0]))
        assert_pseudo_equal(flat.pseudo(pseudo), old.pseudo(old.pseudo_from_messages(want)))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_reparameterization_kernel_matches_bucketed(index, damping):
    mrf, _ = CASES[index]
    flat, old = layouts(mrf, sorted(mrf.edges), random_rho(np.random.default_rng(index), mrf))
    got = flat.pseudo_from_messages(flat.unit_messages())
    want = old.pseudo_from_messages(old.unit_messages())
    assert_pseudo_equal(flat.pseudo(got), old.pseudo(want))
    for _ in range(STEPS):
        new_got = flat.reparameterization_step(got, damping)
        new_want = old.reparameterization_step(want, damping)
        assert (_Change(got, (None, flat.entries)).since(new_got)
                == ref.bucketed_change(new_want, want))
        got, want = new_got, new_want
        assert_padding(flat, _flip(got[1]))
        assert_pseudo_equal(flat.pseudo(got), old.pseudo(want))


RUNS = [(index, variant, trees) for index in range(len(CASES))
        for variant in ("messages", "reparam") for trees in (False, True)]


@pytest.mark.parametrize("index,variant,trees", RUNS)
def test_run_trw_matches_bucketed_run(index, variant, trees):
    mrf, dist = CASES[index]
    source = dist if trees else random_rho(np.random.default_rng(index), mrf)
    config = TrwConfig(max_iterations=STEPS)
    result = run_trw(mrf, source, config, variant=variant)
    nu, iterations, converged, bounds, messages = ref.run_bucketed(mrf, source, config, variant)
    assert (result.iterations, result.converged) == (iterations, converged)
    assert np.array_equal(result.bound_trace, bounds)
    assert len(bounds) == (iterations + 1 if trees else 0)
    assert_pseudo_equal(result.nu, nu)
    if variant == "messages":
        assert_messages_equal(result.messages, messages)
    else:
        assert result.messages is None and messages is None


def test_runs_cover_both_outcomes():
    outcomes = {run_trw(mrf, dist, TrwConfig(max_iterations=STEPS), variant=v).converged
                for mrf, dist in CASES for v in ("messages", "reparam")}
    assert outcomes == {True, False}
