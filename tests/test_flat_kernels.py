"""The bucketed array kernels reproduce the per-edge dict kernels bit for bit."""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

import trw_reference as ref
from trwmap import (MessageSet, PairwiseMrf, TrwConfig, cli, find_certificate,
                    init_pseudo, message_step, messages_to_pseudo,
                    reparameterization_step, run_trw, uniform_rho, unit_messages)
from trwmap.trees import grid_edges

from conftest import random_graph_mrf

DATA = Path(__file__).parent / "data"


def mixed_grid(rng, rows, cols):
    n = rows * cols
    cards = tuple(int(m) for m in rng.integers(2, 5, n))
    edges = tuple(grid_edges(rows, cols))
    return PairwiseMrf(cards, edges, tuple(rng.normal(size=m) for m in cards),
                       {(s, t): rng.normal(size=(cards[s], cards[t])) for s, t in edges})


def shuffled_edges(rng):
    mrf = random_graph_mrf(rng, n_nodes=7, extra_edge_prob=0.6)
    edges = tuple(mrf.edges[i] for i in rng.permutation(len(mrf.edges)))
    assert edges != tuple(sorted(edges))
    return PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)


def models():
    out = []
    for seed in range(6):
        out.append(random_graph_mrf(np.random.default_rng(9100 + seed)))
    out.append(mixed_grid(np.random.default_rng(9200), 5, 5))
    out.append(mixed_grid(np.random.default_rng(9201), 3, 4))
    out.append(shuffled_edges(np.random.default_rng(9300)))
    return out


def random_rho(rng, mrf):
    return {e: float(rng.uniform(0.2, 1.0)) for e in mrf.edges}


def random_messages(rng, mrf):
    logs = {}
    for s, t in mrf.edges:
        logs[(t, s)] = rng.normal(size=mrf.cardinalities[s])
        logs[(s, t)] = rng.normal(size=mrf.cardinalities[t])
    return MessageSet(logs)


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def assert_pseudo_equal(got, want):
    assert len(got.log_node) == len(want.log_node)
    for a, b in zip(got.log_node, want.log_node):
        assert np.array_equal(a, b)
    assert_tables_equal(got.log_edge, want.log_edge)


MODELS = models()


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(MODELS)))
def test_message_step_matches_reference(index, damping):
    mrf = MODELS[index]
    rng = np.random.default_rng(index)
    rho = random_rho(rng, mrf)
    for start in (unit_messages(mrf), random_messages(rng, mrf)):
        got, want = start, start
        for _ in range(6):
            got = message_step(got, mrf, rho, damping)
            want = ref.message_step(want, mrf, rho, damping)
            assert_tables_equal(got.log_m, want.log_m)
            assert_pseudo_equal(messages_to_pseudo(got, mrf, rho),
                                ref.messages_to_pseudo(want, mrf, rho))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(MODELS)))
def test_reparameterization_step_matches_reference(index, damping):
    mrf = MODELS[index]
    rho = random_rho(np.random.default_rng(index), mrf)
    got = init_pseudo(mrf, rho)
    want = ref.init_pseudo(mrf, rho)
    assert_pseudo_equal(got, want)
    for _ in range(6):
        got = reparameterization_step(got, rho, damping)
        want = ref.reparameterization_step(want, rho, damping)
        assert_pseudo_equal(got, want)


def test_unit_messages_match_reference():
    for mrf in MODELS:
        assert_tables_equal(unit_messages(mrf).log_m, ref.unit_messages(mrf).log_m)


@pytest.mark.parametrize("variant", ["messages", "reparam"])
def test_run_trw_matches_reference_loop(variant):
    for index, mrf in enumerate(MODELS):
        rho = uniform_rho(mrf) if index % 2 else random_rho(np.random.default_rng(index), mrf)
        config = TrwConfig(max_iterations=60)
        result = run_trw(mrf, rho, config, variant=variant)
        nu, msgs, iterations, converged = ref.run(mrf, rho, config.damping, config.tol,
                                                  config.max_iterations, variant)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert_pseudo_equal(result.nu, nu)
        if variant == "messages":
            assert_tables_equal(result.messages.log_m, msgs.log_m)
        else:
            assert result.messages is None


def test_certificate_search_on_1600_nodes_within_recursion_limit():
    # a 40x40 grid of strongly attractive binary couplings with a unique
    # maximizer per node: the search descends once per node
    rows = cols = 40
    n = rows * cols
    rng = np.random.default_rng(5)
    edges = tuple(grid_edges(rows, cols))
    mrf = PairwiseMrf((2,) * n, edges, tuple(rng.normal(size=2) for _ in range(n)),
                      {e: np.array([[1.0, -1.0], [-1.0, 1.0]]) for e in edges})
    assert n > sys.getrecursionlimit()
    result = run_trw(mrf, None, TrwConfig(max_iterations=200), variant="messages")
    cert = find_certificate(result.nu, mrf)
    assert cert.assignment is not None
    assert np.array_equal(cert.assignment, result.certificate)
    for (s, t) in mrf.edges:
        m = result.nu.log_edge[(s, t)]
        assert m[cert.assignment[s], cert.assignment[t]] >= m.max() - 1e-9


def test_experiment_csv_is_byte_identical_to_golden():
    out = io.StringIO()
    code = cli.main(["experiment", "--rows", "4", "--cols", "4", "--regime", "mixed",
                     "--trials", "3", "--max-iters", "100", "--seed", "7",
                     "--verify-oracle"], out=out)
    assert code == 0
    assert out.getvalue().encode("utf-8") == (DATA / "experiment_mixed_4x4_seed7.csv").read_bytes()
