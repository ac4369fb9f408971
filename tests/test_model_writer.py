"""The one-join `save_model` against the writer it replaced
(`model_reference.save_model`: nested lists through `json.dumps(doc,
indent=1)`): the same bytes on the packed-model corpora, both
benchmark-shaped pools, edgeless models, cardinality-1 nodes, mixed
cardinalities and the float values whose text is easiest to get wrong.
Every model document under `tests/data` is rewritten byte for byte, and a
saved model loads back to the same packed vectors, sign bits included."""

import sys
from pathlib import Path

import numpy as np
import pytest

from trwmap import PairwiseMrf, load_model, save_model

import model_reference as ref
from conftest import random_graph_mrf
from test_packed_model import DOCUMENTS

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import (LARGE_GAMMA, LARGE_SIDES, LARGE_STATES, LP_POOL,  # noqa: E402
                                 LP_SIDE, _rng, mixed_cardinality_grid, potts_grid)

SOLVE_DATA = Path(__file__).parent / "data" / "solve"
# every model document there (the others are `cases.json` and tree files)
MODEL_FILES = ["cycle4.json", "k5path_wrong_certificate.json", "mixed3x4.json", "mixed5x5.json",
               "mixed5x5frac.json", "mixed6x6.json", "potts5x5.json"]

# texts json writes in different forms: signed zero, the smallest subnormal,
# exponents on both sides of repr's switch to scientific notation, whole numbers
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1e-4, 1e-5, 1e15, 1e22,
           2.5e-7, 1e-300, 1.7976931348623157e308, 123456789.0, -3.0, 0.1, 1 / 3]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == float and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_writes_like_json(mrf):
    data = save_model(mrf)
    assert data == ref.save_model(mrf)
    again = load_model(data)
    assert again.cardinalities == mrf.cardinalities and again.edges == mrf.edges
    assert_same_bits(again.node_vector, mrf.node_vector)
    assert_same_bits(again.edge_vector, mrf.edge_vector)


def special_model(rng, cards, edges):
    """A model on the graph whose entries are drawn from `SPECIAL`."""
    node = tuple(rng.choice(SPECIAL, size=m) for m in cards)
    edge = {(s, t): rng.choice(SPECIAL, size=(cards[s], cards[t])) for s, t in edges}
    return PairwiseMrf(cards, edges, node, edge)


@pytest.mark.parametrize("k", range(len(DOCUMENTS)))
def test_packed_model_documents(k):
    assert_writes_like_json(load_model(DOCUMENTS[k]))


@pytest.mark.parametrize("side", LARGE_SIDES)
def test_grid_large_msg_pool(side):
    assert_writes_like_json(potts_grid(side, LARGE_STATES, LARGE_GAMMA, _rng(1, 1, side)))


@pytest.mark.parametrize("i", range(LP_POOL))
def test_lp_mixed_card_pool(i):
    assert_writes_like_json(mixed_cardinality_grid(LP_SIDE, _rng(1, 2, i)))


@pytest.mark.parametrize("cards", [(1,), (3,), (2, 1, 4), (1, 1, 1, 1)])
def test_edgeless_models(cards):
    assert_writes_like_json(special_model(np.random.default_rng(len(cards)), cards, ()))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("card_choices", [(1,), (1, 2), (2, 3, 4), (3,), (1, 5)])
def test_random_graphs(seed, card_choices):
    rng = np.random.default_rng(seed)
    mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(1, 9)), card_choices=card_choices,
                           scale=10.0 ** rng.integers(-8, 9))
    assert_writes_like_json(mrf)
    assert_writes_like_json(special_model(rng, mrf.cardinalities, mrf.edges))


@pytest.mark.parametrize("value", SPECIAL)
def test_each_special_value_in_every_position(value):
    cards, edges = (1, 2, 3), ((0, 1), (0, 2), (1, 2))
    node = tuple(np.full(m, value) for m in cards)
    edge = {(s, t): np.full((cards[s], cards[t]), value) for s, t in edges}
    assert_writes_like_json(PairwiseMrf(cards, edges, node, edge))


@pytest.mark.parametrize("name", MODEL_FILES)
def test_model_documents_round_trip_byte_for_byte(name):
    data = (SOLVE_DATA / name).read_bytes()
    assert save_model(load_model(data)) == data
