"""The packed model against the per-table loader it replaced
(`tests/model_reference.py`): the same tables, in the same order, from
`load_model` and from the constructor; the same error text on malformed
documents; and the same `score` float.  `load_model` runs with the cyclic
garbage collector paused and leaves it as it found it."""

import gc
import json

import numpy as np
import pytest

from trwmap import ModelFormatError, PairwiseMrf, load_model, save_model, score

import model_reference as ref
from conftest import potts_grid_mrf, random_graph_mrf


def assert_same_model(got, want):
    assert got.cardinalities == want.cardinalities
    assert got.edges == want.edges
    assert len(got.theta_node) == len(want.theta_node)
    for a, b in zip(got.theta_node, want.theta_node):
        assert a.dtype == b.dtype == float and np.array_equal(a, b)
        assert not a.flags.writeable
    assert list(got.theta_edge) == list(want.theta_edge)
    for e, b in want.theta_edge.items():
        a = got.theta_edge[e]
        assert a.dtype == float and a.shape == b.shape and np.array_equal(a, b)
        assert not a.flags.writeable
    # the packed vectors hold the tables in LP order and are views' bases
    assert np.array_equal(got.node_vector, np.concatenate(want.theta_node))
    assert np.array_equal(got.edge_vector,
                          np.concatenate([[], *(want.theta_edge[e].ravel() for e in want.edges)]))
    assert not got.node_vector.flags.writeable and not got.edge_vector.flags.writeable
    for a in (*got.theta_node, *got.theta_edge.values()):
        assert np.shares_memory(a, got.node_vector) or np.shares_memory(a, got.edge_vector)


def documents():
    """Valid documents: mixed and single cardinalities, edges out of order,
    integer entries, a one-node model and two large grids."""
    docs = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(2, 9)),
                               card_choices=((2, 3, 4), (3,), (1, 2))[seed % 3])
        doc = json.loads(save_model(mrf))
        order = rng.permutation(len(doc["edges"]))
        doc["edges"] = [doc["edges"][i] for i in order]
        doc["theta_edge"] = [doc["theta_edge"][i] for i in order]
        if seed % 4 == 0:
            doc["theta_node"] = [[int(round(v)) for v in t] for t in doc["theta_node"]]
            doc["theta_edge"] = [[[int(round(v)) for v in row] for row in t]
                                 for t in doc["theta_edge"]]
        docs.append(json.dumps(doc))
    docs.append('{"nodes": [3], "edges": [], "theta_node": [[0.5, -1, 2]], "theta_edge": []}')
    docs.append(save_model(potts_grid_mrf(12, 3, 0.5, np.random.default_rng(1))))
    docs.append(GRID32)
    return docs


# the size of the largest benchmark grid: about 11K JSON lists
GRID32 = save_model(potts_grid_mrf(32, 3, 0.5, np.random.default_rng(32)))
DOCUMENTS = documents()


@pytest.mark.parametrize("k", range(len(DOCUMENTS)))
def test_load_model_matches_per_table_loader(k):
    assert_same_model(load_model(DOCUMENTS[k]), ref.load_model(DOCUMENTS[k]))


@pytest.mark.parametrize("k", range(len(DOCUMENTS)))
def test_constructor_matches_per_table_constructor(k):
    mrf = ref.load_model(DOCUMENTS[k])
    lists = (mrf.cardinalities, list(mrf.edges), [v.tolist() for v in mrf.theta_node],
             {e: m.tolist() for e, m in mrf.theta_edge.items()})
    for args in ((mrf.cardinalities, mrf.edges, mrf.theta_node, mrf.theta_edge), lists):
        assert_same_model(PairwiseMrf(*args), ref.PairwiseMrf(*args))


TRIANGLE = {"nodes": [2, 2, 2], "edges": [[0, 1], [0, 2], [1, 2]],
            "theta_node": [[0.0, 0.0]] * 3,
            "theta_edge": [[[0.0, -1.0], [-1.0, 0.0]]] * 3}

MALFORMED = [
    # the documents of test_model.py and test_cli.py
    b'{"nodes": [2, 2], "edges": [[0, 0]], "theta_node": [[0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}',
    b'{"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [[0, 0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}',
    b'{"nodes": [2, 2], "edges": [[0, 5]], "theta_node": [[0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}',
    b'{"nodes": [2]}',
    b"not json at all",
    (b'{"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [[0, 0], [0, 0]],'
     b' "theta_edge": [[[0, Infinity], [0, NaN]]]}'),
    b"{}",
    json.dumps({**TRIANGLE, "edges": 5}),
    json.dumps({**TRIANGLE, "theta_node": 5}),
    json.dumps({**TRIANGLE, "theta_edge": 7}),
    # one defect each, one per check of the graph, the counts and the shapes
    json.dumps([1, 2]),
    json.dumps({**TRIANGLE, "nodes": [2, 0, 2]}),
    json.dumps({**TRIANGLE, "nodes": "222"}),
    json.dumps({**TRIANGLE, "nodes": [], "theta_node": [], "edges": [], "theta_edge": []}),
    json.dumps({**TRIANGLE, "edges": [[0, 1], [2, 0], [1, 2]]}),
    json.dumps({**TRIANGLE, "edges": [[0, 1], [0, 1], [1, 2]]}),
    json.dumps({**TRIANGLE, "edges": [[0, 1], [0, 2], [1]]}),
    json.dumps({**TRIANGLE, "edges": [[0, 1], [0, 2], [1, 2.0]]}),
    json.dumps({**TRIANGLE, "edges": [[0, 1], [1, 1], [1, 7]]}),
    json.dumps({**TRIANGLE, "theta_node": [[0.0, 0.0]] * 2}),
    json.dumps({**TRIANGLE, "theta_edge": [[[0.0, 1.0], [1.0, 0.0]]] * 2}),
    json.dumps({**TRIANGLE, "theta_edge": [[[0.0, 1.0], [1.0, 0.0]]] * 2 + [[[0.0, 1.0]]]}),
    json.dumps({**TRIANGLE, "theta_node": [[0.0, 0.0], [0.0, 1e400], [0.0, 0.0]]}),
    # shapes the array check must name as the per-table check did: a table
    # without rows (numpy's shape (0,)) after a valid one, a transposed
    # table and an empty node table
    json.dumps({**TRIANGLE, "theta_edge": [[[0.0, 1.0], [1.0, 0.0]], [], [[0.0, 1.0], [1.0, 0.0]]]}),
    json.dumps({"nodes": [2, 3], "edges": [[0, 1]], "theta_node": [[0, 0], [0, 0, 0]],
                "theta_edge": [[[0, 1], [2, 3], [4, 5]]]}),
    json.dumps({**TRIANGLE, "theta_node": [[0.0, 0.0], [], [0.0, 0.0]]}),
]


@pytest.mark.parametrize("k", range(len(MALFORMED)))
def test_malformed_documents_raise_the_same_error(k):
    doc = MALFORMED[k]
    with pytest.raises(ModelFormatError) as want:
        ref.load_model(doc)
    with pytest.raises(ModelFormatError) as got:
        load_model(doc)
    assert str(got.value) == str(want.value)


@pytest.fixture
def collector():
    """Restores the collector's setting after a test that changes it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("k", range(1 + len(MALFORMED)))
def test_load_model_leaves_the_collector_as_it_found_it(collector, enabled, k):
    (gc.enable if enabled else gc.disable)()
    try:
        load_model([GRID32, *MALFORMED][k])
    except ModelFormatError:
        pass
    assert gc.isenabled() is enabled


def test_a_large_document_loads_without_a_collector_pass(collector):
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        json.loads(GRID32)
        parsed = len(passes)
        load_model(GRID32)
    finally:
        gc.callbacks.remove(count)
    assert parsed > 0  # the parse alone sets some off, so the count can see them
    assert len(passes) == parsed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad_nodes, bad_edges", [
    ((2,), ()), ((), ((0, 3),)), ((3, 1), ()), ((3,), ((0, 1),)),
    ((), ((0, 1), (2, 3), (0, 3))),
])
def test_constructor_names_the_same_non_finite_table(value, bad_nodes, bad_edges):
    cards = (2, 3, 2, 3)
    edges = ((1, 2), (2, 3), (0, 1), (0, 3))
    node = [np.zeros(m) for m in cards]
    edge = {(s, t): np.zeros((cards[s], cards[t])) for s, t in edges}
    for s in bad_nodes:
        node[s][-1] = value
    for e in bad_edges:
        edge[e][0, -1] = value
    errors = []
    for cls in (PairwiseMrf, ref.PairwiseMrf):
        with pytest.raises(ModelFormatError) as info:
            cls(cards, edges, tuple(node), edge)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("seed", range(10))
def test_score_matches_loop(seed):
    rng = np.random.default_rng(seed)
    mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(2, 12)), card_choices=(2, 3, 4),
                           scale=10.0 ** rng.integers(-3, 4))
    for _ in range(20):
        x = np.array([rng.integers(m) for m in mrf.cardinalities])
        assert score(mrf, x) == ref.score(mrf, x)
        assert score(mrf, x.tolist()) == ref.score(mrf, x)


def test_score_of_negative_zeros_is_positive_zero():
    # 0.0 + -0.0 is 0.0, so the loop's sum of -0.0 entries prints as 0.0
    mrf = PairwiseMrf((2, 2), ((0, 1),), (np.array([-0.0, 1.0]), np.array([-0.0, 1.0])),
                      {(0, 1): np.array([[-0.0, 1.0], [1.0, 1.0]])})
    assert repr(score(mrf, [0, 0])) == repr(ref.score(mrf, [0, 0])) == "0.0"
