"""Phase 2 from a configuration's vertex: `lp.vertex_start` and
`simplex_solve(lp, start)`, the path of `solve --method lp`.

The start tableau, scattered from the graph's layout without building A,
must be `==` (sign bits included) to `lp_reference.vertex_start`, which
pivots the same basis into [A | I | b] with loop-form pivots, and to
`lp_reference.vertex_start_from_a`, which copies the kept rows of a built A;
the array simplex from it must be `==` to the loop form.  Its optimum may
be another optimal vertex than the two-phase path's, so values are compared
to 1e-9, and an integral answer must score its value (on grids,
`grid_map`'s).
"""

import io
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lp_reference
from conftest import random_graph_mrf
from test_simplex_reference import MIXED_GRIDS
from trwmap import (CapacityError, PairwiseMrf, build_local_lp, grid_edges, grid_map, load_model,
                    save_model, score, simplex_solve, vertex_start)
from trwmap import cli
from trwmap import lp as lp_module
from trwmap.cli import main
from trwmap.examples import triangle_mrf
from trwmap.treedp import grid_shape

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import (LP_POOL, LP_SIDE, _rng, mixed_cardinality_grid,  # noqa: E402
                                 potts_grid)

GOLDEN = Path(__file__).parent / "data" / "solve"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
K5PATH = GOLDEN / "k5path_wrong_certificate.json"


def pool(seed):
    """The `lp_mixed_card` benchmark pool of one seed."""
    return [mixed_cardinality_grid(LP_SIDE, _rng(seed, 2, i)) for i in range(LP_POOL)]


def small_models():
    rng = np.random.default_rng(20240817)
    yield from (random_graph_mrf(rng) for _ in range(12))
    yield from (mixed_cardinality_grid(side, np.random.default_rng(1000 * side + seed))
                for side, seed in MIXED_GRIDS)
    yield from (potts_grid(side, 3, 2.0, np.random.default_rng(50 + seed))
                for side in (2, 3, 4) for seed in range(2))
    edges = tuple(grid_edges(3, 3))
    cards = (2, 3, 2, 3, 2, 3, 2, 3, 2)
    yield PairwiseMrf(cards, edges, tuple(np.zeros(m) for m in cards),
                      {(s, t): np.zeros((cards[s], cards[t])) for s, t in edges})
    yield PairwiseMrf((3,), (), (np.array([0.3, 1.7, -0.2]),), {})
    yield PairwiseMrf((2, 3), (), (np.array([0.5, 0.5]), np.array([-1.0, 2.0, 2.0])), {})
    # cardinality-1 nodes at either end of an edge, and a tie at the argmax
    yield PairwiseMrf((1, 3, 1), ((0, 1), (1, 2)),
                      (np.zeros(1), np.array([0.0, 2.0, 2.0]), np.zeros(1)),
                      {(0, 1): np.array([[1.0, 0.0, 3.0]]), (1, 2): np.array([[1.0], [0.0], [5.0]])})
    yield triangle_mrf(1.0)
    yield triangle_mrf(-1.0)
    yield load_model(K5PATH.read_bytes())


SMALL = list(small_models())
POOLS = {seed: pool(seed) for seed in (1, 2, 3)}


def assert_same_start(mrf):
    """The layout-built start `==` both oracles, the sign of every zero too."""
    lp = build_local_lp(mrf)
    T, basis = vertex_start(mrf)
    for want_T, want_basis in (lp_reference.vertex_start_from_a(mrf, lp),
                               lp_reference.vertex_start(mrf, lp)):
        assert basis == want_basis
        got = T if want_T.shape == T.shape else T[:-1]
        assert np.array_equal(got, want_T)
        assert np.array_equal(np.signbit(got), np.signbit(want_T))


@pytest.mark.parametrize("seed", sorted(POOLS))
def test_layout_start_is_the_start_from_a_on_the_pool(seed):
    for mrf in POOLS[seed]:
        assert_same_start(mrf)


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_start_tableau_is_the_loop_pivoted_basis(k):
    mrf = SMALL[k]
    lp = build_local_lp(mrf)
    assert_same_start(mrf)
    T, basis = vertex_start(mrf)
    assert not T[-1].any()  # the objective row phase 2 fills in
    assert np.array_equal(T[:-1, basis], np.eye(len(basis)))
    # the right-hand side is phi(x), x each node's first argmax
    x = np.array([int(np.argmax(v)) for v in mrf.theta_node])
    phi, tau = np.zeros(lp.c.size), lp_module.delta_pseudomarginal(mrf, x)
    phi[basis] = T[:-1, -1]
    assert np.array_equal(phi, np.concatenate([tau.node_vector, tau.edge_vector]))
    # one row per node, per side state, less one per edge
    assert len(basis) == lp.A.shape[0] - len(mrf.edges)


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_phase_two_is_the_loop_form(k):
    mrf = SMALL[k]
    lp = build_local_lp(mrf)
    T, basis = vertex_start(mrf)
    want_T, want_basis = T[:-1].copy(), list(basis)
    want = lp_reference._simplex_core(want_T, want_basis, lp.c)
    assert lp_module._simplex_core(T, basis, lp.c) == want
    assert basis == want_basis
    assert np.array_equal(T[:-1], want_T)


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_solve_from_the_start_reads_its_tableau(k):
    mrf = SMALL[k]
    lp = build_local_lp(mrf)
    T, basis = start = vertex_start(mrf)
    res = simplex_solve(lp, start)  # pivots the start in place
    assert res.status == "optimal"
    assert np.array_equal(res.x[basis], T[:-1, -1])
    assert np.count_nonzero(res.x) <= len(basis)
    assert res.value == float(lp.c @ res.x)


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_value_is_the_two_phase_value(k):
    mrf = SMALL[k]
    lp = build_local_lp(mrf)
    got, want = simplex_solve(lp, vertex_start(mrf)), simplex_solve(lp)
    assert got.status == want.status == "optimal"
    assert abs(got.value - want.value) <= 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_pool_answers(tmp_path, seed):
    # every answer of `solve --method lp` on the pool: its value is the
    # two-phase path's, and an integral one scores it and is grid_map's
    for i, mrf in enumerate(POOLS[seed]):
        path = tmp_path / f"mixed{i}.json"
        path.write_bytes(save_model(mrf))
        out = io.StringIO()
        code = main(["solve", str(path), "--method", "lp"], out=out)
        fields = dict(line.split(": ") for line in out.getvalue().splitlines())
        value = float(fields["value"])
        assert abs(value - simplex_solve(build_local_lp(mrf)).value) <= 1e-9
        assert code == (0 if fields["vertex"] == "integral" else 2)
        if code == 0:
            assert abs(score(mrf, [int(v) for v in fields["assignment"]]) - value) <= 1e-9
            assert abs(grid_map(mrf, *grid_shape(mrf))[0] - value) <= 1e-9


def test_guard_names_the_size(monkeypatch):
    mrf = mixed_cardinality_grid(3, np.random.default_rng(5))
    rows, cols = build_local_lp(mrf).A.shape
    monkeypatch.setattr(lp_module, "LP_GUARD", rows * cols)
    build_local_lp(mrf)
    vertex_start(mrf)
    monkeypatch.setattr(lp_module, "LP_GUARD", rows * cols - 1)
    with pytest.raises(CapacityError, match=f"{rows} x {cols}"):
        build_local_lp(mrf)
    with pytest.raises(CapacityError, match=f"{rows} x {cols}"):
        vertex_start(mrf)


def test_guard_stops_a_24x24_grid():
    # 7200 x 11664 entries, 672 MB as a dense matrix
    mrf = potts_grid(24, 3, 0.5, np.random.default_rng(0))
    with pytest.raises(CapacityError, match="7200 x 11664"):
        build_local_lp(mrf)


def test_solve_past_the_guard_is_an_error(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_bytes(save_model(mixed_cardinality_grid(3, np.random.default_rng(5))))
    monkeypatch.setattr(lp_module, "LP_GUARD", 100)
    out = io.StringIO()
    assert main(["solve", str(path), "--method", "lp"], out=out) == 1
    assert out.getvalue().startswith("error: the local LP's ")


def test_start_guard_allocates_nothing_that_size():
    # the guard counts A's entries, 7200 x 11664, though the start never builds A
    mrf = potts_grid(24, 3, 0.5, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="7200 x 11664"):
            vertex_start(mrf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


LP_GOLDENS = sorted(k for k, case in GOLDEN_CASES.items() if case["argv"][2] == "lp")


def test_four_lp_goldens():
    assert len(LP_GOLDENS) == 4


@pytest.mark.parametrize("case", LP_GOLDENS)
def test_solve_builds_no_dense_matrix(monkeypatch, case):
    def no_a(mrf):
        raise AssertionError("solve --method lp built A")

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simplex_solve(*args, **kwargs)

    monkeypatch.setattr(lp_module, "build_local_lp", no_a)
    monkeypatch.setattr(cli, "simplex_solve", counted)
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in GOLDEN_CASES[case]["argv"]]
    out = io.StringIO()
    assert main(["solve", *argv], out=out) == GOLDEN_CASES[case]["code"]
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()
    assert len(calls) == 1
