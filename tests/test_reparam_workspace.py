"""The reparameterization step on a run's workspace against the per-call step
it replaced (`per_call_reference`), the stop rule that reads one gathered
vector per iterate, and which buffers a step may overwrite.

Every state of the workspace step is `np.array_equal` to the per-call
step's with the same sign bits, zeros included.  The models are those of
`test_edge_last_kernels` plus models with one to three edges: a step reads
its maxima by reducing over the outer axis of a stack, which numpy folds
slab by slab as `_top` does, while a reduce over another axis of a
one-edge stack would be a reduction over a contiguous axis, whose order
numpy's SIMD dispatch chooses.  The signed-zero tests read the maxima and
the normalization's table maxima themselves, since a step's last adds turn
most zeros into +0.0.
"""

import numpy as np
import pytest

from conftest import random_graph_mrf
from edge_major_reference import EdgeMajorFlatMrf
from per_call_reference import PerCallFlatMrf, max_change
from test_batch_layouts import assert_same_bits, assert_same_result
from test_edge_last_kernels import KERNEL_MODELS, STEPS, signed_zeros
from test_edge_last_kernels import edge_major_run_trw  # noqa: F401 (a fixture)
from test_padded_kernels import random_rho
from trwmap import (PairwiseMrf, PseudoMaxMarginals, TrwConfig, reparameterization_step,
                    run_trw, trw, uniform_rho)
from trwmap.treedp import _graph_layout, _top
from trwmap.trw import _Change, _flip, _FlatMrf, _iterate, _normalize_last, _ReparamWorkspace


def few_edge_models():
    """Models with one to three edges, 1 to 6 states per node."""
    rng = np.random.default_rng(29_000)
    out = []
    for cards, edges in (((3, 4), ((0, 1),)), ((4, 4), ((0, 1),)), ((6, 5), ((0, 1),)),
                         ((2, 5), ((0, 1),)), ((1, 3), ((0, 1),)), ((1, 1), ((0, 1),)),
                         ((3, 4, 5), ((0, 1), (1, 2))), ((5, 2, 4), ((0, 2), (1, 2), (0, 1)))):
        out.append(PairwiseMrf(cards, edges, tuple(rng.normal(size=m) for m in cards),
                               {(s, t): rng.normal(size=(cards[s], cards[t]))
                                for s, t in edges}))
    return out


FEW_EDGES = few_edge_models()
STEP_MODELS = KERNEL_MODELS + FEW_EDGES


def flats(mrf, rho):
    layout = _graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges)))
    return _FlatMrf(layout, rho, mrf), PerCallFlatMrf(layout, rho, mrf)


def assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a, b)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(STEP_MODELS)))
def test_workspace_step_equals_per_call(index, damping):
    mrf = STEP_MODELS[index]
    flat, old = flats(mrf, random_rho(np.random.default_rng(index), mrf))
    got = want = flat.pseudo_from_messages(flat.unit_messages())
    valid = (None, flat.entries)
    for _ in range(STEPS):
        new_got = flat.reparameterization_step(got, damping)
        new_want = old.reparameterization_step(want, damping)
        assert _Change(got, valid).since(new_got) == max_change(new_want, want, valid)
        got, want = new_got, new_want
        assert_same_states(got, want)
    assert any(got is state for state in flat._reparam.states)


def signed_zero_state(rng, layout):
    """A node vector of signed zeros and a table stack of signed zeros and
    -1s, -inf on the padded entries, edge axis last."""
    pad = layout.pad[:, 0, :, None] | layout.pad[:, 1, None, :]
    tables = signed_zeros(rng, pad.shape)
    tables[rng.random(pad.shape) < 0.3] = -1.0
    tables[pad] = -np.inf
    return signed_zeros(rng, layout.size), _flip(tables)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(STEP_MODELS)))
def test_workspace_step_equals_per_call_on_signed_zeros(index, damping):
    mrf = STEP_MODELS[index]
    rng = np.random.default_rng(29_100 + index)
    flat, old = flats(mrf, random_rho(rng, mrf))
    got = want = signed_zero_state(rng, flat.layout)
    for _ in range(4):
        got = flat.reparameterization_step(got, damping)
        want = old.reparameterization_step(want, damping)
        assert_same_states(got, want)


@pytest.mark.parametrize("index", range(len(STEP_MODELS)))
def test_maxima_equal_top_on_signed_zeros(index):
    # the row and column maxima a step reads and the table maxima of its
    # normalization, against `_top` on the (M, M, 2, E) copy and
    # `_normalize_last`, bit for bit: their signs show the fold order
    mrf = STEP_MODELS[index]
    rng = np.random.default_rng(29_200 + index)
    layout = _graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges)))
    flat = _FlatMrf(layout, uniform_rho(mrf))
    signs = set()
    for _ in range(20):
        node, tables = signed_zero_state(rng, layout)
        flat.reparameterization_step((node, tables), 1.0)
        both = np.stack((tables, tables.transpose(1, 0, 2)), axis=2)
        want = _top(both, 0)
        want.put(layout.pad_last, 0.0)
        assert_same_bits(flat._reparam.marg, want)
        maxima = want.take(layout.sides_last)
        signs.update(np.signbit(maxima[maxima == 0]).tolist())
        got, want = tables.copy(), tables.copy()
        flat._reparam.center_tables(got)
        assert_same_bits(got, _normalize_last(want))
    assert signs == {False, True}


@pytest.mark.parametrize("cards, edges", [(m, e) for m in range(1, 7) for e in (1, 2, 3, 40)])
def test_center_tables_equals_normalize_last_on_signed_zeros(cards, edges):
    # a star of `edges` edges, `cards` states per node
    layout = _graph_layout((cards,) * (edges + 1), tuple((0, k) for k in range(1, edges + 1)))
    work = _ReparamWorkspace(layout)
    rng = np.random.default_rng(29_300 + 7 * cards + edges)
    for _ in range(20):
        tables = signed_zeros(rng, (cards, cards, edges))
        tables[rng.random(tables.shape) < 0.4] = -1.0
        got, want = tables.copy(), tables.copy()
        work.center_tables(got)
        assert_same_bits(got, _normalize_last(want))


@pytest.fixture
def per_call_run_trw(monkeypatch):
    """`run_trw` on the per-call reparameterization step."""
    def run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(trw, "_FlatMrf", PerCallFlatMrf)
            return run_trw(*args, **kwargs)
    return run


@pytest.mark.parametrize("index", range(len(STEP_MODELS)))
def test_runs_equal_per_call(index, per_call_run_trw):
    mrf = STEP_MODELS[index]
    rho = random_rho(np.random.default_rng(29_400 + index), mrf)
    config = TrwConfig(max_iterations=300)
    assert_same_result(run_trw(mrf, rho, config, variant="reparam"),
                       per_call_run_trw(mrf, rho, config, variant="reparam"))


# --- the stop rule at its boundary ------------------------------------------

CONVERGING = random_graph_mrf(np.random.default_rng(9101))


def oracle_deltas(mrf, variant, damping, count):
    """The changes of the first `count` iterates of the edge-major oracle's
    run, by the per-array measure."""
    rho = uniform_rho(mrf)
    if variant == "reparam":
        flat = EdgeMajorFlatMrf(_graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges))),
                                rho, mrf)
        state, step = flat.pseudo_from_messages(flat.unit_messages()), flat.reparameterization_step
        valid = (None, flat.entries)
    else:
        flat = EdgeMajorFlatMrf(_graph_layout(mrf.cardinalities, mrf.edges), rho, mrf)
        state, step, valid = flat.unit_messages(), flat.message_step, None
    deltas = []
    for _ in range(count):
        new = step(state, damping)
        deltas.append(max_change(new, state, valid))
        state = new
    return deltas


def expected_stop(deltas, tol):
    """(iterations, converged) of a run whose changes are `deltas`, capped
    at their number."""
    for k, d in enumerate(deltas, 1):
        if d < tol:
            return k, True
    return len(deltas), False


@pytest.mark.parametrize("variant", ["reparam", "messages"])
def test_stop_rule_at_its_boundary(variant, edge_major_run_trw):  # noqa: F811
    default = TrwConfig()
    deltas = oracle_deltas(CONVERGING, variant, default.damping, 200)
    converged, _ = expected_stop(deltas, default.tol)
    deltas = deltas[:converged + 5]
    # every iterate whose change is a new low stops a run at exactly that
    # iterate when the tolerance lies just above its change, and not when
    # it equals it: the first iterate (compared with the start state), the
    # next ones (the first swaps of the two workspace states) and the last
    lows = [k for k in range(1, len(deltas) + 1)
            if deltas[k - 1] < min(deltas[:k - 1], default=np.inf)]
    assert lows[:3] == [1, 2, 3] and lows[-1] >= converged
    for k in sorted(set(lows[:4] + lows[len(lows) // 2:len(lows) // 2 + 2] + lows[-2:])):
        for tol in (deltas[k - 1], np.nextafter(deltas[k - 1], np.inf)):
            config = TrwConfig(tol=float(tol), max_iterations=len(deltas))
            got = run_trw(CONVERGING, None, config, variant=variant)
            iterations, stopped = expected_stop(deltas, tol)
            assert (got.iterations, got.converged) == (iterations, stopped), (k, tol)
            assert got.terminated_by == ("converged" if stopped else "max_iterations")
            assert (got.converged and got.iterations == k) == (tol > deltas[k - 1])
            assert_same_result(got, edge_major_run_trw(CONVERGING, None, config, variant=variant))


# --- which buffers a step may overwrite -------------------------------------

@pytest.mark.parametrize("damping", [1.0, 0.5])
def test_a_step_keeps_the_state_it_reads_and_the_one_it_returns(damping):
    # the iterate a step reads and the one it returns stay unchanged until
    # `_iterate` has compared them and `observe` has seen the new one
    mrf = STEP_MODELS[0]
    flat = _FlatMrf(_graph_layout(mrf.cardinalities, tuple(sorted(mrf.edges))), uniform_rho(mrf),
                    mrf)
    start = flat.pseudo_from_messages(flat.unit_messages())
    kept = []  # (state, a copy made when it was handed out)

    def step(state, damping):
        new = flat.reparameterization_step(state, damping)
        kept.append((new, tuple(a.copy() for a in new)))
        return new

    def observe(state):
        for handed, copy in kept[-2:]:
            assert_same_states(handed, copy)
        assert not kept or state is kept[-1][0]

    kept.append((start, tuple(a.copy() for a in start)))
    _, iterations, _ = _iterate(step, start, TrwConfig(damping=damping, tol=1e-300,
                                                       max_iterations=20),
                                observe, (None, flat.entries))
    assert len(kept) == iterations + 1 >= 4
    # the start state is never written; the workspace states take turns
    assert_same_states(*kept[0])
    assert all(s is flat._reparam.states[k % 2] for k, (s, _) in enumerate(kept[1:]))


def test_public_step_result_survives_the_next_call():
    mrf = STEP_MODELS[1]
    rho = uniform_rho(mrf)
    nu = run_trw(mrf, rho, TrwConfig(max_iterations=3), variant="reparam").nu
    first = reparameterization_step(nu, rho, damping=0.5)
    copy = (first.node.copy(), first.tables.copy())
    again = reparameterization_step(first, rho, damping=0.5)
    reparameterization_step(nu, rho, damping=0.5)
    assert_same_states((first.node, first.tables), copy)
    assert not np.array_equal(again.tables, first.tables)
    assert isinstance(first, PseudoMaxMarginals)


@pytest.mark.parametrize("variant", ["reparam", "messages"])
def test_a_run_keeps_its_result_after_the_next_run_on_the_graph(variant):
    mrf = STEP_MODELS[2]
    first = run_trw(mrf, None, TrwConfig(max_iterations=50), variant=variant)
    copy = (first.nu.node.copy(), first.nu.tables.copy())
    other = PairwiseMrf(mrf.cardinalities, mrf.edges,
                        tuple(-np.asarray(t) for t in mrf.theta_node),
                        {e: -np.asarray(t) for e, t in mrf.theta_edge.items()})
    run_trw(other, None, TrwConfig(max_iterations=50), variant=variant)
    run_trw(mrf, None, TrwConfig(max_iterations=50), variant=variant)
    assert_same_states((first.nu.node, first.nu.tables), copy)
