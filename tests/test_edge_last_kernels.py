"""The edge-last run state of `trw._FlatMrf` against the edge-major kernels it
replaced, kept in `edge_major_reference`.

A synchronous run keeps its messages as one (M, 2, E) array and its tables
as one (M_t, M_s, E) stack, the layout's arrays with their axes reversed,
and flips them once at its start and once at its end.  In between, every
step must perform the same floating-point operations on every entry in the
same order as the edge-major kernels, so every state, flipped back, is
`np.array_equal` to the oracle's with the same sign bits, zeros included,
and every `TrwResult` field is equal.  The models are those of
`test_flat_kernels` and `test_padded_kernels` (padded mixed cardinalities,
unsorted edges, a 6-state node), the seed-1 `lp_mixed_card` benchmark pool,
and tables, node vectors and messages of signed zeros only, where every max
is a tie of zeros and its sign shows which operand each np.maximum
returned.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from edge_major_reference import EdgeMajorFlatMrf, _normalized as normalized
from test_batch_layouts import assert_same_bits, assert_same_result
from test_flat_kernels import MODELS
from test_padded_kernels import CASES, random_rho
from trwmap import TrwConfig, run_trw, trw
from trwmap.treedp import _graph_layout
from trwmap.trw import _Change, _flip, _FlatMrf, _normalize_last

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import LP_EDGE_MAX_ITERS, LP_POOL, LP_SIDE, _rng  # noqa: E402
from perfbench.workloads import mixed_cardinality_grid  # noqa: E402

KERNEL_MODELS = MODELS + [mrf for mrf, _ in CASES]
STEPS = 100


def flats(mrf, edges, rho):
    layout = _graph_layout(mrf.cardinalities, tuple(edges))
    return _FlatMrf(layout, rho, mrf), EdgeMajorFlatMrf(layout, rho, mrf)


def assert_same_state(got, want):
    """An edge-last state, flipped back, and an edge-major one: the node
    vector as it is, every other array with its axes reversed."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a if a.ndim == 1 else _flip(a), b)


def test_flip_positions_name_the_same_entries():
    for mrf in KERNEL_MODELS:
        layout = _graph_layout(mrf.cardinalities, mrf.edges)
        for shape, at, last in ((layout.idx.shape, layout.sides, layout.sides_last),
                                (layout.idx.shape, layout.pad_at, layout.pad_last),
                                ((len(layout.edges),) + layout.pad.shape[2:] * 2,
                                 layout.entries, layout.entries_last)):
            a = np.random.default_rng(0).random(shape)
            assert np.array_equal(_flip(a).take(last), a.take(at))
        assert np.array_equal(layout.idx_last, _flip(layout.idx))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(KERNEL_MODELS)))
def test_message_step_equals_edge_major(index, damping):
    mrf = KERNEL_MODELS[index]
    flat, old = flats(mrf, mrf.edges, random_rho(np.random.default_rng(index), mrf))
    got, want = flat.unit_messages(), old.unit_messages()
    assert_same_state(got, want)
    for _ in range(STEPS):
        new_got, new_want = flat.message_step(got, damping), old.message_step(want, damping)
        assert _Change(got).since(new_got) == _Change(want).since(new_want)
        got, want = new_got, new_want
        assert_same_state(got, want)
        (h, cav), (old_h, old_cav) = flat._cavities(got[0]), old._cavities(want[0])
        assert_same_bits(h, old_h)
        assert_same_bits(_flip(cav), old_cav)
        assert_same_state(flat.pseudo_from_messages(got), old.pseudo_from_messages(want))
    assert_same_bits(flat.message_set(got)._msgs, old.message_set(want)._msgs)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(KERNEL_MODELS)))
def test_reparameterization_step_equals_edge_major(index, damping):
    mrf = KERNEL_MODELS[index]
    flat, old = flats(mrf, sorted(mrf.edges), random_rho(np.random.default_rng(index), mrf))
    got = flat.pseudo_from_messages(flat.unit_messages())
    want = old.pseudo_from_messages(old.unit_messages())
    assert_same_state(got, want)
    for _ in range(STEPS):
        new_got = flat.reparameterization_step(got, damping)
        new_want = old.reparameterization_step(want, damping)
        assert (_Change(got, (None, flat.entries)).since(new_got)
                == _Change(want, (None, old.entries)).since(new_want))
        got, want = new_got, new_want
        assert_same_state(got, want)
    assert_same_bits(flat.pseudo(got).tables, old.pseudo(want).tables)


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_message_step_equals_edge_major_on_signed_zeros(index, damping):
    mrf, _ = CASES[index]
    rng = np.random.default_rng(23_100 + index)
    flat, old = flats(mrf, mrf.edges, random_rho(rng, mrf))
    layout = flat.layout
    node = signed_zeros(rng, layout.size)
    table = signed_zeros(rng, old.table.shape)
    table[layout.pad[:, 0, :, None] | layout.pad[:, 1, None, :]] = -np.inf
    flat.theta_node, flat.table = node, _flip(table)
    old.theta_node, old.table = node, table
    msgs = signed_zeros(rng, layout.idx.shape)
    msgs[layout.pad] = 0.0
    got, want = (_flip(msgs),), (msgs,)
    for _ in range(4):
        got, want = flat.message_step(got, damping), old.message_step(want, damping)
        assert_same_state(got, want)
        assert_same_state(flat.pseudo_from_messages(got), old.pseudo_from_messages(want))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_reparameterization_step_equals_edge_major_on_signed_zeros(index, damping):
    # the step's last adds turn every zero into +0.0, so this guards the
    # padded entries; the next test sees the normalization's zeros
    mrf, _ = CASES[index]
    rng = np.random.default_rng(23_200 + index)
    flat, old = flats(mrf, sorted(mrf.edges), random_rho(rng, mrf))
    layout = flat.layout
    node = signed_zeros(rng, layout.size)
    tables = signed_zeros(rng, (len(layout.edges),) + layout.pad.shape[2:] * 2)
    tables[layout.pad[:, 0, :, None] | layout.pad[:, 1, None, :]] = -np.inf
    got, want = (node, _flip(tables)), (node, tables)
    for _ in range(4):
        got = flat.reparameterization_step(got, damping)
        want = old.reparameterization_step(want, damping)
        assert_same_state(got, want)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_table_normalization_equals_edge_major_on_signed_zeros(index):
    # a table of zeros and -1s keeps its -0.0 entries when its max is +0.0
    # and loses them when it is -0.0: the signs show which zero each max
    # returned, and the -1s where the last zero in each order lies
    mrf, _ = CASES[index]
    rng = np.random.default_rng(23_300 + index)
    layout = _graph_layout(mrf.cardinalities, mrf.edges)
    pad = layout.pad[:, 0, :, None] | layout.pad[:, 1, None, :]
    signs = set()
    for _ in range(20):
        tables = signed_zeros(rng, pad.shape)
        tables[rng.random(pad.shape) < 0.4] = -1.0
        tables[pad] = -np.inf
        want = normalized(tables)
        assert_same_bits(_flip(_normalize_last(_flip(tables))), want)
        signs.update(np.signbit(want.take(layout.entries)).tolist())
    assert signs == {False, True}


@pytest.fixture
def edge_major_run_trw(monkeypatch):
    """`run_trw` on the edge-major kernels."""
    def run(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(trw, "_FlatMrf", EdgeMajorFlatMrf)
            return run_trw(*args, **kwargs)
    return run


def test_lp_mixed_card_pool_runs_equal_edge_major(edge_major_run_trw):
    # the benchmark's seed-1 pool as `solve --method trw-edge` runs it, and
    # the message schedule on the same models
    config = TrwConfig(max_iterations=LP_EDGE_MAX_ITERS)
    outcomes = set()
    for i in range(LP_POOL):
        mrf = mixed_cardinality_grid(LP_SIDE, _rng(1, 2, i))
        for variant in ("reparam", "messages"):
            got = run_trw(mrf, None, config, variant=variant)
            assert_same_result(got, edge_major_run_trw(mrf, None, config, variant=variant))
            outcomes.add((variant, got.certificate is not None))
    # no run converges within the benchmark's cap; some certify
    assert outcomes == {(v, c) for v in ("reparam", "messages") for c in (True, False)}
