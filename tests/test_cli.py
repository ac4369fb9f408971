import io
import json
from pathlib import Path

import numpy as np
import pytest

from trwmap import (PairwiseMrf, save_model, save_tree_distribution,
                    uniform_tree_distribution)
from trwmap.cli import ExperimentSpec, main, records_to_csv, run_experiment
from trwmap.examples import cycle4_mrf, diamond_mrf, triangle_mrf
from trwmap.treedp import _Layout

from conftest import random_graph_mrf


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def triangle_file(tmp_path):
    def write(beta):
        path = tmp_path / f"triangle_{beta}.json"
        path.write_bytes(save_model(triangle_mrf(beta)))
        return str(path)
    return write


class TestSolve:
    def test_lp_frustrated_is_fractional(self, triangle_file):
        code, out = run_cli(["solve", triangle_file(-1.0), "--method", "lp"])
        assert code == 2  # fractional vertex: no assignment recovered
        assert "value: 3.0" in out
        assert "vertex: fractional" in out

    def test_lp_agreeing_is_integral(self, triangle_file):
        code, out = run_cli(["solve", triangle_file(1.0), "--method", "lp"])
        assert code == 0
        assert "value: 0.0" in out
        assert "vertex: integral" in out

    def test_brute_force_lists_optima(self, triangle_file):
        code, out = run_cli(["solve", triangle_file(-1.0), "--method", "brute"])
        assert code == 0
        assert "value: 2.0" in out
        assert "optima: 6" in out

    def test_trw_msg_certificate_on_tree(self, tmp_path, rng):
        from conftest import random_tree_mrf
        mrf = random_tree_mrf(rng, n_nodes=6)
        path = tmp_path / "tree.json"
        path.write_bytes(save_model(mrf))
        code, out = run_cli(["solve", str(path), "--method", "trw-msg",
                             "--verify-oracle"])
        assert code == 0
        assert "oracle-match: true" in out

    def test_trw_tree_with_tree_file(self, tmp_path):
        mrf = diamond_mrf()
        mpath = tmp_path / "diamond.json"
        mpath.write_bytes(save_model(mrf))
        tpath = tmp_path / "trees.json"
        tpath.write_bytes(save_tree_distribution(uniform_tree_distribution(mrf)))
        code, out = run_cli(["solve", str(mpath), "--method", "trw-tree",
                             "--trees", str(tpath), "--verify-oracle"])
        assert code == 0
        assert "certificate: 1111" in out

    def test_trw_edge_variant_matches_trw_msg(self, triangle_file):
        code_e, out_e = run_cli(["solve", triangle_file(1.0), "--method", "trw-edge"])
        code_m, out_m = run_cli(["solve", triangle_file(1.0), "--method", "trw-msg"])
        assert code_e == 0 and code_m == 0
        assert "certificate: 000" in out_e
        assert "certificate: 000" in out_m

    def test_maxprod_on_diamond_yields_wrong_certificate(self, tmp_path):
        mpath = tmp_path / "diamond.json"
        mpath.write_bytes(save_model(diamond_mrf()))
        code, out = run_cli(["solve", str(mpath), "--method", "maxprod"])
        assert "certificate: 0000" in out

    def test_frustrated_triangle_indeterminate_exit(self, triangle_file):
        code, out = run_cli(["solve", triangle_file(-1.0), "--method", "trw-msg"])
        assert code == 2
        assert "certificate: none" in out

    def test_missing_file_is_error(self):
        code, out = run_cli(["solve", "/nonexistent.json", "--method", "brute"])
        assert code == 1
        assert "error" in out

    def test_bad_document_is_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        code, out = run_cli(["solve", str(p), "--method", "brute"])
        assert code == 1

    @pytest.mark.parametrize("method, content", [
        ("trw-msg", None), ("trw-msg", "not json"), ("trw-msg", '{"rho_e": {"0,1": 0.5}}'),
        ("lp", None), ("lp", "not json"),
    ])
    def test_missing_or_invalid_trees_file_is_error(self, triangle_file, tmp_path, method,
                                                    content):
        tpath = tmp_path / "trees.json"
        if content is not None:
            tpath.write_text(content)
        code, out = run_cli(["solve", triangle_file(1.0), "--method", method,
                             "--trees", str(tpath)])
        assert code == 1
        assert out.startswith("error: ")

    def test_trw_tree_on_edgeless_model_is_error(self, tmp_path):
        path = tmp_path / "one_node.json"
        path.write_bytes(save_model(PairwiseMrf((2,), (), (np.array([0.0, 1.0]),), {})))
        code, out = run_cli(["solve", str(path), "--method", "trw-tree"])
        assert code == 1
        assert out == "error: model has no edges\n"

    @pytest.mark.parametrize("method", ["maxprod", "trw-msg", "trw-edge"])
    def test_run_trw_methods_on_two_node_edgeless_model_are_errors(self, tmp_path, method):
        path = tmp_path / "two_nodes.json"
        path.write_bytes(save_model(PairwiseMrf(
            (2, 2), (), (np.array([0.0, 1.0]), np.array([1.0, 0.0])), {})))
        code, out = run_cli(["solve", str(path), "--method", method])
        assert code == 1
        assert out == "error: model has no edges\n"

    @pytest.mark.parametrize("method", ["lp", "brute", "trw-edge", "trw-msg"])
    @pytest.mark.parametrize("rho_e, message", [
        ({"0,1": 0.5, "0,2": 0.5, "1,2": 0.5, "5,9": 0.5},
         "rho_e given on (5, 9), which is not a graph edge"),
        ({"0,1": 0.5, "0,2": float("nan"), "1,2": 0.5},
         "rho_e on edge (0, 2) is not finite: nan"),
        ({"0,1": 0.5, "0,2": 0.5, "1,2": float("inf")},
         "rho_e on edge (1, 2) is not finite: inf"),
        ({"0,1": 0.5}, "rho_e missing or non-positive on edges [(0, 2), (1, 2)]"),
    ])
    def test_rho_e_file_is_validated(self, triangle_file, tmp_path, method, rho_e, message):
        tpath = tmp_path / "rho.json"
        tpath.write_text(json.dumps({"rho_e": rho_e}))
        code, out = run_cli(["solve", triangle_file(1.0), "--method", method,
                             "--trees", str(tpath)])
        assert code == 1
        assert out == f"error: {message}\n"

    def test_maxprod_ignores_trees_file(self, tmp_path):
        # ordinary max-product runs with rho = 1: a tree file changes nothing
        # it prints, not even the invariants it checks
        mrf = random_graph_mrf(np.random.default_rng(7000), n_nodes=6)
        mpath = tmp_path / "model.json"
        mpath.write_bytes(save_model(mrf))
        tpath = tmp_path / "trees.json"
        tpath.write_bytes(save_tree_distribution(uniform_tree_distribution(mrf)))
        argv = ["solve", str(mpath), "--method", "maxprod"]
        assert run_cli(argv + ["--trees", str(tpath)]) == run_cli(argv)


@pytest.mark.parametrize("with_trees", [False, True])
@pytest.mark.parametrize("method", ["trw-msg", "trw-edge", "trw-tree", "maxprod"])
def test_trw_solve_builds_one_layout(method, with_trees, tmp_path, monkeypatch):
    # the run, the certificate search and the invariant checks share the
    # run's layout (a `_FlatMrf` is one)
    mrf = random_graph_mrf(np.random.default_rng(7000), n_nodes=6)
    path, tpath = tmp_path / "model.json", tmp_path / "trees.json"
    path.write_bytes(save_model(mrf))
    tpath.write_bytes(save_tree_distribution(uniform_tree_distribution(mrf)))
    built = []
    init = _Layout.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_Layout, "__init__", counted)
    code, out = run_cli(["solve", str(path), "--method", method, "--max-iters", "50"]
                        + (["--trees", str(tpath)] if with_trees else []))
    assert code in (0, 2) and "edge-consistency" in out
    assert len(built) == 1, built


GOLDEN = Path(__file__).parent / "data" / "solve"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_solve_stdout_is_byte_identical_to_golden(case):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in GOLDEN_CASES[case]["argv"]]
    code, out = run_cli(["solve"] + argv)
    assert code == GOLDEN_CASES[case]["code"]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("argv", [
    ["solve", "model.json", "--method", "brute", "--seed", "1"],
    ["experiment", "--rho", "uniform"],
    ["experiment", "--trees", "trees.json"],
])
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv, out=io.StringIO())
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestExamples:
    @pytest.mark.parametrize("name", ["cycle4", "triangle", "diamond", "fig2"])
    def test_examples_pass(self, name):
        code, out = run_cli(["example", name])
        assert code == 0
        assert "FAIL" not in out

    def test_triangle_negative_beta(self):
        code, out = run_cli(["example", "triangle", "--beta", "-1"])
        assert code == 0
        assert "fractional" in out


class TestExperiment:
    def test_csv_row_count_and_determinism(self, tmp_path):
        args = ["experiment", "--rows", "3", "--cols", "3", "--regime", "mixed",
                "--gammas", "0.2,0.6", "--trials", "3", "--seed", "11",
                "--verify-oracle"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)])[0] == 0
        assert run_cli(args + ["--out", str(out2)])[0] == 0
        text1, text2 = out1.read_bytes(), out2.read_bytes()
        assert text1 == text2
        lines = text1.decode().strip().splitlines()
        assert lines[0].startswith("gamma,trial,method,")
        assert len(lines) - 1 == 2 * 3 * 2  # gammas x trials x methods

    def test_rows_in_deterministic_order(self):
        spec = ExperimentSpec(rows=2, cols=2, regime="attractive",
                              gammas=(0.0, 1.0), trials=2, seed=3)
        recs = run_experiment(spec)
        keys = [(r.gamma, r.trial, r.method) for r in recs]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2] != "edge"))

    def test_zero_coupling_single_round_nodewise_argmax(self):
        spec = ExperimentSpec(rows=3, cols=3, regime="attractive",
                              gammas=(0.0,), trials=4, seed=5)
        recs = run_experiment(spec)
        for r in recs:
            assert r.converged
            assert r.oracle_match
            assert r.frac_unique_correct == 1.0
            if r.method == "edge":
                assert r.messages_per_edge == 2.0  # one synchronous round
            else:
                assert r.messages_per_edge == pytest.approx(16 / 12)

    def test_oracle_match_only_with_certificate(self):
        spec = ExperimentSpec(rows=3, cols=3, regime="mixed", gammas=(1.5,),
                              trials=4, seed=9, max_iters=60)
        for r in run_experiment(spec):
            if r.oracle_match:
                assert r.certificate

    def test_csv_via_stdout(self):
        code, out = run_cli(["experiment", "--rows", "2", "--cols", "2",
                             "--gammas", "0.3", "--trials", "1", "--seed", "1",
                             "--verify-oracle"])
        assert code == 0
        assert out.splitlines()[0].startswith("gamma,")


@pytest.mark.parametrize("model_fields, trees, message", [
    ({"edges": 5}, None, "edges: expected a list"),
    ({"theta_node": 5}, None, "theta_node: expected a list"),
    ({"theta_edge": 7}, None, "theta_edge: expected a list"),
    ({}, {"rho_e": [1, 2]}, "rho_e: expected an object mapping 's,t' to a weight"),
    ({}, [{"edges": [5], "weight": 1.0}],
     "tree record 0: edges: expected a list of integer pairs"),
    ({}, [{"edges": [[0, 1]], "weight": None}],
     "tree record 0: weight: expected a number, got None"),
])
def test_malformed_documents_are_format_errors(tmp_path, model_fields, trees, message):
    doc = json.loads(save_model(triangle_mrf(1.0)))
    doc.update(model_fields)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(doc))
    argv = ["solve", str(mpath), "--method", "trw-msg"]
    if trees is not None:
        tpath = tmp_path / "trees.json"
        tpath.write_text(json.dumps(trees))
        argv += ["--trees", str(tpath)]
    assert run_cli(argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("method", ["trw-tree", "trw-msg"])
@pytest.mark.parametrize("weights, message", [
    ([float("nan")] * 4, "tree weight 0 is not finite: nan"),
    ([0.25, 0.25, float("nan"), 0.25], "tree weight 2 is not finite: nan"),
    ([float("inf"), 0.0, 0.0, 0.0], "tree weight 0 is not finite: inf"),
])
def test_non_finite_tree_weights_are_format_errors(tmp_path, method, weights, message):
    mrf = cycle4_mrf()
    mpath, tpath = tmp_path / "cycle4.json", tmp_path / "trees.json"
    mpath.write_bytes(save_model(mrf))
    trees = uniform_tree_distribution(mrf).trees
    tpath.write_text(json.dumps([{"edges": [list(e) for e in t.edges], "weight": w}
                                 for t, w in zip(trees, weights)]))
    code, out = run_cli(["solve", str(mpath), "--method", method, "--trees", str(tpath)])
    assert (code, out) == (1, f"error: {message}\n")


def test_trw_tree_on_long_chain_certifies(tmp_path):
    # the spanning-tree enumeration runs on an explicit stack, not one call per edge
    n = 1200
    rng = np.random.default_rng(1200)
    edges = tuple((i, i + 1) for i in range(n - 1))
    mrf = PairwiseMrf((2,) * n, edges, tuple(rng.normal(size=2) for _ in range(n)),
                      {e: rng.normal(size=(2, 2)) for e in edges})
    path = tmp_path / "chain.json"
    path.write_bytes(save_model(mrf))
    code, out = run_cli(["solve", str(path), "--method", "trw-tree"])
    assert code == 0
    assert "converged: True" in out and "certificate: " in out
