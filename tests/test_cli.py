import io
import json
from pathlib import Path

import numpy as np
import pytest

from trwmap import PairwiseMrf, save_model, uniform_tree_distribution
from trwmap.cli import ExperimentSpec, main, records_to_csv, run_experiment
from trwmap.examples import cycle4_mrf, diamond_mrf, triangle_mrf
from trwmap.treedp import _graph_layout, _Layout
from trwmap.trw import _tree_plan

from conftest import potts_grid_mrf, random_graph_mrf
from trees_reference import save_tree_distribution


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

    @pytest.mark.parametrize("method", ["brute", "trw-msg", "trw-tree"])
    def test_unreadable_trees_file_names_the_trees(self, triangle_file, tmp_path, method):
        missing = tmp_path / "missing.json"
        code, out = run_cli(["solve", triangle_file(1.0), "--method", method,
                             "--trees", str(missing)])
        assert code == 1
        assert out == f"error: cannot read trees: [Errno 2] No such file or directory: {str(missing)!r}\n"
        code, out = run_cli(["solve", triangle_file(1.0), "--method", method,
                             "--trees", str(tmp_path)])  # a directory
        assert code == 1
        assert out.startswith("error: cannot read trees: [Errno 21] ")

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


def cold_layout_builds(monkeypatch) -> list:
    """Empty the layout and plan caches, and record every `_Layout` built
    from here on."""
    built = []
    init = _Layout.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(_Layout, "__init__", counted)
    _tree_plan.cache_clear()
    _graph_layout.cache_clear()
    return built


@pytest.mark.parametrize("with_trees", [False, True])
@pytest.mark.parametrize("method", ["trw-msg", "trw-edge", "trw-tree", "maxprod"])
def test_trw_solve_builds_one_layout(method, with_trees, tmp_path, monkeypatch):
    # the run, the certificate search and the invariant checks share the
    # graph's cached layout, and the tree schedule's plan is built on it,
    # so a cold solve builds one and a second solve of the file none
    mrf = random_graph_mrf(np.random.default_rng(7000), n_nodes=6)
    path, tpath = tmp_path / "model.json", tmp_path / "trees.json"
    path.write_bytes(save_model(mrf))
    tpath.write_bytes(save_tree_distribution(uniform_tree_distribution(mrf)))
    built = cold_layout_builds(monkeypatch)
    argv = (["solve", str(path), "--method", method, "--max-iters", "50"]
            + (["--trees", str(tpath)] if with_trees else []))
    code, out = run_cli(argv)
    assert code in (0, 2) and "edge-consistency" in out
    assert len(built) == 1, built
    assert run_cli(argv) == (code, out)
    assert len(built) == 1, built


def test_lp_solve_builds_one_layout(tmp_path, monkeypatch):
    # the LP's constraints and the local-polytope test of its vertex
    path = tmp_path / "model.json"
    path.write_bytes(save_model(random_graph_mrf(np.random.default_rng(7000), n_nodes=6)))
    built = cold_layout_builds(monkeypatch)
    code, out = run_cli(["solve", str(path), "--method", "lp"])
    assert code in (0, 2) and "vertex:" in out
    assert len(built) == 1, built
    assert run_cli(["solve", str(path), "--method", "lp"]) == (code, out)
    assert len(built) == 1, built


GOLDEN = Path(__file__).parent / "data" / "solve"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_solve_stdout_is_byte_identical_to_golden(case):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in GOLDEN_CASES[case]["argv"]]
    code, out = run_cli(["solve"] + argv)
    assert code == GOLDEN_CASES[case]["code"]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("method", ["trw-msg", "trw-edge"])
def test_oracle_rejects_the_assignment_of_a_non_converged_run(method):
    # K5 on nodes 0-4 plus a 9-edge path from node 4, 14 binary nodes: trial
    # 177 of default_rng(25) drawing K_k plus a p-edge path from node k - 1,
    # k in [5, 8), p in [6, 12), edge scale c in {1, 2, 4}.  The default rho,
    # 13/19 on every edge, lies outside the spanning-tree polytope (K5
    # carries 6.84 > 4); the run stops at the iteration cap on an assignment
    # worth 21.94, and brute force finds 22.16
    path = GOLDEN / "k5path_wrong_certificate.json"
    code, out = run_cli(["solve", str(path), "--method", method, "--verify-oracle"])
    assert "converged: False\n" in out
    assert out.endswith("oracle-match: false\n")
    assert code == 1


def test_lp_verify_oracle_on_an_integral_vertex():
    # the golden's lines, then the check of its assignment against grid_map
    code, out = run_cli(["solve", str(GOLDEN / "mixed5x5.json"), "--method", "lp",
                         "--verify-oracle"])
    assert code == 0
    assert out == (GOLDEN / "mixed5x5_lp.stdout").read_text() + "oracle-match: true\n"


def test_lp_verify_oracle_skips_a_fractional_vertex():
    code, out = run_cli(["solve", str(GOLDEN / "mixed5x5frac.json"), "--method", "lp",
                         "--verify-oracle"])
    assert code == 2
    assert out == (GOLDEN / "mixed5x5frac_lp.stdout").read_text()


def test_lp_verify_oracle_mismatch_exits_1(monkeypatch):
    from trwmap import cli
    exact = cli._oracle
    monkeypatch.setattr(cli, "_oracle", lambda mrf: (exact(mrf)[0] + 1.0, None))
    code, out = run_cli(["solve", str(GOLDEN / "mixed5x5.json"), "--method", "lp",
                         "--verify-oracle"])
    assert code == 1
    assert out.endswith("oracle-match: false\n")


def test_lp_verify_oracle_past_its_guards_is_skipped(tmp_path):
    # a star on 25 binary nodes: not a grid, and 2^25 joint states are past
    # brute force's guard; on a tree the LP's vertex is integral
    rng = np.random.default_rng(3)
    edges = tuple((0, t) for t in range(1, 25))
    mrf = PairwiseMrf((2,) * 25, edges, tuple(rng.normal(size=2) for _ in range(25)),
                      {e: rng.normal(size=(2, 2)) for e in edges})
    path = tmp_path / "star.json"
    path.write_bytes(save_model(mrf))
    code, out = run_cli(["solve", str(path), "--method", "lp", "--verify-oracle"])
    assert code == 0
    assert "vertex: integral\n" in out
    assert out.endswith("oracle-match: skipped (joint state space exceeds 2^24)\n")


@pytest.mark.parametrize("side, code", [(16, 0), (24, 2)])
def test_large_potts_grid_stdout_is_golden(tmp_path, side, code):
    # 3-state Potts grids built here from seed 0: the 16x16 one prints a
    # certificate, the 24x24 one none
    path = tmp_path / f"potts{side}.json"
    path.write_bytes(save_model(potts_grid_mrf(side, 3, 0.5, np.random.default_rng(0))))
    got = run_cli(["solve", str(path), "--method", "trw-msg", "--max-iters", "20"])
    assert got == (code, (GOLDEN / f"potts{side}x{side}_seed0_trw-msg.stdout").read_text())


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

    @pytest.mark.parametrize("name", ["cycle4", "diamond", "fig2"])
    @pytest.mark.parametrize("beta", ["-5", "nan", "1.0", "2"])
    def test_beta_is_rejected_where_it_is_not_read(self, name, beta):
        code, out = run_cli(["example", name, "--beta", beta])
        assert code == 1
        assert out == f"error: --beta applies to the triangle example only, not {name}\n"

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_beta_is_named(self, beta):
        code, out = run_cli(["example", "triangle", f"--beta={beta}"])
        assert code == 1
        assert out == f"error: --beta: expected a finite number, got {float(beta)!r}\n"


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

    @pytest.mark.parametrize("argv, message", [
        (["--gammas", "inf"], "gammas: coupling strengths must be finite and non-negative, got inf"),
        (["--gammas", "1,nan"], "gammas: coupling strengths must be finite and non-negative, got nan"),
        (["--gammas", "0.5,-1"], "gammas: coupling strengths must be finite and non-negative, "
                                 "got -1.0"),
        (["--gammas", ""], "gammas: expected comma-separated numbers, got ''"),
        (["--gammas", "0.5,,1"], "gammas: expected comma-separated numbers, got '0.5,,1'"),
        (["--gammas", "abc"], "gammas: expected comma-separated numbers, got 'abc'"),
        (["--trials", "-1"], "trials: expected a non-negative integer, got -1"),
        (["--seed", "-1"], "seed: expected a non-negative integer, got -1"),
        (["--eps", "inf"], "tolerance must be finite and positive, got inf"),
        (["--eps", "nan"], "tolerance must be finite and positive, got nan"),
        (["--rows", "0", "--verify-oracle"], "rows: expected an integer of at least 2, got 0"),
        (["--rows", "-2", "--verify-oracle"], "rows: expected an integer of at least 2, got -2"),
    ])
    def test_bad_spec_is_rejected_before_any_row(self, argv, message):
        code, out = run_cli(["experiment", "--rows", "2", "--cols", "2", "--trials", "1",
                             *argv])
        assert code == 1
        assert out == f"error: {message}\n"

    def test_spec_takes_numpy_integers(self):
        spec = ExperimentSpec(rows=2, cols=2, regime="mixed", gammas=(1.0,),
                              trials=np.int64(2), seed=np.int64(3))
        assert len(run_experiment(spec)) == 4

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


@pytest.mark.parametrize("model, trees", [
    ('{"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [["0.5", "1"], [0, 0]],'
     ' "theta_edge": [[[0, 0], [0, 0]]]}', None),
    ('{"nodes": [true, 2], "edges": [[0, 1]], "theta_node": [[0], [0, 0]],'
     ' "theta_edge": [[[0, 0]]]}', None),
    (None, '[{"edges": [[0, 1], [1, 2]], "weight": true}, {"edges": [[0, 1], [0, 2]], "weight": 0}]'),
])
def test_booleans_and_strings_in_documents_are_errors(tmp_path, triangle_file, model, trees):
    mpath = tmp_path / "model.json"
    if model is None:
        mpath = Path(triangle_file(1.0))
    else:
        mpath.write_text(model)
    argv = ["solve", str(mpath), "--method", "trw-msg"]
    if trees is not None:
        (tmp_path / "trees.json").write_text(trees)
        argv += ["--trees", str(tmp_path / "trees.json")]
    code, out = run_cli(argv)
    assert code == 1 and out.startswith("error: ") and "expected" in out


def test_parser_is_built_once_per_process(monkeypatch):
    from trwmap import cli
    built = []

    def counting():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for _ in range(3):
            assert run_cli(["solve", "/nonexistent.json", "--method", "brute"])[0] == 1
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
