"""Command-line front end: solve model files, run the built-in worked
examples, and reproduce the edge-based versus tree-based update experiment
with CSV output.

Exit codes: 0 success, 1 error (bad input, bad options) or, with
`--verify-oracle`, `oracle-match: false`, 2 indeterminate (the method
terminated without a certificate, or the LP at a fractional vertex).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import examples as ex
from .model import (CapacityError, MrfError, PairwiseMrf, ising_to_overcomplete, load_model,
                    score)
from .trees import (TreeDistribution, grid_edges, load_tree_distribution,
                    uniform_tree_distribution)
from .treedp import (BRUTE_FORCE_GUARD, _grid_lines, brute_force_map, check_edge_consistency,
                     grid_map, grid_shape)
from .trw import (TrwConfig, TrwResult, _grid_trees, _tie_masks,
                  check_reparameterization, resolve_rho, run_trw, run_tree_updates)
from .lp import classify_vertex, simplex_solve, vector_to_pseudomarginal, vertex_start

METHODS = ("brute", "maxprod", "trw-edge", "trw-msg", "trw-tree", "lp")


@dataclass(frozen=True)
class ExperimentSpec:
    rows: int
    cols: int
    regime: str  # "attractive" | "mixed"
    gammas: tuple
    trials: int
    seed: int
    damping: float = 0.5
    eps: float = 1e-8
    max_iters: int = 500
    verify_oracle: bool = True

    def __post_init__(self):
        if self.regime not in ("attractive", "mixed"):
            raise ValueError("regime must be attractive or mixed")
        for g in self.gammas:
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"gammas: coupling strengths must be finite and non-negative, "
                                 f"got {g!r}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name}: expected a non-negative integer, got {value!r}")
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 2:
                raise ValueError(f"{name}: expected an integer of at least 2, got {value!r}")
        if self.verify_oracle:
            try:
                _grid_lines((2,) * (self.rows * self.cols), self.rows, self.cols)
            except CapacityError:
                raise ValueError("grid too large for oracle verification") from None


@dataclass(frozen=True)
class ExperimentRecord:
    gamma: float
    trial: int
    method: str  # "edge" | "tree"
    messages_per_edge: float
    converged: bool
    certificate: str  # state string, empty when none
    oracle_match: bool | None  # None when not verified
    frac_unique_correct: float | None

    def __post_init__(self):
        if self.oracle_match and not self.certificate:
            raise ValueError("oracle_match requires a certificate")


def _draw_grid_model(spec: ExperimentSpec, gamma_index: int, trial: int) -> PairwiseMrf:
    """Seeded grid model; uniform node weights in [-1, 1], couplings per
    regime.  PCG64 keyed by (seed, gamma index, trial); node weights are
    drawn first, then edge weights in sorted edge order, each from the
    53-bit uniform `random()` stream."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((spec.seed, gamma_index, trial))))
    n = spec.rows * spec.cols
    gamma = spec.gammas[gamma_index]
    node_w = 2.0 * rng.random(n) - 1.0
    edges = grid_edges(spec.rows, spec.cols)
    draws = rng.random(len(edges))
    if spec.regime == "attractive":
        edge_w = {e: gamma * d for e, d in zip(edges, draws)}
    else:
        edge_w = {e: gamma * d - gamma / 2.0 for e, d in zip(edges, draws)}
    return ising_to_overcomplete(node_w, edge_w)


def _unique_correct_fraction(result: TrwResult, opt_set) -> float:
    """Of the nodes whose table has a unique maximizer, the fraction whose
    maximizing state occurs in some oracle-optimal configuration."""
    layout = result.nu.layout
    ties, _ = _tie_masks(layout, result.nu.node, result.nu.tables)
    unique = np.add.reduceat(ties, layout.offsets) == 1
    pos = np.flatnonzero(ties & unique[layout.node_of])
    nodes = layout.node_of[pos]
    opts = np.array(opt_set.configurations)
    correct = (opts[:, nodes] == pos - layout.offsets[nodes]).any(axis=0)
    return int(correct.sum()) / len(pos) if len(pos) else 1.0


def run_experiment(spec: ExperimentSpec) -> list:
    """Deterministic records in (gamma, trial, method) order."""
    dist = _grid_trees(spec.rows, spec.cols)
    config = TrwConfig(damping=spec.damping, tol=spec.eps,
                       max_iterations=spec.max_iters)
    records = []
    for gi, gamma in enumerate(spec.gammas):
        for trial in range(spec.trials):
            mrf = _draw_grid_model(spec, gi, trial)
            oracle = grid_map(mrf, spec.rows, spec.cols) if spec.verify_oracle else None
            edge_res = run_trw(mrf, None, config, variant="messages")
            tree_res = run_tree_updates(mrf, dist, config)
            for method, res in (("edge", edge_res), ("tree", tree_res)):
                cert = res.certificate
                cert_str = "".join(str(int(v)) for v in cert) if cert is not None else ""
                match = None
                frac = None
                if oracle is not None:
                    value, opt = oracle
                    match = bool(cert is not None
                                 and abs(score(mrf, cert) - value) <= 1e-9)
                    frac = _unique_correct_fraction(res, opt)
                records.append(ExperimentRecord(
                    gamma=float(gamma), trial=trial, method=method,
                    messages_per_edge=float(res.messages_per_edge),
                    converged=bool(res.converged), certificate=cert_str,
                    oracle_match=match, frac_unique_correct=frac))
    return records


CSV_COLUMNS = ("gamma", "trial", "method", "messages_per_edge", "converged",
               "certificate", "oracle_match", "frac_unique_correct")


def records_to_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            repr(r.gamma), r.trial, r.method, repr(r.messages_per_edge),
            "true" if r.converged else "false", r.certificate,
            "" if r.oracle_match is None else ("true" if r.oracle_match else "false"),
            "" if r.frac_unique_correct is None else repr(r.frac_unique_correct),
        ])
    return out.getvalue()


def _trw_config(args) -> TrwConfig:
    return TrwConfig(damping=args.damping, tol=args.eps, max_iterations=args.max_iters)


def _load_distribution(args, mrf):
    if args.trees is None:
        return None
    try:
        with open(args.trees, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise OSError(f"cannot read trees: {err}") from err
    dist = load_tree_distribution(data, mrf.node_count)
    resolve_rho(mrf, dist)  # the same check for every method, whether it reads rho or not
    return dist


def _print_invariants(out, mrf, result, dist):
    rep = check_edge_consistency(result.nu)
    out.write(f"edge-consistency max deviation: {rep.max_deviation:.3e}\n")
    if isinstance(dist, TreeDistribution):
        if math.prod(mrf.cardinalities) <= 2 ** 20:
            dev = check_reparameterization(result.nu, dist, mrf)
            out.write(f"reparameterization deviation: {dev:.3e}\n")
        if result.bound_trace:
            out.write(f"upper bound: {result.bound_trace[-1]!r}\n")


def cmd_solve(args, out) -> int:
    try:
        with open(args.model, "rb") as fh:
            mrf = load_model(fh.read())
    except OSError as err:
        out.write(f"error: cannot read model: {err}\n")
        return 1
    if args.out:
        report = io.StringIO()
        code = _solve_report(args, mrf, report)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.getvalue())
        out.write(f"wrote {args.out}\n")
        return code
    return _solve_report(args, mrf, out)


def _solve_report(args, mrf, out) -> int:
    dist = _load_distribution(args, mrf)
    if args.method == "brute":
        value, opt = brute_force_map(mrf)
        out.write(f"value: {value!r}\n")
        out.write(f"optima: {len(opt)}\n")
        for x in list(opt.configurations)[:8]:
            out.write("  " + "".join(str(v) for v in x) + "\n")
        return 0
    if args.method == "lp":
        # phase 2 from the start tableau alone, on the LP's objective: no A is built
        res = simplex_solve(np.concatenate((mrf.node_vector, mrf.edge_vector)), vertex_start(mrf))
        out.write(f"value: {res.value!r}\n")
        cls = classify_vertex(vector_to_pseudomarginal(mrf, res.x))
        out.write(f"vertex: {cls.kind}\n")
        if cls.kind != "integral":
            return 2
        out.write("assignment: " + "".join(str(v) for v in cls.assignment) + "\n")
        return _oracle_match(out, mrf, cls.assignment) if args.verify_oracle else 0
    config = _trw_config(args)
    if args.method == "maxprod":
        dist = None  # rho = 1 on every edge, not the --trees distribution
        result = run_trw(mrf, {e: 1.0 for e in mrf.edges}, config, variant="messages")
    elif args.method == "trw-msg":
        result = run_trw(mrf, dist, config, variant="messages")
    elif args.method == "trw-edge":
        result = run_trw(mrf, dist, config, variant="reparam")
    else:  # trw-tree
        if dist is None:
            dist = uniform_tree_distribution(mrf)
        if not isinstance(dist, TreeDistribution):
            raise MrfError("tree updates need explicit trees, not rho_e values")
        result = run_tree_updates(mrf, dist, config)
    out.write(f"iterations: {result.iterations}\n")
    out.write(f"converged: {result.converged}\n")
    _print_invariants(out, mrf, result, dist)
    if result.certificate is None:
        out.write("certificate: none"
                  + (" (search guard exceeded)\n" if result.certificate_indeterminate else "\n"))
        return 2
    cert = result.certificate
    out.write("certificate: " + "".join(map(str, cert.tolist())) + "\n")
    out.write(f"value: {score(mrf, cert)!r}\n")
    return _oracle_match(out, mrf, cert) if args.verify_oracle else 0


def _oracle_match(out, mrf: PairwiseMrf, x) -> int:
    """`--verify-oracle` on an answer x: its score against the exact MAP
    value; exit code 1 when they differ, 0 when they agree or the oracle is
    past its guards."""
    try:
        value, _ = _oracle(mrf)
    except CapacityError as err:
        out.write(f"oracle-match: skipped ({err})\n")
        return 0
    ok = abs(score(mrf, x) - value) <= 1e-9
    out.write(f"oracle-match: {'true' if ok else 'false'}\n")
    return 0 if ok else 1


def _oracle(mrf: PairwiseMrf):
    """The exact MAP value and optimal set: `grid_map` on a grid, brute force
    on other graphs and on grids past `grid_map`'s guards (brute force has no
    limit on the number of optima), and a CapacityError past brute force's."""
    shape = grid_shape(mrf)
    if shape is not None:
        try:
            return grid_map(mrf, *shape)
        except CapacityError:
            pass
    if math.prod(mrf.cardinalities) > BRUTE_FORCE_GUARD:
        raise CapacityError(f"joint state space exceeds 2^{BRUTE_FORCE_GUARD.bit_length() - 1}")
    return brute_force_map(mrf)


def cmd_example(args, out) -> int:
    if args.beta is None:
        checks = ex.run_example(args.name)
    elif args.name != "triangle":
        raise ValueError(f"--beta applies to the triangle example only, not {args.name}")
    elif not math.isfinite(args.beta):
        raise ValueError(f"--beta: expected a finite number, got {args.beta!r}")
    else:
        checks = ex.run_example(args.name, beta=args.beta)
    failed = 0
    for name, ok, detail in checks:
        out.write(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else "") + "\n")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def _parse_gammas(text: str) -> tuple:
    try:
        return tuple(float(g) for g in text.split(","))
    except ValueError:
        raise ValueError(f"gammas: expected comma-separated numbers, got {text!r}") from None


def cmd_experiment(args, out) -> int:
    gammas = _parse_gammas(args.gammas)
    spec = ExperimentSpec(rows=args.rows, cols=args.cols, regime=args.regime,
                          gammas=gammas, trials=args.trials, seed=args.seed,
                          damping=args.damping, eps=args.eps,
                          max_iters=args.max_iters,
                          verify_oracle=args.verify_oracle)
    text = records_to_csv(run_experiment(spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trwmap",
        description="MAP inference via tree-reweighted max-product and the tree-based LP relaxation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trw_flags(p):
        p.add_argument("--damping", type=float, default=0.5)
        p.add_argument("--eps", type=float, default=1e-8)
        p.add_argument("--max-iters", type=int, default=2000)
        p.add_argument("--verify-oracle", action="store_true")
        p.add_argument("--out", metavar="FILE")

    p_solve = sub.add_parser("solve", help="solve a model document")
    p_solve.add_argument("model")
    p_solve.add_argument("--method", choices=METHODS, required=True)
    p_solve.add_argument("--trees", metavar="FILE")
    add_trw_flags(p_solve)

    p_ex = sub.add_parser("example", help="run a built-in worked example")
    p_ex.add_argument("name", choices=("cycle4", "triangle", "diamond", "fig2"))
    p_ex.add_argument("--beta", type=float, help="the triangle's coupling (default 1.0)")

    p_exp = sub.add_parser("experiment", help="edge-based vs tree-based grid experiment")
    p_exp.add_argument("--rows", type=int, default=4)
    p_exp.add_argument("--cols", type=int, default=4)
    p_exp.add_argument("--regime", choices=("attractive", "mixed"), default="attractive")
    p_exp.add_argument("--gammas", default="0.2,0.5,1.0,1.5,2.0")
    p_exp.add_argument("--trials", type=int, default=10)
    p_exp.add_argument("--seed", type=int, default=0)
    add_trw_flags(p_exp)
    p_exp.set_defaults(max_iters=500)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args, out)
        if args.command == "example":
            return cmd_example(args, out)
        return cmd_experiment(args, out)
    except (MrfError, ValueError, OSError) as err:
        out.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
