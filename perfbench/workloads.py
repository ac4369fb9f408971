"""The benchmark's workloads: a fixed pool of seeded inputs built with the
library, and one model solved per `solve` call through the entry points a
user runs.  A run solves its pool in order, cycling.

Iteration caps are below the library defaults so that every model does a
bounded amount of work: with convergence-dependent work the cost of a model
varies more than tenfold from one draw to the next, and a pool of a few dozen
models per seed would not be steady across seeds.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from trwmap import PairwiseMrf, cli, grid_edges, save_model

PAPER_GAMMAS = (0.2, 0.5, 1.0, 1.5, 2.0)
PAPER_STRATA = tuple((regime, g) for regime in ("attractive", "mixed")
                     for g in PAPER_GAMMAS)
PAPER_MAX_ITERS = 40
PAPER_TRIALS = 20  # two whole `trwmap experiment` studies
LARGE_SIDES = (16, 24, 32)
LARGE_STATES = 3
LARGE_GAMMA = 0.5
LARGE_MAX_ITERS = 20
LP_SIDE = 5
LP_POOL = 60
LP_EDGE_MAX_ITERS = 100


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,) + key)))


def potts_grid(side: int, states: int, gamma: float, rng) -> PairwiseMrf:
    """Square grid with node fields uniform in [-1, 1] per state and Potts
    couplings w * [x_s == x_t], w uniform in [-gamma/2, gamma/2]."""
    n = side * side
    node = [2.0 * rng.random(states) - 1.0 for _ in range(n)]
    edges = grid_edges(side, side)
    weights = gamma * rng.random(len(edges)) - gamma / 2.0
    edge = {e: w * np.eye(states) for e, w in zip(edges, weights)}
    return PairwiseMrf((states,) * n, tuple(edges), tuple(node), edge)


def mixed_cardinality_grid(side: int, rng) -> PairwiseMrf:
    """Square grid with cardinalities drawn from {2, 3, 4}, integer node
    fields in [-1, 1] and integer Potts weights in [-2, 2] on the shared
    diagonal of each edge table."""
    n = side * side
    cards = [int(m) for m in rng.integers(2, 5, n)]
    node = [rng.integers(-1, 2, m).astype(float) for m in cards]
    edges = grid_edges(side, side)
    weights = rng.integers(-2, 3, len(edges))
    edge = {(s, t): float(w) * np.eye(cards[s], cards[t])
            for (s, t), w in zip(edges, weights)}
    return PairwiseMrf(tuple(cards), tuple(edges), tuple(node), edge)


def _solve_file(path: str, method: str, max_iters: int | None = None) -> dict:
    argv = ["solve", path, "--method", method]
    if max_iters is not None:
        argv += ["--max-iters", str(max_iters)]
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return {"method": method, "code": code, "text": out.getvalue()}


class Grid4Paper:
    """The paper's 4x4 study, one (regime, gamma, trial) cell per call."""

    name = "grid4_paper"
    trace_models = 4 * len(PAPER_STRATA)

    def setup(self, seed, workdir) -> list:
        specs = []
        for i in range(PAPER_TRIALS * len(PAPER_STRATA)):
            regime, gamma = PAPER_STRATA[i % len(PAPER_STRATA)]
            specs.append(cli.ExperimentSpec(
                rows=4, cols=4, regime=regime, gammas=(gamma,), trials=1,
                seed=seed * 1_000_000 + i, max_iters=PAPER_MAX_ITERS))
        return specs

    def describe(self, spec) -> dict:
        return {"label": f"{spec.regime} gamma={spec.gammas[0]} seed={spec.seed}"}

    def solve(self, spec) -> list:
        return [{"method": r.method, "certificate": r.certificate,
                 "converged": r.converged, "oracle_match": r.oracle_match}
                for r in cli.run_experiment(spec)]


class GridLargeMsg:
    """`trwmap solve --method trw-msg` on 16x16, 24x24 and 32x32 Potts grids."""

    name = "grid_large_msg"
    trace_models = len(LARGE_SIDES)

    def setup(self, seed, workdir) -> list:
        items = []
        for side in LARGE_SIDES:
            mrf = potts_grid(side, LARGE_STATES, LARGE_GAMMA, _rng(seed, 1, side))
            path = workdir / f"potts{side}.json"
            path.write_bytes(save_model(mrf))
            items.append({"path": str(path), "side": side})
        return items

    def describe(self, item) -> dict:
        return {"label": Path(item["path"]).name, **item}

    def solve(self, item) -> list:
        return [_solve_file(item["path"], "trw-msg", LARGE_MAX_ITERS)]


class LpMixedCard:
    """`trwmap solve --method lp` and `--method trw-edge` on mixed-cardinality grids."""

    name = "lp_mixed_card"
    trace_models = 16

    def setup(self, seed, workdir) -> list:
        items = []
        for i in range(LP_POOL):
            mrf = mixed_cardinality_grid(LP_SIDE, _rng(seed, 2, i))
            path = workdir / f"mixed{i}.json"
            path.write_bytes(save_model(mrf))
            items.append({"path": str(path)})
        return items

    def describe(self, item) -> dict:
        return {"label": Path(item["path"]).name, **item}

    def solve(self, item) -> list:
        return [_solve_file(item["path"], "lp"),
                _solve_file(item["path"], "trw-edge", LP_EDGE_MAX_ITERS)]


WORKLOADS = {w.name: w for w in (Grid4Paper(), GridLargeMsg(), LpMixedCard())}
