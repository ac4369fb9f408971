"""Built-in worked instances: the frustrated triangle, the ferromagnetic
4-cycle, the diamond graph that defeats ordinary max-product, and the
bridge-plus-diamond graph illustrating edge appearance probabilities.  The
4-cycle also comes split into one tree parameter per spanning tree, each a
`PairwiseMrf` on the tree's edges (`cycle4_tree_parameters`)."""

from __future__ import annotations

import numpy as np

from .model import PairwiseMrf, ising_to_overcomplete, score
from .trees import SpanningTree, TreeDistribution, edge_appearance, uniform_tree_distribution
from .treedp import brute_force_map
from .trw import TrwConfig, run_tree_updates, run_trw
from .lp import build_local_lp, classify_vertex, simplex_solve, vector_to_pseudomarginal


def triangle_mrf(beta: float = 1.0) -> PairwiseMrf:
    """3-cycle of binary nodes, zero node weights, every edge table
    [[0, -beta], [-beta, 0]].  For beta > 0 the relaxation is tight; for
    beta < 0 it is loose with a fractional optimum."""
    edges = ((0, 1), (0, 2), (1, 2))
    theta_edge = {e: np.array([[0.0, -beta], [-beta, 0.0]]) for e in edges}
    return PairwiseMrf((2, 2, 2), edges, tuple(np.zeros(2) for _ in range(3)), theta_edge)


def cycle4_mrf(coupling: float = 1.0) -> PairwiseMrf:
    """Ferromagnetic 4-cycle in spin form: unit couplings, no node weights."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return ising_to_overcomplete([0.0] * 4, {e: coupling for e in edges})


def cycle4_tree_parameters(coupling: float = 1.0):
    """The standard uniform-weight decomposition of the 4-cycle: (model,
    uniform tree distribution, one tree parameter per tree).  Each tree
    parameter is a model on the tree's edges, with zero node tables and the
    4-cycle's edge tables scaled by 4/3."""
    mrf = cycle4_mrf(coupling)
    dist = uniform_tree_distribution(mrf)
    thetas = [PairwiseMrf(mrf.cardinalities, tree.edges, (np.zeros(2),) * 4,
                          {e: (4.0 / 3.0) * mrf.theta_edge[e] for e in tree.edges})
              for tree in dist.trees]
    return mrf, dist, thetas


def diamond_mrf(alpha: float = 0.31, beta: float = -0.30,
                gamma: float = 2.00) -> PairwiseMrf:
    """Four binary nodes on a diamond (4-cycle 0-1-3-2 plus diagonal (1,2)).

    Objective alpha*(x0+x3) + beta*(x1+x2) - gamma per disagreeing edge; with
    the default weights the unique optimum is all-ones, yet ordinary
    max-product settles on all-zeros.
    """
    edges = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    node = (np.array([0.0, alpha]), np.array([0.0, beta]),
            np.array([0.0, beta]), np.array([0.0, alpha]))
    theta_edge = {e: np.array([[0.0, -gamma], [-gamma, 0.0]]) for e in edges}
    return PairwiseMrf((2, 2, 2, 2), edges, node, theta_edge)


# Reference fixed point of ordinary max-product on the default diamond,
# frozen to four decimals; the boundary table is oriented (middle node,
# corner node).  Its off-diagonal pair (0.0250 vs 0.0025) is asymmetric, so
# comparisons treat that pair as a set.
DIAMOND_NU_NODE = {0: (1.0, 0.0250), 1: (1.0, 0.0034),
                   2: (1.0, 0.0034), 3: (1.0, 0.0250)}
DIAMOND_NU_MIDDLE_EDGE = ((1.0, 0.0034), (0.0034, 0.0006))
DIAMOND_NU_BOUNDARY_EDGE = ((1.0, 0.0250), (0.0025, 0.0034))


def bridge_graph() -> PairwiseMrf:
    """Five-node illustration for edge appearance probabilities: a diamond on
    {0,1,2,3} with diagonal (1,2), plus the bridge (3,4)."""
    edges = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4))
    cards = (2, 2, 2, 2, 2)
    theta_edge = {e: np.zeros((2, 2)) for e in edges}
    return PairwiseMrf(cards, edges, tuple(np.zeros(2) for _ in cards), theta_edge)


def bridge_graph_trees() -> TreeDistribution:
    """Three spanning trees, weight 1/3 each: the bridge is in all of them,
    edge (0,1) in two, the diagonal (1,2) in exactly one."""
    b = (3, 4)
    trees = (SpanningTree(((0, 1), (0, 2), (1, 3), b)),
             SpanningTree(((0, 1), (1, 2), (2, 3), b)),
             SpanningTree(((0, 2), (1, 3), (2, 3), b)))
    return TreeDistribution(5, trees, np.array([1, 1, 1]) / 3.0)


def _state_str(x) -> str:
    return "".join(str(int(v)) for v in x)


def run_example(name: str, beta: float = 1.0):
    """Run one worked instance and return a list of (check, passed, detail)."""
    checks = []

    def check(label, ok, detail=""):
        checks.append((label, bool(ok), detail))

    if name == "triangle":
        mrf = triangle_mrf(beta)
        value, opt = brute_force_map(mrf)
        lp = simplex_solve(build_local_lp(mrf))
        cls = classify_vertex(vector_to_pseudomarginal(mrf, lp.x))
        result = run_trw(mrf, uniform_tree_distribution(mrf), TrwConfig(), variant="messages")
        if beta > 0:
            check("MAP value 0 at the two constant assignments",
                  abs(value) < 1e-9 and len(opt) == 2, f"value={value!r}")
            check("LP value equals MAP value", abs(lp.value - value) < 1e-7,
                  f"lp={lp.value!r}")
            check("LP optimum is integral", cls.kind == "integral")
            check("certificate found and constant",
                  result.certificate is not None
                  and len(set(result.certificate.tolist())) == 1,
                  _state_str(result.certificate) if result.certificate is not None else "none")
            check("bound is tight",
                  result.bound_trace and abs(result.bound_trace[-1] - value) < 1e-6)
        else:
            check("MAP value -2*beta", abs(value + 2 * beta) < 1e-9, f"value={value!r}")
            check("LP value -3*beta (loose)", abs(lp.value + 3 * beta) < 1e-7,
                  f"lp={lp.value!r}")
            check("LP optimum is fractional", cls.kind == "fractional")
            check("no certificate", result.certificate is None)
            check("bound stays above MAP",
                  result.bound_trace and result.bound_trace[-1] > value + 1e-9,
                  f"bound={result.bound_trace[-1]!r}")
        return checks

    if name == "cycle4":
        mrf, dist, _ = cycle4_tree_parameters()
        value, opt = brute_force_map(mrf)
        check("optima are the two aligned spin states",
              len(opt) == 2 and (1, 1, 1, 1) in opt and (0, 0, 0, 0) in opt)
        result = run_tree_updates(mrf, dist, TrwConfig())
        check("tree updates exit early on a shared optimum",
              result.terminated_by == "tree_agreement")
        check("shared optimum matches the oracle",
              result.certificate is not None
              and abs(score(mrf, result.certificate) - value) < 1e-9)
        check("bound is tight",
              result.bound_trace and abs(result.bound_trace[-1] - value) < 1e-9)
        return checks

    if name == "diamond":
        mrf = diamond_mrf()
        value, opt = brute_force_map(mrf)
        check("unique optimum all-ones", opt.configurations == ((1, 1, 1, 1),))
        plain = run_trw(mrf, {e: 1.0 for e in mrf.edges}, TrwConfig(), variant="messages")
        check("ordinary max-product converges", plain.converged)
        check("ordinary max-product certifies all-zeros",
              plain.certificate is not None
              and _state_str(plain.certificate) == "0000")
        check("that certificate is not optimal",
              plain.certificate is not None
              and score(mrf, plain.certificate) < value - 1e-9,
              f"{score(mrf, plain.certificate)!r} < {value!r}")
        trw = run_trw(mrf, uniform_tree_distribution(mrf), TrwConfig(), variant="messages")
        check("tree-reweighted certificate is all-ones",
              trw.certificate is not None and _state_str(trw.certificate) == "1111")
        check("tree-reweighted certificate matches the oracle",
              trw.certificate is not None
              and abs(score(mrf, trw.certificate) - value) < 1e-9)
        return checks

    if name == "fig2":
        mrf = bridge_graph()
        dist = bridge_graph_trees()
        rho = edge_appearance(dist, mrf)
        check("bridge has appearance probability 1", rho[(3, 4)] == 1.0)
        check("edge (0,1) has probability 2/3", abs(rho[(0, 1)] - 2 / 3) < 1e-15)
        check("diagonal (1,2) has probability 1/3", abs(rho[(1, 2)] - 1 / 3) < 1e-15)
        check("all edges covered", all(r > 0 for r in rho.values()))
        check("appearance sums to n-1", abs(sum(rho.values()) - 4.0) < 1e-12)
        return checks

    raise ValueError(f"unknown example {name!r}")
