#!/usr/bin/env python3
"""The smallest instance where the local-polytope relaxation comes apart.

Three binary nodes on a cycle, every edge table [[0, -b], [-b, 0]].  For
b > 0 agreement is favored, the relaxation is tight, and the reweighted
updates certify an optimum.  For b < 0 every edge wants its endpoints to
differ, which is impossible around an odd cycle: the relaxed LP escapes to a
fractional vertex strictly above the true optimum and no certificate exists.
"""

from trwmap import (TrwConfig, brute_force_map, build_local_lp, classify_vertex,
                    run_trw, simplex_solve, uniform_tree_distribution,
                    vector_to_pseudomarginal)
from trwmap.examples import triangle_mrf

for b in (1.0, -1.0):
    mrf = triangle_mrf(b)
    value, opt = brute_force_map(mrf)
    print(f"=== b = {b:+.0f} ===")
    print(f"exact optimum {value} over {len(opt)} assignments")

    res = simplex_solve(build_local_lp(mrf))
    tau = vector_to_pseudomarginal(mrf, res.x)
    cls = classify_vertex(tau)
    print(f"relaxed LP value {res.value} at a {cls.kind} vertex")
    if cls.kind == "fractional":
        print(f"  node weights {tau.theta_node[0]}, edge table\n{tau.theta_edge[(0, 1)]}")

    result = run_trw(mrf, uniform_tree_distribution(mrf), TrwConfig(), variant="messages")
    print(f"reweighted max-product: converged={result.converged} "
          f"in {result.iterations} iterations, bound {result.bound_trace[-1]}")
    if result.certificate is not None:
        x = "".join(map(str, result.certificate))
        print(f"  certificate {x}: provably optimal, bound is tight")
    else:
        print("  no assignment is optimal in every table: the bound stays loose,")
        print(f"  gap = {result.bound_trace[-1] - value}")
    print()
