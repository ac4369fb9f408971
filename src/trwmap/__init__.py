"""Certified MAP inference on pairwise MRFs: tree-reweighted max-product,
the tree-based LP relaxation, and exact desk-scale oracles."""

from .model import (BIG, CapacityError, Factor, FactorGraph, ModelFormatError,
                    MrfError, PairwiseMrf, StructureError,
                    factor_to_pairwise, ising_to_overcomplete, load_model,
                    save_model, score)
from .trees import (SpanningTree, TreeDistribution, edge_appearance,
                    enumerate_spanning_trees, grid_edges, grid_two_tree_distribution,
                    kirchhoff_count, load_tree_distribution, save_tree_distribution,
                    uniform_tree_distribution)
from .treedp import (MaxMarginals, MessageSet, OptSet, backtrack_optimum, brute_force_map,
                     check_edge_consistency, grid_map, tree_map_value, tree_max_marginals,
                     tree_opt_set)
from .trw import (PseudoMaxMarginals, TrwConfig, TrwResult,
                  check_reparameterization, find_certificate, init_pseudo,
                  message_step, messages_to_pseudo, reparameterization_step,
                  run_tree_updates, run_trw, uniform_rho, unit_messages)
from .lp import (LinearProgram, SimplexResult,
                 build_local_lp, classify_vertex, delta_pseudomarginal,
                 dual_from_messages, evaluate_dual, in_local, in_marginal_polytope,
                 simplex_solve, vector_to_pseudomarginal, vertex_start)

__version__ = "0.1.0"
