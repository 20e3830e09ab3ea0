"""Steiner tree solvers and structure tools for split graphs.

A split graph partitions into a clique C and an independent set I. The
package recognizes split graphs, classifies them by the maximum number
of independent neighbors a clique vertex has, solves the Steiner tree
problem exactly in polynomial time on the K_(1,4)-free ones, and ships
a brute-force oracle plus an Exact-3-Cover reduction for the hard side
of the boundary.
"""

from .errors import (
    GeneratorError,
    InvariantError,
    NotK14FreeError,
    NotSplitError,
    OracleBudgetError,
    SplitSteinerError,
    SstpParseError,
    X3CParseError,
)
from .generate import GeneratorConfig, gen_split
from .graph import Graph, bfs_tree, is_connected
from .matching import Matching, alpha_capped, maximum_matching
from .oracle import OracleResult, brute_force_steiner, verify_solution
from .solver import (
    PrunedInstance,
    SolveTrace,
    SteinerResult,
    prune,
    solve,
    solve_1split,
    solve_2split,
    solve_3split,
    solve_claw_free,
)
from .split import SplitPartition, split_partition
from .sstp import SteinerInstance, parse_instance, serialize_instance, write_instance
from .structure import (
    LabeledGraph,
    StarWitness,
    build_labeled_graph,
    corresponding_clique_set,
    corresponding_vertex_set,
    find_induced_star,
    restrict_view,
)
from .x3c import (
    X3CInstance,
    parse_x3c,
    reduce_x3c,
    serialize_x3c,
    solve_x3c_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "GeneratorConfig",
    "GeneratorError",
    "Graph",
    "InvariantError",
    "LabeledGraph",
    "Matching",
    "NotK14FreeError",
    "NotSplitError",
    "OracleBudgetError",
    "OracleResult",
    "PrunedInstance",
    "SolveTrace",
    "SplitPartition",
    "SplitSteinerError",
    "SstpParseError",
    "StarWitness",
    "SteinerInstance",
    "SteinerResult",
    "X3CInstance",
    "X3CParseError",
    "alpha_capped",
    "bfs_tree",
    "brute_force_steiner",
    "build_labeled_graph",
    "corresponding_clique_set",
    "corresponding_vertex_set",
    "find_induced_star",
    "gen_split",
    "is_connected",
    "maximum_matching",
    "parse_instance",
    "parse_x3c",
    "prune",
    "reduce_x3c",
    "restrict_view",
    "serialize_instance",
    "serialize_x3c",
    "solve",
    "solve_1split",
    "solve_2split",
    "solve_3split",
    "solve_claw_free",
    "solve_x3c_bruteforce",
    "split_partition",
    "verify_solution",
    "write_instance",
]
