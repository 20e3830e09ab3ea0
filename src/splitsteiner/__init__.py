"""Steiner tree solvers and structure tools for split graphs.

A split graph partitions into a clique C and an independent set I. The
package recognizes split graphs, classifies them by the maximum number
of independent neighbors a clique vertex has, solves the Steiner tree
problem exactly in polynomial time on the K_(1,4)-free ones, and ships
a brute-force oracle plus an Exact-3-Cover reduction for the hard side
of the boundary.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or running one command of the CLI, loads only
the modules that are needed.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("GeneratorError", "InvariantError", "NotK14FreeError", "NotSplitError",
               "OracleBudgetError", "SplitSteinerError", "SstpParseError",
               "X3CParseError"),
    "generate": ("GeneratorConfig", "gen_split"),
    "graph": ("Graph", "bfs_tree", "is_connected"),
    "matching": ("Matching", "alpha_capped", "maximum_matching"),
    "oracle": ("OracleResult", "brute_force_steiner", "verify_solution"),
    "solver": ("PrunedInstance", "SolveTrace", "SteinerResult", "prune", "solve",
               "solve_1split", "solve_2split", "solve_3split", "solve_claw_free"),
    "split": ("SplitPartition", "split_partition"),
    "sstp": ("SteinerInstance", "parse_instance", "serialize_instance",
             "write_instance"),
    "structure": ("LabeledGraph", "StarWitness", "build_labeled_graph",
                  "corresponding_clique_set", "corresponding_vertex_set",
                  "find_induced_star", "restrict_view"),
    "x3c": ("X3CInstance", "parse_x3c", "reduce_x3c", "serialize_x3c",
            "solve_x3c_bruteforce"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value
