"""Exponential ground-truth solver for desk-scale validation.

Connectivity here is deliberately NOT graph.is_connected: subsets are
checked with a bitmask BFS over big integers, so the oracle and the
production solvers share no reachability code. Subsets of the search
universe are enumerated by increasing cardinality (and lexicographically
within one cardinality), so the first feasible hit is the minimum and
the witness is reproducible.

The clique-only universe exists to *test* the structural claim that
minimum Steiner sets of split graphs never need independent vertices,
not to assume it — the test corpus runs both universes and compares.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import OracleBudgetError, SplitSteinerError
from .graph import Graph
from .split import split_partition
from .sstp import SteinerInstance

UNIVERSES = ("all-vertices", "clique-only")


@dataclass(frozen=True)
class OracleResult:
    min_size: int
    witness: tuple[int, ...]
    explored: int


def _local_masks(g: Graph, members: list[int]) -> list[int]:
    """Adjacency bitmasks over the member list's local indexing."""
    local = {v: i for i, v in enumerate(members)}
    masks = [0] * len(members)
    for v, i in local.items():
        m = 0
        for w in g.neighbors(v).tolist():
            j = local.get(w)
            if j is not None:
                m |= 1 << j
        masks[i] = m
    return masks


def _mask_connected(masks: list[int], active: int) -> bool:
    if active == 0:
        return True
    start = active & -active
    visited = start
    frontier = start
    while frontier:
        grow = 0
        m = frontier
        while m:
            low = m & -m
            grow |= masks[low.bit_length() - 1]
            m ^= low
        frontier = grow & active & ~visited
        visited |= frontier
    return visited == active


def brute_force_steiner(inst: SteinerInstance, universe: str = "clique-only",
                        budget: int = 2_000_000) -> OracleResult:
    """Minimum Steiner set by exhaustive search over the chosen universe.

    universe "clique-only" searches subsets of C minus the terminals
    (requires a split graph); "all-vertices" searches all non-terminals.
    The non-terminal universe may hold at most 25 vertices; at most
    `budget` subsets are examined before OracleBudgetError.
    """
    if universe not in UNIVERSES:
        raise ValueError(f"unknown universe {universe!r}, expected one of {UNIVERSES}")
    g = inst.graph
    r = set(inst.terminals)
    if universe == "clique-only":
        pool = [v for v in split_partition(g).clique if v not in r]
    else:
        pool = [v for v in range(g.n) if v not in r]
    if len(pool) > 25:
        raise ValueError(
            f"search universe has {len(pool)} non-terminals, limit is 25")

    members = sorted(r | set(pool))
    local = {v: i for i, v in enumerate(members)}
    masks = _local_masks(g, members)
    r_mask = 0
    for v in r:
        r_mask |= 1 << local[v]

    explored = 0
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            explored += 1
            if explored > budget:
                raise OracleBudgetError(
                    f"budget of {budget} subsets exhausted at size {size}")
            active = r_mask
            for v in combo:
                active |= 1 << local[v]
            if _mask_connected(masks, active):
                return OracleResult(min_size=size, witness=combo,
                                    explored=explored)
    raise SplitSteinerError("no feasible Steiner set found")


def verify_solution(inst: SteinerInstance, s: set[int] | tuple[int, ...],
                    tree_edges: Iterable[tuple[int, int]] | None = None) -> bool:
    """True iff the graph induced on s plus the terminals is connected.
    Raises ValueError when s overlaps the terminal set.

    Given tree_edges, the answer is read from that certificate alone: it
    must be |S u R| - 1 edges of the graph between vertices of S u R, and
    a union-find over them must find no cycle, which makes them a spanning
    tree. Without it, the bitmask BFS decides, independently of the
    solvers' reachability code.
    """
    s_set = set(s)
    r = set(inst.terminals)
    overlap = s_set & r
    if overlap:
        raise ValueError(f"candidate set overlaps terminals: {sorted(overlap)}")
    members = s_set | r
    if tree_edges is not None:
        return _is_spanning_tree(inst.graph, members, list(tree_edges))
    ordered = sorted(members)
    masks = _local_masks(inst.graph, ordered)
    return _mask_connected(masks, (1 << len(ordered)) - 1)


def _is_spanning_tree(g: Graph, members: set[int],
                      edges: list[tuple[int, int]]) -> bool:
    if len(edges) != max(len(members) - 1, 0):
        return False
    if edges:
        # every endpoint a member and every pair an edge of g, looked up
        # in the CSR rows for all the pairs at once
        pairs = np.array(edges, dtype=np.int64)
        if not (np.isin(pairs, np.fromiter(members, np.int64, len(members))).all()
                and ((pairs >= 0) & (pairs < g.n)).all()
                and g.has_edges(pairs[:, 0], pairs[:, 1]).all()):
            return False
    parent = {v: v for v in members}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
