"""Split-graph recognition and canonical clique/independent partitions.

Recognition uses the degree-sequence characterization of Hammer and
Simeone: with degrees d_1 >= ... >= d_n and k = max{i : d_i >= i-1}, the
graph is split iff

    sum_{i<=k} d_i == k(k-1) + sum_{i>k} d_i,

in which case any k vertices of largest degree form a maximum clique
and the rest are independent, however ties at the boundary degree are
broken. Let K be such k vertices and R the rest:

  1. sum_K d - sum_R d = 2e(K) - 2e(R), which the identity sets to
     k(k-1); so e(K) = C(k,2) and e(R) = 0.
  2. An R-vertex seeing all of K would have degree k, so d_{k+1} >= k,
     against the maximality of k; so K is a maximal clique.
  3. Every valid clique side has size omega = k and, by the identity in
     1, the degree sum of K, so it is the vertices above the boundary
     degree plus h of those at it. The stable degree order puts the
     smallest ids first among equal degrees, so its first k vertices are
     the lexicographically smallest valid clique side.

Recognising a split graph thus reads only degrees, and the rows of the
independent vertices to list their clique neighbours.

A non-split graph is certified by shrinking it. Split graphs are closed
under induced subgraphs, and by Foldes and Hammer the minimal non-split
graphs are exactly 2K2, C4 and C5. So dropping vertices while the degree
identity keeps failing ends on one of the three, induced in the input.
Each round cuts the s survivors into six consecutive parts and drops, in
turn, every part whose removal keeps the graph non-split. An obstruction
has at most five vertices, so some part misses one that is still there
at the end of the round; that part was dropped, so a round removes at
least floor(s/6) vertices. A check is a bincount over the surviving
edges and a sort of the degrees: O(log n) rounds of at most six checks
cost O((n + m) log n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NotSplitError
from .graph import Graph


@dataclass(frozen=True)
class SplitPartition:
    """A (clique, independent) split of the vertices 0..n-1 of a graph.

    The clique side is maximal when split_partition returns the
    partition; the reduced views of structure.restrict_view need not be.
    delta_i is the maximum number of independent-set neighbors over clique
    vertices; v3 lists the clique vertices with exactly three. Vertex ids
    are host-graph ids throughout. The partition holds the edges between
    its two sides, which are all the solvers read of the graph.
    """

    n: int
    clique: tuple[int, ...]
    independent: tuple[int, ...]
    delta_i: int
    v3: tuple[int, ...]
    _n_i: dict[int, tuple[int, ...]] = field(repr=False, compare=False)
    _n_c: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    @classmethod
    def from_neighbor_map(cls, n: int, clique: tuple[int, ...],
                          independent: tuple[int, ...],
                          n_i: dict[int, tuple[int, ...]]) -> "SplitPartition":
        """Partition whose delta_i, v3 and clique neighbors are read off
        n_i, which maps each clique vertex with independent neighbors to
        them, sorted."""
        delta_i = max((len(xs) for xs in n_i.values()), default=0)
        v3 = tuple(sorted(v for v, xs in n_i.items() if len(xs) == 3))
        n_c: dict[int, list[int]] = {}
        for v in sorted(n_i):  # ascending, so each list comes out sorted
            for x in n_i[v]:
                n_c.setdefault(x, []).append(v)
        return cls(n=n, clique=clique, independent=independent,
                   delta_i=delta_i, v3=v3, _n_i=n_i,
                   _n_c={x: tuple(vs) for x, vs in n_c.items()})

    def indep_neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted independent-set neighbors of clique vertex v."""
        return self._n_i.get(v, ())

    def clique_neighbors(self, x: int) -> tuple[int, ...]:
        """Sorted clique neighbors of independent vertex x."""
        return self._n_c.get(x, ())


def _partition_from_clique(g: Graph, clique: list[int]) -> SplitPartition:
    cset = set(clique)
    independent = [v for v in range(g.n) if v not in cset]
    buckets: dict[int, list[int]] = {}
    for x in independent:
        for w in g.neighbors(x):
            buckets.setdefault(int(w), []).append(x)
    # xs ascending: the outer loop runs in ascending x
    n_i = {v: tuple(xs) for v, xs in buckets.items()}
    return SplitPartition.from_neighbor_map(g.n, tuple(sorted(clique)),
                                            tuple(independent), n_i)


def _validate_candidate(g: Graph, clique: list[int]) -> bool:
    """Complete check that (clique, rest) is a split partition with a
    maximal clique, from degrees in O(n).

    With k = |C| and I the rest, sum_C deg - sum_I deg = 2e(C) - 2e(I),
    which is k(k-1) iff e(C) = C(k,2) and e(I) = 0. Once I is
    independent, an I-vertex of degree k sees all of C.
    """
    k = len(clique)
    in_c = np.zeros(g.n, dtype=bool)
    in_c[clique] = True
    degs = g.degrees()
    rest = degs[~in_c]
    return (int(degs[in_c].sum()) == k * (k - 1) + int(rest.sum())
            and not bool((rest == k).any()))


def _degree_test(degs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Hammer-Simeone test on a degree array.

    Returns the canonical order (degree descending, id ascending), k and
    whether the degree identity holds. d_i - (i-1) strictly decreases
    along the order, so the indices with d_i >= i-1 form a prefix and k
    is their count.
    """
    order = np.argsort(-degs, kind="stable")
    d_sorted = degs[order]
    k = int(np.count_nonzero(d_sorted >= np.arange(d_sorted.size)))
    top = int(d_sorted[:k].sum())
    rest = int(d_sorted[k:].sum())
    return order, k, top == k * (k - 1) + rest


def _certificate(g: Graph) -> NotSplitError:
    """Shrink a non-split graph to an induced 2K2, C4 or C5.

    Each round cuts the alive vertices, ascending, into min(6, alive)
    consecutive parts and drops each part in turn whose removal leaves
    the degree identity failing. Within a round a dropped part stays in
    the degree array as isolated vertices, which never change the
    identity's verdict; edges are renumbered to the survivors once per
    round, so every array is sized to what is still alive.
    """
    eu, ev = g.edge_arrays()
    alive = np.arange(g.n)
    while True:
        size = alive.size
        parts = min(6, size)
        part = (np.arange(size) * parts // size).astype(np.int8)
        pu, pv = part[eu], part[ev]
        dropped = []
        for j in range(parts):
            keep = (pu != j) & (pv != j)
            degs = (np.bincount(eu[keep], minlength=size)
                    + np.bincount(ev[keep], minlength=size))
            if not _degree_test(degs)[2]:
                eu, ev, pu, pv = eu[keep], ev[keep], pu[keep], pv[keep]
                dropped.append(j)
        gone = np.zeros(parts, dtype=bool)
        gone[dropped] = True
        survivors = ~gone[part]
        local = np.cumsum(survivors, dtype=eu.dtype) - 1
        eu, ev, alive = local[eu], local[ev], alive[survivors]
        if parts == size:
            # each survivor of a round of single vertices is needed:
            # removing it left a split graph, and so do later drops
            break
    return _witness(alive.tolist(), list(zip(eu.tolist(), ev.tolist())))


def _witness(alive: list[int], edges: list[tuple[int, int]]) -> NotSplitError:
    """Name a minimal non-split graph: alive host ids, edges as local
    index pairs. By Foldes-Hammer it is a 2K2, C4 or C5."""
    adj: list[list[int]] = [[] for _ in alive]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    degrees = {len(nb) for nb in adj}
    if len(alive) == 4 and degrees == {1}:
        pairs = sorted((alive[a], alive[b]) for a, b in edges)
        return NotSplitError("2K2", pairs[0] + pairs[1])
    if len(alive) in (4, 5) and degrees == {2}:
        # cycle order from the smallest vertex, towards its smaller neighbour
        cycle = [0]
        while len(cycle) < len(alive):
            cycle.append(min(w for w in adj[cycle[-1]] if w not in cycle))
        kind = "C4" if len(alive) == 4 else "C5"
        return NotSplitError(kind, tuple(alive[v] for v in cycle))
    raise InvariantError(
        f"non-split graph shrank to {len(alive)} vertices and {len(edges)} "
        "edges, not a 2K2, C4 or C5")


def split_partition(g: Graph) -> SplitPartition:
    """Canonical split partition of g, or raise NotSplitError.

    The clique side is the first k vertices of the degree order (degree
    descending, id ascending): by the module docstring's argument it is
    a maximum clique, and the lexicographically smallest valid one, so
    the result is deterministic. Works on disconnected and empty graphs.
    """
    order, k, split = _degree_test(g.degrees())
    if not split:
        raise _certificate(g)
    clique = sorted(order[:k].tolist())
    if not _validate_candidate(g, clique):
        raise InvariantError("degree test passed but partition invalid")
    return _partition_from_clique(g, clique)
