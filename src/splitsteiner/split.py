"""Split-graph recognition and canonical clique/independent partitions.

Recognition uses the degree-sequence characterization: with degrees
d_1 >= ... >= d_n and k = max{i : d_i >= i-1}, the graph is split iff

    sum_{i<=k} d_i == k(k-1) + sum_{i>k} d_i,

in which case k vertices of largest degree form a maximum clique and the
rest are independent. The returned partition therefore always has a
maximum (hence maximal) clique side. Ties at the degree boundary can admit
several valid cliques; we return the lexicographically smallest one.

Non-split graphs always contain an induced 2K2, C4 or C5; the recognizer
hunts one down and attaches it to the error as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotSplitError
from .graph import Graph


@dataclass(frozen=True)
class SplitPartition:
    """A (clique, independent) split of a graph's vertices.

    The clique side is maximal when split_partition returns the
    partition; the reduced views of structure.restrict_view need not be.
    delta_i is the maximum number of independent-set neighbors over clique
    vertices; v3 lists the clique vertices with exactly three. Vertex ids
    are host-graph ids throughout.
    """

    graph: Graph = field(repr=False, compare=False)
    clique: tuple[int, ...]
    independent: tuple[int, ...]
    delta_i: int
    v3: tuple[int, ...]
    _n_i: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    @classmethod
    def from_neighbor_map(cls, graph: Graph, clique: tuple[int, ...],
                          independent: tuple[int, ...],
                          n_i: dict[int, tuple[int, ...]]) -> "SplitPartition":
        """Partition whose delta_i and v3 are read off n_i, which maps
        each clique vertex with independent neighbors to them, sorted."""
        delta_i = max((len(xs) for xs in n_i.values()), default=0)
        v3 = tuple(sorted(v for v, xs in n_i.items() if len(xs) == 3))
        return cls(graph=graph, clique=clique, independent=independent,
                   delta_i=delta_i, v3=v3, _n_i=n_i)

    def indep_neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted independent-set neighbors of clique vertex v."""
        return self._n_i.get(v, ())

    def indep_degree(self, v: int) -> int:
        return len(self._n_i.get(v, ()))


def _partition_from_clique(g: Graph, clique: list[int]) -> SplitPartition:
    cset = set(clique)
    independent = [v for v in range(g.n) if v not in cset]
    buckets: dict[int, list[int]] = {}
    for x in independent:
        for w in g.neighbors(x):
            buckets.setdefault(int(w), []).append(x)
    # xs ascending: the outer loop runs in ascending x
    n_i = {v: tuple(xs) for v, xs in buckets.items()}
    return SplitPartition.from_neighbor_map(g, tuple(sorted(clique)),
                                            tuple(independent), n_i)


def _validate_candidate(g: Graph, clique: list[int]) -> bool:
    """Cheap complete check that (clique, rest) is a split partition with a
    maximal clique. Runs in O(n + independent-side degree sum)."""
    k = len(clique)
    in_c = np.zeros(g.n, dtype=bool)
    in_c[clique] = True
    degs = g.degrees()
    cross = 0
    for x in range(g.n):
        if in_c[x]:
            continue
        nb = g.neighbors(x)
        if nb.size and not bool(np.all(in_c[nb])):
            return False  # edge inside the independent side
        cross += int(nb.size)
        if int(nb.size) == k:
            return False  # adjacent to the whole clique: not maximal
    clique_deg_sum = int(degs[in_c].sum()) if k else 0
    return clique_deg_sum - cross == k * (k - 1)


def _resolve_boundary_tie(g: Graph, mandatory: list[int], pool: list[int],
                          h: int) -> list[int] | None:
    """Pick h pool vertices completing `mandatory` to a valid clique side.

    Boundary ties only occur when pool degrees equal k-1, so an included
    vertex is adjacent to exactly the rest of the clique. That forces each
    valid inclusion set S to equal {t} | (N(t) & pool) for every t in S,
    which leaves at most |pool| candidate sets to test. Returns the
    lexicographically smallest valid one, or None.
    """
    mset = set(mandatory)
    pset = set(pool)
    if h == 0:
        return [] if _validate_candidate(g, mandatory) else None
    best: list[int] | None = None
    seen: set[tuple[int, ...]] = set()
    for t in sorted(pool):
        nb = set(g.neighbor_list(t))
        if not (mset <= nb and nb <= mset | pset):
            continue
        cand = sorted({t} | (nb & pset))
        key = tuple(cand)
        if key in seen or len(cand) != h:
            continue
        seen.add(key)
        if _validate_candidate(g, mandatory + cand):
            if best is None or cand < best:
                best = cand
    return best


def _find_obstruction(g: Graph) -> NotSplitError:
    """Locate an induced 2K2, C4 or C5 in a non-split graph."""
    adj = [set(g.neighbor_list(v)) for v in range(g.n)]
    edges = list(g.edges())
    # induced 2K2: two edges with no endpoints shared or adjacent
    for i, (a, b) in enumerate(edges):
        ab = adj[a] | adj[b] | {a, b}
        for c, d in edges[i + 1:]:
            if c not in ab and d not in ab:
                return NotSplitError("2K2", (a, b, c, d))
    # induced C4: non-adjacent u,v with two non-adjacent common neighbors
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v in adj[u]:
                continue
            common = sorted(adj[u] & adj[v])
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    if y not in adj[x]:
                        return NotSplitError("C4", (u, x, v, y))
    # induced C5: a-b-c-d-e-a with no chords
    for a in range(g.n):
        for b in sorted(adj[a]):
            for c in sorted(adj[b] - adj[a] - {a}):
                for d in sorted(adj[c] - adj[b] - adj[a] - {b}):
                    for e in sorted((adj[d] & adj[a]) - adj[b] - adj[c]):
                        if e != a and e != b:
                            return NotSplitError("C5", (a, b, c, d, e))
    raise AssertionError("non-split graph without 2K2/C4/C5 obstruction")


def split_partition(g: Graph) -> SplitPartition:
    """Canonical split partition of g, or raise NotSplitError.

    The clique side is a maximum clique; among valid choices the
    lexicographically smallest clique vertex set is returned, so the
    result is deterministic. Works on disconnected graphs too.
    """
    if g.n == 0:
        return _partition_from_clique(g, [])
    degs = g.degrees()
    # sort by degree descending, id ascending
    order = sorted(range(g.n), key=lambda v: (-int(degs[v]), v))
    d_sorted = [int(degs[v]) for v in order]
    k = 0
    for i in range(g.n):
        if d_sorted[i] >= i:
            k = i + 1
    top = sum(d_sorted[:k])
    rest = sum(d_sorted[k:])
    if top != k * (k - 1) + rest:
        raise _find_obstruction(g)
    dk = d_sorted[k - 1]
    mandatory = [v for v in range(g.n) if int(degs[v]) > dk]
    pool = [v for v in range(g.n) if int(degs[v]) == dk]
    h = k - len(mandatory)
    if h == len(pool):
        clique = sorted(mandatory + pool)
        if not _validate_candidate(g, clique):
            raise AssertionError("degree test passed but partition invalid")
        return _partition_from_clique(g, clique)
    chosen = _resolve_boundary_tie(g, mandatory, pool, h)
    if chosen is None:
        raise AssertionError("degree test passed but no tie resolution found")
    return _partition_from_clique(g, sorted(mandatory + chosen))
