"""Maximum matching in general graphs (Edmonds' blossom algorithm).

The labeled graphs this is used on live on the independent side of a
split partition: many vertices, few edges, lots of isolated vertices.
The adjacency and the match state therefore hold only the vertices with
an edge, matching_of_edges takes the labeled edges without a graph, and
after a greedy warm start each exposed vertex gets one augmenting-path
search whose bookkeeping covers only the vertices that search reaches,
so isolated vertices and saturated components cost nothing.

alpha_capped answers the only question the 3-split solver's V_3 probe
asks, "is alpha 0, 1, or at least 2?", of a link-graph kernel (at most
45 edges) with a triple's other two vertices deleted, straight from an
edge list, without building a graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges, stored as (u, v) with u < v."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def _augment(adj: dict[int, list[int]], match: dict[int, int], root: int) -> bool:
    """One blossom-contracting BFS for an augmenting path from root.

    match is flipped along the path on success. p is the BFS parent on
    even levels and base maps a vertex to the base of its contracted
    blossom; both hold only the vertices the search reaches, and a vertex
    missing from base is its own base.
    """
    p: dict[int, int] = {}
    base: dict[int, int] = {}
    used = {root}
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        on_path = set()
        while True:
            a = base.get(a, a)
            on_path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base.get(b, b)
            if b in on_path:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base.get(v, v) != b:
            blossom.add(base.get(v, v))
            blossom.add(base.get(match[v], match[v]))
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base.get(v, v) == base.get(to, to) or match[v] == to:
                continue
            if to == root or (match[to] != -1 and match[to] in p):
                # odd cycle: contract the blossom to its base vertex
                cur = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                # every blossom vertex is reached; ascending order fixes
                # the queue order, so the matching is deterministic
                for i in sorted(used.union(p)):
                    if base.get(i, i) in blossom:
                        base[i] = cur
                        if i not in used:
                            used.add(i)
                            queue.append(i)
            elif to not in p:
                p[to] = v
                if match[to] == -1:
                    # augmenting path found; flip matched/unmatched edges
                    while to != -1:
                        pv = p[to]
                        nxt = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = nxt
                    return True
                used.add(match[to])
                queue.append(match[to])
    return False


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching of g, deterministic for a given
    graph (warm start and search roots run in ascending order)."""
    src, dst = g.edge_arrays()
    return matching_of_edges(zip(src.tolist(), dst.tolist()))


def matching_of_edges(edges: Iterable[tuple[int, int]]) -> Matching:
    """maximum_matching of the graph whose edges are the given pairs
    (u, v), u < v, ascending and without repeats, without building it."""
    adj: dict[int, list[int]] = {}
    # edges come in (u, v) order with u < v, so each list is ascending
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    active = sorted(adj)
    match = dict.fromkeys(active, -1)
    for v in active:  # greedy warm start
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    for v in active:
        # a vertex left exposed by a failed search stays exposed in some
        # maximum matching, so one attempt per vertex suffices
        if match[v] == -1:
            _augment(adj, match, v)
    return Matching(edges=tuple((v, match[v]) for v in active if v < match[v]))


def alpha_capped(edges: list[tuple[int, int]]) -> int:
    """min(maximum matching size, 2) of the given edges; repeated edges
    are allowed."""
    if not edges:
        return 0
    a, b = edges[0]
    pa: set[int] = set()
    pb: set[int] = set()
    for x, y in edges[1:]:
        if x != a and x != b and y != a and y != b:
            return 2  # disjoint from the first edge
        if a in (x, y):
            other = y if x == a else x
            if other != b:
                pa.add(other)
        if b in (x, y):
            other = y if x == b else x
            if other != a:
                pb.add(other)
    # every edge meets {a, b}: a second matched edge needs one edge off
    # each endpoint, with distinct far ends
    if pa and pb and (len(pa) > 1 or len(pb) > 1 or pa != pb):
        return 2
    return 1
