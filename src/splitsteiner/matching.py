"""Maximum matching in general graphs (Edmonds' blossom algorithm).

The labeled graphs this is used on live on the independent side of a
split partition: many vertices, few edges, lots of isolated vertices.
The implementation therefore runs one augmenting-path search per
connected component after a greedy warm start, so isolated vertices and
already-saturated components cost nothing.

alpha_capped answers the only question the 3-split solver's V_3 probe
asks, "is alpha 0, 1, or at least 2?", of a link-graph kernel (at most
45 edges) with a triple's other two vertices deleted, straight from an
edge list, without building a graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges, stored as (u, v) with u < v."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def covered(self) -> set[int]:
        return {v for e in self.edges for v in e}


def _components(g: Graph, active: list[int]) -> list[list[int]]:
    """Connected components among the given vertices, each sorted."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in active:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbor_list(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _augment(adj: list[list[int]], match: list[int], root: int) -> bool:
    """One blossom-contracting BFS for an augmenting path from root.

    match is flipped along the path on success. Standard arrays: p is
    the BFS parent on even levels, base maps a vertex to the base of its
    contracted blossom.
    """
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # odd cycle: contract the blossom to its base vertex
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
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
                used[match[to]] = True
                queue.append(match[to])
    return False


def _solve_component(g: Graph, comp: list[int],
                     out: list[tuple[int, int]]) -> None:
    local = {v: i for i, v in enumerate(comp)}
    adj: list[list[int]] = [[] for _ in comp]
    for i, v in enumerate(comp):
        adj[i] = [local[w] for w in g.neighbor_list(v) if w in local]
    match = [-1] * len(comp)
    for i in range(len(comp)):  # greedy warm start
        if match[i] == -1:
            for j in adj[i]:
                if match[j] == -1:
                    match[i] = j
                    match[j] = i
                    break
    for i in range(len(comp)):
        # a vertex left exposed by a failed search stays exposed in some
        # maximum matching, so one attempt per vertex suffices
        if match[i] == -1:
            _augment(adj, match, i)
    for i, j in enumerate(match):
        if i < j:
            out.append((comp[i], comp[j]))


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching of g, deterministic for a given
    graph (components and roots are processed in ascending order)."""
    active = [v for v in range(g.n) if g.degree(v) > 0]
    out: list[tuple[int, int]] = []
    for comp in _components(g, active):
        _solve_component(g, comp, out)
    return Matching(edges=tuple(sorted(out)))


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
