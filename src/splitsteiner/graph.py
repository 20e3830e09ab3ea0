"""Undirected simple graphs over vertices 0..n-1.

Adjacency is kept in CSR form (two numpy arrays), in one of two layouts:

  generic  the CSR of every edge;
  split    a clique mask and the CSR of the edges between the clique
           and the rest only. The clique is complete and the rest is
           independent, so the clique's own pairs are implied.

A split graph on 50,000 vertices carries ~1.4e8 clique edges, which the
split layout never stores: its arrays are sized by n and by the cross
edges. Both layouts answer the same queries with the same results.
from_edges builds the generic layout and from_cross_edges the split
one, which the parse of split input, gen_split and reduce_x3c use. All
neighbor lists are sorted ascending, which the BFS helpers rely on for
deterministic output.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("n", "_indptr", "_indices", "_clique", "_clique_ids", "_degrees")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 clique: np.ndarray | None = None):
        # Trusted constructor: callers must supply symmetric, sorted,
        # loop-free CSR data; with clique, a bool mask of n vertices, the
        # CSR holds only the edges between the clique and the rest. Use
        # from_edges for validated construction.
        self.n = n
        self._indptr = indptr
        self._indices = indices
        self._clique = clique
        self._degrees = np.diff(indptr)
        if clique is None:
            self._clique_ids = None
        else:
            self._clique_ids = np.flatnonzero(clique).astype(indices.dtype)
            self._degrees[clique] += len(self._clique_ids) - 1
        self._degrees.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int,
                   edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an (m, 2) integer array or an iterable of
        pairs, validating simplicity.

        Raises ValueError on out-of-range endpoints, self-loops and
        duplicate edges (either orientation), reporting the first
        offending pair in input order (duplicates: the smallest pair).
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        try:
            pairs = _as_pairs(edges)
        except OverflowError as exc:
            raise ValueError(f"edge endpoint out of range for n={n}") from exc
        src, dst = pairs[:, 0], pairs[:, 1]
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n)
                             | (src == dst))
        if bad.size:
            u, v = int(src[bad[0]]), int(dst[bad[0]])
            if u == v and 0 <= u < n:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        return cls(n, *_csr(n, [pairs], len(pairs)))

    @classmethod
    def from_cross_edges(cls, clique: np.ndarray,
                         pieces: Sequence[np.ndarray]) -> "Graph":
        """The split-layout graph on len(clique) vertices whose clique, a
        bool mask, is complete, whose other vertices are independent, and
        whose edges between the two are the rows of pieces, (k, 2) arrays
        of ids with one end in the clique each. Raises RepeatedEdgeError
        when a row repeats; nothing else is checked."""
        n = len(clique)
        return cls(n, *_csr(n, pieces, sum(map(len, pieces))), clique=clique)

    @property
    def m(self) -> int:
        k = 0 if self._clique_ids is None else len(self._clique_ids)
        return len(self._indices) // 2 + k * (k - 1) // 2

    def degrees(self) -> np.ndarray:
        """Degree of each vertex, read-only."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v; a view of the CSR unless v is in a
        split layout's clique, whose row is the rest of the clique merged
        with its cross edges."""
        row = self._indices[self._indptr[v]:self._indptr[v + 1]]
        if self._clique is None or not self._clique[v]:
            return row
        ids = self._clique_ids
        row = np.concatenate((ids[ids != v], row))
        row.sort(kind="stable")  # two sorted runs: merged, not sorted afresh
        return row

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Adjacency of each pair u[i], v[i], ids in range, by one bisection
        of the CSR rows of all the u[i] at once (and the clique mask)."""
        lo, end = self._indptr[u], self._indptr[u + 1]
        if not self._indices.size:
            found = np.zeros(len(lo), dtype=bool)
        else:
            hi = end.copy()
            while (open_ := lo < hi).any():
                mid = (lo + hi) >> 1
                below = self._indices.take(mid, mode="clip") < v
                lo = np.where(open_ & below, mid + 1, lo)
                hi = np.where(open_ & ~below, mid, hi)
            found = (lo < end) & (self._indices.take(lo, mode="clip") == v)
        if self._clique is not None:
            found |= self._clique[u] & self._clique[v] & (u != v)
        return found

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            nb = self.neighbors(u)
            start = int(np.searchsorted(nb, u + 1))
            for w in nb[start:]:
                yield (u, int(w))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge once as arrays (u, v) with u < v, in edges() order."""
        src = np.repeat(np.arange(self.n, dtype=self._indices.dtype),
                        np.diff(self._indptr))
        dst = self._indices
        if self._clique_ids is not None:
            ids = self._clique_ids
            iu, ju = np.triu_indices(len(ids), 1)
            src = np.concatenate((src, ids[iu]))
            dst = np.concatenate((dst, ids[ju]))
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        upper = src < dst
        return src[upper], dst[upper]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # equal edge sets, whatever the layouts
        return (self.n == other.n and self.m == other.m
                and all(map(np.array_equal, self.edge_arrays(), other.edge_arrays())))

    def __hash__(self):  # pragma: no cover - graphs are not hashed
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class RepeatedEdgeError(ValueError):
    """A graph's edges repeat a pair."""


def _csr(n: int, pieces: Iterable[np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the simple graph on n vertices whose m edges
    are the rows of pieces, (k, 2) integer arrays of ids in [0, n) with
    no self-loop, taken one at a time. Raises RepeatedEdgeError naming
    the smallest repeated pair, in either orientation.

    One key per orientation, u * n + v, is written straight from the
    pieces into one array, int32 when n**2 fits, and sorted in place:
    row-major order is CSR order, a repeated edge shows up as two equal
    neighbouring keys, and int32 keys reduced mod n in place are the
    CSR indices.
    """
    key_type = np.int32 if n * n < 2**31 else np.int64
    keys = np.empty(2 * m, dtype=key_type)
    at = 0
    for p in pieces:
        for src, dst, start in ((p[:, 0], p[:, 1], at), (p[:, 1], p[:, 0], at + m)):
            out = keys[start:start + len(p)]
            np.multiply(src, n, out=out, dtype=key_type)
            out += dst
        at += len(p)
    keys.sort()
    same = np.flatnonzero(keys[1:] == keys[:-1])
    if same.size:
        u, v = divmod(int(keys[same[0]]), n)
        del keys, out  # the traceback keeps this frame alive
        raise RepeatedEdgeError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
    # needles of the keys' dtype, or numpy casts every key to int64
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=key_type) * n)
    indices = keys if key_type is np.int32 else np.empty(2 * m, dtype=np.int32)
    np.remainder(keys, max(n, 1), out=indices)
    return indptr, indices


def _as_pairs(edges: np.ndarray | Iterable[tuple[int, int]]) -> np.ndarray:
    """Edges as an (m, 2) int32 or int64 array; ValueError unless each is a pair."""
    if isinstance(edges, np.ndarray):
        # int32 and int64 rows are used without a copy
        pairs = edges if edges.dtype in (np.int32, np.int64) else edges.astype(np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
    else:
        # flattening the pairs in C is several times faster than
        # np.array on a list of tuples
        listed = list(edges)
        if listed and set(map(len, listed)) != {2}:
            raise ValueError("edges must be (u, v) pairs")
        pairs = np.fromiter(chain.from_iterable(listed), dtype=np.int64,
                            count=2 * len(listed)).reshape(-1, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return pairs


def _bfs(g: Graph, subset: Iterable[int]) -> tuple[list[tuple[int, int]], int, int]:
    """BFS over the induced subgraph on `subset`.

    Returns (tree edges in discovery order, number visited, subset size).
    Root is the smallest subset vertex; neighbors are explored ascending.
    """
    sub = sorted(set(subset))
    if not sub:
        return [], 0, 0
    if sub[0] < 0 or sub[-1] >= g.n:
        raise ValueError("subset contains out-of-range vertex ids")
    eligible = np.zeros(g.n, dtype=bool)
    eligible[sub] = True
    root = sub[0]
    eligible[root] = False
    q: deque[int] = deque([root])
    edges: list[tuple[int, int]] = []
    visited = 1
    while q:
        u = q.popleft()
        nb = g.neighbors(u)
        new = nb[eligible[nb]]
        if new.size:
            eligible[new] = False
            visited += int(new.size)
            for w in new.tolist():
                edges.append((u, w))
                q.append(w)
    return edges, visited, len(sub)


def is_connected(g: Graph, subset: Iterable[int] | None = None) -> bool:
    """True iff the induced subgraph on `subset` (default: all vertices)
    is connected. The empty set and singletons count as connected.

    A whole split-layout graph is read from its degrees: its clique is
    complete and every other vertex with an edge sees the clique, so it
    is connected iff n <= 1 or no vertex has degree 0."""
    if subset is None:
        if g._clique is not None:
            return g.n <= 1 or bool(g.degrees().min() > 0)
        subset = range(g.n)
    _, visited, size = _bfs(g, subset)
    return visited == size


def bfs_tree(g: Graph, subset: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Spanning tree of the induced subgraph on `subset` via BFS.

    Edges are (parent, child) in discovery order; the root is the smallest
    vertex id in the subset and neighbors are explored in ascending order,
    so the output is deterministic. Raises ValueError if the induced
    subgraph is disconnected.
    """
    edges, visited, size = _bfs(g, subset)
    if visited != size:
        raise ValueError(
            f"subset induces a disconnected subgraph ({visited} of {size} reachable)")
    return tuple(edges)
