import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitsteiner import Graph, bfs_tree, is_connected


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.degrees().tolist() == [1, 2, 2, 1]
    assert list(g.neighbors(1)) == [0, 2]
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 3)


def test_from_edges_takes_arrays_and_iterables():
    edges = [(2, 3), (0, 2), (0, 1), (3, 1)]
    g = Graph.from_edges(4, edges)
    assert Graph.from_edges(4, np.array(edges)) == g
    assert Graph.from_edges(4, np.array(edges, dtype=np.int32)) == g
    assert Graph.from_edges(4, iter(edges)) == g
    assert Graph.from_edges(2, np.zeros((0, 2), dtype=np.int64)) == Graph.from_edges(2, [])


def test_from_edges_rejects_bad_input():
    """The first bad pair in input order is reported, duplicates as the
    smallest repeated pair, for lists and arrays alike."""
    cases = [
        ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
        ([(1, 1)], "self-loop at vertex 1"),
        ([(0, 1), (1, 1), (0, 5)], "self-loop at vertex 1"),
        ([(0, 1), (5, 5), (1, 1)], r"edge \(5, 5\) out of range"),
        ([(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
        ([(2, 1), (0, 2), (1, 2), (2, 0)], r"duplicate edge \(0, 2\)"),
        ([(0, 1, 2)], "pairs"),
        ([(0, 2**70)], "out of range"),
    ]
    for edges, message in cases:
        for given in (edges, np.array(edges)):
            with pytest.raises(ValueError, match=message):
                Graph.from_edges(3, given)
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_from_edges_at_the_key_width_boundary():
    """n**2 crosses 2**31 between n = 46340 (int32 sort keys) and 46341
    (int64). At both, edges on the top ids give the CSR of the sorted
    pairs, with int32 indices, and a repeat gives the same message."""
    messages = set()
    for n in (46340, 46341):
        top = n - 1
        edges = [(top - 1, top), (0, top), (top - 3, top - 2), (1, top - 1),
                 (2, 46339), (0, 1), (top - 2, top)]
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(edges):
            rows[u].append(v)
            rows[v].append(u)
        g = Graph.from_edges(n, np.array(edges))
        assert g._indices.dtype == np.int32
        assert g._indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
        assert g._indices.tolist() == [w for r in rows for w in sorted(r)]
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(n, edges + [(46339, 2)])
        messages.add(str(exc.value))
    assert messages == {"duplicate edge (2, 46339)"}


def test_edges_iterates_lexicographically():
    g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_empty_and_single_vertex():
    g0 = Graph.from_edges(0, [])
    assert g0.m == 0 and is_connected(g0)
    g1 = Graph.from_edges(1, [])
    assert is_connected(g1)
    assert bfs_tree(g1, [0]) == ()


def test_is_connected_subsets():
    # path 0-1-2 plus isolated 3
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert not is_connected(g)
    assert is_connected(g, [0, 1, 2])
    assert is_connected(g, [0, 1])
    assert not is_connected(g, [0, 2])  # 1 is not in the subset
    assert is_connected(g, [3])
    assert is_connected(g, [])


def test_bfs_tree_deterministic_and_rooted_at_min():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    t1 = bfs_tree(g, range(5))
    t2 = bfs_tree(g, [4, 3, 2, 1, 0])
    assert t1 == t2
    assert len(t1) == 4
    assert t1[0][0] == 0  # root is the smallest id


def test_bfs_tree_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        bfs_tree(g, range(4))


@st.composite
def split_edge_lists(draw, max_n=10):
    """A split graph as (n, clique mask, cross pairs, all edges): a clique
    drawn anywhere among the ids, the rest independent."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    clique = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ids = np.flatnonzero(clique).tolist()
    rest = np.flatnonzero(~clique).tolist()
    pairs = [(min(c, x), max(c, x)) for c in ids for x in rest]
    cross = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                 if pairs else st.just([]))
    inside = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    return n, clique, cross, inside + cross


@given(split_edge_lists(), st.data())
@settings(max_examples=150)
def test_split_layout_matches_from_edges(case, data):
    """A graph stored as a clique mask plus its cross edges answers every
    query as the full CSR of the same edges does."""
    n, clique, cross, edges = case
    full = Graph.from_edges(n, edges)
    pairs = np.array(cross, dtype=np.int64).reshape(-1, 2)
    g = Graph.from_cross_edges(clique, [pairs])
    assert g._indices.size == 2 * len(cross)
    assert g == full and full == g
    assert (g.n, g.m) == (full.n, full.m)
    assert g.degrees().tolist() == full.degrees().tolist()
    for v in range(n):
        assert g.neighbors(v).tolist() == full.neighbors(v).tolist()
    assert list(g.edges()) == list(full.edges())
    for a, b in zip(g.edge_arrays(), full.edge_arrays()):
        assert a.tolist() == b.tolist()
    assert is_connected(g) == is_connected(full)
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    assert is_connected(g, subset) == is_connected(full, subset)
    if is_connected(full, subset):
        assert bfs_tree(g, subset) == bfs_tree(full, subset)
    u = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)), dtype=np.int64)
    v = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=u.size,
                                    max_size=u.size)), dtype=np.int64)
    assert g.has_edges(u, v).tolist() == full.has_edges(u, v).tolist()
    assert [g.has_edge(a, b) for a, b in zip(u, v)] == full.has_edges(u, v).tolist()
    # one edge moved to a missing pair: same n and m, other edges
    missing = sorted({(a, b) for a in range(n) for b in range(a + 1, n)} - set(edges))
    if edges and missing:
        assert Graph.from_edges(n, edges[:-1] + missing[:1]) != g


@st.composite
def edge_lists(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                 if pairs else st.just([]))
    return n, edges


@given(edge_lists())
@settings(max_examples=100)
def test_adjacency_is_symmetric_and_sorted(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    assert g.m == len(edges)
    for v in range(n):
        nb = list(g.neighbors(v))
        assert nb == sorted(nb)
        for w in nb:
            assert v in g.neighbors(w)
    assert sorted(g.edges()) == sorted((min(u, v), max(u, v)) for u, v in edges)


@given(edge_lists())
@settings(max_examples=60)
def test_bfs_tree_spans_reachable_component(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    if not is_connected(g):
        return
    tree = bfs_tree(g, range(n))
    assert len(tree) == n - 1
    seen = {0}
    for u, v in tree:
        assert u in seen  # parents are discovered before children
        seen.add(v)
    assert seen == set(range(n))


@given(edge_lists(max_n=12), st.data())
@settings(max_examples=100)
def test_has_edges_matches_has_edge(case, data):
    """The batched lookup agrees with has_edge on every pair, in both
    orientations and with repeats, on graphs with isolated vertices too."""
    n, edges = case
    g = Graph.from_edges(n, edges)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=30))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    assert g.has_edges(u, v).tolist() == [g.has_edge(a, b) for a, b in pairs]
