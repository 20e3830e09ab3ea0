from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from splitsteiner import (
    GeneratorConfig,
    Graph,
    alpha_capped,
    build_labeled_graph,
    gen_split,
    maximum_matching,
    restrict_view,
    split_partition,
)
from splitsteiner.matching import matching_of_edges
from helpers import brute_matching


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _assert_valid(g, m):
    seen = set()
    edge_set = set(g.edges())
    for u, v in m.edges:
        assert u < v
        assert (u, v) in edge_set
        assert u not in seen and v not in seen
        seen.update((u, v))
    assert m.edges == tuple(sorted(m.edges))
    assert len(seen) == 2 * m.size


@pytest.mark.parametrize("g, size", [
    (path(3), 1),
    (path(4), 2),
    (cycle(5), 2),
    (cycle(7), 3),
    (cycle(9), 4),
    (Graph.from_edges(4, list(combinations(range(4), 2))), 2),  # K4
    (Graph.from_edges(3, []), 0),
    (Graph.from_edges(0, []), 0),
])
def test_pinned_sizes(g, size):
    m = maximum_matching(g)
    assert m.size == size
    _assert_valid(g, m)


def test_triangle_with_tail():
    # augmenting from the tail must shrink the odd cycle
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    assert maximum_matching(g).edges == ((0, 1), (2, 3), (4, 5))


def test_flower():
    # two triangles bridged through a middle vertex; alpha = 3
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                             (4, 5), (5, 6), (6, 4)])
    m = maximum_matching(g)
    assert m.edges == ((0, 1), (2, 3), (4, 5))
    _assert_valid(g, m)


def test_petersen_has_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = Graph.from_edges(10, outer + inner + spokes)
    m = maximum_matching(g)
    assert m.edges == ((0, 1), (2, 3), (4, 9), (5, 7), (6, 8))
    _assert_valid(g, m)


@pytest.mark.parametrize("g, edges", [
    (cycle(9), ((0, 1), (2, 3), (4, 5), (6, 7))),
    (Graph.from_edges(4, list(combinations(range(4), 2))), ((0, 1), (2, 3))),
    # a triangle with a tail, a C5 and an edge, apart, among isolated
    # vertices 0, 5 and 7
    (Graph.from_edges(16, [(1, 4), (4, 6), (6, 1), (6, 9), (9, 11), (11, 12),
                           (3, 8), (8, 13), (13, 15), (15, 10), (10, 3),
                           (2, 14)]),
     ((1, 4), (2, 14), (3, 8), (6, 9), (10, 15), (11, 12))),
])
def test_pinned_matchings(g, edges):
    """The exact matchings, so that a change of search order shows."""
    m = maximum_matching(g)
    assert m.edges == edges
    _assert_valid(g, m)


def test_isolated_vertices_are_free():
    g = Graph.from_edges(9, [(2, 7)])
    m = maximum_matching(g)
    assert m.edges == ((2, 7),)


def test_deterministic():
    g = cycle(9)
    assert maximum_matching(g).edges == maximum_matching(g).edges


@st.composite
def small_graphs(draw, unique=True):
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=unique, max_size=20)
                 if pairs else st.just([]))
    return n, picks


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_matches_bruteforce(data):
    n, edges = data
    g = Graph.from_edges(n, edges)
    m = maximum_matching(g)
    _assert_valid(g, m)
    assert m.size == brute_matching(n, edges)


@given(small_graphs(unique=False))
@settings(max_examples=300, deadline=None)
def test_capped_size(data):
    # the 3-split probe's survivor pairs can repeat an edge
    n, edges = data
    assert alpha_capped(edges) == min(brute_matching(n, edges), 2)


def _networkx_size(n, edges):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_matches_networkx(data):
    n, edges = data
    assert maximum_matching(Graph.from_edges(n, edges)).size == \
        _networkx_size(n, edges)


def _generator_labeled_graphs():
    """Labeled graphs the solvers match on, over level-2 and K_(1,4)-free
    level-3 generator instances: the whole partition at level 2; at
    level 3, the view without each V_3 center's neighborhood and the view
    without V_3."""
    for level, sizes in ((2, ((4, 6), (5, 8), (6, 6), (10, 15), (16, 30))),
                         (3, ((6, 4), (3, 5), (4, 7), (6, 8), (5, 6), (7, 7),
                              (8, 9), (9, 10), (10, 12)))):
        for a, b in sizes:
            for seed in range(8):
                cfg = GeneratorConfig(clique_size=a, independent_size=b,
                                      level=level, k14_free=level == 3,
                                      seed=seed)
                g = gen_split(cfg).graph
                sp = split_partition(g)
                if level == 2:
                    views = [sp]
                else:
                    views = [restrict_view(sp, drop_indep=sp.indep_neighbors(x))
                             for x in sp.v3]
                    views.append(restrict_view(sp, drop_clique=sp.v3))
                for view in views:
                    lg = build_labeled_graph(view)
                    yield g.n, [(u, v) for u, v, _ in lg.labeled_edges]


def test_generator_labeled_graphs_match_networkx():
    sizes = set()
    for n, edges in _generator_labeled_graphs():
        m = maximum_matching(Graph.from_edges(n, edges))
        assert matching_of_edges(edges) == m  # the solvers' call, without a Graph
        assert m.size == _networkx_size(n, edges)
        sizes.add(m.size)
    assert max(sizes) >= 4  # not only the capped 3-split matchings
