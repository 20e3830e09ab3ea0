"""Recognition agrees with brute force on every graph up to 6 vertices,
certificates are verified as genuine induced obstructions, the canonical
partition is pinned on small named graphs and matches the boundary-tie
search it replaced, and recognition reads no clique row."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitsteiner import (
    GeneratorConfig,
    Graph,
    NotSplitError,
    gen_split,
    split_partition,
)
from helpers import (
    assert_obstruction_is_real,
    brute_is_split,
    graph_from_masks,
    masks_from_graph,
    reference_obstruction,
    reference_split_clique,
    split_corpus,
)


def _partition_invariants(masks, sp):
    cset, iset = set(sp.clique), set(sp.independent)
    assert cset | iset == set(range(len(masks)))
    assert not cset & iset
    for u, v in combinations(sp.clique, 2):
        assert masks[u] >> v & 1
    for u, v in combinations(sp.independent, 2):
        assert not masks[u] >> v & 1
    # maximality: no independent vertex sees the whole clique
    for u in sp.independent:
        assert not cset or any(not masks[u] >> w & 1 for w in sp.clique)
    degs = {v: len(sp.indep_neighbors(v)) for v in sp.clique}
    assert sp.delta_i == (max(degs.values()) if degs else 0)
    assert sp.v3 == tuple(sorted(v for v, d in degs.items() if d == 3))


def test_p3_partition_pinned():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    sp = split_partition(g)
    assert sp.clique == (0, 1)
    assert sp.independent == (2,)
    assert sp.delta_i == 1


def test_p4_partition_pinned():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sp = split_partition(g)
    assert sp.clique == (1, 2)
    assert sp.independent == (0, 3)
    assert sp.delta_i == 1


def test_star_partition():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sp = split_partition(g)
    assert sp.clique == (0, 1)  # lex-smallest valid completion of the tie
    assert sp.delta_i == 2


def test_complete_graph_is_all_clique():
    g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sp = split_partition(g)
    assert sp.clique == (0, 1, 2, 3)
    assert sp.independent == ()
    assert sp.delta_i == 0


def test_edgeless_graph():
    g = Graph.from_edges(3, [])
    sp = split_partition(g)
    assert sp.clique == (0,)
    assert sp.independent == (1, 2)


@pytest.mark.parametrize("edges,kind", [
    ([(0, 1), (1, 2), (2, 3), (0, 3)], "C4"),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], "C5"),
    ([(0, 1), (2, 3)], "2K2"),
])
def test_obstructions(edges, kind):
    n = max(max(e) for e in edges) + 1
    g = Graph.from_edges(n, edges)
    with pytest.raises(NotSplitError) as exc:
        split_partition(g)
    assert exc.value.kind == kind
    assert_obstruction_is_real(g, exc.value)


def test_every_graph_up_to_6_vertices():
    """Exhaustive cross-check of the recognizer against subset search."""
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for sub in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if sub >> i & 1]
            g = Graph.from_edges(n, edges)
            masks = masks_from_graph(g)
            try:
                sp = split_partition(g)
            except NotSplitError as err:
                assert not brute_is_split(masks), (n, edges)
                assert_obstruction_is_real(g, err)
            else:
                assert brute_is_split(masks), (n, edges)
                _partition_invariants(masks, sp)
                assert sp.clique == reference_split_clique(g), (n, edges)


@st.composite
def tied_split_graphs(draw):
    """A split graph, |C| and |I| up to 40 and ids shuffled, built for
    ties at the boundary degree. Either clique vertex c* = 0 has no
    cross edges and at least one I-vertex sees exactly C - c*, so both
    have degree |C| - 1 and tie; or cross edges are sparse, so ties are
    common."""
    a = draw(st.integers(min_value=1, max_value=40))
    b = draw(st.integers(min_value=1, max_value=40))
    n = a + b
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(u, v) for u in range(a) for v in range(u + 1, a)}
    if draw(st.booleans()):
        twins = draw(st.integers(min_value=1, max_value=b))
        edges |= {(u, x) for u in range(1, a) for x in range(a, a + twins)}
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        # the other I-vertices miss c* too, so none sees all of C
        edges |= {(u, x) for u in range(1, a) for x in range(a + twins, n)
                  if rng.random() < density}
    else:
        density = draw(st.floats(min_value=0.0, max_value=0.1))
        edges |= {(u, x) for u in range(a) for x in range(a, n)
                  if rng.random() < density}
    perm = rng.permutation(n)
    return Graph.from_edges(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


@given(tied_split_graphs())
@settings(max_examples=150, deadline=None)
def test_degree_order_matches_tie_search(g):
    sp = split_partition(g)
    _partition_invariants(masks_from_graph(g), sp)
    assert sp.clique == reference_split_clique(g)


def test_recognition_reads_no_clique_row(monkeypatch):
    """split_partition on a split graph reads degrees and the rows of
    independent vertices, never the row of a clique vertex."""
    graphs = [Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])]  # K_{1,3}
    graphs += [graph_from_masks(n, masks) for n, masks in split_corpus(5)]
    graphs += [gen_split(GeneratorConfig(clique_size=12, independent_size=10,
                                         level=level, seed=seed)).graph
               for level in (1, 2, 3) for seed in range(3)]
    read: list[int] = []
    neighbors = Graph.neighbors

    def spy(self, v):
        read.append(int(v))
        return neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", spy)
    for g in graphs:
        read.clear()
        sp = split_partition(g)
        assert not set(read) & set(sp.clique), (g, sp.clique)


def test_partition_is_deterministic(corpus7):
    sample = corpus7[::37]
    for n, masks in sample:
        g = graph_from_masks(n, masks)
        a = split_partition(g)
        b = split_partition(g)
        assert a.clique == b.clique and a.independent == b.independent


@st.composite
def random_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)) if pairs else st.just([]))
    return Graph.from_edges(n, edges)


@given(random_graphs())
@settings(max_examples=150)
def test_recognizer_matches_brute_force(g):
    masks = masks_from_graph(g)
    try:
        sp = split_partition(g)
    except NotSplitError as err:
        assert not brute_is_split(masks)
        assert_obstruction_is_real(g, err)
    else:
        assert brute_is_split(masks)
        _partition_invariants(masks, sp)


@st.composite
def near_split_graphs(draw):
    """A random split graph, |C| and |I| up to 40 and ids shuffled, with
    one to three vertex pairs flipped between edge and non-edge."""
    a = draw(st.integers(min_value=0, max_value=40))
    b = draw(st.integers(min_value=0, max_value=40))
    n = a + b
    if n < 2:
        return Graph.from_edges(n, [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    edges = {(u, v) for u in range(a) for v in range(u + 1, a)}
    edges |= {(u, x) for u in range(a) for x in range(a, n)
              if rng.random() < density}
    sides = [range(a), range(a, n), range(n)]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        # inside C, inside I, or anywhere; a side too small to hold a
        # pair falls back to anywhere
        side = sides[draw(st.integers(min_value=0, max_value=2))]
        side = side if len(side) >= 2 else sides[2]
        u, v = sorted(rng.choice(side, size=2, replace=False).tolist())
        edges ^= {(u, v)}
    perm = rng.permutation(n)
    return Graph.from_edges(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


@given(st.one_of(near_split_graphs(), random_graphs(max_n=12)))
@settings(max_examples=150, deadline=None)
def test_certificate_matches_reference(g):
    try:
        expected = reference_obstruction(g)
    except AssertionError:  # the reference found no obstruction: split
        expected = None
    try:
        split_partition(g)
    except NotSplitError as err:
        assert expected is not None
        assert_obstruction_is_real(g, err)
        with pytest.raises(NotSplitError) as again:
            split_partition(g)
        assert (again.value.kind, again.value.vertices) == (err.kind, err.vertices)
    else:
        assert expected is None
