from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from splitsteiner import (
    GeneratorConfig,
    Graph,
    LabeledGraph,
    SplitPartition,
    StarWitness,
    SteinerInstance,
    build_labeled_graph,
    corresponding_clique_set,
    corresponding_vertex_set,
    find_induced_star,
    gen_split,
    prune,
    restrict_view,
    split_partition,
)
from helpers import (
    adversarial_partition,
    brute_find_star,
    graph_from_masks,
    masks_from_graph,
    reference_find_star,
    set_connected,
    split_corpus,
)

# clique {0,1,2}; 3,4 share 0; 4,5 share 1
TRI_HOST = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                (0, 3), (0, 4), (1, 4), (1, 5)])


def _assert_star_is_real(masks, w, r):
    assert len(w.leaves) == r
    for leaf in w.leaves:
        assert masks[w.center] >> leaf & 1
    for a, b in combinations(w.leaves, 2):
        assert not masks[a] >> b & 1


def test_claw_in_star_graph():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sp = split_partition(g)
    w = find_induced_star(sp, 3)
    assert w is not None and w.center == 0
    assert set(w.leaves) == {1, 2, 3}
    _assert_star_is_real(masks_from_graph(g), w, 3)
    assert find_induced_star(sp, 4) is None


def test_claw_via_clique_leaf():
    # the third leaf of the claw at 0 is the clique vertex 2
    sp = split_partition(TRI_HOST)
    assert sp.clique == (0, 1, 2)
    w = find_induced_star(sp, 3)
    assert w is not None
    _assert_star_is_real(masks_from_graph(TRI_HOST), w, 3)


def test_star_requires_r_at_least_3():
    sp = split_partition(TRI_HOST)
    with pytest.raises(ValueError):
        find_induced_star(sp, 2)


def test_characterization_positive_2split():
    # every host pair meets every clique neighborhood -> claw-free
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                             (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5)])
    sp = split_partition(g)
    assert sp.delta_i == 2
    assert find_induced_star(sp, 3) is None


def test_corpus_star_search_and_characterizations(corpus7):
    """Structure checks against exhaustive search on every split graph
    with at most 7 vertices."""
    for n, masks in corpus7:
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        for r in (3, 4, 5):
            w = find_induced_star(sp, r)
            brute = brute_find_star(masks, r)
            assert (w is None) == (brute is None), (n, masks, r)
            if w is not None:
                _assert_star_is_real(masks, w, r)


def test_star_search_on_pruned_views(corpus7):
    """The solvers ask find_induced_star about pruned views; compare with
    exhaustive search on the subgraph a view induces. Dropping a clique
    vertex adds views whose clique is not maximal."""
    views = 0
    for n, masks in corpus7[::3]:
        if not set_connected(masks, range(n)):
            continue
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        terminal_sets = (sp.independent, sp.independent[1:],
                         tuple(sorted(set(sp.independent[::2]) | {0})))
        for view in [prune(SteinerInstance(graph=g, terminals=t), sp).view
                     for t in terminal_sets] + [
                         restrict_view(sp, drop_clique=sp.clique[-1:])]:
            keep = view.clique + view.independent
            pos = {v: i for i, v in enumerate(keep)}
            sub = [sum(1 << pos[w] for w in pos if masks[v] >> w & 1)
                   for v in keep]
            for r in (3, 4):
                w = find_induced_star(view, r)
                assert (w is None) == (brute_find_star(sub, r) is None), \
                    (n, masks, view.clique, view.independent, r)
                if w is not None:
                    assert {w.center, *w.leaves} <= set(keep)
                    _assert_star_is_real(masks, w, r)
            views += 1
    assert views > 2000


def _partition(clique, independent, n_i) -> SplitPartition:
    return SplitPartition.from_neighbor_map(tuple(sorted(clique)),
                                            tuple(sorted(independent)), n_i)


@st.composite
def star_views(draw):
    """A random split partition on shuffled ids, seen through a view that
    drops some of its clique and independent vertices, so the view's
    clique need not be maximal."""
    c = draw(st.integers(1, 7))
    i = draw(st.integers(0, 9))
    ids = draw(st.permutations(range(c + i)))
    clique, independent = ids[:c], ids[c:]
    n_i = {}
    for v in clique:
        xs = draw(st.sets(st.sampled_from(independent))) if independent else ()
        if xs:
            n_i[v] = tuple(sorted(xs))
    sp = _partition(clique, independent, n_i)
    drop_clique = draw(st.sets(st.sampled_from(clique), max_size=c - 1))
    drop_indep = draw(st.sets(st.sampled_from(independent))) if independent else ()
    return restrict_view(sp, drop_clique, drop_indep)


def _view_masks(view: SplitPartition) -> list[int]:
    """Adjacency bitmasks of the graph a view induces, on its vertices
    listed clique first."""
    pos = {v: j for j, v in enumerate(view.clique + view.independent)}
    masks = [0] * len(pos)
    for a, b in combinations(view.clique, 2):
        masks[pos[a]] |= 1 << pos[b]
        masks[pos[b]] |= 1 << pos[a]
    for v in view.clique:
        for x in view.indep_neighbors(v):
            masks[pos[v]] |= 1 << pos[x]
            masks[pos[x]] |= 1 << pos[v]
    return masks


@settings(max_examples=400, deadline=None)
@given(star_views())
# r = 3: the key (3, 4) of center 0 misses clique vertex 1, ahead of
# center 1 with d_I = 3 >= r; r = 4: the key (5, 6, 7) of 1 misses 0
@example(_partition((0, 1, 2), (3, 4, 5, 6, 7),
                    {0: (3, 4), 1: (5, 6, 7), 2: (5,)}))
# d_I >= r at center 0 with no key at all, and keys after it
@example(_partition((0, 1, 2), (3, 4, 5, 6, 7, 8),
                    {0: (3, 4, 5, 6, 7), 1: (3, 8), 2: (4, 5)}))
# a clique that is not maximal: 4 sees all of it
@example(restrict_view(_partition((0, 1, 2), (3, 4, 5),
                                  {0: (3, 4), 1: (4, 5), 2: (4,)}), drop_clique=(2,)))
def test_star_test_matches_reference(view):
    """The inclusion-exclusion star test returns the witness, center and
    leaves, of the union per key it replaced, and finds a star exactly
    when exhaustive search does."""
    masks = _view_masks(view)
    for r in (3, 4, 5):
        w = find_induced_star(view, r)
        assert w == reference_find_star(view, r), r
        assert (w is None) == (brute_find_star(masks, r) is None), r


def _count_clique_neighbor_reads(monkeypatch) -> list[int]:
    """Make SplitPartition.clique_neighbors add the length of each answer
    to the returned list's one entry."""
    read = [0]
    clique_neighbors = SplitPartition.clique_neighbors

    def counted(self, x):
        out = clique_neighbors(self, x)
        read[0] += len(out)
        return out

    monkeypatch.setattr(SplitPartition, "clique_neighbors", counted)
    return read


def test_star_test_reads_linear_neighbor_entries(monkeypatch):
    """On the adversarial K_{1,4}-free family the union per key read
    about 1.3 k^2 clique-neighbor entries; the test now reads each
    independent vertex's clique neighbors once."""
    k = 4000
    sp = adversarial_partition(k, seed=2)
    cross = sum(len(sp.indep_neighbors(v)) for v in sp.clique)
    read = _count_clique_neighbor_reads(monkeypatch)
    assert find_induced_star(sp, 4) is None
    assert 0 < read[0] <= 2 * (len(sp.clique) + cross)


def test_star_test_reads_quadratic_entries_before_a_late_center(monkeypatch):
    """With delta_i >= r, each distinct key before the first center with
    d_I >= r costs O(|C|), as find_induced_star's docstring bounds it:
    the adversarial family plus a last clique vertex that sees the three
    hubs and a leaf of its own has k keys, none with a gap, each reading
    two hubs of about 2k/3 clique neighbors (1.33 k^2 in all)."""
    base = adversarial_partition(1000, seed=3)
    hubs = tuple(x for x in base.independent if len(base.clique_neighbors(x)) > 1)
    center = len(base.clique) + len(base.independent)  # the highest id
    n_i = {v: base.indep_neighbors(v) for v in base.clique}
    n_i[center] = hubs + (center + 1,)
    sp = SplitPartition.from_neighbor_map(base.clique + (center,),
                                          base.independent + (center + 1,), n_i)
    want = reference_find_star(sp, 4)
    assert want == StarWitness(center=center, leaves=hubs + (center + 1,))
    read = _count_clique_neighbor_reads(monkeypatch)
    assert find_induced_star(sp, 4) == want
    assert 0 < read[0] <= 2 * len(sp.clique) ** 2


def test_restrict_view_recomputes_structure():
    sp = split_partition(TRI_HOST)
    v = restrict_view(sp, drop_clique=(0,), drop_indep=(3,))
    assert v.clique == (1, 2)
    assert v.independent == (4, 5)
    assert v.delta_i == 2  # vertex 1 keeps 4 and 5
    assert v.indep_neighbors(2) == ()
    # dropping the busy host leaves a 1-split view
    v2 = restrict_view(sp, drop_clique=(1,), drop_indep=(5,))
    assert v2.delta_i == 2 and v2.indep_neighbors(0) == (3, 4)


def test_clique_neighbors_are_host_cross_edges():
    """A view's clique_neighbors(x) is x's host row cut down to the view's
    clique for each of its independent vertices, and empty otherwise: on
    every split graph up to 6 vertices, a reduced view of each, and the
    pruned views of generated instances."""
    cases = []
    for n, masks in split_corpus(6):
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        cases += [(g, sp), (g, restrict_view(sp, drop_clique=sp.clique[:1],
                                             drop_indep=sp.independent[:1]))]
    for level, k14 in ((1, False), (2, False), (3, False), (3, True)):
        for seed in range(4):
            g = gen_split(GeneratorConfig(clique_size=7, independent_size=7,
                                          level=level, k14_free=k14,
                                          seed=seed)).graph
            sp = split_partition(g)
            for t in (sp.independent,
                      tuple(sorted(set(sp.independent[::2]) | {sp.clique[0]}))):
                cases.append((g, prune(SteinerInstance(graph=g, terminals=t),
                                       sp).view))
    for g, view in cases:
        for x in range(g.n):
            want = [int(w) for w in g.neighbors(x) if int(w) in view.clique]
            if x not in view.independent:
                want = []
            assert list(view.clique_neighbors(x)) == want, \
                (view.clique, view.independent, x)


def test_labeled_graph_pinned():
    sp = split_partition(TRI_HOST)
    lg = build_labeled_graph(sp)
    assert lg.vertices == (3, 4, 5)
    assert lg.labeled_edges == ((3, 4, 0), (4, 5, 1))


def test_labeled_graph_smallest_label_wins():
    # both 0 and 1 host the pair {3,4}; the label must be 0
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                             (0, 3), (0, 4), (1, 3), (1, 4), (2, 5)])
    sp = split_partition(g)
    lg = build_labeled_graph(sp)
    assert lg.vertices == (3, 4, 5)
    assert lg.labeled_edges == ((3, 4, 0),)


def test_labeled_graph_rejects_high_degree():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    sp = split_partition(g)
    assert sp.delta_i == 3
    with pytest.raises(ValueError):
        build_labeled_graph(sp)


def test_corresponding_vertex_set():
    sp = split_partition(TRI_HOST)
    lg = build_labeled_graph(sp)
    assert corresponding_vertex_set(lg, [(3, 4)]) == (0,)
    assert corresponding_vertex_set(lg, [(4, 5), (3, 4)]) == (0, 1)
    with pytest.raises(ValueError, match="not in the labeled graph"):
        corresponding_vertex_set(lg, [(3, 5)])
    fake = LabeledGraph(vertices=(3, 4, 5),
                        labeled_edges=((3, 4, 0), (4, 5, 0)))
    with pytest.raises(ValueError, match="label 0 shared"):
        corresponding_vertex_set(fake, [(3, 4), (4, 5)])


def test_corresponding_clique_set():
    sp = split_partition(TRI_HOST)
    assert corresponding_clique_set(sp, [3, 4, 5]) == (0, 1)
    assert corresponding_clique_set(sp, [5]) == (1,)
    assert corresponding_clique_set(sp, []) == ()
    view = restrict_view(sp, drop_clique=(0, 1))
    with pytest.raises(ValueError, match="no clique neighbor"):
        corresponding_clique_set(view, [3])


def test_ccs_picks_smallest_in_view():
    sp = split_partition(TRI_HOST)
    # with 0 dropped, 4 must fall back to its next host 1
    view = restrict_view(sp, drop_clique=(0,), drop_indep=(3,))
    assert corresponding_clique_set(view, [4]) == (1,)
