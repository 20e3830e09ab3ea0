from itertools import combinations

import pytest

from splitsteiner import (
    GeneratorConfig,
    Graph,
    OracleBudgetError,
    SteinerInstance,
    brute_force_steiner,
    gen_split,
    solve,
    verify_solution,
)
from helpers import brute_steiner_min, graph_from_masks, set_connected

P3 = SteinerInstance(graph=Graph.from_edges(3, [(0, 1), (1, 2)]),
                     terminals=(0, 2))


def test_p3_needs_the_middle():
    for universe in ("clique-only", "all-vertices"):
        res = brute_force_steiner(P3, universe=universe)
        assert res.min_size == 1
        assert res.witness == (1,)
        assert res.explored == 2  # the empty set, then {1}


def test_witness_is_lexicographically_first():
    # both 0 and 1 connect the terminals on their own
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    inst = SteinerInstance(graph=g, terminals=(2, 3))
    assert brute_force_steiner(inst).witness == (0,)
    assert brute_force_steiner(inst, universe="all-vertices").witness == (0,)


def test_no_terminals_needs_nothing():
    res = brute_force_steiner(SteinerInstance(graph=P3.graph, terminals=()))
    assert res.min_size == 0 and res.witness == ()


def test_unknown_universe():
    with pytest.raises(ValueError, match="unknown universe"):
        brute_force_steiner(P3, universe="everything")


def test_budget_exhausted():
    with pytest.raises(OracleBudgetError, match="budget of 1"):
        brute_force_steiner(P3, budget=1)


def test_pool_too_large():
    g = Graph.from_edges(30, list(combinations(range(30), 2)))
    inst = SteinerInstance(graph=g, terminals=())
    with pytest.raises(ValueError, match="limit is 25"):
        brute_force_steiner(inst, universe="all-vertices")


def test_clique_universe_matches_full_universe_on_generated():
    """The clique side alone always contains an optimal Steiner set.

    Dropping every other terminal puts independent vertices into the
    all-vertices pool, so the two universes genuinely differ here."""
    cases = [(1, 4, 4), (2, 5, 5), (3, 6, 7), (3, 5, 4)]
    for seed in range(8):
        for level, a, b in cases:
            cfg = GeneratorConfig(clique_size=a, independent_size=b,
                                  level=level, k14_free=True, seed=seed)
            gen = gen_split(cfg)
            inst = SteinerInstance(graph=gen.graph,
                                   terminals=gen.terminals[::2])
            full = brute_force_steiner(inst, universe="all-vertices")
            clique = brute_force_steiner(inst, universe="clique-only")
            assert full.min_size == clique.min_size, (level, a, b, seed)


def test_matches_reference_bruteforce(corpus7):
    for n, masks in corpus7[::17]:
        if not set_connected(masks, range(n)):
            continue
        g = graph_from_masks(n, masks)
        # low-degree vertices plus vertex 0 make a mixed terminal set
        terms = tuple(v for v in range(n) if bin(masks[v]).count("1") <= 2)
        terms = tuple(sorted(set(terms) | {0}))
        if len(terms) == n:
            continue
        inst = SteinerInstance(graph=g, terminals=terms)
        res = brute_force_steiner(inst, universe="all-vertices")
        pool = [v for v in range(n) if v not in terms]
        assert res.min_size == brute_steiner_min(masks, terms, pool), (n, masks)
        assert verify_solution(inst, res.witness)
        in_clique = brute_force_steiner(inst, universe="clique-only")
        assert in_clique.min_size == res.min_size, (n, masks)


def test_verify_solution_paths():
    assert verify_solution(P3, (1,))
    assert not verify_solution(P3, ())
    assert verify_solution(SteinerInstance(graph=P3.graph, terminals=()), ())
    with pytest.raises(ValueError, match=r"overlaps terminals: \[0\]"):
        verify_solution(P3, (0, 1))


def test_explored_counts_every_subset():
    # forcing the full sweep: terminals cannot be connected until the
    # last pool vertex joins
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    inst = SteinerInstance(graph=g, terminals=(0, 4))
    res = brute_force_steiner(inst, universe="all-vertices")
    assert res.min_size == 3
    assert res.witness == (1, 2, 3)
    assert res.explored == 8  # every subset of {1,2,3}


def _members_connected(inst, members, edges):
    """Independent check: do these edges alone connect the members?"""
    masks = [0] * inst.graph.n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return set_connected(masks, members)


@pytest.mark.parametrize("level,k14_free", [(1, False), (2, False), (3, True)])
def test_tree_certificate(level, k14_free):
    """The solver's tree certifies its Steiner set, in agreement with the
    bigint BFS; five kinds of corrupted tree are all rejected."""
    for seed in range(6):
        inst = gen_split(GeneratorConfig(clique_size=10, independent_size=9,
                                         level=level, k14_free=k14_free, seed=seed))
        res = solve(inst)
        s, tree = res.steiner_set, list(res.tree_edges)
        members = set(s) | set(inst.terminals)
        assert len(s) >= 3 and len(tree) == len(members) - 1
        assert verify_solution(inst, s, tree) is True
        assert verify_solution(inst, s) is True
        g = inst.graph
        edge_set = set(g.edges())

        dropped = tree[1:]
        non_edge = next((a, b) for a in sorted(members) for b in sorted(members)
                        if a < b and (a, b) not in edge_set)
        replaced = [non_edge] + tree[1:]
        # an edge of G[S u R] outside the tree, swapped for a tree edge off
        # the cycle it closes: still |S u R| - 1 graph edges, but not a tree
        chords = [(a, b) for a in sorted(members) for b in sorted(members)
                  if a < b and (a, b) in edge_set and (a, b) not in tree
                  and (b, a) not in tree]
        cyclic = next(c for c in ([ch] + tree[:k] + tree[k + 1:]
                                  for ch in chords for k in range(len(tree)))
                      if not _members_connected(inst, members, c))
        a = sorted(members)[0]
        outside = next(int(w) for w in g.neighbors(a) if int(w) not in members)
        escaping = tree[:-1] + [(a, outside)]
        repeated = tree[:-1] + [tree[0]]
        for bad in (dropped, replaced, cyclic, escaping, repeated):
            assert verify_solution(inst, s, bad) is False, (seed, bad)


def test_tree_certificate_rejects_bad_edges():
    """On a 4-cycle with a chord and a pendant vertex, certificates with
    the right edge count are rejected when one pair is not an edge, an
    edge leaves the members, an edge repeats, or an id is outside the
    graph."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4)])
    inst = SteinerInstance(graph=g, terminals=(0, 1, 3))
    assert verify_solution(inst, (2,), [(1, 0), (0, 2), (3, 2)])
    assert not verify_solution(inst, (2,), [(0, 1), (1, 3), (2, 3)])  # 1-3 is no edge
    assert not verify_solution(inst, (2,), [(0, 1), (0, 2), (3, 4)])  # 4 is no member
    assert not verify_solution(inst, (2,), [(0, 1), (0, 2), (2, 0)])  # 0-2 twice
    assert not verify_solution(inst, (2,), [(0, 1), (0, 2), (3, 7)])  # 7 is no vertex
    assert not verify_solution(inst, (2, 7), [(0, 1), (0, 2), (2, 3), (3, 7)])


def test_tree_certificate_edge_cases():
    assert verify_solution(P3, (1,), [(0, 1), (1, 2)])
    assert verify_solution(P3, (1,), [(2, 1), (1, 0)])  # either orientation
    assert not verify_solution(P3, (), [])
    assert not verify_solution(P3, (1,), [(0, 1), (0, 1)])
    no_terms = SteinerInstance(graph=P3.graph, terminals=())
    assert verify_solution(no_terms, (), ())
    assert not verify_solution(no_terms, (), [(0, 1)])
    with pytest.raises(ValueError, match=r"overlaps terminals: \[0\]"):
        verify_solution(P3, (0, 1), [(0, 1), (1, 2)])
