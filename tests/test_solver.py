import ast
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import splitsteiner.graph
import splitsteiner.solver
from splitsteiner import (
    GeneratorConfig,
    Graph,
    InvariantError,
    NotK14FreeError,
    NotSplitError,
    SteinerInstance,
    bfs_tree,
    brute_force_steiner,
    find_induced_star,
    gen_split,
    prune,
    serialize_instance,
    solve,
    solve_1split,
    solve_2split,
    solve_3split,
    solve_claw_free,
    split_partition,
    verify_solution,
)
from splitsteiner.cli import main
from splitsteiner.solver import _probe_v3, _tree_edges, _triple_alphas
from splitsteiner.split import SplitPartition
from helpers import (
    adversarial_instance,
    brute_steiner_min,
    graph_from_masks,
    reference_alpha,
    reference_probe,
    set_connected,
)

REGIMES = {"empty", "1-split", "2-split", "3-split", "claw-free", "exact-fallback"}

P3 = SteinerInstance(graph=Graph.from_edges(3, [(0, 1), (1, 2)]),
                     terminals=(0, 2))

# clique {0,1,2}; 3 ~ {0,1}, 4 ~ {1}, 5 ~ {2}
PROMO = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                             (0, 3), (1, 3), (1, 4), (2, 5)])

# blown-up triangle: clique {0,1,2}, hosts 0~{3,4}, 1~{4,5}, 2~{3,5}
CLAWFREE2 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                 (0, 3), (0, 4), (1, 4), (1, 5),
                                 (2, 3), (2, 5)])

# host cycle: clique {0,1,2,3}, 0~{4,5}, 1~{5,6}, 2~{6,7}, 3~{4,7}
RING = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (0, 4), (0, 5), (1, 5), (1, 6),
                            (2, 6), (2, 7), (3, 4), (3, 7)])

# hub 0~{3,4,5} plus carrier 1~{3,6} and single 2~{4}
HUB = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),
                           (0, 3), (0, 4), (0, 5), (1, 3), (1, 6), (2, 4)])

# petals: 0~{4,5,6} with disjoint pairs 1~{4,7}, 2~{5,8}, 3~{6,9}
PETALS = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (0, 4), (0, 5), (0, 6), (1, 4), (1, 7),
                               (2, 5), (2, 8), (3, 6), (3, 9)])

# two V_3 hubs 0~{4,5,6}, 3~{5,7,8}; 1~{4,7}, 2~{4,8}
TWOHUB = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                              (0, 4), (0, 5), (0, 6), (1, 4), (1, 7),
                              (2, 4), (2, 8), (3, 5), (3, 7), (3, 8)])

K14 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])

# clique {0,1,2}; 0~{3,4,5,6}, 1~{3}, 2~{7}: an induced K_{1,5} at 0 whose
# last leaf is 2
K15 = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5),
                           (0, 6), (1, 3), (2, 7)])


def _check_tree(inst, res):
    members = set(res.steiner_set) | set(inst.terminals)
    assert set(res.steiner_set).isdisjoint(inst.terminals)
    assert len(res.tree_edges) == max(0, len(members) - 1)
    for u, v in res.tree_edges:
        assert u < v
        assert inst.graph.has_edge(u, v)
        assert u in members and v in members
    if inst.terminals:
        assert verify_solution(inst, res.steiner_set)


def test_prune_p3():
    sp = split_partition(P3.graph)
    pi = prune(P3, sp)
    assert pi.removed_s1 == () and pi.removed_s2 == ()
    assert pi.removed_s3 == (0,)
    assert pi.clique_terminal_anchor == 0
    assert pi.terminals == (2,)
    assert pi.view.clique == (1,)


def test_prune_promotes_dominating_terminal():
    inst = SteinerInstance(graph=PROMO, terminals=(3, 4))
    sp = split_partition(PROMO)
    assert sp.clique == (0, 1, 2)
    pi = prune(inst, sp)
    assert pi.removed_s1 == (5,)
    assert pi.removed_s2 == (2,)
    assert pi.removed_s3 == (3,)  # adjacent to all of the reduced clique
    assert pi.clique_terminal_anchor == 3
    assert pi.terminals == (4,)
    res = solve(inst)
    assert res.trace.regime == "1-split"
    assert res.steiner_set == (1,)
    _check_tree(inst, res)


def test_prune_keeps_last_two_terminals():
    # both terminals dominate the reduced clique; only one may be promoted
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                             (0, 4), (1, 4)])
    sp = split_partition(g)
    inst = SteinerInstance(graph=g, terminals=sp.independent)
    pi = prune(inst, sp)
    assert len(pi.terminals) == 1
    res = solve(inst)
    assert res.size == 1
    _check_tree(inst, res)


def test_prune_promotion_stops_with_one_left():
    # clique {0,1,2}; 3 ~ {2} is no terminal, so 2 goes to S2 and the
    # reduced clique is {0,1}, which all three terminals 4, 5, 6 see.
    # 0 with leaves 4, 5, 6 and 2 is an induced K_{1,4}: three promotable
    # terminals need one, so solve() takes the exact fallback
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3),
                             (0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (1, 6)])
    inst = SteinerInstance(graph=g, terminals=(4, 5, 6))
    sp = split_partition(g)
    assert sp.clique == (0, 1, 2)
    pi = prune(inst, sp)
    assert pi.removed_s2 == (2,)
    assert pi.removed_s3 == (4, 5)
    assert pi.terminals == (6,)
    assert pi.clique_terminal_anchor == 4
    assert pi.view.clique == (0, 1)
    res = solve(inst, exact_fallback=True)
    assert res.size == 1
    _check_tree(inst, res)


def _every_regime() -> list[SteinerInstance]:
    """Small instances that reach every regime but the exact fallback,
    and an induced K_{1,5}."""
    insts = [SteinerInstance(graph=g, terminals=t) for g, t in (
        (PROMO, ()), (PROMO, (0, 1, 3)), (PROMO, (3, 4)), (CLAWFREE2, (3, 4, 5)),
        (HUB, (0, 3, 5, 6)), (K15, (3, 7)))]
    for level, k14 in ((1, False), (2, False), (3, False), (3, True)):
        for seed in range(3):
            inst = gen_split(GeneratorConfig(clique_size=7, independent_size=7,
                                             level=level, k14_free=k14, seed=seed))
            insts.append(inst)
            insts.append(SteinerInstance(graph=inst.graph,
                                         terminals=inst.terminals[::2] + (0,)))
    return insts


def test_stages_after_recognition_read_no_host_row(monkeypatch):
    """The K_{1,r} test, prune and every regime solver read the cross
    edges from the partition, never a row of the host graph."""
    insts = _every_regime()
    solvers = {1: [solve_1split], 2: [solve_2split], 3: [solve_3split]}
    host: list[Graph | None] = [None]
    read: list[int] = []
    neighbors = Graph.neighbors

    def spy(self, v):
        if self is host[0]:
            read.append(int(v))
        return neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", spy)
    ran = set()
    stars = 0
    for inst in insts:
        sp = split_partition(inst.graph)
        host[0] = inst.graph
        stars += sum(find_induced_star(sp, r) is not None for r in (3, 4, 5))
        if find_induced_star(sp, 4) is None:
            pi = prune(inst, sp)
            view = pi.view
            regime = list(solvers.get(view.delta_i, []))
            if (view.delta_i <= 2 and len(view.independent) <= 3
                    and find_induced_star(view, 3) is None):
                regime.append(solve_claw_free)
            for f in regime:
                f(pi)
                ran.add(f.__name__)
        host[0] = None
        assert read == [], (inst.terminals, read)
    assert stars > 0
    assert ran == {"solve_1split", "solve_2split", "solve_3split", "solve_claw_free"}


def test_solve_reads_only_the_partition_after_recognition(monkeypatch):
    """Once split_partition returns, solve reads no graph row and runs no
    BFS in any regime, the empty one and the output tree included."""
    after = [False]
    calls: list[str] = []

    def spy(name, fn):
        def traced(*args):
            if after[0]:
                calls.append(name)
            return fn(*args)
        return traced

    def recognize(g):
        sp = split_partition(g)
        after[0] = True
        return sp

    monkeypatch.setattr(splitsteiner.solver, "split_partition", recognize)
    monkeypatch.setattr(Graph, "neighbors", spy("neighbors", Graph.neighbors))
    monkeypatch.setattr(Graph, "has_edge", spy("has_edge", Graph.has_edge))
    # behind both bfs_tree and is_connected
    monkeypatch.setattr(splitsteiner.graph, "_bfs", spy("bfs", splitsteiner.graph._bfs))
    regimes = set()
    for inst in _every_regime():
        after[0] = False
        try:
            regimes.add(solve(inst).trace.regime)
        except NotK14FreeError:
            regimes.add("not K14-free")
        assert calls == [], (inst.terminals, calls)
    assert regimes == REGIMES - {"exact-fallback"} | {"not K14-free"}


def _random_split_graph(rng: np.random.Generator) -> Graph:
    """A split graph with random cross edges and shuffled vertex ids."""
    a, b = (int(v) for v in rng.integers(1, 9, size=2))
    ids = rng.permutation(a + b).tolist()
    clique, indep = ids[:a], ids[a:]
    p = rng.uniform(0.1, 0.7)
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    edges += [(v, x) for v in clique for x in indep if rng.random() < p]
    return Graph.from_edges(a + b, edges)


def test_partition_tree_is_the_bfs_tree():
    """The closed-form tree has the edges of bfs_tree on every member
    set, and a disconnected set raises InvariantError."""
    rng = np.random.default_rng(2015)
    seen = {"clique root": 0, "independent root": 0, "disconnected": 0}
    for _ in range(120):
        g = _random_split_graph(rng)
        sp = split_partition(g)
        clique = set(sp.clique)
        assert _tree_edges(sp, set()) == ()
        for _ in range(40):
            q = rng.uniform(0.2, 0.9)
            members = {v for v in range(g.n) if rng.random() < q}
            if not members:
                continue
            try:
                bfs = bfs_tree(g, members)
            except ValueError:
                seen["disconnected"] += 1
                with pytest.raises(InvariantError):
                    _tree_edges(sp, members)
                continue
            seen["clique root" if min(members) in clique else "independent root"] += 1
            assert _tree_edges(sp, members) == tuple(sorted(
                (min(e), max(e)) for e in bfs)), sorted(members)
    assert min(seen.values()) >= 500, seen


def test_no_terminals():
    res = solve(SteinerInstance(graph=PROMO, terminals=()))
    assert res.trace.regime == "empty"
    assert res.steiner_set == () and res.tree_edges == ()


def test_adjacent_clique_terminals_need_nothing():
    inst = SteinerInstance(graph=PROMO, terminals=(0, 1, 3))
    res = solve(inst)
    assert res.trace.regime == "empty"
    assert res.steiner_set == ()
    _check_tree(inst, res)


def test_single_terminal():
    inst = SteinerInstance(graph=PROMO, terminals=(3,))
    res = solve(inst)
    assert res.trace.regime == "empty"
    assert res.steiner_set == () and res.tree_edges == ()


def test_clique_terminal_plus_far_leaf():
    inst = SteinerInstance(graph=PROMO, terminals=(2, 3))
    res = solve(inst)
    assert res.trace.regime == "1-split"
    assert res.steiner_set == (0,)
    _check_tree(inst, res)


def test_claw_free_regime():
    inst = SteinerInstance(graph=CLAWFREE2, terminals=(3, 4, 5))
    res = solve(inst)
    assert res.trace.regime == "claw-free"
    assert res.steiner_set == (0, 1)
    assert res.trace.alpha_m is None
    _check_tree(inst, res)


def test_2split_regime():
    inst = SteinerInstance(graph=RING, terminals=(4, 5, 6, 7))
    res = solve(inst)
    assert res.trace.regime == "2-split"
    assert res.trace.alpha_m == 2
    assert res.steiner_set == (0, 2)
    _check_tree(inst, res)


def test_3split_no_useful_center():
    inst = SteinerInstance(graph=HUB, terminals=(3, 4, 5, 6))
    res = solve(inst)
    assert res.trace.regime == "3-split"
    assert res.trace.alpha_m == 0
    assert res.trace.alpha_m2 == 1  # M2 exists but is too small to help
    assert res.trace.chosen_v3_vertex == 0
    assert res.steiner_set == (0, 1)  # |I| - 2
    _check_tree(inst, res)


def test_3split_perfect_m2():
    inst = SteinerInstance(graph=PETALS, terminals=(4, 5, 6, 7, 8, 9))
    res = solve(inst)
    assert res.trace.regime == "3-split"
    assert res.trace.alpha_m == 0
    assert res.trace.alpha_m2 == 3
    assert res.trace.chosen_v3_vertex is None
    assert res.steiner_set == (1, 2, 3)  # |I| - 3 without any V_3 vertex
    _check_tree(inst, res)


def test_3split_center_with_matching():
    inst = SteinerInstance(graph=TWOHUB, terminals=(4, 5, 6, 7, 8))
    res = solve(inst)
    assert res.trace.regime == "3-split"
    assert res.trace.alpha_m == 1
    assert res.trace.alpha_m2 is None
    # both hubs reach alpha 1; the tie goes to the smaller id
    assert res.trace.chosen_v3_vertex == 0
    assert res.steiner_set == (0, 3)  # |I| - 3
    _check_tree(inst, res)


def test_not_split_propagates():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotSplitError):
        solve(SteinerInstance(graph=c4, terminals=(0, 2)))


def test_k14_raises_without_fallback():
    inst = SteinerInstance(graph=K14, terminals=(2, 3, 4))
    with pytest.raises(NotK14FreeError) as exc:
        solve(inst)
    assert exc.value.witness.center == 0


def test_k14_fallback():
    inst = SteinerInstance(graph=K14, terminals=(2, 3, 4))
    res = solve(inst, exact_fallback=True)
    assert res.trace.regime == "exact-fallback"
    assert res.steiner_set == (0,)
    _check_tree(inst, res)


def test_k14_fallback_budget_too_small():
    """A K_{1,4} whose centre also lies in a clique of 20 more vertices:
    the pool of non-terminal clique vertices holds 21, one too many for
    the exact fallback."""
    clique = range(5, 25)
    edges = [(0, leaf) for leaf in range(1, 5)] + [(0, v) for v in clique]
    edges += [(u, v) for u in clique for v in clique if u < v]
    inst = SteinerInstance(graph=Graph.from_edges(25, edges), terminals=(1, 2, 3, 4))
    assert len(split_partition(inst.graph).clique) == 21
    with pytest.raises(NotK14FreeError) as plain:
        solve(inst)
    assert "fallback" not in str(plain.value)
    with pytest.raises(NotK14FreeError, match=(
            "no polynomial regime applies, and the exact fallback was refused: "
            "21 non-terminal clique vertices, more than its limit of 20$")):
        solve(inst, exact_fallback=True)


def test_dispatch_guards():
    sp2 = split_partition(CLAWFREE2)
    pi2 = prune(SteinerInstance(graph=CLAWFREE2, terminals=(3, 4, 5)), sp2)
    with pytest.raises(ValueError, match="delta_i == 1"):
        solve_1split(pi2)
    with pytest.raises(ValueError, match="delta_i == 3"):
        solve_3split(pi2)

    sp3 = split_partition(HUB)
    pi3 = prune(SteinerInstance(graph=HUB, terminals=(3, 4, 5, 6)), sp3)
    with pytest.raises(ValueError, match="delta_i == 2"):
        solve_2split(pi3)
    with pytest.raises(ValueError, match="delta_i >= 3"):
        solve_claw_free(pi3)

    # pruning keeps 1 for terminal 5, so the K_{1,4} 0-{1,2,3,4} survives
    star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
    pi4 = prune(SteinerInstance(graph=star, terminals=(2, 3, 4, 5)),
                split_partition(star))
    assert pi4.view.delta_i == 3
    with pytest.raises(ValueError, match=r"K_\{1,4\}-free"):
        solve_3split(pi4)


def test_claw_free_rejects_wide_instances():
    sp = split_partition(RING)
    pi = prune(SteinerInstance(graph=RING, terminals=(4, 5, 6, 7)), sp)
    with pytest.raises(ValueError, match="at most 3"):
        solve_claw_free(pi)


def test_deterministic():
    inst = SteinerInstance(graph=PETALS, terminals=(4, 5, 6, 7, 8, 9))
    assert solve(inst) == solve(inst)


def _terminal_variants(n, sp):
    yield sp.independent
    mixed = tuple(sorted(set(sp.independent[::2]) | {0}))
    if mixed != sp.independent:
        yield mixed
    yield (0, n - 1)


def test_corpus_solves_match_oracle(corpus7):
    """Every split graph on up to 7 vertices, three terminal mixes each;
    hard instances go through the fallback and must still be exact."""
    seen = set()
    for n, masks in corpus7[::11]:
        if n < 2 or not set_connected(masks, range(n)):
            continue
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        for terms in _terminal_variants(n, sp):
            if not terms:
                continue
            inst = SteinerInstance(graph=g, terminals=terms)
            res = solve(inst, exact_fallback=True)
            assert res.trace.regime in REGIMES
            seen.add(res.trace.regime)
            pool = [v for v in range(n) if v not in terms]
            assert res.size == brute_steiner_min(masks, terms, pool), (n, masks, terms)
            _check_tree(inst, res)
    assert {"empty", "1-split", "2-split", "claw-free",
            "exact-fallback"} <= seen


def test_3split_regime_reachable_in_small_graphs():
    inst = SteinerInstance(graph=HUB, terminals=(3, 4, 5, 6))
    sp = split_partition(HUB)
    assert sp.delta_i == 3 and find_induced_star(sp, 4) is None
    assert solve(inst).trace.regime == "3-split"


@st.composite
def v3_families(draw):
    """Pairwise intersecting triples over a ground set of at most 14, some
    repeated under a second clique id. With hubs, most triples are forced
    through one hub or both, so a hub's link graph reaches 3- and
    4-matchings, or a star too wide for the kernel to keep whole."""
    ground = draw(st.integers(3, 14))
    hubs = draw(st.lists(st.integers(0, ground - 1), max_size=2, unique=True))
    size = draw(st.integers(1, 80))
    raw = draw(st.lists(
        st.tuples(st.lists(st.integers(0, ground - 1), min_size=3, max_size=3,
                           unique=True),
                  st.sampled_from(((0,), (1,), (0, 1), ())), st.booleans()),
        min_size=size, max_size=size))
    family: list[tuple[int, ...]] = []
    for xs, through, repeat in raw:
        forced = list(dict.fromkeys(hubs[i % len(hubs)] for i in through)) if hubs else []
        xs = forced + [x for x in xs if x not in forced]
        t = tuple(sorted(xs[:3]))
        if all(set(t) & set(u) for u in family):
            family.append(t)
            if repeat:
                family.append(t)
    return family


def _family_view(family: list[tuple[int, ...]]) -> SplitPartition:
    """The split graph with clique vertex i seeing family[i] (independent
    vertex x is k + x, x < 14), as a view with that clique."""
    k = len(family)
    n_i = {i: tuple(k + x for x in t) for i, t in enumerate(family)}
    independent = tuple(sorted({x for xs in n_i.values() for x in xs}))
    return SplitPartition.from_neighbor_map(k + 14, tuple(range(k)), independent, n_i)


@settings(max_examples=300, deadline=None)
@given(v3_families())
# in the link of 1, vertex 5 has three edges leaving the greedy cover
# {0, 5, 6, 7}; a kernel that kept two of them would misjudge a triple
@example([(1, 5, 6), (1, 3, 5), (1, 4, 5), (0, 1, 7), (1, 2, 5), (1, 4, 6), (0, 1, 3)])
def test_v3_probe_matches_reference(family):
    view = _family_view(family)
    assert _probe_v3(view) == reference_probe(view)
    alphas = _triple_alphas(view)
    for v in view.v3:
        assert alphas[view.indep_neighbors(v)] == reference_alpha(view, v), v


def test_v3_probe_matches_reference_on_generator_shapes():
    """Every K_{1,4}-free level-3 shape, as split_partition and prune hand
    it to the solver; the four (alpha_m, alpha_m2) outcomes show that each
    shape was drawn."""
    outcomes = set()
    for a, b in ((4, 7), (6, 8), (9, 10), (12, 9)):
        for seed in range(25):
            inst = gen_split(GeneratorConfig(clique_size=a, independent_size=b,
                                             level=3, k14_free=True, seed=seed))
            sp = split_partition(inst.graph)
            for view in (sp, prune(inst, sp).view):
                if view.delta_i == 3:
                    assert _probe_v3(view) == reference_probe(view), (a, b, seed)
            trace = solve(inst).trace
            outcomes.add((trace.alpha_m, trace.alpha_m2 == 3))
    # hub, petals, twohub, tripod
    assert outcomes == {(0, False), (0, True), (1, False), (2, False)}


def test_v3_probe_is_linear():
    """The adversarial family keeps alpha at 1 on every center, which made
    the old probe rescan all of V_3 per center."""
    sp = split_partition(adversarial_instance(2000, 5).graph)
    assert len(sp.v3) == 2000
    t0 = time.perf_counter()
    probe = _probe_v3(sp)
    elapsed = time.perf_counter() - t0
    assert probe[1] == 1
    assert elapsed < 1.0


def test_invariant_violation_raises(tmp_path, capsys, monkeypatch):
    """A wrong probe size trips the solver's own check, raised (not
    asserted) so that it holds under python -O; the CLI exits 1."""
    inst = gen_split(GeneratorConfig(clique_size=8, independent_size=9, level=3,
                                     k14_free=True, seed=1))
    assert solve(inst).trace.regime == "3-split"
    monkeypatch.setattr("splitsteiner.solver.alpha_capped", lambda edges: 5)
    with pytest.raises(InvariantError, match="the probe found 5"):
        solve(inst)
    path = tmp_path / "l3.sstp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    assert main(["solve", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: matching at center")


def _one_pick_too_many(real):
    """corresponding_clique_set that also picks the largest clique vertex
    of the view it has not picked."""
    def patched(sp, vertices):
        picks = real(sp, vertices)
        return tuple(sorted(picks + (max(set(sp.clique) - set(picks)),)))
    return patched


@pytest.mark.parametrize("g,terminals,regime,saving", [
    (PROMO, (3, 4), "1-split", r"-1 outside \[0, 0\]"),
    (CLAWFREE2, (3, 4, 5), "claw-free", r"0 outside \[1, 1\]"),
    (RING, (4, 5, 6, 7), "2-split", r"1 outside \[2, 2\]"),
    (HUB, (3, 4, 5, 6), "3-split", r"1 outside \[2, 4\]"),
], ids=["1-split", "claw-free", "2-split", "3-split"])
def test_cover_checks_the_saving_in_every_regime(tmp_path, capsys, monkeypatch,
                                                 g, terminals, regime, saving):
    """One pick too many breaks the saving each regime proves, in solve()
    and in the public regime solver; the CLI exits 1 with one error line."""
    inst = SteinerInstance(graph=g, terminals=terminals)
    assert solve(inst).trace.regime == regime
    pi = prune(inst, split_partition(g))
    # solve_claw_free also takes a delta-1 view, where it saves nothing
    regime_solvers = {"1-split": [solve_1split, solve_claw_free],
                      "claw-free": [solve_claw_free], "2-split": [solve_2split],
                      "3-split": [solve_3split]}[regime]
    monkeypatch.setattr(splitsteiner.solver, "corresponding_clique_set",
                        _one_pick_too_many(splitsteiner.solver.corresponding_clique_set))
    match = f"terminals, a saving of {saving}$"
    with pytest.raises(InvariantError, match=match):
        solve(inst)
    for regime_solver in regime_solvers:
        with pytest.raises(InvariantError, match=match):
            regime_solver(pi)
    path = tmp_path / "inst.sstp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    assert main(["solve", "--input", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: answer has") and err.count("\n") == 1


def test_solver_has_no_assert():
    """No module of the package keeps an invariant in an assert, which
    python -O strips, or raises a bare AssertionError, which the CLI
    would print as a raw traceback."""
    found = []
    for path in sorted(Path(splitsteiner.solver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            raises_assertion = (
                isinstance(node, ast.Raise) and node.exc is not None
                and "AssertionError" in ast.unparse(node.exc))
            if isinstance(node, ast.Assert) or raises_assertion:
                found.append((path.name, node.lineno))
    assert found == []
