"""End-to-end acceptance suite.

One test per shipping criterion: oracle equivalence on seeded instances,
the claw-free solver path, structural characterizations against brute
force on an exhaustive corpus, the 3-split size bound and its tightness,
the matching cap, the Exact-3-Cover reduction dichotomy, performance
smoke limits, and byte-level determinism of the CLI surface.
"""

import json
import time

import numpy as np

from splitsteiner import (
    GeneratorConfig,
    Graph,
    SteinerInstance,
    X3CInstance,
    brute_force_steiner,
    build_labeled_graph,
    find_induced_star,
    gen_split,
    maximum_matching,
    prune,
    reduce_x3c,
    restrict_view,
    serialize_instance,
    solve,
    solve_claw_free,
    solve_x3c_bruteforce,
    split_partition,
    verify_solution,
)
from splitsteiner.cli import main
from helpers import (
    adversarial_instance,
    brute_find_star,
    brute_matching,
    brute_steiner_min,
    graph_from_masks,
    masks_from_graph,
    set_connected,
)

C1_CONFIGS = [
    (1, 4, 3), (1, 5, 4), (1, 7, 7), (1, 6, 3),
    (2, 4, 6), (2, 5, 7), (2, 7, 7), (2, 6, 8),
    (3, 6, 4), (3, 3, 5), (3, 4, 7), (3, 6, 8), (3, 5, 6), (3, 7, 7),
]


def _terminal_mixes(inst):
    i_side = inst.terminals
    yield "terminals=I", i_side
    yield "mixed", tuple(sorted(set(i_side[::2]) | {0}))
    yield "pair", i_side[:2]
    yield "empty", ()


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    levels_seen = set()
    mixes_seen = set()
    for level, a, b in C1_CONFIGS:
        for seed in range(9):
            cfg = GeneratorConfig(clique_size=a, independent_size=b,
                                  level=level, k14_free=True, seed=seed)
            base = gen_split(cfg)
            assert base.graph.n <= 14
            levels_seen.add(split_partition(base.graph).delta_i)
            for mix, terms in _terminal_mixes(base):
                inst = SteinerInstance(graph=base.graph, terminals=terms)
                res = solve(inst)
                assert res.trace.regime != "exact-fallback"
                orc = brute_force_steiner(inst, universe="clique-only")
                assert res.size == orc.min_size, (level, a, b, seed, mix)
                assert verify_solution(inst, res.steiner_set)
                count += 1
                mixes_seen.add(mix)
    # the family on which every V_3 center keeps alpha(M) = 1
    for k in range(4, 13):
        base = adversarial_instance(k, seed=k)
        assert split_partition(base.graph).delta_i == 3
        for mix, terms in _terminal_mixes(base):
            inst = SteinerInstance(graph=base.graph, terminals=terms)
            res = solve(inst)
            if mix == "terminals=I":
                assert (res.trace.regime, res.trace.alpha_m) == ("3-split", 1)
            orc = brute_force_steiner(inst, universe="clique-only")
            assert res.size == orc.min_size, (k, mix)
            assert verify_solution(inst, res.steiner_set)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 500
    assert levels_seen == {1, 2, 3}
    assert mixes_seen == {"terminals=I", "mixed", "pair", "empty"}
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {count} instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_claw_free_suite(corpus9):
    solved = 0
    for n, masks in corpus9:
        if n > 8 or not set_connected(masks, range(n)):
            continue
        if brute_find_star(masks, 3) is not None:
            continue
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        if sp.delta_i == 2:
            assert len(sp.independent) <= 3, (n, masks)
        inst = SteinerInstance(graph=g, terminals=sp.independent)
        res = solve(inst)
        assert res.trace.regime in ("claw-free", "1-split", "empty")
        pool = [v for v in range(n) if v not in sp.independent]
        assert res.size == brute_steiner_min(masks, sp.independent, pool)
        if sp.delta_i == 2 and res.trace.regime == "claw-free":
            direct = solve_claw_free(prune(inst, sp))
            assert len(direct) == res.size
        solved += 1
    generated = 0
    for a, b in ((5, 4), (6, 5), (7, 6), (8, 7)):
        for seed in range(10):
            cfg = GeneratorConfig(clique_size=a, independent_size=b,
                                  level=1, seed=seed)
            inst = gen_split(cfg)
            sp = split_partition(inst.graph)
            assert find_induced_star(sp, 3) is None
            res = solve(inst)
            orc = brute_force_steiner(inst)
            assert res.size == orc.min_size
            generated += 1
    assert solved + generated >= 200
    print(f"criterion 2 PASS: {solved} corpus + {generated} generated "
          "claw-free instances match the oracle")


def test_criterion_3_structural_equivalences(corpus9):
    checked = d3 = 0
    for n, masks in corpus9:
        g = graph_from_masks(n, masks)
        sp = split_partition(g)
        assert (find_induced_star(sp, 3) is None) == \
            (brute_find_star(masks, 3) is None), (n, masks)
        if sp.delta_i == 3:
            assert (find_induced_star(sp, 4) is None) == \
                (brute_find_star(masks, 4) is None), (n, masks)
            d3 += 1
        checked += 1

    rand_cases = [(1, 5, 4, False), (1, 7, 6, False), (1, 8, 8, False),
                  (2, 5, 7, False), (2, 6, 9, False), (2, 8, 11, False),
                  (3, 5, 7, False), (3, 6, 9, False), (3, 4, 6, False),
                  (3, 6, 4, True), (3, 4, 7, True), (3, 6, 8, True),
                  (3, 5, 6, True)]
    randoms = 0
    for seed in range(77):
        for level, a, b, k14 in rand_cases:
            if randoms == 1000:
                break
            cfg = GeneratorConfig(clique_size=a, independent_size=b,
                                  level=level, k14_free=k14, seed=seed)
            g = gen_split(cfg).graph
            masks = masks_from_graph(g)
            sp = split_partition(g)
            assert (find_induced_star(sp, 3) is None) == \
                (brute_find_star(masks, 3) is None), (level, a, b, seed)
            if sp.delta_i == 3:
                assert (find_induced_star(sp, 4) is None) == \
                    (brute_find_star(masks, 4) is None), (level, a, b, seed)
            randoms += 1
    assert randoms == 1000
    print(f"criterion 3 PASS: {checked} corpus graphs ({d3} with delta 3) "
          f"and {randoms} random instances agree with brute force")


def test_criterion_4_bound_and_tightness():
    gaps = {}
    for a, b in ((6, 4), (3, 5), (5, 6), (4, 7), (6, 8), (6, 6), (7, 7)):
        for seed in range(16):
            cfg = GeneratorConfig(clique_size=a, independent_size=b, level=3,
                                  k14_free=True, seed=seed)
            inst = gen_split(cfg)
            res = solve(inst)
            assert res.trace.regime == "3-split"
            n_i = len(inst.terminals)
            assert n_i - 4 <= res.size <= n_i - 2
            assert res.size == brute_force_steiner(inst).min_size
            gap = n_i - res.size
            if gap == 4:
                assert res.trace.alpha_m == 2
            elif gap == 3:
                assert (res.trace.alpha_m == 1
                        or (res.trace.alpha_m == 0 and res.trace.alpha_m2 == 3))
            else:
                assert res.trace.alpha_m == 0 and res.trace.alpha_m2 in (0, 1, 2)
            gaps[gap] = gaps.get(gap, 0) + 1
    assert set(gaps) == {2, 3, 4}
    print("criterion 4 PASS: bound holds on all solves; gap counts "
          + ", ".join(f"|I|-{g}: {c}" for g, c in sorted(gaps.items())))


def test_criterion_5_matching_cap():
    cases = [(6, 4), (3, 5), (4, 7), (6, 8), (5, 6), (7, 7), (6, 6),
             (8, 9), (9, 10), (10, 12)]
    instances = caps = 0
    for a, b in cases:
        for seed in range(20):
            cfg = GeneratorConfig(clique_size=a, independent_size=b, level=3,
                                  k14_free=True, seed=seed)
            g = gen_split(cfg).graph
            sp = split_partition(g)
            assert sp.delta_i == 3 and sp.v3
            for x in sp.v3:
                view = restrict_view(sp, drop_indep=sp.indep_neighbors(x))
                lg = build_labeled_graph(view)
                edges = [(u, v) for u, v, _ in lg.labeled_edges]
                m = maximum_matching(Graph.from_edges(g.n, edges))
                assert m.size <= 2, (a, b, seed, x)
                assert m.size == brute_matching(g.n, edges)
                caps += 1
            instances += 1
    assert instances == 200
    print(f"criterion 5 PASS: {instances} instances, {caps} V_3 centers, "
          "every capped matching <= 2 and equal to brute force")


def _random_x3c(rng, i):
    ground = int(rng.choice((6, 9, 12)))
    q = ground // 3
    while True:
        triples = set()
        if i % 2 == 0:  # plant an exact cover, then add noise
            perm = [int(v) + 1 for v in rng.permutation(ground)]
            for j in range(q):
                triples.add(tuple(sorted(perm[3 * j:3 * j + 3])))
        target = int(rng.integers(max(2, q), 9))
        guard = 0
        while len(triples) < target and guard < 200:
            cand = tuple(sorted(
                int(v) + 1 for v in rng.choice(ground, size=3, replace=False)))
            triples.add(cand)
            guard += 1
        covered = set()
        for t in triples:
            covered.update(t)
        if covered == set(range(1, ground + 1)):
            return X3CInstance(ground, tuple(sorted(triples)))


def test_criterion_6_reduction_dichotomy():
    rng = np.random.default_rng(616)
    outcomes = {True: 0, False: 0}
    for i in range(100):
        x = _random_x3c(rng, i)
        assert x.ground_size <= 12 and len(x.triples) <= 8
        inst, k = reduce_x3c(x)
        assert k == x.q
        nt = len(x.triples)
        assert inst.graph.n == x.ground_size + nt
        assert inst.graph.m == nt * (nt - 1) // 2 + 3 * nt
        sp = split_partition(inst.graph)
        assert find_induced_star(sp, 5) is None
        cover = solve_x3c_bruteforce(x)
        min_size = brute_force_steiner(inst).min_size
        assert (cover is not None) == (min_size == k), serialize_instance(inst)
        outcomes[cover is not None] += 1
    assert outcomes[True] >= 1 and outcomes[False] >= 1
    print(f"criterion 6 PASS: 100 reductions, {outcomes[True]} solvable / "
          f"{outcomes[False]} not, dichotomy exact")


def test_criterion_7_performance_smoke():
    cfg2 = GeneratorConfig(clique_size=17_000, independent_size=33_000,
                           level=2, seed=7)
    inst2 = gen_split(cfg2)
    assert inst2.graph.n == 50_000
    t0 = time.perf_counter()
    res2 = solve(inst2)
    t2 = time.perf_counter() - t0
    assert res2.trace.regime == "2-split"
    # the tree certificate, which test_tree_certificate pins against the
    # bigint BFS; that BFS alone would take minutes at this size
    assert verify_solution(inst2, res2.steiner_set, res2.tree_edges)
    assert t2 < 10.0

    cfg3 = GeneratorConfig(clique_size=2_500, independent_size=2_500,
                           level=3, k14_free=True, seed=7)
    inst3 = gen_split(cfg3)
    assert inst3.graph.n == 5_000
    t0 = time.perf_counter()
    res3 = solve(inst3)
    t3 = time.perf_counter() - t0
    assert res3.trace.regime == "3-split"
    assert verify_solution(inst3, res3.steiner_set)
    assert t3 < 30.0
    print(f"criterion 7 PASS: 50k-vertex 2-split in {t2:.2f}s (< 10s), "
          f"5k-vertex 3-split in {t3:.2f}s (< 30s)")


def test_criterion_8_determinism(tmp_path, capsys):
    p3 = tmp_path / "p3.sstp"
    p3.write_text("p sstp 3 2 2\ne 1 2\ne 2 3\nt 1\nt 3\n", encoding="utf-8")
    runs = []
    for _ in range(2):
        assert main(["solve", "--input", str(p3), "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    gen_argv = ["gen", "--level", "3", "--clique", "8", "--indep", "9",
                "--k14-free", "--seed", "21"]
    assert main(gen_argv + ["--output", str(tmp_path / "g1.sstp")]) == 0
    assert main(gen_argv + ["--output", str(tmp_path / "g2.sstp")]) == 0
    capsys.readouterr()
    g1 = (tmp_path / "g1.sstp").read_bytes()
    assert g1 == (tmp_path / "g2.sstp").read_bytes()

    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "a.sstp").write_text(
        "p sstp 3 2 2\ne 1 2\ne 2 3\nt 1\nt 3\n", encoding="utf-8")
    (bench_dir / "b.sstp").write_bytes(g1)
    for seed in range(3):
        cfg = GeneratorConfig(clique_size=5, independent_size=8, level=2,
                              seed=seed)
        (bench_dir / f"c{seed}.sstp").write_text(
            serialize_instance(gen_split(cfg)), encoding="utf-8")
    outputs = []
    for argv in (["bench", "--dir", str(bench_dir), "--no-times"],
                 ["bench", "--dir", str(bench_dir), "--no-times",
                  "--workers", "2"],
                 ["bench", "--dir", str(bench_dir), "--no-times",
                  "--workers", "3"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    for line in outputs[0].splitlines():
        json.loads(line)  # every record is valid single-line JSON
    print("criterion 8 PASS: solve/gen/bench outputs byte-identical across "
          "repeats and worker counts")
