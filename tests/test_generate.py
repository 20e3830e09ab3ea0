import pytest

from splitsteiner import generate
from splitsteiner import (
    GeneratorConfig,
    GeneratorError,
    InvariantError,
    brute_force_steiner,
    find_induced_star,
    gen_split,
    serialize_instance,
    solve,
    split_partition,
)


def test_config_validation():
    with pytest.raises(ValueError, match="level must be 1, 2 or 3"):
        GeneratorConfig(clique_size=4, independent_size=3, level=0)
    with pytest.raises(ValueError, match="must be positive"):
        GeneratorConfig(clique_size=0, independent_size=3, level=1)
    with pytest.raises(ValueError, match="must be positive"):
        GeneratorConfig(clique_size=4, independent_size=0, level=1)
    with pytest.raises(ValueError, match="must lie in"):
        GeneratorConfig(clique_size=4, independent_size=3, level=1,
                        edge_density=1.5)
    for seed in (-1, 1.5, "7"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            GeneratorConfig(clique_size=4, independent_size=3, level=1, seed=seed)


def test_deterministic_per_seed():
    cfg = GeneratorConfig(clique_size=6, independent_size=8, level=3,
                          k14_free=True, seed=11)
    text = serialize_instance(gen_split(cfg))
    again = GeneratorConfig(clique_size=6, independent_size=8, level=3,
                            k14_free=True, seed=11)
    assert serialize_instance(gen_split(again)) == text
    other = GeneratorConfig(clique_size=6, independent_size=8, level=3,
                            k14_free=True, seed=12)
    assert serialize_instance(gen_split(other)) != text


SWEEP = [
    (1, 4, 3, False), (1, 5, 5, False), (1, 8, 8, False),
    (2, 4, 6, False), (2, 5, 8, False), (2, 6, 6, False),
    (3, 4, 6, False), (3, 3, 9, False),
    (3, 6, 4, True), (3, 3, 5, True), (3, 4, 7, True),
    (3, 6, 8, True), (3, 5, 6, True),
]


@pytest.mark.parametrize("level, a, b, k14", SWEEP)
@pytest.mark.parametrize("seed", [0, 7])
def test_generated_structure(level, a, b, k14, seed):
    cfg = GeneratorConfig(clique_size=a, independent_size=b, level=level,
                          k14_free=k14, seed=seed)
    inst = gen_split(cfg)
    assert inst.graph.n == a + b
    assert inst.terminals == tuple(range(a, a + b))
    sp = split_partition(inst.graph)
    # the constructed partition is also the canonical one
    assert sp.clique == tuple(range(a))
    assert sp.delta_i == level
    if k14:
        assert find_induced_star(sp, 4) is None


@pytest.mark.parametrize("density", [0.0, 1.0])
def test_density_extremes_keep_invariants(density):
    for level, a, b, k14 in [(1, 5, 4, False), (2, 5, 7, False),
                             (3, 5, 6, True)]:
        cfg = GeneratorConfig(clique_size=a, independent_size=b, level=level,
                              k14_free=k14, seed=3, edge_density=density)
        sp = split_partition(gen_split(cfg).graph)
        assert sp.delta_i == level
        if k14:
            assert find_induced_star(sp, 4) is None


@pytest.mark.parametrize("cfg_kwargs, match", [
    (dict(clique_size=1, independent_size=1, level=1), "at least 2"),
    (dict(clique_size=3, independent_size=4, level=1), "fits at most 3"),
    (dict(clique_size=4, independent_size=9, level=2), "at least 5"),
    (dict(clique_size=3, independent_size=1, level=2), "at least 2 independent"),
    (dict(clique_size=2, independent_size=30, level=3), "cannot cover"),
    (dict(clique_size=3, independent_size=8, level=3, k14_free=True),
     "shape fits"),
])
def test_infeasible_sizes(cfg_kwargs, match):
    with pytest.raises(GeneratorError, match=match):
        gen_split(GeneratorConfig(**cfg_kwargs))


def test_construction_miss_raises(monkeypatch):
    """A construction that misses its level is a bug: gen_split raises
    instead of retrying with fresh randomness."""
    monkeypatch.setattr(generate, "_cross_level2", generate._cross_level1)
    with pytest.raises(InvariantError, match="level-2 construction built "
                                             "a graph of level 1"):
        gen_split(GeneratorConfig(clique_size=6, independent_size=4, level=2))


@pytest.mark.parametrize("a, b, gap", [
    (6, 4, 2),   # hub is the only fitting shape
    (3, 5, 3),   # twohub only
    (4, 7, 4),   # tripod only
])
def test_shape_pinned_savings(a, b, gap):
    for seed in range(4):
        cfg = GeneratorConfig(clique_size=a, independent_size=b, level=3,
                              k14_free=True, seed=seed)
        inst = gen_split(cfg)
        res = solve(inst)
        assert res.trace.regime == "3-split"
        assert res.size == b - gap
        assert res.size == brute_force_steiner(inst).min_size


def test_all_three_savings_reachable():
    sizes = set()
    for seed in range(12):
        cfg = GeneratorConfig(clique_size=6, independent_size=7, level=3,
                              k14_free=True, seed=seed)
        sizes.add(7 - solve(gen_split(cfg)).size)
    assert sizes == {2, 3, 4}
