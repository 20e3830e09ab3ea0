"""Seeded random split-graph generators for the property suites.

Each level assembles cross edges that satisfy the target maximum
independent degree, clique maximality (every I-vertex stays short of
full clique adjacency) and connectivity by construction, in one attempt.
split_partition then checks the result, and a miss is a construction
bug, raised as InvariantError rather than retried.

The K_{1,4}-free 3-split family comes in four shapes, all built around
a hub c0 adjacent to {x1, x2, x3} with every other clique vertex
anchored at a shared I-vertex so the pairwise neighborhood-intersection
condition holds. The shapes differ in what the solver can match after
removing a hub neighborhood, which pins the optimum:

  hub     every extra I-vertex hangs off an x1 filler    -> |S| = |I|-2
  petals  three extras on fillers at distinct anchors    -> |S| = |I|-3
  twohub  second hub c1 sharing x1, plus w0 ~ {x2, a4}   -> |S| = |I|-3
  tripod  hubs c1, c2 sharing x1 and a stitch vertex w0  -> |S| = |I|-4

Clique vertices take ids 0..a-1 and independent vertices a..a+b-1; the
terminal set defaults to the whole independent side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeneratorError, InvariantError
from .graph import Graph
from .split import split_partition
from .sstp import SteinerInstance
from .structure import find_induced_star


@dataclass(frozen=True)
class GeneratorConfig:
    clique_size: int
    independent_size: int
    level: int
    k14_free: bool = False
    seed: int = 0
    edge_density: float = 0.25

    def __post_init__(self) -> None:
        if self.level not in (1, 2, 3):
            raise ValueError(f"level must be 1, 2 or 3, got {self.level}")
        if self.clique_size < 1 or self.independent_size < 1:
            raise ValueError("clique_size and independent_size must be positive")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError(f"edge_density must lie in [0, 1], got {self.edge_density}")


def _cross_level1(rng: np.random.Generator, a: int, b: int,
                  density: float) -> list[list[int]]:
    if a < 2:
        raise GeneratorError("1-split generation needs a clique of at least 2")
    if b > a:
        raise GeneratorError(
            f"1-split with clique {a} fits at most {a} independent vertices, got {b}")
    hosts = [int(v) for v in rng.permutation(a)[:b]]
    cross: list[list[int]] = [[] for _ in range(a)]
    load = [0] * b
    for j, h in enumerate(hosts):
        cross[h] = [j]
        load[j] = 1
    for w in sorted(set(range(a)) - set(hosts)):
        if rng.random() < density:
            j = int(rng.integers(b))
            if load[j] < a - 1:
                cross[w] = [j]
                load[j] += 1
    return cross


def _cross_level2(rng: np.random.Generator, a: int, b: int,
                  density: float) -> list[list[int]]:
    need = (b + 1) // 2
    if b < 2:
        raise GeneratorError("2-split generation needs at least 2 independent vertices")
    if a < max(2, need):
        raise GeneratorError(
            f"2-split with {b} independent vertices needs a clique of at "
            f"least {max(2, need)}, got {a}")
    iperm = [int(v) for v in rng.permutation(b)]
    cperm = [int(v) for v in rng.permutation(a)]
    cross: list[list[int]] = [[] for _ in range(a)]
    load = [0] * b
    pos = used = 0
    while pos + 1 < b:
        v = cperm[used]
        cross[v] = [iperm[pos], iperm[pos + 1]]
        load[iperm[pos]] += 1
        load[iperm[pos + 1]] += 1
        pos += 2
        used += 1
    if pos < b:
        cross[cperm[used]] = [iperm[pos]]
        load[iperm[pos]] += 1
        used += 1
    for t in range(used, a):
        if rng.random() >= density:
            continue
        # rejection sampling: loads sit far below the a-1 cap, so a few
        # draws almost always land
        sel: list[int] = []
        want = 2 if b >= 2 and rng.random() < 0.7 else 1
        for _ in range(8):
            j = int(rng.integers(b))
            if load[j] < a - 1 and j not in sel:
                sel.append(j)
                if len(sel) == want:
                    break
        if sel:
            sel.sort()
            cross[cperm[t]] = sel
            for j in sel:
                load[j] += 1
    return cross


def _cross_level3_free(rng: np.random.Generator, a: int, b: int,
                       density: float) -> list[list[int]]:
    if a < 2 or b < 3:
        raise GeneratorError(
            "3-split generation needs a clique of at least 2 and at least "
            "3 independent vertices")
    if b - 3 > 3 * (a - 1):
        raise GeneratorError(
            f"clique {a} cannot cover {b} independent vertices at degree 3")
    iperm = [int(v) for v in rng.permutation(b)]
    cperm = [int(v) for v in rng.permutation(a)]
    cross: list[list[int]] = [[] for _ in range(a)]
    load = [0] * b
    cross[cperm[0]] = iperm[:3]
    for j in iperm[:3]:
        load[j] = 1
    room = cperm[1:]
    t = 0
    for j in iperm[3:]:
        for attempt in range(len(room)):
            w = room[(t + attempt) % len(room)]
            if len(cross[w]) < 3:
                cross[w].append(j)
                load[j] += 1
                t = (t + attempt + 1) % len(room)
                break
        else:
            raise GeneratorError("ran out of clique capacity")  # unreachable
    for w in room:
        while len(cross[w]) < 3 and rng.random() < density:
            avail = [j for j in range(b) if load[j] < a - 1 and j not in cross[w]]
            if not avail:
                break
            j = avail[int(rng.integers(len(avail)))]
            cross[w].append(j)
            load[j] += 1
    return cross


def _cross_level3_k14(rng: np.random.Generator, a: int, b: int,
                      density: float) -> list[list[int]]:
    shapes = []
    if a >= 3 and 3 <= b <= a + 1:
        shapes.append("hub")
    if a >= 4 and 6 <= b <= a + 2:
        shapes.append("petals")
    if a >= 3 and 5 <= b <= a + 2:
        shapes.append("twohub")
    if a >= 4 and 7 <= b <= a + 3:
        shapes.append("tripod")
    if not shapes:
        raise GeneratorError(
            f"no K_(1,4)-free 3-split shape fits clique={a}, independent={b}")
    shape = shapes[int(rng.integers(len(shapes)))]
    iperm = [int(v) for v in rng.permutation(b)]
    cperm = [int(v) for v in rng.permutation(a)]
    cross: list[list[int]] = [[] for _ in range(a)]
    load = [0] * b

    def attach(v: int, js: tuple[int, ...]) -> None:
        cross[v] = list(js)
        for j in js:
            load[j] += 1

    x1, x2, x3 = iperm[0], iperm[1], iperm[2]
    attach(cperm[0], (x1, x2, x3))
    rotation = [x2, x3, x1]
    second_anchors: list[int] = []

    if shape == "hub":
        new = iperm[3:]
        fillers = cperm[1:]
        for t, j in zip(fillers, new):
            attach(t, (x1, j))
        singles = fillers[len(new):]
        attach(singles[0], (x2,))
        for i, w in enumerate(singles[1:]):
            attach(w, (rotation[(i + 1) % 3],))
        second_anchors = [x1, x2, x3]
    elif shape == "petals":
        new = iperm[3:]
        fillers = cperm[1:]
        base = [x1, x2, x3]
        for i, (t, j) in enumerate(zip(fillers, new)):
            attach(t, (base[i % 3], j))
        for i, w in enumerate(fillers[len(new):]):
            attach(w, (rotation[i % 3],))
        second_anchors = [x1, x2, x3]
    elif shape == "twohub":
        a4, a5 = iperm[3], iperm[4]
        attach(cperm[1], (x1, a4, a5))
        attach(cperm[2], (x2, a4))
        new = iperm[5:]
        carriers = cperm[3:]
        for t, j in zip(carriers, new):
            attach(t, (x1, j))
        for w in carriers[len(new):]:
            attach(w, (x1,))
        second_anchors = [x2, x3, a4, a5]
    else:  # tripod
        a4, a5, a6, a7 = iperm[3], iperm[4], iperm[5], iperm[6]
        attach(cperm[1], (x1, a4, a5))
        attach(cperm[2], (x1, a6, a7))
        attach(cperm[3], (x2, a4, a6))
        new = iperm[7:]
        carriers = cperm[4:]
        for t, j in zip(carriers, new):
            attach(t, (x1, x2, j))
        for w in carriers[len(new):]:
            attach(w, (x1, x2))

    if second_anchors:
        # widening a degree-1 filler keeps every shape's matching
        # structure; the load bound keeps the clique maximal
        for v in range(a):
            if len(cross[v]) == 1 and rng.random() < density:
                opts = [j for j in second_anchors
                        if j not in cross[v] and load[j] < a - 1]
                if opts:
                    j = opts[int(rng.integers(len(opts)))]
                    cross[v].append(j)
                    load[j] += 1
    if any(l >= a for l in load):
        raise InvariantError(
            "K_(1,4)-free level 3: an independent vertex sees the whole clique")
    return cross


def _assemble(a: int, b: int, cross: list[list[int]]) -> SteinerInstance:
    """Split-layout graph of clique 0..a-1 and independent a..a+b-1, from
    the cross edges per clique vertex (independent side given as local
    0..b-1 indices). The clique's pairs are implied, never stored.
    """
    n = a + b
    pairs = np.array([(v, a + j) for v in range(a) for j in cross[v]],
                     dtype=np.int64).reshape(-1, 2)
    clique = np.zeros(n, dtype=bool)
    clique[:a] = True
    g = Graph.from_cross_edges(clique, [pairs])
    return SteinerInstance(graph=g, terminals=tuple(range(a, n)))


def gen_split(cfg: GeneratorConfig) -> SteinerInstance:
    """Connected split graph at the requested level, terminals = I.

    Deterministic per seed. Infeasible size combinations raise
    GeneratorError; a construction that split_partition and the K_{1,4}
    check do not confirm raises InvariantError.
    """
    a, b = cfg.clique_size, cfg.independent_size
    rng = np.random.default_rng(cfg.seed)
    if cfg.level == 1:
        cross = _cross_level1(rng, a, b, cfg.edge_density)
    elif cfg.level == 2:
        cross = _cross_level2(rng, a, b, cfg.edge_density)
    elif cfg.k14_free:
        cross = _cross_level3_k14(rng, a, b, cfg.edge_density)
    else:
        cross = _cross_level3_free(rng, a, b, cfg.edge_density)
    inst = _assemble(a, b, cross)
    sp = split_partition(inst.graph)
    if sp.delta_i != cfg.level:
        raise InvariantError(
            f"level-{cfg.level} construction built a graph of level {sp.delta_i}")
    if cfg.k14_free and find_induced_star(sp, 4) is not None:
        raise InvariantError("K_(1,4)-free construction built an induced K_(1,4)")
    return inst
