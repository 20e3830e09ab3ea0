"""Reference implementations the test suite trusts.

Everything here is deliberately naive: bitmask adjacency, exhaustive
enumeration, recursion. No code is shared with the package beyond the
Graph constructors at the edges of tests, so agreement between the two
sides is meaningful. The one exception is reference_probe, which keeps
the package's alpha_capped (checked against brute_matching in
test_matching) so that it stays the probe the solver used to run.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from splitsteiner import (
    Graph,
    NotSplitError,
    SplitPartition,
    SstpParseError,
    StarWitness,
    SteinerInstance,
)
from splitsteiner.matching import alpha_capped


def masks_from_graph(g: Graph) -> list[int]:
    return [sum(1 << int(w) for w in g.neighbors(v)) for v in range(g.n)]


def graph_from_masks(n: int, masks: list[int]) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if masks[u] >> v & 1]
    return Graph.from_edges(n, edges)


def reference_find_star(sp: SplitPartition, r: int) -> StarWitness | None:
    """The union-per-key star test that inclusion-exclusion replaced in
    the package, kept as its reference: O(|C|) per distinct N_I(v)."""
    if r < 3:
        raise ValueError("induced-star search needs r >= 3")
    if sp.delta_i <= r - 2:
        return None
    gaps: dict[tuple[int, ...], int | None] = {}
    for v in sp.clique:
        n_i = sp.indep_neighbors(v)
        d = len(n_i)
        if d >= r:
            return StarWitness(center=v, leaves=tuple(n_i[:r]))
        if d == r - 1:
            if n_i not in gaps:
                seen = set().union(*map(sp.clique_neighbors, n_i))
                gaps[n_i] = None if len(seen) == len(sp.clique) else min(
                    w for w in sp.clique if w not in seen)
            w = gaps[n_i]
            if w is not None:
                return StarWitness(center=v, leaves=tuple(n_i) + (w,))
    return None


def brute_find_star(masks: list[int], r: int):
    """First induced K_(1,r): (center, leaves) or None. Tries every
    center; its leaves are extended in ascending order, each only by a
    neighbor of the center adjacent to no leaf chosen so far, so the
    first witness is the first independent r-subset in lexicographic
    order."""
    n = len(masks)

    def extend(cands: list[int], leaves: tuple[int, ...]):
        if len(leaves) == r:
            return leaves
        # stop while fewer candidates are left than leaves are missing
        for i in range(len(cands) - (r - len(leaves)) + 1):
            v = cands[i]
            found = extend([w for w in cands[i + 1:] if not masks[v] >> w & 1],
                           leaves + (v,))
            if found is not None:
                return found
        return None

    for c in range(n):
        leaves = extend([v for v in range(n) if masks[c] >> v & 1], ())
        if leaves is not None:
            return c, leaves
    return None


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[tuple[int, ...], ...]:
    """The vertices of each subset of range(n), indexed by its bit mask."""
    return tuple(tuple(v for v in range(n) if s >> v & 1) for s in range(1 << n))


def brute_is_split(masks: list[int]) -> bool:
    """Try every subset as the clique side: it is complete when each of
    its vertices sees the rest of it, and the other side independent
    when none of its vertices sees any of it."""
    n = len(masks)
    members = _members(n)
    full = (1 << n) - 1
    for side in range(1 << n):
        rest = full ^ side
        if all(masks[u] & side | 1 << u == side for u in members[side]) and \
           not any(masks[x] & rest for x in members[rest]):
            return True
    return False


def brute_matching(n: int, edges) -> int:
    """Maximum matching size by branching over the edge list. Fine for
    a dozen vertices."""
    edge_list = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))

    @lru_cache(maxsize=None)
    def best(used: int, idx: int) -> int:
        if idx == len(edge_list):
            return 0
        u, v = edge_list[idx]
        res = best(used, idx + 1)
        if not used >> u & 1 and not used >> v & 1:
            res = max(res, 1 + best(used | 1 << u | 1 << v, idx + 1))
        return res

    out = best(0, 0)
    best.cache_clear()
    return out


def set_connected(masks: list[int], members) -> bool:
    """DFS over an explicit member set; the empty set counts as connected."""
    mem = sorted(set(members))
    if not mem:
        return True
    seen = {mem[0]}
    stack = [mem[0]]
    while stack:
        u = stack.pop()
        for v in mem:
            if v not in seen and masks[u] >> v & 1:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(mem)


def brute_steiner_min(masks: list[int], terminals, pool) -> int:
    """Smallest k such that some k-subset of pool connects the terminals."""
    base = sorted(set(terminals))
    pool = sorted(set(pool) - set(base))
    for k in range(len(pool) + 1):
        for s in combinations(pool, k):
            if set_connected(masks, base + list(s)):
                return k
    raise AssertionError("no feasible Steiner set in the given pool")


def split_corpus(max_n: int):
    """Every split graph on at most max_n vertices, as (n, masks) pairs.

    Built as a clique 0..a-1 plus b independent vertices whose rows are
    a multiset of clique subsets; that enumeration is exhaustive up to
    relabeling inside the independent side, which is all the structural
    checks can see. Graphs reachable from several (a, b) choices appear
    more than once; duplicates only re-test.
    """
    out = []
    for n in range(1, max_n + 1):
        for a in range(n + 1):
            b = n - a
            clique_mask = (1 << a) - 1
            for combo in combinations_with_replacement(range(1 << a), b):
                masks = [clique_mask & ~(1 << v) for v in range(a)] + [0] * b
                for i, row in enumerate(combo):
                    masks[a + i] = row
                    for v in range(a):
                        if row >> v & 1:
                            masks[v] |= 1 << (a + i)
                out.append((n, masks))
    return out


def assert_obstruction_is_real(g: Graph, err: NotSplitError) -> None:
    """err's vertices induce exactly the named 2K2, C4 or C5 in g, the
    cycles in cycle order."""
    vs = err.vertices
    rows = {u: set(g.neighbors(u).tolist()) for u in vs}
    present = {(min(u, v), max(u, v)) for u, v in combinations(vs, 2)
               if v in rows[u]}
    if err.kind == "2K2":
        a, b, c, d = vs
        assert present == {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
    elif err.kind == "C4":
        a, b, c, d = vs
        cyc = [(a, b), (b, c), (c, d), (d, a)]
        assert present == {(min(u, v), max(u, v)) for u, v in cyc}
    elif err.kind == "C5":
        assert len(vs) == 5 and len(present) == 5
        for i in range(5):
            u, v = vs[i], vs[(i + 1) % 5]
            assert v in rows[u]
    else:
        raise AssertionError(f"unknown obstruction kind {err.kind}")


def reference_obstruction(g: Graph) -> NotSplitError:
    """The obstruction finder that split_partition's certifier replaced,
    kept as its reference: an O(m^2) scan over pairs of edges for a 2K2,
    then searches for a C4 and a C5. Raises AssertionError when g has
    none of them, i.e. when g is split."""
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    edges = list(g.edges())
    # induced 2K2: two edges with no endpoints shared or adjacent
    for i, (a, b) in enumerate(edges):
        ab = adj[a] | adj[b] | {a, b}
        for c, d in edges[i + 1:]:
            if c not in ab and d not in ab:
                return NotSplitError("2K2", (a, b, c, d))
    # induced C4: non-adjacent u,v with two non-adjacent common neighbors
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v in adj[u]:
                continue
            common = sorted(adj[u] & adj[v])
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    if y not in adj[x]:
                        return NotSplitError("C4", (u, x, v, y))
    # induced C5: a-b-c-d-e-a with no chords
    for a in range(g.n):
        for b in sorted(adj[a]):
            for c in sorted(adj[b] - adj[a] - {a}):
                for d in sorted(adj[c] - adj[b] - adj[a] - {b}):
                    for e in sorted((adj[d] & adj[a]) - adj[b] - adj[c]):
                        if e != a and e != b:
                            return NotSplitError("C5", (a, b, c, d, e))
    raise AssertionError("non-split graph without 2K2/C4/C5 obstruction")


def _is_split_side(masks: list[int], clique: list[int]) -> bool:
    """clique is complete and maximal, and the rest is independent."""
    side = sum(1 << v for v in clique)
    rest = [x for x in range(len(masks)) if not side >> x & 1]
    return (all(masks[u] & side == side & ~(1 << u) for u in clique)
            and not any(masks[x] & ~side for x in rest)
            and not any(masks[x] & side == side for x in rest))


def _resolve_boundary_tie(masks: list[int], mandatory: list[int],
                          pool: list[int], h: int) -> list[int] | None:
    """Pick h pool vertices completing `mandatory` to a valid clique side.

    Boundary ties only occur when pool degrees equal k-1, so an included
    vertex is adjacent to exactly the rest of the clique. That forces each
    valid inclusion set S to equal {t} | (N(t) & pool) for every t in S,
    which leaves at most |pool| candidate sets to test. Returns the
    lexicographically smallest valid one, or None.
    """
    mset = set(mandatory)
    pset = set(pool)
    if h == 0:
        return [] if _is_split_side(masks, mandatory) else None
    best: list[int] | None = None
    seen: set[tuple[int, ...]] = set()
    for t in sorted(pool):
        nb = {v for v in range(len(masks)) if masks[t] >> v & 1}
        if not (mset <= nb and nb <= mset | pset):
            continue
        cand = sorted({t} | (nb & pset))
        key = tuple(cand)
        if key in seen or len(cand) != h:
            continue
        seen.add(key)
        if _is_split_side(masks, mandatory + cand):
            if best is None or cand < best:
                best = cand
    return best


def reference_split_clique(g: Graph) -> tuple[int, ...]:
    """The clique side split_partition chose before it took the first k
    vertices of the degree order, kept as its reference: the vertices
    above the boundary degree, completed by a search over the rows of
    those at it for the lexicographically smallest valid clique. g must
    be split."""
    masks = masks_from_graph(g)
    degs = [bin(row).count("1") for row in masks]
    order = sorted(range(g.n), key=lambda v: -degs[v])
    k = sum(1 for i, v in enumerate(order) if degs[v] >= i)
    if k == 0:
        return ()
    dk = degs[order[k - 1]]
    mandatory = [v for v in range(g.n) if degs[v] > dk]
    pool = [v for v in range(g.n) if degs[v] == dk]
    h = k - len(mandatory)
    if h == len(pool):
        chosen = pool if _is_split_side(masks, mandatory + pool) else None
    else:
        chosen = _resolve_boundary_tie(masks, mandatory, pool, h)
    assert chosen is not None, "no valid clique side: g is not split"
    return tuple(sorted(mandatory + chosen))


def reference_parse(text: str) -> SteinerInstance:
    """The line-by-line SSTP parser that parse_instance replaced, kept as
    its differential reference. Only _int changed: a number is 1 to 18
    ASCII digits, the grammar parse_instance accepts."""
    n = m = t = None
    edges: list[tuple[int, int]] = []
    terminals: list[int] = []
    seen_edges: set[tuple[int, int]] = set()
    seen_terms: set[int] = set()

    def _int(tok: str, lineno: int, what: str) -> int:
        if not (len(tok) <= 18 and tok.isascii() and tok.isdigit()):
            raise SstpParseError(f"{what} is not an integer: {tok!r}", lineno)
        return int(tok)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise SstpParseError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "sstp":
                raise SstpParseError(f"bad header: {line!r}", lineno)
            n = _int(parts[2], lineno, "vertex count")
            m = _int(parts[3], lineno, "edge count")
            t = _int(parts[4], lineno, "terminal count")
            if n < 0 or m < 0 or t < 0:
                raise SstpParseError("negative count in header", lineno)
            if m < n - 1:
                # reject before allocating anything of size n
                raise SstpParseError(
                    f"graph is not connected: {m} edges cannot connect "
                    f"{n} vertices", lineno)
        elif tag == "e":
            if n is None:
                raise SstpParseError("edge before header", lineno)
            if len(parts) != 3:
                raise SstpParseError(f"bad edge line: {line!r}", lineno)
            u = _int(parts[1], lineno, "edge endpoint")
            v = _int(parts[2], lineno, "edge endpoint")
            if u == v:
                raise SstpParseError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise SstpParseError(f"edge ({u}, {v}) out of range", lineno)
            if u > v:
                raise SstpParseError(
                    f"edge endpoints must satisfy u < v, got ({u}, {v})", lineno)
            if (u, v) in seen_edges:
                raise SstpParseError(f"duplicate edge ({u}, {v})", lineno)
            seen_edges.add((u, v))
            edges.append((u - 1, v - 1))
        elif tag == "t":
            if n is None:
                raise SstpParseError("terminal before header", lineno)
            if len(parts) != 2:
                raise SstpParseError(f"bad terminal line: {line!r}", lineno)
            u = _int(parts[1], lineno, "terminal")
            if not (1 <= u <= n):
                raise SstpParseError(f"terminal {u} out of range", lineno)
            if u in seen_terms:
                raise SstpParseError(f"duplicate terminal {u}", lineno)
            seen_terms.add(u)
            terminals.append(u - 1)
        else:
            raise SstpParseError(f"unrecognized line: {line!r}", lineno)

    if n is None:
        raise SstpParseError("missing header")
    if len(edges) != m:
        raise SstpParseError(f"header promises {m} edges, found {len(edges)}")
    if len(terminals) != t:
        raise SstpParseError(f"header promises {t} terminals, found {len(terminals)}")
    graph = Graph.from_edges(n, edges)
    try:
        return SteinerInstance(graph=graph, terminals=tuple(terminals))
    except ValueError as exc:  # terminals were checked above: not connected
        raise SstpParseError(str(exc)) from exc


def reference_serialize(inst: SteinerInstance) -> str:
    """The one-f-string-per-edge serializer that the package's row-at-a-time
    writer replaced, kept as its differential reference."""
    g = inst.graph
    lines = [f"p sstp {g.n} {g.m} {len(inst.terminals)}"]
    src, dst = g.edge_arrays()
    lines += [f"e {u} {v}" for u, v in zip((src + 1).tolist(), (dst + 1).tolist())]
    for u in inst.terminals:
        lines.append(f"t {u + 1}")
    return "\n".join(lines) + "\n"


def _survivor_pairs(v3_triples: list[tuple[int, tuple[int, ...]]],
                    v: int, banned: set[int]) -> list[tuple[int, int]]:
    """Labeled-graph edges left after dropping the I-neighborhood of v.

    Once the K_{1,4}-freeness check has passed, every clique vertex's
    neighborhood meets banned, so a surviving pair can only be another
    three-neighbor center's triple losing exactly one vertex."""
    out = []
    for u, xs in v3_triples:
        if u == v:
            continue
        rest = [x for x in xs if x not in banned]
        if len(rest) == 2:
            out.append((rest[0], rest[1]))
    return out


def reference_alpha(view, v: int) -> int:
    """min(alpha, 2) of the matching left for V_3 center v, from the
    survivor pairs of every other center."""
    v3_triples = [(u, view.indep_neighbors(u)) for u in view.v3]
    return alpha_capped(_survivor_pairs(v3_triples, v, set(view.indep_neighbors(v))))


def reference_probe(view) -> tuple[int, int]:
    """The O(|V_3|^2) V_3 probe that the solver's link-graph probe
    replaced, kept as its reference: every center in ascending order
    against the survivor pairs of all other centers, stopping at the
    first capped matching of 2. Returns (center, capped alpha)."""
    best_v = None
    best_alpha = -1
    for v in view.v3:  # ascending; strict improvement keeps the smallest id
        alpha = reference_alpha(view, v)
        if alpha > best_alpha:
            best_alpha, best_v = alpha, v
            if best_alpha == 2:  # alpha(M) caps at 2; no center can beat it
                break
    return best_v, best_alpha


def adversarial_instance(k: int, seed: int) -> SteinerInstance:
    """The K_(1,4)-free 3-split family on which every V_3 center keeps
    alpha(M) = 1, with a clique of k, randomly relabeled.

    Clique vertex i sees {x_p, x_q, leaf_i}, where {x_p, x_q} cycles
    through the 2-subsets of {x1, x2, x3}; any two of those meet, so the
    triples pairwise intersect. The survivors of one triple form a star,
    so a probe that stops at alpha 2 has to try every center. Terminals:
    the independent side.
    """
    iu, ju = np.triu_indices(k, 1)
    centers = np.arange(k)
    pairs = np.array([(0, 1), (0, 2), (1, 2)])[centers % 3]
    cross = [np.column_stack((centers, k + pairs[:, 0])),
             np.column_stack((centers, k + pairs[:, 1])),
             np.column_stack((centers, k + 3 + centers))]
    edges = np.concatenate([np.column_stack((iu, ju))] + cross)
    n = 2 * k + 3
    perm = np.random.default_rng(seed).permutation(n)
    return SteinerInstance(graph=Graph.from_edges(n, perm[edges]),
                           terminals=tuple(perm[k:].tolist()))


def adversarial_partition(k: int, seed: int) -> SplitPartition:
    """The partition split_partition gives for adversarial_instance(k,
    seed), built from its cross edges alone, without the C(k, 2) clique
    edges of a Graph."""
    perm = np.random.default_rng(seed).permutation(2 * k + 3).tolist()
    pairs = ((0, 1), (0, 2), (1, 2))
    n_i = {perm[i]: tuple(sorted((perm[k + pairs[i % 3][0]], perm[k + pairs[i % 3][1]],
                                  perm[k + 3 + i])))
           for i in range(k)}
    return SplitPartition.from_neighbor_map(tuple(sorted(perm[:k])),
                                            tuple(sorted(perm[k:])), n_i)
