"""Steiner tree solvers for connected split graphs.

Pipeline: split_partition -> K_{1,4}-freeness verification -> pruning ->
dispatch on the reduced graph's maximum independent degree (delta_i) ->
output tree. Every stage after split_partition reads the partition only,
never the host graph: the output tree is the one a BFS would find, built
from the cross edges in closed form (_tree_edges).
Every regime reduces to picking clique vertices that cover the surviving
independent terminals, and proves how many picks it saves over one
clique neighbor per terminal; _cover makes the picks and raises
InvariantError when |I1| - |S| is not that saving:

  * delta 1: one clique neighbor per terminal, all forced (saving 0);
  * claw-free, |I1| <= 3: at delta 2 one clique vertex covers two
    terminals (saving 1), at delta <= 1 as above (saving 0);
  * delta 2: a maximum matching in the labeled graph M tells which
    clique vertices can cover two terminals at once, giving
    |S| = |I1| - alpha(M) (minimum edge cover via Gallai; saving
    alpha(M));
  * delta 3, K_{1,4}-free: at most one clique vertex covering three
    terminals is ever worth using; the best center v in V_3 with a
    matching on what remains yields |S| in {|I1|-2, |I1|-3, |I1|-4}
    (saving 2 to 4).
    K_{1,4}-freeness makes the V_3 triples pairwise intersecting, so the
    surviving matching alpha(T_v) never exceeds 2, and the probe rests on
    three facts of intersecting families. (1) alpha(T_v) depends on the
    triple T_v alone, and the center taken is min{v : alpha(T_v) is
    largest}. (2) In the link graph L(a) = {T - a : a in T} of an
    independent vertex a, survivor edges of different elements of T_v
    always meet, so alpha(T_v) = max over a in T_v of
    min(nu(L(a) - b - c), 2) with {b, c} = T_v - a. (3) Each link has a
    kernel of at most 45 edges that answers that for every {b, c}
    (_link_kernel). The probe costs O(|V_3|).

Graphs that are split but contain an induced K_{1,4} are NP-hard
territory; solve() either delegates to the exponential oracle (when
enabled and the clique is small enough) or raises NotK14FreeError with
a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, NotK14FreeError
from .matching import alpha_capped, matching_of_edges
from .oracle import brute_force_steiner
from .split import SplitPartition, split_partition
from .sstp import SteinerInstance
from .structure import (
    build_labeled_graph,
    corresponding_clique_set,
    corresponding_vertex_set,
    find_induced_star,
    restrict_view,
)

# the most non-terminal clique vertices the exact fallback searches over
FALLBACK_POOL = 20


@dataclass(frozen=True)
class SolveTrace:
    """Which regime ran and the matching sizes it decided on."""

    regime: str
    alpha_m: int | None = None
    alpha_m2: int | None = None
    chosen_v3_vertex: int | None = None


@dataclass(frozen=True)
class PrunedInstance:
    """Reduced instance: every surviving I-vertex is a terminal and no
    surviving clique vertex is one."""

    view: SplitPartition
    terminals: tuple[int, ...]
    removed_s1: tuple[int, ...]
    removed_s2: tuple[int, ...]
    removed_s3: tuple[int, ...]
    clique_terminal_anchor: int | None


@dataclass(frozen=True)
class SteinerResult:
    steiner_set: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]
    trace: SolveTrace

    @property
    def size(self) -> int:
        return len(self.steiner_set)


def prune(inst: SteinerInstance, sp: SplitPartition) -> PrunedInstance:
    """Remove S1 (non-terminal I), S2 (non-terminal C with no terminal
    I-neighbor), and S3 (terminal C-vertices plus their I-neighborhoods),
    in that order.

    Pruning can leave the reduced clique non-maximal, which the delta-
    dispatched solvers rely on; an I-vertex adjacent to all of the
    reduced clique is therefore promoted into it and, being a terminal,
    immediately removed by another S3 round. Promotion stops while fewer
    than two I-terminals remain: a promoted terminal reconnects through
    any clique vertex of the final solution, so at least one more
    terminal must stay behind to force such a vertex into S.
    """
    r_set = set(inst.terminals)
    s1 = [x for x in sp.independent if x not in r_set]
    s1_set = set(s1)
    s2 = [v for v in sp.clique
          if v not in r_set and not any(x in r_set for x in sp.indep_neighbors(v))]
    s2_set = set(s2)
    # S3 may overlap S1: it collects the whole I-neighborhood of every
    # clique terminal, terminal or not
    s3_set: set[int] = set()
    for v in sp.clique:
        if v in r_set:
            s3_set.add(v)
            s3_set.update(sp.indep_neighbors(v))

    clique_terminals = [v for v in sp.clique if v in r_set]
    anchor = clique_terminals[0] if clique_terminals else None
    c1 = {v for v in sp.clique if v not in s2_set and v not in s3_set}
    i1 = [x for x in sp.independent if x not in s1_set and x not in s3_set]
    # promotion leaves c1 as it is, so the promotable terminals are known
    # up front; they go in ascending order until one terminal is left
    promoted = [u for u in i1 if c1 <= set(sp.clique_neighbors(u))][:len(i1) - 1]
    if promoted:
        s3_set.update(promoted)
        i1 = [x for x in i1 if x not in s3_set]
        if anchor is None:
            anchor = promoted[0]

    view = restrict_view(sp, drop_clique=s2_set | s3_set,
                         drop_indep=s1_set | s3_set)
    terminals = tuple(i1)
    if view.independent != terminals:
        raise InvariantError("pruning left a non-terminal independent vertex")
    return PrunedInstance(view=view, terminals=terminals,
                          removed_s1=tuple(s1), removed_s2=tuple(s2),
                          removed_s3=tuple(sorted(s3_set)),
                          clique_terminal_anchor=anchor)


def _matched_labels(view: SplitPartition) -> tuple[set[int], int]:
    """Labels of a maximum matching in the labeled graph of view, one
    clique vertex per matched terminal pair, and the matching's size."""
    lg = build_labeled_graph(view)
    p = matching_of_edges((a, b) for a, b, _ in lg.labeled_edges)
    return set(corresponding_vertex_set(lg, p.edges)), p.size


def _check_disjoint(a: set[int], b: set[int]) -> None:
    if a & b:
        raise InvariantError(f"vertex sets overlap at {sorted(a & b)}")


def _cover(view: SplitPartition, s1: set[int], saved: range) -> tuple[int, ...]:
    """s1 plus the smallest clique neighbor of every terminal that s1
    leaves uncovered, sorted. Raises InvariantError unless the answer
    saves a number of picks in saved over one per terminal."""
    covered = {x for v in s1 for x in view.indep_neighbors(v)}
    s2 = set(corresponding_clique_set(
        view, [u for u in view.independent if u not in covered]))
    _check_disjoint(s1, s2)
    s = tuple(sorted(s1 | s2))
    n_i1 = len(view.independent)
    if n_i1 - len(s) not in saved:
        raise InvariantError(
            f"answer has {len(s)} vertices for {n_i1} terminals, a saving "
            f"of {n_i1 - len(s)} outside [{saved[0]}, {saved[-1]}]")
    return s


def _link_kernel(link: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Edges of the link graph that decide min(nu(link - b - c), 2) for
    every pair {b, c}, or None when the link has four disjoint edges, of
    which any b, c leave two.

    A greedy maximal matching of at most three edges covers the link
    with its vertex set X. Kept are the edges inside X and up to five
    edges from each x in X to outside X. A 2-matching avoiding b and c
    that uses a dropped edge x-y can trade it for a kept x-y': at most
    four outside vertices (b, c and the other edge's ends) are
    forbidden, so one of the five is free.
    """
    cover: set[int] = set()
    for x, y in link:
        if x not in cover and y not in cover:
            if len(cover) == 6:
                return None
            cover.update((x, y))
    spare = dict.fromkeys(cover, 5)
    kept = []
    for x, y in link:
        if x in cover and y in cover:
            kept.append((x, y))
        else:
            hub = x if x in cover else y
            if spare[hub]:
                spare[hub] -= 1
                kept.append((x, y))
    return kept


def _triple_alphas(view: SplitPartition) -> dict[tuple[int, ...], int]:
    """min(alpha, 2) of the survivor matching of each distinct V_3
    triple. Needs a K_{1,4}-free view, whose V_3 triples pairwise
    intersect."""
    triples = dict.fromkeys(view.indep_neighbors(v) for v in view.v3)
    links: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in triples:
        links.setdefault(a, []).append((b, c))
        links.setdefault(b, []).append((a, c))
        links.setdefault(c, []).append((a, b))
    kernels = {a: _link_kernel(link) for a, link in links.items()}
    alphas = {}
    for t in triples:
        alpha = 0
        for a in t:
            kernel = kernels[a]
            if kernel is None:
                alpha = 2
            else:
                b, c = (x for x in t if x != a)
                alpha = max(alpha, alpha_capped(
                    [e for e in kernel if b not in e and c not in e]))
            if alpha >= 2:
                break
        alphas[t] = alpha
    return alphas


def _probe_v3(view: SplitPartition) -> tuple[int, int]:
    """(v, alpha): the smallest V_3 center whose capped survivor
    matching is largest, and that capped size."""
    alphas = _triple_alphas(view)
    # max keeps the first of equal keys, and v3 is ascending
    best_v = max(view.v3, key=lambda v: alphas[view.indep_neighbors(v)])
    return best_v, alphas[view.indep_neighbors(best_v)]


def _solve_1split(view: SplitPartition) -> tuple[tuple[int, ...], SolveTrace]:
    return _cover(view, set(), range(0, 1)), SolveTrace(regime="1-split")


def solve_1split(pi: PrunedInstance) -> tuple[int, ...]:
    """One clique neighbor per terminal; all |I1| picks are forced."""
    if pi.view.delta_i != 1:
        raise ValueError(f"solve_1split needs delta_i == 1, got {pi.view.delta_i}")
    return _solve_1split(pi.view)[0]


def _solve_claw_free(view: SplitPartition) -> tuple[tuple[int, ...], SolveTrace]:
    # at delta 2 the smallest clique vertex with two terminals saves a pick
    shared = [v for v in view.clique if len(view.indep_neighbors(v)) == 2][:1]
    return (_cover(view, set(shared), range(len(shared), len(shared) + 1)),
            SolveTrace(regime="claw-free"))


def solve_claw_free(pi: PrunedInstance) -> tuple[int, ...]:
    """Claw-free reduced instances: delta 1 degenerates to one neighbor
    per terminal; delta 2 forces |I1| <= 3, one shared neighbor plus at
    most one extra pick."""
    view = pi.view
    if view.delta_i >= 3:
        raise ValueError("claw-free solver got a partition with delta_i >= 3")
    if view.delta_i == 2 and len(view.independent) > 3:
        raise ValueError("claw-free 2-split graphs have at most 3 I-vertices")
    return _solve_claw_free(view)[0]


def _solve_2split(view: SplitPartition) -> tuple[tuple[int, ...], SolveTrace]:
    labels, alpha = _matched_labels(view)
    return (_cover(view, labels, range(alpha, alpha + 1)),
            SolveTrace(regime="2-split", alpha_m=alpha))


def solve_2split(pi: PrunedInstance) -> tuple[int, ...]:
    """|S| = |I1| - alpha(M): matched labels cover two terminals each,
    every unmatched terminal gets its smallest clique neighbor."""
    if pi.view.delta_i != 2:
        raise ValueError(f"solve_2split needs delta_i == 2, got {pi.view.delta_i}")
    return _solve_2split(pi.view)[0]


def _solve_3split(view: SplitPartition) -> tuple[tuple[int, ...], SolveTrace]:
    """Needs a K_{1,4}-free view with delta_i == 3."""
    best_v, best_alpha = _probe_v3(view)
    alpha_m2: int | None = None
    chosen: int | None
    if best_alpha >= 1:
        # K_{1,4}-freeness leaves every clique vertex at most two
        # independent neighbors once those of best_v are dropped
        labels, alpha_m = _matched_labels(
            restrict_view(view, drop_indep=view.indep_neighbors(best_v)))
        if alpha_m != best_alpha:
            raise InvariantError(
                f"matching at center {best_v} has size {alpha_m}, "
                f"the probe found {best_alpha}")
        s1 = {best_v} | labels
        chosen = best_v
    else:
        alpha_m = 0
        labels, alpha_m2 = _matched_labels(restrict_view(view, drop_clique=view.v3))
        # every M2 edge touches the neighborhood of any V_3 vertex
        if alpha_m2 > 3:
            raise InvariantError(f"matching avoiding V_3 has size {alpha_m2} > 3")
        if alpha_m2 == 3:
            s1 = labels
            chosen = None
        else:
            chosen = view.v3[0]
            s1 = {chosen}
    return (_cover(view, s1, range(2, 5)),
            SolveTrace(regime="3-split", alpha_m=alpha_m, alpha_m2=alpha_m2,
                       chosen_v3_vertex=chosen))


def solve_3split(pi: PrunedInstance) -> tuple[int, ...]:
    """K_{1,4}-free 3-split instances: try each three-terminal center
    v in V_3 with a matching on the rest; with no useful center, a
    3-matching avoiding V_3 still saves a vertex when it exists."""
    if pi.view.delta_i != 3:
        raise ValueError(f"solve_3split needs delta_i == 3, got {pi.view.delta_i}")
    if find_induced_star(pi.view, 4) is not None:
        raise ValueError("solve_3split needs a K_{1,4}-free reduced graph")
    return _solve_3split(pi.view)[0]


def solve(inst: SteinerInstance, *, exact_fallback: bool = False) -> SteinerResult:
    """Full pipeline; see the module docstring.

    exact_fallback sends instances with an induced K_{1,4} to the
    brute-force oracle instead of raising, provided at most
    FALLBACK_POOL non-terminal clique vertices remain to search over.
    The oracle keeps its default subset budget, above the 2**20 subsets
    of that pool.
    """
    sp = split_partition(inst.graph)  # NotSplitError propagates
    r_set = set(inst.terminals)
    if not r_set:
        return SteinerResult((), (), SolveTrace(regime="empty"))

    witness = find_induced_star(sp, 4)
    if witness is not None:
        if not exact_fallback:
            raise NotK14FreeError(witness)
        pool = sum(v not in r_set for v in sp.clique)
        if pool > FALLBACK_POOL:
            raise NotK14FreeError(witness, refused=(
                f"{pool} non-terminal clique vertices, more than its limit "
                f"of {FALLBACK_POOL}"))
        orc = brute_force_steiner(inst, universe="clique-only")
        tree = _tree_edges(sp, set(orc.witness) | r_set)
        return SteinerResult(tuple(orc.witness), tree,
                             SolveTrace(regime="exact-fallback"))

    pi = prune(inst, sp)
    view = pi.view
    i1 = pi.terminals
    if not i1 or (len(i1) == 1 and pi.clique_terminal_anchor is None):
        # R is already connected: clique terminals are pairwise adjacent
        # and every pruned I-terminal hangs off one of them
        return SteinerResult((), _tree_edges(sp, r_set),
                             SolveTrace(regime="empty"))

    d = view.delta_i
    if not 1 <= d <= 3:  # every terminal kept a clique neighbor; K14-free caps at 3
        raise InvariantError(f"reduced instance has delta_i = {d}, outside [1, 3]")
    if d == 1:
        s, trace = _solve_1split(view)
    elif len(i1) <= 3 and d == 2 and find_induced_star(view, 3) is None:
        s, trace = _solve_claw_free(view)
    elif d == 2:
        s, trace = _solve_2split(view)
    else:
        s, trace = _solve_3split(view)
    _check_disjoint(set(s), r_set)
    return SteinerResult(s, _tree_edges(sp, set(s) | r_set), trace)


def _tree_edges(sp: SplitPartition,
                members: set[int]) -> tuple[tuple[int, int], ...]:
    """graph.bfs_tree's edges on members as sorted pairs (u, v), u < v,
    read off the partition. The BFS root is the smallest member. A clique
    root reaches the clique part at once; an independent root x0 reaches
    its clique neighbors A, and A[0] the rest of the clique part. Each
    other independent member hangs off its first clique neighbor in
    dequeue order: A, then the rest of the clique part ascending. Raises
    InvariantError when the members induce a disconnected graph.
    """
    if not members:
        return ()
    root = min(members)
    clique = [v for v in sp.clique if v in members]
    if clique and clique[0] == root:
        first: set[int] = set()
        edges = [(root, v) for v in clique[1:]]
    else:
        near = [v for v in sp.clique_neighbors(root) if v in members]
        if not near and len(members) > 1:
            raise InvariantError(f"tree root {root} reaches no other member")
        first = set(near)
        edges = [(root, v) for v in near]
        edges += [(near[0], v) for v in clique if v not in first]
    for x in members.difference(clique, (root,)):
        ws = [v for v in sp.clique_neighbors(x) if v in members]
        if not ws:
            raise InvariantError(f"tree member {x} has no clique neighbor")
        w = next((v for v in ws if v in first), ws[0])
        edges.append((x, w))
    return tuple(sorted((min(e), max(e)) for e in edges))
