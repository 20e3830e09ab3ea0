"""Structural analysis of split partitions.

Induced stars K_{1,r} in a split graph always have their center in the
clique and at most one leaf there, so searching for one reduces to two
neighborhood tests per clique vertex:

  * d_I(v) >= r gives a star with all leaves independent;
  * d_I(v) == r-1 plus a clique vertex w missing all of N_I(v) gives a
    star whose last leaf is w.

find_induced_star is the package's one K_{1,r} test. The paper's two
characterizations are its cases: a graph with delta_i <= 2 is claw-free
iff every clique vertex with two independent neighbors shares one of
them with every other clique vertex (r = 3), and a 3-split graph is
K_{1,4}-free iff the same holds for every clique vertex with three
(r = 4). Neither needs the clique to be maximal, so the solvers ask it
about pruned views too.

The labeled graph M of a view with d_I <= 2 has the independent set as
its vertices and one edge {a, b} per pair sharing a clique neighbor; the
edge is labeled by the smallest such neighbor. Matchings in M translate
back to Steiner vertices via the corresponding vertex/clique sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .split import SplitPartition


@dataclass(frozen=True)
class StarWitness:
    """An induced K_{1,r}: center plus r pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, ...]


def restrict_view(src: SplitPartition,
                  drop_clique: Iterable[int] = (),
                  drop_indep: Iterable[int] = ()) -> SplitPartition:
    """View of src with the given clique/independent vertices removed."""
    dc = set(drop_clique)
    di = set(drop_indep)
    clique = tuple(v for v in src.clique if v not in dc)
    independent = tuple(x for x in src.independent if x not in di)
    n_i: dict[int, tuple[int, ...]] = {}
    for v in clique:
        xs = src.indep_neighbors(v)
        if di:
            xs = tuple(x for x in xs if x not in di)
        if xs:
            n_i[v] = xs
    return SplitPartition.from_neighbor_map(src.n, clique, independent, n_i)


def find_induced_star(sp: SplitPartition, r: int) -> StarWitness | None:
    """First induced K_{1,r} witness (ascending center id), or None.

    Requires r >= 3. Within a center, leaves all in the independent set
    are preferred; otherwise the last leaf is the smallest clique vertex
    whose neighborhood misses N_I(center).
    """
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


@dataclass(frozen=True)
class LabeledGraph:
    """Graph on the independent set with clique-vertex edge labels.

    labeled_edges holds (a, b, label) with a < b, sorted by (a, b); the
    label is the smallest clique vertex adjacent to both a and b.
    """

    vertices: tuple[int, ...]
    labeled_edges: tuple[tuple[int, int, int], ...]


def build_labeled_graph(sp: SplitPartition) -> LabeledGraph:
    """Labeled graph of a view whose clique vertices have at most two
    independent neighbors each. Raises ValueError above that bound,
    because edge labels would stop being well defined."""
    if sp.delta_i > 2:
        raise ValueError(
            f"labeled graph needs independent degrees <= 2, got {sp.delta_i}")
    chosen: dict[tuple[int, int], int] = {}
    for v in sp.clique:  # ascending, so the first label per pair is smallest
        xs = sp.indep_neighbors(v)
        if len(xs) == 2:
            pair = (xs[0], xs[1])
            if pair not in chosen:
                chosen[pair] = v
    edges = tuple(sorted((a, b, lab) for (a, b), lab in chosen.items()))
    return LabeledGraph(vertices=tuple(sp.independent), labeled_edges=edges)


def corresponding_vertex_set(m: LabeledGraph,
                             edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Labels of the given labeled-graph edges, one per edge, sorted.

    Raises ValueError if an edge is not in m or if two distinct edges
    carry the same label (cannot happen when every label vertex has at
    most two independent neighbors, but is checked defensively).
    """
    by_pair = {(a, b): lab for a, b, lab in m.labeled_edges}
    out: list[int] = []
    seen: dict[int, tuple[int, int]] = {}
    for e in edges:
        a, b = min(e), max(e)
        if (a, b) not in by_pair:
            raise ValueError(f"edge ({a}, {b}) is not in the labeled graph")
        lab = by_pair[(a, b)]
        if lab in seen and seen[lab] != (a, b):
            raise ValueError(f"label {lab} shared by edges {seen[lab]} and {(a, b)}")
        seen[lab] = (a, b)
        out.append(lab)
    return tuple(sorted(set(out)))


def corresponding_clique_set(sp: SplitPartition,
                             vertices: Iterable[int]) -> tuple[int, ...]:
    """Smallest clique neighbor of each given independent vertex,
    deduplicated and sorted. Raises ValueError when a vertex has no
    neighbor inside the view's clique."""
    out: set[int] = set()
    for u in sorted(set(vertices)):
        ws = sp.clique_neighbors(u)
        if not ws:
            raise ValueError(f"vertex {u} has no clique neighbor in the view")
        out.add(ws[0])
    return tuple(sorted(out))
