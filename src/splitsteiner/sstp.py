"""SSTP file format: Steiner tree instances on simple graphs.

Format (1-based vertex ids, '#' starts a comment line):

    p sstp <n> <m> <t>
    e <u> <v>        (m lines, 1 <= u < v <= n)
    t <u>            (t lines)

Internally vertices are 0-based. Serialization is canonical: edges sorted
lexicographically, terminals ascending, no comments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SstpParseError
from .graph import Graph, is_connected


@dataclass(frozen=True)
class SteinerInstance:
    """A connected graph plus a terminal set R (possibly empty)."""

    graph: Graph
    terminals: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise ValueError(f"terminal {t} out of range")
            if t in seen:
                raise ValueError(f"duplicate terminal {t}")
            seen.add(t)
        object.__setattr__(self, "terminals", tuple(sorted(seen)))
        if not is_connected(self.graph):
            raise ValueError("instance graph is not connected")


def parse_instance(text: str) -> SteinerInstance:
    """Parse SSTP text into a SteinerInstance.

    Raises SstpParseError (with a 1-based line number) on malformed
    headers, bad ids, self-loops, duplicate edges or terminals, count
    mismatches, and on disconnected graphs.
    """
    n = m = t = None
    edges: list[tuple[int, int]] = []
    terminals: list[int] = []
    seen_edges: set[tuple[int, int]] = set()
    seen_terms: set[int] = set()

    def _int(tok: str, lineno: int, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise SstpParseError(f"{what} is not an integer: {tok!r}", lineno)

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


def serialize_instance(inst: SteinerInstance) -> str:
    """Canonical SSTP text for an instance (1-based, sorted, newline-terminated)."""
    g = inst.graph
    lines = [f"p sstp {g.n} {g.m} {len(inst.terminals)}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    for u in inst.terminals:
        lines.append(f"t {u + 1}")
    return "\n".join(lines) + "\n"
