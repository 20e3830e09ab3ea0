"""SSTP file format: Steiner tree instances on simple graphs.

Format (1-based vertex ids, '#' starts a comment line):

    p sstp <n> <m> <t>
    e <u> <v>        (m lines, 1 <= u < v <= n)
    t <u>            (t lines)

Grammar. Lines end where str.splitlines ends them on ASCII text: at \\n,
\\r, \\r\\n (one break), \\v, \\f, \\x1c, \\x1d and \\x1e. Tokens are
separated by ASCII whitespace: those breaks, tab, \\x1f and space. Every
count and vertex id is 1 to 18 ASCII digits (0-9), so it always fits a
64-bit integer. Anything else in a line that is not a comment is part of
a token and makes the line an error with its line number: a sign (+1),
an underscore (1_0), a non-ASCII digit, a longer number, and non-ASCII
text such as a no-break space between two ids. A comment line, whose
first non-blank character is '#', may hold any text.

Internally vertices are 0-based. Serialization is canonical: edges sorted
lexicographically, terminals ascending, no comments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SstpParseError
from .graph import Graph, is_connected

MAX_DIGITS = 18  # 10**18 - 1 < 2**63


def _byte_table(members: bytes) -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    table[list(members)] = True
    return table


# the ASCII line breaks of str.splitlines; with tab, \x1f and space they
# are the ASCII whitespace of str.split
_IS_BREAK = _byte_table(b"\n\r\x0b\x0c\x1c\x1d\x1e")
_IS_SPACE = _byte_table(b"\n\r\x0b\x0c\x1c\x1d\x1e\t\x1f ")
_IS_NONDIGIT = ~(_IS_SPACE | _byte_table(b"0123456789"))

# faults of the lines after the header, in the order the checks run
(UNRECOGNIZED, DUPLICATE_HEADER,
 BAD_EDGE, U_NOT_INT, V_NOT_INT, SELF_LOOP, EDGE_RANGE, EDGE_ORDER, DUPLICATE_EDGE,
 BAD_TERMINAL, T_NOT_INT, TERMINAL_RANGE, DUPLICATE_TERMINAL) = range(1, 14)
_MESSAGES = {
    UNRECOGNIZED: "unrecognized line: {line!r}",
    DUPLICATE_HEADER: "duplicate header",
    BAD_EDGE: "bad edge line: {line!r}",
    U_NOT_INT: "edge endpoint is not an integer: {tok1!r}",
    V_NOT_INT: "edge endpoint is not an integer: {tok2!r}",
    SELF_LOOP: "self-loop at vertex {val1}",
    EDGE_RANGE: "edge ({val1}, {val2}) out of range",
    EDGE_ORDER: "edge endpoints must satisfy u < v, got ({val1}, {val2})",
    DUPLICATE_EDGE: "duplicate edge ({val1}, {val2})",
    BAD_TERMINAL: "bad terminal line: {line!r}",
    T_NOT_INT: "terminal is not an integer: {tok1!r}",
    TERMINAL_RANGE: "terminal {val1} out of range",
    DUPLICATE_TERMINAL: "duplicate terminal {val1}",
}


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


class _Tokens:
    """The whitespace-separated tokens of a text, found with array
    operations over its UTF-8 bytes.

    Temporaries are one byte per input byte or a few words per token:
    token bounds come from flatnonzero on the whitespace edges, line
    numbers from searchsorted on the break positions, and the digit test
    from a logical-or reduction of a per-byte mask over each token.
    """

    def __init__(self, text: str):
        self.data = data = np.frombuffer(
            text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        inside = np.zeros(data.size + 2, dtype=bool)
        np.logical_not(_IS_SPACE[data], out=inside[1:-1])
        bounds = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2)
        del inside
        self.start, self.end = bounds.T.copy()
        del bounds
        breaks = np.flatnonzero(_IS_BREAK[data])
        crlf = (breaks > 0) & (data[breaks] == ord("\n")) & (data[breaks - 1] == ord("\r"))
        self.line = np.searchsorted(breaks[~crlf], self.start) + 1
        del breaks, crlf
        length = self.end - self.start
        # each reduced run goes from one token's start to the next one's;
        # the whitespace between them holds no non-digit byte
        self.is_int = length <= MAX_DIGITS
        if self.start.size:
            self.is_int &= ~np.logical_or.reduceat(_IS_NONDIGIT[data], self.start)
        self.value = np.zeros(self.start.size, dtype=np.int64)
        ints = np.flatnonzero(self.is_int)
        for j in range(MAX_DIGITS):
            ints = ints[length[ints] > j]
            if not ints.size:
                break
            self.value[ints] = self.value[ints] * 10 + (data[self.start[ints] + j] - ord("0"))

    def text(self, first: int, last: int | None = None) -> str:
        """Tokens first..last (default: first alone) with what lies between."""
        end = self.end[first if last is None else last]
        return self.data[self.start[first]:end].tobytes().decode("utf-8", "surrogatepass")


def _repeats(width: int, *cols: np.ndarray) -> np.ndarray:
    """Positions whose row of cols equals a row at an earlier position.

    Values lie in [0, width). Rows are first compared by one key, the row
    read in base width modulo 2**64; the exact comparison of a stable
    lexicographic sort runs only when two keys agree.
    """
    key = np.zeros(cols[0].size, dtype=np.uint64)
    for col in cols:
        key = key * np.uint64(width) + col.astype(np.uint64)
    key.sort()
    if not np.any(key[1:] == key[:-1]):
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort(cols[::-1])
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for col in cols:
        ranked = col[order]
        same &= ranked[1:] == ranked[:-1]
    return order[1:][same]


def _fault(tk: _Tokens, first: int, count: int, template: str) -> SstpParseError:
    """The error for the line whose tokens are first..first+count-1;
    the template may name the line, its 2nd and 3rd tokens and their values."""
    fields = {"line": tk.text(first, first + count - 1)}
    for k in range(1, min(count, 3)):
        fields[f"tok{k}"] = tk.text(first + k)
        fields[f"val{k}"] = int(tk.value[first + k])
    return SstpParseError(template.format(**fields), int(tk.line[first]))


def _header(tk: _Tokens, first: int, count: int) -> tuple[int, int, int]:
    """(n, m, t) from the header line; raises for a malformed header or
    one whose edge count cannot connect n vertices."""
    if count != 5 or tk.text(first + 1) != "sstp":
        raise _fault(tk, first, count, "bad header: {line!r}")
    counts = []
    for k, what in ((2, "vertex count"), (3, "edge count"), (4, "terminal count")):
        if not tk.is_int[first + k]:
            raise SstpParseError(f"{what} is not an integer: {tk.text(first + k)!r}",
                                 int(tk.line[first]))
        counts.append(int(tk.value[first + k]))
    n, m, t = counts
    if m < n - 1:
        # reject before allocating anything of size n
        raise SstpParseError(
            f"graph is not connected: {m} edges cannot connect {n} vertices",
            int(tk.line[first]))
    return n, m, t


def parse_instance(text: str) -> SteinerInstance:
    """Parse SSTP text into a SteinerInstance.

    Raises SstpParseError (with a 1-based line number) on malformed
    headers, bad ids, self-loops, duplicate edges or terminals, count
    mismatches, and on disconnected graphs. When several lines are
    malformed, the first one is reported, with the fault that the checks
    of its line type (arity, integers, self-loop, range, u < v,
    duplicate) meet first; a duplicate is reported at its later line.
    """
    tk = _Tokens(text)
    first = np.flatnonzero(np.diff(tk.line, prepend=0))  # first token per line
    count = np.diff(first, append=tk.start.size)
    lead = tk.data[tk.start[first]]
    keep = lead != ord("#")
    first, count, lead = first[keep], count[keep], lead[keep]
    if not first.size:
        raise SstpParseError("missing header")
    tag = np.where(tk.end[first] - tk.start[first] == 1, lead, 0)

    if tag[0] != ord("p"):
        before = {ord("e"): "edge before header", ord("t"): "terminal before header"}
        raise _fault(tk, int(first[0]), int(count[0]),
                     before.get(int(tag[0]), _MESSAGES[UNRECOGNIZED]))
    n, m, t = _header(tk, int(first[0]), int(count[0]))

    first, count, tag = first[1:], count[1:], tag[1:]
    fault = np.where(tag == ord("p"), DUPLICATE_HEADER, UNRECOGNIZED).astype(np.int8)
    last_token = tk.start.size - 1

    def values(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(is_int, value) of the k-th token of each row, read within bounds."""
        tok = np.minimum(first[rows] + k, last_token)
        return tk.is_int[tok], tk.value[tok]

    e = np.flatnonzero(tag == ord("e"))
    u_int, u = values(e, 1)
    v_int, v = values(e, 2)
    fault[e] = np.select(
        [count[e] != 3, ~u_int, ~v_int, u == v,
         (u < 1) | (u > n) | (v < 1) | (v > n), u > v],
        [BAD_EDGE, U_NOT_INT, V_NOT_INT, SELF_LOOP, EDGE_RANGE, EDGE_ORDER], 0)
    ok = np.flatnonzero(fault[e] == 0)
    fault[e[ok[_repeats(n + 1, u[ok], v[ok])]]] = DUPLICATE_EDGE

    r = np.flatnonzero(tag == ord("t"))
    x_int, x = values(r, 1)
    fault[r] = np.select([count[r] != 2, ~x_int, (x < 1) | (x > n)],
                         [BAD_TERMINAL, T_NOT_INT, TERMINAL_RANGE], 0)
    ok = np.flatnonzero(fault[r] == 0)
    fault[r[ok[_repeats(n + 1, x[ok])]]] = DUPLICATE_TERMINAL

    bad = np.flatnonzero(fault)
    if bad.size:
        i = bad[0]
        raise _fault(tk, int(first[i]), int(count[i]), _MESSAGES[int(fault[i])])
    if e.size != m:
        raise SstpParseError(f"header promises {m} edges, found {e.size}")
    if r.size != t:
        raise SstpParseError(f"header promises {t} terminals, found {r.size}")
    graph = Graph.from_edges(n, np.stack((u, v), axis=1) - 1)
    try:
        return SteinerInstance(graph=graph, terminals=tuple((x - 1).tolist()))
    except ValueError as exc:  # terminals were checked above: not connected
        raise SstpParseError(str(exc)) from exc


def serialize_instance(inst: SteinerInstance) -> str:
    """Canonical SSTP text for an instance (1-based, sorted, newline-terminated)."""
    g = inst.graph
    lines = [f"p sstp {g.n} {g.m} {len(inst.terminals)}"]
    src, dst = g.edge_arrays()
    lines += [f"e {u} {v}" for u, v in zip((src + 1).tolist(), (dst + 1).tolist())]
    for u in inst.terminals:
        lines.append(f"t {u + 1}")
    return "\n".join(lines) + "\n"
