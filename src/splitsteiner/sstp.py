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

Parsing is one pass over chunks of UTF-8 bytes read from the source,
each about CHUNK_BYTES long and cut just after a \\n byte. A \\n always
ends a line and is never part of a \\r\\n pair's first half or of a
multi-byte UTF-8 sequence, so no line, token or character spans two
chunks. A chunk is tokenized with array operations and checked line by
line; only one row of ids and a line number per edge and per terminal
outlive it, as int32 when they fit: 12 bytes per edge. The graph is built
from those rows with one sort of one int32 key per edge and orientation
(int64 once n**2 >= 2**31), 8 bytes per edge that become the CSR indices.
Parsing an open file therefore holds O(CHUNK_BYTES) bytes of text and
per-chunk temporaries plus about 22 bytes per edge at its peak (rows,
keys and a mask comparing neighbouring keys), and never the file's bytes;
a str or bytes source adds its own UTF-8 bytes.
Nothing is sized by the header's counts.

Internally vertices are 0-based. Serialization is canonical: edges sorted
lexicographically, terminals ascending, no comments. It is written a
vertex at a time: one string per vertex holds the lines of its edges to
higher vertices, so a writer holds one row's text, not the file's.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO, TextIO

import numpy as np

from .errors import SstpParseError
from .graph import Graph, _csr, is_connected

MAX_DIGITS = 18  # 10**18 - 1 < 2**63
# bytes per chunk of the parse, chosen by measurement (BENCH_sstp_chunked.json)
CHUNK_BYTES = 1 << 18


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


def _index_dtype(bound: int) -> type:
    """The narrower integer dtype that holds 0..bound."""
    return np.int32 if bound < 2**31 else np.int64


def _fill(source: BinaryIO, head: bytes, size: int) -> bytes:
    """head followed by what source holds next, up to size bytes in all;
    shorter only where the source ends."""
    parts = [head]
    size -= len(head)
    while size > 0 and (more := source.read(size)):
        parts.append(more)
        size -= len(more)
    return b"".join(parts)


def _chunks(source: BinaryIO) -> Iterator[bytes]:
    """The bytes of source in chunks: the longest prefix of the next
    CHUNK_BYTES bytes that ends in \\n, or, when that window holds no \\n,
    everything up to and including the next one (the rest of the data when
    there is none). A chunk therefore ends a line, and no \\r\\n pair,
    token or UTF-8 sequence spans two chunks. One byte past the window is
    read to tell whether the data ends inside it."""
    window = CHUNK_BYTES
    buf = _fill(source, b"", window + 1)
    while len(buf) > window:
        cut = buf.rfind(b"\n", 0, window)
        searched = window
        while cut < 0 and searched < len(buf):
            # a line longer than the window: read on to its \n, doubling
            # what is held, so each byte of the line is copied O(1) times
            cut = buf.find(b"\n", searched)
            searched = len(buf)
            if cut < 0:
                buf = _fill(source, buf, 2 * searched)
        if cut < 0:
            break
        yield buf[:cut + 1]
        buf = _fill(source, buf[cut + 1:], window + 1)
    if buf:
        yield buf


class _FileDecodeError(UnicodeDecodeError):
    """The UnicodeDecodeError of an invalid sequence in one chunk, with
    start and end counted from the start of the file. object is that
    chunk alone, so object[start - offset] is the first bad byte; str()
    reads as for a decode of the whole file."""

    def __init__(self, exc: UnicodeDecodeError, offset: int):
        super().__init__(exc.encoding, exc.object, offset + exc.start,
                         offset + exc.end, exc.reason)
        self.offset = offset

    def __str__(self) -> str:
        if self.end == self.start + 1:
            byte = self.object[self.start - self.offset]
            return (f"'{self.encoding}' codec can't decode byte 0x{byte:02x} "
                    f"in position {self.start}: {self.reason}")
        return (f"'{self.encoding}' codec can't decode bytes in position "
                f"{self.start}-{self.end - 1}: {self.reason}")


def _check_utf8(chunk: bytes, offset: int) -> None:
    """Raise what decoding the whole file raises for an invalid sequence
    in the chunk that starts at byte offset; chunks end a line, so the
    first fault and its position match the whole file's."""
    try:
        str(chunk, "utf-8")
    except UnicodeDecodeError as exc:
        raise _FileDecodeError(exc, offset) from None


class _Chunk:
    """The whitespace-separated tokens of one chunk of UTF-8 bytes that
    begins a line, numbered on from the line0 lines before it.

    Temporaries are one byte per chunk byte or a few words per token:
    token bounds come from flatnonzero on the whitespace edges, line
    numbers from searchsorted on the break positions, and the digit test
    from a logical-or reduction of a per-byte mask over each token.
    """

    def __init__(self, data: np.ndarray, line0: int):
        self.data = data
        inside = np.zeros(data.size + 2, dtype=bool)
        np.logical_not(_IS_SPACE[data], out=inside[1:-1])
        bounds = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2)
        del inside
        self.start, self.end = bounds.T.copy()
        del bounds
        breaks = np.flatnonzero(_IS_BREAK[data])
        crlf = (breaks > 0) & (data[breaks] == ord("\n")) & (data[breaks - 1] == ord("\r"))
        breaks = breaks[~crlf]
        self.line = np.searchsorted(breaks, self.start) + (line0 + 1)
        self.lines_after = line0 + breaks.size
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

    def statements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first token, token count, tag) of each line that is not blank
        or a comment; the tag is the byte of a one-byte first token, else 0."""
        first = np.flatnonzero(np.diff(self.line, prepend=0))
        count = np.diff(first, append=self.start.size)
        lead = self.data[self.start[first]]
        keep = lead != ord("#")
        first, count, lead = first[keep], count[keep], lead[keep]
        tag = np.where(self.end[first] - self.start[first] == 1, lead, 0)
        return first, count, tag


def _repeats(*cols: np.ndarray) -> np.ndarray:
    """Positions whose row of cols equals a row at an earlier position,
    by the comparison of a stable lexicographic sort."""
    order = np.lexsort(cols[::-1])
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for col in cols:
        ranked = col[order]
        same &= ranked[1:] == ranked[:-1]
    return order[1:][same]


def _fault(ck: _Chunk, first: int, count: int, template: str) -> SstpParseError:
    """The error for the line whose tokens are first..first+count-1;
    the template may name the line, its 2nd and 3rd tokens and their values."""
    fields = {"line": ck.text(first, first + count - 1)}
    for k in range(1, min(count, 3)):
        fields[f"tok{k}"] = ck.text(first + k)
        fields[f"val{k}"] = int(ck.value[first + k])
    return SstpParseError(template.format(**fields), int(ck.line[first]))


def _header(ck: _Chunk, first: int, count: int, tag: int) -> tuple[int, int, int]:
    """(n, m, t) from the first line that is not a comment; raises unless
    it is a well-formed header whose edge count can connect n vertices."""
    if tag != ord("p"):
        before = {ord("e"): "edge before header", ord("t"): "terminal before header"}
        raise _fault(ck, first, count, before.get(tag, _MESSAGES[UNRECOGNIZED]))
    if count != 5 or ck.text(first + 1) != "sstp":
        raise _fault(ck, first, count, "bad header: {line!r}")
    counts = []
    for k, what in ((2, "vertex count"), (3, "edge count"), (4, "terminal count")):
        if not ck.is_int[first + k]:
            raise SstpParseError(f"{what} is not an integer: {ck.text(first + k)!r}",
                                 int(ck.line[first]))
        counts.append(int(ck.value[first + k]))
    n, m, t = counts
    if m < n - 1:
        # reject before allocating anything of size n
        raise SstpParseError(
            f"graph is not connected: {m} edges cannot connect {n} vertices",
            int(ck.line[first]))
    return n, m, t


def _first_repeat(ids: list[np.ndarray], lines: list[np.ndarray],
                  template: str) -> SstpParseError | None:
    """The error for the earliest row of 0-based ids, kept in pieces with
    the pieces of their line numbers, that repeats an earlier one, if any."""
    rows = np.concatenate(ids)
    pos = _repeats(*rows.T)
    if not pos.size:
        return None
    i = int(pos.min())
    fields = {f"val{k}": x + 1 for k, x in enumerate(rows[i].tolist(), start=1)}
    return SstpParseError(template.format(**fields), int(np.concatenate(lines)[i]))


def _scan(ck: _Chunk, first: np.ndarray, count: np.ndarray, tag: np.ndarray,
          n: int) -> tuple:
    """Check the lines after the header in one chunk, in the order of the
    line-by-line checks but without the duplicate test. Returns the
    0-based ids and the line numbers of the well-formed edge lines and
    terminal lines, then the error of the first bad line or None."""
    fault = np.where(tag == ord("p"), DUPLICATE_HEADER, UNRECOGNIZED).astype(np.int8)
    last_token = ck.start.size - 1
    id_type = _index_dtype(n)
    line_type = _index_dtype(ck.lines_after + 1)

    def values(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(is_int, value) of the k-th token of each row, read within bounds."""
        tok = np.minimum(first[rows] + k, last_token)
        return ck.is_int[tok], ck.value[tok]

    e = np.flatnonzero(tag == ord("e"))
    u_int, u = values(e, 1)
    v_int, v = values(e, 2)
    fault[e] = np.select(
        [count[e] != 3, ~u_int, ~v_int, u == v,
         (u < 1) | (u > n) | (v < 1) | (v > n), u > v],
        [BAD_EDGE, U_NOT_INT, V_NOT_INT, SELF_LOOP, EDGE_RANGE, EDGE_ORDER], 0)
    ok = fault[e] == 0
    rows = [np.stack((u[ok] - 1, v[ok] - 1), axis=1).astype(id_type),
            ck.line[first[e[ok]]].astype(line_type)]

    r = np.flatnonzero(tag == ord("t"))
    x_int, x = values(r, 1)
    fault[r] = np.select([count[r] != 2, ~x_int, (x < 1) | (x > n)],
                         [BAD_TERMINAL, T_NOT_INT, TERMINAL_RANGE], 0)
    ok = fault[r] == 0
    rows += [(x[ok] - 1)[:, None].astype(id_type), ck.line[first[r[ok]]].astype(line_type)]

    bad = np.flatnonzero(fault)
    if not bad.size:
        return *rows, None
    i = bad[0]
    return *rows, _fault(ck, int(first[i]), int(count[i]), _MESSAGES[int(fault[i])])


def parse_instance(source: str | bytes | BinaryIO) -> SteinerInstance:
    """Parse SSTP text, the UTF-8 bytes of an SSTP file, or an SSTP file
    open in binary mode, into a SteinerInstance.

    Raises SstpParseError (with a 1-based line number) on malformed
    headers, bad ids, self-loops, duplicate edges or terminals, count
    mismatches, and on disconnected graphs. When several lines are
    malformed, the first one is reported, with the fault that the checks
    of its line type (arity, integers, self-loop, range, u < v,
    duplicate) meet first; a duplicate is reported at its later line.
    Bytes that are not UTF-8 raise UnicodeDecodeError, as decoding the
    whole file first would, before any SstpParseError.

    One pass reads the source in chunks (see the module docstring) and
    keeps, per chunk, the rows of edge and terminal ids and their line
    numbers, int32 when they fit. When no line is malformed and the counts
    match the header, the graph is built straight from those rows, whose
    one sort also finds a repeated edge; only then are the rows joined to
    find the line of the earliest repeat.
    """
    strict = not isinstance(source, str)
    if not strict:
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    header: tuple[int, int, int] | None = None
    fault: SstpParseError | None = None
    kept = ([], [], [], [])  # per chunk: edge ids, their lines, terminal ids, their lines
    offset = lines_before = 0
    for chunk in _chunks(source):
        if strict:
            _check_utf8(chunk, offset)
        offset += len(chunk)
        if fault is not None:
            continue  # later lines cannot fail first, but the bytes may
        ck = _Chunk(np.frombuffer(chunk, np.uint8), lines_before)
        lines_before = ck.lines_after
        first, count, tag = ck.statements()
        if header is None and first.size:
            try:
                header = _header(ck, int(first[0]), int(count[0]), int(tag[0]))
            except SstpParseError as exc:
                fault = exc
                continue
            first, count, tag = first[1:], count[1:], tag[1:]
        if header is not None:
            *rows, fault = _scan(ck, first, count, tag, header[0])
            for pieces, row in zip(kept, rows):
                pieces.append(row)
        del chunk, ck, first, count, tag  # free this chunk before the next is read
    if header is None:
        raise fault or SstpParseError("missing header")

    n, m, t = header
    pairs, pair_lines, terminals, terminal_lines = kept
    del kept
    repeated_terminal = _first_repeat(terminals, terminal_lines, _MESSAGES[DUPLICATE_TERMINAL])
    x = np.concatenate(terminals)[:, 0]
    edges = sum(map(len, pairs))
    if fault is None and repeated_terminal is None and edges == m and len(x) == t:
        # the header has m >= n - 1 and m rows were read, so the build is
        # sized by the input, not by the header alone
        try:
            graph = Graph(n, *_csr(n, pairs))
        except ValueError as exc:  # a repeated edge; only the rows know its line
            raise _first_repeat(pairs, pair_lines, _MESSAGES[DUPLICATE_EDGE]) or exc
        del pairs, pair_lines
        try:
            return SteinerInstance(graph=graph, terminals=tuple(x.tolist()))
        except ValueError as exc:  # terminals were checked above: not connected
            raise SstpParseError(str(exc)) from exc

    found = [fault, repeated_terminal,
             _first_repeat(pairs, pair_lines, _MESSAGES[DUPLICATE_EDGE])]
    found = [exc for exc in found if exc is not None]
    if found:
        raise min(found, key=lambda exc: exc.line)
    if edges != m:
        raise SstpParseError(f"header promises {m} edges, found {edges}")
    raise SstpParseError(f"header promises {t} terminals, found {len(x)}")


def _blocks(inst: SteinerInstance) -> Iterator[str]:
    """The canonical text in pieces: the header line, then the edge lines
    of each vertex u with a higher neighbour as one string, made by one
    join over a table of labels, then the terminal lines as one string."""
    g = inst.graph
    yield f"p sstp {g.n} {g.m} {len(inst.terminals)}\n"
    # labels[v] is the 1-based id of vertex v; indexing the object array
    # with a row picks the strings without a Python loop
    labels = np.array([str(v + 1) for v in range(g.n)], dtype=object)
    for u in range(g.n):
        row = g.neighbors(u)
        higher = row[int(np.searchsorted(row, u + 1)):]
        if higher.size:
            head = f"e {labels[u]} "
            yield head + ("\n" + head).join(labels[higher]) + "\n"
    if inst.terminals:
        yield "".join(f"t {labels[t]}\n" for t in inst.terminals)


def serialize_instance(inst: SteinerInstance) -> str:
    """Canonical SSTP text for an instance (1-based, sorted, newline-terminated)."""
    return "".join(_blocks(inst))


def write_instance(inst: SteinerInstance, fh: TextIO) -> None:
    """Write serialize_instance(inst) to a text file a row at a time, so
    the whole text is never held."""
    fh.writelines(_blocks(inst))
