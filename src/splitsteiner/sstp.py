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

Parsing is one pass over chunks of UTF-8 bytes read from the source:
each is one read of CHUNK_BYTES bytes, finished to the end of its last
line by readline (see _utf8_chunks). A \\n always ends a line and is
never part of a \\r\\n pair's first half or of a multi-byte UTF-8
sequence, so no line, token or character spans two chunks. A chunk is
tokenized with array operations (see _Chunk): bytes are classed by range
comparisons, token bounds come from one nonzero, and each number is
read from one unaligned little-endian 8-byte word per 8 digits, whose
digits are tested and joined by integer arithmetic on the whole word.
The chunk is then checked line by line; only a row of ids per edge, in
the narrowest dtype that holds n - 1 (uint16 while n <= 65,536: 4 bytes
per edge), and an id and a line number per terminal outlive it. No line
number is kept per edge.

The graph is then built from the rows (see _graph). Their degrees are
counted first. When the Hammer-Simeone test (see split) passes, the rows
are classed a chunk's piece at a time: clique pairs each set a bit of a
bit-packed k x k matrix, and the cross rows, between the clique and the
rest, are kept. Once no bit is set twice and no cross row repeats, the
graph is simple: the degree identity, which holds for a multigraph too,
leaves no row between two vertices outside the clique and makes the
clique complete. It is stored in the split layout (see graph), from its
cross rows alone. Any other graph has its rows, each viewed as one item
of 4, 8 or 16 bytes, sorted once to find a repeated row, and then gets
its full CSR from one sort of one int32 key per edge and orientation
(int64 once n**2 >= 2**31). Only when a row repeats is the source read
again, up to the earliest repeated row, for its line number.

Parsing an open file therefore holds one chunk of text (CHUNK_BYTES
bytes and the rest of a line) and its temporaries, about 12 bytes per
chunk byte, plus the rows, about 4 bytes per edge while n <= 65,536,
and never the file's bytes. A split graph adds k**2 / 8 bytes of bits,
where k(k - 1) <= 2m, and its cross rows: on 0.5M edges the parse peaks
at about 6 bytes per edge under tracemalloc, two thirds of it the rows
and the rest the last chunk's tokenizing. Any other graph adds the sort
keys and a mask over them: about 14 bytes per edge in all while n <
46,341 and about 30 from there on (int64 keys, then the int32 indices
written beside them); the rows' own sort, done first, takes 4 bytes per
edge. A str or bytes source adds its own UTF-8 bytes, and a file that
cannot seek is read whole first. Nothing is sized by the header's
counts. The .x3c reader (see x3c) tokenizes its chunks with the same
code.

Internally vertices are 0-based. Serialization is canonical: edges sorted
lexicographically, terminals ascending, no comments. It is written a
vertex at a time: one string per vertex holds the lines of its edges to
higher vertices, so a writer holds one row's text, not the file's.
"""

from __future__ import annotations

import io
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import BinaryIO, TextIO

import numpy as np

from .errors import InvariantError, SstpParseError
from .graph import Graph, RepeatedEdgeError, _csr, is_connected
from .split import _degree_test

MAX_DIGITS = 18  # 10**18 - 1 < 2**63
# bytes per chunk of the parse, chosen by measurement (BENCH_chunk_size.json)
CHUNK_BYTES = 1 << 16

# Tokens are decoded 8 bytes at a time from little-endian int64 words, so
# the first byte of a word is its lowest-order byte; additions wrap and
# the masks drop what a right shift copies of the sign. _TOP[k] keeps the
# last min(k, 8) bytes of a word: -2**b has every bit from b up set.
_TOP = np.array([0] + [-2**(64 - 8 * k) for k in range(1, 9)], dtype=np.int64)
_ZEROS = 0x3030303030303030  # '0' in every byte
_HIGH_BITS = np.int64(0x8080808080808080 - 2**64)  # 0x80 in every byte
_OVER_9 = 0x7676767676767676  # 0x76 + b sets the high bit iff b > 9


def _words(data: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at every byte offset of data, as a
    view of its bytes; data shorter than 8 bytes is copied, padded."""
    if data.size < 8:
        data = np.concatenate((data, np.zeros(8 - data.size, np.uint8)))
    return np.ndarray((data.size - 7,), dtype="<i8", buffer=data, strides=(1,))


def _decode(words: np.ndarray, end: np.ndarray, length: np.ndarray) -> tuple:
    """(is_digits, value) of the last min(length, 8) bytes before each of
    the ascending ends: whether all are ASCII digits and, where they are,
    the number they spell.

    One word is read per end, the one that ends there (the first word of
    data where end < 8, shifted up), so the token's last byte is the top
    byte. The bytes before the token are cleared and '0' is taken from
    the others. Every byte is then a digit iff neither it nor it plus 0x76
    has its high bit set: the lowest non-digit byte sets it in one of the
    two, since no byte below it borrows or carries. Three multiply-shift
    steps join the digits in pairs, fours and eights.
    """
    # indexing, not take: take copies a strided array whole first
    w = words[np.maximum(end - 8, 0)]
    short = int(end.searchsorted(8))
    if short:
        w[:short] <<= 8 * (8 - end[:short])
    top = _TOP.take(length, mode="clip")
    w &= top
    top &= _ZEROS
    w -= top
    np.add(w, _OVER_9, out=top)
    top |= w
    top &= _HIGH_BITS
    w *= 10 << 8 | 1
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 100 << 16 | 1
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 10000 << 32 | 1
    w >>= 32
    return top == 0, w


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
        for t in map(operator.index, self.terminals):  # ints, not floats or text
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


def _utf8_chunks(source: str | bytes | BinaryIO) -> Iterator[np.ndarray]:
    """The bytes of text (its UTF-8 bytes, lone surrogates kept), of
    UTF-8 bytes or of a file open in binary mode in chunks, as uint8
    arrays. A chunk is what one read of CHUNK_BYTES returns plus, unless
    that ends in \\n, the rest of its last line (the rest of the data when
    no \\n follows). A chunk therefore ends a line, and no \\r\\n pair,
    token or UTF-8 sequence spans two chunks. Bytes are checked a chunk
    at a time, so the first invalid sequence raises, when its chunk is
    reached, what decoding the whole source raises."""
    strict = not isinstance(source, str)
    if not strict:
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    offset = 0
    while chunk := source.read(CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += source.readline()
        try:
            if strict and not chunk.isascii():  # ASCII is valid UTF-8
                str(chunk, "utf-8")
        except UnicodeDecodeError as exc:
            raise _FileDecodeError(exc, offset) from None
        offset += len(chunk)
        yield np.frombuffer(chunk, np.uint8)
        del chunk  # free it before the next is read


class _Chunk:
    """The whitespace-separated tokens of one chunk of UTF-8 bytes that
    begins a line, numbered on from the line0 lines before it.

    Bytes are classed by range: whitespace is 9-13 and 28-32, line breaks
    10-13 and 28-30, and a \\n right after \\r ends no line of its own.
    Only the bytes below 32 are listed and classed one by one; a byte above
    31 is whitespace iff it is a space. Token bounds come from nonzero
    over one bool per byte that marks whitespace. start and end, is_int
    and value (int64, the token's number where is_int) hold one entry per
    token; _decode reads value from one word per 8 digits. statements()
    finds each line's first token and token count from the break
    positions alone. Offsets within the chunk (start, end, breaks, token
    lengths and line cuts) are int32 unless the chunk is 2 GiB long.
    Temporaries are two bools per chunk byte, then a few words per token;
    a chunk of 8 bytes or more is never copied.
    """

    def __init__(self, data: np.ndarray, line0: int):
        self.data = data
        self.line0 = line0
        # offsets within the chunk: int32 unless one line is 2 GiB long
        offset = _index_dtype(data.size)
        low = (data < 32).nonzero()[0]
        byte = data.take(low)
        brk = (byte - 10 < 4) | (byte - 28 < 3)
        # a \n right after a \r (the control byte listed just before it)
        brk[1:] &= (byte[1:] != 10) | (byte[:-1] != 13) | (low[1:] - low[:-1] != 1)
        self.breaks = low[brk].astype(offset)
        self.lines_after = line0 + self.breaks.size
        space = np.empty(data.size + 2, dtype=bool)
        space[0] = space[-1] = True
        np.less_equal(data, 32, out=space[1:-1])
        space[low[(byte < 9) | (byte - 14 < 14)] + 1] = False
        del low, byte, brk
        bounds = (space[1:] != space[:-1]).nonzero()[0]
        del space
        self.start = bounds[0::2].astype(offset)
        self.end = bounds[1::2].astype(offset)
        del bounds
        length = self.end - self.start
        words = _words(data)
        self.is_int, self.value = _decode(words, self.end, length)
        self.is_int &= length <= MAX_DIGITS
        # tokens of 9 to 18 digits: 8 more digits from each earlier word
        more = (self.is_int & (length > 8)).nonzero()[0]
        for k in (1, 2):
            if not more.size:
                break
            left = length.take(more) - 8 * k
            digits, part = _decode(words, self.end.take(more) - 8 * k, left)
            self.is_int[more] = digits
            self.value[more] += part * 10**(8 * k)
            more = more[digits & (left > 8)]

    def text(self, first: int, last: int | None = None) -> str:
        """Tokens first..last (default: first alone) with what lies between."""
        end = self.end[first if last is None else last]
        return self.data[self.start[first]:end].tobytes().decode("utf-8", "surrogatepass")

    def statements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(first token, token count, tag, line number) of each line that
        is not blank or a comment; the tag is the byte of a one-byte first
        token, else 0. A line's tokens are those between two breaks."""
        # cut[i] tokens lie before line i: 0, then one count per break
        cut = np.zeros(self.breaks.size + 2, dtype=self.start.dtype)
        cut[1:-1] = self.start.searchsorted(self.breaks)
        cut[-1] = self.start.size
        count = cut[1:] - cut[:-1]
        line = count.nonzero()[0]
        first = cut.take(line)
        count = count.take(line)
        lead = self.data.take(self.start.take(first))
        keep = lead != ord("#")
        first, count, lead, line = first[keep], count[keep], lead[keep], line[keep]
        tag = np.where(self.end.take(first) - self.start.take(first) == 1, lead, 0)
        return first, count, tag, line + (self.line0 + 1)


def _fault(ck: _Chunk, first: int, count: int, line: int, template: str) -> SstpParseError:
    """The error for line number line, whose tokens are first..first+count-1;
    the template may name the line, its 2nd and 3rd tokens and their values."""
    fields = {"line": ck.text(first, first + count - 1)}
    for k in range(1, min(count, 3)):
        fields[f"tok{k}"] = ck.text(first + k)
        fields[f"val{k}"] = int(ck.value[first + k])
    return SstpParseError(template.format(**fields), line)


def _header(ck: _Chunk, first: int, count: int, tag: int,
            line: int) -> tuple[int, int, int]:
    """(n, m, t) from the first line that is not a comment; raises unless
    it is a well-formed header whose edge count can connect n vertices."""
    if tag != ord("p"):
        before = {ord("e"): "edge before header", ord("t"): "terminal before header"}
        raise _fault(ck, first, count, line, before.get(tag, _MESSAGES[UNRECOGNIZED]))
    if count != 5 or ck.text(first + 1) != "sstp":
        raise _fault(ck, first, count, line, "bad header: {line!r}")
    counts = []
    for k, what in ((2, "vertex count"), (3, "edge count"), (4, "terminal count")):
        if not ck.is_int[first + k]:
            raise SstpParseError(f"{what} is not an integer: {ck.text(first + k)!r}", line)
        counts.append(int(ck.value[first + k]))
    n, m, t = counts
    if m < n - 1:
        # reject before allocating anything of size n
        raise SstpParseError(
            f"graph is not connected: {m} edges cannot connect {n} vertices", line)
    return n, m, t


def _first_repeat(keys: list[np.ndarray]) -> tuple[np.ndarray, int] | None:
    """(key as a one-item array, index) of the earliest item whose key an
    earlier item has, from keys in pieces, items counted across the
    pieces in order. One sort of the joined keys finds every repeated
    key, with neighbours compared a block at a time, so that only the
    joined keys and the repeated ones grow with the items; then only the
    items with one are gathered."""
    joined = np.concatenate(keys)
    joined.sort()
    step = 1 << 16
    blocks = (joined[i:i + step + 1] for i in range(0, max(joined.size, 1), step))
    repeated = np.concatenate([b[1:][b[1:] == b[:-1]] for b in blocks])
    del joined
    if not repeated.size:
        return None
    found, at, before = [], [], 0
    for key in keys:
        hit = np.flatnonzero(np.isin(key, repeated))
        found.append(key[hit])
        at.append(hit + before)
        before += len(key)
    found = np.concatenate(found)
    later = np.ones(found.size, dtype=bool)
    later[np.unique(found, return_index=True)[1]] = False
    i = int(np.argmax(later))
    return found[i:i + 1], int(np.concatenate(at)[i])


def _edge_repeat(pairs: list[np.ndarray],
                 reread: Callable[[], Iterator[np.ndarray]]) -> SstpParseError | None:
    """The error for the earliest edge row that repeats an earlier one, if
    any; its line is found by reading the source again (reread gives its
    chunks afresh) and counting the well-formed edge lines."""
    # each row (u, v) as one item, equal iff the rows are: its bytes as
    # one integer for ids of 2 or 4 bytes (int32 shares the sort code of
    # the CSR's keys), else as 16 bytes; no key like u * n + v is
    # computed, so none can overflow
    view = {2: np.int32, 4: np.int64}.get(pairs[0].itemsize, "V16")
    found = _first_repeat([p.view(view)[:, 0] for p in pairs])
    if found is None:
        return None
    u, v = found[0].view(pairs[0].dtype).tolist()
    row = found[1]
    for _, (pair, pair_line, *_) in _scanned(reread()):
        if row < len(pair):
            break
        row -= len(pair)
    return SstpParseError(_MESSAGES[DUPLICATE_EDGE].format(val1=u + 1, val2=v + 1),
                          int(pair_line[row]))


def _id_dtype(n: int) -> type:
    """The narrowest dtype that holds the ids 0..n-1."""
    return np.uint16 if n <= 2**16 else np.uint32 if n <= 2**32 else np.int64


def _scan(ck: _Chunk, first: np.ndarray, count: np.ndarray, tag: np.ndarray,
          line: np.ndarray, n: int) -> tuple:
    """Check the lines after the header in one chunk, in the order of the
    line-by-line checks but without the duplicate test. Returns the
    0-based ids and the line numbers of the well-formed edge lines and
    terminal lines, then the error of the first bad line or None. Ids
    are of the narrowest dtype that holds n - 1. Fault codes are worked
    out only for a chunk with a bad line."""
    id_type = _id_dtype(n)

    def values(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(is_int, value) of the k-th token of each row, read within bounds."""
        tok = first.take(rows) + k
        return ck.is_int.take(tok, mode="clip"), ck.value.take(tok, mode="clip")

    e = (tag == ord("e")).nonzero()[0]
    e_count = count.take(e)
    u_int, u = values(e, 1)
    v_int, v = values(e, 2)
    ok = (e_count == 3) & u_int & v_int & (u >= 1) & (u < v) & (v <= n)
    e_fault = None
    if not ok.all():
        e_fault = np.select(
            [e_count != 3, ~u_int, ~v_int, u == v,
             (u < 1) | (u > n) | (v < 1) | (v > n), u > v],
            [BAD_EDGE, U_NOT_INT, V_NOT_INT, SELF_LOOP, EDGE_RANGE, EDGE_ORDER], 0)
        u, v = u[ok], v[ok]
    pair = np.empty((u.size, 2), dtype=id_type)
    pair[:, 0], pair[:, 1] = u, v
    pair -= 1
    rows = [pair, line.take(e if e_fault is None else e[ok])]

    r = (tag == ord("t")).nonzero()[0]
    t_fault = None
    x, r_ok = np.empty(0, dtype=np.int64), r
    if r.size:  # most chunks hold no terminal line
        t_count = count.take(r)
        x_int, x = values(r, 1)
        ok = (t_count == 2) & x_int & (x >= 1) & (x <= n)
        if not ok.all():
            t_fault = np.select([t_count != 2, ~x_int, (x < 1) | (x > n)],
                                [BAD_TERMINAL, T_NOT_INT, TERMINAL_RANGE], 0)
            x, r_ok = x[ok], r[ok]
    rows += [(x - 1).astype(id_type),
             line.take(r_ok).astype(_index_dtype(ck.lines_after + 1))]

    if e_fault is None and t_fault is None and e.size + r.size == tag.size:
        return *rows, None
    fault = np.where(tag == ord("p"), DUPLICATE_HEADER, UNRECOGNIZED).astype(np.int8)
    fault[e] = 0 if e_fault is None else e_fault
    fault[r] = 0 if t_fault is None else t_fault
    i = fault.nonzero()[0][0]
    return *rows, _fault(ck, int(first[i]), int(count[i]), int(line[i]),
                         _MESSAGES[int(fault[i])])


def _scanned(chunks: Iterator[np.ndarray]) -> Iterator[tuple]:
    """(header, _scan's result) for each chunk from the one that holds the
    header on. A bad header raises its SstpParseError."""
    header = None
    lines_before = 0
    for data in chunks:
        ck = _Chunk(data, lines_before)
        lines_before = ck.lines_after
        lines = ck.statements()  # first token, token count, tag, line number
        if header is None and lines[0].size:
            header = _header(ck, *(int(col[0]) for col in lines))
            lines = tuple(col[1:] for col in lines)
        if header is not None:
            yield header, _scan(ck, *lines, header[0])
        del data, ck, lines  # free this chunk before the next is read


def _cross_rows(clique: np.ndarray, pairs: list[np.ndarray]) -> list[np.ndarray]:
    """The rows of pairs that leave the clique, once the rows inside it
    are shown to be distinct, and so to be all of its k(k-1)/2 pairs;
    the degrees must pass the Hammer-Simeone test with this clique.

    Each row inside the clique sets one bit of a bit-packed k x k
    matrix, indexed by the endpoints' ranks in the clique; a bit set
    twice is a repeated edge and raises RepeatedEdgeError. A row with
    both ends outside needs no check of its own: the degree identity
    gives e(C) - e(I) = k(k-1)/2 for a multigraph too, so such a row
    makes some clique pair repeat. With no bit set twice, e(C) is then
    k(k-1)/2 and e(I) is 0.
    """
    k = int(np.count_nonzero(clique))
    # each vertex's rank in the clique, -1 outside it
    rank = np.cumsum(clique, dtype=_index_dtype(k * k)) - 1
    rank[~clique] = -1
    marks = np.zeros((k * k + 7) // 8, dtype=np.uint8)
    cross, inside = [], 0
    for p in pairs:
        ru, rv = rank.take(p[:, 0]), rank.take(p[:, 1])
        both = (ru | rv) >= 0
        ru *= k
        ru += rv
        bit = ru[both]
        if bit.size:
            bit.sort()
            byte, mask = bit >> 3, np.left_shift(1, bit & 7).astype(np.uint8)
            if (bit[1:] == bit[:-1]).any() or (marks[byte] & mask).any():
                raise RepeatedEdgeError("a clique edge repeats")
            # the bits of each byte joined first: the bytes then repeat none
            first = np.concatenate(([0], (byte[1:] != byte[:-1]).nonzero()[0] + 1))
            marks[byte.take(first)] |= np.bitwise_or.reduceat(mask, first)
        inside += bit.size
        cross.append(p[~both])
    if inside != k * (k - 1) // 2:
        raise InvariantError("degree test passed but the clique is not complete")
    return cross


def _graph(n: int, pairs: list[np.ndarray],
           reread: Callable[[], Iterator[np.ndarray]]) -> Graph:
    """The graph whose edges are the rows of pairs; raises the
    SstpParseError of the earliest row that repeats an earlier one (see
    _edge_repeat, which reads the source again through reread).

    Its degrees are counted first. When they pass the Hammer-Simeone
    test (see split), the k vertices it names are a clique and the rest
    an independent set, provided the graph is simple; _cross_rows proves
    that, and the graph is built in the split layout from its cross rows
    alone. Otherwise a repeated row is looked for in the rows themselves
    and, when there is none, the full CSR is built from them.
    """
    # one bincount per run of pieces that holds n ids or more, so its
    # n entries cost O(1) per id whatever the number of pieces
    degrees = np.zeros(n, dtype=np.int64)
    run, ids = [], 0
    for i, p in enumerate(pairs, start=1):
        run.append(p.ravel())
        ids += p.size
        if ids >= n or i == len(pairs):
            degrees += np.bincount(np.concatenate(run) if len(run) > 1 else run[0],
                                   minlength=n)
            run, ids = [], 0
    order, k, split = _degree_test(degrees)
    if not split:
        # before the CSR's sort keys, which take twice the rows' bytes
        if (repeat := _edge_repeat(pairs, reread)) is not None:
            raise repeat
        return Graph(n, *_csr(n, pairs))
    clique = np.zeros(n, dtype=bool)
    clique[order[:k]] = True
    try:
        return Graph.from_cross_edges(clique, _cross_rows(clique, pairs))
    except RepeatedEdgeError as exc:  # only the source knows the line
        raise _edge_repeat(pairs, reread) or exc


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
    keeps, per chunk, the rows of edge ids, in the narrowest dtype that
    holds n - 1, and the terminal ids with their line numbers. When no
    line is malformed and the counts match the header, the graph is
    built from those rows (see _graph), which also finds any repeated
    edge. Edge rows carry no line numbers: only on that error path is
    the source read a second time, up to the earliest repeated row, to
    find its line. A file that cannot seek is therefore read whole first.
    """
    start = None  # where a file's SSTP text begins
    if not isinstance(source, (str, bytes)):
        if source.seekable():
            start = source.tell()
        else:
            source = source.read()

    def reread() -> Iterator[np.ndarray]:
        if start is not None:
            source.seek(start)
        return _utf8_chunks(source)

    header: tuple[int, int, int] | None = None
    fault: SstpParseError | None = None
    pairs, terminals, terminal_lines = [], [], []
    chunks = _utf8_chunks(source)
    try:
        for header, (pair, _, x, x_line, fault) in _scanned(chunks):
            pairs.append(pair)
            terminals.append(x)
            terminal_lines.append(x_line)
            if fault is not None:
                break
    except SstpParseError as exc:  # a bad header
        fault = exc
    for _ in chunks:  # later lines cannot fail first, but the bytes may
        pass
    if header is None:
        raise fault or SstpParseError("missing header")

    n, m, t = header
    repeat = _first_repeat(terminals)
    repeated_terminal = None if repeat is None else SstpParseError(
        _MESSAGES[DUPLICATE_TERMINAL].format(val1=int(repeat[0][0]) + 1),
        int(np.concatenate(terminal_lines)[repeat[1]]))
    x = np.concatenate(terminals)
    edges = sum(map(len, pairs))
    if fault is None and repeated_terminal is None and edges == m and len(x) == t:
        # the header has m >= n - 1 and m rows were read, so the build is
        # sized by the input, not by the header alone
        graph = _graph(n, pairs, reread)
        del pairs
        try:
            return SteinerInstance(graph=graph, terminals=tuple(x.tolist()))
        except ValueError as exc:  # terminals were checked above: not connected
            raise SstpParseError(str(exc)) from exc

    found = [fault, repeated_terminal, _edge_repeat(pairs, reread)]
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
