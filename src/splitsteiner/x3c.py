"""Exact-3-Cover instances and their reduction to Steiner tree.

The reduction is the hardness side of the solver's dichotomy: ground
elements become the independent set (all terminals), triples become a
clique, and membership becomes the cross edges. The resulting graph is
always K_{1,5}-free but generally not K_{1,4}-free, and an exact cover
of size q exists iff q clique vertices suffice to connect the terminals.

Vertex layout of the reduced graph: ground element j (1-based) is vertex
j-1, the l-th triple (0-based) is vertex 3q + l.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO

import numpy as np

from .errors import X3CParseError
from .graph import Graph
from .sstp import MAX_DIGITS, SteinerInstance, _Chunk, _first_repeat, _utf8_chunks

# uncovered ground elements named in reduce_x3c's error
_LISTED = 10


@dataclass(frozen=True)
class X3CInstance:
    """Ground set {1..ground_size} and a deduplicated collection of
    3-element subsets, both held in sorted canonical form."""

    ground_size: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        g, triples = self.ground_size, self.triples
        if not hasattr(g, "__index__") or not 3 <= g < 2**63 or g % 3 != 0:
            raise ValueError("ground size must be a positive multiple of 3 below 2**63, "
                             f"got {g!r}")
        try:
            rows = _rows(triples)
        except (TypeError, OverflowError):  # the triples before the first bad one
            head = next(i for i, t in enumerate(triples) if not _integers(t))
            rows = _rows(triples[:head])
        head = len(rows)
        if (fault := _first_fault(g, rows)) is not None:
            raise ValueError(fault[1])
        if head < len(triples):
            t = tuple(triples[head])
            if len(t) == 3 and all(hasattr(e, "__index__") for e in t):  # past int64
                raise ValueError(_range_fault(tuple(map(operator.index, t)), g))
            raise ValueError(f"triple {t} must be 3 integers")
        key = np.sort(rows, axis=1)
        order = np.lexsort(key.T[::-1])
        object.__setattr__(self, "ground_size", operator.index(g))
        object.__setattr__(self, "triples", tuple(map(tuple, key[order].tolist())))

    @property
    def q(self) -> int:
        return self.ground_size // 3


def _first_fault(ground: int, rows: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first of the (n, 3) int64 rows, in order,
    with a repeated element, an element outside 1..ground, or the
    elements of an earlier row; None if there is none."""
    key = np.sort(rows, axis=1)
    bad = np.flatnonzero((key[:, 0] == key[:, 1]) | (key[:, 1] == key[:, 2])
                         | (key[:, 0] < 1) | (key[:, 2] > ground))
    head = int(bad[0]) if bad.size else len(rows)
    # each sorted row as one item of 24 bytes, equal iff the rows are
    if (repeat := _first_repeat([key[:head].view("V24")[:, 0]])) is not None:
        return repeat[1], f"duplicate triple {tuple(key[repeat[1]].tolist())}"
    if head == len(rows):
        return None
    return head, _range_fault(tuple(rows[head].tolist()), ground)


def _rows(triples: tuple) -> np.ndarray:
    """The triples as an (n, 3) int64 array. Raises TypeError or
    OverflowError unless each is 3 integers that fit an int64."""
    if set(map(len, triples)) - {3}:
        raise TypeError("a triple is not 3 long")
    elements = map(operator.index, chain.from_iterable(triples))
    return np.fromiter(elements, dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)


def _integers(triple: tuple) -> bool:
    """Whether _rows accepts triple."""
    return len(triple) == 3 and all(
        hasattr(e, "__index__") and -2**63 <= operator.index(e) < 2**63 for e in triple)


def _range_fault(t: tuple[int, int, int], ground: int) -> str:
    """The message for 3 integers that repeat one or leave 1..ground."""
    outside = [e for e in t if not 1 <= e <= ground]
    return (f"triple {t} has repeated elements" if len(set(t)) != 3
            else f"element {outside[0]} outside ground set 1..{ground}")


def _check_line(ck: _Chunk, first: int, size: int, tag: int, line: int,
                header_read: bool) -> tuple[int, int]:
    """(ground size, triple count) of a header read first; raises the
    X3CParseError of any other line that is not a triple of integers."""
    if tag == ord("c"):
        problem = ("triple line before header" if not header_read else
                   "triple line must be 'c <a> <b> <c>'" if size != 4 else
                   "non-integer element")
    elif ck.text(first) != "x3c":
        problem = f"unrecognized line {ck.text(first, first + size - 1)!r}"
    elif header_read:
        problem = "duplicate header"
    elif size != 3:
        problem = "header must be 'x3c <3q> <n>'"
    elif not ck.is_int[first + 1:first + 3].all():
        negative = re.fullmatch(f"-[0-9]{{1,{MAX_DIGITS}}}", ck.text(first + 2))
        problem = "negative triple count" if negative else "non-integer header field"
    else:
        ground, count = ck.value[first + 1:first + 3].tolist()
        if ground >= 3 and ground % 3 == 0:
            return ground, count
        problem = f"ground size {ground} is not a positive multiple of 3"
    raise X3CParseError(problem, line=line)


def parse_x3c(source: str | bytes | BinaryIO) -> X3CInstance:
    """Parse the x3c format, as text, UTF-8 bytes or a file open in binary
    mode: `x3c <3q> <n>` then n lines `c <a> <b> <c>`, 1-indexed; blank
    lines and `#` comments are skipped. The .sstp reader (see sstp) reads
    and tokenizes it a chunk at a time, so its grammar is that of .sstp,
    and bytes that are not UTF-8 raise before any X3CParseError. Only the
    grammar is checked here; X3CInstance checks the triples, once."""
    count: int | None = None  # of triples, once the header is read
    ground = lines_before = 0
    fault: X3CParseError | None = None
    rows = []  # of the triple lines: their three elements, then their line number
    chunks = _utf8_chunks(source)
    try:
        for data in chunks:
            ck = _Chunk(data, lines_before)
            lines_before = ck.lines_after
            first, size, tag, line = cols = ck.statements()
            while True:  # to the next line that is not a triple: the header or a fault
                cells = first[:, None] + np.arange(1, 4)  # a triple line's elements
                ok = ((tag == ord("c")) & (size == 4) & (count is not None)
                      & ck.is_int.take(cells, mode="clip").all(axis=1))
                stop = ok.size if ok.all() else int(np.argmin(ok))
                rows.append(np.column_stack((ck.value.take(cells[:stop]), line[:stop])))
                if stop == ok.size:
                    break
                ground, count = _check_line(ck, *(int(c[stop]) for c in cols),
                                            count is not None)
                first, size, tag, line = cols = tuple(c[stop + 1:] for c in cols)
            del data, ck  # free this chunk before the next is read
    except X3CParseError as exc:
        fault = exc
        for _ in chunks:  # a later byte that is not UTF-8 is reported first
            pass
    if count is None:
        raise fault or X3CParseError("missing 'x3c' header")
    given = np.concatenate(rows)
    try:
        x = X3CInstance(ground, given[:, :3].tolist())  # type: ignore[arg-type]
    except ValueError:  # the bad triple comes before any fault of the grammar
        i, message = _first_fault(ground, given[:, :3])
        raise X3CParseError(message, line=int(given[i, 3])) from None
    if fault is not None or len(x.triples) != count:
        raise fault or X3CParseError(
            f"header declares {count} triples, found {len(x.triples)}")
    return x


def serialize_x3c(x: X3CInstance) -> str:
    lines = [f"x3c {x.ground_size} {len(x.triples)}"]
    lines.extend(f"c {a} {b} {c}" for a, b, c in x.triples)
    return "\n".join(lines) + "\n"


def reduce_x3c(x: X3CInstance) -> tuple[SteinerInstance, int]:
    """Steiner instance whose minimum Steiner set has size q iff x has an
    exact cover. Rejects instances with an uncovered ground element,
    since those reduce to a disconnected graph."""
    rows = np.array(x.triples, dtype=np.int64).reshape(-1, 3)
    covered = np.unique(rows)
    uncovered = x.ground_size - covered.size
    if uncovered:
        # the first few, so the work is bounded by the triples, not the header
        low = np.arange(1, min(x.ground_size, covered.size + _LISTED) + 1)
        listed = low[~np.isin(low, covered)][:_LISTED].tolist()
        more = f" and {uncovered - _LISTED} more" if uncovered > _LISTED else ""
        raise ValueError(f"ground elements {listed}{more} appear in no triple; "
                         "the reduced graph would be disconnected")
    nz, n = x.ground_size, x.ground_size + len(x.triples)
    membership = np.column_stack((rows.ravel() - 1, np.arange(nz, n).repeat(3)))
    # the triples form the clique, whose pairs the split layout implies
    clique = np.arange(n) >= nz
    return SteinerInstance(graph=Graph.from_cross_edges(clique, [membership]),
                           terminals=tuple(range(nz))), x.q


def solve_x3c_bruteforce(x: X3CInstance) -> tuple[tuple[int, int, int], ...] | None:
    """An exact cover (q pairwise-disjoint triples covering the ground
    set) or None. Branches on the lowest uncovered element, trying its
    triples in ascending order. Requires at most 20 triples."""
    if len(x.triples) > 20:
        raise ValueError(f"{len(x.triples)} triples exceeds the limit of 20")
    if 3 * len(x.triples) < x.ground_size:
        # too few triples to cover; also bounds the work below by the triples
        return None

    def cover(covered: frozenset[int]) -> tuple[tuple[int, int, int], ...] | None:
        if len(covered) == x.ground_size:
            return ()
        lowest = min(set(range(1, x.ground_size + 1)) - covered)
        for t in x.triples:
            if lowest in t and covered.isdisjoint(t):
                rest = cover(covered | set(t))
                if rest is not None:
                    return (t, *rest)
        return None

    # each triple chosen holds the lowest element left, so they come sorted
    return cover(frozenset())
