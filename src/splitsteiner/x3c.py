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

from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO

import numpy as np

from .errors import X3CParseError
from .graph import Graph
from .sstp import MAX_DIGITS, SteinerInstance, _Chunk, _utf8_chunks

# uncovered ground elements named in reduce_x3c's error
_LISTED = 10


@dataclass(frozen=True)
class X3CInstance:
    """Ground set {1..ground_size} and a deduplicated collection of
    3-element subsets, both held in sorted canonical form."""

    ground_size: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.ground_size < 3 or self.ground_size % 3 != 0:
            raise ValueError(
                f"ground size must be a positive multiple of 3, got {self.ground_size}")
        norm = []
        for t in self.triples:
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"triple {t} must have exactly 3 distinct elements")
            for e in t:
                if not 1 <= e <= self.ground_size:
                    raise ValueError(
                        f"element {e} outside ground set 1..{self.ground_size}")
            norm.append(tuple(sorted(t)))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate triple {a}")
        object.__setattr__(self, "triples", tuple(norm))

    @property
    def q(self) -> int:
        return self.ground_size // 3


def parse_x3c(source: str | bytes | BinaryIO) -> X3CInstance:
    """Parse the x3c format, as text, UTF-8 bytes or a file open in binary
    mode: `x3c <3q> <n>` then n lines `c <a> <b> <c>`, 1-indexed; blank
    lines and `#` comments are skipped. The .sstp reader (see sstp) reads
    and tokenizes it a chunk at a time, so its grammar is that of .sstp,
    and bytes that are not UTF-8 raise before any X3CParseError."""
    count: int | None = None  # of triples, once the header is read
    triples: set[tuple[int, ...]] = set()
    ground = lines_before = 0
    chunks = _utf8_chunks(source)
    try:
        for data in chunks:
            ck = _Chunk(data, lines_before)
            lines_before = ck.lines_after
            for first, size, tag, lineno in zip(*(col.tolist() for col in ck.statements())):
                if tag == ord("c"):
                    if count is None:
                        raise X3CParseError("triple line before header", line=lineno)
                    if size != 4:
                        raise X3CParseError("triple line must be 'c <a> <b> <c>'",
                                            line=lineno)
                    if not ck.is_int[first + 1:first + 4].all():
                        raise X3CParseError("non-integer element", line=lineno)
                    elems = tuple(ck.value[first + 1:first + 4].tolist())
                    if len(set(elems)) != 3:
                        raise X3CParseError(f"triple {elems} has repeated elements",
                                            line=lineno)
                    for e in elems:
                        if not 1 <= e <= ground:
                            raise X3CParseError(
                                f"element {e} outside ground set 1..{ground}", line=lineno)
                    key = tuple(sorted(elems))
                    if key in triples:
                        raise X3CParseError(f"duplicate triple {key}", line=lineno)
                    triples.add(key)
                elif ck.text(first) == "x3c":
                    if count is not None:
                        raise X3CParseError("duplicate header", line=lineno)
                    if size != 3:
                        raise X3CParseError("header must be 'x3c <3q> <n>'", line=lineno)
                    if not ck.is_int[first + 1:first + 3].all():
                        # '-' and then what would be a number
                        digits = ck.text(first + 2)
                        if (digits[:1] == "-" and len(digits) <= MAX_DIGITS + 1
                                and digits[1:].isascii() and digits[1:].isdigit()):
                            raise X3CParseError("negative triple count", line=lineno)
                        raise X3CParseError("non-integer header field", line=lineno)
                    ground, count = ck.value[first + 1:first + 3].tolist()
                    if ground < 3 or ground % 3 != 0:
                        raise X3CParseError(
                            f"ground size {ground} is not a positive multiple of 3",
                            line=lineno)
                else:
                    raise X3CParseError(
                        f"unrecognized line {ck.text(first, first + size - 1)!r}",
                        line=lineno)
            del data, ck  # free this chunk before the next is read
    except X3CParseError:
        for _ in chunks:  # a later byte that is not UTF-8 is reported first
            pass
        raise
    if count is None:
        raise X3CParseError("missing 'x3c' header")
    if len(triples) != count:
        raise X3CParseError(f"header declares {count} triples, found {len(triples)}")
    return X3CInstance(ground_size=ground, triples=tuple(triples))  # type: ignore[arg-type]


def serialize_x3c(x: X3CInstance) -> str:
    lines = [f"x3c {x.ground_size} {len(x.triples)}"]
    lines.extend(f"c {a} {b} {c}" for a, b, c in x.triples)
    return "\n".join(lines) + "\n"


def reduce_x3c(x: X3CInstance) -> tuple[SteinerInstance, int]:
    """Steiner instance whose minimum Steiner set has size q iff x has an
    exact cover. Rejects instances with an uncovered ground element,
    since those reduce to a disconnected graph."""
    covered: set[int] = set()
    for t in x.triples:
        covered.update(t)
    uncovered = x.ground_size - len(covered)
    if uncovered:
        # the first few, so the work is bounded by the triples, not the header
        listed = list(islice((e for e in range(1, x.ground_size + 1) if e not in covered),
                             _LISTED))
        more = f" and {uncovered - _LISTED} more" if uncovered > _LISTED else ""
        raise ValueError(
            f"ground elements {listed}{more} appear in no triple; "
            "the reduced graph would be disconnected")
    nz = x.ground_size
    n = nz + len(x.triples)
    membership = np.array([(e - 1, nz + l) for l, tr in enumerate(x.triples) for e in tr],
                          dtype=np.int64).reshape(-1, 2)
    # the triples form the clique, whose pairs the split layout implies
    clique = np.zeros(n, dtype=bool)
    clique[nz:] = True
    inst = SteinerInstance(graph=Graph.from_cross_edges(clique, [membership]),
                           terminals=tuple(range(nz)))
    return inst, x.q


def solve_x3c_bruteforce(x: X3CInstance) -> tuple[tuple[int, int, int], ...] | None:
    """An exact cover (q pairwise-disjoint triples covering the ground
    set) or None. Branches on the lowest uncovered element, trying its
    triples in ascending order. Requires at most 20 triples."""
    if len(x.triples) > 20:
        raise ValueError(f"{len(x.triples)} triples exceeds the limit of 20")
    if 3 * len(x.triples) < x.ground_size:
        # too few triples to cover; also bounds the work below by the triples
        return None
    by_element: dict[int, list[int]] = {e: [] for e in range(1, x.ground_size + 1)}
    for i, t in enumerate(x.triples):
        for e in t:
            by_element[e].append(i)

    chosen: list[int] = []

    def extend(covered: set[int]) -> bool:
        if len(covered) == x.ground_size:
            return True
        lowest = min(e for e in range(1, x.ground_size + 1) if e not in covered)
        for i in by_element[lowest]:
            t = x.triples[i]
            if covered.isdisjoint(t):
                chosen.append(i)
                if extend(covered | set(t)):
                    return True
                chosen.pop()
        return False

    if extend(set()):
        return tuple(x.triples[i] for i in sorted(chosen))
    return None
