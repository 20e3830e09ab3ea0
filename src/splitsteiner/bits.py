"""Edge rows held as an adjacency bit matrix (see sstp).

A parse keeps each chunk's edge rows as a piece, rows or runs (see
runs), until its pieces take more bytes than this matrix plus one
chunk. It then moves them, in file order, into an EdgeBits, and every
later chunk sets its rows' bits there and is dropped. From the switch
on, the parse holds the matrix's bytes of edges however many lines
follow; as the matrix is never larger than the pieces it replaces,
nothing is allocated for the header's n alone.

The matrix holds the upper triangle of n rows of ceil(n/8) bytes: bit
v & 7 of byte v >> 3 of row u is set for each edge (u, v) with u < v.
Row u leaves out its first 8 * ((u + 1) >> 6) bytes, whose columns are
all at most u, so the rows come in bands of 64 that share one width
and are stored one after another: about n**2 / 16 bytes in all (see
sstp._bit_matrix_bytes), and bytes stay aligned with the columns, so a
band is a 2-D array of whole bytes. A relabeled file, whose chunks keep
their rows at 4 bytes per edge, switches once it passes about n**2 / 64
edges, a thirty-second of the pairs.

A row's key is the index of its bit, the start of row u's bits (less
the columns it leaves out) plus v, read from a table of one key per u.
A chunk's keys are sorted once, which joins the bits of each byte and
shows any key the chunk gives twice; a bit already set marks a row
that repeats an earlier chunk's (see sstp._set_bits). The first chunk
with a repeat records the number of its earliest repeated row, counted
across the file, for sstp to find the line of, and sets no more bits:
the parse fails with that repeat. Degrees are counted as the rows are
set.

The graph is read back a block of rows of one band at a time, bytes
first: for a split graph each row's bytes are ANDed with the packed
mask of the other side, and only the bytes left non-zero are unpacked
to the cross rows; the clique's pairs are counted, not listed. Any
other graph has all its rows unpacked a block at a time, for the CSR's
build.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import sstp
from .errors import InvariantError
from .runs import _rows

# the number of bits set in each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _pairs(block: np.ndarray, lo: int, skip: int, id_type: type) -> np.ndarray:
    """The (u, v) rows of the bits set in block, rows lo, lo + 1, ... of
    the matrix without their first skip bytes, in row-major order: only
    its non-zero bytes are unpacked."""
    r, c = block.nonzero()
    i, j = np.unpackbits(block[r, c][:, None], axis=1, bitorder="little").nonzero()
    pair = np.empty((len(i), 2), dtype=id_type)
    pair[:, 0] = r.take(i)
    pair[:, 0] += lo
    c = c.take(i)
    c += skip
    c <<= 3
    c += j
    pair[:, 1] = c
    return pair


class EdgeBits:
    """The edge rows of a parse as the bits of the matrix, with the
    degrees they give and the number of the earliest row that repeats
    an earlier one (repeat, None while no row has)."""

    def __init__(self, n: int, pieces: list[np.ndarray]):
        """The matrix of the rows of pieces, taken in order; the list is
        emptied as they are set."""
        self.width = (n + 7) >> 3
        # the bytes each row leaves out, and where each row starts
        skip = np.arange(1, n + 1) >> 6 << 3
        length = self.width - skip
        self.start = np.cumsum(length) - length
        size = int(length.sum())
        self.bits = np.zeros(size, dtype=np.uint8)
        self.base = (8 * (self.start - skip)).astype(
            np.int32 if 8 * size < 2**31 else np.int64)
        self.degrees = np.zeros(n, dtype=np.int64)
        self.id_type = pieces[0].dtype
        self.repeat: int | None = None
        self.added = 0
        pieces.reverse()
        while pieces:
            self.add(_rows(pieces.pop()))

    def _keys(self, pair: np.ndarray) -> np.ndarray:
        """The index of each row's bit."""
        key = self.base.take(pair[:, 0])
        key += pair[:, 1]
        return key

    def add(self, pair: np.ndarray) -> None:
        """Set the bits of the next edge rows in file order, an (r, 2)
        array of ids u < v, and count their degrees. From the chunk with
        the first repeat on, no bit is set: the parse fails with it."""
        if not len(pair):
            return
        np.add.at(self.degrees, pair.ravel(), 1)
        if self.repeat is None:
            key = self._keys(pair)
            key.sort()
            if sstp._set_bits(self.bits, key):
                self.repeat = self.added + self._first_repeated(pair)
        self.added += len(pair)

    def _first_repeated(self, pair: np.ndarray) -> int:
        """The index of the earliest of pair's rows whose bit is set
        already or that an earlier row of pair gives too."""
        key = self._keys(pair)
        hit = (self.bits.take(key >> 3) >> (key & 7) & 1).astype(bool)
        order = key.argsort(kind="stable")
        ordered = key[order]
        hit[order[1:][ordered[1:] == ordered[:-1]]] = True
        return int(hit.argmax())

    def _blocks(self, size: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """(first row, bytes left out, rows) of the matrix in blocks of
        rows of one band, each of at most size bytes or one row."""
        n = len(self.start)
        lo = 0
        while lo < n:
            skip = (lo + 1) >> 6 << 3
            end = min(n, 8 * skip + 63)  # the next band's first row
            width = self.width - skip
            step = max(1, size // max(width, 1))
            for a in range(lo, end, step):
                rows = min(step, end - a)
                at = int(self.start[a])
                yield a, skip, self.bits[at:at + rows * width].reshape(rows, width)
            lo = end

    def cross_rows(self, clique: np.ndarray) -> list[np.ndarray]:
        """The rows between the clique, a bool mask that the degrees pass
        the Hammer-Simeone test with, and the rest, as pieces. No row
        repeats, so the degree identity makes the clique complete and the
        rest independent; InvariantError is raised unless the bits inside
        the clique are its k(k - 1)/2 pairs."""
        # packed[1] is the other side of a clique row, packed[0] of any other
        packed = np.packbits(np.stack((clique, ~clique)), axis=1, bitorder="little")
        cross, inside = [], 0
        for lo, skip, block in self._blocks(sstp.CHUNK_BYTES):
            side = clique[lo:lo + len(block)]
            masks = packed[:, skip:]
            inside += int(_POPCOUNT.take(block[side] & masks[0]).sum())
            cross.append(_pairs(block & masks.take(side.astype(np.intp), axis=0),
                                lo, skip, self.id_type))
        k = int(np.count_nonzero(clique))
        if inside != k * (k - 1) // 2:
            raise InvariantError("degree test passed but the clique is not complete")
        return cross

    def rows(self) -> Iterator[np.ndarray]:
        """Every edge row, from blocks of at most CHUNK_BYTES / 8 bytes,
        so that a block's rows take at most about a chunk's bytes."""
        for lo, skip, block in self._blocks(sstp.CHUNK_BYTES >> 3):
            yield _pairs(block, lo, skip, self.id_type)
