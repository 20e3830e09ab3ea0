"""Edge rows in pieces, as the SSTP parse keeps them (see sstp).

Each chunk of a parse keeps its well-formed edge rows, (r, 2) arrays of
0-based ids u < v in the narrowest dtype that holds n - 1, as one
piece: the rows themselves, or their runs when the rows average 4 or
more to a run (see _pieced). A run is a maximal stretch of rows (u, v),
(u, v + 1), ... with one u, kept as the row (u, v, length) of the ids'
dtype, so a piece of runs is a (q, 3) array. Files that are sorted, as
gen, reduce-x3c and serialize_instance write them, hold long runs (a
vertex's higher neighbours), and their pieces take a few bytes per run
rather than 4 per edge; relabeled files average 2 rows a run and keep
their rows. Each chunk chooses from its own rows alone. Once a parse's
pieces outgrow an adjacency bit matrix of the n vertices, they move
into it (see bits), the third form, chosen from the bytes held alone;
no option selects between the three.

The pieces are read one at a time: _degrees counts degrees from them,
_rows expands one to its rows for the graph's build, and _repeated_row
finds the earliest repeated row while expanding only the runs that
overlap something. _first_repeat, which that search ends with, also
finds repeated terminals and X3C triples.
"""

from __future__ import annotations

import numpy as np


def _repeated(joined: np.ndarray) -> np.ndarray:
    """The items of sorted joined that equal the one before them, found
    with neighbours compared a block at a time, so that only the
    repeated items grow with joined."""
    step = 1 << 16
    blocks = (joined[i:i + step + 1] for i in range(0, max(joined.size, 1), step))
    return np.concatenate([b[1:][b[1:] == b[:-1]] for b in blocks])


def _first_repeat(keys: list[np.ndarray]) -> tuple[np.ndarray, int] | None:
    """(key as a one-item array, index) of the earliest item whose key an
    earlier item has, from keys in pieces, items counted across the
    pieces in order. One sort of the joined keys finds every repeated
    key (see _repeated); then only the items with one are gathered."""
    joined = np.concatenate(keys)
    joined.sort()
    repeated = _repeated(joined)
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


def _is_runs(piece: np.ndarray) -> bool:
    """Whether a piece of edge rows is kept as runs (see _pieced)."""
    return piece.shape[1] == 3


def _pieced(pair: np.ndarray) -> np.ndarray:
    """One chunk's edge rows as the parse keeps them: the rows, or their
    runs when they average 4 rows or more to a run. A run is a maximal
    stretch of rows (u, v), (u, v + 1), ... with one u, kept as the row
    (u, v, length) of the ids' dtype; int64 ids are always kept as rows.
    A sorted file's runs are a clique vertex's higher neighbours, and
    their rows are not held."""
    if pair.dtype == np.int64:
        return pair
    # each row's bytes as one integer: a run's next row adds that of (0, 1)
    key = pair.view({2: np.uint32, 4: np.uint64}[pair.itemsize])[:, 0]
    new = (key[1:] - key[:-1]) != np.array([0, 1], pair.dtype).view(key.dtype)[0]
    count = np.count_nonzero(new) + 1
    if 4 * count > len(pair):
        return pair
    first = np.zeros(count, dtype=np.intp)
    first[1:] = new.nonzero()[0]
    first[1:] += 1
    runs = np.empty((count, 3), dtype=pair.dtype)
    runs[:, :2] = pair[first]
    runs[:-1, 2] = first[1:] - first[:-1]
    runs[-1, 2] = len(pair) - first[-1]
    return runs


def _expand(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + length[i] - 1 for each i
    in turn, in first's dtype. Each item is its place in the output less
    the run's shift, computed modulo the width of that dtype, in which
    every result fits."""
    length = length.astype(np.intp)
    shift = (np.cumsum(length) - length).astype(first.dtype) - first
    out = np.arange(int(length.sum())).astype(first.dtype)
    out -= np.repeat(shift, length)
    return out


def _rows(piece: np.ndarray) -> np.ndarray:
    """The edge rows of a piece: itself, or its runs expanded."""
    if not _is_runs(piece):
        return piece
    u, v, length = piece.T
    rows = np.empty((int(length.sum()), 2), dtype=piece.dtype)
    rows[:, 0] = np.repeat(u, length)
    rows[:, 1] = _expand(v, length)
    return rows


def _keys(piece: np.ndarray) -> np.ndarray:
    """The first row (u, v) of each run of a piece, or each of its rows,
    as one key, equal iff the rows are: u << b | v for ids of b = 16 or
    32 bits, so that keys sort as rows do and a run's rows are
    consecutive keys, and never overflow; int64 rows, never runs, as
    their 16 bytes. Keys of 16-bit ids are int64, the dtype whose stable
    argsort the degree test runs, so that sorting the runs of a small
    file loads no second sort routine (its pages count in the RSS)."""
    if piece.dtype == np.int64:
        return piece.view("V16")[:, 0]
    key = piece[:, 0].astype({2: np.int64, 4: np.uint64}[piece.itemsize])
    key <<= 8 * piece.itemsize
    key |= piece[:, 1]
    return key


def _repeated_row(pieces: list[np.ndarray]) -> int | None:
    """The index of the earliest edge row that repeats an earlier one,
    rows counted across the pieces in order, or None.

    Rows are compared as keys (see _keys): a run is a range of
    consecutive keys, and a piece kept as rows holds ranges of one key.
    Two rows can only repeat where two ranges meet. The rows of the
    pieces kept as rows are sorted once as keys, which finds those
    repeated among them, and the runs are sorted by their first key; a
    run meets another or a row when one starts inside it. Only the rows
    of the runs that meet something, and the rows that a run covers or
    that repeat, are gathered with their indices, for _first_repeat.
    """
    runs = [p for p in pieces if _is_runs(p)]
    listed = [p for p in pieces if not _is_runs(p)]
    keys = np.empty(sum(map(len, listed)), dtype=_keys(pieces[0][:0]).dtype)
    filled = 0
    for p in listed:  # written in place: no second copy of the keys
        keys[filled:filled + len(p)] = _keys(p)
        filled += len(p)
    keys.sort()
    twice = _repeated(keys)
    if runs:
        # the runs' ranges [start, end) of keys, in file order and sorted
        joined = np.concatenate(runs)
        start = _keys(joined)
        order = start.argsort(kind="stable")
        first = start[order]
        last = first + joined[order, 2]
        # reach[i]: the greatest end among the first i sorted ranges
        reach = np.zeros(len(last) + 1, dtype=last.dtype)
        np.maximum.accumulate(last, out=reach[1:])
        meets = keys.searchsorted(first) < keys.searchsorted(last)
        meets[1:] |= first[1:] < reach[1:-1]
        meets[:-1] |= first[1:] < last[:-1]
        marked = np.empty_like(meets)
        marked[order] = meets
    del keys
    found_keys, found_rows = [], []
    row = ran = 0
    for p in pieces:
        if _is_runs(p):
            length = p[:, 2]
            hit = marked[ran:ran + len(p)]
            at = row + np.cumsum(length, dtype=np.int64) - length  # first rows
            found_keys.append(_expand(start[ran:ran + len(p)][hit], length[hit]))
            found_rows.append(_expand(at[hit], length[hit]))
            ran += len(p)
            row += int(length.sum())
        else:
            key = _keys(p)
            near = np.isin(key, twice)
            if runs:
                near |= reach[first.searchsorted(key, "right")] > key
            hit = near.nonzero()[0]
            found_keys.append(key[hit])
            found_rows.append(hit + row)
            row += len(p)
    found = _first_repeat(found_keys)
    return None if found is None else int(np.concatenate(found_rows)[found[1]])


def _degrees(n: int, pieces: list[np.ndarray]) -> np.ndarray:
    """The degree of each of the n vertices in the edge rows of pieces,
    counted a piece at a time in time and memory of the piece's size: a
    run (u, v, length) adds length to u's degree and one to each of
    v..v + length - 1, through a difference array over those ranges."""
    degrees = np.zeros(n + 1, dtype=np.int64)
    ranges = np.zeros(n + 1, dtype=np.int64)
    for p in pieces:
        if not _is_runs(p):
            np.add.at(degrees, p.ravel(), 1)
            continue
        u, v, length = p.T
        np.add.at(degrees, u, length)
        np.add.at(ranges, v, 1)
        np.subtract.at(ranges, v.astype(np.intp) + length, 1)  # may end at n
    degrees += np.cumsum(ranges)
    return degrees[:n]
