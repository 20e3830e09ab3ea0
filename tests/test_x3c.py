import io
import time
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from splitsteiner import (
    Graph,
    NotK14FreeError,
    X3CInstance,
    X3CParseError,
    brute_force_steiner,
    find_induced_star,
    parse_x3c,
    reduce_x3c,
    serialize_x3c,
    solve,
    solve_x3c_bruteforce,
    split_partition,
    sstp,
)

SOLVABLE = X3CInstance(6, ((1, 2, 3), (2, 4, 5), (4, 5, 6)))
# pairwise-intersecting triples: covered ground but no exact cover
UNSOLVABLE = X3CInstance(6, ((1, 2, 3), (1, 4, 5), (3, 5, 6)))

TEXT = "x3c 6 3\nc 1 2 3\nc 2 4 5\nc 4 5 6\n"


def test_instance_canonicalizes():
    x = X3CInstance(6, ((6, 5, 4), (3, 2, 1)))
    assert x.triples == ((1, 2, 3), (4, 5, 6))
    assert x.q == 2


@pytest.mark.parametrize("ground, triples, match", [
    (4, (), "multiple of 3"),
    (0, (), "multiple of 3"),
    (6, ((1, 2, 2),), r"triple \(1, 2, 2\) has repeated elements"),
    (6, ((1, 2),), r"triple \(1, 2\) must be 3 integers"),
    (6, ((1, 2, 7),), "outside ground set"),
    (6, ((0, 1, 2),), "outside ground set"),
    (6, ((1, 2, 3), (3, 2, 1)), "duplicate triple"),
    # the first bad triple in the given order is the one named
    (6, ((1, 2, 3), (1, 2), (1, 1, 2)), r"triple \(1, 2\) must"),
    (6, ((1, 2, 3), (1, 1, 2), (1, 2)), r"triple \(1, 1, 2\) has repeated"),
    (6, ((3, 2, 9), (0, 1, 2)), "element 9 outside"),
    # a duplicate is named at its first later copy, as parse_x3c names it
    (6, ((4, 5, 6), (2, 1, 3), (6, 5, 4), (3, 2, 1)), r"duplicate triple \(4, 5, 6\)"),
    (6, ((1, 2, 3.9), (4, 5, 6)), r"triple \(1, 2, 3.9\) must be 3 integers"),
    (6, (("1", 2, 3),), "must be 3 integers"),
    (6, ((1, 1, 2), (1, 2, 3.9)), "repeated elements"),
    (6, ((1, 2, 3.9), (1, 1, 2)), "must be 3 integers"),
    # a ground size that is no integer, and an element past int64
    (6.0, ((1, 2, 3), (4, 5, 6)), r"multiple of 3 below 2\*\*63, got 6.0"),
    (6, ((1, 2, 2**70),), f"element {2**70} outside ground set 1..6"),
])
def test_instance_validation(ground, triples, match):
    with pytest.raises(ValueError, match=match):
        X3CInstance(ground, triples)


def test_instance_holds_tuples_in_canonical_order():
    x = X3CInstance(6, ([4, 5, 6], [1, 2, 3]))
    assert x.triples == ((1, 2, 3), (4, 5, 6))
    assert x == X3CInstance(6, ((6, 4, 5), (3, 1, 2)))
    assert hash(x) == hash(X3CInstance(6, ((1, 2, 3), (4, 5, 6))))


def test_parse_basics():
    x = parse_x3c(TEXT)
    assert x == SOLVABLE
    assert parse_x3c("# intro\n\n  x3c 3 1\nc 3 1 2\n").triples == ((1, 2, 3),)


def test_serialize_roundtrip():
    assert parse_x3c(serialize_x3c(SOLVABLE)) == SOLVABLE
    assert serialize_x3c(SOLVABLE) == TEXT


PARSE_ERRORS = [
    ("x3c 6 1\nx3c 6 1\n", "duplicate header", 2),
    ("x3c 6\n", "header must be", 1),
    ("x3c six 3\n", "non-integer header", 1),
    ("x3c 7 0\n", "multiple of 3", 1),
    ("x3c 6 -1\n", "negative triple count", 1),
    ("c 1 2 3\n", "before header", 1),
    ("x3c 6 1\nc 1 2\n", "triple line must be", 2),
    ("x3c 6 1\nc 1 2 x\n", "non-integer element", 2),
    ("x3c 6 1\nc 1 2 2\n", "repeated elements", 2),
    ("x3c 6 1\nc 1 2 9\n", "outside ground set", 2),
    ("x3c 6 1\nq 1 2 3\n", "unrecognized line", 2),
    ("x3c 6 2\nc 1 2 3\nc 3 2 1\n", "duplicate triple", 3),
    # the .sstp integer grammar: 1 to 18 ASCII digits, ASCII blanks
    ("x3c 6 1\nc +1 2 3\n", "non-integer element", 2),
    ("x3c +3 1\n", "non-integer header", 1),
    ("x3c 6 1\nc \u0661 2 3\n", "non-integer element", 2),
    ("x3c 6 1\nc 1 2\u00a03\n", "triple line must be", 2),
]


@pytest.mark.parametrize("text, match, line", PARSE_ERRORS)
def test_parse_errors(text, match, line):
    with pytest.raises(X3CParseError, match=match) as exc:
        parse_x3c(text)
    assert exc.value.line == line


@st.composite
def planted_triples(draw):
    """A ground size of at most 12 and triples drawn on it, with faults
    planted at random places: a repeated element, an element outside the
    ground set, and a copy of an earlier triple in any element order."""
    ground = draw(st.sampled_from((3, 6, 9, 12)))
    triple = st.lists(st.integers(1, ground), min_size=3, max_size=3, unique=True)
    triples = [tuple(t) for t in draw(st.lists(triple, max_size=8))]
    for kind in draw(st.lists(st.sampled_from(("repeat", "range", "duplicate")),
                              max_size=3)):
        t, k = draw(triple), draw(st.integers(0, 2))
        if kind == "repeat":
            t[k] = t[(k + 1) % 3]
        elif kind == "range":
            t[k] = draw(st.sampled_from((0, ground + 1)) | st.integers(1, 10**18 - 1))
        elif triples:
            t = draw(st.permutations(draw(st.sampled_from(triples))))
        triples.insert(draw(st.integers(0, len(triples))), tuple(t))
    return ground, triples


def _first_bad_triple(ground, triples):
    """(index, message) of the first triple, in the given order, with a
    repeated element, an element outside 1..ground, or the elements of an
    earlier triple; None if there is none."""
    seen = set()
    for i, t in enumerate(triples):
        outside = [e for e in t if not 1 <= e <= ground]
        if len(set(t)) != 3:
            return i, f"triple {t} has repeated elements"
        if outside:
            return i, f"element {outside[0]} outside ground set 1..{ground}"
        if frozenset(t) in seen:
            return i, f"duplicate triple {tuple(sorted(t))}"
        seen.add(frozenset(t))
    return None


@settings(max_examples=300, deadline=None)
@given(planted_triples())
@example((6, [(4, 5, 6), (2, 1, 3), (6, 5, 4), (3, 2, 1)]))
@example((6, [(1, 2, 2), (1, 2, 9)]))
def test_parser_and_constructor_report_the_same_first_bad_triple(case):
    """The text serialize_x3c writes for the triples makes parse_x3c raise
    what X3CInstance raises on them, at line 2 + the index of the first
    bad triple in file order."""
    ground, triples = case
    text = serialize_x3c(SimpleNamespace(ground_size=ground, triples=triples))
    fault = _first_bad_triple(ground, triples)
    if fault is None:
        assert parse_x3c(text) == X3CInstance(ground, tuple(triples))
        return
    i, message = fault
    with pytest.raises(ValueError) as built:
        X3CInstance(ground, tuple(triples))
    assert str(built.value) == message
    with pytest.raises(X3CParseError) as parsed:
        parse_x3c(text)
    assert parsed.value.line == 2 + i
    assert str(parsed.value) == f"line {2 + i}: {message}"


def test_parse_missing_header_and_count():
    with pytest.raises(X3CParseError, match="missing 'x3c' header"):
        parse_x3c("# nothing\n")
    with pytest.raises(X3CParseError, match="declares 2 triples, found 1"):
        parse_x3c("x3c 6 2\nc 1 2 3\n")


def _outcome(parse, source):
    try:
        return "instance", parse(source)
    except X3CParseError as exc:
        return "error", exc.line, str(exc)


# a comment longer than the largest chunk below, so every case spans chunks
PAD = "# " + "pad " * 20 + "\n"
CHUNK_CASES = [text for text, _, _ in PARSE_ERRORS] + [
    TEXT, "# intro\n\n  x3c 3 1\nc 3 1 2\n", "# nothing\n", "x3c 6 2\nc 1 2 3\n",
    TEXT.replace("\n", "\r\n" + PAD), PAD + "x3c 6 1\r" + PAD + "c 1 2 3\x0b" + PAD + "c 1 2",
]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("text", CHUNK_CASES,
                         ids=[f"case{i}" for i in range(len(CHUNK_CASES))])
def test_parse_in_chunks_matches_default_chunks(monkeypatch, text, chunk):
    """Wherever the chunks are cut, str, UTF-8 bytes and an open binary
    file parse to what the default chunk size gives: the instance, or the
    same line and message."""
    expected = _outcome(parse_x3c, text)
    monkeypatch.setattr(sstp, "CHUNK_BYTES", chunk)
    data = text.encode("utf-8")
    assert _outcome(parse_x3c, text) == expected
    assert _outcome(parse_x3c, data) == expected
    assert _outcome(parse_x3c, io.BytesIO(data)) == expected


@pytest.mark.parametrize("chunk", [7, sstp.CHUNK_BYTES, 1 << 18])
def test_invalid_utf8_after_a_bad_line_wins(monkeypatch, chunk):
    """A byte that is not UTF-8 after a bad line is reported as decoding
    the whole file reports it, from bytes and from an open file."""
    monkeypatch.setattr(sstp, "CHUNK_BYTES", chunk)
    data = b"x3c 6 1\nq 1 2 3\n" + PAD.encode() * 3 + b"# caf\xc3\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    for source in (data, io.BytesIO(data)):
        with pytest.raises(UnicodeDecodeError) as exc:
            parse_x3c(source)
        assert str(exc.value) == str(whole.value)
        assert (exc.value.start, exc.value.end) == (whole.value.start, whole.value.end)


def test_parse_memory_is_bounded_by_the_chunk(tmp_path):
    """The tracemalloc peak of parse_x3c on open files of one triple and
    then about 5 MB and 20 MB of '#' lines stays under 48 times
    CHUNK_BYTES and does not grow with the file.

    Measured (Python 3.11, numpy 2.4): about 10 MB, 39 times CHUNK_BYTES,
    for both: the per-token temporaries of one chunk in which every
    other byte starts a token. Reading the whole text and a list of its
    lines, as the parse once did, peaked above 100 MB on the larger file.
    """
    peaks = []
    for lines in (2_500_000, 10_000_000):
        path = tmp_path / f"{lines}.x3c"
        path.write_text("x3c 3 1\nc 1 2 3\n" + "#\n" * lines, encoding="utf-8")
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                assert parse_x3c(fh).triples == ((1, 2, 3),)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) <= 48 * sstp.CHUNK_BYTES
    assert peaks[1] <= peaks[0] + sstp.CHUNK_BYTES


def test_reduction_shape():
    inst, k = reduce_x3c(SOLVABLE)
    assert k == 2
    assert inst.graph.n == 9
    assert inst.graph.m == 12  # C(3,2) clique edges + 3*3 membership edges
    assert inst.terminals == tuple(range(6))
    # triples clique up; triple 0 = (1,2,3) hangs off vertex 6
    edge_set = set(inst.graph.edges())
    for l in range(3):
        for m in range(l + 1, 3):
            assert (6 + l, 6 + m) in edge_set
    assert (0, 6) in edge_set and (2, 6) in edge_set
    assert (3, 6) not in edge_set


def test_reduced_graph_edges():
    """The clique on the triples and the membership edges, and nothing
    else, on an instance with more triples than the hand-checked one."""
    x = X3CInstance(9, ((1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9), (4, 5, 6),
                        (7, 8, 9)))
    inst, k = reduce_x3c(x)
    edges = [(9 + l, 9 + m) for l, m in combinations(range(6), 2)]
    edges += [(e - 1, 9 + l) for l, t in enumerate(x.triples) for e in t]
    assert k == 3
    assert inst.graph == Graph.from_edges(15, edges)
    assert inst.terminals == tuple(range(9))


def test_reduction_rejects_uncovered_elements():
    x = X3CInstance(6, ((1, 2, 3),))
    with pytest.raises(ValueError, match=r"\[4, 5, 6\] appear in no triple"):
        reduce_x3c(x)


def test_reduction_names_the_first_ten_uncovered_elements():
    x = X3CInstance(36, ((1, 2, 3), (4, 9, 30)))
    with pytest.raises(ValueError, match=r"^ground elements \[5, 6, 7, 8, 10, 11, 12, 13, "
                       r"14, 15\] and 20 more appear in no triple"):
        reduce_x3c(x)


def test_reduced_graph_star_profile():
    """The reduction is always K_{1,5}-free; an induced K_{1,4} appears
    exactly when two disjoint triples exist."""
    for x, has_k14 in ((SOLVABLE, True), (UNSOLVABLE, False)):
        inst, _ = reduce_x3c(x)
        sp = split_partition(inst.graph)
        assert sp.clique == tuple(range(6, 6 + len(x.triples)))
        assert find_induced_star(sp, 5) is None
        assert (find_induced_star(sp, 4) is not None) == has_k14


def test_dichotomy_on_hand_instances():
    inst, k = reduce_x3c(SOLVABLE)
    assert solve_x3c_bruteforce(SOLVABLE) == ((1, 2, 3), (4, 5, 6))
    assert brute_force_steiner(inst).min_size == k
    with pytest.raises(NotK14FreeError):
        solve(inst)
    res = solve(inst, exact_fallback=True)
    assert res.size == k and res.trace.regime == "exact-fallback"

    inst_u, k_u = reduce_x3c(UNSOLVABLE)
    assert solve_x3c_bruteforce(UNSOLVABLE) is None
    assert brute_force_steiner(inst_u).min_size == 3 > k_u
    # no two disjoint triples means K_{1,4}-free: polynomial regime
    res_u = solve(inst_u)
    assert res_u.trace.regime == "3-split"
    assert res_u.size == 3


def test_bruteforce_triple_limit():
    stairs = [(a, a + 1, a + 2) for a in range(1, 11)]
    skips = [(a, a + 1, a + 3) for a in range(1, 10)]
    x = X3CInstance(12, tuple(stairs + skips + [(1, 3, 5), (2, 4, 6)]))
    assert len(x.triples) == 21
    with pytest.raises(ValueError, match="limit of 20"):
        solve_x3c_bruteforce(x)


def test_bruteforce_ignores_header_ground_size():
    """Fewer than q triples cannot cover the ground set, and saying so
    must not cost time in the header's ground size."""
    start = time.perf_counter()
    assert solve_x3c_bruteforce(X3CInstance(3 * 10**12, ((1, 2, 3),))) is None
    assert time.perf_counter() - start < 1.0
    assert solve_x3c_bruteforce(X3CInstance(9, ((1, 2, 3), (4, 5, 6)))) is None


def test_bruteforce_needs_backtracking():
    # greedy on the lowest element first picks (1,2,3), which kills the
    # only cover; the solver must back out and take (1,2,4)
    x = X3CInstance(6, ((1, 2, 3), (1, 2, 4), (3, 5, 6)))
    assert solve_x3c_bruteforce(x) == ((1, 2, 4), (3, 5, 6))
