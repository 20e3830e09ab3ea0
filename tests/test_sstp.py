import io
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from splitsteiner import (
    GeneratorConfig,
    Graph,
    SstpParseError,
    SteinerInstance,
    gen_split,
    graph,
    parse_instance,
    serialize_instance,
    split_partition,
    sstp,
    write_instance,
)
from splitsteiner.split import _degree_test
from helpers import reference_parse, reference_serialize

P3 = "p sstp 3 2 2\ne 1 2\ne 2 3\nt 1\nt 3\n"


def test_parse_p3():
    inst = parse_instance(P3)
    assert inst.graph.n == 3
    assert inst.graph.m == 2
    assert inst.terminals == (0, 2)


def test_comments_and_blank_lines_ignored():
    text = "# steiner instance\n\np sstp 2 1 1\n  e 1 2\n# trailing note\nt 2\n"
    inst = parse_instance(text)
    assert inst.terminals == (1,)


def test_zero_terminals_allowed():
    inst = parse_instance("p sstp 2 1 0\ne 1 2\n")
    assert inst.terminals == ()


def test_roundtrip_is_canonical():
    inst = parse_instance(P3)
    text = serialize_instance(inst)
    assert text == P3
    assert serialize_instance(parse_instance(text)) == text


@pytest.mark.parametrize("text,lineno", [
    ("e 1 2\n", 1),                                  # edge before header
    ("p sstp 2 1\n", 1),                             # header arity
    ("p sstp 2 x 0\n", 1),                           # non-integer count
    ("p sstp 2 1 0\np sstp 2 1 0\n", 2),             # duplicate header
    ("p sstp 2 1 0\ne 1 1\n", 2),                    # self-loop
    ("p sstp 2 1 0\ne 2 1\n", 2),                    # u >= v
    ("p sstp 2 1 0\ne 1 3\n", 2),                    # out of range
    ("p sstp 3 2 0\ne 1 2\ne 1 2\n", 3),             # duplicate edge
    ("p sstp 2 1 2\ne 1 2\nt 1\nt 1\n", 4),          # duplicate terminal
    ("p sstp 2 1 1\ne 1 2\nt 5\n", 3),               # terminal out of range
    ("p sstp 2 1 0\nq foo\n", 2),                    # unknown tag
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(SstpParseError) as exc:
        parse_instance(text)
    assert exc.value.line == lineno


def test_count_mismatches():
    with pytest.raises(SstpParseError, match="edges"):
        parse_instance("p sstp 3 2 0\ne 1 2\n")
    with pytest.raises(SstpParseError, match="terminals"):
        parse_instance("p sstp 2 1 1\ne 1 2\n")
    with pytest.raises(SstpParseError, match="header"):
        parse_instance("# nothing here\n")


def test_disconnected_rejected():
    for text in ("p sstp 4 2 0\ne 1 2\ne 3 4\n",  # too few edges
                 "p sstp 5 4 0\ne 1 2\ne 2 3\ne 1 3\ne 4 5\n"):  # triangle + edge
        with pytest.raises(SstpParseError, match="not connected"):
            parse_instance(text)


def test_too_few_edges_rejected_at_header(monkeypatch):
    """A header's counts size nothing: a graph is built only once the
    rows match them, and a duplicate still beats the count error."""
    def no_build(*args, **kwargs):
        raise AssertionError("the CSR builder was called")

    monkeypatch.setattr(sstp, "_csr", no_build)
    for text, line, message in [
        ("# big\np sstp 1000000 0 0\n", 2, "not connected"),
        ("p sstp 1000000000 999999999 0\ne 1 2\n", None, "promises 999999999 edges, found 1"),
        ("p sstp 3 5 0\ne 1 2\ne 1 2\n", 3, r"duplicate edge \(1, 2\)"),
    ]:
        with pytest.raises(SstpParseError, match=message) as exc:
            parse_instance(text)
        assert exc.value.line == line


def test_duplicate_edges_past_two_to_the_32_vertices():
    """Edge rows are compared as (u, v) pairs: at n = 2**33 the key
    u * n + v wraps int64, and once made (1, 4000000000) and
    (2147483649, 4000000000) look like one edge."""
    head = "p sstp 8589934592 8589934591 0\n"
    for body, line, message in [
        ("e 1 4000000000\ne 2147483649 4000000000\n", None,
         "header promises 8589934591 edges, found 2"),
        ("e 2147483649 4000000000\ne 2147483649 4000000000\n", 3,
         "line 3: duplicate edge (2147483649, 4000000000)"),
    ]:
        with pytest.raises(SstpParseError) as exc:
            parse_instance(head + body)
        assert (exc.value.line, str(exc.value)) == (line, message)


def test_ids_at_the_row_width_boundary():
    """Edge rows are uint16 while n <= 65,536 and uint32 from there on.
    At both widths a star on all n vertices, and the same star with its
    first edge line turned into a repeat of its last, which names the
    top id, parse as the line-by-line reference parses them."""
    assert (sstp._id_dtype(65536), sstp._id_dtype(65537)) == (np.uint16, np.uint32)
    for n in (65536, 65537):
        edges = [f"e 1 {v}\n" for v in range(2, n + 1)]
        star = f"p sstp {n} {n - 1} 1\n" + "".join(edges) + f"t {n}\n"
        repeat = star.replace("e 1 2\n", edges[-1], 1)
        assert _outcome(parse_instance, star) == _outcome(reference_parse, star)
        assert _outcome(parse_instance, repeat) == _outcome(reference_parse, repeat) == (
            "error", n, f"line {n}: duplicate edge (1, {n})")


# every vertex has degree 3, as in K4, yet 1-2 and 3-4 are missing
TRAP = "p sstp 4 6 0\ne 1 3\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 2 4\n"


class _Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe is."""

    def seekable(self) -> bool:
        return False


def test_degrees_of_a_split_graph_do_not_prove_it_simple():
    """The trap's degrees pass the Hammer-Simeone test with all four
    vertices as the clique, so only a check of the rows tells it from
    K4: its repeated edge is reported at its line, from text, from an
    open file and from a stream that cannot seek, whose line is found
    without reading it twice."""
    _, k, split = _degree_test(np.array([3, 3, 3, 3]))
    assert split and k == 4
    for parse in (parse_instance, lambda text: _parse_file(text.encode()),
                  lambda text: parse_instance(_Unseekable(text.encode()))):
        with pytest.raises(SstpParseError) as exc:
            parse(TRAP)
        assert (exc.value.line, str(exc.value)) == (3, "line 3: duplicate edge (1, 3)")


@st.composite
def split_files_with_a_repeat(draw):
    """SSTP text of a connected split graph with random ids, in which one
    repeat is put: a copy of a clique edge or of a clique-independent
    edge, an edge between two independent vertices given twice, or two
    edges (p, q), (r, s) swapped to (p, r), (q, s), which keeps every
    degree and so the degree test's verdict."""
    k = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.integers(min_value=0, max_value=6))
    ids = draw(st.permutations(range(k + b)))
    clique, rest = ids[:k], ids[k:]
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    for x in rest:
        edges += [(c, x) for c in sorted(draw(st.sets(st.sampled_from(clique), min_size=1)))]
    kind = draw(st.sampled_from(["clique", "cross", "independent", "swap"]))
    if kind == "independent" and b >= 2:
        edges += [tuple(rest[:2])] * 2
    elif kind == "swap" and len(edges) >= 2:
        i, j = draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2,
                             unique=True))
        (p, q), (r, s) = edges[i], edges[j]
        if len({p, q, r, s}) == 4:
            edges[i], edges[j] = (p, r), (q, s)
    else:
        inside = [e for e in edges if (e[1] in clique) == (kind == "clique")]
        if inside:
            edges.append(draw(st.sampled_from(inside)))
    edges = draw(st.permutations(edges))
    terminals = draw(st.lists(st.sampled_from(ids), unique=True))
    lines = [f"p sstp {k + b} {len(edges)} {len(terminals)}"]
    lines += [f"e {min(u, v) + 1} {max(u, v) + 1}" for u, v in edges]
    lines += [f"t {x + 1}" for x in terminals]
    return "\n".join(lines) + "\n"


@given(split_files_with_a_repeat())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_split_input_with_a_repeat_matches_reference(text):
    """On split graphs with a repeat in any position, the parse of text,
    and of an open file in whole and in 7-byte chunks, gives what the
    line-by-line reference gives: the instance, or the same line and
    message."""
    expected = _outcome(reference_parse, text)
    assert _outcome(parse_instance, text) == expected
    assert _outcome(_parse_file, text.encode()) == expected
    with mock.patch.object(sstp, "CHUNK_BYTES", 7):
        assert _outcome(_parse_file, text.encode()) == expected


@pytest.mark.parametrize("chunk", [7, 64, sstp.CHUNK_BYTES])
def test_repeated_edge_is_found_before_any_csr(monkeypatch, chunk):
    """A split gen file whose last edge line repeats its first fails the
    degree test; its repeat is found from the rows, as the line-by-line
    reference reports it, and no CSR is built on the way."""
    text = serialize_instance(gen_split(GeneratorConfig(
        clique_size=30, independent_size=40, level=2, seed=1)))
    lines = text.splitlines(keepends=True)
    edge_lines = [i for i, line in enumerate(lines) if line.startswith("e ")]
    lines[edge_lines[-1]] = lines[edge_lines[0]]
    text = "".join(lines)
    expected = _outcome(reference_parse, text)
    assert expected[:2] == ("error", edge_lines[-1] + 1)
    ends = [int(w) for i in edge_lines for w in lines[i].split()[1:]]
    assert not _degree_test(np.bincount(ends))[2]  # so the split layout is not tried

    def no_csr(*args):
        raise RuntimeError("a CSR was built")

    monkeypatch.setattr(graph, "_csr", no_csr)
    monkeypatch.setattr(sstp, "_csr", no_csr)
    monkeypatch.setattr(sstp, "CHUNK_BYTES", chunk)
    assert _outcome(parse_instance, text) == expected
    assert _outcome(_parse_file, text.encode()) == expected


def test_parsed_split_file_stores_only_its_cross_edges():
    """A split file is held as a clique mask and its cross edges: the
    stored index arrays hold two entries per cross edge and none for the
    clique's pairs. A file that is not split keeps the full CSR."""
    inst = gen_split(GeneratorConfig(clique_size=60, independent_size=80, level=2, seed=3))
    g = parse_instance(serialize_instance(inst)).graph
    sp = split_partition(g)
    cross = sum(len(sp.clique_neighbors(x)) for x in sp.independent)
    assert g._indices.size == g._indptr[-1] == 2 * cross
    assert np.flatnonzero(g._clique).tolist() == list(sp.clique)
    assert g.m == inst.graph.m and g == inst.graph
    c4 = parse_instance("p sstp 4 4 0\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n").graph
    assert c4._clique is None and c4._indices.size == 2 * c4.m == 8


def test_instance_validates_terminals():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        SteinerInstance(graph=g, terminals=(2,))
    with pytest.raises(ValueError):
        SteinerInstance(graph=g, terminals=(0, 0))
    inst = SteinerInstance(graph=g, terminals=(1, 0))
    assert inst.terminals == (0, 1)  # stored sorted
    for terminals in ((0.5, 1), (1.0, 0), ("1", 0)):
        with pytest.raises(TypeError):
            SteinerInstance(graph=g, terminals=terminals)
    inst = SteinerInstance(graph=g, terminals=(np.int64(1), np.int32(0)))
    assert inst.terminals == (0, 1)
    assert all(type(t) is int for t in inst.terminals)


@st.composite
def connected_instances(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    # spanning path guarantees connectivity, extras drawn on top
    edges = {(i, i + 1) for i in range(n - 1)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs))))
    terms = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          unique=True, max_size=n))
    g = Graph.from_edges(n, sorted(edges))
    return SteinerInstance(graph=g, terminals=tuple(terms))


@given(connected_instances())
@settings(max_examples=80)
def test_serialize_parse_roundtrip(inst):
    again = parse_instance(serialize_instance(inst))
    assert again.graph == inst.graph
    assert again.terminals == inst.terminals


def _assert_writers_match_reference(inst):
    expected = reference_serialize(inst)
    assert serialize_instance(inst) == expected
    out = io.StringIO()
    write_instance(inst, out)
    assert out.getvalue() == expected


@st.composite
def wide_instances(draw):
    """Connected instances on 10, 11, 100, 101, 1000 or 1001 vertices, so
    that ids cross 9/10, 99/100 and 999/1000: a random tree, random extra
    edges, and terminals drawn around each width boundary."""
    n = draw(st.sampled_from([10, 11, 100, 101, 1000, 1001]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    extra = rng.integers(n, size=(draw(st.integers(min_value=0, max_value=3 * n)), 2))
    edges |= {(int(min(a, b)), int(max(a, b))) for a, b in extra.tolist() if a != b}
    near = sorted({v for v in (0, 8, 9, 10, 98, 99, 100, 998, 999, 1000) if v < n})
    terms = draw(st.lists(st.sampled_from(near), unique=True, max_size=len(near)))
    return SteinerInstance(graph=Graph.from_edges(n, sorted(edges)), terminals=tuple(terms))


@given(wide_instances())
@settings(max_examples=30, deadline=None)
def test_writers_match_reference_across_digit_widths(inst):
    _assert_writers_match_reference(inst)


def test_writers_match_reference_on_edge_cases():
    _assert_writers_match_reference(SteinerInstance(graph=Graph.from_edges(1, []),
                                                    terminals=()))
    _assert_writers_match_reference(SteinerInstance(graph=Graph.from_edges(1, []),
                                                    terminals=(0,)))
    _assert_writers_match_reference(parse_instance("p sstp 3 2 0\ne 1 2\ne 2 3\n"))


@pytest.mark.parametrize("level,k14_free", [(1, False), (2, False), (3, False), (3, True)])
def test_writers_match_reference_on_generated(level, k14_free):
    for seed in range(3):
        _assert_writers_match_reference(gen_split(GeneratorConfig(
            clique_size=40, independent_size=30, level=level, k14_free=k14_free,
            seed=seed)))


def test_write_instance_holds_a_row_not_the_file(tmp_path):
    """Writing a |C| = 1000 instance to a file peaks (tracemalloc) below a
    quarter of the file's size. Measured: 0.3 MB for a 4.9 MB file;
    the one-string-per-edge serializer it replaced peaks at 69 MB, and any
    writer that builds the whole text first at more than the file's size."""
    inst = gen_split(GeneratorConfig(clique_size=1000, independent_size=1500,
                                     level=2, seed=1))
    path = tmp_path / "big.sstp"
    with path.open("w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_instance(inst, fh)
            fh.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4
    assert path.read_text(encoding="utf-8") == serialize_instance(inst)


@pytest.mark.parametrize("text,lineno,message", [
    ("p sstp 2 1 0\ne +1 2\n", 2, "edge endpoint is not an integer: '+1'"),
    ("p sstp 2 1 0\ne 1_0 2\n", 2, "edge endpoint is not an integer: '1_0'"),
    ("p sstp 2 1 0\ne 1\u00a02\n", 2, "bad edge line: 'e 1\\xa02'"),
    ("p sstp 2 1 0\ne \uff11 2\n", 2, "edge endpoint is not an integer: '\uff11'"),
    ("p sstp 2 1 1\ne 1 2\nt 0000000000000000001\n", 3,
     "terminal is not an integer: '0000000000000000001'"),
    ("p sstp 2 1 0\n\u00a0# no-break space before the hash\ne 1 2\n", 2,
     "unrecognized line: '\\xa0# no-break space before the hash'"),
])
def test_ascii_grammar_rejects_with_line(text, lineno, message):
    """Signs, underscores, non-ASCII digits and spaces and numbers over
    18 digits are outside the grammar, though str.split and int take them."""
    with pytest.raises(SstpParseError) as exc:
        parse_instance(text)
    assert exc.value.line == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("line,message", [
    ("e 1 x y", "bad edge line: 'e 1 x y'"),      # arity before integers
    ("e x y", "edge endpoint is not an integer: 'x'"),  # u before v
    ("e 1 y", "edge endpoint is not an integer: 'y'"),
    ("e 0 0", "self-loop at vertex 0"),          # self-loop before range
    ("e 9 1", "edge (9, 1) out of range"),       # range before u < v
    ("e 3 1", "edge endpoints must satisfy u < v, got (3, 1)"),
    ("e 2 3", "duplicate edge (2, 3)"),          # the later line
    ("t 0 x", "bad terminal line: 't 0 x'"),
    ("t -1", "terminal is not an integer: '-1'"),  # integer before range
    ("t 0", "terminal 0 out of range"),
    ("t 1", "duplicate terminal 1"),
])
def test_faults_of_one_line_in_reference_order(line, message):
    text = f"p sstp 3 2 1\ne 1 2\ne 2 3\nt 1\n{line}\ne 1 3\n"
    for parse in (parse_instance, reference_parse):
        with pytest.raises(SstpParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line 5: {message}"


def test_non_ascii_comment_accepted():
    inst = parse_instance("# caf\u00e9 \u2260 cafe\u2028still the comment\n"
                          "p sstp 2 1 1\ne 1 2\n#\u00a0\u00bd\nt 2\n")
    assert inst.graph.m == 1 and inst.terminals == (1,)


def test_eighteen_digits_fit():
    big = "9" * 18
    with pytest.raises(SstpParseError) as exc:
        parse_instance(f"p sstp {big} {big} 0\ne 1 {big}\ne 1 {big}\n")
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: duplicate edge (1, {big})"


# separators and line ends: the ASCII bytes that str.split and
# str.splitlines treat as whitespace or a break (\v and \f are both);
# tokens mix small ids, tags and the bytes the narrowed grammar rejects
SPACES = [" ", " ", "\t", "  ", "\x1f"]
LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
# digit runs at the lengths where the tokenizer reads one, two or three
# 8-byte words, and the bytes around the digits: '/' and ':', NUL, the
# separator \x1f, a non-ASCII character and a C1 control (UTF-8 c2 80)
DIGIT_RUNS = st.builds(lambda k, x: str(x).zfill(k)[-k:],
                       st.sampled_from([1, 7, 8, 9, 15, 16, 17, 18, 19]),
                       st.integers(min_value=0, max_value=10**19))
TOKENS = st.one_of(st.integers(min_value=0, max_value=7).map(str),
                   st.text(alphabet="+-_#petq0123456789", min_size=1, max_size=3),
                   st.sampled_from(["sstp", "p", "e", "t", "9" * 19]),
                   DIGIT_RUNS,
                   st.text(alphabet="0123456789/:\x00\x1f\x80\u00e9", min_size=1, max_size=4))


@st.composite
def mutated_sstp(draw):
    """A small valid SSTP file, then a few line-level mutations, written
    out with drawn whitespace and line ends."""
    inst = draw(connected_instances(max_n=5))
    lines = [line.split() for line in serialize_instance(inst).splitlines()]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "reorder", "flip", "insert",
                                   "replace", "replace", "blank", "comment"]))
        i = draw(st.integers(min_value=0, max_value=max(len(lines) - 1, 0)))
        j = draw(st.integers(min_value=0, max_value=len(lines)))
        if op == "drop" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(j, list(lines[i]))
        elif op == "swap" and lines:
            j = min(j, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "reorder":
            lines = draw(st.permutations(lines))
        elif op == "flip" and lines:
            lines[i][1:] = lines[i][:0:-1]
        elif op in ("insert", "replace") and lines:
            k = draw(st.integers(min_value=0, max_value=len(lines[i])))
            tok = draw(TOKENS)
            if op == "replace" and k < len(lines[i]):
                lines[i][k] = tok
            else:
                lines[i].insert(k, tok)
        elif op == "blank":
            lines.insert(j, [])
        elif op == "comment":
            lines.insert(j, ["#"] + draw(st.lists(TOKENS, max_size=2)))
    out = []
    for toks in lines:
        seps = [draw(st.sampled_from(["", ""] + SPACES))]
        seps += [draw(st.sampled_from(SPACES)) for _ in toks[1:]]
        tail = draw(st.sampled_from(["", ""] + SPACES)) + draw(st.sampled_from(LINE_ENDS))
        out.append("".join(sep + tok for sep, tok in zip(seps, toks)) + tail)
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("\n\r\x1c\x1d\x1e")
    return text


def _outcome(parse, text):
    try:
        inst = parse(text)
    except SstpParseError as exc:
        return "error", exc.line, str(exc)
    return "instance", inst.graph, inst.terminals


def _parse_file(data: bytes) -> SteinerInstance:
    """parse_instance on an open binary temporary file that holds data."""
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        return parse_instance(fh)


def _chunk_list(source) -> list[bytes]:
    return [chunk.tobytes() for chunk in sstp._utf8_chunks(source)]


@given(mutated_sstp())
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
def test_matches_line_by_line_reference(text):
    """The array parser and the line loop it replaced agree on every
    ASCII text: the same instance, or the same line and message."""
    assert _outcome(parse_instance, text) == _outcome(reference_parse, text)


# chunk sizes far below any real file's, so every case is cut many times
CHUNK_SIZES = (1, 7, 64)
PAD = "# " + "pad " * 20 + "\n"  # a comment longer than the largest of them
PAD_CRLF = PAD.replace("\n", "\r\n")

CHUNK_CASES = {
    "crlf-at-cut": "p sstp 3 2 1\r\n" + PAD_CRLF + "e 1 2\r\ne 2 3\r\nt 1\r\n",
    "crlf-fault": "p sstp 3 2 1\r\ne 1 2\r\n" + PAD_CRLF * 3 + "e 2 2\r\nt 1\r\n",
    "no-newline": "p sstp 3 2 1\re 1 2\x0be 2 3\x1ct 1",
    "no-newline-fault": "p sstp 3 2 1\re 1 2\x0b# c\x0ce 2 3\x1ct 4\x1d",
    "header-after-comments": PAD * 40 + P3,
    "utf8-comment": "# " + "\u00e9\u20ac\U0001f600" * 40 + "\n" + P3 + "# \u00bd \u2260\n" * 20,
    "utf8-comment-fault": ("# " + "\u00e9\u20ac\U0001f600" * 40
                           + "\np sstp 3 2 0\ne 1 2\n# \u00bd\ne 2 3 4\n"),
    "duplicate-before-malformed": "p sstp 3 3 0\ne 1 2\ne 1 2\n" + PAD * 3 + "e 1 x\n",
    "malformed-before-duplicate": "p sstp 3 3 0\ne 1 2\ne 1 x\n" + PAD * 3 + "e 1 2\n",
    "duplicate-terminal": "p sstp 3 2 2\ne 1 2\ne 2 3\nt 2\n" + PAD * 3 + "t 2\n",
    "empty": "",
    "only-comments": PAD * 5,
}


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunk_cuts_match_reference(monkeypatch, name, chunk):
    """Wherever the chunks are cut, str, UTF-8 bytes and an open binary
    file parse to what the line-by-line reference gives: the instance, or
    the same error."""
    monkeypatch.setattr(sstp, "CHUNK_BYTES", chunk)
    text = CHUNK_CASES[name]
    data = text.encode("utf-8")
    if data.count(b"\n") > 1:
        assert len(_chunk_list(io.BytesIO(data))) > 1
    expected = _outcome(reference_parse, text)
    assert _outcome(parse_instance, text) == expected
    assert _outcome(parse_instance, data) == expected
    assert _outcome(lambda _: _parse_file(data), text) == expected


def test_chunk_cases_reach_the_intended_error():
    outcomes = {name: _outcome(reference_parse, text)
                for name, text in CHUNK_CASES.items()}
    assert outcomes["duplicate-before-malformed"] == (
        "error", 3, "line 3: duplicate edge (1, 2)")
    assert outcomes["malformed-before-duplicate"] == (
        "error", 3, "line 3: edge endpoint is not an integer: 'x'")
    assert outcomes["duplicate-terminal"] == (
        "error", 8, "line 8: duplicate terminal 2")
    assert outcomes["crlf-fault"][:2] == ("error", 6)
    assert outcomes["no-newline-fault"][:2] == ("error", 5)
    assert outcomes["utf8-comment-fault"][:2] == ("error", 5)
    assert outcomes["empty"] == outcomes["only-comments"] == (
        "error", None, "missing header")
    for name in ("crlf-at-cut", "no-newline", "header-after-comments", "utf8-comment"):
        assert outcomes[name][0] == "instance"


class _OneByteReads(io.RawIOBase):
    """A seekable binary source whose reads return at most one byte."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self._data.seek(offset, whence)

    def readinto(self, buffer) -> int:
        piece = self._data.read(min(len(buffer), 1))
        buffer[:len(piece)] = piece
        return len(piece)


def _tiles_by_lines(chunks: list[bytes], data: bytes) -> bool:
    """Whether the chunks, none empty, join to data and each but the
    last ends in \\n."""
    return (b"".join(chunks) == data and all(chunks)
            and all(piece.endswith(b"\n") for piece in chunks[:-1]))


@given(st.lists(st.sampled_from([b"\n", b"\r", b"\r\n", b"a", b"\xc3\xa9", b" ",
                                 b"p sstp 3 2 1", b"e 1 2", b"e 2 3", b"t 1"]),
                max_size=40).map(b"".join), st.sampled_from(CHUNK_SIZES))
def test_cuts_end_just_after_a_newline(data, chunk):
    """From a BytesIO, each chunk is the next CHUNK_BYTES bytes plus the
    rest of the line that holds its last byte (the rest of the data when
    no \\n follows). A source that returns one byte per read is cut
    elsewhere, but its chunks also tile the data and end lines, and it
    parses to what the line-by-line reference gives."""
    expected, start = [], 0
    while start < len(data):
        stop = data.find(b"\n", start + chunk - 1) + 1 or len(data)
        expected.append(data[start:stop])
        start = stop
    with mock.patch.object(sstp, "CHUNK_BYTES", chunk):
        chunks = _chunk_list(io.BytesIO(data))
        one_byte = _chunk_list(_OneByteReads(data))
        outcome = _outcome(parse_instance, _OneByteReads(data))
    assert chunks == expected
    assert _tiles_by_lines(chunks, data) and _tiles_by_lines(one_byte, data)
    assert outcome == _outcome(reference_parse, data.decode("utf-8"))


@given(mutated_sstp(), st.sampled_from(CHUNK_SIZES))
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_matches_reference_in_tiny_chunks(text, chunk):
    expected = _outcome(reference_parse, text)
    with mock.patch.object(sstp, "CHUNK_BYTES", chunk):
        assert _outcome(parse_instance, text) == expected
        assert _outcome(lambda _: _parse_file(text.encode("utf-8")), text) == expected


# cases for the tokenizer's word reads and byte ranges; every chunk size
# below also puts tokens at the first and last byte of a chunk
WORD_CASES = {
    **{f"terminal-{k}-digits": f"p sstp 3 2 1\ne 1 2\ne 2 3\nt {'1'.zfill(k)}\n"
       for k in (1, 7, 8, 9, 15, 16, 17, 18, 19)},
    **{f"endpoint-{k}-digits": f"p sstp 3 2 1\ne 1 2\ne 2 {'987654321098765432109'[:k]}\nt 1"
       for k in (1, 7, 8, 9, 15, 16, 17, 18, 19)},
    **{f"header-{k}-digits": f"p sstp {'123456789012345678901'[:k]} {'9' * k} 0\n"
       for k in (1, 7, 8, 9, 15, 16, 17, 18, 19)},
    "leading-zeros": "p sstp 003 0002 01\ne 01 002\ne 0002 3\nt 003\n",
    "slash": "p sstp 3 2 1\ne 1 2\ne 2 3/\nt 1\n",
    "colon": "p sstp 3 2 1\ne 1 2\ne :2 3\nt 1\n",
    "nul": "p sstp 3 2 1\ne 1 2\ne 2 3\x00\nt 1\n",
    "unit-separator": "p sstp 3 2 1\ne 1\x1f2\x1f\ne\x1f2 3\nt 1\x1f",
    "non-ascii": "p sstp 3 2 1\ne 1 2\ne 2 3\u00e9\nt 1\n",
    "c1-control": "p sstp 3 2 1\ne 1 2\ne 2 \x803\nt 1\n",
    "number-first": "p sstp 3 2 1\ne 1 2\n12345678901 e 2 3\nt 1\n",
    "breaks": "p sstp 3 2 1\re 1 2\r\ne 2 3\x0b\x1c\x1d\x1et 1\x1c\x1e\re 1 1",
    "break-before-fault": "p sstp 3 2 1\r\re 1 2\x0c\x1de 2 3\x1e\r\nt 3 3",
    "newline-first": "\np sstp 3 2 1\ne 1 2\ne 2 3\nt 3 3\r",
}


@pytest.mark.parametrize("chunk", CHUNK_SIZES + (sstp.CHUNK_BYTES, 1 << 18))
@pytest.mark.parametrize("name", sorted(WORD_CASES))
def test_word_cases_match_reference(name, chunk):
    text = WORD_CASES[name]
    expected = _outcome(reference_parse, text)
    with mock.patch.object(sstp, "CHUNK_BYTES", chunk):
        assert _outcome(parse_instance, text) == expected
        assert _outcome(lambda _: _parse_file(text.encode("utf-8")), text) == expected


def test_word_cases_reach_the_intended_outcome():
    outcomes = {name: _outcome(reference_parse, text) for name, text in WORD_CASES.items()}
    for k in (1, 7, 8, 9, 15, 16, 17, 18):
        assert outcomes[f"terminal-{k}-digits"][0] == "instance"
        assert outcomes[f"header-{k}-digits"][2].endswith(
            f"promises {'9' * k} edges, found 0")
    assert outcomes["terminal-19-digits"][1:] == (
        4, f"line 4: terminal is not an integer: '{'1'.zfill(19)}'")
    assert outcomes["endpoint-18-digits"][1:] == (
        3, "line 3: edge (2, 987654321098765432) out of range")
    assert outcomes["header-19-digits"][2] == (
        "line 1: vertex count is not an integer: '1234567890123456789'")
    assert outcomes["leading-zeros"][0] == "instance"
    assert outcomes["unit-separator"][0] == "instance"
    for name in ("slash", "colon", "nul", "non-ascii", "c1-control"):
        assert outcomes[name][:2] == ("error", 3)
        assert "is not an integer" in outcomes[name][2]
    assert outcomes["number-first"][:2] == ("error", 3)
    assert outcomes["breaks"][1:] == (10, "line 10: self-loop at vertex 1")
    assert outcomes["newline-first"][1:] == (5, "line 5: bad terminal line: 't 3 3'")
    assert outcomes["break-before-fault"][1:] == (
        7, "line 7: bad terminal line: 't 3 3'")


KERNEL_BYTES = st.lists(st.one_of(
    st.sampled_from([b"0", b"9", b"/", b":", b"\x00", b"\x1f", b"\x80", b"\xff", b"#",
                     b"e", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c",
                     b"\x1b", b"\x1c", b"\x1d", b"\x1e", b"!"]),
    DIGIT_RUNS.map(str.encode)), max_size=12).map(b"".join)


@given(KERNEL_BYTES, st.integers(min_value=0, max_value=3))
@example(b"\n12\r", 0)  # a \n at byte 0 is no \r\n with the last byte
@settings(max_examples=400)
def test_chunk_kernel_matches_bytewise_reference(data, line0):
    """_Chunk on any bytes, from 0 to ~200 long, gives the tokens, digit
    tests, values and lines of a regex reading of the same bytes."""
    ck = sstp._Chunk(np.frombuffer(data, np.uint8), line0)
    token = re.compile(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]+")
    spans = [m.span() for m in token.finditer(data)]
    assert list(zip(ck.start.tolist(), ck.end.tolist())) == spans
    tokens = [data[a:b] for a, b in spans]
    is_int = [len(tok) <= 18 and tok.isdigit() for tok in tokens]
    assert ck.is_int.tolist() == is_int
    assert ck.value[ck.is_int].tolist() == [int(tok) for tok, ok in zip(tokens, is_int) if ok]

    lines = re.split(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]", data)
    assert ck.lines_after == line0 + len(lines) - 1
    expected, index = [], 0
    for number, line in enumerate(lines, start=line0 + 1):
        words = token.findall(line)
        if words and words[0][:1] != b"#":
            lead = words[0]
            expected.append((index, len(words), lead[0] if len(lead) == 1 else 0, number))
        index += len(words)
    assert list(zip(*(col.tolist() for col in ck.statements()))) == expected


@pytest.mark.parametrize("chunk", [7, sstp.CHUNK_BYTES, 1 << 18])
def test_invalid_utf8_wins_as_in_a_whole_file_decode(monkeypatch, chunk):
    """Bytes that are not UTF-8 are reported as decoding the whole file
    reports them, even after a bad line in an earlier chunk, whether the
    bytes are given or read from an open file: one bad byte, a sequence
    cut short at the end, and a bad byte after a valid 2-byte character
    in a chunk that follows chunks of ASCII alone."""
    monkeypatch.setattr(sstp, "CHUNK_BYTES", chunk)
    pad = PAD.encode() * (3 + 2 * chunk // len(PAD))
    for tail, bad in [(b"# caf\xc3\n\xe2\x82", b"\xc3"), (b"# \xe2\x82", b"\xe2"),
                      (b"# caf\xc3\xa9 \xff\n", b"\xff")]:
        data = b"p sstp 2 1 0\ne 1 5\n" + pad + tail
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        for parse in (parse_instance, _parse_file):
            with pytest.raises(UnicodeDecodeError) as exc:
                parse(data)
            assert str(exc.value) == str(whole.value)
            assert (exc.value.start, exc.value.end) == (whole.value.start, whole.value.end)
            assert exc.value.start == data.index(bad)


def test_parse_memory_grows_with_edges_not_bytes():
    """The tracemalloc peak of parse_instance on gen files of about 125k
    and 245k edges stays under A bytes per edge plus B per chunk byte.

    Measured (Python 3.11, numpy 2.4): the peak falls in the last chunk's
    tokenizing and grows by about 14 bytes per edge, the text's UTF-8 copy
    (10) and the rows (4), plus about 12 per chunk byte for one chunk's
    temporaries. A and B leave more than twice that. A parser holding
    whole-text temporaries peaks at about 200 bytes per edge (20 per input
    byte) and fails both bounds.
    """
    per_edge, per_chunk_byte = 90, 32
    measured = []
    for clique in (500, 700):
        text = serialize_instance(gen_split(GeneratorConfig(
            clique_size=clique, independent_size=clique, level=2, seed=1)))
        tracemalloc.start()
        try:
            inst = parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        measured.append((inst.graph.m, peak))
    (m1, peak1), (m2, peak2) = measured
    assert m2 > 1.9 * m1
    assert (peak2 - peak1) / (m2 - m1) <= per_edge
    for m, peak in measured:
        assert peak <= per_edge * m + per_chunk_byte * sstp.CHUNK_BYTES


def _parse_peaks(tmp_path, instances) -> list[tuple[int, int]]:
    """(m, tracemalloc peak of parse_instance) for each instance, written
    to a file and parsed from it open."""
    measured = []
    for i, inst in enumerate(instances):
        path = tmp_path / f"{i}.sstp"
        with open(path, "w", encoding="utf-8") as fh:
            write_instance(inst, fh)
        del inst
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                parsed = parse_instance(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        measured.append((parsed.graph.m, peak))
    return measured


def test_parse_from_a_file_holds_rows_not_bytes(tmp_path):
    """The tracemalloc peak of parse_instance on open gen files of about
    245k and 500k edges grows by at most 6 bytes per edge between them.

    Measured (Python 3.11, numpy 2.4): about 4.0. Both peaks are the last
    chunk's tokenizing, and between them only the rows grow: two uint16
    ids per edge (4 bytes). The split graph is then built from its cross
    edges alone. Keeping an int32 line number per edge as well would
    grow by about 8; the parse that built the full CSR of split input
    from int32 rows and line numbers grew by about 15.
    """
    (m1, peak1), (m2, peak2) = _parse_peaks(tmp_path, (
        gen_split(GeneratorConfig(clique_size=clique, independent_size=clique,
                                  level=2, seed=1)) for clique in (700, 1000)))
    assert m2 > 2 * m1
    assert (peak2 - peak1) / (m2 - m1) <= 6


def _cycle_join_clique(k: int) -> SteinerInstance:
    """A C5 joined to every vertex of a K_k: not split, so the parse
    builds its full CSR."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + u) for i in range(5) for u in range(k)]
    iu, ju = np.triu_indices(k, 1)
    pairs = np.concatenate((np.array(edges), np.stack((iu, ju), axis=1) + 5))
    return SteinerInstance(graph=Graph.from_edges(k + 5, pairs), terminals=())


def test_parse_of_a_graph_that_is_not_split_holds_rows_and_keys(tmp_path):
    """The tracemalloc peak of parse_instance on open files of about 250k
    and 500k edges that are not split grows by at most 24 bytes per edge
    between them.

    Measured (Python 3.11, numpy 2.4): about 14. At both files the peak
    is the CSR build: uint16 rows (4 bytes per edge), int32 sort
    keys (8), which become the CSR indices, and a mask comparing
    neighbouring keys.
    """
    (m1, peak1), (m2, peak2) = _parse_peaks(
        tmp_path, (_cycle_join_clique(k) for k in (700, 1000)))
    assert m2 > 2 * m1
    assert (peak2 - peak1) / (m2 - m1) <= 24


def test_gen_split_holds_no_array_of_clique_pairs():
    """gen_split at |C| = 1000 peaks under |C|**2 bytes of tracemalloc:
    the graph is built in the split layout, so no array with an entry per
    clique pair is ever made (the full CSR's int32 indices alone took
    4 * |C|**2 bytes).

    Measured (Python 3.11, numpy 2.4): about 0.6 MB, against 4.6 MB for
    the full CSR.
    """
    clique = 1000
    tracemalloc.start()
    try:
        inst = gen_split(GeneratorConfig(clique_size=clique, independent_size=clique,
                                         level=2, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.graph.m > clique * (clique - 1) // 2
    assert peak < clique**2


def test_duplicate_edge_costs_no_more_memory_than_a_valid_file(tmp_path):
    """An open gen file of about 245k edges whose last edge line repeats
    its first is reported at that line, and the tracemalloc peak of its
    parse stays within the valid file's plus 8 bytes per chunk byte.

    Measured (Python 3.11, numpy 2.4): 1.8 MB for the valid file and
    2.1 MB for this one, whose degrees fail the split test: its rows are
    sorted once more, 4 bytes per edge, and the repeat is found before
    any key of the full CSR is made. Making those sort keys (8 bytes per
    edge) first, as the parse once did, peaked at 3.5 MB; joining every
    row and line number to sort them peaked 4 MB (16 bytes per edge)
    above the valid file.
    """
    text = serialize_instance(gen_split(GeneratorConfig(
        clique_size=700, independent_size=700, level=2, seed=1)))
    lines = text.splitlines(keepends=True)
    edge_lines = [i for i, line in enumerate(lines) if line.startswith("e ")]
    lines[edge_lines[-1]] = lines[edge_lines[0]]
    peaks = {}
    for name, body in (("valid", text), ("duplicate", "".join(lines))):
        path = tmp_path / f"{name}.sstp"
        path.write_text(body, encoding="utf-8")
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                parse_instance(fh)
            except SstpParseError as exc:
                error = exc
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
    u, v = lines[edge_lines[0]].split()[1:]
    assert (error.line, str(error)) == (
        edge_lines[-1] + 1, f"line {edge_lines[-1] + 1}: duplicate edge ({u}, {v})")
    assert len(edge_lines) > 240_000
    assert peaks["duplicate"] <= peaks["valid"] + 8 * sstp.CHUNK_BYTES
