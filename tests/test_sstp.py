import pytest
from hypothesis import given, settings, strategies as st

from splitsteiner import (
    Graph,
    SstpParseError,
    SteinerInstance,
    parse_instance,
    serialize_instance,
)

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
    def no_build(*args, **kwargs):
        raise AssertionError("Graph.from_edges called")

    monkeypatch.setattr(Graph, "from_edges", no_build)
    with pytest.raises(SstpParseError, match="not connected") as exc:
        parse_instance("# big\np sstp 1000000 0 0\n")
    assert exc.value.line == 2


def test_instance_validates_terminals():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        SteinerInstance(graph=g, terminals=(2,))
    with pytest.raises(ValueError):
        SteinerInstance(graph=g, terminals=(0, 0))
    inst = SteinerInstance(graph=g, terminals=(1, 0))
    assert inst.terminals == (0, 1)  # stored sorted


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
