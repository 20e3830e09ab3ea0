"""Tests of the benchmark's output checks: right answers pass, wrong ones fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from splitsteiner import serialize_instance

import checks
import corpus
import run


def write_sstp(path: Path, n: int, edges: list[tuple[int, int]], terminals: list[int]) -> Path:
    """1-based edges and terminals, in the canonical file layout."""
    lines = [f"p sstp {n} {len(edges)} {len(terminals)}"]
    lines += [f"e {min(u, v)} {max(u, v)}" for u, v in sorted(edges)]
    lines += [f"t {t}" for t in sorted(terminals)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# clique {1, 2, 3}; terminals 4 ~ {1}, 5 ~ {1, 3}, 6 ~ {3}: the optimum is {1, 3}
SPLIT_EDGES = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (3, 5), (3, 6)]
SPLIT_TERMINALS = [4, 5, 6]


@pytest.fixture
def split_inst(tmp_path: Path) -> checks.Instance:
    return checks.read_instance(write_sstp(tmp_path / "s.sstp", 6, SPLIT_EDGES, SPLIT_TERMINALS))


def answer(steiner: list[int], tree: list[tuple[int, int]]) -> dict:
    return {"size": len(steiner), "steiner_set": steiner,
            "tree_edges": [list(e) for e in tree], "regime": "2-split"}


GOOD_TREE = [(1, 3), (1, 4), (1, 5), (3, 6)]


def test_right_answer_passes(split_inst):
    assert checks.min_steiner_size(split_inst) == 2
    checks.check_solve(split_inst, answer([1, 3], GOOD_TREE), 2)


@pytest.mark.parametrize("steiner, tree, reason", [
    ([1], [(1, 4), (1, 5)], "minimum set cover"),  # missing Steiner vertex
    ([1, 2, 3], [(1, 2), (1, 3), (1, 4), (1, 5), (3, 6)], "minimum set cover"),  # extra vertex
    ([1, 3], [(1, 3), (1, 4), (1, 5), (1, 6)], "not an edge of the file"),
    ([1, 3], [(1, 3), (1, 4), (1, 5), (3, 5)], "closes a cycle"),
    ([1, 3], [(1, 3), (1, 4), (1, 5)], "tree edges for"),
    ([1, 3], [(1, 3), (1, 2), (1, 5), (3, 6)], "leaves S u R"),
    ([1, 5], [(1, 5), (1, 4), (3, 5), (3, 6)], "overlaps the terminals"),
])
def test_wrong_solve_answer_is_rejected(split_inst, steiner, tree, reason):
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.check_solve(split_inst, answer(steiner, tree), 2)


def test_size_field_must_match_the_set(split_inst):
    wrong = answer([1, 3], GOOD_TREE) | {"size": 1}
    with pytest.raises(checks.CheckFailed, match="does not match"):
        checks.check_solve(split_inst, wrong, 2)


def test_forced_clique_requires_every_clique_vertex(tmp_path):
    # each clique vertex has a private leaf, so all three are forced
    edges = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6), (1, 7), (2, 7)]
    inst = checks.read_instance(write_sstp(tmp_path / "f.sstp", 7, edges, [4, 5, 6, 7]))
    assert checks.min_steiner_size(inst) == 3
    good = answer([1, 2, 3], [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (1, 7)])
    checks.check_solve(inst, good, 3, all_clique_forced=True)
    with pytest.raises(checks.CheckFailed, match="forced"):
        # an optimum passed in wrongly still cannot hide a smaller answer
        checks.check_solve(inst, answer([1, 2], [(1, 2), (1, 4), (2, 5), (1, 7)]), 2,
                           all_clique_forced=True)


def test_set_cover_is_exact_where_the_lp_is_fractional(tmp_path):
    # clique 1..3, terminals 4..6 in a triangle of pairs: LP optimum 1.5, integer 2
    edges = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 4)]
    inst = checks.read_instance(write_sstp(tmp_path / "t.sstp", 6, edges, [4, 5, 6]))
    assert checks.min_steiner_size(inst) == 2


def test_cover_needs_terminals_to_be_the_independent_side(tmp_path):
    inst = checks.read_instance(write_sstp(tmp_path / "x.sstp", 4,
                                           [(1, 2), (2, 3), (3, 4)], [1, 2]))
    with pytest.raises(ValueError, match="terminals are adjacent"):
        checks.min_steiner_size(inst)


# C5 on 1..5 joined to the clique {6, 7}
C5_EDGES = ([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7)]
            + [(c, k) for c in range(1, 6) for k in (6, 7)])


@pytest.fixture
def c5_inst(tmp_path: Path) -> checks.Instance:
    return checks.read_instance(write_sstp(tmp_path / "c5.sstp", 7, C5_EDGES, []))


def not_split(kind: str, vertices: list[int]) -> dict:
    return {"split": False, "partition": None,
            "witnesses": {"not_split": {"kind": kind, "vertices": vertices}}}


def test_right_certificate_passes(c5_inst):
    checks.check_not_split(c5_inst, not_split("C5", [1, 2, 3, 4, 5]))
    checks.check_not_split(c5_inst, not_split("C5", [3, 4, 5, 1, 2]))


@pytest.mark.parametrize("payload, reason", [
    (not_split("C5", [1, 2, 3, 4, 6]), "do not induce"),  # chorded: 6 sees all
    (not_split("C5", [1, 3, 5, 2, 4]), "do not induce"),  # pentagram order
    (not_split("C4", [1, 2, 3, 6]), "do not induce"),  # 6 is a chord
    (not_split("2K2", [1, 2, 3, 4]), "do not induce"),
    (not_split("C5", [1, 2, 3, 4, 4]), "distinct"),
    (not_split("K5", [1, 2, 3, 4, 5]), "unknown obstruction"),
    ({"split": True, "partition": {"clique": [6, 7], "independent": [1, 2, 3, 4, 5]}},
     "reported as split"),
])
def test_wrong_certificate_is_rejected(c5_inst, payload, reason):
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.check_not_split(c5_inst, payload)


def test_checker_reports_unparsable_output(tmp_path):
    write_sstp(tmp_path / "s.sstp", 6, SPLIT_EDGES, SPLIT_TERMINALS)
    checker = checks.OutputChecker("solve", tmp_path)
    assert checker.problem("s.sstp", json.dumps(answer([1, 3], GOOD_TREE)).encode()) is None
    assert "not one JSON line" in checker.problem("s.sstp", b"")
    assert "lacks a field" in checker.problem("s.sstp", b'{"size": 2}')


# The real CLI on small members of each corpus family must pass the checks.
SMALL_SPECS = [
    ("solve", {"file": "l1.sstp", "kind": "gen", "level": 1, "k14_free": False,
               "clique": 30, "indep": 25, "seed": 3}),
    ("solve", {"file": "l2.sstp", "kind": "gen", "level": 2, "k14_free": False,
               "clique": 30, "indep": 45, "seed": 3}),
    ("solve", {"file": "l3.sstp", "kind": "gen", "level": 3, "k14_free": True,
               "clique": 30, "indep": 31, "seed": 3}),
    ("solve-forced", {"file": "adv.sstp", "kind": "adversarial", "clique": 30, "seed": 3,
                      "stream": 0}),
    ("not-split", {"file": "c5.sstp", "kind": "nonsplit", "cycle": "C5", "clique": 8,
                   "seed": 3, "stream": 0}),
    ("not-split", {"file": "c4.sstp", "kind": "nonsplit", "cycle": "C4", "clique": 8,
                   "seed": 3, "stream": 1}),
]


@pytest.mark.parametrize("kind, spec", SMALL_SPECS, ids=[s["file"] for _, s in SMALL_SPECS])
def test_cli_outputs_pass_on_small_corpus_files(tmp_path, kind, spec):
    (tmp_path / spec["file"]).write_text(serialize_instance(corpus.build_instance(spec)),
                                         encoding="utf-8")
    workload = {"solve": "dense-file", "solve-forced": "v3-adversarial",
                "not-split": "nonsplit-check"}[kind]
    _, rss_mb, code, out = run.run_child(run.cli_argv(workload, tmp_path / spec["file"]))
    assert code == 0 and rss_mb > 0
    assert checks.OutputChecker(kind, tmp_path).problem(spec["file"], out) is None
