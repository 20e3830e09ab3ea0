"""The benchmark under perfbench/ takes names from the package, and its
traced run (`perfbench/run.py --trace 1`) is outside tier-1, so a name
removed from the package would break it without failing a test here."""

import ast
import importlib
import json
from pathlib import Path

import pytest

from splitsteiner import serialize_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each `from splitsteiner[.x] import name` and
    each `alias.name` where alias is bound by `import splitsteiner[.x]`."""
    out: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "splitsteiner":
            out.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "splitsteiner":
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["splitsteiner"] = "splitsteiner"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            out.add((aliases[node.value.id], node.attr))
    return out


def test_perfbench_imports_exist():
    used: set[tuple[str, str]] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _package_names(ast.parse(path.read_text(encoding="utf-8")))
    # the traced run's entry points, so that a parse that finds nothing fails
    assert {("splitsteiner", "solve_3split"), ("splitsteiner", "bfs_tree"),
            ("splitsteiner", "maximum_matching"),
            ("splitsteiner.cli", "main")} <= used
    missing = sorted((mod, name) for mod, name in used
                     if not hasattr(importlib.import_module(mod), name))
    assert not missing, f"perfbench uses names the package lacks: {missing}"


@pytest.mark.parametrize("level, k14_free, indep", [(1, False, 7), (2, False, 12),
                                                    (3, True, 9)])
def test_trace_file_runs(tmp_path, monkeypatch, level, k14_free, indep):
    """One traced pass over a tiny generated file: the calls the traced
    run makes into the package (maximum_matching on a Graph, bfs_tree,
    Graph.from_edges on a list of pairs) keep working. The child process
    for cli.startup is not started."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus = importlib.import_module("corpus")
    tracing = importlib.import_module("tracing")
    spec = {"file": "tiny.sstp", "kind": "gen", "level": level, "k14_free": k14_free,
            "clique": 8, "indep": indep, "seed": 3}
    path = tmp_path / spec["file"]
    path.write_text(serialize_instance(corpus.build_instance(spec)), encoding="utf-8")
    tr = tracing.Tracer()
    code, out, counts = tracing.trace_file(tr, spec, path, ("solve", "--json"),
                                           run_child=lambda argv: None)
    assert code == 0
    assert json.loads(out)["size"] == counts["S"]
    names = {s["name"] for s in tr.spans}
    assert {"graph.from_edges", "matching.maximum_matching", "graph.bfs_tree"} <= names
