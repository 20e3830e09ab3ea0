"""Traced in-process pass of the CLI benchmark: per-layer self times.

For each corpus file, under one root span:

* the set-up layers: the file is built and serialized again
  (generate.gen_split or corpus.build, then sstp.serialize_instance);
* cli.startup: a `python -m splitsteiner --help` child;
* cli.main_untraced: cli.main on the file, in process, with nothing traced;
* cli.main: the same call with the names cli.py imported from the other
  layers (parse_instance, solve, verify_solution, split_partition) wrapped
  in spans for the call, so its self time is cli.other;
* one span per public function below the CLI, each called from here on
  the parsed file: Graph.from_edges, is_connected, split_partition,
  find_induced_star, prune, the regime solver, build_labeled_graph and
  maximum_matching on the Delta_I <= 2 view, and bfs_tree.

Spans (name, start, end, parent, file) stay in memory and are written out
as JSON at the end, with the per-file counts and the tracing overhead:
the traced cli.main against the untraced one. A layer's self time is its
span's duration minus that of its child spans; a layer that the workload
never reaches reads 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path

import splitsteiner.cli as cli
from splitsteiner import (
    Graph,
    bfs_tree,
    build_labeled_graph,
    find_induced_star,
    is_connected,
    maximum_matching,
    prune,
    restrict_view,
    serialize_instance,
    solve_1split,
    solve_2split,
    solve_3split,
    solve_claw_free,
    split_partition,
)

import corpus

# per_layer metric names of BENCHMARK.json, without the "_s" suffix;
# cli.main is a total, every other entry a self time
LAYERS = (
    "cli.startup", "cli.main", "cli.other",
    "sstp.parse_instance", "graph.from_edges", "graph.is_connected",
    "split.split_partition", "structure.find_induced_star", "solver.solve",
    "solver.prune", "solver.regime", "structure.build_labeled_graph",
    "matching.maximum_matching", "graph.bfs_tree", "oracle.verify_solution",
    "generate.gen_split", "sstp.serialize_instance",
)
# names cli.py imported from the other layers, and their span names
CLI_CALLS = {
    "parse_instance": "sstp.parse_instance",
    "solve": "solver.solve",
    "verify_solution": "oracle.verify_solution",
    "split_partition": "split.split_partition",
}
REGIME_SOLVERS = {
    "1-split": solve_1split,
    "2-split": solve_2split,
    "claw-free": solve_claw_free,
    "3-split": solve_3split,
}


class Tracer:
    """In-memory spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.file: str | None = None
        self.results: dict[str, object] = {}
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {"id": len(self.spans), "name": name, "file": self.file,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self._t0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn inside a span; its last return value is kept in results."""
        def traced(*args, **kwargs):
            with self.span(name):
                self.results[name] = fn(*args, **kwargs)
            return self.results[name]
        return traced

    @contextlib.contextmanager
    def cli_spans(self) -> Iterator[None]:
        """Wrap the layer calls cli.py makes for the duration of the block."""
        saved = {attr: getattr(cli, attr) for attr in CLI_CALLS}
        for attr, name in CLI_CALLS.items():
            setattr(cli, attr, self.wrap(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name; parents must be among `spans`."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
    return out


def _cli_main(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def _replay_parse_layers(tr: Tracer) -> dict:
    """Time the CSR build and the connectivity check on the parsed graph."""
    g = tr.results["sstp.parse_instance"].graph
    edges = list(g.edges())
    with tr.span("graph.from_edges"):
        Graph.from_edges(g.n, edges)
    del edges
    with tr.span("graph.is_connected"):
        is_connected(g)
    return {"n": g.n, "m": g.m}


def _replay_solve_layers(tr: Tracer) -> dict:
    """Time the layers below solve() on the instance cli.main parsed."""
    inst = tr.results["sstp.parse_instance"]
    res = tr.results["solver.solve"]
    g = inst.graph
    with tr.span("split.split_partition"):
        sp = split_partition(g)
    with tr.span("structure.find_induced_star"):
        find_induced_star(sp, 4)
    with tr.span("solver.prune"):
        pi = prune(inst, sp)
    regime = REGIME_SOLVERS.get(res.trace.regime)
    if regime is not None:
        with tr.span("solver.regime"):
            regime(pi)
    view = pi.view if pi.view.delta_i <= 2 else restrict_view(pi.view, drop_clique=pi.view.v3)
    with tr.span("structure.build_labeled_graph"):
        lg = build_labeled_graph(view)
    mg = Graph.from_edges(g.n, [(a, b) for a, b, _ in lg.labeled_edges])
    with tr.span("matching.maximum_matching"):
        mm = maximum_matching(mg)
    with tr.span("graph.bfs_tree"):
        bfs_tree(g, set(res.steiner_set) | set(inst.terminals))
    return {
        "C": len(sp.clique), "I": len(sp.independent), "I1": len(pi.terminals),
        "V3": len(pi.view.v3), "delta_i": pi.view.delta_i,
        "regime": res.trace.regime, "alpha_m": res.trace.alpha_m,
        "labeled_edges": len(lg.labeled_edges), "matching": mm.size,
        "S": len(res.steiner_set), "tree_edges": len(res.tree_edges),
    }


def trace_file(tr: Tracer, spec: dict, path: Path, cli_args: tuple[str, ...],
               run_child: Callable) -> tuple[int, bytes, dict]:
    """One root span for one corpus file; returns (exit code, stdout, counts)."""
    tr.file = spec["file"]
    tr.results.clear()
    argv = [*cli_args, "--input", str(path)]
    with tr.span("file"):
        with tr.span("generate.gen_split" if spec["kind"] == "gen" else "corpus.build"):
            inst = corpus.build_instance(spec)
        with tr.span("sstp.serialize_instance"):
            serialize_instance(inst)
        del inst
        with tr.span("cli.startup"):
            run_child([sys.executable, "-m", "splitsteiner", "--help"])
        with tr.span("cli.main_untraced"):
            _cli_main(argv)
        with tr.cli_spans(), tr.span("cli.main"):
            code, out = _cli_main(argv)
        counts: dict = {}
        if "sstp.parse_instance" in tr.results:
            counts = _replay_parse_layers(tr)
        if code == 0 and "solver.solve" in tr.results:
            counts.update(_replay_solve_layers(tr))
    tr.results.clear()
    return code, out, counts


def traced_run(cli_args: tuple[str, ...], corpus_dir: Path, files: list[dict],
               seconds: float, out_path: Path,
               run_child: Callable) -> tuple[dict, list[tuple[str, int, bytes]]]:
    """Whole traced passes until `seconds` have gone by. Returns the
    per-layer metrics (median over passes of each pass's summed self
    times) and (file, exit code, stdout) per traced cli.main call."""
    tr = Tracer()
    passes: list[dict[str, float]] = []
    ops: list[tuple[str, int, bytes]] = []
    counts: dict[str, dict] = {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(tr.spans)
        for spec in files:
            code, out, counts[spec["file"]] = trace_file(
                tr, spec, corpus_dir / spec["file"], cli_args, run_child)
            ops.append((spec["file"], code, out))
        spans = tr.spans[first:]
        own = self_times(spans)
        total = {name: sum(s["end"] - s["start"] for s in spans if s["name"] == name)
                 for name in ("cli.main", "cli.main_untraced")}
        per_layer = {name: own.get(name, 0.0) for name in LAYERS}
        per_layer["cli.main"] = total["cli.main"]
        per_layer["cli.other"] = own["cli.main"]
        per_layer["cli.main_untraced"] = total["cli.main_untraced"]
        passes.append(per_layer)

    medians = {name: statistics.median(p[name] for p in passes)
               for name in (*LAYERS, "cli.main_untraced")}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "files": counts,
        "medians": medians,
        "tracing_overhead": medians["cli.main"] / medians["cli.main_untraced"] - 1,
        "passes": passes,
        "spans": tr.spans,
    }, indent=1), encoding="utf-8")
    metrics = {f"{name}_s": {"value": medians[name], "unit": "s"} for name in LAYERS}
    return metrics, ops
