"""Seeded corpora for the splitsteiner CLI benchmark.

Every file is built with the package's own public functions: gen_split,
or SteinerInstance(Graph.from_edges(...)), then serialize_instance. The
seed changes the inputs, never their size, so a pass costs about the same
on every seed.

    PYTHONPATH=src python perfbench/corpus.py --workload dense-file --seed 0 --out DIR

writes DIR/<file>.sstp for each corpus file plus DIR/manifest.json, which
lists the files in pass order with the spec each was built from.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from splitsteiner import (
    GeneratorConfig,
    Graph,
    SteinerInstance,
    gen_split,
    serialize_instance,
)

# |C| = 1000 gives ~0.5M clique edges: a ~5 MB file whose parse takes
# seconds, so one CLI process is long against a shared machine's speed drift.
DENSE_CLIQUE = 1000
ADVERSARIAL_CLIQUE = 1000
# the O(m^2) certificate search grows as k^4; k = 120 keeps one check
# near 1.5 s
NONSPLIT_CLIQUE = 120


def corpus_specs(workload: str, seed: int) -> list[dict]:
    """The files of one workload's corpus, in pass order."""
    if workload == "dense-file":
        return [
            {"file": "level1.sstp", "kind": "gen", "level": 1, "k14_free": False,
             "clique": DENSE_CLIQUE, "indep": 900, "seed": seed},
            {"file": "level2.sstp", "kind": "gen", "level": 2, "k14_free": False,
             "clique": DENSE_CLIQUE, "indep": 1500, "seed": seed},
            {"file": "level3-k14free.sstp", "kind": "gen", "level": 3, "k14_free": True,
             "clique": DENSE_CLIQUE, "indep": DENSE_CLIQUE + 1, "seed": seed},
        ]
    # Relabelings of one graph make every pass ~7 s, long against the
    # speed swings of a shared VM (two speeds ~40% apart, switching every
    # 10-20 s), so that one pass averages over them.
    if workload == "v3-adversarial":
        return [{"file": f"adversarial-c{ADVERSARIAL_CLIQUE}-{i}.sstp", "kind": "adversarial",
                 "clique": ADVERSARIAL_CLIQUE, "seed": seed, "stream": i}
                for i in range(2)]
    if workload == "nonsplit-check":
        return [{"file": f"{cycle.lower()}-join-k{NONSPLIT_CLIQUE}-{i}.sstp", "kind": "nonsplit",
                 "cycle": cycle, "clique": NONSPLIT_CLIQUE, "seed": seed, "stream": i}
                for i, cycle in enumerate(("C5", "C4", "C5", "C4"))]
    raise ValueError(f"unknown workload {workload!r}")


def _relabel(n: int, edges: list[tuple[int, int]], terminals: list[int],
             rng: np.random.Generator) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    p = rng.permutation(n).tolist()
    return [(p[u], p[v]) for u, v in edges], tuple(p[t] for t in terminals)


def adversarial_edges(k: int, seed: int,
                      stream: int) -> tuple[int, list[tuple[int, int]], tuple[int, ...]]:
    """The V3-adversarial family with a clique of k, randomly relabeled.

    Clique vertex i sees {x_p, x_q, leaf_i}, where {x_p, x_q} cycles through
    the 2-subsets of {x1, x2, x3}. Any two of those subsets meet, so every
    pair of V3 triples meets and the graph has no induced K_(1,4); the
    matching left after removing one triple is a star, so alpha(M) stays 1
    and the solver probes every V3 center. Terminals: the independent side.
    """
    pairs = ((0, 1), (0, 2), (1, 2))
    x = (k, k + 1, k + 2)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for i in range(k):
        a, b = pairs[i % 3]
        edges += [(i, x[a]), (i, x[b]), (i, k + 3 + i)]
    n = 2 * k + 3
    edges, terminals = _relabel(n, edges, list(range(k, n)),
                                np.random.default_rng([seed, stream]))
    return n, edges, terminals


def nonsplit_edges(cycle: str, k: int, seed: int,
                   stream: int) -> tuple[int, list[tuple[int, int]], tuple[int, ...]]:
    """A C5 or C4 joined to every vertex of a clique K_k, randomly relabeled.

    The cycle is the only obstruction, and the graph holds no induced 2K2,
    so recognition scans every pair of edges before it finds the cycle.
    No terminals: the check command reads the graph only.
    """
    c = {"C5": 5, "C4": 4}[cycle]
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges += [(c + u, c + v) for u in range(k) for v in range(u + 1, k)]
    edges += [(i, c + u) for i in range(c) for u in range(k)]
    n = c + k
    edges, terminals = _relabel(n, edges, [], np.random.default_rng([seed, stream]))
    return n, edges, terminals


def build_instance(spec: dict) -> SteinerInstance:
    """The instance a corpus spec describes."""
    if spec["kind"] == "gen":
        return gen_split(GeneratorConfig(
            clique_size=spec["clique"], independent_size=spec["indep"],
            level=spec["level"], k14_free=spec["k14_free"], seed=spec["seed"]))
    if spec["kind"] == "adversarial":
        n, edges, terminals = adversarial_edges(spec["clique"], spec["seed"], spec["stream"])
    elif spec["kind"] == "nonsplit":
        n, edges, terminals = nonsplit_edges(spec["cycle"], spec["clique"],
                                             spec["seed"], spec["stream"])
    else:
        raise ValueError(f"unknown corpus kind {spec['kind']!r}")
    return SteinerInstance(graph=Graph.from_edges(n, edges), terminals=terminals)


def write_corpus(workload: str, seed: int, out: Path) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    specs = corpus_specs(workload, seed)
    for spec in specs:
        text = serialize_instance(build_instance(spec))
        (out / spec["file"]).write_text(text, encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "files": specs}, indent=1),
        encoding="utf-8")
    return specs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args()
    write_corpus(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
