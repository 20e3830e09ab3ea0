"""Output checks for the CLI benchmark, independent of the splitsteiner code.

The checks read the .sstp file with their own parser and judge the CLI's
JSON against facts computed here:

* solve: when the terminals are the whole independent side of a split
  graph, a set S of clique vertices is a Steiner set iff it covers every
  terminal (S is a clique, so S plus R is then connected). The minimum
  |S| is the minimum set cover of the terminals by clique neighbourhoods,
  solved exactly as a 0/1 program with scipy's MILP solver. The reported
  tree must hold |S u R| - 1 edges of the file, and a union-find must span
  S u R with them and find no cycle.
* check on a non-split graph: the witness must induce exactly the named
  2K2, C4 or C5 in the file's edges.

Every function raises CheckFailed with the reason on a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array


class CheckFailed(Exception):
    """The CLI's output is wrong for the file it was given."""


@dataclass(frozen=True)
class Instance:
    """A parsed .sstp file with 0-based vertex ids."""

    n: int
    edges: np.ndarray  # (m, 2) int64, u < v per row
    terminals: np.ndarray  # int64, ascending

    def edge_keys(self) -> np.ndarray:
        """Sorted u * n + v keys, one per edge, for membership tests."""
        return np.sort(self.edges[:, 0] * self.n + self.edges[:, 1])


def read_instance(path: Path) -> Instance:
    """Parse an .sstp file as written by serialize_instance."""
    header: list[int] | None = None
    edge_tokens: list[str] = []
    terminals: list[int] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("e "):
            edge_tokens.append(line[2:])
        elif line.startswith("t "):
            terminals.append(int(line[2:]) - 1)
        elif line.startswith("p sstp "):
            header = [int(tok) for tok in line.split()[2:]]
        elif line.strip() and not line.startswith("#"):
            raise ValueError(f"{path}: unexpected line {line!r}")
    if header is None or len(header) != 3:
        raise ValueError(f"{path}: missing or bad header")
    n, m, t = header
    edges = np.array(" ".join(edge_tokens).split(), dtype=np.int64).reshape(-1, 2) - 1
    edges.sort(axis=1)
    if len(edges) != m or len(terminals) != t:
        raise ValueError(f"{path}: header counts do not match the file")
    if m and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"{path}: edge endpoint out of range")
    return Instance(n=n, edges=edges, terminals=np.array(sorted(terminals), dtype=np.int64))


def clique_side(inst: Instance) -> np.ndarray:
    """The non-terminal vertices, after checking that they form a clique
    and the terminals an independent set (the setting the cover argument
    in the module docstring needs)."""
    is_term = np.zeros(inst.n, dtype=bool)
    is_term[inst.terminals] = True
    clique = np.flatnonzero(~is_term)
    t_u, t_v = is_term[inst.edges[:, 0]], is_term[inst.edges[:, 1]]
    if np.any(t_u & t_v):
        raise ValueError("two terminals are adjacent: terminals are not the independent side")
    k = len(clique)
    if int(np.count_nonzero(~t_u & ~t_v)) != k * (k - 1) // 2:
        raise ValueError("the non-terminal vertices do not form a clique")
    if len(inst.terminals) < 2:
        raise ValueError("need at least two terminals")
    return clique


def min_steiner_size(inst: Instance) -> int:
    """Exact minimum Steiner set size: minimum set cover of the terminals
    by the neighbourhoods of the clique side, as a 0/1 program."""
    clique = clique_side(inst)
    col = np.full(inst.n, -1, dtype=np.int64)
    col[clique] = np.arange(len(clique))
    row = np.full(inst.n, -1, dtype=np.int64)
    row[inst.terminals] = np.arange(len(inst.terminals))
    u, v = inst.edges[:, 0], inst.edges[:, 1]
    cross = (row[u] >= 0) | (row[v] >= 0)
    t = np.where(row[u] >= 0, u, v)[cross]
    c = np.where(row[u] >= 0, v, u)[cross]
    a = csr_array((np.ones(len(t)), (row[t], col[c])),
                  shape=(len(inst.terminals), len(clique)))
    res = milp(np.ones(len(clique)), constraints=LinearConstraint(a, lb=1, ub=np.inf),
               integrality=np.ones(len(clique)), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0})
    if not res.success:
        raise ValueError(f"set-cover MILP failed: {res.message}")
    chosen = res.x > 0.5
    if not np.all(a @ chosen.astype(float) >= 1):
        raise ValueError("set-cover MILP returned a non-cover")
    return int(np.count_nonzero(chosen))


def _find(parent: dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def check_solve(inst: Instance, payload: dict, optimum: int, *,
                all_clique_forced: bool = False) -> None:
    """Judge `solve --json` output against the exact optimum and the file.

    all_clique_forced: every clique vertex has a private terminal leaf,
    so the answer must be the whole clique.
    """
    s = [v - 1 for v in payload["steiner_set"]]
    if payload["size"] != len(s) or len(set(s)) != len(s):
        raise CheckFailed(f"size {payload['size']} does not match the "
                          f"{len(set(s))} distinct Steiner vertices listed")
    if any(not 0 <= v < inst.n for v in s):
        raise CheckFailed("Steiner vertex id out of range")
    r = inst.terminals.tolist()
    if set(s) & set(r):
        raise CheckFailed("Steiner set overlaps the terminals")
    if len(s) != optimum:
        raise CheckFailed(f"size {len(s)} but the minimum set cover is {optimum}")
    if all_clique_forced and len(s) != inst.n - len(r):
        raise CheckFailed(f"size {len(s)} but all {inst.n - len(r)} clique vertices are forced")

    members = set(s) | set(r)
    tree = [(u - 1, v - 1) for u, v in payload["tree_edges"]]
    if len(tree) != len(members) - 1:
        raise CheckFailed(f"{len(tree)} tree edges for {len(members)} vertices")
    if tree:
        pairs = np.sort(np.array(tree, dtype=np.int64), axis=1)
        keys = pairs[:, 0] * inst.n + pairs[:, 1]
        known = inst.edge_keys()
        pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        missing = np.flatnonzero(known[pos] != keys)
        if missing.size:
            u, v = tree[int(missing[0])]
            raise CheckFailed(f"tree edge ({u + 1}, {v + 1}) is not an edge of the file")
    # |S u R| - 1 edges inside S u R that close no cycle span it
    parent = {x: x for x in members}
    for u, v in tree:
        if u not in members or v not in members:
            raise CheckFailed(f"tree edge ({u + 1}, {v + 1}) leaves S u R")
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise CheckFailed(f"tree edge ({u + 1}, {v + 1}) closes a cycle")
        parent[ru] = rv


_PATTERNS = {
    "2K2": {(0, 1), (2, 3)},
    "C4": {(0, 1), (1, 2), (2, 3), (0, 3)},
    "C5": {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
}


def check_not_split(inst: Instance, payload: dict) -> None:
    """Judge `check` output on a non-split graph: the certificate must be
    an induced copy of the named obstruction, vertices in cycle order."""
    if payload.get("split") is not False or payload.get("partition") is not None:
        raise CheckFailed("a non-split graph was reported as split")
    cert = payload["witnesses"]["not_split"]
    kind, vs = cert["kind"], [v - 1 for v in cert["vertices"]]
    if kind not in _PATTERNS:
        raise CheckFailed(f"unknown obstruction kind {kind!r}")
    if len(vs) != (5 if kind == "C5" else 4) or len(set(vs)) != len(vs):
        raise CheckFailed(f"{kind} witness needs distinct vertices, got {cert['vertices']}")
    if any(not 0 <= v < inst.n for v in vs):
        raise CheckFailed("witness vertex id out of range")
    known = set(inst.edge_keys().tolist())
    induced = {(i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
               if min(vs[i], vs[j]) * inst.n + max(vs[i], vs[j]) in known}
    if induced != _PATTERNS[kind]:
        raise CheckFailed(f"vertices {cert['vertices']} do not induce a {kind}")


class OutputChecker:
    """Judges CLI outputs on one corpus. kind is "solve", "solve-forced"
    (solve with every clique vertex forced) or "not-split" (check).

    Each distinct (file, output) is judged once: the CLI is deterministic,
    so repeated operations on one file normally print identical bytes.
    """

    def __init__(self, kind: str, corpus: Path):
        self.kind = kind
        self.corpus = corpus
        self._instances: dict[str, Instance] = {}
        self._optima: dict[str, int] = {}
        self._verdicts: dict[tuple[str, bytes], str | None] = {}

    def _judge(self, name: str, out: bytes) -> None:
        if name not in self._instances:
            self._instances[name] = read_instance(self.corpus / name)
        inst = self._instances[name]
        try:
            payload = json.loads(out.decode("utf-8").strip().splitlines()[-1])
        except (UnicodeDecodeError, IndexError, json.JSONDecodeError) as exc:
            raise CheckFailed(f"output is not one JSON line: {exc}")
        try:
            if self.kind == "not-split":
                check_not_split(inst, payload)
                return
            if name not in self._optima:
                self._optima[name] = min_steiner_size(inst)
            check_solve(inst, payload, self._optima[name],
                        all_clique_forced=self.kind == "solve-forced")
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"output lacks a field: {exc!r}")

    def problem(self, name: str, out: bytes) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        key = (name, out)
        if key not in self._verdicts:
            try:
                self._judge(name, out)
                self._verdicts[key] = None
            except CheckFailed as exc:
                self._verdicts[key] = f"{name}: {exc}"
        return self._verdicts[key]
