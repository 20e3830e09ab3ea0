"""Command-line surface: solve, check, oracle, reduce-x3c, gen, bench.

Exit codes: 0 success, 1 usage, I/O, parse or other errors (an answer
that fails verification, a failed solver invariant and running out of
memory among them), 2 input is not a split graph, 3 the graph has an
induced K_(1,4) and the exact fallback was not requested or refused its
pool of clique vertices as too large. All vertex ids in output
are 1-based, matching the file formats; JSON is emitted single-line
with sorted keys so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .errors import NotK14FreeError, NotSplitError, SplitSteinerError
from .split import split_partition
from .sstp import SteinerInstance, parse_instance, write_instance

_UNIVERSE_FLAG = {"all": "all-vertices", "clique": "clique-only"}

# Each command imports the stage modules it runs, so that `check` never
# loads the solver. The stages perfbench's tracer wraps on this module
# stay names of it: parse_instance and split_partition (sstp loads split
# anyway), and solve and verify_solution, which import their stage when
# called.


def solve(inst: SteinerInstance, *, exact_fallback: bool = False):
    """solver.solve, with the solver imported on the first call."""
    from . import solver
    return solver.solve(inst, exact_fallback=exact_fallback)


def verify_solution(inst: SteinerInstance, s, tree_edges=None) -> bool:
    """oracle.verify_solution, with the oracle imported on the first call."""
    from . import oracle
    return oracle.verify_solution(inst, s, tree_edges)


def _read_instance(path: str) -> SteinerInstance:
    # the parser reads the file in chunks and checks each is UTF-8, so
    # neither the file's bytes nor its text are ever held whole
    with open(path, "rb") as fh:
        return parse_instance(fh)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.input)
    res = solve(inst, exact_fallback=args.exact_fallback)
    if not verify_solution(inst, res.steiner_set, res.tree_edges):
        raise SplitSteinerError(
            "the solution tree does not span the Steiner set and the terminals: "
            "disconnected or invalid answer")
    payload = {
        "size": len(res.steiner_set),
        "steiner_set": [v + 1 for v in res.steiner_set],
        "tree_edges": [[u + 1, v + 1] for u, v in res.tree_edges],
        "regime": res.trace.regime,
        "alpha_m": res.trace.alpha_m,
    }
    if args.json:
        _emit(payload)
    else:
        print(f"regime {res.trace.regime}")
        print(f"size {payload['size']}")
        print("steiner_set " + " ".join(str(v) for v in payload["steiner_set"]))
        if res.trace.alpha_m is not None:
            print(f"alpha_m {res.trace.alpha_m}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .structure import find_induced_star

    inst = _read_instance(args.input)
    try:
        sp = split_partition(inst.graph)
    except NotSplitError as exc:
        _emit({
            "split": False,
            "partition": None,
            "delta_i": None,
            "claw_free": None,
            "k14_free": None,
            "k15_free": None,
            "witnesses": {"not_split": {
                "kind": exc.kind,
                "vertices": [v + 1 for v in exc.vertices],
            }},
        })
        return 0
    witnesses = {}
    stars = {name: find_induced_star(sp, r)
             for name, r in (("claw", 3), ("k14", 4), ("k15", 5))}
    for name, w in stars.items():
        if w is not None:
            witnesses[name] = {"center": w.center + 1,
                               "leaves": [v + 1 for v in w.leaves]}
    _emit({
        "split": True,
        "partition": {"clique": [v + 1 for v in sp.clique],
                      "independent": [v + 1 for v in sp.independent]},
        "delta_i": sp.delta_i,
        "claw_free": stars["claw"] is None,
        "k14_free": stars["k14"] is None,
        "k15_free": stars["k15"] is None,
        "witnesses": witnesses,
    })
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_steiner

    inst = _read_instance(args.input)
    universe = _UNIVERSE_FLAG[args.universe]
    res = brute_force_steiner(inst, universe=universe, budget=args.budget)
    _emit({
        "explored": res.explored,
        "min_size": res.min_size,
        "universe": universe,
        "witness": [v + 1 for v in res.witness],
    })
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .x3c import parse_x3c, reduce_x3c

    with open(args.input, "rb") as fh:  # read and checked a chunk at a time
        x = parse_x3c(fh)
    inst, q = reduce_x3c(x)
    with open(args.output, "w", encoding="utf-8") as fh:
        write_instance(inst, fh)
        fh.write(f"# k = {q}\n")
    _emit({
        "edges": inst.graph.m,
        "file": args.output,
        "k": q,
        "terminals": len(inst.terminals),
        "vertices": inst.graph.n,
    })
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import GeneratorConfig, gen_split

    cfg = GeneratorConfig(
        clique_size=args.clique,
        independent_size=args.indep,
        level=args.level,
        k14_free=args.k14_free,
        seed=args.seed,
        edge_density=args.density,
    )
    inst = gen_split(cfg)  # built first: a failing gen creates no file
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_instance(inst, fh)
        return 0
    try:
        write_instance(inst, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away mid-stream; send what is still buffered to
        # devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise
    return 0


def _bench_one(job: tuple[str, int, bool]) -> dict:
    path, repeat, exact_fallback = job
    name = Path(path).name
    try:
        inst = _read_instance(path)
        best = None
        res = None
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            res = solve(inst, exact_fallback=exact_fallback)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        verified = verify_solution(inst, res.steiner_set, res.tree_edges)
        return {
            "file": name,
            "n": inst.graph.n,
            "m": inst.graph.m,
            "terminals": len(inst.terminals),
            "regime": res.trace.regime,
            "size": len(res.steiner_set),
            "verified": verified,
            "time_ms": round(best * 1000.0, 3),
        }
    except Exception as exc:  # per-record reporting keeps the batch going
        return {"error": str(exc), "error_type": type(exc).__name__, "file": name}


def cmd_bench(args: argparse.Namespace) -> int:
    if not Path(args.dir).is_dir():
        raise NotADirectoryError(f"not a directory: {args.dir}")
    paths = sorted(Path(args.dir).glob("*.sstp"))
    jobs = [(str(p), args.repeat, args.exact_fallback) for p in paths]
    workers = min(args.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool costs every other command start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_bench_one, jobs))
    else:
        records = [_bench_one(job) for job in jobs]
    records.sort(key=lambda r: r["file"])
    for rec in records:
        if args.no_times:
            rec.pop("time_ms", None)
        print(json.dumps(rec, sort_keys=True))
    summary = {
        "files": len(records),
        "verified": all(r.get("verified", False) for r in records),
    }
    if not args.no_times:
        summary["total_time_ms"] = round(
            sum(r.get("time_ms", 0.0) for r in records), 3)
    print(json.dumps(summary, sort_keys=True))
    # error records carry no "verified" field, so they fail the summary too
    return 0 if summary["verified"] else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="splitsteiner",
        description="Steiner tree solvers and structure tools for split graphs")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one SSTP instance")
    s.add_argument("--input", required=True, help="SSTP file")
    s.add_argument("--exact-fallback", action="store_true",
                   help="brute-force small instances outside the polynomial regimes")
    s.add_argument("--json", action="store_true", help="machine-readable output")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("check", help="classify the structure of an SSTP graph")
    s.add_argument("--input", required=True, help="SSTP file")
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("oracle", help="brute-force minimum Steiner set")
    s.add_argument("--input", required=True, help="SSTP file")
    s.add_argument("--universe", choices=sorted(_UNIVERSE_FLAG), default="clique",
                   help="candidate pool for Steiner vertices")
    s.add_argument("--budget", type=int, default=2_000_000,
                   help="maximum number of candidate subsets to try")
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("reduce-x3c", help="reduce an Exact-3-Cover instance")
    s.add_argument("--input", required=True, help="X3C file")
    s.add_argument("--output", required=True, help="SSTP file to write")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("gen", help="generate a random split instance")
    s.add_argument("--level", type=int, choices=(1, 2, 3), required=True,
                   help="target maximum independent degree")
    s.add_argument("--clique", type=int, required=True, help="clique size")
    s.add_argument("--indep", type=int, required=True, help="independent set size")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--k14-free", action="store_true",
                   help="constrain level 3 to the K_(1,4)-free family")
    s.add_argument("--density", type=float, default=0.25,
                   help="probability of optional extra cross edges")
    s.add_argument("--output", help="SSTP file to write (default: stdout)")
    s.set_defaults(func=cmd_gen)

    s = sub.add_parser("bench", help="solve every .sstp file in a directory")
    s.add_argument("--dir", required=True)
    s.add_argument("--repeat", type=int, default=1,
                   help="solve attempts per file; fastest time is reported")
    s.add_argument("--workers", type=int, default=1,
                   help="parallel solver processes (at most one per file and per CPU)")
    s.add_argument("--exact-fallback", action="store_true")
    s.add_argument("--no-times", action="store_true",
                   help="omit timing fields for byte-stable output")
    s.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (code 0) or its usage lines; a usage
        # error exits 1, since 2 means the graph is not split
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except NotSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotK14FreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SplitSteinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
