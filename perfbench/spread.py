#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload dense-file --seeds 0-9

runs run.py once per seed for the run_seconds of BENCHMARK.json, one run
at a time, and prints for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the distance between the
quartiles as a share of the median. Before each run it times a fixed
pure-Python reference loop three times, so that drift in the machine's
own speed shows next to the spread. Each run's result line and
reference times go to perfbench/out/spread-<workload>-seeds<range>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop (~0.1 s)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    log = HERE / "out" / f"spread-{args.workload}-seeds{args.seeds}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    with log.open("w", encoding="utf-8") as fh:
        for seed in seeds(args.seeds):
            ref = statistics.median(reference_loop() for _ in range(3))
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rec = {"seed": seed, "wall_s": wall, "reference_s": ref, "result": result}
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            runs.append(rec)
            print(json.dumps(rec), file=sys.stderr)
    report = {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
              for name in runs[0]["result"]["metrics"]}
    report["reference_s"] = summary([r["reference_s"] for r in runs])
    report["wall_s"] = summary([r["wall_s"] for r in runs])
    report["failed_share"] = sorted({r["result"]["failed"] / r["result"]["attempted"]
                                     for r in runs})
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": seconds, "spread": report}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
