#!/usr/bin/env python3
"""End-to-end benchmark of the splitsteiner CLI: an .sstp file in, JSON out.

    python3 perfbench/run.py --workload dense-file --seed 0 --seconds 30 --trace 0

Run from any directory; the program under test is the src/ next to this
directory. One operation is one `python -m splitsteiner` child on one
corpus file, timed from spawn to exit, its stdout checked and its peak
RSS read from os.wait4. Children run one at a time (a closed loop with a
single client). A pass takes every corpus file once; passes repeat until
--seconds have gone by, and the last one always completes.

--trace 0 prints the end-to-end metrics: cli_s (median pass time),
peak_rss_mb (largest child peak RSS) and setup_s (median of the set-ups).
--trace 1 runs the in-process traced pass of tracing.py instead and prints
the per-layer self times. The last stdout line is the JSON result; the
exit code is 1 when an output check fails and 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# each set-up is a fresh interpreter, so its time includes the package
# import; the median of three damps one slow start
SETUP_REPEATS = 3

# workload -> CLI arguments before --input, and the check its outputs get
WORKLOADS = {
    "dense-file": (("solve", "--json"), "solve"),
    "v3-adversarial": (("solve", "--json"), "solve-forced"),
    "nonsplit-check": (("check",), "not-split"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str]) -> tuple[float, float, int, bytes]:
    """Run one child to exit: (seconds, peak RSS in MB, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    # reaped here, so tell Popen not to wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out


def cli_argv(workload: str, path: Path) -> list[str]:
    args, _ = WORKLOADS[workload]
    return [sys.executable, "-m", "splitsteiner", *args, "--input", str(path)]


def set_up(workload: str, seed: int, corpus: Path) -> tuple[list[float], list[dict]]:
    """Write the corpus SETUP_REPEATS times; returns the set-up times and
    the manifest's file specs."""
    argv = [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(corpus)]
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, _, code, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"corpus set-up exited with {code}: {' '.join(argv)}")
        times.append(seconds)
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    return times, manifest["files"]


def timed_passes(workload: str, corpus: Path, files: list[dict],
                 seconds: float) -> tuple[list[float], float, list[tuple[str, int, bytes]]]:
    """Whole passes over the corpus until `seconds` have gone by.
    Returns (pass times, largest child peak RSS in MB, (file, exit, stdout)
    per operation)."""
    pass_times: list[float] = []
    peak_mb = 0.0
    ops: list[tuple[str, int, bytes]] = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for spec in files:
            _, rss_mb, code, out = run_child(cli_argv(workload, corpus / spec["file"]))
            peak_mb = max(peak_mb, rss_mb)
            ops.append((spec["file"], code, out))
        pass_times.append(time.perf_counter() - t0)
    return pass_times, peak_mb, ops


def main() -> int:
    p = argparse.ArgumentParser(description="splitsteiner CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "splitsteiner" / "__init__.py").is_file():
        print(f"error: no splitsteiner package under {SRC}", file=sys.stderr)
        return 2

    # one directory per workload: a run overwrites the files of the last one
    corpus = HERE / "corpus" / args.workload
    setup_times, files = set_up(args.workload, args.seed, corpus)

    # A child's ru_maxrss starts from this process's own peak RSS (the
    # child shares our memory until it execs), so nothing large may be
    # imported here before the timed passes: the checker comes after them.
    if args.trace:
        sys.path.insert(0, str(SRC))
        import tracing  # imports the package under test, so only here

        out_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, ops = tracing.traced_run(WORKLOADS[args.workload][0], corpus, files,
                                          args.seconds, out_path, run_child)
    else:
        pass_times, peak_mb, ops = timed_passes(args.workload, corpus, files, args.seconds)
        metrics = {
            "cli_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    import checks

    checker = checks.OutputChecker(WORKLOADS[args.workload][1], corpus)
    failed = sum(1 for _, code, _ in ops if code != 0)
    problems = sorted({msg for name, code, out in ops if code == 0
                       for msg in [checker.problem(name, out)] if msg})
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
