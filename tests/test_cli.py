import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import splitsteiner
from splitsteiner import (
    GeneratorConfig,
    Graph,
    NotSplitError,
    SolveTrace,
    SteinerInstance,
    SteinerResult,
    gen_split,
    serialize_instance,
    split_partition,
)
import splitsteiner.__main__ as entry
from splitsteiner.cli import main
from helpers import assert_obstruction_is_real, reference_serialize

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# What the launcher pip writes for `splitsteiner = "splitsteiner.__main__:run"`
# does: call the target with no arguments (argparse reads sys.argv) and
# hand its return value to sys.exit.
LAUNCHER = "import sys; from splitsteiner.__main__ import run; sys.exit(run())"

P3 = "p sstp 3 2 2\ne 1 2\ne 2 3\nt 1\nt 3\n"
P3_GOLDEN = ('{"alpha_m": null, "regime": "1-split", '
             '"size": 1, "steiner_set": [2], "tree_edges": [[1, 2], [2, 3]]}')
P3_CHECK = ('{"claw_free": true, "delta_i": 1, "k14_free": true, "k15_free": true, '
            '"partition": {"clique": [1, 2], "independent": [3]}, "split": true, '
            '"witnesses": {}}')
C4 = "p sstp 4 4 2\ne 1 2\ne 2 3\ne 3 4\ne 1 4\nt 1\nt 3\n"
CLAW = "p sstp 4 3 0\ne 1 2\ne 1 3\ne 1 4\n"
X3C = "x3c 6 3\nc 1 2 3\nc 2 4 5\nc 4 5 6\n"

RING = serialize_instance(SteinerInstance(
    graph=Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                               (0, 4), (0, 5), (1, 5), (1, 6),
                               (2, 6), (2, 7), (3, 4), (3, 7)]),
    terminals=(4, 5, 6, 7)))

HUB = serialize_instance(SteinerInstance(
    graph=Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                               (0, 5), (1, 3), (1, 6), (2, 4)]),
    terminals=(3, 4, 5, 6)))


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_solve_json_golden(tmp_path, capsys):
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["solve", "--input", path, "--json"]) == 0
    assert capsys.readouterr().out == P3_GOLDEN + "\n"


def test_solve_human_output(tmp_path, capsys):
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["solve", "--input", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["regime 1-split", "size 1", "steiner_set 2"]

    path = _write(tmp_path, "ring.sstp", RING)
    assert main(["solve", "--input", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["regime 2-split", "size 2", "steiner_set 1 3", "alpha_m 2"]


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "nope.sstp")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_parse_error(tmp_path, capsys):
    for text, why in (("p sstp 2 1 0\ne 1 5\n", "out of range"),
                      ("p sstp 1000000 0 0\n", "not connected")):
        path = _write(tmp_path, "bad.sstp", text)
        assert main(["solve", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err


def test_disconnected_files_keep_message_and_exit_code(tmp_path, capsys):
    """A split file with an isolated vertex, whose connectivity is read
    from its degrees, and a file that is not split, which a BFS checks,
    fail alike in solve and check: exit 1 and the same message."""
    for name, text in (("split.sstp", "p sstp 4 3 0\ne 1 2\ne 1 3\ne 2 3\n"),
                       ("c4-and-k2.sstp",
                        "p sstp 6 5 0\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 5 6\n")):
        path = _write(tmp_path, name, text)
        for command in ("solve", "check"):
            assert main([command, "--input", path]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "error: instance graph is not connected\n")


def _disconnecting_solve(inst, **kwargs):
    """A wrong answer: the empty Steiner set for P3 with both ends as
    terminals."""
    return SteinerResult((), (), SolveTrace(regime="1-split"))


def test_solve_rejects_unverified_answer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("splitsteiner.solver.solve", _disconnecting_solve)
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["solve", "--input", path, "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "disconnected" in out.err


def test_bench_fails_on_unverified_answer(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("splitsteiner.solver.solve", _disconnecting_solve)
    _write(tmp_path, "p3.sstp", P3)
    assert main(["bench", "--dir", str(tmp_path), "--no-times",
                 "--workers", "1"]) == 1
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert lines[0]["verified"] is False
    assert lines[-1] == {"files": 1, "verified": False}


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def no_memory(text):
        raise MemoryError

    monkeypatch.setattr("splitsteiner.cli.parse_instance", no_memory)
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["solve", "--input", path, "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: out of memory\n"


def test_solve_not_split(tmp_path, capsys):
    path = _write(tmp_path, "c4.sstp", C4)
    assert main(["solve", "--input", path]) == 2
    assert "not a split graph" in capsys.readouterr().err


def test_solve_hard_instance_exit_3(tmp_path, capsys):
    x3c = _write(tmp_path, "cover.x3c", X3C)
    out = str(tmp_path / "reduced.sstp")
    assert main(["reduce-x3c", "--input", x3c, "--output", out]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", out]) == 3
    err = capsys.readouterr().err
    assert "K_(1,4)" in err and "star centered at" in err
    # the fallback turns the same file into an exact answer
    assert main(["solve", "--input", out, "--json", "--exact-fallback"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 2
    assert payload["regime"] == "exact-fallback"
    assert "optimal" not in payload


def test_solve_refused_fallback_says_so(tmp_path, capsys):
    """A K_{1,4} whose centre lies in a clique with 20 more vertices: the
    fallback refuses the 21 non-terminal clique vertices, exit 3 says
    why, and the same file without the flag keeps the plain message."""
    clique = range(5, 25)
    edges = [(0, leaf) for leaf in range(1, 5)] + [(0, v) for v in clique]
    edges += [(u, v) for u in clique for v in clique if u < v]
    path = _write(tmp_path, "k14.sstp", serialize_instance(SteinerInstance(
        graph=Graph.from_edges(25, edges), terminals=(1, 2, 3, 4))))
    assert main(["solve", "--input", path, "--json", "--exact-fallback"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: graph is not K_(1,4)-free: star centered at 1 with "
                   "leaves (2, 3, 4, 5); no polynomial regime applies, and the "
                   "exact fallback was refused: 21 non-terminal clique "
                   "vertices, more than its limit of 20\n")
    assert main(["solve", "--input", path]) == 3
    assert capsys.readouterr().err.endswith("no polynomial regime applies\n")


@pytest.mark.parametrize("argv", [
    ["solve"], ["bogus"], ["gen", "--level", "5", "--clique", "3", "--indep", "3"]])
def test_usage_error_exits_1(capsys, argv):
    """Exit 2 means "not a split graph", so argparse's usage errors exit 1."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_reduce_x3c_report_and_sidecar(tmp_path, capsys):
    x3c = _write(tmp_path, "cover.x3c", X3C)
    out = str(tmp_path / "reduced.sstp")
    assert main(["reduce-x3c", "--input", x3c, "--output", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"edges": 12, "file": out, "k": 2,
                       "terminals": 6, "vertices": 9}
    lines = (tmp_path / "reduced.sstp").read_text().splitlines()
    assert lines[0] == "p sstp 9 12 6"
    assert lines[-1] == "# k = 2"


def test_check_split_graph(tmp_path, capsys):
    path = _write(tmp_path, "claw.sstp", CLAW)
    assert main(["check", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] is True
    assert payload["partition"] == {"clique": [1, 2], "independent": [3, 4]}
    assert payload["delta_i"] == 2
    assert payload["claw_free"] is False
    assert payload["k14_free"] is True and payload["k15_free"] is True
    assert payload["witnesses"]["claw"]["center"] == 1
    assert sorted(payload["witnesses"]["claw"]["leaves"]) == [2, 3, 4]
    assert "k14" not in payload["witnesses"]


def test_check_not_split(tmp_path, capsys):
    path = _write(tmp_path, "c4.sstp", C4)
    assert main(["check", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] is False
    assert payload["partition"] is None and payload["delta_i"] is None
    ws = payload["witnesses"]["not_split"]
    assert ws["kind"] == "C4"
    assert sorted(ws["vertices"]) == [1, 2, 3, 4]


def _cycle_join_clique(c: int, k: int, seed: int) -> tuple[Graph, list[int]]:
    """A C_c joined to every vertex of K_k, ids shuffled; returns the
    graph and the cycle's ids. The cycle is its only obstruction."""
    perm = np.random.default_rng(seed).permutation(c + k)
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges += [(u, v) for u in range(c, c + k) for v in range(u + 1, c + k)]
    edges += [(i, u) for i in range(c) for u in range(c, c + k)]
    relabelled = np.sort(perm[np.array(edges)], axis=1)
    return Graph.from_edges(c + k, relabelled), perm[:c].tolist()


@pytest.mark.parametrize("kind,c", [("C5", 5), ("C4", 4)])
def test_check_large_non_split_does_not_hang(tmp_path, capsys, kind, c):
    """A cycle joined to K_600 (180k edges) has no 2K2, so a search over
    pairs of edges would run for many minutes before finding the cycle."""
    g, cycle = _cycle_join_clique(c, 600, seed=c)
    t0 = time.perf_counter()
    with pytest.raises(NotSplitError) as exc:
        split_partition(g)
    assert time.perf_counter() - t0 < 5.0
    assert exc.value.kind == kind and sorted(exc.value.vertices) == sorted(cycle)

    path = _write(tmp_path, "join.sstp",
                  serialize_instance(SteinerInstance(graph=g, terminals=())))
    assert main(["check", "--input", path]) == 0
    ws = json.loads(capsys.readouterr().out)["witnesses"]["not_split"]
    assert ws["kind"] == kind
    assert_obstruction_is_real(
        g, NotSplitError(kind, tuple(v - 1 for v in ws["vertices"])))


@pytest.mark.parametrize("text", [CLAW, "p sstp 3 3 0\ne 1 2\ne 1 3\ne 2 3\n"],
                         ids=["boundary-tie", "whole-pool"])
def test_check_invariant_violation_exits_1(tmp_path, capsys, monkeypatch, text):
    """A failed recognition invariant is an error line and exit 1, not a
    traceback. Both inputs reach the one guard after the degree test: the
    claw with a tie at the boundary degree, the triangle without one."""
    monkeypatch.setattr("splitsteiner.split._validate_candidate",
                        lambda g, clique: False)
    path = _write(tmp_path, "g.sstp", text)
    assert main(["check", "--input", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: degree test passed but ")
    assert "Traceback" not in out.err


def test_oracle_json(tmp_path, capsys):
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["oracle", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"explored": 2, "min_size": 1,
                       "universe": "clique-only", "witness": [2]}
    assert main(["oracle", "--input", path, "--universe", "all"]) == 0
    assert json.loads(capsys.readouterr().out)["universe"] == "all-vertices"


def test_oracle_budget_exit(tmp_path, capsys):
    path = _write(tmp_path, "p3.sstp", P3)
    assert main(["oracle", "--input", path, "--budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err


def test_gen_deterministic(tmp_path, capsys):
    argv = ["gen", "--level", "3", "--clique", "6", "--indep", "8",
            "--k14-free", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    out = str(tmp_path / "gen.sstp")
    assert main(argv + ["--output", out]) == 0
    capsys.readouterr()
    assert (tmp_path / "gen.sstp").read_bytes() == first.encode()
    assert first == reference_serialize(gen_split(GeneratorConfig(
        clique_size=6, independent_size=8, level=3, k14_free=True, seed=5)))
    assert first.startswith("p sstp 14 ")


def test_gen_infeasible(tmp_path, capsys):
    assert main(["gen", "--level", "1", "--clique", "2", "--indep", "9"]) == 1
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "gen.sstp"
    assert main(["gen", "--level", "1", "--clique", "2", "--indep", "9",
                 "--output", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bench_empty_dir(tmp_path, capsys):
    assert main(["bench", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0]) == {"files": 0, "verified": True,
                                  "total_time_ms": 0.0}


@pytest.mark.parametrize("name", ["missing", "file.sstp"])
def test_bench_dir_must_be_a_directory(tmp_path, capsys, name):
    _write(tmp_path, "file.sstp", P3)
    path = tmp_path / name
    assert main(["bench", "--dir", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a directory: {path}\n"


def test_bench_reports_and_parallel_determinism(tmp_path, capsys):
    _write(tmp_path, "a_p3.sstp", P3)
    _write(tmp_path, "b_ring.sstp", RING)
    _write(tmp_path, "c_hub.sstp", HUB)
    assert main(["bench", "--dir", str(tmp_path), "--no-times"]) == 0
    serial = capsys.readouterr().out
    lines = [json.loads(s) for s in serial.splitlines()]
    assert [r["file"] for r in lines[:-1]] == ["a_p3.sstp", "b_ring.sstp",
                                               "c_hub.sstp"]
    assert all(r["verified"] for r in lines[:-1])
    assert all("time_ms" not in r for r in lines[:-1])
    assert [r["regime"] for r in lines[:-1]] == ["1-split", "2-split", "3-split"]
    assert lines[-1] == {"files": 3, "verified": True}

    assert main(["bench", "--dir", str(tmp_path), "--no-times",
                 "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("cpus,expected", [(8, [3]), (2, [2]), (None, [])])
def test_bench_workers_bounded(tmp_path, capsys, monkeypatch, cpus, expected):
    """--workers is capped by the file count and the CPU count; a pool
    is started only for two workers or more."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # cmd_bench imports the pool class from concurrent.futures when it runs
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("splitsteiner.cli.os.cpu_count", lambda: cpus)
    _write(tmp_path, "a_p3.sstp", P3)
    _write(tmp_path, "b_ring.sstp", RING)
    _write(tmp_path, "c_hub.sstp", HUB)
    assert main(["bench", "--dir", str(tmp_path), "--no-times",
                 "--workers", "100000"]) == 0
    assert sizes == expected
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert lines[-1] == {"files": 3, "verified": True}


def test_bench_keeps_going_after_errors(tmp_path, capsys):
    _write(tmp_path, "a_bad.sstp", "p sstp 1 0\n")
    _write(tmp_path, "b_p3.sstp", P3)
    assert main(["bench", "--dir", str(tmp_path)]) == 1
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert "error" in lines[0] and lines[0]["file"] == "a_bad.sstp"
    assert lines[0]["error_type"] == "SstpParseError"
    assert lines[1]["verified"] is True
    assert lines[-1]["verified"] is False


def _child_env():
    """Environment in which a child process imports this same package."""
    env = dict(os.environ)
    src = str(Path(splitsteiner.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def _run(argv, **kwargs):
    return subprocess.run(argv, capture_output=True, text=True,
                          env=_child_env(), **kwargs)


def test_console_entry_point(tmp_path):
    path = _write(tmp_path, "p3.sstp", P3)
    run = _run([sys.executable, "-m", "splitsteiner",
                "solve", "--input", path, "--json"])
    assert run.returncode == 0
    assert run.stdout == P3_GOLDEN + "\n"

    run = _run([sys.executable, "-c", LAUNCHER, "check", "--input", path])
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["split"] is True

    c4 = _write(tmp_path, "c4.sstp", C4)
    run = _run([sys.executable, "-c", LAUNCHER, "solve", "--input", c4])
    assert run.returncode == 2
    assert "not a split graph" in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_solve_reads_a_pipe(tmp_path):
    """A pipe cannot seek, so it is read whole first: it solves to what
    the file path gives, and a repeated edge is still placed on its
    line by reading the source again."""
    path = tmp_path / "gen.sstp"
    assert main(["gen", "--level", "2", "--clique", "30", "--indep", "40",
                 "--output", str(path)]) == 0
    argv = [sys.executable, "-m", "splitsteiner", "solve", "--json", "--input"]
    from_file = _run(argv + [str(path)])
    piped = _run(argv + ["/dev/stdin"], input=path.read_text(encoding="utf-8"))
    assert from_file.returncode == piped.returncode == 0
    assert piped.stdout == from_file.stdout
    trap = "p sstp 4 6 0\ne 1 3\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 2 4\n"
    piped = _run(argv + ["/dev/stdin"], input=trap)
    assert piped.returncode == 1 and piped.stdout == ""
    assert piped.stderr == "error: line 3: duplicate edge (1, 3)\n"


def test_gen_to_closed_pipe_exits_cleanly():
    """A reader that takes the header line and closes the pipe stops a
    streaming gen with exit 0 or 1 and no traceback, in the write loop
    or in the flush at interpreter exit."""
    child = subprocess.Popen(
        [sys.executable, "-m", "splitsteiner", "gen", "--level", "2",
         "--clique", "1000", "--indep", "1500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    try:
        assert child.stdout.readline() == b"p sstp 2500 501133 1500\n"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode in (0, 1)
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_cli_import_leaves_process_pool_out():
    """Only `bench --workers 2` and more need the process pool, so no
    other command pays for importing it."""
    run = _run([sys.executable, "-c", "import sys, splitsteiner.cli; "
                "print('concurrent.futures.process' in sys.modules)"])
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def _check_child_modules(path):
    """The check JSON of `path` and the modules loaded, from a fresh child."""
    run = _run([sys.executable, "-c",
                "import json, sys; from splitsteiner.cli import main; "
                f"code = main(['check', '--input', {path!r}]); "
                "print(json.dumps(sorted(sys.modules)))"])
    assert run.returncode == 0, run.stderr
    first, loaded = run.stdout.splitlines()
    return json.loads(first), set(json.loads(loaded))


def test_check_imports_only_its_stages(tmp_path):
    """`check` loads none of the modules that only other commands run,
    the star test only for a split graph, and a star import still binds
    every name the package exports."""
    payload, loaded = _check_child_modules(_write(tmp_path, "claw.sstp", CLAW))
    assert payload["claw_free"] is False
    assert {"splitsteiner.split", "splitsteiner.structure"} <= loaded
    assert not {f"splitsteiner.{name}" for name in
                ("solver", "generate", "x3c", "oracle")} & loaded
    payload, loaded = _check_child_modules(_write(tmp_path, "c4.sstp", C4))
    assert payload["split"] is False
    assert "splitsteiner.split" in loaded and "splitsteiner.structure" not in loaded
    run = _run([sys.executable, "-c",
                "import splitsteiner; from splitsteiner import *; "
                "print([n for n in splitsteiner.__all__ if n not in globals()])"])
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


# Calls run() in a fresh child, with the collector on or off before the
# call, and prints, after the check JSON: the exit code, the frozen
# objects, whether the collector is on and the collections run meanwhile.
_ENTRY_PROBE = """import gc, json, sys
from splitsteiner.__main__ import run
if sys.argv[2] == "off":
    gc.disable()
before = sum(s["collections"] for s in gc.get_stats())
code = run(["check", "--input", sys.argv[1]])
after = sum(s["collections"] for s in gc.get_stats())
print(json.dumps([code, gc.get_freeze_count(), gc.isenabled(), after - before]))
"""


@pytest.mark.parametrize("collector", ["on", "off"])
def test_entry_freezes_the_import_without_collecting(tmp_path, collector):
    """run() imports the CLI with the collector held off, freezes what
    the import made, and gives the collector back as it found it; the
    same import with the collector on runs about 30 collections."""
    path = _write(tmp_path, "p3.sstp", P3)
    child = _run([sys.executable, "-c", _ENTRY_PROBE, path, collector])
    assert child.returncode == 0, child.stderr
    out, probe = child.stdout.splitlines()
    assert out == P3_CHECK
    code, frozen, enabled, collections = json.loads(probe)
    assert code == 0 and frozen > 10_000
    assert enabled is (collector == "on")
    assert collections <= 3


def test_cli_import_and_main_freeze_nothing(tmp_path):
    """Only the process entry freezes: importing the CLI and calling
    main, as the tests do in process, leave the collector alone."""
    path = _write(tmp_path, "p3.sstp", P3)
    child = _run([sys.executable, "-c",
                  "import gc, sys; import splitsteiner.cli; "
                  "print(gc.get_freeze_count(), gc.isenabled()); "
                  f"splitsteiner.cli.main(['check', '--input', {path!r}]); "
                  "print(gc.get_freeze_count(), gc.isenabled())"])
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == lines[2] == "0 True"
    assert lines[1] == P3_CHECK


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_reduce_x3c_huge_ground_size_fails_fast(tmp_path):
    """A 25-byte file whose header names 10**18 ground elements and no
    triple costs what the file holds: exit 1 with one error line, in a
    child limited to 1 GB of address space."""
    x3c = _write(tmp_path, "huge.x3c", "x3c 999999999999999999 0\n")
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "splitsteiner", "reduce-x3c", "--input", x3c,
         "--output", str(tmp_path / "huge.sstp")],
        capture_output=True, text=True, env=_child_env(), timeout=30,
        preexec_fn=_limit_address_space)
    assert time.perf_counter() - t0 < 2.0
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == (
        "error: ground elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and "
        "999999999999999989 more appear in no triple; "
        "the reduced graph would be disconnected\n")


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts.get("splitsteiner") == "splitsteiner.__main__:run"
    module, _, attr = scripts["splitsteiner"].partition(":")
    assert getattr(importlib.import_module(module), attr) is entry.run


@pytest.mark.skipif(shutil.which("splitsteiner") is None,
                    reason="no splitsteiner console script on PATH "
                           "(package not installed)")
def test_installed_console_script(tmp_path):
    path = _write(tmp_path, "p3.sstp", P3)
    run = _run([shutil.which("splitsteiner"), "check", "--input", path])
    assert run.returncode == 0
    assert json.loads(run.stdout)["split"] is True


# what replaces a token of a well-formed file: pieces of both grammars,
# numbers of up to 18 digits, signs, a comment mark and bytes that are
# not UTF-8 or are not ASCII
_FUZZ_TOKENS = st.one_of(
    st.sampled_from([b"p sstp", b"e", b"t", b"x3c", b"c", b"-1", b"+1", b"0",
                     b"#", b"", b"\xff", b"\xc3\xa9"]),
    st.integers(0, 10**18 - 1).map(lambda i: b"%d" % i),
)


@st.composite
def _files(draw):
    """A .sstp file of at most 5 vertices or an .x3c file of at most 6
    elements, with a few of its tokens replaced, comment lines added and
    the whole cut to 64 bytes: often well formed, so that the commands
    also run to the end."""
    if draw(st.booleans()):
        # a spanning tree plus a few more edges, so that most are connected
        n = draw(st.integers(1, 5))
        ids = st.integers(1, n)
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        edges += draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] < e[1]),
                               max_size=2))
        edges = list(dict.fromkeys(edges))
        terms = draw(st.lists(ids, max_size=3, unique=True))
        lines = [[b"p sstp", b"%d" % n, b"%d" % len(edges), b"%d" % len(terms)]]
        lines += [[b"e", b"%d" % u, b"%d" % v] for u, v in edges]
        lines += [[b"t", b"%d" % x] for x in terms]
    else:
        # an exact cover of the ground set plus a few more triples
        q = draw(st.sampled_from([3, 6]))
        triples = [(1, 2, 3), (4, 5, 6)][:q // 3]
        triples += draw(st.lists(st.lists(st.integers(1, q), min_size=3, max_size=3,
                                          unique=True).map(tuple), max_size=2))
        lines = [[b"x3c", b"%d" % q, b"%d" % len(triples)]]
        lines += [[b"c", *(b"%d" % x for x in t)] for t in triples]
    for _ in range(draw(st.integers(0, 2))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, len(line) - 1))] = draw(_FUZZ_TOKENS)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), [b"# x"])
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return b"".join(b" ".join(line) + eol for line in lines)[:64]


# every command that reads a file; True where it prints one JSON line
_FILE_COMMANDS = [(["solve", "--json"], True), (["solve", "--exact-fallback"], False),
                  (["check"], True), (["oracle"], True),
                  (["oracle", "--universe", "all"], True), (["reduce-x3c"], True)]


@given(_files())
@example(P3.encode())
@example(X3C.encode())
@example(C4.encode())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_files_exit_cleanly(tmp_path, capsys, data):
    """On any short file every command returns 0-3 with no exception:
    2 only for a graph that is not split, one error line on failure and
    one JSON line on success."""
    path = tmp_path / "fuzz.in"
    path.write_bytes(data)
    for command, prints_json in _FILE_COMMANDS:
        argv = command + ["--input", str(path)]
        if command[0] == "reduce-x3c":
            argv += ["--output", str(tmp_path / "fuzz.sstp")]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, data)
        assert code != 2 or "not a split graph" in err, (argv, data, err)
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, data, err)
        if code == 0 and prints_json:
            assert out.count("\n") == 1, (argv, data, out)
            json.loads(out)


# each subcommand's required options, as (flag, value) pairs
_REQUIRED = {
    "solve": [("--input", "in.sstp")],
    "check": [("--input", "in.sstp")],
    "oracle": [("--input", "in.sstp")],
    "reduce-x3c": [("--input", "in.x3c"), ("--output", "out.sstp")],
    "gen": [("--level", "1"), ("--clique", "3"), ("--indep", "3")],
    "bench": [("--dir", ".")],
}


@st.composite
def _usage_errors(draw):
    """argv with an unknown or missing subcommand, a required option
    dropped, or a --level that gen does not take."""
    command = draw(st.sampled_from(sorted(_REQUIRED) + ["bogus", "solv", ""]))
    pairs = list(_REQUIRED.get(command, [("--input", "in.sstp")]))
    if command in _REQUIRED:
        fault = draw(st.integers(0, len(pairs) - (command != "gen")))
        if fault < len(pairs):
            del pairs[fault]
        else:
            pairs[0] = ("--level", draw(st.sampled_from(["0", "4", "5", "-1", "x"])))
    pairs = draw(st.permutations(pairs))
    return [command] * bool(command) + [arg for pair in pairs for arg in pair]


@given(_usage_errors())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:"), (argv, err)
