#!/usr/bin/env python3
"""Tests of the benchmark itself (not of seqspaces).

    python3 benchmarks/selftest.py [--workload NAME ...]

Run from the repository root; takes a few minutes per workload.  Checks that
the same seed generates byte-identical inputs, that a second seed passes
every correctness check, that a traced and an untraced run produce the same
output digest, that two traced runs report identical counts, that the
result lines match BENCHMARK.json, and that the benchmark fails cleanly in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def test_inputs_deterministic(workload: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import seqspaces
    import workloads

    cls = workloads.WORKLOADS[workload]
    a = workloads.digest(cls(seqspaces, SEED).inputs())
    b = workloads.digest(cls(seqspaces, SEED).inputs())
    c = workloads.digest(cls(seqspaces, SEED + 1).inputs())
    assert a == b, "same seed, different inputs"
    assert a != c, "different seeds, same inputs"


def test_runs(workload: str) -> None:
    plain, plain_rep = run(workload, 0)
    traced1, traced1_rep = run(workload, 1)
    traced2, _ = run(workload, 1)

    # A second seed passes every check; only the documented defect class may fail.
    for res, rep in ((plain, plain_rep), (traced1, traced1_rep)):
        assert res["correct"] is True, rep["failures"]
        assert res["failed"] == rep["fail_ratio"]["known_defect_failures"], rep["failures"]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}

    # Result lines carry exactly the metrics BENCHMARK.json names.
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(traced1["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        res = plain if m in BENCH["end_to_end"] else traced1
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    for m in BENCH["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0, m["name"]

    # Tracing changes no output: one digest for the untraced and traced rounds.
    assert len(traced1_rep["output_digest"]) == 1
    assert plain_rep["output_digest"] == traced1_rep["output_digest"]

    # Counts repeat exactly for a seed.
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    for name in counts:
        assert traced1["metrics"][name]["value"] == traced2["metrics"][name]["value"], name


def test_bare_directory() -> None:
    """Without the program's sources the benchmark must exit non-zero and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="limit to these workloads (default: all)")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in BENCH["workloads"]]
    test_bare_directory()
    print("ok bare directory", flush=True)
    for name in names:
        test_inputs_deterministic(name)
        print(f"ok {name}: inputs deterministic", flush=True)
        test_runs(name)
        print(f"ok {name}: second seed correct, trace digest, counts repeat", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
