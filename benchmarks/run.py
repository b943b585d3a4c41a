#!/usr/bin/env python3
"""Benchmark of seqspaces: three seeded, closed-loop workloads.

    python3 benchmarks/run.py --workload small-vectors --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process and one thread run the jobs one
after another; the program is imported from ``src/`` of this checkout.

The first round's outputs are checked against references, and every later
round must reproduce them exactly.  ``--trace 0`` repeats the workload's fixed
job list until ``--seconds`` of measured time is spent, and at least three
times, and reports ``wall_s``: the sum over jobs of each job's fastest run.
The first round pays the program's lazy imports and caches; a job's fastest
run is almost always a later one.  ``--trace 1`` runs two untraced rounds and
then one traced round, and reports the per-layer metrics of the traced round,
plus the tracing overhead (traced minus the second untraced round).

Stdout: human-readable lines, then one JSON report line (provenance,
workload-specific numbers, failures), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# One compute thread: set before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 2  # fresh interpreters after each round; setup_s is their median
MIN_ROUNDS = 3
CLI_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
CLI_ARGV = ["norm", "--space", "lorentz:w=harmonic,p=1", "--vector", "[0.5, -2, 0, 1.25, 3]"]
CLI_WANT = 3.0 + 2.0 / 2 + 1.25 / 3 + 0.5 / 4  # sorted |values| paired with 1, 1/2, 1/3, 1/4


def import_program():
    """Import seqspaces from this checkout's src/, and nowhere else."""
    pkg = SRC / "seqspaces"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import seqspaces
    import seqspaces.cli  # not imported by the package; the small-vectors jobs call it

    if Path(seqspaces.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported seqspaces from {seqspaces.__file__}, not {pkg}")
    return seqspaces


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance(S, seed: int) -> dict:
    import numpy as np

    # The ceiling keeps git from reporting a repository that merely contains the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    have_numba = getattr(getattr(S, "_kernels", None), "HAVE_NUMBA", None)
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
        "kernel_path": "numba" if have_numba else "python",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def setup_probes(workload: str, seed: int, digest: str) -> list[float]:
    """Fresh-interpreter set-up times; each child must rebuild identical inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = run_child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--setup-probe"], dict(os.environ))
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if line["inputs_digest"] != digest:
            raise RuntimeError("a fresh interpreter generated different inputs for the same seed")
        times.append(line["t_end"] - t0)
    return times


def cli_probes() -> tuple[list[float], int, int]:
    """Cold `python -m seqspaces norm ...` runs, one at a time; returns times, attempted, failed."""
    times, failed = [], 0
    for _ in range(CLI_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "seqspaces", *CLI_ARGV], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
        try:
            out = json.loads(proc.stdout)
            ok = proc.returncode == 0 and out["lo"] == out["hi"] and abs(out["lo"] - CLI_WANT) <= 1e-12 * CLI_WANT
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return times, CLI_PROBES, failed


def import_probes() -> list[float]:
    code = "import time; t = time.perf_counter(); import seqspaces; print(time.perf_counter() - t)"
    return [float(run_child([sys.executable, "-c", code], child_env()).stdout) for _ in range(IMPORT_PROBES)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    S = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    W = workloads.WORKLOADS[args.workload](S, args.seed)
    inputs_digest = workloads.digest(W.inputs())
    if args.setup_probe:
        print(json.dumps({"t_end": time.time(), "inputs_digest": inputs_digest}))
        return 0

    jobs = W.jobs()
    rounds, digests, setup_times = [], set(), []

    def one_round(tracer=None):
        times, outputs = workloads.run_round(jobs, tracer)
        digests.add(workloads.digest(outputs))
        rounds.append({"wall_s": sum(times.values()), "jobs": times})
        print(f"round {len(rounds)}: wall {rounds[-1]['wall_s']:.3f} s", flush=True)
        setup_times.extend(setup_probes(args.workload, args.seed, inputs_digest))
        return outputs

    # The first round's outputs are checked; later rounds must reproduce them.
    checks = workloads.check_round(jobs, one_round())

    layer = None
    absent = []
    if args.trace:
        from tracing import RESULT_METRICS, Tracer

        one_round()
        tracer = Tracer(S)
        tracer.install()
        try:
            one_round(tracer)
        finally:
            tracer.uninstall()
        absent = tracer.absent
        layer = tracer.layer_metrics()
        layer["trace.wall_s"] = rounds[2]["wall_s"]
        layer["trace.overhead_s"] = rounds[2]["wall_s"] - rounds[1]["wall_s"]
        layer["cli.import_s"] = statistics.median(import_probes())
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
    else:
        # Closed loop: rounds until --seconds of measured time is spent.
        while len(rounds) < MIN_ROUNDS or sum(r["wall_s"] for r in rounds) < args.seconds:
            one_round()

    cli_times, cli_attempted, cli_failed = cli_probes()
    failures = [c for c in checks if not c.ok]
    attempted = len(checks) + cli_attempted
    failed = len(failures) + cli_failed
    unexpected = [c for c in failures if not c.known]
    correct = not unexpected and cli_failed == 0 and len(digests) == 1

    # Each job at its fastest run: a slow spell on a shared machine then has
    # to hit every repetition of a job to move the figure.
    best = {name: min(r["jobs"][name] for r in rounds) for name in rounds[0]["jobs"]}
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(best.values()), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    specific = W.phase_metrics(best)
    specific["round_median_s"] = statistics.median(r["wall_s"] for r in rounds)
    specific["cli_cold_s"] = statistics.median(cli_times)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(S, args.seed),
        "inputs_digest": inputs_digest,
        "output_digest": sorted(digests),
        "rounds": rounds,
        "setup_probes_s": setup_times,
        "cli_cold_probes_s": cli_times,
        "workload_metrics": specific,
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                       "known_defect_failures": len(failures) - len(unexpected)},
        "failures": [c.__dict__ for c in failures[:20]],
        "absent": absent,
    }
    if layer is not None:
        report["per_layer"] = layer
        report["span_file"] = str(span_file.relative_to(ROOT))
    for name, (value, unit) in e2e.items():
        print(f"{name:>14} {value:.6g} {unit}")
    for name, value in specific.items():
        print(f"{name:>14} {value:.6g}")
    print(f"{'fail_ratio':>14} {failed}/{attempted} (known defect: {len(failures) - len(unexpected)})")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    if layer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in RESULT_METRICS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
