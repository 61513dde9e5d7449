"""Benchmark of helmfmm: one run of one workload.

    python3 bench/run.py --workload laplace-cube --seed 1 --seconds 12 --trace 0

With --trace 0 the run starts WORKERS fresh processes one after another.
Each imports helmfmm, makes a cold solve (a set-up sample) and then warm
solves until its share of --seconds is used, and at least MIN_WARM of them.
Every timed call is scaled to a nominal machine speed by the worker's
speed probe.  The end-to-end metrics are the medians over those processes,
and over all their warm solves for solve_s.
With --trace 1 one process makes a cold, two untraced and two traced
solves, and the run reports the per-layer metrics of BENCHMARK.json.

Every worker runs with the BLAS thread pools pinned to one thread.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record of the run is written under
bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, direct_sum, make_problem, rel_l2

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKERS = 3
# warm solves each worker makes at least, whatever --seconds leaves room for
MIN_WARM = 1
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def _solve_run(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    runs = [
        _worker(
            ["solve", *common, "--budget", str(seconds / WORKERS), "--min-warm", str(MIN_WARM)],
            deadline,
        )
        for _ in range(WORKERS)
    ]
    correct, errors, failed = _check(WORKLOADS[workload], seed, runs)
    warm = [t for r in runs for t in r["warm_s"]]
    metrics = {
        "solve_s": statistics.median(warm) if warm else float("nan"),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "rel_l2": errors[0],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    for r in runs:
        del r["outputs"]
    record = {"workers": runs, "rel_l2": errors, "metrics": metrics}
    attempted = sum(len(r["solves"]) for r in runs)
    return correct and bool(warm), attempted, failed, metrics, record


def _check(workload, seed: int, runs: list):
    """Check every solve of every worker against the direct sum.

    Returns (correct, rel_l2 of the q and p potentials, failed solves).  A
    solve fails if it raised or if its potentials miss the workload's
    tolerance.  The run is not correct if the potentials of one charge
    vector differ between solves or processes, or if reciprocity fails on
    a self-interaction.
    """
    problem = make_problem(workload, seed)
    reference = direct_sum(problem, np.column_stack(problem.charges))
    digests = [set(), set()]
    outputs = {}
    for r in runs:
        outputs.update(r["outputs"])
        for which, digest in r["solves"]:
            if digest is not None:
                digests[which].add(digest)
    correct = all(len(d) == 1 for d in digests)
    if not correct:
        print(f"potentials differ between solves: {digests}", file=sys.stderr)
    error = {}
    for which in (0, 1):
        for digest in digests[which]:
            re, im = outputs[digest]
            error[digest] = rel_l2(reference[:, which], np.array(re) + 1j * np.array(im))
    failed = sum(
        digest is None or not error[digest] <= workload.tolerance
        for r in runs
        for _, digest in r["solves"]
    )
    if workload.targets is None:
        for r in runs:
            gap = r["reciprocity_gap"]
            if not (gap is not None and gap <= workload.tolerance):
                print(f"reciprocity gap {gap} above {workload.tolerance}", file=sys.stderr)
                correct = False
    errors = [min((error[d] for d in digests[w]), default=float("nan")) for w in (0, 1)]
    return correct, errors, failed


def _trace_run(workload: str, seed: int, deadline: float):
    r = _worker(["trace", "--workload", workload, "--seed", str(seed)], deadline)
    for name in r["absent"]:
        print(f"absent from the program, not traced: {name}", file=sys.stderr)
    return r["correct"], r["attempted"], r["failed"], r["metrics"], r


def main(argv=None) -> int:
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # room for the measured seconds, the cold solves and the minimum of warm
    # solves of a slow workload; a run that outlives it stops without a result
    deadline = start + 120.0 + 2.5 * args.seconds

    package = ROOT / "src" / "helmfmm"
    if not (package / "__init__.py").is_file():
        print(f"no helmfmm sources under {package}", file=sys.stderr)
        return 2
    # byte-compile once, so that each process's timed import reads the cache
    # as an installed package's would
    compileall.compile_dir(str(package), quiet=1)

    try:
        if args.trace:
            correct, attempted, failed, values, record = _trace_run(args.workload, args.seed, deadline)
        else:
            correct, attempted, failed, values, record = _solve_run(
                args.workload, args.seed, args.seconds, deadline
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"metric not measured: {m['name']}", file=sys.stderr)
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    out = RESULTS / f"{kind}-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(dict(result, args=vars(args), record=record), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
