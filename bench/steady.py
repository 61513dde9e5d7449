"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steady.py --runs 10 --first-seed 1 laplace-cube helmholtz-sphere

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles with n=4) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.., "
              f"all correct: {all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} bound {m['bound']}  values " + " ".join(f"{v:.6g}" for v in values))
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
