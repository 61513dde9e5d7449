"""One fresh benchmark process: timed solves, or one traced run.

Started by run.py with the BLAS thread pools pinned to one thread.  Prints
one JSON object as its last line of standard output.

    python3 bench/worker.py solve --workload W --seed S --budget SECONDS --min-warm K
    python3 bench/worker.py trace --workload W --seed S
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, direct_sum, make_problem, reciprocity_gap, rel_l2

SRC = Path(__file__).resolve().parent.parent / "src"

# The speed probe: every PROBE_INTERVAL_S of processor time, a signal
# handler runs a short fixed computation (PROBE_ROUNDS rounds of
# reference_work) and records the processor time it took.  PROBE_NOMINAL_S
# is its median on the machine the benchmark was built on; a scaled time
# is in seconds at that speed.  See SpeedProbe.
PROBE_INTERVAL_S = 0.02
PROBE_ROUNDS = 4
PROBE_NOMINAL_S = 1.4e-3
_REF_RNG = np.random.default_rng(12345)
_REF_TABLE = {i: (i * 7919) % 1009 for i in range(4096)}
_REF_BLOCK = _REF_RNG.uniform(0.1, 1.0, (48, 64))
_REF_VEC = _REF_RNG.standard_normal(216) + 1j * _REF_RNG.standard_normal(216)


def _import_helmfmm():
    if not (SRC / "helmfmm" / "__init__.py").is_file():
        raise SystemExit(f"helmfmm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("helmfmm")


class Solver:
    """run_fmm_full on one problem, with each output checked for shape."""

    def __init__(self, helmfmm, workload, problem):
        self.run_fmm_full = helmfmm.run_fmm_full
        self.config = helmfmm.FmmConfig(
            order=workload.order,
            ncrit=workload.ncrit,
            eta=workload.eta,
            kappa=problem.kappa,
        )
        self.problem = problem

    def __call__(self, which: int, events=None):
        """Potentials for charge vector ``which`` (0 = q, 1 = p), run info."""
        pr = self.problem
        # for a self-interaction targets is points, the single-tree path
        u, info = self.run_fmm_full(
            pr.targets, pr.points, pr.charges[which], self.config, events=events
        )
        u = np.asarray(u)
        if u.shape != (pr.targets.shape[0],) or not np.all(np.isfinite(u)):
            raise ValueError(f"potentials of shape {u.shape} or not finite")
        return u, info


def reference_work(rounds: int) -> float:
    """Processor time of ``rounds`` rounds of the reference computation.

    It mixes what a solve spends its time on: dictionary look-ups and
    integer arithmetic in the interpreter (the traversals), operations on
    small complex arrays (M2L, expansions) and a kernel block of complex
    exponentials (P2P).  It uses numpy alone, never helmfmm, so no change
    to the program changes it.
    """
    table, vec, block = _REF_TABLE, _REF_VEC, _REF_BLOCK
    t = time.thread_time()
    acc, x = 0, vec
    for k in range(rounds):
        for j in range(300):
            acc += table[(k * 31 + j) & 4095] >> 1
        for _ in range(30):
            x = x * 0.999 + vec * 0.001
        g = np.exp(1j * block) / block
    elapsed = time.thread_time() - t
    if not (acc > 0 and np.isfinite(x).all() and np.isfinite(g).all()):
        raise SystemExit("the reference computation went wrong")
    return elapsed


class SpeedProbe:
    """Measures the speed the machine gives this process during a solve.

    On a shared host the speed of one core moves by a third within
    seconds.  Inside ``with probe:`` an interval timer interrupts the
    solve every PROBE_INTERVAL_S of processor time and the handler times
    one short pass of the reference computation.  ``scaled(cpu)`` takes the handlers' time
    out of the solve's processor time and multiplies the rest by the mean
    speed of the passes, PROBE_NOMINAL_S over each pass's time: the
    solve's time at the nominal speed.  Processor time, not wall time, on
    both sides, so that time the process spends waiting for a core taken
    by another process counts in neither.  The solve's is the whole
    process's, summed over its threads, read before the timer is armed and
    after it is stopped.  The passes are timed on the handler's own thread
    clock: while a process-wide timer is armed Linux updates the process's
    clock only at scheduler ticks, too coarse for a 1.4 ms pass.
    """

    def __init__(self):
        self.passes = []
        self.spent = 0.0
        self._busy = False

    def _handler(self, signum, frame):
        # a pass slowed past the interval must not start a second one
        # inside it, which would count its time twice
        if self._busy:
            return
        self._busy = True
        t = time.thread_time()
        self.passes.append(reference_work(PROBE_ROUNDS))
        self.spent += time.thread_time() - t
        self._busy = False

    def __enter__(self):
        self.passes, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False

    def scaled(self, cpu: float) -> float:
        """Scaled time of a solve that took ``cpu`` seconds of processor time."""
        if not self.passes:
            raise SystemExit("the speed probe took no sample")
        speed = statistics.fmean(PROBE_NOMINAL_S / d for d in self.passes)
        return (cpu - self.spent) * speed


def _digest(u: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_solves(workload, seed: int, budget: float, min_warm: int) -> dict:
    """Cold solve with q, then warm solves alternating p, q, ...

    Warm solves go on until ``budget`` seconds have passed since the cold
    solve ended and at least ``min_warm`` have been made, so that a
    workload whose solve is long still gives several samples.  Each solve
    is reported as (charge vector, digest of its potentials), or with
    digest None if it raised; the potentials at the sampled targets are
    reported once per distinct digest, for run.py to check against the
    direct sum.

    Every solve, and the set-up sample (import plus cold solve), is
    timed under the speed probe and reported scaled to the nominal speed;
    its wall time, probe passes included, is kept for the record.
    """
    problem = make_problem(workload, seed)
    reference_work(PROBE_ROUNDS)  # pays numpy's own first-call costs
    probe = SpeedProbe()
    gc.collect()
    solves, outputs, first = [], {}, [None, None]
    setup, warm, warm_from = None, [], None
    which = 0
    solver = None
    while len(solves) <= min_warm or time.perf_counter() - warm_from < budget:
        if solves:
            gc.collect()
        # every pass of the probe falls between the two readings, and the
        # process's clock is read while the probe's timer is off (see
        # SpeedProbe)
        t0, c0 = time.perf_counter(), time.process_time()
        with probe:
            if solver is None:
                solver = Solver(_import_helmfmm(), workload, problem)
            try:
                u, _ = solver(which)
            except Exception:
                traceback.print_exc()
                u = None
        c_end, t_end = time.process_time(), time.perf_counter()
        timed = (t_end - t0, probe.scaled(c_end - c0))
        if setup is None:
            setup, warm_from = timed, t_end
        elif u is not None:
            warm.append(timed)
        if u is None:
            solves.append((which, None))
        else:
            digest = _digest(u)
            solves.append((which, digest))
            if digest not in outputs:
                sampled = u[problem.sample]
                outputs[digest] = [sampled.real.tolist(), sampled.imag.tolist()]
            if first[which] is None:
                first[which] = u
        which = 1 - which

    # read after the solves, before anything else allocates
    peak_rss_mb = _peak_rss_mb()
    recip = None
    if problem.targets is problem.points and first[0] is not None and first[1] is not None:
        q, p = problem.charges
        recip = reciprocity_gap(q, first[0], p, first[1])
    return {
        "setup_s": setup[1],
        "warm_s": [scaled for _, scaled in warm],
        "setup_wall_s": setup[0],
        "warm_wall_s": [wall for wall, _ in warm],
        "peak_rss_mb": peak_rss_mb,
        "solves": solves,
        "outputs": outputs,
        "reciprocity_gap": recip,
    }


def run_trace(workload, seed: int) -> dict:
    """Two untraced warm solves, then two traced ones whose counts must agree.

    The tracing overhead is the faster traced solve minus the faster
    untraced one: the faster of two is the one less disturbed by other work
    on the machine.
    """
    from tracing import Tracer

    problem = make_problem(workload, seed)
    helmfmm = _import_helmfmm()
    solver = Solver(helmfmm, workload, problem)
    u_cold, _ = solver(0)
    untraced = []
    for _ in range(2):
        gc.collect()
        t = time.perf_counter()
        u_warm, info = solver(0)
        untraced.append((time.perf_counter() - t, info))
        if _digest(u_warm) != _digest(u_cold):
            raise SystemExit("potentials differ between two solves")

    tracer = Tracer(helmfmm)
    traced = []
    for _ in range(2):
        gc.collect()
        tracer.reset()
        events = []
        t = time.perf_counter()
        with tracer:
            u, traced_info = solver(0, events=events)
        wall = time.perf_counter() - t
        if _digest(u) != _digest(u_warm) or traced_info.counts != info.counts:
            raise SystemExit("the traced solve differs from the untraced one")
        traced.append((wall, tracer.metrics(traced_info, events)))
        tracer.check(traced[-1][1], traced_info)
        del events
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for _, m in traced]
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1].get(k)) for k, v in counts[0].items() if counts[1].get(k) != v}
        raise SystemExit(f"counts differ between two traced solves: {diff}")
    untraced_s, info = min(untraced, key=lambda r: r[0])
    traced_s, metrics = min(traced, key=lambda r: r[0])
    metrics["phase.upward_s"] = info.timings["upward"]
    metrics["phase.downward_s"] = info.timings["downward"]
    metrics["trace.overhead_s"] = traced_s - untraced_s

    # all five solves gave the same potentials, so they pass or fail together
    error = rel_l2(direct_sum(problem, problem.charges[0]), u_cold[problem.sample])
    return {
        "correct": True,
        "attempted": 5,
        "failed": 0 if error <= workload.tolerance else 5,
        "rel_l2": error,
        "metrics": metrics,
        "absent": tracer.absent,
        "untraced_s": [r[0] for r in untraced],
        "traced_s": [r[0] for r in traced],
        "program_timings": info.timings,
        "program_counts": info.counts,
        "functions": tracer.table(),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("solve", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--min-warm", type=int, default=1)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "solve":
        result = run_solves(workload, args.seed, args.budget, args.min_warm)
    else:
        result = run_trace(workload, args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
