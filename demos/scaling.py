"""Near-linear scaling of the solver in the particle count.

Times full evaluations on a quasi-uniform sphere surface while N doubles.
A naive summation quadruples its work per doubling; the hierarchical solver
should stay close to a factor of two.  The breakdown shows where the time
goes: tree construction, blank precomputation passes, upward sweep (P2M/M2M),
M2F, M2L, F2L, the near field (P2P), and the downward sweep (L2L/L2P).
"""

from helmfmm import Distribution, FmmConfig, generate_distribution, random_charges
from helmfmm.geometry import compute_root_box
from helmfmm.traversal import run_fmm_full

KAPPA_D = 16.0
ORDER = 5

print(f"{'N':>7} {'total':>8} {'tree':>7} {'blank':>7} {'upward':>7} {'m2f':>7} "
      f"{'m2l':>7} {'f2l':>7} {'p2p':>7} {'down':>7} {'m2l events':>11} {'symbols':>8}")

previous = None
for n in (5000, 10000, 20000, 40000, 80000):
    points = generate_distribution(Distribution("sphere", n, seed=0))
    charges = random_charges(n, seed=1)
    box = compute_root_box(points)
    config = FmmConfig(order=ORDER, ncrit=64, kappa=KAPPA_D / box.side)
    _, info = run_fmm_full(points, points, charges, config)
    t = info.timings
    print(f"{n:>7} {t['total']:8.2f} {t['tree']:7.2f} {t['blank']:7.2f} "
          f"{t['upward']:7.2f} {t['m2f']:7.2f} {t['m2l']:7.2f} {t['f2l']:7.2f} {t['p2p']:7.2f} "
          f"{t['downward']:7.2f} {info.counts['m2l_events']:>11} {info.counts['symbols']:>8}")
    if previous is not None:
        print(f"{'':>7} doubling ratio: {t['total'] / previous:.2f}")
    previous = t["total"]
