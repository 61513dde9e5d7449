"""End-to-end acceptance checks for the library.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -v`` via the test outcome, and in captured output on failure).
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from helmfmm.directions import generate_direction_tree
from helmfmm.distributions import Distribution, generate_distribution, random_charges
from helmfmm.fourier import (
    FourierWorkspace,
    canonicalize_translations,
    dense_m2l_matrix,
    hyperoctahedral_group,
    m2l_hadamard,
    permute_symbol,
    precompute_symbol,
)
from helmfmm.geometry import compute_root_box
from helmfmm import interpolation as interp
from helmfmm.harness import ExperimentConfig, run_experiment
from helmfmm.kernel import HelmholtzKernel, direct_sum, relative_errors
from helmfmm.traversal import FmmConfig, run_fmm, run_fmm_full


def _report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: FAIL ({detail})"


def _cube_problem(n, seed=0):
    pts = generate_distribution(Distribution("uniform-cube", n, seed))
    q = random_charges(n, seed + 1)
    return pts, q


def _fmm_error(pts, q, kappa_d, order, ncrit=64, eta=1.0):
    box = compute_root_box(pts)
    kappa = kappa_d / box.side
    kernel = HelmholtzKernel(kappa=kappa, singularity_tol=1e-12 * box.side)
    ref = direct_sum(kernel, pts, pts, q)
    cfg = FmmConfig(order=order, ncrit=ncrit, eta=eta, kappa=kappa)
    t0 = time.perf_counter()
    pot = run_fmm(pts, pts, q, cfg)
    elapsed = time.perf_counter() - t0
    return relative_errors(ref, pot).rel_l2, elapsed


@pytest.mark.parametrize("kappa_d", [0.0, 8.0, 16.0])
def test_criterion_1_oracle_equivalence(kappa_d):
    pts, q = _cube_problem(2000)
    err, elapsed = _fmm_error(pts, q, kappa_d, order=6, eta=1.0)
    ok = err <= 1e-6 and elapsed < 30.0
    _report(
        f"criterion 1 (oracle equivalence, kappa*D={kappa_d:g})",
        ok,
        f"rel l2 = {err:.3e}, tolerance 1e-6, {elapsed:.1f} s",
    )


def test_criterion_2_geometric_convergence():
    pts, q = _cube_problem(4096)
    orders = range(3, 8)

    errs0 = [_fmm_error(pts, q, 0.0, order)[0] for order in orders]
    ratios = [b / a for a, b in zip(errs0, errs0[1:])]
    ok0 = all(r < 1.0 for r in ratios) and all(r <= 0.6 for r in ratios)

    errs16 = [_fmm_error(pts, q, 16.0, order)[0] for order in orders]
    ok16 = all(b < a for a, b in zip(errs16, errs16[1:]))

    _report(
        "criterion 2 (geometric convergence)",
        ok0 and ok16,
        f"kappa*D=0 errors {['%.1e' % e for e in errs0]}, "
        f"kappa*D=16 errors {['%.1e' % e for e in errs16]}",
    )


def _fft_operator(kernel, tvec, beta, order):
    ws = FourierWorkspace(order)
    diagonal = precompute_symbol(kernel, tvec, beta, order)
    basis = np.eye(order**3, dtype=complex)
    cols = []
    for j in range(order**3):
        acc = np.zeros(ws.fourier_size, dtype=complex)
        m2l_hadamard(acc, ws.m2f(basis[j][None])[0], diagonal)
        cols.append(ws.f2l(acc[None])[0])
    return np.column_stack(cols)


def test_criterion_3_dense_operator_equivalence():
    rng = np.random.default_rng(0)
    order = 4
    worst = 0.0
    for kappa in (0.0, 16.0):
        kernel = HelmholtzKernel(kappa=kappa, singularity_tol=1e-14)
        for level in (2, 3, 4, 5):
            beta = 1.0 / (1 << level)
            seen = 0
            while seen < 20:
                tvec = tuple(int(v) for v in rng.integers(-3, 4, size=3))
                if max(abs(c) for c in tvec) < 2:
                    continue
                seen += 1
                dense = dense_m2l_matrix(kernel, tvec, beta, order)
                fft_mat = _fft_operator(kernel, tvec, beta, order)
                rel = np.abs(fft_mat - dense).max() / np.abs(dense).max()
                worst = max(worst, rel)
    _report(
        "criterion 3 (dense-operator equivalence)",
        worst < 1e-12,
        f"worst relative deviation {worst:.3e} over 160 translations",
    )


def test_criterion_4_symmetry_reduction():
    translations = [
        t
        for t in itertools.product(range(-3, 4), repeat=3)
        if max(abs(c) for c in t) >= 2
    ]
    classes = set(map(tuple, canonicalize_translations(translations)[0].tolist()))
    count_ok = len(translations) == 316 and len(classes) == 16

    rng = np.random.default_rng(1)
    order = 4
    kernel = HelmholtzKernel(kappa=12.0, singularity_tol=1e-14)
    worst = 0.0
    for _ in range(50):
        tvec = translations[rng.integers(len(translations))]
        rid = int(rng.integers(48))
        base = precompute_symbol(kernel, tvec, 0.25, order)
        rotated = permute_symbol(base, rid, order)
        direct = precompute_symbol(kernel, hyperoctahedral_group()[rid] @ tvec, 0.25, order)
        rel = np.abs(rotated - direct).max() / np.abs(direct).max()
        worst = max(worst, rel)
    _report(
        "criterion 4 (symmetry reduction)",
        count_ok and worst < 1e-13,
        f"{len(classes)} classes from {len(translations)} translations, "
        f"worst permuted-symbol deviation {worst:.3e}",
    )


def test_criterion_5_direction_counts():
    tree = generate_direction_tree(2)
    counts = [tree.count(e) for e in range(3)]
    _report(
        "criterion 5 (direction counts)",
        counts == [6, 24, 96],
        f"sizes at refinements 0..2 = {counts}",
    )


def test_criterion_6_strategy_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    cases = 0
    while cases < 100:
        for order in (3, 4, 5, 6):
            for kappa_d in (0.0, 32.0):
                octant = tuple(int(v) for v in rng.integers(0, 2, size=3))
                factors = interp.m2m_factors(order, octant)
                m = int(rng.integers(1, 5))
                x = rng.normal(size=(order**3, m)) + 1j * rng.normal(
                    size=(order**3, m)
                )
                # modulate like the directional operators do
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                d1 = np.conj(
                    interp.plane_wave(interp.grid_points(order), kappa_d, u)
                )
                cols = x * d1[:, None]
                outs = [
                    interp.apply_strategy(s, factors, cols)
                    for s in interp.STRATEGIES
                ]
                scale = np.abs(outs[0]).max()
                for other in outs[1:]:
                    worst = max(worst, np.abs(other - outs[0]).max() / scale)
                cases += 1
    _report(
        "criterion 6 (strategy equivalence)",
        worst < 1e-13,
        f"worst relative deviation {worst:.3e} over {cases} cases",
    )


def test_criterion_7_partition_property():
    n = 5000
    pts = generate_distribution(Distribution("refined-cube", n, seed=0))
    q = random_charges(n, seed=1)
    box = compute_root_box(pts)
    cfg = FmmConfig(order=3, ncrit=64, kappa=16.0 / box.side)
    events = []
    run_fmm_full(pts, pts, q, cfg, events=events)
    coverage = np.zeros((n, n), dtype=np.int16)
    for ev in events:
        t, s = ev.target, ev.source
        coverage[t.start : t.stop, s.start : s.stop] += 1
    ok = bool(np.all(coverage == 1))
    n_m2l = sum(1 for e in events if e.kind == "M2L")
    n_p2p = sum(1 for e in events if e.kind == "P2P")
    _report(
        "criterion 7 (partition property)",
        ok,
        f"{n * n} ordered pairs covered once by {n_p2p} P2P + {n_m2l} M2L events",
    )


def test_criterion_8_scaling_smoke():
    times = []
    for n in (10000, 20000, 40000):
        pts = generate_distribution(Distribution("sphere", n, seed=0))
        q = random_charges(n, seed=1)
        box = compute_root_box(pts)
        cfg = FmmConfig(order=5, ncrit=64, kappa=16.0 / box.side)
        _, info = run_fmm_full(pts, pts, q, cfg)
        times.append(info.timings["total"])
    ratios = [b / a for a, b in zip(times, times[1:])]
    _report(
        "criterion 8 (scaling smoke test)",
        all(r <= 2.6 for r in ratios),
        f"totals {['%.2f s' % t for t in times]}, doubling ratios "
        f"{['%.2f' % r for r in ratios]}",
    )


def test_criterion_9_determinism():
    cfg = ExperimentConfig(
        distribution="refined-cube", n=1500, kappa_d=8.0, order=4, ncrit=64,
        seed=9,
    )
    digests = []
    for _ in range(2):
        record = run_experiment(cfg)
        digests.append(hashlib.sha256(record.potentials.tobytes()).hexdigest())
    _report(
        "criterion 9 (determinism)",
        digests[0] == digests[1],
        f"digest {digests[0][:16]}... reproduced",
    )
