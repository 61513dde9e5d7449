"""Experiment configuration, execution and machine-readable result records."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .distributions import Distribution, generate_distribution, random_charges
from .geometry import compute_root_box
from .kernel import DEFAULT_SINGULARITY_TOL, HelmholtzKernel, direct_sum, relative_errors
from .traversal import FmmConfig, run_fmm_full

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "read_particle_file",
    "NCRIT_SWEEP",
]

NCRIT_SWEEP = (32, 64, 128, 256)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its fields are the CLI's options (cli.py) and the
    record's config echo."""

    distribution: str = "uniform-cube"
    n: int = 10000
    kappa_d: float = 0.0  # product of wavenumber and root box side
    order: int = 5
    ncrit: int | str = 64  # integer or "auto"
    eta: float = 1.0
    check_error: int = 0  # number of sampled targets for the direct oracle
    seed: int = 0
    particle_file: str | None = None


@dataclass
class RunRecord:
    """A run's config echo and the solve's timings and counts as
    run_fmm_full reports them.  With check_error > 0, also the relative
    errors against the sampled direct sum, and that sum's time scaled to
    all targets (direct_est_s) with the solve's total over it
    (fmm_over_direct)."""

    config: dict
    timings: dict
    counts: dict
    errors: dict | None = None
    direct: dict | None = None
    potentials: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "timings": self.timings,
            "counts": self.counts,
            "errors": self.errors,
            "direct": self.direct,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    def write_csv(self, path) -> None:
        d = self.to_json_dict()
        d["errors"] = d["errors"] or dict.fromkeys(("linf", "l1", "l2"), "")
        d["direct"] = d["direct"] or dict.fromkeys(("direct_est_s", "fmm_over_direct"), "")
        row = {f"{part}.{k}": v for part, values in d.items() for k, v in values.items()}
        path = Path(path)
        exists = path.exists()
        with path.open("a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            if not exists:
                writer.writeheader()
            writer.writerow(row)


def read_particle_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Text input: one particle per line, 'x y z re_q im_q'; '#' comments."""
    positions = []
    charges = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 'x y z re_q im_q'")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number in {line!r}") from None
        if not np.isfinite(vals).all():
            raise ValueError(f"{path}:{lineno}: values must be finite, not {line!r}")
        positions.append(vals[:3])
        charges.append(complex(vals[3], vals[4]))
    if not positions:
        raise ValueError(f"{path}: no particles found")
    return np.asarray(positions), np.asarray(charges)


def _load_problem(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.particle_file is not None:
        return read_particle_file(cfg.particle_file)
    points = generate_distribution(Distribution(cfg.distribution, cfg.n, cfg.seed))
    charges = random_charges(points.shape[0], cfg.seed + 1)
    return points, charges


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run one FMM evaluation and collect timings, counts and sampled errors.

    ``ncrit="auto"`` sweeps a small set of leaf sizes and keeps the fastest
    total time, mirroring how the leaf criterion is tuned in practice.
    """
    if cfg.check_error < 0:
        raise ValueError(f"check_error must be >= 0 sampled targets, not {cfg.check_error}")
    points, charges = _load_problem(cfg)
    side = compute_root_box(points).side
    kappa = cfg.kappa_d / side

    def solve(ncrit: int) -> tuple:
        config = FmmConfig(order=cfg.order, ncrit=ncrit, eta=cfg.eta, kappa=kappa)
        return (ncrit, *run_fmm_full(points, points, charges, config))

    if cfg.ncrit == "auto":  # the first fastest of the sweep
        runs = (solve(ncrit) for ncrit in NCRIT_SWEEP)
        ncrit, potentials, info = min(runs, key=lambda run: run[2].timings["total"])
    else:
        ncrit, potentials, info = solve(int(cfg.ncrit))

    errors = direct = None
    if cfg.check_error > 0:
        rng = np.random.default_rng(cfg.seed + 2)
        m = min(cfg.check_error, points.shape[0])
        sample = rng.choice(points.shape[0], size=m, replace=False)
        kernel = HelmholtzKernel(kappa=kappa, singularity_tol=DEFAULT_SINGULARITY_TOL * side)
        start = time.perf_counter()
        reference = direct_sum(kernel, points[sample], points, charges)
        direct_est_s = (time.perf_counter() - start) * points.shape[0] / m
        report = relative_errors(reference, potentials[sample])
        errors = {
            "linf": report.rel_linf,
            "l1": report.rel_l1,
            "l2": report.rel_l2,
        }
        direct = {
            "direct_est_s": direct_est_s,
            "fmm_over_direct": info.timings["total"] / direct_est_s,
        }

    # the config as given, with the measured n, the kappa and the chosen
    # ncrit; a particle file replaces the generator's distribution, but the
    # seed still picks the error sample
    config_echo = {**asdict(cfg), "n": int(points.shape[0]), "kappa": kappa, "ncrit": ncrit}
    if cfg.particle_file is not None:
        config_echo["distribution"] = None
    return RunRecord(
        config=config_echo,
        timings=info.timings,
        counts=info.counts,
        errors=errors,
        direct=direct,
        potentials=potentials,
    )
