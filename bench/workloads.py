"""Workload inputs and the accuracy oracle of the benchmark.

Everything here is written against numpy alone, so a change to the program
can change neither the inputs it is given nor the reference its answers are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    # points(n, rng) -> (n, 3): the sources, and the targets too unless
    # ``targets`` is given
    points: Callable[[int, np.random.Generator], np.ndarray]
    # seeds the generator next to --seed, so workloads draw distinct streams
    stream: int
    n: int
    kappa_d: float  # wavenumber times the side of the root box
    # a solve whose sampled relative l2 error exceeds this has failed, and a
    # run whose reciprocity gap exceeds it is not correct; see README
    tolerance: float
    order: int = 5
    ncrit: int = 64
    eta: float = 1.0
    # targets() -> (m, 3), a fixed set apart from the sources; None for a
    # self-interaction
    targets: Callable[[], np.ndarray] | None = None


# number of targets the direct sum is evaluated at
N_SAMPLE = 2000


@dataclass
class Problem:
    points: np.ndarray  # (n, 3), the sources
    targets: np.ndarray  # (m, 3); the same array as points for a self-interaction
    charges: tuple  # two (n,) complex charge vectors, q and p
    kappa: float
    sample: np.ndarray  # indices of the targets checked by the direct sum
    singularity_tol: float


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation (QR of a Gaussian matrix, signs fixed)."""
    a, r = np.linalg.qr(rng.standard_normal((3, 3)))
    a = a * np.sign(np.diag(r))
    if np.linalg.det(a) < 0:
        a[:, 0] = -a[:, 0]
    return a


def _cube(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n, 3))


def _fibonacci_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fibonacci lattice on the unit sphere under a random rotation."""
    i = np.arange(n) + 0.5
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return pts @ _random_rotation(rng).T


def _pole_ellipsoid(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points on x^2 + 16 y^2 + 16 z^2 = 1, denser towards the poles x = +-1.

    The cosine of the polar angle about the x axis is the cube root of a
    uniform number on [-1, 1], so the points crowd at the poles as the
    refined mesh of an elongated body would.
    """
    c = np.cbrt(rng.uniform(-1.0, 1.0, size=n))
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([c, 0.25 * s * np.cos(phi), 0.25 * s * np.sin(phi)])


def _plane_grid() -> np.ndarray:
    """A 156 x 39 grid on [-1, 1] x [-0.25, 0.25] in the plane z = 0."""
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 156), np.linspace(-0.25, 0.25, 39), indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


def _charges(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=n) + 1j * rng.uniform(0.0, 1.0, size=n)


def root_side(points: np.ndarray) -> float:
    """Side of the smallest cube centred on the centroid holding the points."""
    return 2.0 * float(np.max(np.abs(points - points.mean(axis=0))))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("laplace-cube", _cube, stream=1, n=12000, kappa_d=0.0, tolerance=1e-4),
        # ncrit 24 splits some level-3 cells on every seed, so directional
        # expansions there are built by M2M from low-frequency sons
        Workload(
            "helmholtz-sphere", _fibonacci_sphere, stream=2,
            n=4000, kappa_d=32.0, tolerance=1e-2, ncrit=24,
        ),
        # targets on a plane through the body: the two-tree path
        Workload(
            "field-ellipse", _pole_ellipsoid, stream=3,
            n=12000, kappa_d=16.0, tolerance=1e-3, targets=_plane_grid,
        ),
    )
}


def make_problem(workload: Workload, seed: int) -> Problem:
    """The inputs of one run; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, workload.stream])
    points = workload.points(workload.n, rng)
    targets = points if workload.targets is None else workload.targets()
    charges = (_charges(workload.n, rng), _charges(workload.n, rng))
    side = root_side(np.vstack([points, targets]))
    m = targets.shape[0]
    sample = np.sort(rng.choice(m, size=min(N_SAMPLE, m), replace=False))
    return Problem(
        points=points,
        targets=targets,
        charges=charges,
        kappa=workload.kappa_d / side,
        sample=sample,
        singularity_tol=1e-12 * side,
    )


def direct_sum(problem: Problem, charges: np.ndarray, block: int = 256) -> np.ndarray:
    """sum_j exp(i kappa r_ij) / (4 pi r_ij) q_j at the sampled targets.

    ``charges`` is one vector (n,) or several as columns (n, k).

    Pairs closer than the singularity tolerance contribute nothing, as in
    the program's kernel, so each target skips itself as a source.
    """
    pts = problem.targets[problem.sample]
    out = np.empty((pts.shape[0],) + charges.shape[1:], dtype=complex)
    for lo in range(0, pts.shape[0], block):
        d = pts[lo : lo + block, None, :] - problem.points[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        far = r >= problem.singularity_tol
        r = np.where(far, r, 1.0)
        g = np.where(far, np.exp(1j * problem.kappa * r) / (4.0 * np.pi * r), 0.0)
        out[lo : lo + block] = g @ charges
    return out


def rel_l2(reference: np.ndarray, approx: np.ndarray) -> float:
    return float(np.linalg.norm(approx - reference) / np.linalg.norm(reference))


def reciprocity_gap(q: np.ndarray, u_q: np.ndarray, p: np.ndarray, u_p: np.ndarray) -> float:
    """|p^T u_q - q^T u_p| / (|p| |u_q| + |q| |u_p|), with u = FMM(charges).

    The kernel matrix is complex symmetric, so the exact gap is 0; an
    approximation of relative l2 error e moves it by at most about e.
    """
    gap = abs(p @ u_q - q @ u_p)
    scale = np.linalg.norm(p) * np.linalg.norm(u_q) + np.linalg.norm(q) * np.linalg.norm(u_p)
    return float(gap / scale)
