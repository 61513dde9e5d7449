"""Deterministic particle distribution generators for the experiments.

Shapes follow the classical test cases: volumic uniform cube, quasi-uniform
unit-sphere surface, cube surface refined toward edges and corners, and an
elongated ellipsoid surface concentrated at its poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Distribution", "generate_distribution", "random_charges", "KINDS"]

KINDS = ("uniform-cube", "sphere", "refined-cube", "ellipse")


@dataclass(frozen=True)
class Distribution:
    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _uniform_cube(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n, 3))


def _sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    # Fibonacci lattice: quasi-uniform points on the unit sphere
    i = np.arange(n) + 0.5
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _edge_warp(u: np.ndarray) -> np.ndarray:
    """Map uniform [-1,1] samples toward the interval ends (cubic-root warp)."""
    return np.sign(u) * np.cbrt(np.abs(u))


def _refined_cube(n: int, rng: np.random.Generator) -> np.ndarray:
    # points on the faces of [0,1]^3, in-face coordinates concentrated at
    # edges and corners
    face = rng.integers(0, 6, size=n)
    uv = _edge_warp(rng.uniform(-1.0, 1.0, size=(n, 2))) * 0.5 + 0.5
    pts = np.empty((n, 3))
    axis = face // 2
    side = (face % 2).astype(float)
    for a in range(3):
        m = axis == a
        others = [b for b in range(3) if b != a]
        pts[m, a] = side[m]
        pts[m, others[0]] = uv[m, 0]
        pts[m, others[1]] = uv[m, 1]
    return pts


def _ellipse(n: int, rng: np.random.Generator) -> np.ndarray:
    # axis-ratio-4 ellipsoid surface; polar-angle warp concentrates samples
    # at the two poles (+-x)
    cos_theta = _edge_warp(rng.uniform(-1.0, 1.0, size=n))
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta**2))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack(
        [
            cos_theta,
            0.25 * sin_theta * np.cos(phi),
            0.25 * sin_theta * np.sin(phi),
        ]
    )


_GENERATORS = {
    "uniform-cube": _uniform_cube,
    "sphere": _sphere,
    "refined-cube": _refined_cube,
    "ellipse": _ellipse,
}


def generate_distribution(dist: Distribution) -> np.ndarray:
    """(n, 3) particle positions, deterministic in the seed."""
    rng = np.random.default_rng(dist.seed)
    return _GENERATORS[dist.kind](dist.n, rng)


def random_charges(n: int, seed: int) -> np.ndarray:
    """Charges uniform over the complex unit square, fixed seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=n) + 1j * rng.uniform(0.0, 1.0, size=n)
