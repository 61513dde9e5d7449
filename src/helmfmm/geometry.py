"""The root box and Morton codes of the octree.

The root box is a cube, and every cell at depth ``k`` is an axis-aligned
cube of side ``side(root) / 2**k`` addressed by integer coordinates ``c``
in ``[0, 2**k)``: it spans ``lower(root) + c * side`` to
``lower(root) + (c + 1) * side``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundingBox",
    "compute_root_box",
    "morton_encode_many",
    "MAX_MORTON_DEPTH",
]

# 21 levels of 3 bits each fit in a uint64 with room to spare.
MAX_MORTON_DEPTH = 21

# compute_root_box inflates the cube by this relative margin, so that
# boundary particles fall strictly inside
ROOT_MARGIN = 1e-6


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned cube given by its center and half side length."""

    center: np.ndarray  # shape (3,)
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(self.center)):
            raise ValueError("box center must be finite")
        if not (self.half_width > 0):
            raise ValueError("half_width must be positive")

    @property
    def side(self) -> float:
        return 2.0 * self.half_width

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= self.lower) & (p <= self.lower + self.side), axis=1)


def compute_root_box(points: np.ndarray) -> BoundingBox:
    """Smallest cube centered on the centroid containing all points,
    inflated by ROOT_MARGIN."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError("points must have shape (n, 3) with n >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    center = pts.mean(axis=0)
    half = np.max(np.abs(pts - center)) if pts.shape[0] > 1 else 0.5
    if half < np.finfo(float).tiny * (1 << MAX_MORTON_DEPTH):
        half = 0.5  # coincident, or too close for the deepest cells to have a side
    return BoundingBox(center=center, half_width=half * (1.0 + ROOT_MARGIN))


def _part_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each entry so consecutive bits are 3 apart."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def morton_encode_many(coords: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized Morton codes for an (n, 3) array of integer coordinates."""
    coords = np.asarray(coords)
    if depth < 0 or depth > MAX_MORTON_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_MORTON_DEPTH}]")
    if coords.size and (coords.min() < 0 or coords.max() >= 1 << depth):
        raise ValueError("coordinates out of range for depth")
    x, y, z = (coords[:, k].astype(np.uint64) for k in range(3))
    # axis 0 occupies the most significant bit of each 3-bit group
    return (_part_bits(x) << np.uint64(2)) | (_part_bits(y) << np.uint64(1)) | _part_bits(z)
