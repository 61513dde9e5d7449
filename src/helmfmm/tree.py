"""Ncrit-based octree over Morton-sorted particles.

Each cell owns a contiguous index range into the sorted particle arrays, so
its particles (and those of all its descendants) are consecutive in memory.
Expansion coefficients live on the cells as per-direction dictionaries and
are filled by the traversal driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BoundingBox,
    CellFrame,
    MortonKey,
    compute_root_box,
    morton_encode_many,
)

__all__ = [
    "TreeConfig",
    "ParticleSet",
    "Cell",
    "ClusterTree",
    "build_tree",
    "accumulate_potentials",
]

SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class TreeConfig:
    ncrit: int = 64
    hard_depth_cap: int = 30

    def __post_init__(self):
        if self.ncrit < 1:
            raise ValueError("ncrit must be >= 1")
        if self.hard_depth_cap < 0:
            raise ValueError("hard_depth_cap must be >= 0")


@dataclass
class ParticleSet:
    """Structure-of-arrays particle storage in Morton-sorted order."""

    positions: np.ndarray  # (n, 3) float
    charges: np.ndarray  # (n,) complex
    potentials: np.ndarray  # (n,) complex, accumulated in place
    original_index: np.ndarray  # sorted index -> input index

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass
class Cell:
    key: MortonKey
    level: int
    coords: np.ndarray  # integer cell coordinates at this level
    start: int
    stop: int
    frame: CellFrame
    index: int = -1  # position in ClusterTree.cells
    sons: list = field(default_factory=list)
    # direction ids this cell was marked with during the blank passes
    marks: set = field(default_factory=set)
    # expansion storage, keyed by direction id (None in the low-frequency
    # regime); nodal vectors of length L^3, Fourier vectors of length (2L-1)^3
    multipole: dict = field(default_factory=dict)
    multipole_hat: dict = field(default_factory=dict)
    local: dict = field(default_factory=dict)
    local_hat: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.sons

    @property
    def n_particles(self) -> int:
        return self.stop - self.start

    @property
    def center(self) -> np.ndarray:
        return self.frame.center

    @property
    def side(self) -> float:
        return self.frame.beta

    @property
    def radius(self) -> float:
        """Half-diagonal: radius of the smallest ball containing the cell."""
        return SQRT3 * self.frame.beta / 2.0


@dataclass
class ClusterTree:
    root_box: BoundingBox
    root: Cell
    levels: list  # levels[k] = list of cells at depth k
    config: TreeConfig

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def n_cells(self) -> int:
        return sum(len(lv) for lv in self.levels)

    @property
    def cells(self) -> list:
        """Every cell, level by level; cells[c.index] is c."""
        return [c for lv in self.levels for c in lv]

    @property
    def leaves(self) -> list:
        return [c for lv in self.levels for c in lv if c.is_leaf]

    def side_at(self, level: int) -> float:
        return self.root_box.side / (1 << level)


def build_tree(
    points: np.ndarray,
    charges: np.ndarray,
    config: TreeConfig = TreeConfig(),
    root_box: BoundingBox | None = None,
) -> tuple[ClusterTree, ParticleSet]:
    """Build the octree and the consistently permuted particle arrays.

    Cells are split until they hold at most ``ncrit`` particles or the depth
    cap is reached (coincident-point clusters then become oversized leaves).
    Empty cells are never materialized and sons are ordered by Morton key,
    so the recursive partition leaves the particles Morton-sorted at the
    deepest realized level.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    charges = np.asarray(charges, dtype=complex)
    if points.shape[0] == 0:
        raise ValueError("at least one particle is required")
    if points.shape[0] != charges.shape[0]:
        raise ValueError("points and charges length mismatch")
    if not np.all(np.isfinite(points)):
        raise ValueError("particle coordinates must be finite")
    if not np.all(np.isfinite(charges)):
        raise ValueError("charges must be finite")
    if root_box is None:
        root_box = compute_root_box(points)

    n = points.shape[0]
    perm = np.arange(n)
    order = points.copy()  # working copy, permuted in place alongside perm

    levels: list[list[Cell]] = []

    def make_cell(code: int, level: int, coords: np.ndarray, start: int, stop: int) -> Cell:
        key = MortonKey(code=code, depth=level)
        beta = root_box.side / (1 << level)
        frame = CellFrame(alpha=root_box.lower + coords * beta, beta=beta)
        cell = Cell(key=key, level=level, coords=coords.copy(), start=start, stop=stop, frame=frame)
        while len(levels) <= level:
            levels.append([])
        levels[level].append(cell)
        return cell

    def split(cell: Cell):
        if cell.n_particles <= config.ncrit or cell.level >= config.hard_depth_cap:
            return
        lo, hi = cell.start, cell.stop
        center = cell.frame.center
        pts = order[lo:hi]
        octant = (
            (pts[:, 0] >= center[0]).astype(np.int64) * 4
            + (pts[:, 1] >= center[1]).astype(np.int64) * 2
            + (pts[:, 2] >= center[2]).astype(np.int64)
        )
        local = np.argsort(octant, kind="stable")
        order[lo:hi] = pts[local]
        perm[lo:hi] = perm[lo:hi][local]
        octant = octant[local]
        bounds = np.searchsorted(octant, np.arange(9))
        for o in range(8):
            a, b = int(bounds[o]), int(bounds[o + 1])
            if a == b:
                continue
            oc = np.array([(o >> 2) & 1, (o >> 1) & 1, o & 1], dtype=np.int64)
            son = make_cell(
                code=(cell.key.code << 3) | o,
                level=cell.level + 1,
                coords=cell.coords * 2 + oc,
                start=lo + a,
                stop=lo + b,
            )
            cell.sons.append(son)
            split(son)

    root = make_cell(0, 0, np.zeros(3, dtype=np.int64), 0, n)
    split(root)
    for i, cell in enumerate(c for lv in levels for c in lv):
        cell.index = i

    pset = ParticleSet(
        positions=order,
        charges=charges[perm].copy(),
        potentials=np.zeros(n, dtype=complex),
        original_index=perm,
    )
    return ClusterTree(root_box=root_box, root=root, levels=levels, config=config), pset


def morton_codes_at_depth(tree: ClusterTree, pset: ParticleSet, depth: int) -> np.ndarray:
    """Morton codes of the sorted particles at a given depth (test hook)."""
    from .geometry import point_cell_coords

    coords = point_cell_coords(pset.positions, tree.root_box, depth)
    return morton_encode_many(coords, depth)


def accumulate_potentials(pset: ParticleSet) -> np.ndarray:
    """Potentials permuted back to the caller's original particle order."""
    out = np.empty_like(pset.potentials)
    out[pset.original_index] = pset.potentials
    return out
