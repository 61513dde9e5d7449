"""Ncrit-based octree over Morton-sorted particles.

Each cell owns a contiguous index range into the sorted particle arrays, so
its particles (and those of all its descendants) are consecutive in memory.
A cell holds its geometry only: the traversal module keeps the expansions
in per-solve arrays, one row per (cell, direction) that the solve uses.
The tree also holds each cell's coordinates, son count and first son as
int32 arrays, which the traversal plans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MAX_MORTON_DEPTH,
    BoundingBox,
    CellFrame,
    compute_root_box,
    morton_encode_many,
)

__all__ = [
    "ParticleSet",
    "Cell",
    "ClusterTree",
    "build_tree",
    "accumulate_potentials",
]

SQRT3 = float(np.sqrt(3.0))


def cell_radius(side: float) -> float:
    """Half-diagonal of a cube of side ``side``: the radius of the smallest
    ball containing it."""
    return SQRT3 * side / 2.0


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
    level: int
    coords: np.ndarray  # integer cell coordinates at this level
    start: int
    stop: int
    frame: CellFrame
    index: int = -1  # position in ClusterTree.cells
    sons: list = field(default_factory=list)

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
        return cell_radius(self.frame.beta)


@dataclass
class ClusterTree:
    root_box: BoundingBox
    root: Cell
    levels: list  # levels[k] = list of cells at depth k
    # per cell, indexed like cells: integer coordinates (n_cells, 3), number
    # of sons and index of the first son, all int32; the sons of a cell are
    # consecutive cells
    coords: np.ndarray = field(init=False, repr=False)
    n_sons: np.ndarray = field(init=False, repr=False)
    first_son: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cells = self.cells
        self.coords = np.array([c.coords for c in cells], dtype=np.int32).reshape(-1, 3)
        self.n_sons = np.array([len(c.sons) for c in cells], dtype=np.int32)
        # level l + 1 holds the sons of level l's cells in their order, so
        # the sons of cell i follow the root and the sons of cells 0..i-1
        self.first_son = (np.cumsum(self.n_sons) - self.n_sons + 1).astype(np.int32)

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
    ncrit: int = 64,
    root_box: BoundingBox | None = None,
) -> tuple[ClusterTree, ParticleSet]:
    """Build the octree and the consistently permuted particle arrays.

    Each particle is quantised to integer coordinates at depth
    ``MAX_MORTON_DEPTH`` and the particles are sorted once by their Morton
    codes (stably, so coincident points keep their input order).  The cells
    of level ``l`` are the runs of equal prefix
    ``code >> 3 * (MAX_MORTON_DEPTH - l)``; level by level, every cell
    holding more than ``ncrit`` particles is cut where that prefix changes.
    Empty cells never appear, sons come in Morton order, and a coincident
    cluster stops at depth ``MAX_MORTON_DEPTH`` as one oversized leaf.
    ``root_box``, when given, must contain every particle.
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
    elif not np.all(root_box.contains(points)):
        raise ValueError("particle outside the root box")

    n = points.shape[0]
    top = MAX_MORTON_DEPTH
    grid = np.clip(
        ((points - root_box.lower) * ((1 << top) / root_box.side)).astype(np.int64),
        0,
        (1 << top) - 1,
    )
    codes = morton_encode_many(grid, top)
    perm = np.argsort(codes, kind="stable")
    codes, grid = codes[perm], grid[perm]

    def make_cell(level: int, coords: np.ndarray, start: int, stop: int) -> Cell:
        beta = root_box.side / (1 << level)
        frame = CellFrame(alpha=root_box.lower + coords * beta, beta=beta)
        return Cell(level=level, coords=coords, start=start, stop=stop, frame=frame)

    root = make_cell(0, np.zeros(3, dtype=np.int64), 0, n)
    levels = [[root]]
    for level in range(1, top + 1):
        parents = [c for c in levels[-1] if c.n_particles > ncrit]
        if not parents:
            break
        prefix = codes >> np.uint64(3 * (top - level))
        cuts = np.flatnonzero(prefix[1:] != prefix[:-1]) + 1
        levels.append([])
        for parent in parents:
            lo, hi = np.searchsorted(cuts, (parent.start + 1, parent.stop))
            bounds = [parent.start, *cuts[lo:hi].tolist(), parent.stop]
            for a, b in zip(bounds, bounds[1:]):
                son = make_cell(level, grid[a] >> (top - level), a, b)
                parent.sons.append(son)
                levels[-1].append(son)
    for i, cell in enumerate(c for lv in levels for c in lv):
        cell.index = i

    pset = ParticleSet(
        positions=points[perm],
        charges=charges[perm],
        potentials=np.zeros(n, dtype=complex),
        original_index=perm,
    )
    return ClusterTree(root_box=root_box, root=root, levels=levels), pset


def accumulate_potentials(pset: ParticleSet) -> np.ndarray:
    """Potentials permuted back to the caller's original particle order."""
    out = np.empty_like(pset.potentials)
    out[pset.original_index] = pset.potentials
    return out
