"""Ncrit-based octree over Morton-sorted particles, held as per-cell arrays.

Each cell owns a contiguous index range start:stop into the sorted particle
arrays, so its particles (and those of all its descendants) are consecutive
in memory.  The tree is a handful of per-cell arrays, cells ordered level
by level and in Morton order within a level: start, stop, integer
coordinates, number of sons and first son (the sons of a cell are
consecutive cells), and the level offsets, the cells of level l being
offsets[l]:offsets[l + 1].  The leaves are the cells with n_sons 0, and the
cell with coordinates c at level l spans root_box.lower + c * side_at(l)
to root_box.lower + (c + 1) * side_at(l).  The tree knows positions only:
the traversal module plans on these arrays, and keeps the charges, the
expansions and the potentials in per-apply arrays of its own, the charges
and potentials in tree order, mapped from and to the caller's order by
ParticleSet.original_index.

``Cell`` is a read-only view of one cell, with its sons, for the event log:
the tree builds all of them once, on the first access to ``levels`` or
``cells``, so a solve that logs no events builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import MAX_MORTON_DEPTH, BoundingBox, compute_root_box, morton_encode_many

__all__ = ["ParticleSet", "Cell", "ClusterTree", "build_tree"]

SQRT3 = float(np.sqrt(3.0))


def cell_radius(side: float) -> float:
    """Half-diagonal of a cube of side ``side``: the radius of the smallest
    ball containing it."""
    return SQRT3 * side / 2.0


@dataclass
class ParticleSet:
    """Structure-of-arrays particle storage in Morton-sorted order."""

    positions: np.ndarray  # (n, 3) float
    original_index: np.ndarray  # sorted index -> input index


@dataclass(frozen=True, eq=False)
class Cell:
    """Read-only view of one cell of a ClusterTree."""

    level: int
    coords: np.ndarray  # integer cell coordinates at this level
    start: int
    stop: int
    index: int  # position in ClusterTree.cells
    sons: tuple

    @property
    def is_leaf(self) -> bool:
        return not self.sons


@dataclass
class ClusterTree:
    root_box: BoundingBox
    # per cell, level by level: particle range start:stop (int64), integer
    # coordinates (n_cells, 3), number of sons and index of the first son
    # (int32); and the level offsets (depth + 2,)
    start: np.ndarray = field(repr=False)
    stop: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)
    n_sons: np.ndarray = field(repr=False)
    first_son: np.ndarray = field(repr=False)
    offsets: np.ndarray
    _cells: list | None = field(default=None, init=False, repr=False)

    @property
    def depth(self) -> int:
        return len(self.offsets) - 2

    @property
    def n_cells(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.n_sons == 0))

    def side_at(self, level: int) -> float:
        return self.root_box.side / (1 << level)

    def cell_levels(self) -> np.ndarray:
        """The level of each cell."""
        return np.repeat(np.arange(self.depth + 1), np.diff(self.offsets))

    @property
    def cells(self) -> list:
        """Every cell as a Cell, level by level; cells[c.index] is c.  Built
        once, on first access."""
        if self._cells is None:
            levels = self.cell_levels().tolist()
            spans = list(zip(self.start.tolist(), self.stop.tolist()))
            first, count = self.first_son.tolist(), self.n_sons.tolist()
            cells = [None] * self.n_cells
            for i in reversed(range(self.n_cells)):  # sons before their father
                sons = tuple(cells[first[i] : first[i] + count[i]])
                cells[i] = Cell(levels[i], self.coords[i].astype(np.int64), *spans[i], i, sons)
            self._cells = cells
        return self._cells

    @property
    def levels(self) -> list:
        """levels[k]: the Cells of depth k."""
        cells = self.cells
        return [cells[a:b] for a, b in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())]


def build_tree(
    points: np.ndarray,
    ncrit: int = 64,
    root_box: BoundingBox | None = None,
) -> tuple[ClusterTree, ParticleSet]:
    """Build the octree and the particles' positions in its sorted order.

    Each particle is quantised to integer coordinates at depth
    ``MAX_MORTON_DEPTH`` and the particles are sorted once by their Morton
    codes (stably, so coincident points keep their input order).  The cells
    of level ``l`` are the runs of equal prefix
    ``code >> 3 * (MAX_MORTON_DEPTH - l)``; level by level, every cell
    holding more than ``ncrit`` particles is split: its sons start at its
    own start and at every prefix change strictly inside its range.  Empty
    cells never appear, sons come in Morton order, and a coincident cluster
    stops at depth ``MAX_MORTON_DEPTH`` as one oversized leaf.
    ``root_box``, when given, must contain every particle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError(f"points must have shape (n, 3) with n >= 1, not {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("particle coordinates must be finite")
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

    # per level, the cells' ranges, coordinates and fathers (none at the root)
    starts, stops = [np.zeros(1, dtype=np.int64)], [np.array([n])]
    coords, fathers = [np.zeros((1, 3), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    base = 0  # the index of the last level's first cell
    for level in range(1, top + 1):
        split = np.flatnonzero(stops[-1] - starts[-1] > ncrit)
        if not len(split):
            break
        lo, hi = starts[-1][split], stops[-1][split]
        prefix = codes >> np.uint64(3 * (top - level))
        cuts = np.flatnonzero(prefix[1:] != prefix[:-1]) + 1
        # a cut starts a son if it lies strictly inside the split cell before
        # it (held); a level's cells are disjoint and ordered by start
        held = np.maximum(np.searchsorted(lo, cuts, side="right") - 1, 0)
        first = np.sort(np.concatenate([lo, cuts[(cuts > lo[held]) & (cuts < hi[held])]]))
        father = np.searchsorted(lo, first, side="right") - 1
        fathers.append(base + split[father])
        base += len(starts[-1])
        starts.append(first)
        stops.append(np.minimum(np.append(first[1:], n), hi[father]))  # next son or father's end
        coords.append(grid[first] >> (top - level))

    offsets = np.cumsum([0] + [len(s) for s in starts])
    n_sons = np.bincount(np.concatenate(fathers), minlength=offsets[-1]).astype(np.int32)
    tree = ClusterTree(
        root_box=root_box,
        start=np.concatenate(starts),
        stop=np.concatenate(stops),
        coords=np.concatenate(coords).astype(np.int32),
        n_sons=n_sons,
        # level l + 1 holds the sons of level l's cells in their order, so
        # the sons of cell i follow the root and the sons of cells 0..i-1
        first_son=(np.cumsum(n_sons) - n_sons + 1).astype(np.int32),
        offsets=offsets,
    )
    return tree, ParticleSet(positions=points[perm], original_index=perm)
