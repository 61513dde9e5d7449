"""Nested unit-direction sets built from subdivided cube faces.

Refinement 0 holds the 6 projected cube-face centers (the +-axis unit
vectors).  Each refinement splits every face into 4 equal sub-faces and
projects the sub-face centers onto the unit sphere, giving 6 * 4**e
directions at refinement e.  Father links follow the face subdivision:
every direction at refinement e+1 has a unique father at refinement e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import MAX_BLOCK_ENTRIES

__all__ = [
    "DirectionTree",
    "generate_direction_tree",
    "nearest_direction",
    "father_direction",
]

# (axis held fixed, sign) for the 6 faces of the cube [-1,1]^3
_FACES = [(0, +1), (0, -1), (1, +1), (1, -1), (2, +1), (2, -1)]


@dataclass(frozen=True)
class DirectionTree:
    """levels[e]: (6*4**e, 3) unit vectors; fathers[e][i] indexes levels[e-1]."""

    levels: list
    fathers: list

    @property
    def max_refinement(self) -> int:
        return len(self.levels) - 1

    def count(self, refinement: int) -> int:
        return self.levels[refinement].shape[0]


def generate_direction_tree(max_refinement: int) -> DirectionTree:
    if max_refinement < 0:
        raise ValueError("max_refinement must be >= 0")
    levels = []
    fathers = []
    for e in range(max_refinement + 1):
        m = 1 << e  # sub-faces per face edge
        # sub-face (i, j) of a face, i major; its center is the mean of its
        # corners, at in-face coordinates (u, v) in [-1, 1]
        i, j = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
        uv = np.stack([-1.0 + (2.0 * i + 1.0) / m, -1.0 + (2.0 * j + 1.0) / m], axis=1)
        dirs, fa = [], []
        for f, (axis, sign) in enumerate(_FACES):
            p = np.empty((m * m, 3))
            p[:, axis] = float(sign)
            p[:, [a for a in range(3) if a != axis]] = uv
            dirs.append(p / np.linalg.norm(p, axis=1)[:, None])
            # containing sub-face one refinement coarser
            fa.append((f * (m // 2) + i // 2) * (m // 2) + j // 2)
        levels.append(np.concatenate(dirs))
        fathers.append(np.concatenate(fa).astype(np.int64) if e else None)
    return DirectionTree(levels=levels, fathers=fathers)


def nearest_direction(tree: DirectionTree, refinement: int, v: np.ndarray) -> np.ndarray:
    """The (k,) indices of the refinement-level directions closest to the
    rows of a (k, 3) stack of unit vectors.

    Ties are broken by smallest index (argmin semantics).  The stack goes in
    slices whose (rows, 6 * 4**refinement, 3) differences stay within
    MAX_BLOCK_ENTRIES entries.
    """
    if refinement < 0 or refinement > tree.max_refinement:
        raise ValueError("refinement out of range")
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"v must have shape (k, 3), not {v.shape}")
    # written so that a NaN or infinite row fails the test too
    if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-9):
        raise ValueError("each row of v must be a unit vector")
    dirs = tree.levels[refinement]
    out = np.empty(len(v), dtype=np.int64)
    step = max(1, MAX_BLOCK_ENTRIES // dirs.size)
    for lo in range(0, len(v), step):
        d2 = np.sum((dirs - v[lo : lo + step, None, :]) ** 2, axis=2)
        out[lo : lo + step] = np.argmin(d2, axis=1)
    return out


def father_direction(tree: DirectionTree, refinement: int, index):
    """Father (refinement-1) index of a direction, or of each of an array of
    directions, under face subdivision."""
    if refinement <= 0:
        raise ValueError("directions at the coarsest refinement have no father")
    return tree.fathers[refinement][index]
