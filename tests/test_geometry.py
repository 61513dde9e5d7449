import numpy as np
import pytest

from helmfmm.geometry import (
    MAX_MORTON_DEPTH,
    BoundingBox,
    compute_root_box,
    morton_encode_many,
)
from helmfmm.tree import build_tree


def test_root_box_is_cube_containing_all_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3)) * [1.0, 3.0, 0.2]
    box = compute_root_box(pts)
    assert np.all(box.contains(pts))
    assert box.side == 2.0 * box.half_width


def test_root_box_single_and_coincident_points():
    box = compute_root_box(np.array([[1.0, 2.0, 3.0]]))
    assert box.contains(np.array([1.0, 2.0, 3.0]))[0]
    box2 = compute_root_box(np.tile([0.5, 0.5, 0.5], (4, 1)))
    assert box2.half_width > 0


def test_root_box_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_root_box(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        compute_root_box(np.array([[0.0, np.nan, 0.0]]))


def _interleave(coords, depth):
    """Scalar Morton code: bit b of axis k lands at bit 3b + (2 - k)."""
    code = 0
    for bit in range(depth):
        for axis in range(3):
            code |= ((int(coords[axis]) >> bit) & 1) << (3 * bit + 2 - axis)
    return code


def test_morton_known_values():
    # at depth 1 the code is the octant number with x as the high bit
    coords = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]])
    assert morton_encode_many(coords, 1).tolist() == [0, 1, 2, 4, 7]
    assert morton_encode_many(np.zeros((1, 3), dtype=np.int64), 0).tolist() == [0]


def test_morton_many_matches_scalar():
    rng = np.random.default_rng(2)
    for depth in (1, 7, MAX_MORTON_DEPTH):
        coords = rng.integers(0, 1 << depth, size=(200, 3))
        codes = morton_encode_many(coords, depth)
        assert [int(c) for c in codes] == [_interleave(c, depth) for c in coords]


def test_morton_rejects_out_of_range():
    with pytest.raises(ValueError):
        morton_encode_many(np.array([[0, 0, 8]]), 3)
    with pytest.raises(ValueError):
        morton_encode_many(np.array([[-1, 0, 0]]), 3)
    with pytest.raises(ValueError):
        morton_encode_many(np.array([[0, 1, 0]]), 0)
    with pytest.raises(ValueError):
        morton_encode_many(np.zeros((1, 3), dtype=np.int64), MAX_MORTON_DEPTH + 1)


def test_morton_order_refines_with_depth():
    """Codes sorted at depth k stay sorted when truncated to a shallower depth."""
    rng = np.random.default_rng(3)
    coords = rng.integers(0, 1 << 4, size=(300, 3))
    coords = coords[np.argsort(morton_encode_many(coords, 4), kind="stable")]
    shallow = morton_encode_many(coords >> 2, 2)
    assert np.all(np.diff(shallow.astype(np.int64)) >= 0)


def test_sort_is_stable_for_coincident_points():
    pts = np.tile([0.25, 0.25, 0.25], (10, 1))
    box = BoundingBox(center=np.array([0.5, 0.5, 0.5]), half_width=0.5)
    _, pset = build_tree(pts, ncrit=4, root_box=box)
    assert np.array_equal(pset.original_index, np.arange(10))
