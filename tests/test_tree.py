import numpy as np
import pytest

from helmfmm.geometry import MAX_MORTON_DEPTH, BoundingBox, morton_encode_many
from helmfmm.tree import accumulate_potentials, build_tree


def _uniform_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 3))
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    return pts, q


def test_leaf_sizes_and_range_partition():
    pts, q = _uniform_problem(100)
    tree, pset = build_tree(pts, q, ncrit=10)
    ranges = sorted((c.start, c.stop) for c in tree.leaves)
    assert all(c.n_particles <= 10 for c in tree.leaves)
    # leaf ranges tile [0, n) without gaps or overlaps
    assert ranges[0][0] == 0
    assert ranges[-1][1] == 100
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_internal_ranges_cover_sons():
    pts, q = _uniform_problem(400, seed=1)
    tree, _ = build_tree(pts, q, ncrit=20)
    for level in tree.levels:
        for cell in level:
            if cell.is_leaf:
                continue
            assert cell.start == cell.sons[0].start
            assert cell.stop == cell.sons[-1].stop
            assert sum(s.n_particles for s in cell.sons) == cell.n_particles


def test_sons_in_morton_order_and_no_empty_cells():
    pts, q = _uniform_problem(500, seed=2)
    tree, _ = build_tree(pts, q, ncrit=16)
    for level in tree.levels:
        for cell in level:
            assert cell.n_particles > 0
            if cell.sons:
                coords = np.array([s.coords for s in cell.sons])
                codes = morton_encode_many(coords, cell.level + 1).tolist()
                assert codes == sorted(codes)


def test_leaves_tile_the_morton_curve():
    """Leaves in range order have strictly increasing Morton key intervals."""
    pts, q = _uniform_problem(600, seed=3)
    tree, pset = build_tree(pts, q, ncrit=8)
    box = tree.root_box
    leaves = sorted(tree.leaves, key=lambda c: c.start)
    prev_hi = -1
    for leaf in leaves:
        code = int(morton_encode_many(leaf.coords[None, :], leaf.level)[0])
        shift = 3 * (tree.depth - leaf.level)
        lo = code << shift
        assert lo > prev_hi
        prev_hi = ((code + 1) << shift) - 1
        # every particle of the leaf lands in the leaf's own cell
        n_side = 1 << leaf.level
        local = pset.positions[leaf.start : leaf.stop]
        coords = np.clip(((local - box.lower) / box.side * n_side).astype(np.int64), 0, n_side - 1)
        assert np.all(morton_encode_many(coords, leaf.level) == code)


def test_cells_contain_their_particles():
    pts, q = _uniform_problem(300, seed=4)
    tree, pset = build_tree(pts, q, ncrit=25)
    for cell in tree.leaves:
        local = pset.positions[cell.start : cell.stop]
        assert np.all(local >= cell.frame.alpha - 1e-12)
        assert np.all(local <= cell.frame.alpha + cell.frame.beta + 1e-12)


def test_charges_permuted_consistently():
    pts, q = _uniform_problem(200, seed=5)
    tree, pset = build_tree(pts, q, ncrit=10)
    assert np.allclose(pset.positions, pts[pset.original_index])
    assert np.allclose(pset.charges, q[pset.original_index])


def test_accumulate_potentials_inverts_the_sort():
    pts, q = _uniform_problem(150, seed=6)
    _, pset = build_tree(pts, q, ncrit=10)
    # mark each sorted slot with its original index as a payload
    pset.potentials[:] = pset.original_index.astype(complex)
    out = accumulate_potentials(pset)
    assert np.allclose(out, np.arange(150))


def test_coincident_points_respect_depth_cap():
    pts = np.tile([0.3, 0.3, 0.3], (50, 1))
    q = np.ones(50, dtype=complex)
    tree, _ = build_tree(pts, q, ncrit=4)
    assert tree.depth <= MAX_MORTON_DEPTH
    # the coincident cluster ends up in one oversized leaf
    assert max(c.n_particles for c in tree.leaves) == 50


def test_cell_index_is_position_in_cells():
    pts, q = _uniform_problem(300, seed=8)
    tree, _ = build_tree(pts, q, ncrit=16)
    cells = tree.cells
    assert len(cells) == tree.n_cells
    assert all(cells[c.index] is c for c in cells)


def test_cell_arrays_match_the_cells():
    pts, q = _uniform_problem(300, seed=8)
    pts[:40] = pts[0]  # a coincident cluster: one chain down to a deep leaf
    tree, _ = build_tree(pts, q, ncrit=16)
    for cell in tree.cells:
        i = cell.index
        assert tree.coords[i].tolist() == cell.coords.tolist()
        assert tree.n_sons[i] == len(cell.sons)
        first = int(tree.first_son[i])
        assert [son.index for son in cell.sons] == list(range(first, first + len(cell.sons)))
    assert tree.coords.dtype == tree.n_sons.dtype == tree.first_son.dtype == np.int32


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_build_tree_rejects_non_finite_charges(bad):
    pts, q = _uniform_problem(300, seed=9)
    q[123] = bad
    with pytest.raises(ValueError, match="charges must be finite"):
        build_tree(pts, q)


def test_build_tree_input_validation():
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        build_tree(np.zeros((3, 3)), np.zeros(2))


def test_build_tree_rejects_points_outside_root_box():
    box = BoundingBox(center=np.zeros(3), half_width=1.0)
    pts = np.zeros((10, 3))
    pts[3] = [5.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="outside the root box"):
        build_tree(pts, np.ones(10), ncrit=2, root_box=box)
    # the closed cube is accepted, faces included
    pts[3] = [1.0, -1.0, 1.0]
    tree, pset = build_tree(pts, np.ones(10), ncrit=2, root_box=box)
    assert pset.n == 10
