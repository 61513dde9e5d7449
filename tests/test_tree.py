import numpy as np
import pytest

from helmfmm.geometry import MAX_MORTON_DEPTH, BoundingBox, compute_root_box, morton_encode_many
from helmfmm.kernel import direct_sum
from helmfmm.traversal import FmmConfig, plan_fmm
from helmfmm.tree import build_tree


def _uniform_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 3))
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    return pts, q


def test_leaf_sizes_and_range_partition():
    pts, q = _uniform_problem(100)
    tree, pset = build_tree(pts, ncrit=10)
    leaves = tree.n_sons == 0
    ranges = sorted(zip(tree.start[leaves].tolist(), tree.stop[leaves].tolist()))
    assert all(stop - start <= 10 for start, stop in ranges)
    # leaf ranges tile [0, n) without gaps or overlaps
    assert ranges[0][0] == 0
    assert ranges[-1][1] == 100
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_internal_ranges_cover_sons():
    pts, q = _uniform_problem(400, seed=1)
    tree, _ = build_tree(pts, ncrit=20)
    for level in tree.levels:
        for cell in level:
            if cell.is_leaf:
                continue
            assert cell.start == cell.sons[0].start
            assert cell.stop == cell.sons[-1].stop
            assert sum(s.stop - s.start for s in cell.sons) == cell.stop - cell.start


def test_sons_in_morton_order_and_no_empty_cells():
    pts, q = _uniform_problem(500, seed=2)
    tree, _ = build_tree(pts, ncrit=16)
    for level in tree.levels:
        for cell in level:
            assert cell.stop - cell.start > 0
            if cell.sons:
                coords = np.array([s.coords for s in cell.sons])
                codes = morton_encode_many(coords, cell.level + 1).tolist()
                assert codes == sorted(codes)


def test_leaves_tile_the_morton_curve():
    """Leaves in range order have strictly increasing Morton key intervals."""
    pts, q = _uniform_problem(600, seed=3)
    tree, pset = build_tree(pts, ncrit=8)
    box = tree.root_box
    leaves = np.flatnonzero(tree.n_sons == 0)
    levels = tree.cell_levels()
    prev_hi = -1
    for leaf in leaves[np.argsort(tree.start[leaves])]:
        level = int(levels[leaf])
        code = int(morton_encode_many(tree.coords[leaf][None, :], level)[0])
        shift = 3 * (tree.depth - level)
        lo = code << shift
        assert lo > prev_hi
        prev_hi = ((code + 1) << shift) - 1
        # every particle of the leaf lands in the leaf's own cell
        n_side = 1 << level
        local = pset.positions[tree.start[leaf] : tree.stop[leaf]]
        coords = np.clip(((local - box.lower) / box.side * n_side).astype(np.int64), 0, n_side - 1)
        assert np.all(morton_encode_many(coords, level) == code)


def test_cells_contain_their_particles():
    """Every cell, internal ones included, holds only particles of its own
    cube lower + coords * side to lower + (coords + 1) * side."""
    pts, q = _uniform_problem(300, seed=4)
    tree, pset = build_tree(pts, ncrit=25)
    assert tree.depth >= 2
    side = tree.root_box.side / (1 << tree.cell_levels())
    lower = tree.root_box.lower + tree.coords * side[:, None]
    for i in range(tree.n_cells):
        local = pset.positions[tree.start[i] : tree.stop[i]]
        assert np.all(local >= lower[i] - 1e-12)
        assert np.all(local <= lower[i] + side[i] + 1e-12)


def test_charges_permuted_consistently():
    """The tree permutes the positions; apply permutes the charges by the
    same original_index, and its potentials back to the caller's order.
    With one leaf the solve is one direct sum in tree order, so the
    un-permuted sorted sum is bitwise apply's answer."""
    pts, q = _uniform_problem(200, seed=5)
    tree, pset = build_tree(pts, ncrit=10)
    assert np.allclose(pset.positions, pts[pset.original_index])
    plan = plan_fmm(pts, pts, FmmConfig(order=3, ncrit=200, kappa=2.0))
    at = plan.source_pset.original_index
    assert plan.counts["m2l_events"] == 0 and not np.array_equal(at, np.arange(200))
    pot, _ = plan.apply(q)
    expected = np.empty_like(pot)
    expected[at] = direct_sum(plan.kernel, pts[at], pts[at], q[at])
    assert pot.tobytes() == expected.tobytes()


def test_coincident_points_respect_depth_cap():
    pts = np.tile([0.3, 0.3, 0.3], (50, 1))
    q = np.ones(50, dtype=complex)
    tree, _ = build_tree(pts, ncrit=4)
    assert tree.depth <= MAX_MORTON_DEPTH
    # the coincident cluster ends up in one oversized leaf
    leaves = tree.n_sons == 0
    assert (tree.stop - tree.start)[leaves].max() == 50


def test_cell_index_is_position_in_cells():
    pts, q = _uniform_problem(300, seed=8)
    tree, _ = build_tree(pts, ncrit=16)
    cells = tree.cells
    assert len(cells) == tree.n_cells
    assert all(cells[c.index] is c for c in cells)


def test_cell_arrays_match_the_cells():
    pts, q = _uniform_problem(300, seed=8)
    pts[:40] = pts[0]  # a coincident cluster: one chain down to a deep leaf
    tree, _ = build_tree(pts, ncrit=16)
    for cell in tree.cells:
        i = cell.index
        assert tree.coords[i].tolist() == cell.coords.tolist()
        assert tree.n_sons[i] == len(cell.sons)
        first = int(tree.first_son[i])
        assert [son.index for son in cell.sons] == list(range(first, first + len(cell.sons)))
    assert tree.coords.dtype == tree.n_sons.dtype == tree.first_son.dtype == np.int32


def test_build_tree_input_validation():
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (0, 3)])
def test_build_tree_checks_points_with_a_root_box(shape):
    """An explicit root box does not skip the check compute_root_box makes:
    points of shape (n, 3) with n >= 1."""
    box = BoundingBox(center=np.zeros(3), half_width=1.0)
    with pytest.raises(ValueError, match=r"points must have shape \(n, 3\)"):
        build_tree(np.zeros(shape), root_box=box)

def test_build_tree_rejects_points_outside_root_box():
    box = BoundingBox(center=np.zeros(3), half_width=1.0)
    pts = np.zeros((10, 3))
    pts[3] = [5.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="outside the root box"):
        build_tree(pts, ncrit=2, root_box=box)
    # the closed cube is accepted, faces included
    pts[3] = [1.0, -1.0, 1.0]
    tree, pset = build_tree(pts, ncrit=2, root_box=box)
    assert len(pset.positions) == 10


def _reference_arrays(points, ncrit):
    """The tree's per-cell arrays and level sizes, built one cell at a time:
    level by level, every cell of more than ncrit particles is cut where
    the Morton prefix of the next level changes."""
    box = compute_root_box(points)
    top = MAX_MORTON_DEPTH
    grid = ((points - box.lower) * ((1 << top) / box.side)).astype(np.int64)
    grid = np.clip(grid, 0, (1 << top) - 1)
    codes = morton_encode_many(grid, top)
    order = np.argsort(codes, kind="stable")
    codes, grid = codes[order].tolist(), grid[order]
    levels = [[(0, len(points), (0, 0, 0))]]
    n_sons = []
    for level in range(1, top + 1):
        shift = 3 * (top - level)
        sons, counts = [], []
        for start, stop, _ in levels[-1]:
            bounds = [start]
            if stop - start > ncrit:
                inner = range(start + 1, stop)
                bounds += [i for i in inner if codes[i] >> shift != codes[i - 1] >> shift]
                bounds.append(stop)
            counts.append(len(bounds) - 1)
            for a, b in zip(bounds, bounds[1:]):
                sons.append((a, b, tuple((grid[a] >> (top - level)).tolist())))
        n_sons += counts
        if not sons:
            break
        levels.append(sons)
    else:
        n_sons += [0] * len(levels[-1])
    cells = [cell for level in levels for cell in level]
    first_son = (np.cumsum(n_sons) - n_sons + 1).tolist()
    return {
        "start": [c[0] for c in cells],
        "stop": [c[1] for c in cells],
        "coords": [list(c[2]) for c in cells],
        "n_sons": n_sons,
        "first_son": first_son,
        "sizes": [len(level) for level in levels],
    }


def _clouds():
    rng = np.random.default_rng(20)
    uniform = rng.uniform(size=(700, 3))
    clustered = rng.uniform(size=(300, 3))
    clustered[:70] = clustered[0]  # stops at depth 21 as one oversized leaf
    return {
        "uniform": uniform,
        "coincident": np.tile([0.3, 0.7, 0.1], (40, 1)),
        "planar": rng.uniform(size=(500, 3)) * [1.0, 1.0, 0.0],
        "far-clusters": np.vstack(
            [rng.uniform(size=(150, 3)) * 1e-3, rng.uniform(size=(150, 3)) * 1e-3 + 50.0]
        ),
        "coincident-cluster": clustered,
    }


@pytest.mark.parametrize("ncrit", [1, 4, 24, 64])
@pytest.mark.parametrize("cloud", list(_clouds()))
def test_array_build_equals_the_per_cell_loop(cloud, ncrit):
    points = _clouds()[cloud]
    tree, _ = build_tree(points, ncrit)
    ref = _reference_arrays(points, ncrit)
    assert tree.start.tolist() == ref["start"]
    assert tree.stop.tolist() == ref["stop"]
    assert tree.coords.tolist() == ref["coords"]
    assert tree.n_sons.tolist() == ref["n_sons"]
    assert tree.first_son.tolist() == ref["first_son"]
    assert np.diff(tree.offsets).tolist() == ref["sizes"]
    assert tree.depth == len(ref["sizes"]) - 1
    if cloud == "coincident-cluster" and ncrit < 70:
        assert tree.depth == MAX_MORTON_DEPTH
