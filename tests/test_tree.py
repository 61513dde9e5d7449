import numpy as np
import pytest

from helmfmm.geometry import MAX_MORTON_DEPTH, BoundingBox, compute_root_box, morton_encode_many
from helmfmm.tree import accumulate_potentials, build_tree


def _uniform_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 3))
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    return pts, q


def test_leaf_sizes_and_range_partition():
    pts, q = _uniform_problem(100)
    tree, pset = build_tree(pts, q, ncrit=10)
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
    tree, _ = build_tree(pts, q, ncrit=20)
    for level in tree.levels:
        for cell in level:
            if cell.is_leaf:
                continue
            assert cell.start == cell.sons[0].start
            assert cell.stop == cell.sons[-1].stop
            assert sum(s.stop - s.start for s in cell.sons) == cell.stop - cell.start


def test_sons_in_morton_order_and_no_empty_cells():
    pts, q = _uniform_problem(500, seed=2)
    tree, _ = build_tree(pts, q, ncrit=16)
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
    tree, pset = build_tree(pts, q, ncrit=8)
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
    tree, pset = build_tree(pts, q, ncrit=25)
    assert tree.depth >= 2
    side = tree.root_box.side / (1 << tree.cell_levels())
    lower = tree.root_box.lower + tree.coords * side[:, None]
    for i in range(tree.n_cells):
        local = pset.positions[tree.start[i] : tree.stop[i]]
        assert np.all(local >= lower[i] - 1e-12)
        assert np.all(local <= lower[i] + side[i] + 1e-12)


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
    leaves = tree.n_sons == 0
    assert (tree.stop - tree.start)[leaves].max() == 50


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


@pytest.mark.parametrize("shape", [(5, 1), (5, 2), ()])
def test_build_tree_rejects_charges_not_one_dimensional(shape):
    pts, _ = _uniform_problem(5, seed=10)
    with pytest.raises(ValueError, match=r"charges must have shape \(n,\)"):
        build_tree(pts, np.ones(shape, dtype=complex))


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (0, 3)])
def test_build_tree_checks_points_with_a_root_box(shape):
    """An explicit root box does not skip the check compute_root_box makes:
    points of shape (n, 3) with n >= 1."""
    box = BoundingBox(center=np.zeros(3), half_width=1.0)
    with pytest.raises(ValueError, match=r"points must have shape \(n, 3\)"):
        build_tree(np.zeros(shape), np.ones(shape[0]), root_box=box)

def test_build_tree_rejects_points_outside_root_box():
    box = BoundingBox(center=np.zeros(3), half_width=1.0)
    pts = np.zeros((10, 3))
    pts[3] = [5.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="outside the root box"):
        build_tree(pts, np.ones(10), ncrit=2, root_box=box)
    # the closed cube is accepted, faces included
    pts[3] = [1.0, -1.0, 1.0]
    tree, pset = build_tree(pts, np.ones(10), ncrit=2, root_box=box)
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
    tree, _ = build_tree(points, np.ones(len(points)), ncrit)
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
