"""Property tests of the octree on degenerate clouds.

Each cloud is small, so a failing example shrinks to a handful of points.
The invariants checked are those every pass of the solver relies on: leaves
tile the sorted particle range, each cell holds only particles of its own
closed cube, sons come in Morton order and the sort is a permutation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helmfmm.geometry import MAX_MORTON_DEPTH, BoundingBox, morton_encode_many
from helmfmm.tree import build_tree

SETTINGS = settings(max_examples=40, deadline=None, database=None)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
ncrits = st.integers(1, 12)


def _cloud(n_max=40):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, n_max), st.just(3)), elements=unit)


@st.composite
def with_duplicates(draw):
    """A random cloud with some of its points repeated exactly."""
    pts = draw(_cloud())
    copies = draw(st.lists(st.integers(0, pts.shape[0] - 1), max_size=20))
    return np.vstack([pts, pts[copies]])


@st.composite
def planar(draw):
    """A random cloud with one coordinate held constant."""
    pts = draw(_cloud())
    pts[:, draw(st.integers(0, 2))] = draw(unit)
    return pts


@st.composite
def far_clusters(draw):
    """Two tight clusters far apart relative to their spread."""
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    gap = draw(st.sampled_from([10.0, 1e3, 1e5]))
    a = draw(_cloud(20)) * spread
    b = draw(_cloud(20)) * spread + [gap, -gap / 3, 0.5 * gap]
    return np.vstack([a, b])


def _check(points, ncrit, root_box=None):
    n = points.shape[0]
    tree, pset = build_tree(points, np.ones(n), ncrit=ncrit, root_box=root_box)
    box = tree.root_box

    assert np.array_equal(np.sort(pset.original_index), np.arange(n))
    assert np.array_equal(pset.positions, points[pset.original_index])

    ranges = sorted((c.start, c.stop) for c in tree.leaves)
    assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
    assert ranges[-1][1] == n

    # rounding of the quantisation: a few ulps of the box coordinates
    tol = 1e-12 * (box.side + np.abs(box.center).max())
    for cell in tree.cells:
        assert cell.n_particles > 0
        local = pset.positions[cell.start : cell.stop]
        assert np.all(local >= cell.frame.alpha - tol)
        assert np.all(local <= cell.frame.alpha + cell.frame.beta + tol)
        if cell.is_leaf:
            assert cell.n_particles <= ncrit or cell.level == MAX_MORTON_DEPTH
            continue
        coords = np.array([s.coords for s in cell.sons])
        assert np.all(coords >> 1 == cell.coords)
        codes = morton_encode_many(coords, cell.level + 1)
        assert np.all(np.diff(codes.astype(np.int64)) > 0)
        assert [s.start for s in cell.sons] == [cell.start] + [s.stop for s in cell.sons[:-1]]
        assert cell.sons[-1].stop == cell.stop
    assert tree.depth <= MAX_MORTON_DEPTH


@SETTINGS
@given(with_duplicates(), ncrits)
def test_clouds_with_coincident_duplicates(points, ncrit):
    _check(points, ncrit)


@SETTINGS
@given(planar(), ncrits)
def test_planar_clouds(points, ncrit):
    _check(points, ncrit)


@SETTINGS
@given(far_clusters(), ncrits)
def test_two_far_clusters(points, ncrit):
    _check(points, ncrit)


@SETTINGS
@given(_cloud(), ncrits, hnp.arrays(np.float64, 3, elements=unit), st.floats(1.0, 4.0))
def test_explicit_box(points, ncrit, center, stretch):
    half = np.abs(points - center).max() * stretch + 1e-6
    _check(points, ncrit, BoundingBox(center=center, half_width=half))
