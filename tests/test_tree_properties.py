"""Property tests of the octree and of the solver on degenerate clouds.

Each cloud is small, so a failing example shrinks to a handful of points.
The invariants checked are those every pass of the solver relies on: leaves
tile the sorted particle range, each cell holds only particles of its own
closed cube, sons come in Morton order and the sort is a permutation.  On
the same clouds the FMM must match the direct sum, at kappa = 0 and in the
directional regime.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helmfmm.geometry import MAX_MORTON_DEPTH, BoundingBox, compute_root_box, morton_encode_many
from helmfmm.kernel import HelmholtzKernel, direct_sum, relative_errors
from helmfmm.traversal import FmmConfig, run_fmm_full
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
    tree, pset = build_tree(points, ncrit=ncrit, root_box=root_box)
    box = tree.root_box

    assert np.array_equal(np.sort(pset.original_index), np.arange(n))
    assert np.array_equal(pset.positions, points[pset.original_index])

    leaves = tree.n_sons == 0
    ranges = sorted(zip(tree.start[leaves].tolist(), tree.stop[leaves].tolist()))
    assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
    assert ranges[-1][1] == n

    # rounding of the quantisation: a few ulps of the box coordinates
    tol = 1e-12 * (box.side + np.abs(box.center).max())
    for cell in tree.cells:
        count = cell.stop - cell.start
        assert count > 0
        side = tree.side_at(cell.level)
        lower = box.lower + cell.coords * side
        local = pset.positions[cell.start : cell.stop]
        assert np.all(local >= lower - tol)
        assert np.all(local <= lower + side + tol)
        if cell.is_leaf:
            assert count <= ncrit or cell.level == MAX_MORTON_DEPTH
            continue
        coords = np.array([s.coords for s in cell.sons])
        assert np.all(coords >> 1 == cell.coords)
        codes = morton_encode_many(coords, cell.level + 1)
        assert np.all(np.diff(codes.astype(np.int64)) > 0)
        assert [s.start for s in cell.sons] == [cell.start] + [s.stop for s in cell.sons[:-1]]
        assert cell.sons[-1].stop == cell.stop
    assert tree.depth <= MAX_MORTON_DEPTH


# two points a subnormal distance apart: a root box too small to split
SUBNORMAL_PAIR = np.array([[5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]])


@SETTINGS
@given(with_duplicates(), ncrits)
@example(SUBNORMAL_PAIR, 1)
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


# kappa * D = 10 makes levels 0-2 high-frequency, and the directional MAC
# admits level-2 pairs two cells apart
KAPPA_D = (0.0, 10.0)
FMM_ORDER = 6
# about 4 times the worst rel l2 error measured at order 6 over 800 random
# examples of each test: 3.7e-4 at kappa = 0 and 2.5e-4 at kappa*D = 10
FMM_TOL = 1.5e-3
fmm_ncrits = st.integers(1, 4)
# the same examples on every run: the tolerance is a measured bound
FMM_SETTINGS = settings(SETTINGS, derandomize=True)


def _check_fmm(targets, sources, ncrit):
    """FMM against the direct sum, with kappa scaled to the root box the
    solver builds, so that kappa * D and the refinements stay fixed."""
    same = targets is sources
    box = compute_root_box(sources if same else np.vstack([targets, sources]))
    rng = np.random.default_rng(len(sources))
    q = rng.normal(size=len(sources)) + 1j * rng.normal(size=len(sources))
    for kappa_d in KAPPA_D:
        config = FmmConfig(order=FMM_ORDER, ncrit=ncrit, kappa=kappa_d / box.side)
        pot, info = run_fmm_full(targets, sources, q, config)
        assert (info.hf_max_level >= 0) == (kappa_d > 0)
        kernel = HelmholtzKernel(kappa=config.kappa, singularity_tol=1e-12 * box.side)
        ref = direct_sum(kernel, targets, sources, q)
        scale = np.abs(ref).max()
        if scale == 0:
            # every pair coincident: the suppressed self-interactions only
            assert not np.any(pot)
        else:
            # scaled, so that close pairs' large potentials do not overflow
            assert relative_errors(ref / scale, pot / scale).rel_l2 < FMM_TOL


@FMM_SETTINGS
@given(with_duplicates(), fmm_ncrits)
@example(SUBNORMAL_PAIR, 1)
def test_fmm_on_clouds_with_coincident_duplicates(points, ncrit):
    _check_fmm(points, points, ncrit)


@FMM_SETTINGS
@given(planar(), fmm_ncrits)
def test_fmm_on_planar_clouds(points, ncrit):
    _check_fmm(points, points, ncrit)


@FMM_SETTINGS
@given(far_clusters(), fmm_ncrits)
def test_fmm_on_two_far_clusters(points, ncrit):
    _check_fmm(points, points, ncrit)


@FMM_SETTINGS
@given(_cloud(), planar(), fmm_ncrits)
def test_fmm_with_targets_outside_the_sources(sources, targets, ncrit):
    # the sources lie in [-1, 1]^3, the targets on a plane beyond x = 2
    _check_fmm(targets + [3.0, 0.0, 0.0], sources, ncrit)
