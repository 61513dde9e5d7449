from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_tree_properties import FMM_SETTINGS, far_clusters, fmm_ncrits, planar, with_duplicates

from helmfmm import interpolation as interp
from helmfmm import traversal
from helmfmm import tree as tree_module
from helmfmm.directions import father_direction, nearest_direction
from helmfmm.distributions import Distribution, generate_distribution
from helmfmm.fourier import FourierWorkspace, SymbolCache
from helmfmm.geometry import BoundingBox, compute_root_box
from helmfmm.kernel import MAX_BLOCK_ENTRIES, HelmholtzKernel, direct_sum, relative_errors
from helmfmm.tree import Cell, build_tree, cell_radius
from helmfmm.traversal import (
    HF_SWITCH,
    FmmConfig,
    FmmPlan,
    _distance,
    _downward,
    _l2p,
    _lagrange_table,
    _leaf_blocks,
    _p2m,
    _upward,
    _waves,
    admissible,
    dtt,
    plan_fmm,
    run_fmm,
    run_fmm_full,
)

UNIT_BOX = BoundingBox(center=np.array([0.5, 0.5, 0.5]), half_width=0.5)


def _side(level):
    """The side of a level's cells under a unit root box."""
    return 1.0 / (1 << level)


def _reference(points, charges, kappa, box_side=1.0):
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-12 * box_side)
    return direct_sum(ker, points, points, charges)


def _recorded(build):
    """The plan build() makes, and its M2L list as blank_dtt recorded it:
    (target cell, source cell, entry) rows, before _plan_rows rewrote them
    in place."""
    recorded = []
    plan_rows = traversal._plan_rows

    def keep(plan):
        recorded.append(np.frombuffer(plan.m2l_plan, dtype=np.intc).reshape(-1, 3).copy())
        plan_rows(plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traversal, "_plan_rows", keep)
        plan = build()
    return plan, recorded[0]


def _m2l_rows(plan):
    """The rows of target_keys the M2L schedule writes, stack by stack, and
    the rows of source_keys it reads, group by group."""
    written = [np.empty(0, dtype=np.int64)] + [t for _, _, stacks in plan.m2l_groups for t, _ in stacks]
    read = [np.empty(0, dtype=np.int64)] + [s for s, _, _ in plan.m2l_groups]
    return np.concatenate(written), np.concatenate(read)


def _arrays(plan):
    """Zeroed per-apply arrays of a plan, as apply allocates them: the
    multipoles, the locals and the potentials."""
    size = plan.workspace.nodal_size
    return (
        np.zeros((len(plan.source_keys), size), dtype=complex),
        np.zeros((len(plan.target_keys), size), dtype=complex),
        np.zeros(len(plan.target_pset.positions), dtype=complex),
    )


def test_cell_distance_values():
    a, side = np.array([0, 0, 0]), _side(2)
    assert _distance(a - [1, 0, 0], side) == 0.0
    assert _distance(a - [2, 0, 0], side) == pytest.approx(0.25)
    assert _distance(a - [2, 2, 0], side) == pytest.approx(0.25 * np.sqrt(2))


def test_strict_mac_cases():
    a, side = np.array([0, 0, 0]), _side(2)
    assert not admissible(a - a, side)
    assert not admissible(a - [1, 1, 1], side)
    assert admissible(a - [2, 0, 0], side)
    assert admissible(a - [2, 1, 1], side)


def test_directional_mac_thresholds():
    a, side = np.array([0, 0, 0]), _side(2)
    far = np.array([3, 3, 3])
    near = np.array([2, 0, 0])
    w = cell_radius(side)
    dist_far = _distance(a - far, side)
    # pick kappa so the far pair is admissible but the near one is not
    kappa = dist_far / (w * w)
    assert admissible(a - far, side, kappa, 1.0)
    assert not admissible(a - near, side, kappa, 1.0)
    # a larger eta re-admits the near pair when 2w permits
    assert admissible(a - near, side, kappa, 10.0)


def _translations(radius):
    r = np.arange(-radius, radius + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def _reference_mac(tvec, side, kappa, eta):
    """The MAC of one translation in Python integers and floats: strict
    with kappa None, directional otherwise."""
    gap_sq = sum(max(abs(int(v)) - 1, 0) ** 2 for v in tvec)
    if kappa is None:
        return gap_sq >= 1
    w = float(np.sqrt(3.0)) * side / 2.0
    return max(kappa * w * w, 2.0 * w) <= eta * (side * float(np.sqrt(gap_sq)))


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kappa", [0.0, 5.0, 40.0])
def test_array_mac_matches_the_cell_macs(kappa, eta):
    level = 4
    tvecs = _translations(6)
    t = np.array([6, 6, 6])
    side = _side(level)
    strict = admissible(tvecs, side)
    directional = admissible(tvecs, side, kappa, eta)
    for tvec, a, b in zip(tvecs, strict.tolist(), directional.tolist()):
        s = t - tvec  # the source cell's coordinates
        ts = t - s
        assert a == admissible(ts, side) == _reference_mac(tvec, side, None, eta)
        directional_ref = _reference_mac(tvec, side, kappa, eta)
        assert b == admissible(ts, side, kappa, eta) == directional_ref
    # ties admit: a gap of exactly one side, and 2w = eta * dist (kappa*w^2
    # is the smaller term here)
    assert admissible([[2, 0, 0], [2, 1, -1], [-1, 2, 1]], side).all()
    assert not admissible([[1, 1, 1], [0, 0, 0]], side).any()
    if kappa * (np.sqrt(3.0) * side / 2.0) < 2.0:
        tie = {0.5: [3, 3, 3], 1.0: [2, 2, 2]}.get(eta)
        if tie is not None:
            assert admissible(tie, side, kappa, eta)
            assert not admissible(tie, side, kappa, np.nextafter(eta, 0.0))


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_array_mac_admits_the_kappa_w_squared_tie(eta):
    side = 1.0 / 16
    w = float(np.sqrt(3.0)) * side / 2.0
    tvec = [5, -2, 3]
    dist = side * float(np.sqrt(4**2 + 1 + 2**2))
    # the kappa for which kappa * w^2 == eta * dist in floating point
    kappa = eta * dist / (w * w)
    while kappa * w * w > eta * dist:
        kappa = np.nextafter(kappa, 0.0)
    while kappa * w * w < eta * dist:
        kappa = np.nextafter(kappa, np.inf)
    assert kappa * w * w == eta * dist and kappa * w * w > 2.0 * w
    assert admissible(tvec, side, kappa, eta)
    above = np.nextafter(kappa, np.inf)
    while above * w * w == eta * dist:
        above = np.nextafter(above, np.inf)
    assert not admissible(tvec, side, above, eta)


@pytest.mark.parametrize("shape", [(4, 2), (4,), (2, 4, 3)])
def test_targets_must_be_points_in_3d(shape):
    """The two-tree path checks the targets' shape before it stacks them
    with the sources for their common root box."""
    rng = np.random.default_rng(3)
    sources = rng.uniform(size=(50, 3))
    with pytest.raises(ValueError, match=r"targets must have shape \(m, 3\)"):
        run_fmm_full(np.zeros(shape), sources, np.ones(50, dtype=complex))


@pytest.mark.parametrize("shape", [(5, 2), (5,), (2, 5, 3)])
def test_sources_must_be_points_in_3d(shape):
    """The two-tree path checks the sources' shape, too, before it stacks
    them with the targets."""
    targets = np.random.default_rng(3).uniform(size=(4, 3))
    with pytest.raises(ValueError, match=r"sources must have shape \(n, 3\)"):
        run_fmm(targets, np.zeros(shape), np.ones(5))


@pytest.mark.parametrize("empty", ["targets", "sources", "self"])
def test_points_must_not_be_empty(empty):
    """A side with no points raises a ValueError that names it, not the
    tree builder's; on the self path the one array is the targets."""
    points, none = np.random.default_rng(3).uniform(size=(5, 3)), np.zeros((0, 3))
    targets = points if empty == "sources" else none
    sources = points if empty == "targets" else none  # "self": one array
    name, m = ("sources", "n") if empty == "sources" else ("targets", "m")
    with pytest.raises(ValueError, match=rf"{name} must have shape \({m}, 3\) with {m} >= 1"):
        run_fmm(targets, sources, np.ones(len(sources)))


def test_eta_above_one_keeps_the_strict_mac_at_low_frequency():
    """At kappa = 0 every level is low-frequency, where the MAC is
    side <= eta * dist: the gaps are integers, so eta 2 and 100 plan and
    sum exactly as eta 1."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(600, 3))
    q = rng.normal(size=600) + 1j * rng.normal(size=600)
    ref = run_fmm(pts, pts, q, FmmConfig(order=3, ncrit=16))
    for eta in (2.0, 100.0):
        pot = run_fmm(pts, pts, q, FmmConfig(order=3, ncrit=16, eta=eta))
        assert pot.tobytes() == ref.tobytes()


def _low_frequency_gaps(eta):
    """The squared gap sums of the low-frequency M2L translations planned on
    a sphere at kappa = 8, which has high- and low-frequency levels."""
    sources = generate_distribution(Distribution("sphere", 1000))
    config = FmmConfig(order=3, ncrit=8, kappa=8.0, eta=eta)
    plan, cells = _recorded(lambda: plan_fmm(sources, sources, config))
    lf = plan.target_tree.cell_levels()[cells[:, 0]] > plan.hf_max_level
    assert plan.hf_max_level >= 0 and lf.any()
    tt, st = plan.target_tree, plan.source_tree
    tvecs = tt.coords[cells[lf, 0]].astype(np.int64) - st.coords[cells[lf, 1]]
    return (np.maximum(np.abs(tvecs) - 1, 0) ** 2).sum(axis=1)


def test_eta_below_one_tightens_the_low_frequency_mac():
    """At eta = 0.5 a low-frequency M2L needs side <= dist / 2, a squared
    gap sum of at least 4, where eta = 1 admits gap sums from 1."""
    assert (_low_frequency_gaps(0.5) >= 4).all()
    assert (_low_frequency_gaps(1.0) < 4).any()

def test_config_validation():
    with pytest.raises(ValueError):
        FmmConfig(order=1)
    for bad in (0.0, 2.0**-11, np.inf, np.nan):
        with pytest.raises(ValueError):
            FmmConfig(eta=bad)
    assert FmmConfig(eta=2.0**-10).eta == 2.0**-10
    for bad in (-2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            FmmConfig(kappa=bad)
    # eta and kappa are real numbers: no bool, string or complex
    for name in ("eta", "kappa"):
        for bad in (True, False, "1", None, 1j, np.bool_(True)):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                FmmConfig(**{name: bad})
    assert FmmConfig(eta=2, kappa=np.float32(3.0)).kappa == 3.0
    with pytest.raises(ValueError):
        FmmConfig(ncrit=0)
    # order and ncrit are integers: no float, however whole, and no bool
    for bad in (5.0, 2.5, "5", True, np.float64(5.0)):
        with pytest.raises(ValueError, match="order must be an integer"):
            FmmConfig(order=bad)
    for bad in (64.0, 2.5, None, True):
        with pytest.raises(ValueError, match="ncrit must be an integer"):
            FmmConfig(ncrit=bad)
    assert FmmConfig(order=np.int64(4), ncrit=np.int32(16)).order == 4


def _two_cluster_problem():
    """Two compact clusters in opposite level-2 corner cells along x."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.01, 0.23, size=(20, 3))
    b = rng.uniform(0.01, 0.23, size=(20, 3))
    b[:, 0] += 0.76
    pts = np.vstack([a, b])
    q = rng.normal(size=40) + 1j * rng.normal(size=40)
    return pts, q


def test_hf_regime_levels():
    _, plan = _two_cluster_plan(10.0)
    # kappa * w crosses the switch between levels 2 and 3
    assert plan.hf_max_level == 2
    assert plan.is_hf(2) and not plan.is_hf(3)
    assert plan.refinement(2) == 0 and plan.refinement(1) == 1
    assert plan.dirs.count(0) == 6


def _two_cluster_plan(kappa, ncrit=10, eta=1.0, build=lambda make: make()):
    """The tree of the two clusters under UNIT_BOX, and the plan made from
    it, through build (see _recorded)."""
    pts, _ = _two_cluster_problem()
    pair = build_tree(pts, ncrit=ncrit, root_box=UNIT_BOX)
    config = FmmConfig(order=4, ncrit=ncrit, eta=eta, kappa=kappa)
    return pair[0], build(lambda: FmmPlan(config, pair, pair))


def _directions_of(plan, keys, cell):
    """Direction indices of the cell's expansions among the sorted keys."""
    n = plan.n_dirs
    return [int(k) % n for k in keys if k // n == cell.index]


def test_deepest_hf_level_refined_by_kappa_w():
    # kappa * w^2 = 0.75 exceeds the level-2 gap 0.5; eta = 2 admits the pair
    tree, plan = _two_cluster_plan(16.0, eta=2.0)
    # kappa * w = 3.46 at level 2 and 1.73 at level 3
    assert plan.hf_max_level == 2
    assert plan.refinement(2) == 1
    assert plan.dirs.count(1) == 24
    left = {tuple(c.coords): c for c in tree.levels[2]}[(0, 0, 0)]
    for keys in (plan.source_keys, plan.target_keys):
        # the level-2 expansions are directional, at refinement 1
        assert _directions_of(plan, keys, left)
        assert all(d < plan.dirs.count(1) for d in _directions_of(plan, keys, left))
        # the sons are low-frequency: each takes the one direction-free expansion
        assert all(_directions_of(plan, keys, son) == [0] for son in left.sons)


@pytest.mark.parametrize("kappa", [10.0, 16.0, 40.0])
def test_refinement_steps_by_one_per_hf_level(kappa):
    _, plan = _two_cluster_plan(kappa)
    assert plan.dirs.max_refinement == plan.refinement(0)
    for level in range(plan.hf_max_level):
        assert plan.refinement(level) == plan.refinement(level + 1) + 1
    for level in range(plan.hf_max_level + 1):
        kw = kappa * np.sqrt(3.0) / 2.0 / (1 << level)
        e = plan.refinement(level)
        # refinement e halves the cone aperture e times: it tracks kappa * w
        assert 2.0 ** (e - 0.5) <= kw / HF_SWITCH < 2.0 ** (e + 0.5)


def test_shallow_tree_refines_leaves_by_kappa_w():
    tree, plan = _two_cluster_plan(20.0, ncrit=25)
    # each cluster fits one level-1 leaf, where kappa * w = 8.66
    assert tree.depth == 1 and plan.hf_max_level == 1
    assert plan.refinement(1) == 2 and plan.refinement(0) == 3


@pytest.mark.parametrize(
    "kappa, regimes",
    [
        (0.0, {(False, False)}),
        (10.0, {(True, True), (True, False), (False, False)}),
        (40.0, {(True, True), (True, False)}),
    ],
)
def test_direction_tables_per_level(kappa, regimes):
    """units[level] is the one zero row at a low-frequency level and the
    level's direction set at a high-frequency one; hand_down[level] is each
    index's father direction where level + 1 is high-frequency, else 0."""
    tree, plan = _two_cluster_plan(kappa)
    assert len(plan.units) == len(plan.hand_down) == tree.depth + 1
    pairs = set()
    for level, (units, hand) in enumerate(zip(plan.units, plan.hand_down)):
        if plan.is_hf(level):
            assert np.array_equal(units, plan.dirs.levels[plan.refinement(level)])
        else:
            assert units.tolist() == [[0.0, 0.0, 0.0]]
        if plan.is_hf(level + 1):
            e = plan.refinement(level)
            expected = [father_direction(plan.dirs, e, d) for d in range(len(units))]
        else:
            expected = [0] * len(units)
        assert hand.tolist() == expected
        pairs.add((plan.is_hf(level), plan.is_hf(level + 1)))
    # the (father, son) regimes the tables were checked on
    assert pairs == regimes


def _below(cell):
    """Indices of the cell and of all its descendants."""
    yield cell.index
    for son in cell.sons:
        yield from _below(son)


def test_kappa_zero_has_no_hf_levels():
    tree, (plan, recorded) = _two_cluster_plan(0.0, build=_recorded)
    assert plan.hf_max_level == -1
    assert plan.dirs is None
    triplets = recorded.tolist()
    # no directions: one expansion per cell, in every cell M2L reads or
    # writes and below it
    assert plan.n_dirs == 1
    cells = tree.cells
    sources = {i for _, si, _ in triplets for i in _below(cells[si])}
    targets = {i for ti, _, _ in triplets for i in _below(cells[ti])}
    assert plan.source_keys.tolist() == sorted(sources)
    assert plan.target_keys.tolist() == sorted(targets)
    written, _ = _m2l_rows(plan)
    assert sorted(plan.target_keys[written].tolist()) == sorted({ti for ti, _, _ in triplets})


def _axis_directions(plan, keys, cell):
    """x components of the unit directions of the cell's expansions."""
    return {plan.dirs.levels[0][d][0] for d in _directions_of(plan, keys, cell)}


def test_blank_pass_marks_axis_direction():
    tree, plan = _two_cluster_plan(10.0)

    cells = {tuple(c.coords): c for c in tree.levels[2]}
    left = cells[(0, 0, 0)]
    right = cells[(3, 0, 0)]
    # the pair is seen in both orders, so both +x and -x appear, at
    # refinement 0: each is an axis direction
    both = _axis_directions(plan, plan.source_keys, left) | _axis_directions(
        plan, plan.target_keys, left
    )
    assert both == {1.0, -1.0}
    for cell in (left, right):
        for keys in (plan.source_keys, plan.target_keys):
            assert all(
                np.abs(plan.dirs.levels[0][d]).max() == 1.0 for d in _directions_of(plan, keys, cell)
            )
    # the cached symbols carry the tagged directions
    assert plan.cache.n_translations == 2
    # refinement-0 directions have no father to hand down: the low-frequency
    # sons take the direction-free expansion only
    for son in left.sons:
        assert _directions_of(plan, plan.source_keys, son) == [0]
        assert _directions_of(plan, plan.target_keys, son) == [0]


def test_each_side_builds_only_the_directions_it_uses():
    tree, plan = _two_cluster_plan(10.0)
    cells = {tuple(c.coords): c for c in tree.levels[2]}
    left, right = cells[(0, 0, 0)], cells[(3, 0, 0)]
    # M2L into the right cell reads the left multipole along +x, and M2L
    # into the left cell reads the right multipole along -x
    assert _axis_directions(plan, plan.source_keys, left) == {1.0}
    assert _axis_directions(plan, plan.target_keys, left) == {-1.0}
    assert _axis_directions(plan, plan.source_keys, right) == {-1.0}
    assert _axis_directions(plan, plan.target_keys, right) == {1.0}


def _refinement(config, side):
    """round(log2(kappa * w / HF_SWITCH)) of a high-frequency cell of side
    ``side``."""
    return int(np.floor(np.log2(config.kappa * cell_radius(side) / HF_SWITCH) + 0.5))


def test_effective_expansions_are_those_m2l_and_m2m_read():
    pts = generate_distribution(Distribution("sphere", 1000))
    q = np.random.default_rng(13).normal(size=1000) + 0j
    config = FmmConfig(order=3, ncrit=8, kappa=20.0)
    events = []
    _, info = run_fmm_full(pts, pts, q, config, events=events)
    plan = plan_fmm(pts, pts, config)
    tree, dirs = plan.source_tree, plan.dirs
    hf = info.hf_max_level

    def direction(t, s):
        if t.level > hf:
            return 0
        tvec = t.coords - s.coords
        refinement = _refinement(config, tree.side_at(t.level))
        return nearest_direction(dirs, refinement, (tvec / np.linalg.norm(tvec))[None])[0]

    read = set()

    def add(cell, d):
        if (cell.index, d) in read:
            return
        read.add((cell.index, d))
        for son in cell.sons:
            son_hf = son.level <= hf
            refinement = _refinement(config, tree.side_at(cell.level))
            add(son, father_direction(dirs, refinement, d) if son_hf else 0)

    m2l = [e for e in events if e.kind == "M2L"]
    for e in m2l:
        add(e.source, direction(e.target, e.source))
    # directional M2L above the deepest high-frequency level: its
    # directions are handed down to high-frequency sons
    assert any(e.target.level < hf for e in m2l)
    assert info.counts["effective_expansions"] == len(read)


def _planned(kappa):
    return _two_cluster_plan(kappa, eta=2.0)[1]


def _planned_sphere_and_plane():
    """A two-tree plan at kappa = 20 whose directional M2L lies above the
    deepest high-frequency level."""
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    return plan_fmm(targets, sources, FmmConfig(order=3, ncrit=8, kappa=20.0))


@pytest.mark.parametrize(
    "planned, regimes",
    [
        (lambda: _planned(0.0), {(False, False)}),
        (lambda: _planned(16.0), {(True, False)}),
        (_planned_sphere_and_plane, {(True, True)}),
    ],
    ids=["0.0", "16.0", "sphere-plane"],
)
def test_son_links_follow_the_hand_down_rule(planned, regimes):
    """Each side's son links are one per (father row, son), fathers
    row-major and each father's sons in Morton order: the link's son row
    holds the son's key son.index * n_dirs + its handed-down direction
    (the father direction's father_direction where the son is
    high-frequency, else 0), and its octant code is
    (son.coords - 2 * father.coords) @ (4, 2, 1)."""
    plan = planned()
    n = plan.n_dirs
    seen = set()
    for tree, keys, links in (
        (plan.source_tree, plan.source_keys, plan.source_links),
        (plan.target_tree, plan.target_keys, plan.target_links),
    ):
        cells = tree.cells
        expected = []
        for row, key in enumerate(keys.tolist()):
            father, d = cells[key // n], key % n
            for son in father.sons:
                son_hf = plan.is_hf(son.level)
                sd = father_direction(plan.dirs, plan.refinement(father.level), d) if son_hf else 0
                code = int((son.coords - 2 * father.coords) @ (4, 2, 1))
                expected.append((father.level, row, son.index, son.index * n + sd, code))
                seen.add((plan.is_hf(father.level), son_hf))
        got = [
            (level, f, s, int(keys[r]), o)
            for level, *columns in links
            for f, s, r, o in zip(*(c.tolist() for c in columns))
        ]
        assert got == expected
        # one table per father level that has links, from the top
        assert [link[0] for link in links] == sorted({e[0] for e in expected})
    # the (father, son) regimes the links were checked on
    assert seen == regimes


def _son_key(plan, tree, keys):
    """Key of the first son expansion that a cell's M2M reads or L2L writes."""
    n = plan.n_dirs
    cells = tree.cells
    key = next(int(k) for k in keys if cells[k // n].sons)
    father, d = cells[key // n], key % n
    son_hf = plan.is_hf(father.level + 1)
    sd = father_direction(plan.dirs, plan.refinement(father.level), d) if son_hf else 0
    return father.sons[0].index * n + sd


@pytest.mark.parametrize("kappa", [0.0, 16.0])
def test_upward_pass_fails_on_a_missing_son_multipole(kappa):
    plan = _planned(kappa)
    tree = plan.source_tree
    victim = _son_key(plan, tree, plan.source_keys)
    assert victim in plan.source_keys
    plan.source_keys = plan.source_keys[plan.source_keys != victim]
    # as a walk that dropped the key would leave the plan: the leaf blocks
    # come from the keys
    plan.source_blocks = _leaf_blocks(plan, tree, plan.source_keys)
    multipole, _, _ = _arrays(plan)
    with pytest.raises(RuntimeError, match="missing son expansion"):
        _upward(plan, np.ones(len(plan.source_pset.positions), dtype=complex), multipole)


@pytest.mark.parametrize("kappa", [0.0, 16.0])
def test_downward_pass_fails_on_a_missing_son_local(kappa):
    plan = _planned(kappa)
    tree = plan.target_tree
    q = np.ones(len(plan.source_pset.positions), dtype=complex)
    multipole, _, potentials = _arrays(plan)
    _upward(plan, q, multipole)
    victim = _son_key(plan, tree, plan.target_keys)
    keys = plan.target_keys
    assert victim in keys and victim not in keys[_m2l_rows(plan)[0]]
    plan.target_keys = keys[keys != victim]
    # as a walk that dropped the key would leave the plan: the rows M2L
    # writes come from the keys
    plan.m2l_groups = [
        (s, e, [(np.searchsorted(plan.target_keys, keys[t]), count) for t, count in stacks])
        for s, e, stacks in plan.m2l_groups
    ]
    _, local, _ = _arrays(plan)
    dtt(plan, q, multipole, local, potentials)
    with pytest.raises(RuntimeError, match="missing son expansion"):
        _downward(plan, local, potentials)


@pytest.mark.parametrize("spread", [3, 1000])
def test_distinct_translations_match_numpy_unique(spread):
    # translations coded over a tight and over a sparse bounding box
    rng = np.random.default_rng(17)
    tvecs = rng.integers(-spread, spread + 1, size=(500, 3)).astype(np.int32)
    distinct, inverse = traversal._distinct(tvecs)
    ref, ref_inverse = np.unique(tvecs, axis=0, return_inverse=True)
    assert np.array_equal(distinct, ref) and distinct.dtype == np.int64
    assert np.array_equal(inverse, ref_inverse.reshape(-1))


def _recursive_plan(plan):
    """The interaction lists of the recursive dual tree traversal, per
    level: M2L as (target, source, diagonal, direction), P2P as (target,
    source), with symbols from a cache of its own."""
    cache = SymbolCache(plan.kernel, plan.config.order, plan.target_tree.root_box.side)
    config = plan.config
    m2l, p2p = {}, {}

    def visit(t, s):
        tvec = t.coords - s.coords
        hf = plan.is_hf(t.level)
        side = plan.target_tree.side_at(t.level)
        if admissible(tvec, side, config.kappa if hf else None, config.eta):
            unit = tvec / np.linalg.norm(tvec)
            d = nearest_direction(plan.dirs, plan.refinement(t.level), unit[None])[0] if hf else 0
            diagonal = cache.diagonal(cache.get(t.level, tvec[None])[0])
            m2l.setdefault(t.level, []).append((t.index, s.index, diagonal, d))
        elif t.is_leaf or s.is_leaf:
            p2p.setdefault(t.level, []).append((t.index, s.index))
        else:
            for t2 in t.sons:
                for s2 in s.sons:
                    visit(t2, s2)

    visit(plan.target_tree.cells[0], plan.source_tree.cells[0])
    return m2l, p2p


def _assert_planned_as_the_recursion(targets, sources, config):
    """blank_dtt's lists, level by level and in order, are the recursion's,
    each M2L with the same diagonal and direction; returns the plan and its
    P2P pairs."""
    plan, recorded = _recorded(lambda: plan_fmm(targets, sources, config))
    m2l, p2p = _recursive_plan(plan)
    cells = plan.target_tree.cells
    planned = {}
    for t, s, entry in recorded.tolist():
        diagonal, d = plan.cache.diagonal(entry), plan.cache.directions[entry]
        planned.setdefault(cells[t].level, []).append((t, s, diagonal, d))
    assert planned.keys() == m2l.keys()
    for level, ref in m2l.items():
        got = planned[level]
        assert [(t, s, d) for t, s, _, d in got] == [(t, s, d) for t, s, _, d in ref]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(got, ref))
    pairs = {}
    it = iter(plan.p2p_plan)
    for t, s in zip(it, it):
        pairs.setdefault(cells[t].level, []).append((t, s))
    assert pairs == p2p
    return plan, [pair for level in pairs.values() for pair in level]


@pytest.mark.parametrize("chunk", [None, 97])
def test_plan_matches_the_recursion_on_a_laplace_cube(monkeypatch, chunk):
    if chunk:  # levels taken in many slices
        monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", chunk)
    pts = generate_distribution(Distribution("uniform-cube", 2000, 3))
    plan, _ = _assert_planned_as_the_recursion(pts, pts, FmmConfig(order=3, ncrit=16, kappa=0.0))
    assert plan.hf_max_level == -1 and plan.target_tree.depth >= 3


@pytest.mark.parametrize("chunk", [None, 97])
def test_plan_matches_the_recursion_on_a_directional_sphere(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", chunk)
    pts = generate_distribution(Distribution("sphere", 1000))
    plan, _ = _assert_planned_as_the_recursion(pts, pts, FmmConfig(order=3, ncrit=8, kappa=20.0))
    assert plan.hf_max_level >= 2 and plan.refinement(0) > plan.refinement(plan.hf_max_level)


@pytest.mark.parametrize("kappa", [0.0, 6.0])
def test_plan_matches_the_recursion_on_two_trees(kappa):
    targets, sources, _ = _plane_over_cloud()
    config = FmmConfig(order=3, ncrit=16, kappa=kappa)
    plan, pairs = _assert_planned_as_the_recursion(targets, sources, config)
    tcells, scells = plan.target_tree.cells, plan.source_tree.cells
    assert any(not (tcells[t].is_leaf and scells[s].is_leaf) for t, s in pairs)


@FMM_SETTINGS
@given(st.one_of(with_duplicates(), planar(), far_clusters()), fmm_ncrits, st.sampled_from([0.0, 10.0]))
def test_plan_matches_the_recursion_on_degenerate_clouds(points, ncrit, kappa_d):
    side = compute_root_box(points).side
    config = FmmConfig(order=3, ncrit=ncrit, kappa=kappa_d / side)
    _assert_planned_as_the_recursion(points, points, config)


def _counting(monkeypatch, name, seen):
    """Wrap traversal.<name>, appending the arguments of each call to seen."""
    original = getattr(traversal, name)

    def wrapper(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(traversal, name, wrapper)


def test_translation_slices_keep_the_potentials(monkeypatch):
    """M2M and L2L take an octant's links in slices of at most
    MAX_BLOCK_ENTRIES entries; slices of two links sum every row in the
    same order as whole octants, so on the same leaf blocks the potentials
    are bitwise the same."""
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(400, 3))
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    config = FmmConfig(order=3, ncrit=4, kappa=12.0)
    widths = []
    apply = interp.apply_strategy
    monkeypatch.setattr(
        interp, "apply_strategy", lambda s, f, x: widths.append(x.shape[1]) or apply(s, f, x)
    )
    plan = plan_fmm(pts, pts, config)
    whole, _ = plan.apply(q)
    assert max(widths) > 2
    widths.clear()
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", 2 * config.order**3)
    sliced_plan = plan_fmm(pts, pts, config)
    # P2M and L2P pad a leaf to the largest of its block, and a product's
    # bits depend on its padded length: keep the whole plan's leaf blocks
    sliced_plan.source_blocks, sliced_plan.target_blocks = plan.source_blocks, plan.target_blocks
    sliced, _ = sliced_plan.apply(q)
    assert max(widths) == 2
    assert sliced.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "n,width,sizes",
    [(0, 1, []), (5, 9, [1] * 5), (12, 2, [4, 4, 4]), (10, 2, [4, 4, 2])],
    ids=["empty", "width-above-the-bound", "exact-multiple", "ragged"],
)
def test_blocks_tile_the_rows_in_order(monkeypatch, n, width, sizes):
    """_blocks slices n rows into blocks of MAX_BLOCK_ENTRIES // width rows,
    one row where width exceeds the bound, the last block ragged."""
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", 8)
    rows = [list(range(n)[at]) for at in traversal._blocks(n, width)]
    assert [len(block) for block in rows] == sizes
    assert [i for block in rows for i in block] == list(range(n))


def _stack_problem(kappa, same):
    """400 random sources at order 3, either with targets on themselves or
    on a plane through them."""
    rng = np.random.default_rng(11)
    sources = rng.uniform(size=(400, 3))
    targets = sources if same else rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.5]
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    return targets, sources, q, FmmConfig(order=3, ncrit=16, kappa=kappa)


@pytest.mark.parametrize("same", [True, False], ids=["self", "two-tree"])
@pytest.mark.parametrize("kappa", [12.0, 0.0])
def test_fourier_stacks_keep_the_potentials(monkeypatch, kappa, same):
    """M2F and F2L transform at most MAX_BLOCK_ENTRIES // P^3 rows of one
    (level, direction) group at a time, and M2L replays the events of one
    stack of target rows at a time.  Stacks of three rows, or of one, give
    bitwise the potentials of the default, which takes each group of these
    problems in one stack; some group's last stack of three is ragged."""
    targets, sources, q, config = _stack_problem(kappa, same)
    stacks = {"m2f": [], "f2l": []}
    for name, seen in stacks.items():
        original = getattr(FourierWorkspace, name)
        monkeypatch.setattr(
            FourierWorkspace,
            name,
            lambda self, x, original=original, seen=seen: seen.append(len(x)) or original(self, x),
        )
    whole = run_fmm(targets, sources, q, config)
    size = FourierWorkspace(config.order).fourier_size
    # one stack per group: the default stack holds every group's rows
    groups = {name: seen.copy() for name, seen in stacks.items()}
    for seen in stacks.values():
        assert len(seen) == len(groups["m2f"]) and max(seen) <= traversal.MAX_BLOCK_ENTRIES // size
        seen.clear()
    # one level at kappa = 0, several directions at kappa = 12
    assert len(groups["m2f"]) == 1 if kappa == 0 else len(groups["m2f"]) > 1
    for width in (3, 1):
        monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", width * size)
        stacked = run_fmm(targets, sources, q, config)
        for name, seen in stacks.items():
            cut = [[width] * (rows // width) + [rows % width] * (rows % width > 0) for rows in groups[name]]
            assert sum(seen) == sum(groups[name]) > 6
            assert seen == [rows for group in cut for rows in group]
            seen.clear()
        assert stacked.tobytes() == whole.tobytes()
    assert any(rows % 3 for group in groups.values() for rows in group)


@pytest.mark.parametrize("same", [True, False], ids=["self", "two-tree"])
@pytest.mark.parametrize("kappa", [12.0, 0.0])
def test_m2l_accumulates_in_one_buffer_of_a_stack(monkeypatch, kappa, same):
    """Every accumulator M2L receives is a row of one buffer with as many
    rows as the largest stack F2L receives, at most MAX_BLOCK_ENTRIES //
    P^3, so the Fourier locals never live whole; the rows F2L receives are
    contiguous rows of that buffer."""
    targets, sources, q, config = _stack_problem(kappa, same)
    size = FourierWorkspace(config.order).fourier_size
    width = 5
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", width * size)
    accumulators, stacks = [], []
    hadamard = traversal.m2l_hadamard
    monkeypatch.setattr(
        traversal, "m2l_hadamard", lambda a, s, d: accumulators.append(a) or hadamard(a, s, d)
    )
    f2l = FourierWorkspace.f2l
    monkeypatch.setattr(FourierWorkspace, "f2l", lambda self, x: stacks.append(x) or f2l(self, x))
    _, info = run_fmm_full(targets, sources, q, config)
    assert len(accumulators) == info.counts["m2l_events"] > 0
    buffer = accumulators[0].base
    assert buffer is not None and all(a.base is buffer for a in accumulators)
    assert len(stacks) > 1 and all(x.base is buffer for x in stacks)
    assert buffer.shape == (max(len(x) for x in stacks), size)
    assert len(buffer) <= width


@pytest.mark.parametrize("same,kappa", [(True, 8.0), (False, 12.0)], ids=["self", "two-tree"])
def test_fourier_transforms_take_one_group_at_a_time(monkeypatch, same, kappa):
    """Every m2f call transforms multipoles of one (level, direction) group
    only, and every f2l call locals of one group: a group's rows take
    ceil(rows / step) calls of each, in stacks of at most step rows, and
    each row is transformed once.  The solve's table then holds exactly
    n_canonical diagonals of P^3 complex values each, and no other array."""
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources if same else sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    size = FourierWorkspace(3).fourier_size
    step = 4  # stacks of four rows cut the larger groups in several
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", step * size)
    plan = plan_fmm(targets, sources, FmmConfig(order=3, ncrit=8, kappa=kappa))
    q = np.ones(len(sources), dtype=complex)
    multipole, local, potentials = _arrays(plan)
    _upward(plan, q, multipole)
    # each multipole holds its row of source_keys, so an m2f stack names its
    # rows; each f2l call marks the locals it writes with its call number
    multipole[:] = np.arange(len(plan.source_keys))[:, None]
    m2f_rows, f2l_calls = [], []
    m2f = FourierWorkspace.m2f

    def record(self, nodal):
        m2f_rows.append(nodal[:, 0].real.astype(int).tolist())
        return m2f(self, nodal)

    def mark(self, fourier):
        f2l_calls.append(len(fourier))
        return np.full((len(fourier), self.nodal_size), len(f2l_calls), dtype=complex)

    monkeypatch.setattr(FourierWorkspace, "m2f", record)
    monkeypatch.setattr(FourierWorkspace, "f2l", mark)
    dtt(plan, q, multipole, local, potentials)
    n = plan.n_dirs

    def group(tree, key):
        return tree.cells[key // n].level, key % n

    read = [[group(plan.source_tree, plan.source_keys[r]) for r in rows] for rows in m2f_rows]
    written = {}  # f2l call -> the groups of the locals it wrote
    t_rows, s_rows = _m2l_rows(plan)
    for row in t_rows.tolist():
        call = int(local[row, 0].real)
        written.setdefault(call, []).append(group(plan.target_tree, plan.target_keys[row]))
    assert sorted(written) == list(range(1, len(f2l_calls) + 1))
    assert [len(written[call]) for call in sorted(written)] == f2l_calls
    sides = (
        (read, plan.source_tree, plan.source_keys[s_rows]),
        (written.values(), plan.target_tree, plan.target_keys[t_rows]),
    )
    for calls, tree, keys in sides:
        assert all(len(set(groups)) == 1 and len(groups) <= step for groups in calls)
        sizes = Counter(group(tree, k) for k in keys.tolist())
        per_group = Counter(groups[0] for groups in calls)
        assert per_group == {g: -(-rows // step) for g, rows in sizes.items()}
        assert len(sizes) > 1 and max(per_group.values()) > 1
    assert sorted(r for rows in m2f_rows for r in rows) == sorted(s_rows.tolist())
    assert len(set(s_rows.tolist())) == len(s_rows) and len(set(t_rows.tolist())) == len(t_rows)
    cache = plan.cache
    held = [
        v
        for value in vars(cache).values()
        for v in (value.values() if isinstance(value, dict) else value if isinstance(value, list) else [value])
        if isinstance(v, np.ndarray)
    ]
    assert len(held) == cache.n_canonical < cache.n_translations
    assert all(a is b for a, b in zip(held, cache.canonicals))
    assert all(a.shape == (size,) and a.dtype == complex for a in held)


@pytest.mark.parametrize("same", [True, False])
def test_one_planner_call_and_one_resolve_per_translation(monkeypatch, same):
    """The planner is one call per solve, and it resolves each distinct
    admissible (level, translation) once: SymbolCache.get receives it as
    one row, and nearest_direction one row per high-frequency one, a
    planning chunk's rows together; no Python visit per cell pair."""
    blanks, gets, nearest = [], [], []
    _counting(monkeypatch, "blank_dtt", blanks)
    _counting(monkeypatch, "nearest_direction", nearest)
    get = SymbolCache.get
    monkeypatch.setattr(SymbolCache, "get", lambda self, *args: gets.append(args) or get(self, *args))
    rng = np.random.default_rng(11)
    sources = rng.uniform(size=(400, 3))
    targets = sources if same else rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.5]
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    _, info = run_fmm_full(targets, sources, q, FmmConfig(order=3, ncrit=16, kappa=12.0))
    assert len(blanks) == 1
    plan = blanks[0][0]
    # the cache's one map holds each admissible (level, translation) once
    admitted = list(plan.cache.entries.values())
    rows = [(level, *t) for level, tvecs in gets for t in np.atleast_2d(tvecs).tolist()]
    assert len(rows) == len(admitted) == plan.cache.n_translations > 0
    assert sorted(admitted) == list(range(plan.cache.n_translations))
    assert set(rows) == {(level, *tvec) for level, tvec in plan.cache.entries}
    assert len(set(rows)) == len(rows)
    hf = [row for row in rows if plan.is_hf(row[0])]
    assert sum(len(np.atleast_2d(units)) for _, _, units in nearest) == len(hf) > 0
    assert len(gets) < len(rows) and len(nearest) < len(hf)
    assert len(plan.cache.entries) < info.counts["m2l_events"] + len(plan.p2p_plan) // 2


@pytest.mark.parametrize("same,kappa", [(True, 8.0), (False, 12.0)])
def test_table_directions_are_the_rows_each_m2l_reads_and_writes(monkeypatch, same, kappa):
    """The direction of an M2L event's table entry is the direction of the
    local it writes and of the multipole it reads: the direction nearest
    to its translation at a high-frequency level, 0 at a low-frequency
    one.  Each (level, direction) group of the schedule, in order of level
    and direction, reads source rows and writes target rows of that group
    only; its target rows ascend, cut from its first in stacks of
    MAX_BLOCK_ENTRIES // P^3 rows.  The plan goes stack by stack within
    each group, each stack's events in recorded order, and names each
    event by its target's row in its stack, its source's index in its
    group's rows and its entry's index in its group's entries.  Stacks of
    four rows cut the larger groups in several."""
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", 4 * FourierWorkspace(3).fourier_size)
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources if same else sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    config = FmmConfig(order=3, ncrit=8, kappa=kappa)
    plan, cells = _recorded(lambda: plan_fmm(targets, sources, config))
    rows = iter(np.frombuffer(plan.m2l_plan, dtype=np.intc).reshape(-1, 3).tolist())
    n = plan.n_dirs
    step = traversal.MAX_BLOCK_ENTRIES // plan.workspace.fourier_size
    t_levels, s_levels = plan.target_tree.cell_levels(), plan.source_tree.cell_levels()
    t_keys, s_keys = plan.target_keys, plan.source_keys
    groups, stack_of, planned = [], {}, []
    for read, entries, stacks in plan.m2l_groups:
        written = np.concatenate([t for t, _ in stacks])
        (g,) = {(t_levels[k // n], k % n) for k in t_keys[written].tolist()}
        assert {(s_levels[k // n], k % n) for k in s_keys[read].tolist()} == {g}
        assert (np.diff(t_keys[written]) > 0).all()
        cut = [min(step, len(written) - lo) for lo in range(0, len(written), step)]
        assert [len(t) for t, _ in stacks] == cut
        for k, (stack, count) in enumerate(stacks):
            stack_of.update((key, (len(groups), k)) for key in t_keys[stack].tolist())
            for i, row, entry in (next(rows) for _ in range(count)):
                planned.append((t_keys[stack[i]], s_keys[read[row]], entries[entry]))
        groups.append(g)
    assert next(rows, None) is None
    assert groups == sorted(set(groups)) and len(groups) > 1
    assert len(set(stack_of.values())) > len(groups)
    # each stack's events in recorded order, each key of its entry's direction
    directions = np.array(plan.cache.directions, dtype=np.int64)
    tk, sk = (cells[:, k] * np.int64(n) + directions[cells[:, 2]] for k in (0, 1))
    order = sorted(range(len(cells)), key=lambda e: stack_of[tk[e]])
    assert [tuple(map(int, event)) for event in planned] == [(tk[e], sk[e], cells[e, 2]) for e in order]
    tcells, scells = plan.target_tree.cells, plan.source_tree.cells
    levels = set()
    for (tk, sk, entry), e in zip(planned, order):
        d = plan.cache.directions[entry]
        assert d == tk % n == sk % n
        t, s = tcells[tk // n], scells[sk // n]
        assert (t.index, s.index) == tuple(cells[e, :2])
        if plan.is_hf(t.level):
            tvec = t.coords - s.coords
            unit = tvec / np.linalg.norm(tvec)
            assert d == nearest_direction(plan.dirs, plan.refinement(t.level), unit[None])[0]
        else:
            assert d == 0
        levels.add(plan.is_hf(t.level))
    # both regimes were planned, and some high-frequency entry was tagged
    assert levels == {True, False}
    assert any(plan.cache.directions)


@pytest.mark.parametrize("same", [True, False], ids=["self", "two-tree"])
def test_the_schedule_is_self_contained_and_the_log_is_the_plans(monkeypatch, same):
    """The M2L events of plan.log are exactly blank_dtt's recorded (target,
    source) cells, stack by stack of the schedule, each stack's in recorded
    order, before the P2P pairs; each table entry lies in exactly one
    group's entries, whose level and direction are the group's."""
    monkeypatch.setattr(traversal, "MAX_BLOCK_ENTRIES", 4 * FourierWorkspace(3).fourier_size)
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources if same else sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    config = FmmConfig(order=3, ncrit=8, kappa=12.0)
    plan, recorded = _recorded(lambda: plan_fmm(targets, sources, config))
    events = []
    plan.log(events)
    kinds = [e.kind for e in events]
    assert kinds == ["M2L"] * len(recorded) + ["P2P"] * (len(plan.p2p_plan) // 2)
    logged = [(e.target.index, e.source.index) for e in events[: len(recorded)]]
    n, directions = plan.n_dirs, plan.cache.directions
    stacks = [stack for _, _, group in plan.m2l_groups for stack, _ in group]
    # target key -> its stack, in schedule order
    stack_of = {key: k for k, stack in enumerate(stacks) for key in plan.target_keys[stack].tolist()}
    by_stack = {}
    for ti, si, entry in recorded.tolist():
        by_stack.setdefault(stack_of[ti * n + directions[entry]], []).append((ti, si))
    counts = [count for _, _, stacks in plan.m2l_groups for _, count in stacks]
    assert [len(by_stack[k]) for k in range(len(counts))] == counts
    assert logged == [pair for k in range(len(counts)) for pair in by_stack[k]]
    assert len(counts) > len(plan.m2l_groups) > 1
    # the groups' entries partition the table, by level and direction
    level_of = {entry: level for (level, _), entry in plan.cache.entries.items()}
    owners = Counter()
    for read, entries, stacks in plan.m2l_groups:
        key = plan.source_keys[read[0]]
        group = (plan.source_tree.cells[key // n].level, key % n)
        assert {(level_of[e], directions[e]) for e in entries.tolist()} == {group}
        owners.update(entries.tolist())
    assert sorted(owners) == list(range(plan.cache.n_translations))
    assert set(owners.values()) == {1}


def test_fmm_matches_direct_laplace():
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(500, 3))
    q = rng.uniform(size=500) + 1j * rng.uniform(size=500)
    ref = _reference(pts, q, 0.0)
    pot = run_fmm(pts, pts, q, FmmConfig(order=5, ncrit=32, kappa=0.0))
    assert relative_errors(ref, pot).rel_l2 < 1e-4


def test_fmm_matches_direct_high_frequency():
    pts, q = _two_cluster_problem()
    kappa = 10.0
    ref = _reference(pts, q, kappa)
    pot = run_fmm(pts, pts, q, FmmConfig(order=7, ncrit=10, kappa=kappa))
    assert relative_errors(ref, pot).rel_l2 < 1e-3


def test_fmm_pure_p2p_when_tree_is_flat():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(50, 3))
    q = rng.normal(size=50) + 1j * rng.normal(size=50)
    ref = _reference(pts, q, 3.0)
    pot, info = run_fmm_full(pts, pts, q, FmmConfig(order=3, ncrit=64, kappa=3.0))
    assert info.counts["m2l_events"] == 0
    assert np.allclose(pot, ref, atol=1e-12 * np.abs(ref).max())


def test_distinct_target_and_source_clouds():
    rng = np.random.default_rng(3)
    sources = rng.uniform(size=(400, 3))
    targets = rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.2] + [0.0, 0.0, 1.5]
    q = rng.uniform(size=400) + 1j * rng.uniform(size=400)
    ker = HelmholtzKernel(kappa=0.0, singularity_tol=1e-12)
    ref = direct_sum(ker, targets, sources, q)
    pot = run_fmm(targets, sources, q, FmmConfig(order=5, ncrit=32, kappa=0.0))
    assert relative_errors(ref, pot).rel_l2 < 1e-4


def test_single_particle():
    pts = np.array([[0.5, 0.5, 0.5]])
    pot = run_fmm(pts, pts, np.array([1.0 + 0j]), FmmConfig(order=3))
    assert pot[0] == 0.0


def test_event_log_partitions_all_pairs():
    rng = np.random.default_rng(4)
    n = 300
    pts = rng.uniform(size=(n, 3))
    q = rng.uniform(size=n) + 1j * rng.uniform(size=n)
    events = []
    run_fmm_full(pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=0.0), events=events)
    coverage = np.zeros((n, n), dtype=np.int64)
    for ev in events:
        t, s = ev.target, ev.source
        coverage[t.start : t.stop, s.start : s.stop] += 1
    assert np.all(coverage == 1)


@pytest.mark.parametrize("same", [True, False], ids=["self", "two-tree"])
def test_untraced_solve_builds_no_cell(monkeypatch, same):
    """The solve reads the trees' arrays only: without an event log no Cell
    is built, and with one the events' cells are the trees' views."""
    rng = np.random.default_rng(5)
    sources = rng.uniform(size=(400, 3))
    targets = sources if same else rng.uniform(size=(150, 3))
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    config = FmmConfig(order=3, ncrit=16, kappa=12.0)

    def no_cell(*args, **kwargs):
        raise AssertionError("a Cell was built")

    monkeypatch.setattr(tree_module, "Cell", no_cell)
    pot, info = run_fmm_full(targets, sources, q, config)
    assert info.counts["m2l_events"] > 0 and info.counts["p2p_pairs"] > 0
    monkeypatch.undo()
    events = []
    logged, _ = run_fmm_full(targets, sources, q, config, events=events)
    assert logged.tobytes() == pot.tobytes()
    assert all(type(e.target) is Cell and type(e.source) is Cell for e in events)


def test_counts_are_consistent():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(400, 3))
    q = rng.uniform(size=400) + 1j * rng.uniform(size=400)
    events = []
    _, info = run_fmm_full(
        pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=0.0), events=events
    )
    assert info.counts["m2l_events"] == sum(1 for e in events if e.kind == "M2L")
    assert info.counts["p2p_pairs"] == sum(
        (e.target.stop - e.target.start) * (e.source.stop - e.source.start)
        for e in events
        if e.kind == "P2P"
    )
    assert info.hf_max_level == -1
    assert set(info.timings) >= {
        "tree", "blank", "precompute", "upward", "m2f", "m2l", "f2l", "p2p", "downward", "total",
    }


@pytest.mark.parametrize("kappa", [0.0, 12.0])
def test_timing_buckets_are_disjoint(kappa):
    """The driver times each step in its own bucket, and dtt times its M2F
    blocks, the rest of its M2L replay, its streamed F2L stacks and its P2P
    apart: every bucket is >= 0,
    and the steps (all but precompute, which lies inside blank) sum to at
    most total."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(400, 3))
    q = rng.uniform(size=400) + 1j * rng.uniform(size=400)
    _, info = run_fmm_full(pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=kappa))
    steps = ("tree", "blank", "upward", "m2f", "m2l", "f2l", "p2p", "downward")
    assert all(info.timings[k] >= 0 for k in (*steps, "precompute", "total"))
    assert info.timings["precompute"] <= info.timings["blank"]
    assert sum(info.timings[k] for k in steps) <= info.timings["total"]


def _near_field(targets, sources, q, config):
    """The potentials dtt adds, and a reference summed pair by pair over the
    P2P plan with kernel.of_distance, both in the target tree's order; and
    the plan's (target, source) cells."""
    plan = plan_fmm(targets, sources, config)
    ttree, stree, tpset, spset = plan.target_tree, plan.source_tree, plan.target_pset, plan.source_pset
    kernel = plan.kernel
    charges = q[spset.original_index]
    multipole, local, potentials = _arrays(plan)
    _upward(plan, charges, multipole)
    # M2L accumulates into local expansions: only P2P adds to potentials
    dtt(plan, charges, multipole, local, potentials)
    ref = np.zeros(len(potentials), dtype=complex)
    it = iter(plan.p2p_plan)
    pairs = [(ttree.cells[ti], stree.cells[si]) for ti, si in zip(it, it)]
    for t, s in pairs:
        diff = tpset.positions[t.start : t.stop, None] - spset.positions[None, s.start : s.stop]
        ref[t.start : t.stop] += (
            kernel.of_distance(np.linalg.norm(diff, axis=-1)) @ charges[s.start : s.stop]
        )
    return potentials, ref, pairs


def _duplicated_cloud():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(300, 3))
    pts = np.vstack([pts, pts[rng.integers(0, 300, size=40)]])
    q = rng.normal(size=340) + 1j * rng.normal(size=340)
    return pts, pts, q


def _plane_over_cloud():
    rng = np.random.default_rng(9)
    # the sparse target tree stops above the source leaves near the plane
    sources = rng.uniform(size=(1000, 3))
    targets = rng.uniform(size=(60, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.5]
    q = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    return targets, sources, q


@pytest.mark.parametrize("kappa", [0.0, 6.0])
@pytest.mark.parametrize("problem", [_duplicated_cloud, _plane_over_cloud])
def test_grouped_p2p_matches_pairwise_sum(problem, kappa):
    targets, sources, q = problem()
    config = FmmConfig(order=3, ncrit=16, kappa=kappa)
    pot, ref, pairs = _near_field(targets, sources, q, config)
    assert relative_errors(ref, pot).rel_linf < 1e-13
    if targets is not sources:
        assert any(not (t.is_leaf and s.is_leaf) for t, s in pairs)


@pytest.mark.parametrize("n_t, n_s", [(300, 300), (3, 40000)])
def test_p2p_kernel_blocks_respect_the_cap(monkeypatch, n_t, n_s):
    rng = np.random.default_rng(10)
    sources = rng.uniform(size=(n_s, 3))
    targets = sources if n_t == n_s else rng.uniform(size=(n_t, 3))
    q = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    # one leaf per tree: the single P2P pair holds more than the cap
    config = FmmConfig(order=3, ncrit=n_s, kappa=2.0)
    sizes = []
    matrix = HelmholtzKernel.matrix

    def recording(self, t, s):
        sizes.append(t.shape[0] * s.shape[0])
        return matrix(self, t, s)

    monkeypatch.setattr(HelmholtzKernel, "matrix", recording)
    pot, ref, pairs = _near_field(targets, sources, q, config)
    assert len(pairs) == 1 and n_t * n_s > MAX_BLOCK_ENTRIES
    assert max(sizes) <= MAX_BLOCK_ENTRIES and sum(sizes) == n_t * n_s
    assert relative_errors(ref, pot).rel_linf < 1e-13


def test_non_finite_charge_fails_loudly():
    rng = np.random.default_rng(7)
    pts = rng.uniform(size=(300, 3))
    q = rng.uniform(size=300) + 1j * rng.uniform(size=300)
    q[17] = np.nan
    with pytest.raises(ValueError, match="charges must be finite"):
        run_fmm(pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=2.0))
    with pytest.raises(ValueError, match="charges must be finite"):
        run_fmm(pts[:50], pts, q, FmmConfig(order=3, ncrit=16, kappa=2.0))


def _assert_rejected(charges, match):
    """plan.apply and run_fmm_full reject the charges, on the single-tree and
    on the two-tree path, run_fmm_full before it builds a tree; the plan
    that rejected them then applies to valid charges bitwise as a fresh
    solve does."""
    rng = np.random.default_rng(7)
    sources = rng.uniform(size=(300, 3))
    good = rng.normal(size=300) + 1j * rng.normal(size=300)
    config = FmmConfig(order=3, ncrit=16, kappa=2.0)

    def never(*args, **kwargs):
        raise AssertionError("a tree was built for charges that fail the check")

    for targets in (sources, rng.uniform(size=(60, 3))):
        plan = plan_fmm(targets, sources, config)
        with pytest.raises(ValueError, match=match):
            plan.apply(charges)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traversal, "build_tree", never)
            with pytest.raises(ValueError, match=match):
                run_fmm_full(targets, sources, charges, config)
        pot, _ = plan.apply(good)
        assert pot.tobytes() == run_fmm(targets, sources, good, config).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_apply_rejects_non_finite_charges(bad):
    q = np.random.default_rng(9).normal(size=300) + 0j
    q[123] = bad
    _assert_rejected(q, "charges must be finite")


@pytest.mark.parametrize("shape", [(300, 1), (300, 2), ()])
def test_apply_rejects_charges_not_one_dimensional(shape):
    _assert_rejected(np.ones(shape, dtype=complex), r"charges must have shape \(n,\)")


@pytest.mark.parametrize("n", [299, 301])
def test_apply_rejects_a_charge_per_point_mismatch(n):
    _assert_rejected(np.ones(n, dtype=complex), "points and charges length mismatch")


def _plan_bytes(plan) -> list:
    """The bytes of every array the plan holds: its M2L and P2P plans and
    M2L schedule, its keys and son links, its Lagrange tables, its leaf
    blocks, its grid waves and its canonical symbols."""
    links = [a for side in (plan.source_links, plan.target_links) for _, *cols in side for a in cols]
    blocks = [a for side in (plan.source_blocks, plan.target_blocks) for _, *cols in side for a in cols]
    waves = [a for key in sorted(plan.grid_waves) for a in plan.grid_waves[key]]
    schedule = [
        a for read, entries, stacks in plan.m2l_groups for a in (read, entries, *(t for t, _ in stacks))
    ]
    arrays = [
        plan.m2l_plan, plan.p2p_plan, *schedule, plan.source_keys, plan.target_keys, *links,
        plan.source_table, plan.target_table, *blocks, *waves, *plan.cache.canonicals,
    ]
    counts = [[count for _, count in stacks] for _, _, stacks in plan.m2l_groups]
    return [repr(counts), repr(sorted(plan.grid_waves))] + [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("same", [True, False], ids=["self", "two-tree"])
def test_one_plan_applies_to_many_charge_vectors(monkeypatch, same):
    """plan.apply(q) then plan.apply(p) give bitwise the potentials and the
    counts of a fresh run_fmm_full with q and with p, on a high-frequency
    sphere and on a plane over it; an apply changes no array of the plan,
    its grid waves included, nor the caller's charges, and each makes one
    plane_wave call per high-frequency leaf block, for its particle phases."""
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources if same else sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    config = FmmConfig(order=3, ncrit=8, kappa=20.0)
    rng = np.random.default_rng(23)
    charges = [rng.normal(size=1000) + 1j * rng.normal(size=1000) for _ in range(2)]
    given = [c.copy() for c in charges]
    plan = plan_fmm(targets, sources, config)
    assert plan.hf_max_level >= 2 and plan.counts["m2l_events"] > 0
    assert plan.grid_waves
    held = _plan_bytes(plan)
    calls = []
    plane_wave = interp.plane_wave

    def counting(*args):
        calls[-1] += 1
        return plane_wave(*args)

    monkeypatch.setattr(interp, "plane_wave", counting)
    applied = []
    for c in charges:
        calls.append(0)
        applied.append(plan.apply(c))
    monkeypatch.undo()
    assert _plan_bytes(plan) == held
    hf_blocks = sum(plan.is_hf(b[0]) for b in plan.source_blocks + plan.target_blocks)
    assert calls == [hf_blocks] * 2 and hf_blocks > 0
    assert all(c.tobytes() == g.tobytes() for c, g in zip(charges, given))
    for c, (pot, info) in zip(charges, applied):
        fresh, fresh_info = run_fmm_full(targets, sources, c, config)
        assert pot.tobytes() == fresh.tobytes()
        assert info.counts == fresh_info.counts and info.hf_max_level == fresh_info.hf_max_level
    assert applied[0][0].tobytes() != applied[1][0].tobytes()


def test_deterministic_potentials():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(300, 3))
    q = rng.uniform(size=300) + 1j * rng.uniform(size=300)
    cfg = FmmConfig(order=4, ncrit=32, kappa=8.0)
    a = run_fmm(pts, pts, q, cfg)
    b = run_fmm(pts, pts, q, cfg)
    assert a.tobytes() == b.tobytes()


def test_leaf_basis_from_the_table_matches_basis_matrix():
    """The basis the batched P2M and L2P apply to a block of leaves, read
    out with unit weights and unit coefficients, is each leaf's
    basis_matrix on its cube."""
    rng = np.random.default_rng(14)
    pts = rng.uniform(size=(600, 3))
    order = 5
    plan = plan_fmm(pts, pts, FmmConfig(order=order, ncrit=16))
    tree, pset, table = plan.source_tree, plan.source_pset, plan.source_table
    assert table.shape == (600, 3, order)
    levels = tree.cell_levels()
    starts = {int(tree.start[c]): c for c in np.flatnonzero(tree.n_sons == 0)}
    leaves = 0
    for _, particles, real, _, _ in plan.source_blocks:
        values = table[particles]
        width = particles.shape[1]
        transposed = interp.p2m(values, np.broadcast_to(np.eye(width), (len(particles), width, width)))
        eye = np.broadcast_to(np.eye(order**3), (len(particles), order**3, order**3))
        basis = interp.l2p(values, eye)
        for i, (at, mask) in enumerate(zip(particles, real)):
            leaf = starts[int(at[0])]
            side = tree.side_at(levels[leaf])
            lower = tree.root_box.lower + tree.coords[leaf] * side
            ref = interp.basis_matrix(order, (pset.positions[at[mask]] - lower) / side)
            assert np.abs(transposed[i][:, mask].T - ref).max() <= 1e-15
            assert np.abs(basis[i][mask] - ref).max() <= 1e-15
            leaves += 1
    assert leaves == len(starts)


def test_closed_form_grid_waves_match_the_cell_grid_plane_wave():
    pts = generate_distribution(Distribution("sphere", 1000))
    config = FmmConfig(order=4, ncrit=8, kappa=20.0)
    pair = build_tree(pts, config.ncrit)
    tree = pair[0]
    plan = FmmPlan(config, pair, pair)
    grid = interp.grid_points(config.order)
    # the plan builds one table per high-frequency (cell level, level) its
    # leaf blocks and son links use, each with every direction of the level
    used = set()
    for blocks, links in ((plan.source_blocks, plan.source_links), (plan.target_blocks, plan.target_links)):
        used |= {(level, level) for level, *_ in blocks}
        used |= {(lv, level) for level, *_ in links for lv in (level, level + 1)}
    assert set(plan.grid_waves) == {(cl, level) for cl, level in used if plan.is_hf(level)}
    for (cell_level, level), table in plan.grid_waves.items():
        assert table.shape == (len(plan.units[level]), config.order**3)
    # under the cells' own directions (P2M/L2P, M2M/L2L fathers) and under
    # their fathers' (M2M/L2L sons)
    assert {cl - level for cl, level in plan.grid_waves} == {0, 1}
    # every cell of a level under each direction of its table, every (cell,
    # direction) pair in one call, cell major
    for (cell_level, level), table in plan.grid_waves.items():
        ds = np.arange(len(table))
        cells = tree.levels[cell_level]
        index = np.repeat([cell.index for cell in cells], len(ds))
        waves = iter(_waves(plan, tree, index, cell_level, level, np.tile(ds, len(cells))))
        side = tree.side_at(cell_level)
        for cell in cells:
            x = (tree.root_box.lower + cell.coords * side) + side * grid
            for d in ds:
                ref = interp.plane_wave(x, config.kappa, plan.units[level][d])
                assert np.abs(next(waves) - ref).max() < 1e-13
        assert next(waves, None) is None
    # at kappa = 10 the deepest level is low-frequency: under its
    # directions, u = 0, every cell gets the one shared, read-only unit
    # wave, exactly the plane wave at u = 0, and no grid wave is built
    low = FmmPlan(FmmConfig(order=4, ncrit=8, kappa=10.0), pair, pair)
    assert not low.is_hf(tree.depth)
    deepest = tree.levels[tree.depth]
    index = np.array([cell.index for cell in deepest])
    wave = _waves(low, tree, index, tree.depth, tree.depth, np.zeros(len(index), dtype=np.int64))
    assert wave is low.unit_wave and not wave.flags.writeable
    assert wave.shape == (1, config.order**3)
    side = tree.side_at(tree.depth)
    for cell in (deepest[0], deepest[-1]):
        x = (tree.root_box.lower + cell.coords * side) + side * grid
        assert wave[0].tobytes() == interp.plane_wave(x, 10.0, np.zeros(3)).tobytes()
    assert all(low.is_hf(level) for _, level in low.grid_waves)


def test_every_grid_wave_row_is_its_directions_wave():
    """Row d of a grid-wave table is the wave of direction d of its level,
    for every direction of the level, whether or not a leaf block or son
    link of the plan names it: at (4, 3) on this sphere the son links name
    none of directions 0, 7, 15 and 23.  A table the plan does not hold
    raises KeyError and a direction past the level's raises IndexError,
    rather than reading another direction's wave."""
    pts = generate_distribution(Distribution("sphere", 1000))
    config = FmmConfig(order=4, ncrit=8, kappa=20.0)
    pair = build_tree(pts, config.ncrit)
    tree = pair[0]
    plan = FmmPlan(config, pair, pair)
    grid = interp.grid_points(config.order)
    assert (4, 3) in plan.grid_waves and len(plan.units[3]) == 24
    named = {
        int(k) % plan.n_dirs
        for keys, links in ((plan.source_keys, plan.source_links), (plan.target_keys, plan.target_links))
        for level, fathers, *_ in links
        if level == 3
        for k in keys[fathers]
    }
    assert named.isdisjoint({0, 7, 15, 23})
    for (cell_level, level), table in plan.grid_waves.items():
        cells = tree.levels[cell_level]
        for cell in (cells[0], cells[len(cells) // 2], cells[-1]):
            side = tree.side_at(cell_level)
            x = (tree.root_box.lower + cell.coords * side) + side * grid
            ds = np.arange(len(plan.units[level]))
            waves = _waves(plan, tree, cell.index, cell_level, level, ds)
            for d in ds:
                ref = interp.plane_wave(x, config.kappa, plan.units[level][d])
                assert np.abs(waves[d] - ref).max() < 1e-12
    level = plan.hf_max_level
    assert plan.is_hf(level) and (level + 2, level) not in plan.grid_waves
    with pytest.raises(KeyError):
        _waves(plan, tree, 0, level + 2, level, np.zeros(1, dtype=np.int64))
    cell = tree.levels[4][0].index
    with pytest.raises(IndexError):
        _waves(plan, tree, cell, 4, 3, np.array([len(plan.units[3])]))


def _leaf_cases(rng, ncrit):
    """400 points of the unit box whose level-2 corner cells hold a single
    point ([0.75, 1)^3) and exactly ncrit points, four of them coincident
    ([0, 0.25)^3), and whose other level-2 cells hold fewer than ncrit."""
    pts = rng.uniform(size=(400, 3))
    pts = pts[~np.all(pts >= 0.75, axis=1) & ~np.all(pts < 0.25, axis=1)]
    corner = 0.25 * rng.uniform(size=(ncrit - 3, 3))
    corner = np.vstack([corner, np.repeat(corner[:1], 3, axis=0)])
    return np.vstack([pts, [[0.9, 0.85, 0.8]], corner])


def _leaf_rows(plan, keys, tree, pset):
    """(level, particles, rows, lagrange basis, particle waves, grid waves) of
    each leaf that owns rows lo:hi of keys, from basis_matrix and
    plane_wave, one row's direction u at a time (u = 0 at low frequency)."""
    order, kappa, n = plan.config.order, plan.config.kappa, plan.n_dirs
    grid = interp.grid_points(order)
    for leaf in np.flatnonzero(tree.n_sons == 0):
        lo, hi = np.searchsorted(keys, [leaf * n, (leaf + 1) * n])
        if lo == hi:
            continue
        level = int(tree.cell_levels()[leaf])
        side = tree.side_at(level)
        lower = tree.root_box.lower + tree.coords[leaf] * side
        at = slice(tree.start[leaf], tree.stop[leaf])
        pos = pset.positions[at]
        units = plan.units[level][keys[lo:hi] % n]
        yield (
            level, at, range(lo, hi),
            interp.basis_matrix(order, (pos - lower) / side),
            [interp.plane_wave(pos, kappa, u) for u in units],
            [interp.plane_wave(lower + side * grid, kappa, u) for u in units],
        )


def _relative_gap(got, ref) -> float:
    """max |got - ref| / max |ref| over lists of arrays."""
    got, ref = (np.concatenate([np.ravel(a) for a in x]) for x in (got, ref))
    return np.abs(got - ref).max() / np.abs(ref).max()


def test_modulated_p2m_l2p_match_the_explicit_phases():
    """Batched P2M and L2P, one product per block of same-level leaves,
    match each leaf's product with its basis_matrix, its particle phases
    and its grid waves, row by row, to 1e-14 relative: at kappa = 0 and at
    a high-frequency kappa, on one tree and on two.  The leaves include a
    single-particle leaf, one of ncrit particles with coincident ones, and
    at high frequency a block of leaves with different numbers of rows;
    every block but a single leaf stays within MAX_BLOCK_ENTRIES padded
    entries."""
    ncrit, order = 16, 4
    rng = np.random.default_rng(9)
    sources, other = _leaf_cases(rng, ncrit), _leaf_cases(rng, ncrit)
    source = build_tree(sources, ncrit, root_box=UNIT_BOX)
    for kappa in (0.0, 12.0):
        for target in (source, build_tree(other, ncrit, root_box=UNIT_BOX)):
            plan = FmmPlan(FmmConfig(order=order, ncrit=ncrit, kappa=kappa), target, source)
            assert plan.hf_max_level == (2 if kappa else -1)
            multipole, local, potentials = _arrays(plan)
            q = rng.normal(size=len(sources)) + 1j * rng.normal(size=len(sources))
            for block in plan.source_blocks:
                _p2m(plan, block, q, multipole)
            local[:] = rng.normal(size=local.shape) + 1j * rng.normal(size=local.shape)
            for block in plan.target_blocks:
                _l2p(plan, block, local, potentials)

            source_leaves = list(_leaf_rows(plan, plan.source_keys, plan.source_tree, plan.source_pset))
            target_leaves = list(_leaf_rows(plan, plan.target_keys, plan.target_tree, plan.target_pset))
            got = [multipole[rows] for _, _, rows, *_ in source_leaves]
            ref = [
                [(b.T @ (q[at] * y.conj())) * g for y, g in zip(on_pos, on_grid)]
                for _, at, _, b, on_pos, on_grid in source_leaves
            ]
            assert _relative_gap(got, ref) <= 1e-14
            got = [potentials[at] for _, at, *_ in target_leaves]
            ref = [
                sum((b @ (local[r] * g.conj())) * y for r, y, g in zip(rows, on_pos, on_grid))
                for _, at, rows, b, on_pos, on_grid in target_leaves
            ]
            assert _relative_gap(got, ref) <= 1e-14

            for blocks, leaves in ((plan.source_blocks, source_leaves), (plan.target_blocks, target_leaves)):
                assert all(plan.is_hf(level) == (kappa > 0) for level, *_ in leaves)
                # the corner leaves, and a leaf with coincident particles,
                # own rows on each side
                assert {1, ncrit} <= {at.stop - at.start for _, at, *_ in leaves}
                pset = plan.source_pset if blocks is plan.source_blocks else plan.target_pset
                assert any(
                    len(np.unique(pset.positions[at], axis=0)) < at.stop - at.start
                    for _, at, *_ in leaves
                )
                for _, particles, _, rows, row_mask in blocks:
                    entries = len(particles) * max(particles.shape[1], order) * order**2 * rows.shape[1]
                    assert entries <= MAX_BLOCK_ENTRIES or len(particles) == 1
                mixed = [len(set(row_mask.sum(axis=1).tolist())) > 1 for *_, row_mask in blocks]
                assert any(mixed) == (kappa > 0)


@pytest.mark.parametrize("same", [True, False])
def test_one_lagrange_table_per_tree(monkeypatch, same):
    built = []

    def counting(order, tree, pset):
        built.append(pset)
        return _lagrange_table(order, tree, pset)

    monkeypatch.setattr(traversal, "_lagrange_table", counting)
    rng = np.random.default_rng(15)
    sources = rng.uniform(size=(500, 3))
    targets = sources if same else rng.uniform(size=(200, 3))
    q = rng.normal(size=500) + 1j * rng.normal(size=500)
    run_fmm(targets, sources, q, FmmConfig(order=3, ncrit=16, kappa=12.0))
    assert len(built) == (1 if same else 2)
    assert len({id(p) for p in built}) == len(built)


def test_a_direction_set_above_the_bound_fails_at_once(monkeypatch):
    def never(refinement):
        raise AssertionError(f"direction tree of refinement {refinement} built")

    monkeypatch.setattr(traversal, "generate_direction_tree", never)
    rng = np.random.default_rng(16)
    pts = rng.uniform(size=(200, 3))
    q = rng.normal(size=200) + 0j
    with pytest.raises(ValueError, match=r"kappa\*w = .* hf_switch"):
        run_fmm(pts, pts, q, FmmConfig(order=3, ncrit=32, kappa=20000.0))
