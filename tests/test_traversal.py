import numpy as np
import pytest

from helmfmm.directions import father_direction, nearest_direction
from helmfmm.distributions import Distribution, generate_distribution
from helmfmm.geometry import BoundingBox, CellFrame, compute_root_box
from helmfmm.kernel import MAX_BLOCK_ENTRIES, HelmholtzKernel, direct_sum, relative_errors
from helmfmm.tree import Cell, build_tree
from helmfmm.traversal import (
    FmmConfig,
    _Context,
    _downward,
    _plan_rows,
    _upward,
    blank_dtt,
    cell_distance,
    directional_mac,
    dtt,
    run_fmm,
    run_fmm_full,
    strict_mac,
)

UNIT_BOX = BoundingBox(center=np.array([0.5, 0.5, 0.5]), half_width=0.5)


def _cell(coords, level, side=1.0):
    coords = np.asarray(coords, dtype=np.int64)
    beta = side / (1 << level)
    return Cell(
        level=level,
        coords=coords,
        start=0,
        stop=0,
        frame=CellFrame(alpha=coords * beta, beta=beta),
    )


def _reference(points, charges, kappa, box_side=1.0):
    ker = HelmholtzKernel(kappa=kappa, singularity_tol=1e-12 * box_side)
    return direct_sum(ker, points, points, charges)


def test_cell_distance_values():
    a = _cell([0, 0, 0], 2)
    assert cell_distance(a, _cell([1, 0, 0], 2)) == 0.0
    assert cell_distance(a, _cell([2, 0, 0], 2)) == pytest.approx(0.25)
    assert cell_distance(a, _cell([2, 2, 0], 2)) == pytest.approx(0.25 * np.sqrt(2))


def test_strict_mac_cases():
    a = _cell([0, 0, 0], 2)
    assert not strict_mac(a, a)
    assert not strict_mac(a, _cell([1, 1, 1], 2))
    assert strict_mac(a, _cell([2, 0, 0], 2))
    assert strict_mac(a, _cell([2, 1, 1], 2))
    with pytest.raises(ValueError):
        strict_mac(a, _cell([0, 0, 0], 3))


def test_directional_mac_thresholds():
    a = _cell([0, 0, 0], 2)
    far = _cell([3, 3, 3], 2)
    near = _cell([2, 0, 0], 2)
    w = a.radius
    dist_far = cell_distance(a, far)
    # pick kappa so the far pair is admissible but the near one is not
    kappa = dist_far / (w * w)
    assert directional_mac(a, far, kappa, 1.0)
    assert not directional_mac(a, near, kappa, 1.0)
    # a larger eta re-admits the near pair when 2w permits
    assert directional_mac(a, near, kappa, 10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FmmConfig(order=1)
    with pytest.raises(ValueError):
        FmmConfig(strategy="dense")
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            FmmConfig(eta=bad)
    for bad in (-2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            FmmConfig(kappa=bad)
    with pytest.raises(ValueError):
        FmmConfig(ncrit=0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            FmmConfig(hf_switch=bad)


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
    pts, q = _two_cluster_problem()
    tree, pset = build_tree(pts, q, ncrit=10, root_box=UNIT_BOX)
    config = FmmConfig(order=4, ncrit=10, kappa=10.0)
    kernel = HelmholtzKernel(kappa=10.0, singularity_tol=1e-14)
    ctx = _Context(config, kernel, tree, tree, pset, pset)
    # kappa * w crosses the switch between levels 2 and 3
    assert ctx.hf_max_level == 2
    assert ctx.is_hf(2) and not ctx.is_hf(3)
    assert ctx.refinement(2) == 0 and ctx.refinement(1) == 1
    assert ctx.dirs.count(0) == 6


def _context(kappa, ncrit=10, eta=1.0):
    pts, q = _two_cluster_problem()
    tree, pset = build_tree(pts, q, ncrit=ncrit, root_box=UNIT_BOX)
    config = FmmConfig(order=4, ncrit=ncrit, eta=eta, kappa=kappa)
    kernel = HelmholtzKernel(kappa=kappa, singularity_tol=1e-14)
    return tree, _Context(config, kernel, tree, tree, pset, pset)


def _directions_of(ctx, keys, cell):
    """Direction indices of the cell's expansions among the sorted keys."""
    n = ctx.n_dirs
    return [int(k) % n for k in keys if k // n == cell.index]


def test_deepest_hf_level_refined_by_kappa_w():
    # kappa * w^2 = 0.75 exceeds the level-2 gap 0.5; eta = 2 admits the pair
    tree, ctx = _context(16.0, eta=2.0)
    # kappa * w = 3.46 at level 2 and 1.73 at level 3
    assert ctx.hf_max_level == 2
    assert ctx.refinement(2) == 1
    assert ctx.dirs.count(1) == 24
    blank_dtt(tree.root, tree.root, ctx)
    _plan_rows(ctx)
    left = {tuple(c.coords): c for c in tree.levels[2]}[(0, 0, 0)]
    for keys in (ctx.source_keys, ctx.target_keys):
        # the level-2 expansions are directional, at refinement 1
        assert _directions_of(ctx, keys, left)
        assert all(d < ctx.dirs.count(1) for d in _directions_of(ctx, keys, left))
        # the sons are low-frequency: each takes the one direction-free expansion
        assert all(_directions_of(ctx, keys, son) == [0] for son in left.sons)


@pytest.mark.parametrize("kappa", [10.0, 16.0, 40.0])
def test_refinement_steps_by_one_per_hf_level(kappa):
    _, ctx = _context(kappa)
    assert ctx.dirs.max_refinement == ctx.refinement(0)
    for level in range(ctx.hf_max_level):
        assert ctx.refinement(level) == ctx.refinement(level + 1) + 1
    for level in range(ctx.hf_max_level + 1):
        kw = kappa * np.sqrt(3.0) / 2.0 / (1 << level)
        e = ctx.refinement(level)
        # refinement e halves the cone aperture e times: it tracks kappa * w
        assert 2.0 ** (e - 0.5) <= kw / ctx.config.hf_switch < 2.0 ** (e + 0.5)


def test_shallow_tree_refines_leaves_by_kappa_w():
    tree, ctx = _context(20.0, ncrit=25)
    # each cluster fits one level-1 leaf, where kappa * w = 8.66
    assert tree.depth == 1 and ctx.hf_max_level == 1
    assert ctx.refinement(1) == 2 and ctx.refinement(0) == 3


def _below(cell):
    """Indices of the cell and of all its descendants."""
    yield cell.index
    for son in cell.sons:
        yield from _below(son)


def test_kappa_zero_has_no_hf_levels():
    pts, q = _two_cluster_problem()
    tree, pset = build_tree(pts, q, ncrit=10, root_box=UNIT_BOX)
    config = FmmConfig(order=4, ncrit=10, kappa=0.0)
    kernel = HelmholtzKernel(kappa=0.0, singularity_tol=1e-14)
    ctx = _Context(config, kernel, tree, tree, pset, pset)
    assert ctx.hf_max_level == -1
    assert ctx.dirs is None
    blank_dtt(tree.root, tree.root, ctx)
    it = iter(ctx.m2l_plan)
    plan = list(zip(it, it, it))
    _plan_rows(ctx)
    # no directions: one expansion per cell, in every cell M2L reads or
    # writes and below it
    assert ctx.n_dirs == 1
    cells = tree.cells
    sources = {i for _, si, _ in plan for i in _below(cells[si])}
    targets = {i for ti, _, _ in plan for i in _below(cells[ti])}
    assert ctx.source_keys.tolist() == sorted(sources)
    assert ctx.target_keys.tolist() == sorted(targets)
    assert ctx.m2l_keys.tolist() == sorted({ti for ti, _, _ in plan})


def _axis_directions(ctx, keys, cell):
    """x components of the unit directions of the cell's expansions."""
    return {ctx.dirs.levels[0][d][0] for d in _directions_of(ctx, keys, cell)}


def test_blank_pass_marks_axis_direction():
    pts, q = _two_cluster_problem()
    tree, pset = build_tree(pts, q, ncrit=10, root_box=UNIT_BOX)
    config = FmmConfig(order=4, ncrit=10, kappa=10.0)
    kernel = HelmholtzKernel(kappa=10.0, singularity_tol=1e-14)
    ctx = _Context(config, kernel, tree, tree, pset, pset)
    blank_dtt(tree.root, tree.root, ctx)
    _plan_rows(ctx)

    cells = {tuple(c.coords): c for c in tree.levels[2]}
    left = cells[(0, 0, 0)]
    right = cells[(3, 0, 0)]
    # the pair is seen in both orders, so both +x and -x appear, at
    # refinement 0: each is an axis direction
    both = _axis_directions(ctx, ctx.source_keys, left) | _axis_directions(
        ctx, ctx.target_keys, left
    )
    assert both == {1.0, -1.0}
    for cell in (left, right):
        for keys in (ctx.source_keys, ctx.target_keys):
            assert all(
                np.abs(ctx.dirs.levels[0][d]).max() == 1.0 for d in _directions_of(ctx, keys, cell)
            )
    # the cached symbols carry the tagged directions
    assert ctx.cache.n_translations == 2
    # refinement-0 directions have no father to hand down: the low-frequency
    # sons take the direction-free expansion only
    for son in left.sons:
        assert _directions_of(ctx, ctx.source_keys, son) == [0]
        assert _directions_of(ctx, ctx.target_keys, son) == [0]


def test_each_side_builds_only_the_directions_it_uses():
    tree, ctx = _context(10.0)
    blank_dtt(tree.root, tree.root, ctx)
    _plan_rows(ctx)
    cells = {tuple(c.coords): c for c in tree.levels[2]}
    left, right = cells[(0, 0, 0)], cells[(3, 0, 0)]
    # M2L into the right cell reads the left multipole along +x, and M2L
    # into the left cell reads the right multipole along -x
    assert _axis_directions(ctx, ctx.source_keys, left) == {1.0}
    assert _axis_directions(ctx, ctx.target_keys, left) == {-1.0}
    assert _axis_directions(ctx, ctx.source_keys, right) == {-1.0}
    assert _axis_directions(ctx, ctx.target_keys, right) == {1.0}


def _refinement(config, cell):
    """round(log2(kappa * w / hf_switch)) of a high-frequency cell."""
    return int(np.floor(np.log2(config.kappa * cell.radius / config.hf_switch) + 0.5))


def test_effective_expansions_are_those_m2l_and_m2m_read():
    pts = generate_distribution(Distribution("sphere", 1000))
    q = np.random.default_rng(13).normal(size=1000) + 0j
    config = FmmConfig(order=3, ncrit=8, kappa=20.0)
    events = []
    _, info = run_fmm_full(pts, pts, q, config, events=events)
    tree, _ = build_tree(pts, q, config.ncrit)
    dirs = _Context(
        config, HelmholtzKernel(kappa=config.kappa), tree, tree, None, None
    ).dirs
    hf = info.hf_max_level

    def direction(t, s):
        if t.level > hf:
            return 0
        tvec = t.coords - s.coords
        return nearest_direction(dirs, _refinement(config, t), tvec / np.linalg.norm(tvec))

    read = set()

    def add(cell, d):
        if (cell.index, d) in read:
            return
        read.add((cell.index, d))
        for son in cell.sons:
            son_hf = son.level <= hf
            add(son, father_direction(dirs, _refinement(config, cell), d) if son_hf else 0)

    m2l = [e for e in events if e.kind == "M2L"]
    for e in m2l:
        add(e.source, direction(e.target, e.source))
    # directional M2L above the deepest high-frequency level: its
    # directions are handed down to high-frequency sons
    assert any(e.target.level < hf for e in m2l)
    assert info.counts["effective_expansions"] == len(read)


def _planned(kappa):
    tree, ctx = _context(kappa, eta=2.0)
    blank_dtt(tree.root, tree.root, ctx)
    _plan_rows(ctx)
    return tree, ctx


def _son_key(ctx, tree, keys):
    """Key of the first son expansion that a cell's M2M reads or L2L writes."""
    n = ctx.n_dirs
    cells = tree.cells
    key = next(int(k) for k in keys if cells[k // n].sons)
    father, d = cells[key // n], key % n
    son_hf = ctx.is_hf(father.level + 1)
    sd = father_direction(ctx.dirs, ctx.refinement(father.level), d) if son_hf else 0
    return father.sons[0].index * n + sd


@pytest.mark.parametrize("kappa", [0.0, 16.0])
def test_upward_pass_fails_on_a_missing_son_multipole(kappa):
    tree, ctx = _planned(kappa)
    victim = _son_key(ctx, tree, ctx.source_keys)
    assert victim in ctx.source_keys
    ctx.source_keys = ctx.source_keys[ctx.source_keys != victim]
    with pytest.raises(RuntimeError, match="missing son expansion"):
        _upward(ctx, tree)


@pytest.mark.parametrize("kappa", [0.0, 16.0])
def test_downward_pass_fails_on_a_missing_son_local(kappa):
    tree, ctx = _planned(kappa)
    _upward(ctx, tree)
    dtt(ctx)
    victim = _son_key(ctx, tree, ctx.target_keys)
    assert victim in ctx.target_keys and victim not in ctx.m2l_keys
    ctx.target_keys = ctx.target_keys[ctx.target_keys != victim]
    with pytest.raises(RuntimeError, match="missing son expansion"):
        _downward(ctx, tree)


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
        e.target.n_particles * e.source.n_particles
        for e in events
        if e.kind == "P2P"
    )
    assert info.hf_max_level == -1
    assert set(info.timings) >= {
        "tree", "blank", "precompute", "upward", "m2l_p2p", "downward", "total",
    }


def _near_field(targets, sources, q, config):
    """The potentials dtt adds, and a reference summed pair by pair over the
    P2P plan with kernel.of_distance, both in the target tree's order; and
    the plan's (target, source) cells."""
    same = targets is sources
    box = compute_root_box(np.vstack([targets, sources]))
    stree, spset = build_tree(sources, q, config.ncrit, root_box=box)
    ttree, tpset = (stree, spset) if same else build_tree(
        targets, np.zeros(len(targets)), config.ncrit, root_box=box
    )
    kernel = HelmholtzKernel(kappa=config.kappa, singularity_tol=1e-12 * box.side)
    ctx = _Context(config, kernel, ttree, stree, tpset, spset)
    blank_dtt(ttree.root, stree.root, ctx)
    _plan_rows(ctx)
    _upward(ctx, stree)
    # M2L accumulates into local expansions: only P2P adds to potentials
    dtt(ctx)
    ref = np.zeros(len(tpset.potentials), dtype=complex)
    it = iter(ctx.p2p_plan)
    pairs = [(ttree.cells[ti], stree.cells[si]) for ti, si in zip(it, it)]
    for t, s in pairs:
        diff = tpset.positions[t.start : t.stop, None] - spset.positions[None, s.start : s.stop]
        ref[t.start : t.stop] += (
            kernel.of_distance(np.linalg.norm(diff, axis=-1)) @ spset.charges[s.start : s.stop]
        )
    return tpset.potentials, ref, pairs


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


def test_deterministic_potentials():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(300, 3))
    q = rng.uniform(size=300) + 1j * rng.uniform(size=300)
    cfg = FmmConfig(order=4, ncrit=32, kappa=8.0)
    a = run_fmm(pts, pts, q, cfg)
    b = run_fmm(pts, pts, q, cfg)
    assert a.tobytes() == b.tobytes()
