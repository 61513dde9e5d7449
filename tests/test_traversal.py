import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_tree_properties import FMM_SETTINGS, far_clusters, fmm_ncrits, planar, with_duplicates

from helmfmm import interpolation as interp
from helmfmm import traversal
from helmfmm.directions import father_direction, nearest_direction
from helmfmm.distributions import Distribution, generate_distribution
from helmfmm.fourier import SymbolCache
from helmfmm.geometry import BoundingBox, CellFrame, compute_root_box
from helmfmm.kernel import MAX_BLOCK_ENTRIES, HelmholtzKernel, direct_sum, relative_errors
from helmfmm.tree import Cell, build_tree
from helmfmm.traversal import (
    FmmConfig,
    _Context,
    _distance,
    _downward,
    _l2p_cell,
    _lagrange_table,
    _p2m_cell,
    _plan_rows,
    _spans,
    _use_table,
    _upward,
    _waves,
    admissible,
    blank_dtt,
    dtt,
    run_fmm,
    run_fmm_full,
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
    assert _distance(a.coords - _cell([1, 0, 0], 2).coords, a.side) == 0.0
    assert _distance(a.coords - _cell([2, 0, 0], 2).coords, a.side) == pytest.approx(0.25)
    assert _distance(a.coords - _cell([2, 2, 0], 2).coords, a.side) == pytest.approx(
        0.25 * np.sqrt(2)
    )


def test_strict_mac_cases():
    a = _cell([0, 0, 0], 2)
    assert not admissible(a.coords - a.coords, a.side)
    assert not admissible(a.coords - _cell([1, 1, 1], 2).coords, a.side)
    assert admissible(a.coords - _cell([2, 0, 0], 2).coords, a.side)
    assert admissible(a.coords - _cell([2, 1, 1], 2).coords, a.side)


def test_directional_mac_thresholds():
    a = _cell([0, 0, 0], 2)
    far = _cell([3, 3, 3], 2)
    near = _cell([2, 0, 0], 2)
    w = a.radius
    dist_far = _distance(a.coords - far.coords, a.side)
    # pick kappa so the far pair is admissible but the near one is not
    kappa = dist_far / (w * w)
    assert admissible(a.coords - far.coords, a.side, kappa, 1.0)
    assert not admissible(a.coords - near.coords, a.side, kappa, 1.0)
    # a larger eta re-admits the near pair when 2w permits
    assert admissible(a.coords - near.coords, a.side, kappa, 10.0)


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
    t = _cell([6, 6, 6], level)
    side = t.side
    strict = admissible(tvecs, side)
    directional = admissible(tvecs, side, kappa, eta)
    for tvec, a, b in zip(tvecs, strict.tolist(), directional.tolist()):
        s = _cell(t.coords - tvec, level)
        ts = t.coords - s.coords
        assert a == admissible(ts, t.side) == _reference_mac(tvec, side, None, eta)
        assert b == admissible(ts, t.side, kappa, eta) == _reference_mac(tvec, side, kappa, eta)
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


@pytest.mark.parametrize("spread", [3, 1000])
def test_distinct_translations_match_numpy_unique(spread):
    # translations coded over a tight and over a sparse bounding box
    rng = np.random.default_rng(17)
    tvecs = rng.integers(-spread, spread + 1, size=(500, 3)).astype(np.int32)
    distinct, inverse = traversal._distinct(tvecs)
    ref, ref_inverse = np.unique(tvecs, axis=0, return_inverse=True)
    assert np.array_equal(distinct, ref) and distinct.dtype == np.int64
    assert np.array_equal(inverse, ref_inverse.reshape(-1))


def _recursive_plan(ctx):
    """The interaction lists of the recursive dual tree traversal, per
    level: M2L as (target, source, diagonal, direction), P2P as (target,
    source), with symbols from a cache of its own."""
    cache = SymbolCache(ctx.kernel, ctx.config.order)
    config = ctx.config
    m2l, p2p = {}, {}

    def visit(t, s):
        tvec = t.coords - s.coords
        hf = ctx.is_hf(t.level)
        if admissible(tvec, t.side, config.kappa if hf else None, config.eta):
            unit = tvec / np.linalg.norm(tvec)
            d = nearest_direction(ctx.dirs, ctx.refinement(t.level), unit) if hf else 0
            diagonal = cache.diagonals[cache.get(t.level, tvec, t.side)]
            m2l.setdefault(t.level, []).append((t.index, s.index, diagonal, d))
        elif t.is_leaf or s.is_leaf:
            p2p.setdefault(t.level, []).append((t.index, s.index))
        else:
            for t2 in t.sons:
                for s2 in s.sons:
                    visit(t2, s2)

    visit(ctx.target_tree.root, ctx.source_tree.root)
    return m2l, p2p


def _planning_context(targets, sources, config, q=None):
    """A solve's context, its trees built on the box of both clouds."""
    same = targets is sources
    box = compute_root_box(sources if same else np.vstack([targets, sources]))
    q = np.ones(len(sources)) if q is None else q
    stree, spset = build_tree(sources, q, config.ncrit, root_box=box)
    ttree, tpset = (stree, spset) if same else build_tree(
        targets, np.zeros(len(targets)), config.ncrit, root_box=box
    )
    kernel = HelmholtzKernel(kappa=config.kappa, singularity_tol=1e-12 * box.side)
    return _Context(config, kernel, ttree, stree, tpset, spset)


def _assert_planned_as_the_recursion(ctx):
    """blank_dtt's lists, level by level and in order, are the recursion's,
    each M2L with the same diagonal and direction; returns the P2P pairs."""
    m2l, p2p = _recursive_plan(ctx)
    blank_dtt(ctx.target_tree.root, ctx.source_tree.root, ctx)
    cells = ctx.target_tree.cells
    planned = {}
    it = iter(ctx.m2l_plan)
    for t, s, entry in zip(it, it, it):
        diagonal, d = ctx.cache.diagonals[entry], ctx.cache.directions[entry]
        planned.setdefault(cells[t].level, []).append((t, s, diagonal, d))
    assert planned.keys() == m2l.keys()
    for level, ref in m2l.items():
        got = planned[level]
        assert [(t, s, d) for t, s, _, d in got] == [(t, s, d) for t, s, _, d in ref]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(got, ref))
    pairs = {}
    it = iter(ctx.p2p_plan)
    for t, s in zip(it, it):
        pairs.setdefault(cells[t].level, []).append((t, s))
    assert pairs == p2p
    return [pair for level in pairs.values() for pair in level]


@pytest.mark.parametrize("chunk", [None, 97])
def test_plan_matches_the_recursion_on_a_laplace_cube(monkeypatch, chunk):
    if chunk:  # levels taken in many slices
        monkeypatch.setattr(traversal, "PLAN_CHUNK", chunk)
    pts = generate_distribution(Distribution("uniform-cube", 2000, 3))
    ctx = _planning_context(pts, pts, FmmConfig(order=3, ncrit=16, kappa=0.0))
    assert ctx.hf_max_level == -1 and ctx.target_tree.depth >= 3
    _assert_planned_as_the_recursion(ctx)


@pytest.mark.parametrize("chunk", [None, 97])
def test_plan_matches_the_recursion_on_a_directional_sphere(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(traversal, "PLAN_CHUNK", chunk)
    pts = generate_distribution(Distribution("sphere", 1000))
    ctx = _planning_context(pts, pts, FmmConfig(order=3, ncrit=8, kappa=20.0))
    assert ctx.hf_max_level >= 2 and ctx.refinement(0) > ctx.refinement(ctx.hf_max_level)
    _assert_planned_as_the_recursion(ctx)


@pytest.mark.parametrize("kappa", [0.0, 6.0])
def test_plan_matches_the_recursion_on_two_trees(kappa):
    targets, sources, _ = _plane_over_cloud()
    ctx = _planning_context(targets, sources, FmmConfig(order=3, ncrit=16, kappa=kappa))
    pairs = _assert_planned_as_the_recursion(ctx)
    tcells, scells = ctx.target_tree.cells, ctx.source_tree.cells
    assert any(not (tcells[t].is_leaf and scells[s].is_leaf) for t, s in pairs)


@FMM_SETTINGS
@given(st.one_of(with_duplicates(), planar(), far_clusters()), fmm_ncrits, st.sampled_from([0.0, 10.0]))
def test_plan_matches_the_recursion_on_degenerate_clouds(points, ncrit, kappa_d):
    side = compute_root_box(points).side
    config = FmmConfig(order=3, ncrit=ncrit, kappa=kappa_d / side)
    _assert_planned_as_the_recursion(_planning_context(points, points, config))


def _counting(monkeypatch, name, seen):
    """Wrap traversal.<name>, appending the arguments of each call to seen."""
    original = getattr(traversal, name)

    def wrapper(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(traversal, name, wrapper)


@pytest.mark.parametrize("same", [True, False])
def test_one_planner_call_and_one_resolve_per_translation(monkeypatch, same):
    """The planner is one call per solve, and it resolves each distinct
    admissible (level, translation) once: no Python visit per cell pair."""
    blanks, resolves = [], []
    _counting(monkeypatch, "blank_dtt", blanks)
    _counting(monkeypatch, "_resolve", resolves)
    rng = np.random.default_rng(11)
    sources = rng.uniform(size=(400, 3))
    targets = sources if same else rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.5]
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    _, info = run_fmm_full(targets, sources, q, FmmConfig(order=3, ncrit=16, kappa=12.0))
    assert len(blanks) == 1
    ctx = blanks[0][2]
    admitted = [entry for entry in ctx.resolved.values() if entry >= 0]
    assert len(resolves) == len(admitted) == ctx.cache.n_translations > 0
    assert sorted(admitted) == list(range(ctx.cache.n_translations))
    assert len({(level, *tvec.tolist()) for _, level, tvec in resolves}) == len(resolves)
    assert len(ctx.resolved) < info.counts["m2l_events"] + len(ctx.p2p_plan) // 2


@pytest.mark.parametrize("same,kappa", [(True, 8.0), (False, 12.0)])
def test_table_directions_are_the_rows_each_m2l_reads_and_writes(same, kappa):
    """The direction of an M2L event's table entry is the direction of the
    local it writes and of the multipole it reads: the direction nearest
    to its translation at a high-frequency level, 0 at a low-frequency
    one."""
    sources = generate_distribution(Distribution("sphere", 1000))
    targets = sources if same else sources[::3] * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]
    ctx = _planning_context(targets, sources, FmmConfig(order=3, ncrit=8, kappa=kappa))
    blank_dtt(ctx.target_tree.root, ctx.source_tree.root, ctx)
    cells = np.frombuffer(ctx.m2l_plan, dtype=np.intc).reshape(-1, 3).copy()
    _plan_rows(ctx)
    rows = np.frombuffer(ctx.m2l_plan, dtype=np.intc).reshape(-1, 3)
    n = ctx.n_dirs
    tcells, scells = ctx.target_tree.cells, ctx.source_tree.cells
    levels = set()
    for (ti, si, entry), (j, row, _) in zip(cells.tolist(), rows.tolist()):
        d = ctx.cache.directions[entry]
        assert d == ctx.m2l_keys[j] % n == ctx.m2f_keys[row] % n
        t, s = tcells[ti], scells[si]
        assert (ctx.m2l_keys[j] // n, ctx.m2f_keys[row] // n) == (ti, si)
        if ctx.is_hf(t.level):
            tvec = t.coords - s.coords
            unit = tvec / np.linalg.norm(tvec)
            assert d == nearest_direction(ctx.dirs, ctx.refinement(t.level), unit)
        else:
            assert d == 0
        levels.add(ctx.is_hf(t.level))
    # both regimes were planned, and some high-frequency entry was tagged
    assert levels == {True, False}
    assert any(ctx.cache.directions)


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
    ctx = _planning_context(targets, sources, config, q)
    ttree, stree, tpset, spset = ctx.target_tree, ctx.source_tree, ctx.target_pset, ctx.source_pset
    kernel = ctx.kernel
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


def test_leaf_basis_from_the_table_matches_basis_matrix():
    rng = np.random.default_rng(14)
    pts = rng.uniform(size=(600, 3))
    order = 5
    tree, pset = build_tree(pts, rng.normal(size=600) + 0j, 16)
    table = _lagrange_table(order, tree, pset)
    assert table.shape == (600, 3, order)
    for leaf in tree.leaves:
        pos = pset.positions[leaf.start : leaf.stop]
        ref = interp.basis_matrix(order, (pos - leaf.frame.alpha) / leaf.frame.beta)
        got = interp.tensor_basis(table[leaf.start : leaf.stop])
        assert np.abs(got - ref).max(initial=0.0) <= 1e-15


def test_closed_form_grid_waves_match_the_cell_grid_plane_wave():
    pts = generate_distribution(Distribution("sphere", 1000))
    q = np.ones(1000, dtype=complex)
    config = FmmConfig(order=4, ncrit=8, kappa=20.0)
    tree, pset = build_tree(pts, q, config.ncrit)
    ctx = _Context(config, HelmholtzKernel(kappa=config.kappa), tree, tree, pset, pset)
    level = ctx.hf_max_level
    grid = interp.grid_points(config.order)
    # the deepest high-frequency level under its own directions (P2M/L2P)
    # and under its fathers' (M2M/L2L)
    refinements = (ctx.refinement(level), ctx.refinement(level - 1))
    for e in refinements:
        ds = list(range(ctx.dirs.count(e)))
        for cell in tree.levels[level]:
            x = cell.frame.alpha + cell.frame.beta * grid
            for d, wave in zip(ds, _waves(ctx, cell, e, ds)):
                ref = interp.plane_wave(x, config.kappa, ctx.dirs.levels[e][d])
                assert np.abs(wave - ref).max() < 1e-13
    # one grid wave per (level, direction)
    assert len(ctx.grid_waves) == sum(ctx.dirs.count(e) for e in refinements)


def _hf_leaf_blocks(ctx, keys, tree, pset):
    """(leaf, lo, hi, basis, grid waves, particle waves) of each
    high-frequency leaf with several rows among the sorted keys, the waves
    exp(i*kappa*<x, u>) built point by point, one per row."""
    order, kappa = ctx.config.order, ctx.config.kappa
    grid = interp.grid_points(order)
    spans = _spans(keys, tree, ctx.n_dirs)
    for leaf in tree.leaves:
        lo, hi = spans[leaf.index], spans[leaf.index + 1]
        if not ctx.is_hf(leaf.level) or hi - lo < 2:
            continue
        pos = pset.positions[leaf.start : leaf.stop]
        b = interp.basis_matrix(order, (pos - leaf.frame.alpha) / leaf.frame.beta)
        units = ctx.dirs.levels[ctx.refinement(leaf.level)][keys[lo:hi] % ctx.n_dirs]
        x = leaf.frame.alpha + leaf.frame.beta * grid
        yield (
            leaf, lo, hi, b,
            [interp.plane_wave(x, kappa, u) for u in units],
            [interp.plane_wave(pos, kappa, u) for u in units],
        )


def test_modulated_p2m_l2p_match_the_explicit_phases():
    """Every row of a high-frequency leaf's P2M and L2P block is the basis
    product between the particle phases and the plane wave on the leaf's
    grid, for the row's own direction."""
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(400, 3))
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    config = FmmConfig(order=4, ncrit=16, kappa=12.0)
    size = config.order**3
    tree, pset = build_tree(pts, q, config.ncrit)
    ctx = _Context(config, HelmholtzKernel(kappa=config.kappa), tree, tree, pset, pset)
    blank_dtt(tree.root, tree.root, ctx)
    _plan_rows(ctx)
    _use_table(ctx, tree, pset)

    ctx.multipole = np.zeros((len(ctx.source_keys), size), dtype=complex)
    rows = 0
    for leaf, lo, hi, b, on_grid, on_pos in _hf_leaf_blocks(ctx, ctx.source_keys, tree, pset):
        _p2m_cell(ctx, leaf, lo, hi)
        qs = pset.charges[leaf.start : leaf.stop]
        for row, g, y in zip(range(lo, hi), on_grid, on_pos):
            expected = (b.T @ (qs * y.conj())) * g
            got = ctx.multipole[row]
            assert np.allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            rows += 1
    assert rows > 0

    ctx.local = np.zeros((len(ctx.target_keys), size), dtype=complex)
    rows = 0
    for leaf, lo, hi, b, on_grid, on_pos in _hf_leaf_blocks(ctx, ctx.target_keys, tree, pset):
        # one row of the block at a time
        for row, g, y in zip(range(lo, hi), on_grid, on_pos):
            local = rng.normal(size=size) + 1j * rng.normal(size=size)
            ctx.local[lo:hi] = 0
            ctx.local[row] = local
            pset.potentials[:] = 0
            _l2p_cell(ctx, leaf, lo, hi)
            expected = (b @ (local * g.conj())) * y
            got = pset.potentials[leaf.start : leaf.stop]
            assert np.allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            rows += 1
    assert rows > 0


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
