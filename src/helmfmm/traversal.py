"""Dual tree traversal, blank precomputation passes and the FMM driver.

The driver pipeline plans, then executes:

    build trees -> blank DTT (interaction lists) -> blank downward pass ->
    P2M at leaves -> M2M upward -> M2F -> DTT (replay: Hadamard M2L, then
    P2P) -> F2L -> L2L downward -> L2P -> un-permute potentials

The blank DTT is the only recursion.  The strict MAC applies at
low-frequency levels and the direction-free high-frequency MAC
max{kappa*w^2, 2w} / dist(t, s) <= eta at high-frequency ones; both depend
on (level, translation) only, so each distinct one is resolved once (MAC,
M2L symbol and, at high frequency, direction): symbol precomputation lies
inside the blank pass only.  The numeric DTT replays the recorded M2L
entries in order, so every accumulator sums as in the recursion.  It
evaluates the P2P list as one direct sum per target cell, against the
particles of all its near source cells gathered in recorded order, in
kernel blocks of at most MAX_BLOCK_ENTRIES entries, real at kappa = 0; the
P2P events and the pair count are kept per recorded pair.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import interpolation as interp
from .directions import (
    DirectionTree,
    father_direction,
    generate_direction_tree,
    nearest_direction,
)
from .fourier import FourierWorkspace, SymbolCache, m2l_hadamard
from .kernel import HelmholtzKernel, direct_sum
from .tree import Cell, ClusterTree, ParticleSet, accumulate_potentials, build_tree

__all__ = [
    "FmmConfig",
    "InteractionEvent",
    "strict_mac",
    "directional_mac",
    "run_fmm",
    "run_fmm_full",
    "FmmInfo",
]


@dataclass(frozen=True)
class FmmConfig:
    order: int = 5
    ncrit: int = 64
    eta: float = 1.0
    kappa: float = 0.0
    strategy: str = "t+s+r"
    # a cell is high-frequency iff kappa * radius >= hf_switch; 2.0 is the
    # crossover where kappa*w^2 >= 2w in the directional MAC numerator.  It
    # also scales the direction refinement: a high-frequency level with
    # kappa * radius ~ 2**e * hf_switch uses the 6 * 4**e directions
    hf_switch: float = 2.0

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.ncrit < 1:
            raise ValueError("ncrit must be >= 1")
        if self.strategy not in interp.STRATEGIES:
            raise ValueError(f"strategy must be one of {interp.STRATEGIES}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and >= 0")
        if not (np.isfinite(self.hf_switch) and self.hf_switch > 0):
            raise ValueError("hf_switch must be finite and > 0")


@dataclass(frozen=True)
class InteractionEvent:
    kind: str  # "M2L" | "P2P"
    target: Cell
    source: Cell
    direction: object = None


def _gap_sq(t: Cell, s: Cell) -> float:
    """Squared min distance between the two cubes, in cell-side units."""
    tvec = t.coords - s.coords
    gaps = np.maximum(np.abs(tvec) - 1, 0)
    return float(gaps @ gaps)


def cell_distance(t: Cell, s: Cell) -> float:
    """Exact min distance between the closed cell cubes (same level)."""
    return t.side * np.sqrt(_gap_sq(t, s))


def strict_mac(t: Cell, s: Cell) -> bool:
    """Well-separated iff the cube distance is at least one side length."""
    if t.level != s.level:
        raise ValueError("strict MAC requires same-level cells")
    return _gap_sq(t, s) >= 1.0


def directional_mac(t: Cell, s: Cell, kappa: float, eta: float) -> bool:
    """max{kappa*w^2, 2w} / dist(t,s) <= eta, with w the cell radius."""
    if t.level != s.level:
        raise ValueError("directional MAC requires same-level cells")
    w = t.radius
    dist = cell_distance(t, s)
    return max(kappa * w * w, 2.0 * w) <= eta * dist


class _Context:
    """Shared state of one FMM evaluation."""

    def __init__(
        self,
        config: FmmConfig,
        kernel: HelmholtzKernel,
        target_tree: ClusterTree,
        source_tree: ClusterTree,
        target_pset: ParticleSet,
        source_pset: ParticleSet,
        events: list | None = None,
    ):
        self.config = config
        self.kernel = kernel
        self.target_tree = target_tree
        self.source_tree = source_tree
        self.target_pset = target_pset
        self.source_pset = source_pset
        self.workspace = FourierWorkspace(config.order)
        self.cache = SymbolCache(kernel, config.order)
        self.events = events
        self.n_p2p_pairs = 0
        self.precompute_time = 0.0
        # blank_dtt's plan: (level, translation) -> m2l_entries index or -1;
        # (diagonal, direction) entries; flat cell-index triplets and pairs
        self.resolved: dict = {}
        self.m2l_entries: list = []
        self.m2l_plan = array("i")
        self.p2p_plan = array("i")

        # hf_max_level is the deepest level whose cells satisfy
        # kappa * radius >= hf_switch.  Each high-frequency level l gets the
        # refinement round(log2(kappa * w_l / hf_switch)), so the cone
        # aperture shrinks like 1 / (kappa * w_l) whatever the tree depth.
        # w halves per level, so the rule is evaluated once at hf_max_level
        # and stepped by exactly one per level above it: the father/son
        # direction nesting of M2M and L2L relies on that step.
        depth = max(target_tree.depth, source_tree.depth)
        hf_max = -1
        kw_deepest = 0.0
        if config.kappa > 0:
            for level in range(depth + 1):
                kw = config.kappa * np.sqrt(3.0) * target_tree.side_at(level) / 2.0
                if kw >= config.hf_switch:
                    hf_max = level
                    kw_deepest = kw
                else:
                    break
        self.hf_max_level = hf_max
        self.deepest_refinement = 0
        self.dirs: DirectionTree | None = None
        if hf_max >= 0:
            # kw_deepest >= hf_switch, so the rounded log2 is >= 0
            ratio = np.log2(kw_deepest / config.hf_switch)
            self.deepest_refinement = int(np.floor(ratio + 0.5))
            self.dirs = generate_direction_tree(self.refinement(0))

    def is_hf(self, level: int) -> bool:
        return level <= self.hf_max_level

    def refinement(self, level: int) -> int:
        """Direction refinement of a high-frequency level."""
        return self.deepest_refinement + self.hf_max_level - level

    def mac(self, t: Cell, s: Cell) -> bool:
        if self.is_hf(t.level):
            return directional_mac(t, s, self.config.kappa, self.config.eta)
        return strict_mac(t, s)

    def direction_vector(self, dir_id) -> np.ndarray:
        e, i = dir_id
        return self.dirs.levels[e][i]


# ---------------------------------------------------------------------------
# blank passes


def _resolve(t: Cell, s: Cell, tvec: np.ndarray, ctx: _Context) -> int:
    """New M2L entry for the translation of (t, s), or -1 if not admissible."""
    if not ctx.mac(t, s):
        return -1
    direction = None
    if ctx.is_hf(t.level):
        e = ctx.refinement(t.level)
        direction = (e, nearest_direction(ctx.dirs, e, tvec / np.linalg.norm(tvec)))
    t0 = time.perf_counter()
    sym = ctx.cache.get(t.level, tuple(tvec), t.side)
    if direction is not None:
        ctx.cache.tag_direction(t.level, tuple(tvec), direction)
    ctx.precompute_time += time.perf_counter() - t0
    ctx.m2l_entries.append((sym.diagonal, direction))
    return len(ctx.m2l_entries) - 1


def blank_dtt(t: Cell, s: Cell, ctx: _Context) -> None:
    """Record the interaction lists of (t, s) and mark needed directions."""
    tvec = t.coords - s.coords
    key = (t.level, *tvec.tolist())
    entry = ctx.resolved.get(key)
    if entry is None:
        entry = ctx.resolved[key] = _resolve(t, s, tvec, ctx)
    if entry >= 0:
        direction = ctx.m2l_entries[entry][1]
        if direction is not None:
            t.marks.add(direction)
            s.marks.add(direction)
        ctx.m2l_plan.extend((t.index, s.index, entry))
    elif t.is_leaf or s.is_leaf:
        ctx.p2p_plan.extend((t.index, s.index))
    else:
        for t2 in t.sons:
            for s2 in s.sons:
                blank_dtt(t2, s2, ctx)


def blank_downward_pass(c: Cell, ctx: _Context) -> None:
    """Propagate every mark down as its father direction, through the
    high-frequency levels; low-frequency sons take no directions."""
    if not ctx.is_hf(c.level + 1):
        return
    for e, i in sorted(c.marks):
        fid = (e - 1, father_direction(ctx.dirs, e, i))
        for son in c.sons:
            son.marks.add(fid)
    for son in c.sons:
        blank_downward_pass(son, ctx)


# ---------------------------------------------------------------------------
# upward pass


def _octant(father: Cell, son: Cell) -> tuple:
    return tuple(int(v) for v in son.coords - 2 * father.coords)


def _p2m_cell(ctx: _Context, cell: Cell) -> None:
    pset = ctx.source_pset
    pos = pset.positions[cell.start : cell.stop]
    q = pset.charges[cell.start : cell.stop]
    order = ctx.config.order
    keys = sorted(cell.marks) if ctx.is_hf(cell.level) else [None]
    if not keys:
        return
    # one basis per leaf, shared by all its directional expansions
    basis = interp.leaf_basis(cell.frame, order, pos)
    for key in keys:
        u = ctx.direction_vector(key) if key is not None else None
        cell.multipole[key] = interp.p2m(
            cell.frame, order, pos, q, ctx.config.kappa, u, basis
        )


def _m2m_cell(ctx: _Context, cell: Cell) -> None:
    order = ctx.config.order
    kappa = ctx.config.kappa
    strategy = ctx.config.strategy
    hf = ctx.is_hf(cell.level)

    if hf:
        vids = sorted(cell.marks)
        if not vids:
            return
        father_grid = interp.cell_grid(cell.frame, order)
        d0 = {vid: interp.plane_wave(father_grid, kappa, ctx.direction_vector(vid)) for vid in vids}
    else:
        vids = [None]

    out = {vid: np.zeros(order**3, dtype=complex) for vid in vids}
    for son in cell.sons:
        factors = interp.m2m_factors(order, _octant(cell, son))
        son_hf = ctx.is_hf(son.level)
        if hf:
            son_grid = interp.cell_grid(son.frame, order)
            cols = []
            for vid in vids:
                e, i = vid
                skey = (e - 1, father_direction(ctx.dirs, e, i)) if son_hf else None
                src = son.multipole.get(skey)
                if src is None:
                    raise RuntimeError(
                        "missing son expansion: blank-pass inconsistency"
                    )
                d1 = np.conj(interp.plane_wave(son_grid, kappa, ctx.direction_vector(vid)))
                cols.append(src * d1)
            stacked = interp.apply_strategy(strategy, factors, np.column_stack(cols))
            for j, vid in enumerate(vids):
                out[vid] += stacked[:, j] * d0[vid]
        else:
            src = son.multipole.get(None)
            if src is None:
                raise RuntimeError("missing son expansion: blank-pass inconsistency")
            stacked = interp.apply_strategy(strategy, factors, src[:, None])
            out[None] += stacked[:, 0]
    cell.multipole.update(out)


def _upward(ctx: _Context, tree: ClusterTree) -> None:
    for level in range(tree.depth, -1, -1):
        for cell in tree.levels[level]:
            if cell.is_leaf:
                _p2m_cell(ctx, cell)
            else:
                _m2m_cell(ctx, cell)
    # convert every multipole expansion to the Fourier domain; one implicit
    # plan is reused and each expansion is padded+transformed individually
    ws = ctx.workspace
    for level in tree.levels:
        for cell in level:
            for key, exp in cell.multipole.items():
                cell.multipole_hat[key] = ws.m2f(exp)


# ---------------------------------------------------------------------------
# dual tree traversal


def dtt(ctx: _Context) -> None:
    """Replay blank_dtt's lists: every M2L in recorded order, then the P2P
    pairs as one direct sum per target cell, against all its near sources."""
    tcells = ctx.target_tree.cells
    scells = ctx.source_tree.cells
    it = iter(ctx.m2l_plan)
    for ti, si, entry in zip(it, it, it):
        t, s = tcells[ti], scells[si]
        diagonal, key = ctx.m2l_entries[entry]
        acc = t.local_hat.get(key)
        if acc is None:
            acc = t.local_hat[key] = np.zeros(ctx.workspace.fourier_size, dtype=complex)
        m2l_hadamard(acc, s.multipole_hat[key], diagonal)
        if ctx.events is not None:
            ctx.events.append(InteractionEvent("M2L", t, s, key))
    # source cells of each target, in order of first appearance
    near: dict = {}
    it = iter(ctx.p2p_plan)
    for ti, si in zip(it, it):
        t, s = tcells[ti], scells[si]
        near.setdefault(ti, []).append(s)
        ctx.n_p2p_pairs += (t.stop - t.start) * (s.stop - s.start)
        if ctx.events is not None:
            ctx.events.append(InteractionEvent("P2P", t, s))
    tp = ctx.target_pset
    sp = ctx.source_pset
    for ti, sources in near.items():
        t = tcells[ti]
        idx = np.concatenate([np.arange(s.start, s.stop) for s in sources])
        tp.potentials[t.start : t.stop] += direct_sum(
            ctx.kernel, tp.positions[t.start : t.stop], sp.positions[idx], sp.charges[idx]
        )


# ---------------------------------------------------------------------------
# downward pass


def _l2l_cell(ctx: _Context, cell: Cell) -> None:
    order = ctx.config.order
    kappa = ctx.config.kappa
    strategy = ctx.config.strategy
    vids = sorted(cell.local, key=lambda k: (k is not None, k))
    if not vids:
        return
    hf = ctx.is_hf(cell.level)
    if hf:
        father_grid = interp.cell_grid(cell.frame, order)
        d1 = {
            vid: np.conj(interp.plane_wave(father_grid, kappa, ctx.direction_vector(vid)))
            for vid in vids
        }
    for son in cell.sons:
        factors = interp.l2l_factors(order, _octant(cell, son))
        if hf:
            son_hf = ctx.is_hf(son.level)
            son_grid = interp.cell_grid(son.frame, order)
            cols = [cell.local[vid] * d1[vid] for vid in vids]
            stacked = interp.apply_strategy(strategy, factors, np.column_stack(cols))
            for j, vid in enumerate(vids):
                e, i = vid
                skey = (e - 1, father_direction(ctx.dirs, e, i)) if son_hf else None
                inc = stacked[:, j] * interp.plane_wave(
                    son_grid, kappa, ctx.direction_vector(vid)
                )
                if skey in son.local:
                    son.local[skey] += inc
                else:
                    son.local[skey] = inc
        else:
            stacked = interp.apply_strategy(strategy, factors, cell.local[None][:, None])
            if None in son.local:
                son.local[None] += stacked[:, 0]
            else:
                son.local[None] = stacked[:, 0].copy()


def _l2p_cell(ctx: _Context, cell: Cell) -> None:
    pset = ctx.target_pset
    pos = pset.positions[cell.start : cell.stop]
    order = ctx.config.order
    keys = sorted(cell.local, key=lambda k: (k is not None, k))
    if not keys:
        return
    basis = interp.leaf_basis(cell.frame, order, pos)
    for key in keys:
        u = ctx.direction_vector(key) if key is not None else None
        pset.potentials[cell.start : cell.stop] += interp.l2p(
            cell.frame, order, pos, cell.local[key], ctx.config.kappa, u, basis
        )


def _downward(ctx: _Context, tree: ClusterTree) -> None:
    ws = ctx.workspace
    for level in tree.levels:
        for cell in level:
            for key in sorted(cell.local_hat, key=lambda k: (k is not None, k)):
                nodal = ws.f2l(cell.local_hat[key])
                if key in cell.local:
                    cell.local[key] += nodal
                else:
                    cell.local[key] = nodal
            if cell.is_leaf:
                _l2p_cell(ctx, cell)
            else:
                _l2l_cell(ctx, cell)


# ---------------------------------------------------------------------------
# driver


@dataclass
class FmmInfo:
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    hf_max_level: int = -1


def run_fmm_full(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    config: FmmConfig = FmmConfig(),
    events: list | None = None,
) -> tuple[np.ndarray, FmmInfo]:
    """Evaluate the Helmholtz N-body sum; returns (potentials, run info).

    Potentials come back in the caller's original particle order.  When
    ``targets is sources`` a single tree serves both sides.
    """
    info = FmmInfo()
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    same = targets is sources
    if same:
        source_tree, source_pset = build_tree(sources, charges, config.ncrit)
        target_tree, target_pset = source_tree, source_pset
    else:
        from .geometry import compute_root_box

        both = np.vstack([np.atleast_2d(targets), np.atleast_2d(sources)])
        box = compute_root_box(both)
        source_tree, source_pset = build_tree(sources, charges, config.ncrit, root_box=box)
        target_tree, target_pset = build_tree(
            targets, np.zeros(np.atleast_2d(targets).shape[0]), config.ncrit, root_box=box
        )
    info.timings["tree"] = time.perf_counter() - t0

    # box-relative singularity suppression
    kernel = HelmholtzKernel(
        kappa=config.kappa, singularity_tol=1e-12 * source_tree.root_box.side
    )
    ctx = _Context(
        config, kernel, target_tree, source_tree, target_pset, source_pset, events
    )
    info.hf_max_level = ctx.hf_max_level

    t0 = time.perf_counter()
    blank_dtt(target_tree.root, source_tree.root, ctx)
    blank_downward_pass(target_tree.root, ctx)
    if not same:
        blank_downward_pass(source_tree.root, ctx)
    info.timings["blank"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _upward(ctx, source_tree)
    info.timings["upward"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dtt(ctx)
    info.timings["m2l_p2p"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _downward(ctx, target_tree)
    info.timings["downward"] = time.perf_counter() - t0

    info.timings["precompute"] = ctx.precompute_time
    info.timings["total"] = time.perf_counter() - t_start

    n_exp = sum(
        len(c.multipole) for lv in source_tree.levels for c in lv
    )
    info.counts = {
        "cells": target_tree.n_cells if same else target_tree.n_cells + source_tree.n_cells,
        "leaves": len(target_tree.leaves) if same else len(target_tree.leaves) + len(source_tree.leaves),
        "symbols": ctx.cache.n_canonical,
        "effective_expansions": n_exp,
        "p2p_pairs": ctx.n_p2p_pairs,
        "m2l_events": len(ctx.m2l_plan) // 3,
    }
    return accumulate_potentials(target_pset), info


def run_fmm(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    config: FmmConfig = FmmConfig(),
) -> np.ndarray:
    potentials, _ = run_fmm_full(targets, sources, charges, config)
    return potentials
