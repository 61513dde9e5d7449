"""Dual tree traversal, blank precomputation passes and the FMM driver.

The driver pipeline plans, then executes:

    build trees -> blank DTT (interaction lists) -> expansion keys and
    rows -> P2M at leaves -> M2M upward -> M2F -> DTT (replay: Hadamard
    M2L, then P2P) -> F2L -> L2L downward -> L2P -> un-permute potentials

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

Expansions live in per-solve arrays, one row per key cell.index * n_dirs
+ d (d the direction index at the cell's level, 0 at low frequency), in the
sorted key order of their side: the source keys are the multipoles that M2L
reads and, below them through the father directions, those M2M reads; the
target keys are the locals that M2L writes and, below them, those L2L writes.
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
        # (diagonal, direction index) entries; flat cell-index triplets,
        # whose cells _plan_rows rewrites as rows, and pairs
        self.resolved: dict = {}
        self.m2l_entries: list = []
        self.m2l_plan = array("i")
        self.p2p_plan = array("i")
        # _plan_rows' sorted keys (see the module docstring); m2l_keys are
        # the target keys M2L writes, one local_hat row each
        self.source_keys = self.target_keys = self.m2l_keys = None
        self.multipole = self.multipole_hat = self.local_hat = self.local = None

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
        self.n_dirs = 1
        if hf_max >= 0:
            # kw_deepest >= hf_switch, so the rounded log2 is >= 0
            ratio = np.log2(kw_deepest / config.hf_switch)
            self.deepest_refinement = int(np.floor(ratio + 0.5))
            self.dirs = generate_direction_tree(self.refinement(0))
            self.n_dirs = self.dirs.count(self.refinement(0))

    def is_hf(self, level: int) -> bool:
        return level <= self.hf_max_level

    def refinement(self, level: int) -> int:
        """Direction refinement of a high-frequency level."""
        return self.deepest_refinement + self.hf_max_level - level

    def mac(self, t: Cell, s: Cell) -> bool:
        if self.is_hf(t.level):
            return directional_mac(t, s, self.config.kappa, self.config.eta)
        return strict_mac(t, s)


# ---------------------------------------------------------------------------
# blank pass and expansion keys


def _resolve(t: Cell, s: Cell, tvec: np.ndarray, ctx: _Context) -> int:
    """New M2L entry for the translation of (t, s), or -1 if not admissible."""
    if not ctx.mac(t, s):
        return -1
    hf = ctx.is_hf(t.level)
    direction = 0
    if hf:
        e = ctx.refinement(t.level)
        direction = nearest_direction(ctx.dirs, e, tvec / np.linalg.norm(tvec))
    t0 = time.perf_counter()
    sym = ctx.cache.get(t.level, tuple(tvec), t.side)
    if hf:
        ctx.cache.tag_direction(t.level, tuple(tvec), direction)
    ctx.precompute_time += time.perf_counter() - t0
    ctx.m2l_entries.append((sym.diagonal, direction))
    return len(ctx.m2l_entries) - 1


def blank_dtt(t: Cell, s: Cell, ctx: _Context) -> None:
    """Record the interaction lists of (t, s)."""
    tvec = t.coords - s.coords
    key = (t.level, *tvec.tolist())
    entry = ctx.resolved.get(key)
    if entry is None:
        entry = ctx.resolved[key] = _resolve(t, s, tvec, ctx)
    if entry >= 0:
        ctx.m2l_plan.extend((t.index, s.index, entry))
    elif t.is_leaf or s.is_leaf:
        ctx.p2p_plan.extend((t.index, s.index))
    else:
        for t2 in t.sons:
            for s2 in s.sons:
                blank_dtt(t2, s2, ctx)


def _son_directions(ctx: _Context, level: int, ds: list) -> np.ndarray:
    """Direction index at level + 1 that each direction index of ``level``
    hands down: its father direction, or 0 at a low-frequency son level."""
    if not ctx.is_hf(level + 1):
        return np.zeros(len(ds), dtype=np.int64)
    e = ctx.refinement(level)
    return np.array([father_direction(ctx.dirs, e, d) for d in ds], dtype=np.int64)


def _closure(ctx: _Context, tree: ClusterTree, seeds: np.ndarray) -> np.ndarray:
    """The seed keys and, below them, the keys of the son expansions that
    M2M reads or L2L writes, sorted."""
    n = ctx.n_dirs
    held: dict = {}  # cell index -> direction indices
    for key in seeds.tolist():
        held.setdefault(key // n, set()).add(key % n)
    for cell in tree.cells:  # level by level: every father before its sons
        if cell.sons and cell.index in held:
            son_ds = _son_directions(ctx, cell.level, sorted(held[cell.index])).tolist()
            for son in cell.sons:
                held.setdefault(son.index, set()).update(son_ds)
    return np.array(sorted(c * n + d for c, ds in held.items() for d in ds), dtype=np.int64)


def _plan_rows(ctx: _Context) -> None:
    """Derive both key sets from the M2L plan, then rewrite the plan's cell
    indices in place: the target as its row of local_hat (one row per key
    of m2l_keys), the source as its row of the source-side arrays."""
    n = ctx.n_dirs
    plan = np.frombuffer(ctx.m2l_plan, dtype=np.intc).reshape(-1, 3)
    dirs = np.array([d for _, d in ctx.m2l_entries], dtype=np.int64)

    def event_keys(col: int) -> np.ndarray:
        keys = plan[:, col].astype(np.int64)
        keys *= n
        keys += dirs[plan[:, 2]]
        return keys

    keys = event_keys(0)
    ctx.m2l_keys = np.unique(keys)
    ctx.target_keys = _closure(ctx, ctx.target_tree, ctx.m2l_keys)
    plan[:, 0] = np.searchsorted(ctx.m2l_keys, keys)
    keys = event_keys(1)
    ctx.source_keys = _closure(ctx, ctx.source_tree, np.unique(keys))
    plan[:, 1] = np.searchsorted(ctx.source_keys, keys)


def _spans(keys: np.ndarray, tree: ClusterTree, n: int) -> list:
    """Rows spans[i]:spans[i + 1] of the sorted keys belong to cell i."""
    return np.searchsorted(keys, np.arange(tree.n_cells + 1) * n).tolist()


def _son_rows(ctx: _Context, keys: np.ndarray, cell: Cell, lo: int, hi: int) -> list:
    """Per son, the rows of the son expansions that the cell's rows lo:hi
    read (M2M) or write (L2L); the key derivation must have made them."""
    son_ds = _son_directions(ctx, cell.level, (keys[lo:hi] % ctx.n_dirs).tolist())
    want = np.add.outer([son.index * ctx.n_dirs for son in cell.sons], son_ds)
    rows = np.searchsorted(keys, want)
    if not np.array_equal(keys.take(rows, mode="clip"), want):
        raise RuntimeError("missing son expansion: blank-pass inconsistency")
    return rows.tolist()


def _vectors(ctx: _Context, keys: np.ndarray, cell: Cell, lo: int, hi: int) -> list:
    """Unit directions of the cell's rows lo:hi; None at a low-frequency level."""
    if not ctx.is_hf(cell.level):
        return [None] * (hi - lo)
    return list(ctx.dirs.levels[ctx.refinement(cell.level)][keys[lo:hi] % ctx.n_dirs])


def _waves(ctx: _Context, cell: Cell, vecs: list) -> list:
    """exp(i*kappa*<x, u>) on the cell's grid for each direction u, and 1.0
    for the direction-free expansion of a low-frequency level."""
    if vecs[0] is None:
        return [1.0] * len(vecs)
    grid = interp.cell_grid(cell.frame, ctx.config.order)
    return [interp.plane_wave(grid, ctx.config.kappa, u) for u in vecs]


# ---------------------------------------------------------------------------
# upward pass


def _octant(father: Cell, son: Cell) -> tuple:
    return tuple(int(v) for v in son.coords - 2 * father.coords)


def _p2m_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    pset = ctx.source_pset
    pos = pset.positions[cell.start : cell.stop]
    q = pset.charges[cell.start : cell.stop]
    order = ctx.config.order
    # one basis per leaf, shared by all its directional expansions
    basis = interp.leaf_basis(cell.frame, order, pos)
    for row, u in zip(range(lo, hi), _vectors(ctx, ctx.source_keys, cell, lo, hi)):
        ctx.multipole[row] = interp.p2m(
            cell.frame, order, pos, q, ctx.config.kappa, u, basis
        )


def _m2m_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    multipole = ctx.multipole
    vecs = _vectors(ctx, ctx.source_keys, cell, lo, hi)
    d0 = _waves(ctx, cell, vecs)
    for son, rows in zip(cell.sons, _son_rows(ctx, ctx.source_keys, cell, lo, hi)):
        factors = interp.m2m_factors(ctx.config.order, _octant(cell, son))
        cols = [multipole[r] * d1.conjugate() for r, d1 in zip(rows, _waves(ctx, son, vecs))]
        stacked = interp.apply_strategy(ctx.config.strategy, factors, np.column_stack(cols))
        for j, w in enumerate(d0):
            multipole[lo + j] += stacked[:, j] * w


def _upward(ctx: _Context, tree: ClusterTree) -> None:
    keys = ctx.source_keys
    ws = ctx.workspace
    ctx.multipole = np.zeros((len(keys), ws.nodal_size), dtype=complex)
    spans = _spans(keys, tree, ctx.n_dirs)
    for cell in reversed(tree.cells):
        lo, hi = spans[cell.index], spans[cell.index + 1]
        if lo < hi:
            (_p2m_cell if cell.is_leaf else _m2m_cell)(ctx, cell, lo, hi)
    # convert every multipole expansion to the Fourier domain; one implicit
    # plan is reused and each expansion is padded+transformed individually
    ctx.multipole_hat = np.empty((len(keys), ws.fourier_size), dtype=complex)
    for row, nodal in enumerate(ctx.multipole):
        ctx.multipole_hat[row] = ws.m2f(nodal)
    ctx.multipole = None


# ---------------------------------------------------------------------------
# dual tree traversal


def dtt(ctx: _Context) -> None:
    """Replay blank_dtt's lists: every M2L in recorded order, then the P2P
    pairs as one direct sum per target cell, against all its near sources."""
    tcells = ctx.target_tree.cells
    scells = ctx.source_tree.cells
    n = ctx.n_dirs
    ctx.local_hat = np.zeros((len(ctx.m2l_keys), ctx.workspace.fourier_size), dtype=complex)
    # row views: one Python list lookup per operand instead of a 2-D index
    locals_hat = list(ctx.local_hat)
    multipoles_hat = list(ctx.multipole_hat)
    entries = ctx.m2l_entries
    it = iter(ctx.m2l_plan)
    for j, row, entry in zip(it, it, it):
        m2l_hadamard(locals_hat[j], multipoles_hat[row], entries[entry][0])
        if ctx.events is not None:
            t = tcells[ctx.m2l_keys[j] // n]
            ctx.events.append(InteractionEvent("M2L", t, scells[ctx.source_keys[row] // n]))
    # every M2L has read its multipole
    del multipoles_hat
    ctx.multipole_hat = None
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


def _l2l_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    local = ctx.local
    vecs = _vectors(ctx, ctx.target_keys, cell, lo, hi)
    d1 = _waves(ctx, cell, vecs)
    cols = np.column_stack([local[lo + j] * w.conjugate() for j, w in enumerate(d1)])
    for son, rows in zip(cell.sons, _son_rows(ctx, ctx.target_keys, cell, lo, hi)):
        factors = interp.l2l_factors(ctx.config.order, _octant(cell, son))
        stacked = interp.apply_strategy(ctx.config.strategy, factors, cols)
        for j, (row, d0) in enumerate(zip(rows, _waves(ctx, son, vecs))):
            local[row] += stacked[:, j] * d0


def _l2p_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    pset = ctx.target_pset
    pos = pset.positions[cell.start : cell.stop]
    order = ctx.config.order
    basis = interp.leaf_basis(cell.frame, order, pos)
    for row, u in zip(range(lo, hi), _vectors(ctx, ctx.target_keys, cell, lo, hi)):
        pset.potentials[cell.start : cell.stop] += interp.l2p(
            cell.frame, order, pos, ctx.local[row], ctx.config.kappa, u, basis
        )


def _downward(ctx: _Context, tree: ClusterTree) -> None:
    ws = ctx.workspace
    keys = ctx.target_keys
    ctx.local = np.zeros((len(keys), ws.nodal_size), dtype=complex)
    spans = _spans(keys, tree, ctx.n_dirs)
    hat_spans = _spans(ctx.m2l_keys, tree, ctx.n_dirs)
    hat_rows = np.searchsorted(keys, ctx.m2l_keys).tolist()
    for cell in tree.cells:
        lo, hi = spans[cell.index], spans[cell.index + 1]
        if lo == hi:
            continue
        # the father's L2L has already added to these rows
        for j in range(hat_spans[cell.index], hat_spans[cell.index + 1]):
            ctx.local[hat_rows[j]] += ws.f2l(ctx.local_hat[j])
        (_l2p_cell if cell.is_leaf else _l2l_cell)(ctx, cell, lo, hi)


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
    _plan_rows(ctx)
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

    info.counts = {
        "cells": target_tree.n_cells if same else target_tree.n_cells + source_tree.n_cells,
        "leaves": len(target_tree.leaves) if same else len(target_tree.leaves) + len(source_tree.leaves),
        "symbols": ctx.cache.n_canonical,
        "effective_expansions": len(ctx.source_keys),
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
