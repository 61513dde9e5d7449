"""Dual tree traversal, blank precomputation passes and the FMM driver.

The driver pipeline plans, then executes:

    build trees -> blank DTT (interaction lists) -> expansion keys and
    rows -> P2M at leaves -> M2M upward -> M2F -> DTT (replay: Hadamard
    M2L, then P2P) -> F2L -> L2L downward -> L2P -> un-permute potentials

P2M and L2P form each leaf's (n, L^3) basis from one (N, 3, L) table of
1D Lagrange values per tree and solve, which a single tree's two passes
share.  Every operator acts on a cell's whole block of rows, one per
direction: the modulation exp(i*kappa*<x, u>) on a cell grid
alpha + beta * g is one phase per cell times a grid wave built once per
(level, direction) (_waves), and P2M/L2P take the particle side from one
(n, rows) phase matrix per leaf.  M2F transforms only the multipoles M2L
reads, and F2L, its mirror, only the locals M2L writes.

The blank DTT plans level by level on integer arrays, with no recursion:
a level's candidate (target, source) cell pairs are two index arrays, and
the pairs that neither interact nor touch a leaf hand their son pairs,
target son major, to the next level, so each level keeps the order of the
recursive traversal.  The strict MAC applies at low-frequency levels and
the direction-free high-frequency MAC max{kappa*w^2, 2w} / dist(t, s) <=
eta at high-frequency ones (one array function, admissible); both depend
on (level, translation) only, so each distinct one is resolved once: its
MAC, and if admissible its entry in the solve's M2L table (the
SymbolCache, which holds each entry's diagonal symbol and, at high
frequency, its direction).  The pairs take their entry by one array
lookup, so symbol precomputation lies inside the blank pass only.  The
numeric DTT replays the recorded M2L events in order, so every
accumulator sums as in the recursion.  It evaluates the P2P list as one
direct sum per target cell, against the particles of all its near source
cells gathered in recorded order, in kernel blocks of at most
MAX_BLOCK_ENTRIES entries, real at kappa = 0; the P2P events and the pair
count are kept per recorded pair.

Expansions live in per-solve arrays, one row per key cell.index * n_dirs
+ d (d the direction index at the cell's level, 0 at low frequency), in the
sorted key order of their side: the source keys are the multipoles that M2L
reads (m2f_keys) and, below them through the father directions, those M2M
reads; the target keys are the locals that M2L writes (m2l_keys) and, below
them, those L2L writes.
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
from .tree import Cell, ClusterTree, ParticleSet, accumulate_potentials, build_tree, cell_radius

__all__ = [
    "FmmConfig",
    "InteractionEvent",
    "run_fmm",
    "run_fmm_full",
    "FmmInfo",
]


# the finest direction set a solve may build: 6 * 4**8 = 393,216 directions
MAX_REFINEMENT = 8

# candidate cell pairs blank_dtt takes at a time, so that _entries'
# temporaries (about 50 bytes a pair) stay under 2 MB however many pairs a
# level holds; a level's son pairs are still held whole
PLAN_CHUNK = 1 << 15


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


def _distance(tvecs, side: float) -> np.ndarray:
    """Min distance between same-level cubes of side ``side`` at the integer
    translations tvecs (..., 3)."""
    gaps = np.maximum(np.abs(np.asarray(tvecs, dtype=np.int64)) - 1, 0)
    return side * np.sqrt((gaps * gaps).sum(axis=-1))


def admissible(tvecs, side: float, kappa: float | None = None, eta: float = 1.0) -> np.ndarray:
    """MAC of same-level cells of side ``side`` at the integer translations
    tvecs (..., 3).  With kappa None the strict MAC: the cube distance is
    at least one side; otherwise the directional MAC max{kappa*w^2, 2w} /
    dist(t, s) <= eta, with w the cell radius."""
    dist = _distance(tvecs, side)
    if kappa is None:
        return dist >= side
    w = cell_radius(side)
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
        # blank_dtt's plan: (level, translation) -> cache entry or -1; flat
        # (target, source, entry) triplets, whose cells _plan_rows rewrites
        # as rows, and flat (target, source) pairs
        self.resolved: dict = {}
        self.m2l_plan = array("i")
        self.p2p_plan = array("i")
        # _plan_rows' sorted keys (see the module docstring); m2l_keys are
        # the target keys M2L writes, one local_hat row each, and m2f_keys
        # the source keys it reads, one multipole_hat row each
        self.source_keys = self.target_keys = self.m2l_keys = self.m2f_keys = None
        self.multipole = self.multipole_hat = self.local_hat = self.local = None
        # the Lagrange table of table_pset (_use_table) and the grid waves
        # (_waves), both built once per solve
        self.table = self.table_pset = None
        self.grid_waves: dict = {}

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
            if self.refinement(0) > MAX_REFINEMENT:
                kw_root = config.kappa * np.sqrt(3.0) * target_tree.side_at(0) / 2.0
                raise ValueError(
                    f"kappa*w = {kw_root:.4g} at the root asks for direction "
                    f"refinement {self.refinement(0)} (6 * 4**{self.refinement(0)} "
                    f"directions), above {MAX_REFINEMENT}: lower kappa*w or raise hf_switch"
                )
            self.dirs = generate_direction_tree(self.refinement(0))
            self.n_dirs = self.dirs.count(self.refinement(0))

    def is_hf(self, level: int) -> bool:
        return level <= self.hf_max_level

    def refinement(self, level: int) -> int:
        """Direction refinement of a high-frequency level."""
        return self.deepest_refinement + self.hf_max_level - level


# ---------------------------------------------------------------------------
# blank pass and expansion keys


def _resolve(ctx: _Context, level: int, tvec: np.ndarray) -> int:
    """The cache entry of the admissible translation tvec at level, tagged
    at high frequency with the direction nearest to tvec."""
    hf = ctx.is_hf(level)
    if hf:
        e = ctx.refinement(level)
        direction = nearest_direction(ctx.dirs, e, tvec / np.linalg.norm(tvec))
    t0 = time.perf_counter()
    entry = ctx.cache.get(level, tvec, ctx.target_tree.side_at(level))
    if hf:
        ctx.cache.tag_direction(entry, direction)
    ctx.precompute_time += time.perf_counter() - t0
    return entry


def _distinct(tvecs: np.ndarray) -> tuple:
    """(distinct rows of tvecs in lexicographic order, the position of each
    row among them), through one int64 code per row over the rows'
    bounding box.  The code stays below 2**30: MAX_REFINEMENT keeps the
    high-frequency levels among 0 to 8, a translation at levels 0 to 9 has
    less than 2**9 cells per axis, and the sons of a low-frequency pair the
    strict MAC rejects lie at most 3 cells apart per axis."""
    lo = tvecs.min(axis=0)
    ext = tuple((tvecs.max(axis=0) - lo + 1).tolist())
    code = tvecs[:, 0] - np.int64(lo[0])
    for k in (1, 2):
        code *= ext[k]
        code += tvecs[:, k]
        code -= lo[k]
    codes, inverse = np.unique(code, return_inverse=True)
    distinct = np.stack(np.unravel_index(codes, ext), axis=1) + lo
    return distinct.astype(np.int64), inverse


def _entries(ctx: _Context, level: int, ti: np.ndarray, si: np.ndarray) -> np.ndarray:
    """The cache entry of each cell pair (ti, si) at level, -1 where
    it is not admissible.  Each distinct translation not in ctx.resolved is
    resolved once, the MAC evaluated on all of them at once."""
    tvecs = np.empty((len(ti), 3), dtype=np.int32)
    for k in range(3):  # an axis at a time: no (n, 3) temporaries
        np.subtract(ctx.target_tree.coords[ti, k], ctx.source_tree.coords[si, k], out=tvecs[:, k])
    distinct, inverse = _distinct(tvecs)
    del tvecs
    keys = [(level, *t) for t in distinct.tolist()]
    new = [i for i, key in enumerate(keys) if key not in ctx.resolved]
    if new:
        kappa = ctx.config.kappa if ctx.is_hf(level) else None
        side = ctx.target_tree.side_at(level)
        macs = admissible(distinct[new], side, kappa, ctx.config.eta).tolist()
        for i, mac in zip(new, macs):
            ctx.resolved[keys[i]] = _resolve(ctx, level, distinct[i]) if mac else -1
    entries = np.array([ctx.resolved[key] for key in keys], dtype=np.int32)
    return entries[inverse]


def _ramps(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    out = np.arange(counts.sum(), dtype=np.int32)
    out -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
    return out


def _son_pairs(ctx: _Context, ti: np.ndarray, si: np.ndarray) -> tuple:
    """The son pairs of the cell pairs (ti, si), pair by pair and target son
    major, as the recursion visits them: a row of source sons per (pair,
    target son)."""
    tt, st = ctx.target_tree, ctx.source_tree
    n_t, n_s = tt.n_sons[ti], st.n_sons[si]
    row_t = np.repeat(tt.first_son[ti], n_t) + _ramps(n_t)
    row_s = np.repeat(st.first_son[si], n_t)
    width = np.repeat(n_s, n_t)
    s2 = _ramps(width)
    s2 += np.repeat(row_s, width)
    return np.repeat(row_t, width), s2


def _append(plan: array, *columns: np.ndarray) -> None:
    # the rows' bytes are read through a uint8 view, without a copy
    plan.frombytes(np.stack(columns, axis=1, dtype=np.intc).view(np.uint8))


def _chunks(pairs: list):
    """The (target, source) index arrays of a level in slices of at most
    PLAN_CHUNK pairs, in order."""
    for ti, si in pairs:
        for lo in range(0, len(ti), PLAN_CHUNK):
            yield ti[lo : lo + PLAN_CHUNK], si[lo : lo + PLAN_CHUNK]


def blank_dtt(t_root: Cell, s_root: Cell, ctx: _Context) -> None:
    """Record the interaction lists of (t_root, s_root), level by level.

    The candidate pairs of a level are cell-index arrays, taken in slices
    of at most PLAN_CHUNK pairs.  The admissible ones become M2L triplets,
    the others with a leaf P2P pairs, and the rest hand their son pairs to
    the next level.  Each level keeps the order in which the recursive
    traversal visits its pairs, so every local_hat row sums its M2L terms
    in that order.
    """
    tt, st = ctx.target_tree, ctx.source_tree
    pairs = [(np.array([t_root.index], dtype=np.int32), np.array([s_root.index], dtype=np.int32))]
    level = t_root.level
    while pairs:
        sons = []
        for ti, si in _chunks(pairs):
            entry = _entries(ctx, level, ti, si)
            m2l = entry >= 0
            _append(ctx.m2l_plan, ti[m2l], si[m2l], entry[m2l])
            near = ~m2l
            split = near & (tt.n_sons[ti] > 0) & (st.n_sons[si] > 0)
            near &= ~split
            _append(ctx.p2p_plan, ti[near], si[near])
            if split.any():
                sons.append(_son_pairs(ctx, ti[split], si[split]))
        pairs = sons
        level += 1


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
    of m2l_keys), the source as its row of multipole_hat (one row per key
    of m2f_keys)."""
    n = ctx.n_dirs
    plan = np.frombuffer(ctx.m2l_plan, dtype=np.intc).reshape(-1, 3)
    dirs = np.array(ctx.cache.directions, dtype=np.int64)

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
    ctx.m2f_keys = np.unique(keys)
    ctx.source_keys = _closure(ctx, ctx.source_tree, ctx.m2f_keys)
    plan[:, 1] = np.searchsorted(ctx.m2f_keys, keys)


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


def _directions(ctx: _Context, keys: np.ndarray, cell: Cell, lo: int, hi: int) -> tuple:
    """(refinement, direction indices) of the cell's rows lo:hi; the
    refinement is None at a low-frequency level."""
    e = ctx.refinement(cell.level) if ctx.is_hf(cell.level) else None
    return e, (keys[lo:hi] % ctx.n_dirs).tolist()


def _waves(ctx: _Context, cell: Cell, e: int | None, ds: list) -> np.ndarray | None:
    """exp(i*kappa*<x, u>) on the cell's grid, one row per direction index
    of refinement e; None (no modulation) at low frequency.  A row is the
    phase exp(i*kappa*<alpha, u>) at the cell's corner times the grid wave
    exp(i*kappa*beta*<g, u>) on the reference grid g, which depends on the
    cell only through its level (side beta) and is built once per solve."""
    if e is None:
        return None
    kappa, units = ctx.config.kappa, ctx.dirs.levels[e]
    rows = []
    for d in ds:
        wave = ctx.grid_waves.get((cell.level, e, d))
        if wave is None:
            grid = cell.frame.beta * interp.grid_points(ctx.config.order)
            wave = ctx.grid_waves[cell.level, e, d] = interp.plane_wave(grid, kappa, units[d])
        rows.append(wave)
    corner = np.exp(1j * kappa * (units[ds] @ cell.frame.alpha))
    return np.array(rows) * corner[:, None]


def _lagrange_table(order: int, tree: ClusterTree, pset: ParticleSet) -> np.ndarray:
    """(N, 3, L) 1D Lagrange values of every particle, on each axis, in the
    frame of its leaf."""
    alpha = np.empty_like(pset.positions)
    beta = np.empty(len(pset.positions))
    for leaf in tree.leaves:
        alpha[leaf.start : leaf.stop] = leaf.frame.alpha
        beta[leaf.start : leaf.stop] = leaf.frame.beta
    unit = (pset.positions - alpha) / beta[:, None]
    return interp.eval_matrix_1d(order, unit.reshape(-1)).reshape(-1, 3, order)


def _use_table(ctx: _Context, tree: ClusterTree, pset: ParticleSet) -> None:
    """Make ctx.table the Lagrange table of pset, built once per solve: a
    single tree's upward and downward passes share one."""
    if ctx.table_pset is not pset:
        ctx.table = None  # release the other tree's table first
        ctx.table = _lagrange_table(ctx.config.order, tree, pset)
        ctx.table_pset = pset


# ---------------------------------------------------------------------------
# upward pass


def _octant(father: Cell, son: Cell) -> tuple:
    return tuple(int(v) for v in son.coords - 2 * father.coords)


def _leaf_block(
    ctx: _Context, keys: np.ndarray, pset: ParticleSet, cell: Cell, lo: int, hi: int
) -> tuple:
    """The leaf's (n, L^3) basis, its (rows, L^3) cell waves and its
    (n, rows) particle phases exp(i*kappa*<y, u>) for the rows lo:hi; no
    waves or phases (None) at a low-frequency level."""
    basis = interp.tensor_basis(ctx.table[cell.start : cell.stop])
    e, ds = _directions(ctx, keys, cell, lo, hi)
    if e is None:
        return basis, None, None
    pos = pset.positions[cell.start : cell.stop]
    phases = interp.plane_wave(pos, ctx.config.kappa, ctx.dirs.levels[e][ds].T)
    return basis, _waves(ctx, cell, e, ds), phases


def _p2m_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    pset = ctx.source_pset
    q = pset.charges[cell.start : cell.stop]
    basis, waves, phases = _leaf_block(ctx, ctx.source_keys, pset, cell, lo, hi)
    if waves is None:
        ctx.multipole[lo] = interp.p2m(basis, q)
    else:
        ctx.multipole[lo:hi] = interp.p2m(basis, q[:, None] * phases.conj()).T * waves


def _m2m_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    multipole = ctx.multipole
    e, ds = _directions(ctx, ctx.source_keys, cell, lo, hi)
    d0 = _waves(ctx, cell, e, ds)
    for son, rows in zip(cell.sons, _son_rows(ctx, ctx.source_keys, cell, lo, hi)):
        factors = interp.m2m_factors(ctx.config.order, _octant(cell, son))
        cols = multipole[rows]
        if d0 is not None:
            cols *= _waves(ctx, son, e, ds).conj()
        stacked = interp.apply_strategy(ctx.config.strategy, factors, cols.T).T
        multipole[lo:hi] += stacked if d0 is None else stacked * d0


def _upward(ctx: _Context, tree: ClusterTree) -> None:
    keys = ctx.source_keys
    ws = ctx.workspace
    ctx.multipole = np.zeros((len(keys), ws.nodal_size), dtype=complex)
    _use_table(ctx, tree, ctx.source_pset)
    spans = _spans(keys, tree, ctx.n_dirs)
    for cell in reversed(tree.cells):
        lo, hi = spans[cell.index], spans[cell.index + 1]
        if lo < hi:
            (_p2m_cell if cell.is_leaf else _m2m_cell)(ctx, cell, lo, hi)
    # convert the multipoles M2L reads to the Fourier domain; one implicit
    # plan is reused and each expansion is padded+transformed individually
    ctx.multipole_hat = np.empty((len(ctx.m2f_keys), ws.fourier_size), dtype=complex)
    for j, row in enumerate(np.searchsorted(keys, ctx.m2f_keys).tolist()):
        ctx.multipole_hat[j] = ws.m2f(ctx.multipole[row])
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
    diagonals = ctx.cache.diagonals
    it = iter(ctx.m2l_plan)
    for j, row, entry in zip(it, it, it):
        m2l_hadamard(locals_hat[j], multipoles_hat[row], diagonals[entry])
        if ctx.events is not None:
            t = tcells[ctx.m2l_keys[j] // n]
            ctx.events.append(InteractionEvent("M2L", t, scells[ctx.m2f_keys[row] // n]))
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
    e, ds = _directions(ctx, ctx.target_keys, cell, lo, hi)
    d1 = _waves(ctx, cell, e, ds)
    cols = local[lo:hi] if d1 is None else local[lo:hi] * d1.conj()
    for son, rows in zip(cell.sons, _son_rows(ctx, ctx.target_keys, cell, lo, hi)):
        factors = interp.l2l_factors(ctx.config.order, _octant(cell, son))
        stacked = interp.apply_strategy(ctx.config.strategy, factors, cols.T).T
        if d1 is not None:
            stacked *= _waves(ctx, son, e, ds)
        # several father directions may hand down to one son row
        for row, col in zip(rows, stacked):
            local[row] += col


def _l2p_cell(ctx: _Context, cell: Cell, lo: int, hi: int) -> None:
    pset = ctx.target_pset
    basis, waves, phases = _leaf_block(ctx, ctx.target_keys, pset, cell, lo, hi)
    if waves is None:
        vals = interp.l2p(basis, ctx.local[lo])
    else:
        vals = (interp.l2p(basis, (ctx.local[lo:hi] * waves.conj()).T) * phases).sum(axis=1)
    pset.potentials[cell.start : cell.stop] += vals


def _downward(ctx: _Context, tree: ClusterTree) -> None:
    ws = ctx.workspace
    keys = ctx.target_keys
    ctx.local = np.zeros((len(keys), ws.nodal_size), dtype=complex)
    # convert the locals M2L wrote back to the nodal domain, the mirror of M2F
    for j, row in enumerate(np.searchsorted(keys, ctx.m2l_keys).tolist()):
        ctx.local[row] = ws.f2l(ctx.local_hat[j])
    ctx.local_hat = None
    _use_table(ctx, tree, ctx.target_pset)
    spans = _spans(keys, tree, ctx.n_dirs)
    for cell in tree.cells:
        lo, hi = spans[cell.index], spans[cell.index + 1]
        if lo < hi:
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
