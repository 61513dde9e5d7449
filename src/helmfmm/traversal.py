"""Dual tree traversal, blank precomputation passes and the FMM driver.

A solve is a charge-free plan and an apply, in the plan/execute shape of
FFTW (Frigo & Johnson, Proc. IEEE 2005):

    plan_fmm:  build trees -> blank DTT (interaction lists) -> rows, keys,
               son links and M2L stacks -> one Lagrange table per tree ->
               leaf blocks -> grid waves
    apply:     P2M per leaf block -> M2M per level upward -> DTT (replay, one
               (level, direction) group at a time: M2F of its multipoles,
               then Hadamard M2L streamed into F2L a stack of target rows
               at a time; then P2P) -> L2L per level downward -> L2P per
               leaf block -> un-permute

The plan (FmmPlan) holds only what the geometry, the config and the kernel
fix, so one plan applies to any number of charge vectors; the charges in
tree order, the expansions and the potentials are arrays apply allocates
and hands to each step.  Every step reads the trees' per-cell arrays
(tree.py) only; a tree's Cell views are built for the event log alone.
The plan times its steps, and apply each of its own, in their own buckets
of info.timings, and the DTT its M2F, M2L, F2L and P2P apart.

The blank DTT plans level by level on cell-index arrays, with no
recursion, from the pair of roots (cell 0 of each tree): the pairs that
neither interact nor touch a leaf hand their son pairs, target son major,
to the next level, so each level keeps the order of the recursive
traversal.  The MAC is bound <= eta * dist(t, s), with bound the side at
low-frequency levels and the direction-free max{kappa*w^2, 2w} at
high-frequency ones (admissible); it depends on (level, translation)
only, so a block of pairs evaluates it once per distinct translation,
and each admissible one enters the plan's M2L table (the SymbolCache,
which stores one diagonal symbol per (level, canonical translation) and
per entry its canonical diagonal, its rotation and, at high frequency, its
direction) once, so symbol precomputation lies inside the blank pass.
A block's new translations are resolved together, in array steps: one
stacked SymbolCache.get canonicalizes them and, at high frequency, one
nearest_direction and one tag_direction give them their directions.
The numeric DTT replays the M2L events one (level, direction) group at a
time: an event's target and source expansions carry the level of its
cells and the direction of its entry, so each of them and each table
entry belongs to one group.  The plan keeps each group's schedule whole
(m2l_groups): the source rows its M2F reads, its table entries, and its
stacks of target rows, each written by one F2L; an event names its
target's row in its stack, its source's in the group's block and its
entry's place among the group's entries.  A group transforms its
multipoles into one block (M2F), permutes its entries' diagonals out of
their canonical ones, and replays its events stack by stack, each
stack's in recorded order, so every accumulator sums as in the recursion
while only one stack of Fourier locals is alive; F2L takes each stack as
soon as its last event is done, and the group's Fourier multipoles and
diagonals are dropped before the next group runs.  One stable argsort groups
the P2P pairs by target: each target cell takes one direct sum against
the particles of its near source cells in recorded order, in kernel
blocks of at most MAX_BLOCK_ENTRIES entries, real at kappa = 0.

Expansions live in per-apply arrays, one row per key cell * n_dirs + d (d
indexes plan.units at the cell's level: 0, u = 0, at low frequency), in the
sorted key order of their side: the source keys are the multipoles M2L
reads and, below them through plan.hand_down, those M2M reads; the
target keys are the locals M2L writes and, below them, those L2L
writes.  One walk down each tree, cut by its level offsets,
derives its side's keys and son links (_walk), so every son row a link
names exists.  P2M and L2P make one batched product per block of
same-level leaves (n_sons 0), as exafmm-t and PVFMM apply their leaf
operators per level: the plan orders a level's leaves by (rows,
particles) and cuts them into blocks padded to their largest leaf
(_leaf_blocks), and a block's product takes its particles' rows of its
tree's (N, 3, L) table of 1D Lagrange values, factored as (X (x) Y) (x)
Z (interp.p2m, interp.l2p), never an (n, L^3) basis.  M2M and L2L make
one stacked apply per son octant of a level's links (_translate), with
the stacked, real-deinterleaved strategy "t+s+r".  The modulation
exp(i*kappa*<x, u>) on a cell grid alpha + beta * g is one phase per row
times a grid wave the plan builds once per (cell level, level,
direction) its leaf blocks and son links ask for (_grid_waves, _waves);
a low-frequency level is the one-direction case u = 0, so each operator
has one formula for both regimes.  M2F transforms only the multipoles
M2L reads, and F2L only the locals it writes, in stacks of one group's
rows (_blocks), each row by two products with the DFT factors of the
order (FourierWorkspace), bitwise the same in any stack, so the
potentials keep their bits under any block rule; the M2L diagonals are
still made by an FFT (precompute_symbol).
"""

from __future__ import annotations

import numbers
import time
from array import array
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from . import interpolation as interp
from .directions import DirectionTree, father_direction, generate_direction_tree, nearest_direction
from .fourier import FourierWorkspace, SymbolCache, m2l_hadamard
from .geometry import compute_root_box
from .kernel import DEFAULT_SINGULARITY_TOL, MAX_BLOCK_ENTRIES, HelmholtzKernel, direct_sum
from .tree import ClusterTree, ParticleSet, build_tree, cell_radius

__all__ = ["FmmConfig", "FmmPlan", "InteractionEvent", "plan_fmm", "run_fmm", "run_fmm_full", "FmmInfo"]


# the finest direction set a solve may build: 6 * 4**8 = 393,216 directions
MAX_REFINEMENT = 8

# a cell is high-frequency iff kappa * radius >= HF_SWITCH; 2.0 is the
# crossover where kappa*w^2 >= 2w in the directional MAC numerator.  It
# also scales the direction refinement: a high-frequency level with
# kappa * radius ~ 2**e * HF_SWITCH uses the 6 * 4**e directions
HF_SWITCH = 2.0


@dataclass(frozen=True)
class FmmConfig:
    order: int = 5
    ncrit: int = 64
    eta: float = 1.0
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("order", "ncrit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.ncrit < 1:
            raise ValueError("ncrit must be >= 1")
        for name in ("eta", "kappa"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        # _distinct's int64 codes stay below 2**40 for eta >= 2**-10
        if not (np.isfinite(self.eta) and self.eta >= 2.0**-10):
            raise ValueError("eta must be finite and >= 2**-10")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and >= 0")


@dataclass(frozen=True)
class InteractionEvent:
    kind: str  # "M2L" | "P2P"
    target: object  # the target cell, a Cell of its tree's view
    source: object  # the source cell, likewise


def _distance(tvecs, side: float) -> np.ndarray:
    """Min distance between same-level cubes of side ``side`` at the integer
    translations tvecs (..., 3)."""
    gaps = np.maximum(np.abs(np.asarray(tvecs, dtype=np.int64)) - 1, 0)
    return side * np.sqrt((gaps * gaps).sum(axis=-1))


def admissible(tvecs, side: float, kappa: float | None = None, eta: float = 1.0) -> np.ndarray:
    """MAC of same-level cells of side ``side`` at the integer translations
    tvecs (..., 3): bound <= eta * dist(t, s), with bound the side at low
    frequency (kappa None) and max{kappa*w^2, 2w} at high frequency, w the
    cell radius.  The gaps are integers, so at low frequency any eta >= 1
    gives the strict MAC: the cubes lie at least one side apart."""
    if kappa is None:
        bound = side
    else:
        w = cell_radius(side)
        bound = max(kappa * w * w, 2.0 * w)
    return bound <= eta * _distance(tvecs, side)


class FmmPlan:
    """The charge-free half of a solve, made once per geometry: the trees
    and their particles in tree order, the kernel, the direction tables,
    the M2L table (cache), blank_dtt's lists (m2l_plan, p2p_plan), the
    keys, son links and M2L schedule (_plan_rows), one Lagrange table
    per tree, the leaf blocks of P2M and L2P (_leaf_blocks), the grid waves
    (_grid_waves), and the solve's counts.  apply evaluates it for one
    charge vector and changes nothing in it.

    target and source are build_tree's (tree, particles) pairs, one pair
    for a single tree; plan_fmm builds them on one root box, and tree_s is
    the time it took."""

    def __init__(self, config: FmmConfig, target: tuple, source: tuple, tree_s: float = 0.0):
        t_start = time.perf_counter()
        self.config = config
        (target_tree, self.target_pset), (source_tree, self.source_pset) = target, source
        self.target_tree, self.source_tree = target_tree, source_tree
        # box-relative singularity suppression
        tol = DEFAULT_SINGULARITY_TOL * source_tree.root_box.side
        self.kernel = HelmholtzKernel(kappa=config.kappa, singularity_tol=tol)
        self.workspace = FourierWorkspace(config.order)
        self.cache = SymbolCache(self.kernel, config.order, target_tree.root_box.side)
        # precompute lies inside blank; total is the plan's, trees included
        self.timings = {"tree": tree_s, "blank": 0.0, "precompute": 0.0}

        # hf_max_level is the deepest level whose cells satisfy
        # kappa * radius >= HF_SWITCH.  Each high-frequency level l gets the
        # refinement round(log2(kappa * w_l / HF_SWITCH)), so the cone
        # aperture shrinks like 1 / (kappa * w_l) whatever the tree depth.
        # w halves per level, so the rule is evaluated once at hf_max_level
        # and stepped by exactly one per level above it: the father/son
        # direction nesting of M2M and L2L relies on that step.
        levels = range(max(target_tree.depth, source_tree.depth) + 1)
        kw = [config.kappa * cell_radius(target_tree.side_at(lv)) for lv in levels]
        self.hf_max_level = sum(k >= HF_SWITCH for k in kw) - 1  # kw halves per level
        self.deepest_refinement = 0
        self.dirs: DirectionTree | None = None
        self.n_dirs = 1
        if self.hf_max_level >= 0:
            # kw >= HF_SWITCH there, so the rounded log2 is >= 0
            ratio = np.log2(kw[self.hf_max_level] / HF_SWITCH)
            self.deepest_refinement = int(np.floor(ratio + 0.5))
            if self.refinement(0) > MAX_REFINEMENT:
                raise ValueError(
                    f"kappa*w = {kw[0]:.4g} at the root asks for direction "
                    f"refinement {self.refinement(0)} (6 * 4**{self.refinement(0)} "
                    f"directions at hf_switch = {HF_SWITCH}), above {MAX_REFINEMENT}: lower kappa*w"
                )
            self.dirs = generate_direction_tree(self.refinement(0))
            self.n_dirs = self.dirs.count(self.refinement(0))

        # per level: the unit vectors u its direction indices name, the one
        # u = 0 at a low-frequency level, and the direction index each of
        # them hands to the sons, its father direction where the sons are
        # high-frequency and 0 otherwise
        self.units = [
            self.dirs.levels[self.refinement(level)] if self.is_hf(level) else np.zeros((1, 3))
            for level in levels
        ]
        self.hand_down = [
            father_direction(self.dirs, self.refinement(level), np.arange(len(u)))
            if self.is_hf(level + 1)
            else np.zeros(len(u), dtype=np.int64)
            for level, u in enumerate(self.units)
        ]
        # the grid wave of u = 0, which _waves returns at every low-frequency
        # level without building it; read-only, since all callers share it
        self.unit_wave = np.ones((1, config.order**3), dtype=complex)
        self.unit_wave.flags.writeable = False

        # blank_dtt's lists: flat (target, source, entry) triplets, whose
        # cells and entries _plan_rows rewrites in its schedule's indices,
        # and flat (target, source) pairs
        self.m2l_plan, self.p2p_plan = array("i"), array("i")
        t0 = time.perf_counter()
        blank_dtt(self)
        _plan_rows(self)
        same = target_tree is source_tree
        self.source_table = _lagrange_table(config.order, source_tree, self.source_pset)
        self.target_table = (
            self.source_table if same else _lagrange_table(config.order, target_tree, self.target_pset)
        )
        self.source_blocks = _leaf_blocks(self, source_tree, self.source_keys)
        self.target_blocks = _leaf_blocks(self, target_tree, self.target_keys)
        self.grid_waves = _grid_waves(self)
        self.timings["blank"] = time.perf_counter() - t0
        trees = (target_tree,) if same else (target_tree, source_tree)
        p2p = np.frombuffer(self.p2p_plan, dtype=np.intc).reshape(-1, 2)
        self.counts = {
            "cells": sum(tree.n_cells for tree in trees),
            "leaves": sum(tree.n_leaves for tree in trees),
            "symbols": self.cache.n_canonical,
            "effective_expansions": len(self.source_keys),
            "p2p_pairs": int(
                (target_tree.stop - target_tree.start)[p2p[:, 0]]
                @ (source_tree.stop - source_tree.start)[p2p[:, 1]]
            ),
            "m2l_events": len(self.m2l_plan) // 3,
        }
        self.timings["total"] = tree_s + time.perf_counter() - t_start

    def is_hf(self, level: int) -> bool:
        return level <= self.hf_max_level

    def refinement(self, level: int) -> int:
        """Direction refinement of a high-frequency level."""
        return self.deepest_refinement + self.hf_max_level - level

    def log(self, events: list) -> None:
        """Append one InteractionEvent per M2L event, in replay order, its
        cells read back through the schedule's rows and keys, then one per
        P2P pair, in recorded order, to events; only this builds the trees'
        Cell views."""
        n = self.n_dirs
        m2l = np.frombuffer(self.m2l_plan, dtype=np.intc).reshape(-1, 3)
        p2p = np.frombuffer(self.p2p_plan, dtype=np.intc).reshape(-1, 2)
        ti, si, at = [], [], 0
        for sources, _, stacks in self.m2l_groups:
            for targets, count in stacks:
                rows, at = m2l[at : at + count], at + count
                ti += (self.target_keys[targets[rows[:, 0]]] // n).tolist()
                si += (self.source_keys[sources[rows[:, 1]]] // n).tolist()
        t, s = self.target_tree.cells, self.source_tree.cells
        for kind, ti, si in (("M2L", ti, si), ("P2P", p2p[:, 0].tolist(), p2p[:, 1].tolist())):
            events.extend(InteractionEvent(kind, t[i], s[j]) for i, j in zip(ti, si))

    def apply(self, charges: np.ndarray) -> tuple[np.ndarray, FmmInfo]:
        """(potentials, run info) of one (n,) charge vector on the sources:
        potentials at the targets, both in the caller's order.  The info
        holds the plan's counts and timings with this apply's steps, its
        total the plan's plus this apply's."""
        t_start = time.perf_counter()
        charges = _checked_charges(charges, len(self.source_pset.positions))
        charges = charges[self.source_pset.original_index]  # in tree order
        size = self.workspace.nodal_size
        multipole = np.zeros((len(self.source_keys), size), dtype=complex)
        local = np.zeros((len(self.target_keys), size), dtype=complex)
        potentials = np.zeros(len(self.target_pset.positions), dtype=complex)
        timings = dict(self.timings)
        t0 = time.perf_counter()
        _upward(self, charges, multipole)
        timings["upward"] = time.perf_counter() - t0
        timings.update(dtt(self, charges, multipole, local, potentials))
        t0 = time.perf_counter()
        _downward(self, local, potentials)
        timings["downward"] = time.perf_counter() - t0
        timings["total"] += time.perf_counter() - t_start
        out = np.empty_like(potentials)
        out[self.target_pset.original_index] = potentials
        return out, FmmInfo(timings, dict(self.counts), self.hf_max_level)


# ---------------------------------------------------------------------------
# blank pass and expansion keys


def _distinct(tvecs: np.ndarray) -> tuple:
    """(distinct rows of tvecs in lexicographic order, the position of each
    row among them), through one int64 code per row over the rows'
    bounding box.  The code stays below 2**40: MAX_REFINEMENT keeps the
    high-frequency levels among 0 to 8, a translation at levels 0 to 9 has
    less than 2**9 cells per axis, and the sons of a low-frequency pair the
    MAC rejects (a gap below 1 / eta sides per axis) lie fewer than
    2 / eta + 3 cells apart per axis, with eta >= 2**-10 (FmmConfig)."""
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


def _entries(plan: FmmPlan, level: int, ti: np.ndarray, si: np.ndarray) -> np.ndarray:
    """The cache entry of each cell pair (ti, si) at level, -1 where it is
    not admissible.  The MAC is evaluated on all distinct translations at
    once, and the admissible ones not yet in the cache are resolved
    together: one SymbolCache.get and, at high frequency, one
    nearest_direction and one tag_direction of their unit vectors."""
    tvecs = np.empty((len(ti), 3), dtype=np.int32)
    for k in range(3):  # an axis at a time: no (n, 3) temporaries
        np.subtract(plan.target_tree.coords[ti, k], plan.source_tree.coords[si, k], out=tvecs[:, k])
    distinct, inverse = _distinct(tvecs)
    del tvecs
    beta = plan.target_tree.side_at(level)
    kappa = plan.config.kappa if plan.is_hf(level) else None
    mac = admissible(distinct, beta, kappa, plan.config.eta)
    entries = np.full(len(distinct), -1, dtype=np.int32)
    rows = np.flatnonzero(mac)
    cached = plan.cache.entries
    entries[rows] = [cached.get((level, tvec), -1) for tvec in map(tuple, distinct[rows].tolist())]
    new = rows[entries[rows] < 0]
    if len(new):
        tvecs = distinct[new]
        t0 = time.perf_counter()
        resolved = plan.cache.get(level, tvecs)
        plan.timings["precompute"] += time.perf_counter() - t0
        entries[new] = resolved
        if plan.is_hf(level):
            # the integer sum of squares is exact: bitwise t / np.linalg.norm(t)
            units = tvecs / np.sqrt((tvecs * tvecs).sum(axis=1))[:, None]
            nearest = nearest_direction(plan.dirs, plan.refinement(level), units)
            plan.cache.tag_direction(resolved, nearest)
    return entries[inverse]


def _ramps(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    out = np.arange(counts.sum(), dtype=np.int32)
    out -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
    return out


def _son_pairs(plan: FmmPlan, ti: np.ndarray, si: np.ndarray) -> tuple:
    """The son pairs of the cell pairs (ti, si), pair by pair and target son
    major, as the recursion visits them: a row of source sons per (pair,
    target son)."""
    tt, st = plan.target_tree, plan.source_tree
    n_t, n_s = tt.n_sons[ti], st.n_sons[si]
    row_t = np.repeat(tt.first_son[ti], n_t) + _ramps(n_t)
    row_s = np.repeat(st.first_son[si], n_t)
    width = np.repeat(n_s, n_t)
    s2 = _ramps(width)
    s2 += np.repeat(row_s, width)
    return np.repeat(row_t, width), s2


def _append(out: array, *columns: np.ndarray) -> None:
    # the rows' bytes are read through a uint8 view, without a copy
    out.frombytes(np.stack(columns, axis=1, dtype=np.intc).view(np.uint8))


def _blocks(n: int, width: int) -> list:
    """Slices of at most MAX_BLOCK_ENTRIES // width rows (at least one)
    that cover n rows in order, for a step whose temporaries hold width
    entries a row.  A step over all rows at once would leave the heap grown
    (29 MB for a level's M2F on a 4,000-point sphere at kappa*D = 32, 42 MB
    for M2M and L2L on the N = 80,000 sphere)."""
    step = max(1, MAX_BLOCK_ENTRIES // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def blank_dtt(plan: FmmPlan) -> None:
    """Record the interaction lists of the two trees, level by level from
    the pair of their roots, cell 0 of each.

    The candidate pairs of a level are cell-index arrays, taken in blocks
    of at most MAX_BLOCK_ENTRIES pairs (_blocks).  The admissible ones become M2L
    triplets, the others with a leaf P2P pairs, and the rest hand their son
    pairs to the next level.  Each level keeps the order in which the recursive
    traversal visits its pairs, and so does every target row when dtt
    replays the events group by group and stack by stack, so every Fourier
    local sums its M2L terms in that order.
    """
    tt, st = plan.target_tree, plan.source_tree
    pairs = [(np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32))]
    level = 0
    while pairs:
        sons = []
        for ti, si in ((t[at], s[at]) for t, s in pairs for at in _blocks(len(t), 1)):
            entry = _entries(plan, level, ti, si)
            m2l = entry >= 0
            _append(plan.m2l_plan, ti[m2l], si[m2l], entry[m2l])
            near = ~m2l
            split = near & (tt.n_sons[ti] > 0) & (st.n_sons[si] > 0)
            near &= ~split
            _append(plan.p2p_plan, ti[near], si[near])
            if split.any():
                sons.append(_son_pairs(plan, ti[split], si[split]))
        pairs = sons
        level += 1


def _walk(plan: FmmPlan, tree: ClusterTree, seeds: np.ndarray) -> tuple:
    """One side's sorted keys and son links, in one walk down the tree: a
    level's keys are its seeds and the son keys the level above hands down
    (plan.hand_down), so every son row exists.  A father level's links,
    one per (father row, son), fathers row-major and sons in Morton order,
    are (level, father rows, son cells, son rows, son octant codes), a
    son's code (son.coords - 2 * father.coords) @ (4, 2, 1)."""
    n = plan.n_dirs
    cuts = np.searchsorted(seeds, tree.offsets * n).tolist()
    parts, links = [], []
    son_keys = np.empty(0, dtype=np.int64)
    start = 0  # the row of the level's first key
    for level in range(tree.depth + 1):
        keys = np.union1d(seeds[cuts[level] : cuts[level + 1]], son_keys)
        parts.append(keys)
        fathers = np.flatnonzero(tree.n_sons[keys // n])  # within the level
        heads = keys[fathers] // n
        counts = tree.n_sons[heads]
        sons = np.repeat(tree.first_son[heads], counts) + _ramps(counts)
        son_keys = sons.astype(np.int64) * n
        son_keys += np.repeat(plan.hand_down[level][keys[fathers] % n], counts)
        if len(sons):
            codes = (tree.coords[sons] - np.repeat(2 * tree.coords[heads], counts, 0)) @ (4, 2, 1)
            links.append((level, start + np.repeat(fathers, counts), sons, son_keys, codes))
        start += len(keys)
    keys = np.concatenate(parts)
    return keys, [(lv, f, s, np.searchsorted(keys, k), o) for lv, f, s, k, o in links]


def _plan_rows(plan: FmmPlan) -> None:
    """Rewrite the M2L plan in the indices dtt replays and keep its
    schedule, m2l_groups.  An event's group is the (level, direction) of
    its cells and its entry; per group, in order of level * n_dirs + d:
    the rows of source_keys its M2F gathers, its table entries (an entry
    has one level and one direction, so these lists partition the table)
    and its stacks, each the rows of target_keys one F2L writes and its
    number of events.  A group's target rows, sorted, are cut from its
    first in stacks of (rows, P^3) Fourier locals (_blocks).  An event
    becomes (its target's row in its stack, its source's index in its
    group's rows, its entry's index in its group's entries), and the plan
    goes stack by stack, each stack's events in recorded order.  Both key
    sets and their son links come from the groups' keys (_walk)."""
    n = plan.n_dirs
    tt, st = plan.target_tree, plan.source_tree
    m2l = np.frombuffer(plan.m2l_plan, dtype=np.intc).reshape(-1, 3)
    dirs = np.array(plan.cache.directions, dtype=np.int64)
    codes, group = np.unique(tt.cell_levels()[m2l[:, 0]] * n + dirs[m2l[:, 2]], return_inverse=True)

    def distinct(col: int, size: int) -> tuple:
        """The sorted distinct codes group * size + value of the plan's
        column col (values < size), the bounds of each group's run of them
        and the index of each event's code among them."""
        values, inverse = np.unique(group * size + m2l[:, col], return_inverse=True)
        return values, np.searchsorted(values, np.arange(len(codes) + 1) * size), inverse

    t_codes, t_bounds, rows = distinct(0, tt.n_cells)
    size = plan.workspace.fourier_size
    cuts = [[range(lo, hi)[at] for at in _blocks(hi - lo, size)] for lo, hi in pairwise(t_bounds.tolist())]
    starts = np.array([stack.start for stacks in cuts for stack in stacks], dtype=np.int64)
    by_stack = np.searchsorted(starts, rows, side="right") - 1
    m2l[:, 0] = rows - starts[by_stack]
    s_codes, s_bounds, rows = distinct(1, st.n_cells)
    m2l[:, 1] = rows - s_bounds[group]
    e_codes, e_bounds, rows = distinct(2, plan.cache.n_translations)
    m2l[:, 2] = rows - e_bounds[group]
    # dtt replays, transforms and releases one group at a time
    m2l[:] = m2l[np.argsort(by_stack, kind="stable")]
    events = iter(np.bincount(by_stack, minlength=len(starts)).tolist())
    del group, rows, by_stack
    # after the per-event temporaries are freed: arrays kept while they
    # lived would pin the heap they grew (29 MB on the N = 80,000 sphere)
    t_keys = t_codes % tt.n_cells * n + codes[t_codes // tt.n_cells] % n
    s_keys = s_codes % st.n_cells * n + codes[s_codes // st.n_cells] % n
    plan.target_keys, plan.target_links = _walk(plan, tt, np.sort(t_keys))
    plan.source_keys, plan.source_links = _walk(plan, st, np.sort(s_keys))
    t_rows = np.searchsorted(plan.target_keys, t_keys)
    s_rows = np.searchsorted(plan.source_keys, s_keys)
    entries = e_codes % plan.cache.n_translations
    plan.m2l_groups = [
        (s_rows[s_lo:s_hi], entries[e_lo:e_hi], [(t_rows[at.start : at.stop], next(events)) for at in stacks])
        for (s_lo, s_hi), (e_lo, e_hi), stacks in zip(
            pairwise(s_bounds.tolist()), pairwise(e_bounds.tolist()), cuts
        )
    ]


def _padded(first: np.ndarray, counts: np.ndarray) -> tuple:
    """The (k, width) index rows first, first + 1, ..., first + count - 1,
    each padded to width = counts.max() by repeating first, and the
    (k, width) mask of their unpadded entries."""
    ramp = np.arange(counts.max())
    mask = ramp < counts[:, None]
    return np.where(mask, first[:, None] + ramp, first[:, None]), mask


def _leaf_blocks(plan: FmmPlan, tree: ClusterTree, keys: np.ndarray) -> list:
    """The P2M or L2P blocks of one side: its leaves (cells with n_sons 0)
    that own rows of its sorted keys, level by level, in order of (rows,
    particles), each level's cut greedily into blocks of same-level leaves
    padded to the block's largest particle count n and row count r, while
    leaves * max(n, L) * L^2 * r stays within MAX_BLOCK_ENTRIES (a block
    holds at least one leaf), which bounds every padded temporary of P2M
    and L2P.  A block is (level, (leaves, n) particle indices and their
    mask, (leaves, r) row indices and their mask), a leaf's padding
    repeating its first particle and its first row."""
    n, order = plan.n_dirs, plan.config.order
    spans = np.searchsorted(keys, np.arange(tree.n_cells + 1) * n)
    leaves = np.flatnonzero((tree.n_sons == 0) & (spans[:-1] < spans[1:]))
    levels = tree.cell_levels()[leaves]
    lo, n_rows = spans[leaves], spans[leaves + 1] - spans[leaves]
    start, counts = tree.start[leaves], tree.stop[leaves] - tree.start[leaves]
    ranked = np.lexsort((counts, n_rows, levels))
    level_of, rows_of, count_of = (c[ranked].tolist() for c in (levels, n_rows, counts))
    blocks, i = [], 0
    while i < len(ranked):
        widest, j = count_of[i], i + 1
        while j < len(ranked) and level_of[j] == level_of[i]:
            # rows ascend within a level, so leaf j sets the block's r
            wider = max(widest, count_of[j])
            if (j - i + 1) * max(wider, order) * order * order * rows_of[j] > MAX_BLOCK_ENTRIES:
                break
            widest, j = wider, j + 1
        at = ranked[i:j]
        blocks.append((level_of[i], *_padded(start[at], counts[at]), *_padded(lo[at], n_rows[at])))
        i = j
    return blocks


def _grid_waves(plan: FmmPlan) -> dict:
    """The grid waves exp(i*kappa*beta*<g, u>) on the reference grid g of
    the cells of one level (side beta) for the directions u of a
    high-frequency level, exactly those P2M, M2M, L2L and L2P ask for: a
    leaf block its rows' directions at its leaves' level, a son link its
    father's direction at the father's level and at the son's.  Per (cell
    level, level): the sorted direction indices and their (directions,
    L^3) waves, from one plane_wave call.  Both trees lie on one root box,
    so a level's side is the same on both."""
    n = plan.n_dirs
    wanted: dict = {}
    for keys, blocks, links in (
        (plan.source_keys, plan.source_blocks, plan.source_links),
        (plan.target_keys, plan.target_blocks, plan.target_links),
    ):
        asks = [(level, level, rows[mask]) for level, _, _, rows, mask in blocks]
        asks += [(lv, level, fathers) for level, fathers, *_ in links for lv in (level, level + 1)]
        for cell_level, level, rows in asks:
            if plan.is_hf(level):
                wanted.setdefault((cell_level, level), []).append(keys[rows] % n)
    grid = interp.grid_points(plan.config.order)
    waves = {}
    for (cell_level, level), ds in wanted.items():
        ds = np.unique(np.concatenate(ds))
        beta = plan.target_tree.side_at(cell_level)
        wave = interp.plane_wave(beta * grid, plan.config.kappa, plan.units[level][ds].T)
        waves[cell_level, level] = ds, np.ascontiguousarray(wave.T)
    return waves


def _waves(plan: FmmPlan, tree: ClusterTree, cells, cell_level: int, level: int, ds) -> np.ndarray:
    """exp(i*kappa*<x, u>) on cell grids, row i on the grid of cells[i] (cell
    indices of tree at cell_level, or one index for all rows) for the
    direction index ds[i] of ``level`` (the cells' own level or, in M2M and
    L2L, their fathers').  A row is the phase exp(i*kappa*<alpha, u>) at
    the cell's corner times the grid wave exp(i*kappa*beta*<g, u>) on the
    reference grid g, which depends on the cell only through its level
    (side beta), gathered from the plan's (_grid_waves).  At a
    low-frequency level u = 0: the one row is the unit wave, shared and
    read-only."""
    if not plan.is_hf(level):
        return plan.unit_wave
    directions, waves = plan.grid_waves[cell_level, level]
    beta = tree.side_at(cell_level)
    alpha = tree.root_box.lower + tree.coords[cells] * beta
    corner = np.exp(1j * plan.config.kappa * (plan.units[level][ds] * alpha).sum(axis=-1))
    return waves[np.searchsorted(directions, ds)] * corner[..., None]


def _lagrange_table(order: int, tree: ClusterTree, pset: ParticleSet) -> np.ndarray:
    """(N, 3, L) 1D Lagrange values of every particle, on each axis, in the
    cube alpha + beta * [0, 1]^3 of its leaf: alpha = lower + coords *
    beta, beta the side of the leaf's level.  The leaves' ranges tile the
    particles."""
    leaves = np.flatnonzero(tree.n_sons == 0)
    leaves = leaves[np.argsort(tree.start[leaves])]
    beta = tree.root_box.side / (1 << tree.cell_levels()[leaves])
    alpha = tree.root_box.lower + tree.coords[leaves] * beta[:, None]
    counts = tree.stop[leaves] - tree.start[leaves]
    alpha, beta = np.repeat(alpha, counts, axis=0), np.repeat(beta, counts)
    unit = (pset.positions - alpha) / beta[:, None]
    return interp.eval_matrix_1d(order, unit.reshape(-1)).reshape(-1, 3, order)


# ---------------------------------------------------------------------------
# upward pass, and the leaf and translation steps both passes use


def _leaf_factors(plan: FmmPlan, block: tuple, up: bool) -> tuple:
    """The (leaves, n, 3, L) Lagrange values of the particles of a block of
    source (up) or target leaves; their (leaves, n, r) phases
    exp(i*kappa*<y, u>) for the directions of their leaf's rows, from one
    plane_wave call at a high-frequency level and all ones (u = 0) at a
    low-frequency one; the block's unpadded rows and their (rows, L^3) cell
    waves."""
    level, particles, _, rows, row_mask = block
    tree, pset, table, keys = (
        (plan.source_tree, plan.source_pset, plan.source_table, plan.source_keys)
        if up
        else (plan.target_tree, plan.target_pset, plan.target_table, plan.target_keys)
    )
    n = plan.n_dirs
    ds = keys[rows] % n
    if plan.is_hf(level):
        units = plan.units[level][ds].transpose(0, 2, 1)
        phases = interp.plane_wave(pset.positions[particles], plan.config.kappa, units)
    else:
        phases = np.ones((1, 1, 1))
    rows = rows[row_mask]
    waves = _waves(plan, tree, keys[rows] // n, level, level, ds[row_mask])
    return table[particles], phases, rows, waves


def _p2m(plan: FmmPlan, block: tuple, charges: np.ndarray, multipole: np.ndarray) -> None:
    """P2M of the charges (in tree order) of one block of source leaves
    into their rows of multipole; a padded particle weighs 0."""
    _, particles, particle_mask, _, row_mask = block
    values, phases, rows, waves = _leaf_factors(plan, block, up=True)
    weights = (charges[particles] * particle_mask)[..., None] * phases.conj()
    multipole[rows] = interp.p2m(values, weights).transpose(0, 2, 1)[row_mask] * waves


def _l2p(plan: FmmPlan, block: tuple, local: np.ndarray, potentials: np.ndarray) -> None:
    """L2P of one block of target leaves' rows of local, added into the
    potentials of their particles (in tree order); a padded row is 0."""
    _, particles, particle_mask, _, row_mask = block
    values, phases, rows, waves = _leaf_factors(plan, block, up=False)
    nodal = np.zeros((len(row_mask), plan.workspace.nodal_size, row_mask.shape[1]), dtype=complex)
    nodal.transpose(0, 2, 1)[row_mask] = local[rows] * waves.conj()
    vals = (interp.l2p(values, nodal) * phases).sum(axis=-1)
    potentials[particles[particle_mask]] += vals[particle_mask]


def _translate(plan: FmmPlan, link: tuple, rows: np.ndarray, up: bool) -> None:
    """M2M (up, rows the multipoles) or L2L (rows the locals) of one father
    level's son links, one stacked apply per son octant: M2M adds each son
    row into its father row, L2L each father row into its son row,
    unbuffered and in link order, since several father directions may
    write one son row.  An octant's links go in blocks of (links, L^3)
    temporaries (_blocks).  Each link's son row must hold the son's
    handed-down key: rows moved after the walk would translate the wrong
    expansions."""
    level, fathers, sons, son_rows, codes = link
    tree, keys = (plan.source_tree, plan.source_keys) if up else (plan.target_tree, plan.target_keys)
    n = plan.n_dirs
    son_keys = keys.take(son_rows, mode="clip")
    handed = plan.hand_down[level][keys.take(fathers, mode="clip") % n]
    if not (np.array_equal(son_keys // n, sons) and np.array_equal(son_keys % n, handed)):
        raise RuntimeError(f"missing son expansion below level {level}")
    for code in np.unique(codes).tolist():
        octant = (code >> 2, code >> 1 & 1, code & 1)
        factors = (interp.m2m_factors if up else interp.l2l_factors)(plan.config.order, octant)
        group = np.flatnonzero(codes == code)
        for block in _blocks(len(group), plan.workspace.nodal_size):
            at = group[block]
            f, s = fathers[at], son_rows[at]
            ds = keys[f] % n
            father_waves = _waves(plan, tree, keys[f] // n, level, level, ds)
            son_waves = _waves(plan, tree, sons[at], level + 1, level, ds)
            src, dst = (s, f) if up else (f, s)
            into, out = (son_waves, father_waves) if up else (father_waves, son_waves)
            cols = rows[src] * into.conj()
            stacked = interp.apply_strategy("t+s+r", factors, cols.T).T
            stacked *= out
            np.add.at(rows, dst, stacked)


def _upward(plan: FmmPlan, charges: np.ndarray, multipole: np.ndarray) -> None:
    """P2M of the charges (in tree order) at each source leaf, then M2M up
    the source tree, into multipole, one row per source key."""
    for block in plan.source_blocks:
        _p2m(plan, block, charges, multipole)
    for link in reversed(plan.source_links):
        _translate(plan, link, multipole, up=True)


# ---------------------------------------------------------------------------
# dual tree traversal


def _m2l(plan: FmmPlan, multipole: np.ndarray, local: np.ndarray) -> tuple:
    """Replay the M2L events one (level, direction) group at a time
    (plan.m2l_groups) and return the (M2F, F2L) time.  A group transforms
    its rows of multipole into one block, a stack of rows at a time, and
    permutes the diagonals of its entries out of the table; it replays its
    events a stack at a time, each stack's in recorded order, into one
    reused (stack, P^3) buffer, and F2L takes each stack into its rows of
    local as soon as its last event is done.  The group's block and
    diagonals are dropped before the next group."""
    ws, cache = plan.workspace, plan.cache
    # rows for a full stack, or for all M2L target rows if fewer (_blocks)
    rows = sum(len(targets) for _, _, stacks in plan.m2l_groups for targets, _ in stacks)
    full = next(iter(_blocks(rows, ws.fourier_size)), slice(0))
    buffer = np.zeros((len(range(rows)[full]), ws.fourier_size), dtype=complex)
    # row views: one Python list lookup per operand instead of a 2-D index;
    # the local of a stack's i-th row sums in buffer row i
    views = list(buffer)
    it = iter(plan.m2l_plan)
    m2f = f2l = 0.0
    for sources, entries, stacks in plan.m2l_groups:
        t0 = time.perf_counter()
        hat = np.empty((len(sources), ws.fourier_size), dtype=complex)
        for at in _blocks(len(sources), ws.fourier_size):
            hat[at] = ws.m2f(multipole[sources[at]])
        m2f += time.perf_counter() - t0
        hats, diagonals = list(hat), [cache.diagonal(entry) for entry in entries.tolist()]
        for targets, count in stacks:
            events = islice(it, 3 * count)
            for i, row, k in zip(events, events, events):
                m2l_hadamard(views[i], hats[row], diagonals[k])
            stack = buffer[: len(targets)]
            t0 = time.perf_counter()
            local[targets] = ws.f2l(stack)
            f2l += time.perf_counter() - t0
            stack.fill(0)
        # every M2L of the group has read its block and diagonals
        del hat, hats, diagonals
    return m2f, f2l


def _p2p(plan: FmmPlan, charges: np.ndarray, potentials: np.ndarray) -> None:
    """One direct sum per target cell, against all its near sources.

    One stable argsort groups the P2P pairs by target, each target's
    sources in recorded order; the targets go in cell order, so a cell's
    sum comes before its descendants', as in the recorded order."""
    tt, st = plan.target_tree, plan.source_tree
    p2p = np.frombuffer(plan.p2p_plan, dtype=np.intc).reshape(-1, 2)
    ti, si = p2p[np.argsort(p2p[:, 0], kind="stable")].T
    counts = (st.stop - st.start)[si]
    # the source particles of the pairs, in order, and each target's share
    idx = _ramps(counts) + np.repeat(st.start[si], counts)
    heads = np.flatnonzero(np.diff(ti, prepend=-1))
    ends = np.concatenate([[0], np.cumsum(counts)])
    bounds = np.append(ends[heads], ends[-1])
    tp, sp = plan.target_pset.positions, plan.source_pset.positions
    for t, lo, hi in zip(ti[heads].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        at = slice(tt.start[t], tt.stop[t])
        potentials[at] += direct_sum(plan.kernel, tp[at], sp[idx[lo:hi]], charges[idx[lo:hi]])


def dtt(plan: FmmPlan, charges, multipole, local, potentials) -> dict:
    """Replay blank_dtt's lists: the M2L events with their M2F and F2L,
    group by group, from multipole into local (_m2l), then the P2P pairs
    from the charges into potentials (_p2p).  Returns the time of each
    part in its own bucket: m2f, m2l (the rest of the replay), f2l and
    p2p."""
    t0 = time.perf_counter()
    m2f, f2l = _m2l(plan, multipole, local)
    t1 = time.perf_counter()
    _p2p(plan, charges, potentials)
    return {"m2f": m2f, "m2l": t1 - t0 - m2f - f2l, "f2l": f2l, "p2p": time.perf_counter() - t1}


# ---------------------------------------------------------------------------
# downward pass


def _downward(plan: FmmPlan, local: np.ndarray, potentials: np.ndarray) -> None:
    """L2L down the target tree, then L2P of local at each target leaf,
    added into potentials (in tree order)."""
    for link in plan.target_links:
        _translate(plan, link, local, up=False)
    for block in plan.target_blocks:
        _l2p(plan, block, local, potentials)


# ---------------------------------------------------------------------------
# driver


@dataclass
class FmmInfo:
    timings: dict
    counts: dict
    hf_max_level: int


def _checked_charges(charges, n: int) -> np.ndarray:
    """charges as a complex array; ValueError unless it holds one finite
    charge per source, n of them."""
    charges = np.asarray(charges, dtype=complex)
    if charges.ndim != 1:
        raise ValueError(f"charges must have shape (n,), not {charges.shape}")
    if len(charges) != n:
        raise ValueError("points and charges length mismatch")
    if not np.all(np.isfinite(charges)):
        raise ValueError("charges must be finite")
    return charges


def _points(targets, sources) -> tuple:
    """(targets, sources) as (m, 3) and (n, 3) arrays, m, n >= 1, the one
    targets array for both when ``targets is sources``; ValueError naming
    the side that is not."""
    same = targets is sources
    targets = np.atleast_2d(targets)
    if targets.ndim != 2 or targets.shape[1] != 3 or len(targets) == 0:
        raise ValueError(f"targets must have shape (m, 3) with m >= 1, not {targets.shape}")
    if same:
        return targets, targets
    sources = np.atleast_2d(sources)
    if sources.ndim != 2 or sources.shape[1] != 3 or len(sources) == 0:
        raise ValueError(f"sources must have shape (n, 3) with n >= 1, not {sources.shape}")
    return targets, sources


def plan_fmm(targets: np.ndarray, sources: np.ndarray, config: FmmConfig = FmmConfig()) -> FmmPlan:
    """Plan the Helmholtz N-body sum of the sources on the targets, for any
    charges: FmmPlan.apply evaluates it.  When ``targets is sources`` a
    single tree serves both sides."""
    t0 = time.perf_counter()
    same = targets is sources
    targets, sources = _points(targets, sources)
    box = None if same else compute_root_box(np.vstack([targets, sources]))
    source = build_tree(sources, config.ncrit, root_box=box)
    target = source if same else build_tree(targets, config.ncrit, root_box=box)
    return FmmPlan(config, target, source, tree_s=time.perf_counter() - t0)


def run_fmm_full(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    config: FmmConfig = FmmConfig(),
    events: list | None = None,
) -> tuple[np.ndarray, FmmInfo]:
    """Evaluate the Helmholtz N-body sum; returns (potentials, run info).

    One plan (plan_fmm), its event log when ``events`` is given, and one
    apply.  Potentials come back in the caller's original particle order.
    When ``targets is sources`` a single tree serves both sides.  The points
    and the charges are checked before anything is planned.
    """
    targets, sources = _points(targets, sources)
    _checked_charges(charges, len(sources))
    plan = plan_fmm(targets, sources, config)
    if events is not None:
        plan.log(events)
    return plan.apply(charges)


def run_fmm(
    targets: np.ndarray,
    sources: np.ndarray,
    charges: np.ndarray,
    config: FmmConfig = FmmConfig(),
) -> np.ndarray:
    potentials, _ = run_fmm_full(targets, sources, charges, config)
    return potentials
