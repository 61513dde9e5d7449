"""The benchmark tracer must find every function it wraps and measure every
per-layer metric that BENCHMARK.json declares.

bench/tracing.py replaces functions of the program by name and silently
drops the metrics of a name it cannot find, so a rename in the program
would otherwise only show as a short benchmark record.
"""

import dataclasses
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import helmfmm
from helmfmm.directions import father_direction, generate_direction_tree, nearest_direction
from helmfmm.fourier import FourierWorkspace, SymbolCache
from helmfmm.geometry import compute_root_box
from helmfmm.kernel import MAX_BLOCK_ENTRIES
from helmfmm.traversal import HF_SWITCH, FmmConfig, run_fmm_full
from helmfmm import traversal
from helmfmm.tree import build_tree, cell_radius

ROOT = Path(__file__).resolve().parent.parent

# filled by bench/worker.py from info.timings and from two solves' walls
WORKER_METRICS = {"phase.upward_s", "phase.downward_s", "trace.overhead_s"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names() -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def _self_interaction():
    rng = np.random.default_rng(11)
    pts = rng.uniform(size=(400, 3))
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    # kappa * w >= HF_SWITCH down to level 2, where pairs become admissible
    return pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=12.0)


def _laplace_self_interaction():
    pts, _, q, _ = _self_interaction()
    # no high-frequency level: the near field takes the real kernel path
    return pts, pts, q, FmmConfig(order=3, ncrit=16, kappa=0.0)


def _two_trees():
    rng = np.random.default_rng(12)
    sources = rng.uniform(size=(400, 3))
    targets = rng.uniform(size=(150, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.5]
    q = rng.normal(size=400) + 1j * rng.normal(size=400)
    return targets, sources, q, FmmConfig(order=3, ncrit=16, kappa=12.0)


def _root_side(targets, sources) -> float:
    """The side of a solve's root box, as run_fmm_full computes it."""
    return compute_root_box(sources if targets is sources else np.vstack([targets, sources])).side


def _refinement(config, root_side, level) -> int:
    side = root_side / (1 << level)
    return int(np.floor(np.log2(config.kappa * cell_radius(side) / HF_SWITCH) + 0.5))


def _m2l_expansions(events, config, hf_max_level, root_side, side: str) -> set:
    """(cell, direction index) of each expansion that M2L reads (side
    "source") or writes (side "target"): at a high-frequency level, the
    direction nearest to the translation at the refinement
    round(log2(kappa * w / HF_SWITCH)), the same on both sides."""
    trees = {}
    out = set()
    for e in events:
        if e.kind != "M2L":
            continue
        t, d = e.target, 0
        if t.level <= hf_max_level:
            refinement = _refinement(config, root_side, t.level)
            dirs = trees.setdefault(refinement, generate_direction_tree(refinement))
            tvec = t.coords - e.source.coords
            d = nearest_direction(dirs, refinement, (tvec / np.linalg.norm(tvec))[None])[0]
        out.add((id(getattr(e, side)), d))
    return out


def _counting_rows(monkeypatch, name: str) -> list:
    """Wrap FourierWorkspace.<name>, appending the rows of each call's stack;
    done before the tracer is built, so the tracer wraps the counter."""
    rows = []
    original = getattr(FourierWorkspace, name)

    def wrapper(self, stack):
        rows.append(np.atleast_2d(stack).shape[0])
        return original(self, stack)

    monkeypatch.setattr(FourierWorkspace, name, wrapper)
    return rows


def _recording_trees(monkeypatch) -> list:
    """Wrap build_tree, appending each tree it builds; done before the tracer
    is built, so the tracer wraps the recorder."""
    built = []

    def wrapper(*args, **kwargs):
        result = build_tree(*args, **kwargs)
        built.append(result[0])
        return result

    monkeypatch.setattr(traversal, "build_tree", wrapper)
    return built


def _recording_plans(monkeypatch) -> list:
    """Wrap traversal.plan_fmm, keeping each plan it makes."""
    plans = []
    original = traversal.plan_fmm

    def wrapper(*args, **kwargs):
        plans.append(original(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(traversal, "plan_fmm", wrapper)
    return plans


@pytest.mark.parametrize("problem", [_self_interaction, _laplace_self_interaction, _two_trees])
def test_tracer_finds_and_measures_everything(monkeypatch, problem):
    tracing = _load_tracing()
    m2f_rows = _counting_rows(monkeypatch, "m2f")
    f2l_rows = _counting_rows(monkeypatch, "f2l")
    built = _recording_trees(monkeypatch)
    plans = _recording_plans(monkeypatch)
    tracer = tracing.Tracer(helmfmm)
    assert tracer.absent == []

    targets, sources, q, config = problem()
    events = []
    with tracer:
        _, info = run_fmm_full(targets, sources, q, config, events=events)
    metrics = tracer.metrics(info, events)
    tracer.check(metrics, info)
    assert {"upward", "m2f", "f2l", "downward"} <= set(info.timings)
    assert set(metrics) | WORKER_METRICS == _per_layer_names()
    # one plan per solve: one blank pass, and one replay of its lists
    assert metrics["traversal.blank_visits"] == 1
    assert metrics["traversal.dtt_visits"] == 1
    # the tree counts, read through the Cell views, are the arrays' counts
    assert metrics["tree.cells"] == info.counts["cells"]
    assert metrics["tree.leaves"] == info.counts["leaves"]
    assert len(built) == (1 if targets is sources else 2)
    assert metrics["tree.depth"] == max(tree.depth for tree in built)

    if config.kappa > 0:
        # the high-frequency path ran, so its functions were really exercised
        assert info.hf_max_level >= 2
        assert metrics["directions.nearest_calls"] > 0
        assert metrics["fourier.tag_calls"] == metrics["directions.nearest_calls"]
    else:
        assert info.hf_max_level == -1
    assert metrics["kernel.matrix_calls"] > 0
    # P2M and L2P make one product per block of same-level leaves
    (plan,) = plans
    assert metrics["interpolation.p2m_calls"] == len(plan.source_blocks)
    assert metrics["interpolation.l2p_calls"] == len(plan.target_blocks)
    assert len(plan.source_blocks) < info.counts["leaves"]
    # the plan builds its grid waves in one plane_wave call per (cell
    # level, level), and a high-frequency leaf block makes one more for
    # its particle phases
    hf_blocks = sum(plan.is_hf(block[0]) for block in plan.source_blocks + plan.target_blocks)
    assert metrics["interpolation.plane_wave_calls"] == len(plan.grid_waves) + hf_blocks
    # M2F transforms one row per multipole M2L reads, F2L one per local
    # expansion it writes, each (level, direction) group's rows in stacks of
    # at most MAX_BLOCK_ENTRIES // P^3 rows
    step = MAX_BLOCK_ENTRIES // FourierWorkspace(config.order).fourier_size
    root_side = _root_side(targets, sources)
    levels = {id(c): c.level for e in events if e.kind == "M2L" for c in (e.target, e.source)}

    def stacks(expansions) -> int:
        groups = Counter((levels[cell], d) for cell, d in expansions)
        return sum(-(-rows // step) for rows in groups.values())

    read = _m2l_expansions(events, config, info.hf_max_level, root_side, "source")
    assert sum(m2f_rows) == len(read)
    assert metrics["fourier.m2f_calls"] == len(m2f_rows) == stacks(read)
    written = _m2l_expansions(events, config, info.hf_max_level, root_side, "target")
    assert sum(f2l_rows) == len(written)
    assert metrics["fourier.f2l_calls"] == len(f2l_rows) == stacks(written)


def _recording_calls(monkeypatch, owner, name: str) -> list:
    """Wrap owner.<name>, appending the arguments of each call; done before
    the tracer is built, so the tracer wraps the recorder."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_each_translation_is_resolved_once(monkeypatch):
    """SymbolCache.get receives each admissible (level, translation) as one
    row, once, and nearest_direction one row per high-frequency one; both
    take the rows of a planning chunk together."""
    tracing = _load_tracing()
    gets = _recording_calls(monkeypatch, SymbolCache, "get")
    nearest = _recording_calls(monkeypatch, traversal, "nearest_direction")
    tracer = tracing.Tracer(helmfmm)
    targets, sources, q, config = _self_interaction()
    events = []
    with tracer:
        _, info = run_fmm_full(targets, sources, q, config, events=events)
    metrics = tracer.metrics(info, events)
    m2l = [e for e in events if e.kind == "M2L"]
    translations = {(e.target.level, *(e.target.coords - e.source.coords).tolist()) for e in m2l}
    hf = {t for t in translations if t[0] <= info.hf_max_level}
    rows = [(level, *t) for _, level, tvecs in gets for t in np.atleast_2d(tvecs).tolist()]
    assert len(rows) == len(set(rows)) == len(translations) < len(m2l)
    assert set(rows) == translations
    assert sum(len(np.atleast_2d(units)) for _, _, units in nearest) == len(hf)
    # the tracer counts the calls, a few per solve
    assert metrics["fourier.symbol_get_calls"] == len(gets) < len(translations)
    assert metrics["directions.nearest_calls"] == len(nearest) < len(hf)
    # the numeric traversal replays the lists: one call, no recursion
    assert metrics["traversal.dtt_visits"] == 1


def _son_links(events, config, hf_max_level, root_side, side: str) -> Counter:
    """Per father level, the (father expansion, son) pairs of one side: M2M
    reads (side "source") or L2L writes (side "target") one son expansion
    per pair, below every expansion M2L reads or writes.  A high-frequency
    son takes the father direction's father_direction, any other son the
    one direction 0."""
    cells = {id(getattr(e, side)): getattr(e, side) for e in events if e.kind == "M2L"}
    held = _m2l_expansions(events, config, hf_max_level, root_side, side)
    todo = list(held)
    links = Counter()
    while todo:
        cid, d = todo.pop()
        father = cells[cid]
        for son in father.sons:
            links[father.level] += 1
            sd = 0
            if son.level <= hf_max_level:
                refinement = _refinement(config, root_side, father.level)
                sd = father_direction(generate_direction_tree(refinement), refinement, d)
            cells[id(son)] = son
            if (id(son), sd) not in held:
                held.add((id(son), sd))
                todo.append((id(son), sd))
    return links


@pytest.mark.parametrize("problem", [_self_interaction, _laplace_self_interaction, _two_trees])
def test_m2m_and_l2l_stack_a_level_per_son_octant(problem):
    """M2M and L2L make at most one apply per son octant for each (side,
    father level), and it takes one column per (father expansion, son)."""
    tracing = _load_tracing()
    tracer = tracing.Tracer(helmfmm)
    targets, sources, q, config = problem()
    # ncrit 4 makes M2L read and write cells that have sons
    config = dataclasses.replace(config, ncrit=4)
    events = []
    with tracer:
        _, info = run_fmm_full(targets, sources, q, config, events=events)
    metrics = tracer.metrics(info, events)
    root_side = _root_side(targets, sources)
    up = _son_links(events, config, info.hf_max_level, root_side, "source")
    down = _son_links(events, config, info.hf_max_level, root_side, "target")
    assert up and down
    assert metrics["interpolation.apply_calls"] <= 8 * (len(up) + len(down))
    assert metrics["interpolation.apply_columns"] == sum(up.values()) + sum(down.values())
