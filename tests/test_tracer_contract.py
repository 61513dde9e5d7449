"""The benchmark tracer must find every function it wraps and measure every
per-layer metric that BENCHMARK.json declares.

bench/tracing.py replaces functions of the program by name and silently
drops the metrics of a name it cannot find, so a rename in the program
would otherwise only show as a short benchmark record.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import helmfmm
from helmfmm.directions import generate_direction_tree, nearest_direction
from helmfmm.traversal import FmmConfig, run_fmm_full

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
    # kappa * w >= hf_switch down to level 2, where pairs become admissible
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


def _m2l_target_expansions(events, config, hf_max_level) -> set:
    """(target cell, direction index) of each local expansion that M2L
    writes: at a high-frequency level, the direction nearest to the
    translation at the refinement round(log2(kappa * w / hf_switch))."""
    trees = {}
    out = set()
    for e in events:
        if e.kind != "M2L":
            continue
        t, d = e.target, 0
        if t.level <= hf_max_level:
            refinement = int(np.floor(np.log2(config.kappa * t.radius / config.hf_switch) + 0.5))
            dirs = trees.setdefault(refinement, generate_direction_tree(refinement))
            tvec = t.coords - e.source.coords
            d = nearest_direction(dirs, refinement, tvec / np.linalg.norm(tvec))
        out.add((id(t), d))
    return out


@pytest.mark.parametrize("problem", [_self_interaction, _laplace_self_interaction, _two_trees])
def test_tracer_finds_and_measures_everything(problem):
    tracing = _load_tracing()
    tracer = tracing.Tracer(helmfmm)
    assert tracer.absent == []

    targets, sources, q, config = problem()
    events = []
    with tracer:
        _, info = run_fmm_full(targets, sources, q, config, events=events)
    metrics = tracer.metrics(info, events)
    tracer.check(metrics, info)
    assert {"upward", "downward"} <= set(info.timings)
    assert set(metrics) | WORKER_METRICS == _per_layer_names()

    if config.kappa > 0:
        # the high-frequency path ran, so its functions were really exercised
        assert info.hf_max_level >= 2
        assert metrics["directions.nearest_calls"] > 0
        assert metrics["fourier.tag_calls"] == metrics["directions.nearest_calls"]
    else:
        assert info.hf_max_level == -1
    assert metrics["kernel.matrix_calls"] > 0
    # one M2F per multipole built, one F2L per local expansion M2L writes
    assert metrics["fourier.m2f_calls"] == info.counts["effective_expansions"]
    expansions = _m2l_target_expansions(events, config, info.hf_max_level)
    assert metrics["fourier.f2l_calls"] == len(expansions)


def test_each_translation_is_resolved_once():
    tracing = _load_tracing()
    tracer = tracing.Tracer(helmfmm)
    targets, sources, q, config = _self_interaction()
    events = []
    with tracer:
        _, info = run_fmm_full(targets, sources, q, config, events=events)
    metrics = tracer.metrics(info, events)
    m2l = [e for e in events if e.kind == "M2L"]
    translations = {(e.target.level, *(e.target.coords - e.source.coords).tolist()) for e in m2l}
    hf = {t for t in translations if t[0] <= info.hf_max_level}
    assert metrics["fourier.symbol_get_calls"] == len(translations) < len(m2l)
    assert metrics["directions.nearest_calls"] == len(hf)
    # the numeric traversal replays the lists: one call, no recursion
    assert metrics["traversal.dtt_visits"] == 1
