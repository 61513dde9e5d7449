"""Per-layer spans and counts for one traced solve.

The tracer replaces functions of the program by timing wrappers, at the
names under which the traversal looks them up (a module attribute, or a
method on the class the traversal calls it through).  Spans nest: a span's
self time is its duration minus the spans of wrapped calls made inside it.
The recursive traversals `blank_dtt` and `dtt` are timed at their outermost
call only; every visit is counted.  Aggregates are kept per function rather
than one record per call, since a solve makes millions of calls.

A function that the program no longer has is listed in `absent`, its
metrics are left out, and the run carries on.
"""

from __future__ import annotations

import importlib
import time

# (name, module, dotted attribute path, extra count kept per call or None)
WRAPS = (
    ("tree.build", "traversal", "build_tree", "tree"),
    ("traversal.blank", "traversal", "blank_dtt", "recursive"),
    ("traversal.dtt", "traversal", "dtt", "recursive"),
    ("directions.nearest", "traversal", "nearest_direction", None),
    ("directions.father", "traversal", "father_direction", None),
    ("fourier.symbol_get", "traversal", "SymbolCache.get", None),
    ("fourier.precompute", "fourier", "precompute_symbol", None),
    ("fourier.tag", "traversal", "SymbolCache.tag_direction", None),
    ("fourier.m2l", "traversal", "m2l_hadamard", "bytes"),
    ("fourier.m2f", "traversal", "FourierWorkspace.m2f", None),
    ("fourier.f2l", "traversal", "FourierWorkspace.f2l", None),
    ("interpolation.p2m", "traversal", "interp.p2m", None),
    ("interpolation.l2p", "traversal", "interp.l2p", None),
    ("interpolation.apply", "traversal", "interp.apply_strategy", "columns"),
    ("interpolation.kron", "interpolation", "kron_apply", "flops"),
    ("interpolation.plane_wave", "traversal", "interp.plane_wave", None),
    ("kernel.matrix", "traversal", "HelmholtzKernel.matrix", "entries"),
)


# benchmark metric -> (wrapped function, field of its Stat)
METRICS = {
    "tree.build_s": ("tree.build", "total_s"),
    "tree.cells": ("tree.build", "cells"),
    "tree.leaves": ("tree.build", "leaves"),
    "tree.depth": ("tree.build", "depth"),
    "traversal.blank_s": ("traversal.blank", "total_s"),
    "traversal.blank_self_s": ("traversal.blank", "self_s"),
    "traversal.blank_visits": ("traversal.blank", "calls"),
    "traversal.dtt_s": ("traversal.dtt", "total_s"),
    "traversal.dtt_self_s": ("traversal.dtt", "self_s"),
    "traversal.dtt_visits": ("traversal.dtt", "calls"),
    "directions.nearest_calls": ("directions.nearest", "calls"),
    "directions.nearest_s": ("directions.nearest", "total_s"),
    "fourier.symbol_get_calls": ("fourier.symbol_get", "calls"),
    "fourier.symbol_get_s": ("fourier.symbol_get", "total_s"),
    "fourier.symbols_computed": ("fourier.precompute", "calls"),
    "fourier.precompute_s": ("fourier.precompute", "total_s"),
    "fourier.tag_calls": ("fourier.tag", "calls"),
    "fourier.m2l_calls": ("fourier.m2l", "calls"),
    "fourier.m2l_s": ("fourier.m2l", "total_s"),
    "fourier.m2l_bytes_computed": ("fourier.m2l", "extra"),
    "fourier.m2f_calls": ("fourier.m2f", "calls"),
    "fourier.m2f_s": ("fourier.m2f", "total_s"),
    "fourier.f2l_calls": ("fourier.f2l", "calls"),
    "fourier.f2l_s": ("fourier.f2l", "total_s"),
    "interpolation.p2m_calls": ("interpolation.p2m", "calls"),
    "interpolation.p2m_s": ("interpolation.p2m", "total_s"),
    "interpolation.l2p_calls": ("interpolation.l2p", "calls"),
    "interpolation.l2p_s": ("interpolation.l2p", "total_s"),
    "interpolation.apply_calls": ("interpolation.apply", "calls"),
    "interpolation.apply_columns": ("interpolation.apply", "extra"),
    "interpolation.apply_s": ("interpolation.apply", "total_s"),
    "interpolation.kron_flops": ("interpolation.kron", "extra"),
    "interpolation.plane_wave_calls": ("interpolation.plane_wave", "calls"),
    "interpolation.plane_wave_s": ("interpolation.plane_wave", "total_s"),
    "kernel.matrix_calls": ("kernel.matrix", "calls"),
    "kernel.matrix_entries": ("kernel.matrix", "extra"),
    "kernel.matrix_s": ("kernel.matrix", "total_s"),
}


def _extra(kind, args) -> int:
    """The per-call quantity counted next to the call count."""
    if kind == "bytes":
        # computed traffic of accumulator += diagonal * source: three
        # arrays read and one written
        return 4 * args[0].nbytes
    if kind == "columns":
        return args[2].shape[1]
    if kind == "flops":
        # multiply-adds of three mode products, twice for complex columns
        order = args[0][0].shape[0]
        x = args[1]
        return 6 * order**4 * x.shape[1] * (2 if x.dtype.kind == "c" else 1)
    if kind == "entries":
        return args[1].shape[0] * args[2].shape[0]
    return 0


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra", "cells", "leaves", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = 0
        self.cells = self.leaves = self.depth = 0


class Tracer:
    def __init__(self, helmfmm):
        self.stats = {name: Stat() for name, *_ in WRAPS}
        self.absent = []
        self._stack = []  # child time accumulated under each open span
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, module, path, kind in WRAPS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(f"{helmfmm.__name__}.{module}")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                del self.stats[name]
                continue
            wrap = self._recursive if kind == "recursive" else self._span
            self._patches.append((owner, attr, original, wrap(name, original, kind)))

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = Stat()

    def _timed(self, stat, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = stack.pop()
            stat.total_s += dur
            stat.self_s += dur - child
            if stack:
                stack[-1] += dur

    def _span(self, name, fn, kind):
        def wrapper(*args, **kwargs):
            stat = self.stats[name]
            stat.calls += 1
            result = self._timed(stat, fn, args, kwargs)
            if kind == "tree":
                tree = result[0]
                stat.cells += sum(len(level) for level in tree.levels)
                stat.leaves += sum(not c.sons for level in tree.levels for c in level)
                stat.depth = max(stat.depth, len(tree.levels) - 1)
            elif kind is not None:
                stat.extra += _extra(kind, args)
            return result

        return wrapper

    def _recursive(self, name, fn, kind):
        active = [False]

        def wrapper(*args, **kwargs):
            stat = self.stats[name]
            stat.calls += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            try:
                return self._timed(stat, fn, args, kwargs)
            finally:
                active[0] = False

        return wrapper

    def metrics(self, info, events) -> dict:
        """Per-layer metrics of the last traced solve, by benchmark name."""
        m = {k: getattr(self.stats[f], a) for k, (f, a) in METRICS.items() if f in self.stats}
        p2p = [e for e in events if e.kind == "P2P"]
        pairs = [(e.target.stop - e.target.start) * (e.source.stop - e.source.start) for e in p2p]
        m["traversal.m2l_events"] = sum(e.kind == "M2L" for e in events)
        m["traversal.p2p_blocks"] = len(p2p)
        m["traversal.p2p_pairs"] = sum(pairs)
        m["traversal.p2p_pairs_leaf_nonleaf"] = sum(
            n for e, n in zip(p2p, pairs) if not (e.target.is_leaf and e.source.is_leaf)
        )
        if "effective_expansions" in info.counts:
            m["traversal.effective_expansions"] = info.counts["effective_expansions"]
        return m

    def check(self, m: dict, info) -> None:
        """Fail loudly unless the traced counts match the program's counts."""
        want = {
            "traversal.m2l_events": "m2l_events",
            "fourier.m2l_calls": "m2l_events",
            "traversal.p2p_pairs": "p2p_pairs",
            "kernel.matrix_entries": "p2p_pairs",
        }
        missing = sorted({c for c in want.values() if c not in info.counts})
        if missing:
            raise SystemExit(f"the program no longer reports {missing}")
        bad = {
            k: (m[k], info.counts[c]) for k, c in want.items() if k in m and m[k] != info.counts[c]
        }
        if bad:
            raise SystemExit(f"traced counts disagree with the program's: {bad}")

    def table(self) -> dict:
        """Per-function aggregates, for the trace file."""
        return {
            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s, "extra": st.extra}
            for name, st in self.stats.items()
        }
