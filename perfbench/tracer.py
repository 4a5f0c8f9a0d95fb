"""Span tracer for the benchmark's traced run.

The tracer wraps detforest's public functions where callers look them up:
the module that defines each function and every ``detforest`` module that
imports it by name.  Each call records one span (id, name, start, end,
parent, thread) in memory, and a few counters are derived from call
arguments and results.  Nothing inside the package changes, and every
wrapped name is restored when the tracer exits.

A wrap target that no longer exists (say, after a refactor removes it) is
reported as absent: its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass
class Tally:
    """Counters of one thread; merged when the trace is summarized."""

    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    trees: list = field(default_factory=list)


def _count_best_split(tally: Tally, args, kwargs, result) -> None:
    rows = len(_arg(args, kwargs, 1, "row_indices"))
    candidates = len(_arg(args, kwargs, 2, "candidates"))
    tally.counts["cart.candidates_scanned"] += candidates
    tally.counts["cart.cells_scanned"] += rows * candidates
    tally.counts["cart.best_split.found"] += result is not None


def _keep_tree(tally: Tally, args, kwargs, result) -> None:
    # Nodes are counted after the trace, so the walk adds no time to any span.
    tally.trees.append(result)


def _count_shuffle(tally: Tally, args, kwargs, result) -> None:
    tally.counts["prng.draws"] += _arg(args, kwargs, 1, "m") - 1


def _count_bounded(tally: Tally, args, kwargs, result) -> None:
    tally.counts["prng.draws"] += 1


def _count_rows(tally: Tally, args, kwargs, result) -> None:
    tally.counts["forest.predict.rows"] += len(_arg(args, kwargs, 1, "features"))


def _count_json(tally: Tally, args, kwargs, result) -> None:
    tally.counts["forest.json_bytes"] += len(result.encode("utf-8"))


def _count_cells(tally: Tally, args, kwargs, result) -> None:
    tally.counts["dataset.load_csv.cells"] += result.features.size + result.labels.size


@dataclass(frozen=True)
class Target:
    """One wrapped function and the per-layer metrics it yields.

    span     -- metric prefix, ``<module>.<function>``
    module   -- module that defines the function
    function -- its name there
    stats    -- which of calls / s / self_s to report
    count    -- derives counters from (args, kwargs, result)
    counters -- metric names that depend on `count`
    skip     -- modules whose own calls stay unwrapped
    """

    span: str
    module: str
    function: str
    stats: tuple[str, ...]
    count: Callable | None = None
    counters: tuple[str, ...] = ()
    skip: tuple[str, ...] = ()


TARGETS: tuple[Target, ...] = (
    Target(
        "cart.best_split", "detforest.cart", "best_split", ("calls", "s"), _count_best_split,
        ("cart.candidates_scanned", "cart.cells_scanned", "cart.best_split.found_ratio"),
    ),
    Target(
        "cart.grow_tree", "detforest.cart", "grow_tree", ("calls", "s", "self_s"), _keep_tree,
        ("cart.nodes", "cart.leaves"),
    ),
    Target("cart.draw_candidates", "detforest.cart", "draw_candidates", ("calls", "self_s")),
    Target("cart.predict_leaf", "detforest.cart", "predict_leaf", ("calls", "s")),
    Target("prng.shuffle", "detforest.prng", "shuffle", ("calls", "s"), _count_shuffle, ("prng.draws",)),
    # Only direct calls (bootstrap): shuffle's own draws are counted from its arguments.
    Target(
        "prng.bounded_uint", "detforest.prng", "bounded_uint", ("calls", "s"), _count_bounded,
        ("prng.draws",), skip=("detforest.prng",),
    ),
    Target("forest.fit", "detforest.forest", "fit", ("s", "self_s")),
    Target("forest.bootstrap_sample", "detforest.forest", "bootstrap_sample", ("calls", "self_s")),
    Target(
        "forest.predict", "detforest.forest", "predict_classes", ("s", "self_s"), _count_rows,
        ("forest.predict.rows_per_s",),
    ),
    Target("forest.to_json", "detforest.forest", "forest_to_json", ("s",), _count_json, ("forest.json_bytes",)),
    Target("forest.from_json", "detforest.forest", "forest_from_json", ("s",)),
    Target("canonical.canonicalize", "detforest.canonical", "canonicalize", ("calls", "s")),
    Target("canonical.forest_divergence", "detforest.canonical", "forest_divergence", ("s", "self_s")),
    Target(
        "dataset.load_csv", "detforest.dataset", "load_csv", ("s",), _count_cells,
        ("dataset.load_csv.cells",),
    ),
    Target("dataset.save_csv", "detforest.dataset", "save_csv", ("s",)),
    Target("dataset.generate", "detforest.dataset", "generate_synthetic_formulas", ("s",)),
    Target("dataset.split", "detforest.dataset", "train_test_split", ("s",)),
    Target("cli.main", "detforest.cli", "main", ("calls", "s", "self_s")),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}
COUNTER_UNITS = {
    "cart.candidates_scanned": "count",
    "cart.cells_scanned": "count",
    "cart.best_split.found_ratio": "fraction",
    "cart.nodes": "count",
    "cart.leaves": "count",
    "prng.draws": "count",
    "forest.predict.rows_per_s": "rows/s",
    "forest.json_bytes": "bytes",
    "dataset.load_csv.cells": "count",
}


def metric_units(targets: tuple[Target, ...] = TARGETS) -> dict[str, str]:
    """Every per-layer metric the targets can yield, with its unit, in report order."""
    out: dict[str, str] = {}
    for t in targets:
        for stat in t.stats:
            out[f"{t.span}.{stat}"] = UNITS[stat]
        for name in t.counters:
            out[name] = COUNTER_UNITS[name]
    return out


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Wraps the targets on ``with``; restores every wrapped name on exit.

    Span stacks are kept per thread.  A span opened on a thread with no open
    span of its own (a pool worker) gets as parent the innermost span open on
    the thread that installed the tracer, which is the call that waits for
    the pool.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        self.absent: list[str] = []
        self.broken: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tallies: list[Tally] = []
        self._lock = threading.Lock()
        self._owner: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _tally(self) -> Tally:
        try:
            return self._local.tally
        except AttributeError:
            tally = self._local.tally = Tally()
            with self._lock:
                self._tallies.append(tally)
            return tally

    def _install(self) -> None:
        self._owner = self._stack()
        modules = [
            (name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "detforest" or name.startswith("detforest."))
        ]
        for target in self.targets:
            fn = getattr(sys.modules.get(target.module), target.function, None)
            if not callable(fn):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target, fn)
            sites = [
                (mod, attr)
                for name, mod in modules
                if name not in target.skip
                for attr, value in list(vars(mod).items())
                if value is fn
            ]
            for mod, attr in sites:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, fn))

    def _restore(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        count = target.count
        spans = self.spans
        ids = self._ids
        owner = self._owner
        stack_of = self._stack
        clock = time.perf_counter_ns
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = owner[-1]
                except IndexError:
                    parent = None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, thread_id()))
            if count is not None and name not in self.broken:
                try:
                    count(self._tally(), args, kwargs, result)
                except Exception as exc:  # a changed signature must not end the run
                    self.broken[name] = repr(exc)
            return result

        return traced

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the recorded spans, and the absent metric names."""
        units = metric_units(self.targets)
        absent = {f"{t.span}.{stat}" for t in self.targets if t.span in self.absent for stat in t.stats}
        absent |= {m for t in self.targets if t.span in self.absent or t.span in self.broken for m in t.counters}

        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered_ns(children.get(sid, []), start, end)

        counts: dict[str, int] = defaultdict(int)
        trees = []
        for tally in self._tallies:
            for key, value in tally.counts.items():
                counts[key] += value
            trees.extend(tally.trees)
        try:
            counts.update(_tree_shapes(trees))
        except (AttributeError, TypeError):
            absent |= {"cart.nodes", "cart.leaves"}

        found = counts["cart.best_split.found"]
        split_calls = calls["cart.best_split"]
        rows = counts["forest.predict.rows"]
        predict_s = total["forest.predict"] / 1e9
        derived = {
            "cart.best_split.found_ratio": found / split_calls if split_calls else 0.0,
            "forest.predict.rows_per_s": rows / predict_s if predict_s else 0.0,
        }
        values: dict[str, float] = {}
        for metric in units:
            if metric in absent:
                continue
            span, _, stat = metric.rpartition(".")
            if metric in derived:
                values[metric] = derived[metric]
            elif stat == "calls":
                values[metric] = calls[span]
            elif stat == "s":
                values[metric] = total[span] / 1e9
            elif stat == "self_s":
                values[metric] = own[span] / 1e9
            else:
                values[metric] = counts[metric]
        return values, sorted(absent)

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in sorted(self.spans, key=lambda s: s[2]):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": (start - origin) / 1e9,
                            "end": (end - origin) / 1e9,
                            "parent": parent,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _tree_shapes(trees: list) -> dict[str, int]:
    iter_nodes = sys.modules["detforest.cart"].iter_nodes
    nodes = leaves = 0
    for tree in trees:
        for node, _ in iter_nodes(tree):
            nodes += 1
            leaves += not hasattr(node, "left")
    return {"cart.nodes": nodes, "cart.leaves": leaves}
