"""Acceptance gate: nine product-level criteria, each timed against a budget.

Every test prints one `[acceptance] criterion N (...): PASS/FAIL` line on the
real stdout (visible even under pytest capture) and fails if its runtime
budget is exceeded.  Expensive artifacts (the desk-scale dataset and the two
50-tree forests) are built lazily and cached, so their cost is charged to the
first criterion that needs them and the whole gate stays within budget.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from detforest import (
    Dataset,
    ForestConfig,
    NodeSizeSemantics,
    TieBreak,
    accuracy,
    canonicalize,
    derive_stream,
    fit,
    forest_to_json,
    generate_synthetic_formulas,
    gini,
    grow_tree,
    train_test_split,
)
from detforest.cart import (
    Internal,
    Leaf,
    best_split,
    class_counts_of,
    iter_nodes,
    trees_equal_exact,
)
from detforest.cli import PRESETS
from detforest.forest import predict_argmax_proba, predict_majority

from helpers import duplicated_feature_dataset, exhaustive_split_oracle


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - t0
        if elapsed > budget_s:
            status = "FAIL"
        print(
            f"[acceptance] criterion {num} ({label}): {status} "
            f"({elapsed:.2f}s, budget {budget_s:g}s)",
            flush=True,
        )
    assert elapsed <= budget_s, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s"
    )


# Lazily built shared artifacts; the build cost lands inside the timed block
# of whichever criterion touches each artifact first.
_cache: dict = {}


def _desk() -> tuple[Dataset, "SplitIndices"]:
    if "desk" not in _cache:
        ds = generate_synthetic_formulas(4598, 87, 0)
        _cache["desk"] = (ds, train_test_split(ds, 0.8, 0))
    return _cache["desk"]


def _full50():
    if "full50" not in _cache:
        ds, split = _desk()
        _cache["full50"] = fit(ds, split, ForestConfig(seed=0), n_workers=4)
    return _cache["full50"]


def test_criterion_1_gini_examples_and_range(capfd):
    with capfd.disabled(), criterion(1, "gini examples exact, fuzzed range bound", 1.0):
        assert abs(gini((5, 5)) - 0.5) <= 1e-15
        assert abs(gini((10, 0)) - 0.0) <= 1e-15
        assert abs(gini((1, 1, 1)) - 2.0 / 3.0) <= 1e-15
        for k in range(2000):
            rng = np.random.default_rng(k)
            c = int(rng.integers(2, 7))
            counts = tuple(int(v) for v in rng.integers(0, 10_001, size=c))
            if sum(counts) == 0:
                counts = counts[:-1] + (1,)
            g = gini(counts)
            assert 0.0 <= g <= 1.0 - 1.0 / c


def test_criterion_2_split_search_matches_exhaustive_oracle(capfd):
    with capfd.disabled(), criterion(2, "best split always in the exhaustive oracle set", 30.0):
        checked = 0
        with_ties = 0
        for k in range(500):
            rng = np.random.default_rng(k)
            n = int(rng.integers(2, 41))
            p = int(rng.integers(1, 7))
            c = int(rng.integers(2, 4))
            # coarse grids maximize exact impurity ties, the hard case
            feats = rng.integers(0, 4, size=(n, p)).astype(np.float64)
            labels = rng.integers(0, c, size=n).astype(np.int64)
            labels[0] = c - 1
            ds = Dataset(feats, labels, [f"f{i}" for i in range(p)])
            rows = np.arange(n)
            parent = class_counts_of(ds.labels, ds.c)
            oracle = exhaustive_split_oracle(ds, rows, parent)
            if len(oracle) > 1:
                with_ties += 1
            order = [int(v) for v in rng.permutation(p)]
            for tb in TieBreak:
                sp = best_split(
                    ds, rows, order, parent, ForestConfig(mtry=p, tie_break=tb)
                )
                if not oracle:
                    assert sp is None, f"dataset {k}: split found, oracle empty"
                else:
                    assert sp in oracle, f"dataset {k}: {sp} not in oracle"
            checked += 1
        assert checked >= 500
        # the fuzz corpus must actually exercise tie-breaking
        assert with_ties >= 50


def test_criterion_3_tie_policy_changes_bits_not_structure(capfd):
    with capfd.disabled(), criterion(3, "draw-order ties differ bitwise, never canonically", 10.0):
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)

        def grown(tb: TieBreak, stream: int):
            return grow_tree(
                ds, rows, ForestConfig(mtry=2, tie_break=tb), derive_stream(0, stream)
            )

        first = [grown(TieBreak.FIRST_IN_DRAW_ORDER, s) for s in range(20)]
        distinct_bits = sum(
            1 for t in first[1:] if not trees_equal_exact(first[0], t)
        )
        assert distinct_bits >= 1, "expected >= 2 bit-distinct trees among 20"
        reference = canonicalize(first[0])
        assert all(canonicalize(t) == reference for t in first), (
            "expected 20/20 canonically equal trees"
        )

        lowest = [grown(TieBreak.LOWEST_FEATURE_INDEX, s) for s in range(20)]
        assert all(trees_equal_exact(lowest[0], t) for t in lowest), (
            "expected 20/20 bit-identical trees"
        )


def test_criterion_4_node_size_default_changes_structure(capfd):
    with capfd.disabled(), criterion(4, "min-split 10 vs 1 changes the derandomized tree", 60.0):
        ds, split = _desk()
        base = PRESETS["table3"].config()

        def tree(min_node: int, seed: int):
            cfg = dataclasses.replace(base, min_node_size=min_node, seed=seed)
            return fit(ds, split, cfg).trees[0]

        ten = tree(10, 0)
        one_a = tree(1, 1)
        one_b = tree(1, 2)
        assert canonicalize(ten) != canonicalize(one_a), (
            "node-size defaults 10 vs 1 must grow canonically different trees"
        )
        assert canonicalize(one_a) == canonicalize(one_b), (
            "matching node sizes must restore canonical equality"
        )


def test_criterion_5_node_size_semantics_shape_shallow_trees(capfd):
    with capfd.disabled(), criterion(5, "split-threshold vs leaf-floor node sizes", 60.0):
        ds, split = _desk()

        def preset_tree(name: str, seed: int):
            cfg = dataclasses.replace(PRESETS[name].config(), seed=seed)
            return fit(ds, split, cfg).trees[0]

        fig1 = preset_tree("fig1", 0)
        fig2 = preset_tree("fig2", 0)

        # fig1 (min-split): a node of >= 1000 samples may produce a child
        # leaf below 1000
        undersized_child = False
        for node, _ in iter_nodes(fig1):
            if isinstance(node, Internal) and node.n_samples >= 1000:
                for child in (fig1.nodes[node.left], fig1.nodes[node.right]):
                    if isinstance(child, Leaf) and child.n_samples < 1000:
                        undersized_child = True
        assert undersized_child, (
            "min-split tree should contain a >=1000 node with a <1000 child leaf"
        )
        assert all(
            node.n_samples >= 1000
            for node, _ in iter_nodes(fig1)
            if isinstance(node, Internal)
        )

        # fig2 (min-leaf): no leaf below the floor
        assert all(
            node.n_samples >= 1000
            for node, _ in iter_nodes(fig2)
            if isinstance(node, Leaf)
        )

        # a fresh min-split run reproduces fig1's structure; the leaf-floor
        # tree is genuinely different
        fig1_again = preset_tree("fig1", 1)
        assert canonicalize(fig1) == canonicalize(fig1_again)
        assert canonicalize(fig1) != canonicalize(fig2)


def test_criterion_6_aggregation_modes_can_disagree(capfd):
    with capfd.disabled(), criterion(6, "vote vs mean-probability disagreement", 120.0):
        ds, split = _desk()
        test_rows = np.asarray(split.test, dtype=np.intp)

        depth5 = fit(
            ds, split, ForestConfig(n_trees=50, max_depth=5, seed=0), n_workers=4
        )
        disagree = sum(
            1
            for r in test_rows
            if predict_majority(depth5, ds.features[r])
            != predict_argmax_proba(depth5, ds.features[r])
        )
        assert disagree >= 1, "impure leaves must produce >= 1 disagreement"
        assert disagree == 45  # pinned for seed 0

        full = _full50()
        agree = sum(
            1
            for r in test_rows
            if predict_majority(full, ds.features[r])
            == predict_argmax_proba(full, ds.features[r])
        )
        assert agree == len(test_rows), (
            f"pure leaves must agree everywhere, got {agree}/{len(test_rows)}"
        )


def test_criterion_7_parallel_training_is_byte_stable(capfd):
    with capfd.disabled(), criterion(7, "repeat runs and worker counts give identical bytes", 120.0):
        ds, split = _desk()
        cfg = ForestConfig(n_trees=8, seed=0)
        outputs = [
            forest_to_json(fit(ds, split, cfg, n_workers=w))
            for w in (1, 1, 4, 4)
        ]
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_criterion_8_derandomized_forest_grows_one_tree(capfd):
    with capfd.disabled(), criterion(8, "5 derandomized trees are canonically equal", 60.0):
        ds, split = _desk()
        cfg = dataclasses.replace(PRESETS["table3"].config(), n_trees=5)
        forest = fit(ds, split, cfg, n_workers=4)
        assert len(forest.trees) == 5
        reference = canonicalize(forest.trees[0])
        assert all(canonicalize(t) == reference for t in forest.trees)


def test_criterion_9_desk_benchmark_accuracy(capfd):
    with capfd.disabled(), criterion(9, "default 50-tree forest beats 0.85 accuracy", 120.0):
        ds, split = _desk()
        acc = accuracy(_full50(), ds, split.test)
        assert acc > 0.85
        assert acc == 783 / 920  # pinned for seed 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
