"""Tests for single-tree growth: impurity, split search, and prediction."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest import (
    Aggregation,
    Dataset,
    ForestConfig,
    NodeSizeSemantics,
    SplitIndices,
    TieBreak,
    derive_stream,
    fit,
    forest_from_json,
    forest_to_json,
    generate_synthetic_formulas,
    gini,
    grow_tree,
    train_test_split,
)
from detforest.cart import (
    BLOCK_CELLS,
    TIE_TOL,
    DecisionTree,
    Internal,
    Leaf,
    _midpoint,
    _partner_rows,
    best_split,
    class_counts_of,
    draw_candidates,
    iter_nodes,
    predict_leaf,
    trees_equal_exact,
)
from detforest.forest import bootstrap_sample
from detforest.prng import RngState, next_u64_block, permute, shuffle

from helpers import (
    MASK64,
    duplicated_feature_dataset,
    exhaustive_split_oracle,
    reference_best_split,
    reference_grow_tree,
    state_with_draw,
    tiny_dataset,
    weighted_child_impurity,
)


class TestGini:
    def test_balanced_two_classes(self):
        assert abs(gini((5, 5)) - 0.5) <= 1e-15

    def test_pure_node(self):
        assert abs(gini((10, 0)) - 0.0) <= 1e-15

    def test_balanced_three_classes(self):
        assert abs(gini((1, 1, 1)) - 2.0 / 3.0) <= 1e-15

    def test_empty_node_is_zero(self):
        assert gini((0, 0)) == 0.0

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8
        ).filter(lambda cs: sum(cs) > 0)
    )
    def test_range_bound(self, counts):
        c = len(counts)
        g = gini(tuple(counts))
        assert 0.0 <= g <= 1.0 - 1.0 / c + 1e-12

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=500), min_size=2, max_size=6
        ).filter(lambda cs: sum(cs) > 0),
    )
    def test_permutation_invariant_up_to_float_order(self, counts):
        # Accumulation is sequential in class order, so permuting counts can
        # move bits; the value itself must agree to float tolerance.
        g1 = gini(tuple(counts))
        g2 = gini(tuple(reversed(counts)))
        assert g1 == pytest.approx(g2, abs=1e-12)


class TestClassCounts:
    def test_class_counts_of(self):
        cc = class_counts_of(np.array([0, 2, 2, 1, 2]), 4)
        assert cc == (1, 1, 3, 0)

    def test_minlength_pads_absent_classes(self):
        cc = class_counts_of(np.array([0, 0]), 3)
        assert cc == (2, 0, 0)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_counts_are_tuples_of_python_ints(self, weighted):
        # json.dumps rejects numpy integers, so no count may be one: not in
        # class_counts_of, a Split, a grown tree or a loaded forest.
        ds = generate_synthetic_formulas(80, 5, 3)

        def check(counts):
            assert type(counts) is tuple and len(counts) == ds.c
            assert all(type(v) is int for v in counts)

        rows = np.arange(ds.n)
        weights = np.random.default_rng(0).integers(1, 4, size=ds.n) if weighted else None
        parent = class_counts_of(ds.labels[np.repeat(rows, 1 if weights is None else weights)], ds.c)
        check(parent)
        sp = best_split(ds, rows, list(range(ds.p)), parent, _grow_cfg(mtry=ds.p), weights)
        check(sp.left_counts)
        check(sp.right_counts)
        f = fit(ds, train_test_split(ds, 0.75, 0), ForestConfig(n_trees=2, bootstrap=weighted))
        for tree in f.trees + forest_from_json(forest_to_json(f)).trees:
            for node in tree.nodes:
                check(node.class_counts)


class TestMidpoints:
    def test_plain_midpoints(self):
        assert [_midpoint(1.0, 2.0), _midpoint(2.0, 4.0)] == [1.5, 3.0]

    def test_guard_when_midpoint_rounds_up(self):
        # Adjacent floats: their midpoint rounds to the upper value, which
        # would send the left block right under `x <= t`; the guard pins the
        # threshold to the lower value instead.
        a = 1.0
        b = float(np.nextafter(a, np.inf))
        assert _midpoint(a, b) == a

    def test_threshold_routes_left_block_left(self):
        a = 1e308
        b = float(np.nextafter(a, np.inf))
        t = _midpoint(a, b)
        assert a <= t < b

    def test_huge_values_do_not_overflow(self):
        # (a + b) overflows float64 here; the midpoint must stay finite or
        # an inf threshold would route every row left.
        out = _midpoint(1.0e308, 1.7e308)
        assert np.isfinite(out)
        assert out == 1.35e308

    def test_tree_grows_through_overflow_range(self):
        ds = tiny_dataset([[1.0e308, 1.2e308, 1.5e308, 1.7e308]], [0, 0, 1, 1])
        tree = grow_tree(ds, np.arange(4), _grow_cfg(), derive_stream(0, 0))
        root = tree.nodes[0]
        assert isinstance(root, Internal)
        assert np.isfinite(root.threshold)
        assert tree.nodes[root.left].class_counts == (2, 0) and tree.nodes[root.right].class_counts == (0, 2)
        assert predict_leaf(tree, np.array([1.1e308])).class_counts == (2, 0)
        assert predict_leaf(tree, np.array([1.6e308])).class_counts == (0, 2)


class TestDrawCandidates:
    def test_pinned_draw(self):
        rng = derive_stream(9, 4)
        cands, _ = draw_candidates(rng, 3, 3)
        assert cands == [1, 2, 0]

    def test_mtry_all_still_draws(self):
        # Even with every feature admissible the permutation is consumed, so
        # downstream state depends on p; the draw order itself feeds the
        # first-in-draw-order tie-break.
        rng = derive_stream(3, 1)
        cands, after = draw_candidates(rng, 5, 5)
        assert sorted(cands) == [0, 1, 2, 3, 4]
        assert after != rng

    def test_invalid_mtry_rejected(self):
        rng = derive_stream(0, 0)
        with pytest.raises(ValueError):
            draw_candidates(rng, 3, 0)
        with pytest.raises(ValueError):
            draw_candidates(rng, 3, 4)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        stream=st.integers(min_value=0, max_value=1000),
        p=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_prefix_of_shuffle(self, seed, stream, p, data):
        mtry = data.draw(st.integers(min_value=1, max_value=p))
        rng = derive_stream(seed, stream)
        cands, after = draw_candidates(rng, p, mtry)
        perm, after_ref = shuffle(rng, p)
        assert cands == perm[:mtry]
        assert after == after_ref
        assert len(set(cands)) == mtry
        assert all(0 <= f < p for f in cands)


def _grow_cfg(**kw) -> ForestConfig:
    kw.setdefault("mtry", 1)
    return ForestConfig(**kw)


class TestBestSplit:
    def test_clean_separation_hand_case(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
        parent = class_counts_of(ds.labels, ds.c)
        sp = best_split(ds, np.arange(4), [0], parent, _grow_cfg())
        assert sp is not None
        assert sp.feature == 0
        assert sp.threshold == 2.5
        assert sp.left_counts == (2, 0)
        assert sp.right_counts == (0, 2)
        assert weighted_child_impurity(sp) == 0.0
        assert gini(parent) - weighted_child_impurity(sp) == pytest.approx(0.5, abs=1e-15)
        # and it is the unique oracle optimum
        oracle = exhaustive_split_oracle(ds, np.arange(4), parent)
        assert len(oracle) == 1
        assert oracle[0] == sp

    def test_pure_node_returns_none(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [1, 1, 1])
        parent = class_counts_of(ds.labels, ds.c)
        assert best_split(ds, np.arange(3), [0], parent, _grow_cfg()) is None
        assert exhaustive_split_oracle(ds, np.arange(3), parent) == []

    def test_constant_feature_returns_none(self):
        ds = tiny_dataset([[5.0, 5.0, 5.0, 5.0]], [0, 1, 0, 1])
        parent = class_counts_of(ds.labels, ds.c)
        assert best_split(ds, np.arange(4), [0], parent, _grow_cfg()) is None

    def test_min_leaf_semantics_excludes_small_children(self):
        # Unconstrained, the best cut isolates the lone 0 at 1.5; requiring
        # two samples per child forces the (2, 2) cut at 2.5.
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 1, 1, 1])
        parent = class_counts_of(ds.labels, ds.c)
        free = best_split(ds, np.arange(4), [0], parent, _grow_cfg())
        assert free is not None and free.threshold == 1.5
        cfg = _grow_cfg(
            min_node_size=2, node_size_semantics=NodeSizeSemantics.MIN_LEAF
        )
        sp = best_split(ds, np.arange(4), [0], parent, cfg)
        assert sp is not None
        assert sp.threshold == 2.5
        assert sp.left_counts == (1, 1)
        assert sp.right_counts == (0, 2)
        assert weighted_child_impurity(sp) == pytest.approx(0.25, abs=1e-15)
        assert gini(parent) == pytest.approx(0.375, abs=1e-15)

    def test_min_leaf_can_forbid_all_splits(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [0, 0, 1])
        parent = class_counts_of(ds.labels, ds.c)
        cfg = _grow_cfg(
            min_node_size=2, node_size_semantics=NodeSizeSemantics.MIN_LEAF
        )
        # Only cuts (1,2) and (2,1) exist; both leave a child below 2.
        assert best_split(ds, np.arange(3), [0], parent, cfg) is None

    def test_min_split_semantics_ignores_child_sizes(self):
        # MIN_SPLIT gates the parent before the search, never the children.
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 1, 1, 1])
        parent = class_counts_of(ds.labels, ds.c)
        cfg = _grow_cfg(
            min_node_size=4, node_size_semantics=NodeSizeSemantics.MIN_SPLIT
        )
        sp = best_split(ds, np.arange(4), [0], parent, cfg)
        assert sp is not None and sp.threshold == 1.5

    def test_duplicated_feature_tie_policies(self):
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)
        parent = class_counts_of(ds.labels, ds.c)
        first = best_split(
            ds, rows, [1, 0], parent,
            _grow_cfg(mtry=2, tie_break=TieBreak.FIRST_IN_DRAW_ORDER),
        )
        lowest = best_split(
            ds, rows, [1, 0], parent,
            _grow_cfg(mtry=2, tie_break=TieBreak.LOWEST_FEATURE_INDEX),
        )
        assert first is not None and lowest is not None
        assert first.feature == 1  # first in draw order
        assert lowest.feature == 0  # lowest index despite draw order
        # identical partitions: everything except the feature id matches
        assert first.threshold == lowest.threshold == 2.5
        assert first.left_counts == lowest.left_counts
        assert weighted_child_impurity(first) == weighted_child_impurity(lowest)
        oracle = exhaustive_split_oracle(ds, rows, parent)
        assert first in oracle and lowest in oracle
        assert len(oracle) == 2

    def test_within_feature_tie_takes_lowest_threshold(self):
        # x = [1,2,3], y = [0,1,0]: cutting at 1.5 or 2.5 both give weighted
        # impurity 1/3; both policies resolve within-feature ties to the
        # first (lowest) threshold.
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [0, 1, 0])
        parent = class_counts_of(ds.labels, ds.c)
        oracle = exhaustive_split_oracle(ds, np.arange(3), parent)
        assert len(oracle) == 2
        assert sorted(s.threshold for s in oracle) == [1.5, 2.5]
        for tb in TieBreak:
            sp = best_split(ds, np.arange(3), [0], parent, _grow_cfg(tie_break=tb))
            assert sp is not None and sp.threshold == 1.5
            assert sp in oracle

    def test_candidate_subset_restricts_search(self):
        # Feature 1 separates perfectly but is not a candidate.
        ds = tiny_dataset(
            [[1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1]
        )
        parent = class_counts_of(ds.labels, ds.c)
        sp = best_split(ds, np.arange(4), [0], parent, _grow_cfg())
        assert sp is not None and sp.feature == 0

    def test_empty_rows_rejected(self):
        ds = tiny_dataset([[1.0, 2.0]], [0, 1])
        parent = (0, 0)
        with pytest.raises(ValueError):
            best_split(ds, np.array([], dtype=np.intp), [0], parent, _grow_cfg())

    def test_order_of_tied_rows_does_not_matter(self):
        # Five distinct values per feature: nearly every row sits in a run
        # of ties, and permuting the rows reorders every run.
        gen = np.random.default_rng(1)
        ds = Dataset(
            gen.integers(0, 5, size=(200, 6)).astype(np.float64),
            gen.integers(0, 3, size=200),
            [f"f{i}" for i in range(6)],
        )
        rows = np.arange(0, 200, 2)
        parent = class_counts_of(ds.labels[rows], ds.c)
        cands = [4, 1, 5, 0, 3, 2]
        cfgs = [_grow_cfg(mtry=6, tie_break=tb) for tb in TieBreak] + [
            _grow_cfg(mtry=6, min_node_size=7, node_size_semantics=NodeSizeSemantics.MIN_LEAF)
        ]
        expected = [best_split(ds, rows, cands, parent, cfg) for cfg in cfgs]
        assert expected[1] == min(
            exhaustive_split_oracle(ds, rows, parent), key=lambda s: (s.feature, s.threshold)
        )
        for _ in range(5):
            shuffled = gen.permutation(rows)
            assert [best_split(ds, shuffled, cands, parent, cfg) for cfg in cfgs] == expected

    def test_agrees_with_oracle_on_row_subsets(self):
        ds = duplicated_feature_dataset(copies_per_value=2)
        rows = np.array([0, 2, 4, 6, 7])
        parent = class_counts_of(ds.labels[rows], ds.c)
        sp = best_split(
            ds, rows, [0, 1], parent,
            _grow_cfg(mtry=2, tie_break=TieBreak.LOWEST_FEATURE_INDEX),
        )
        oracle = exhaustive_split_oracle(ds, rows, parent)
        assert sp in oracle


def _two_block_tie_dataset() -> Dataset:
    """Two classes, n x p past one block, feature 35 an exact twin of 5.

    Labels run 0^300 1^400 0^300 along feature 5, so cutting it at 300.5 or
    700.5 gives bit-identical weighted impurities: the tie window holds two
    thresholds on each twin.  Every other feature is noise.
    """
    n, p = 1000, 40
    rng = np.random.default_rng(0)
    features = rng.random((n, p))
    features[:, 5] = features[:, 35] = np.arange(1.0, n + 1.0)
    labels = np.r_[np.zeros(300), np.ones(400), np.zeros(300)].astype(np.int64)
    return Dataset(features, labels, [f"f{i}" for i in range(p)])


class TestBestSplitBlocks:
    # Draw order puts twin 35 in the first block and twin 5 in the last.
    CANDIDATES = [35] + [f for f in range(40) if f not in (5, 35)] + [5]

    def _setup(self):
        ds = _two_block_tie_dataset()
        rows = np.arange(ds.n)
        parent = class_counts_of(ds.labels, ds.c)
        step = BLOCK_CELLS // (ds.c * ds.n)
        assert ds.c * ds.n * len(self.CANDIDATES) > BLOCK_CELLS
        assert 0 // step != (len(self.CANDIDATES) - 1) // step
        return ds, rows, parent

    def test_each_policy_picks_its_window_member_across_blocks(self):
        ds, rows, parent = self._setup()
        window = exhaustive_split_oracle(ds, rows, parent)
        assert sorted((s.feature, s.threshold) for s in window) == [
            (5, 300.5), (5, 700.5), (35, 300.5), (35, 700.5)
        ]
        cfg = _grow_cfg(mtry=40, tie_break=TieBreak.LOWEST_FEATURE_INDEX)
        lowest = best_split(ds, rows, self.CANDIDATES, parent, cfg)
        assert lowest == min(window, key=lambda s: (s.feature, s.threshold))
        assert (lowest.feature, lowest.threshold) == (5, 300.5)
        cfg = _grow_cfg(mtry=40, tie_break=TieBreak.FIRST_IN_DRAW_ORDER)
        first = best_split(ds, rows, self.CANDIDATES, parent, cfg)
        assert first == min(window, key=lambda s: (self.CANDIDATES.index(s.feature), s.threshold))
        assert (first.feature, first.threshold) == (35, 300.5)

    # 2 classes x 334 rows: blocks of 1, 3, 20 and all 40 columns.
    @pytest.mark.parametrize("cells", [1, 2 * 334 * 3, 2 * 334 * 20, 1 << 20])
    def test_result_does_not_depend_on_block_size(self, cells, monkeypatch):
        ds, rows, parent = self._setup()
        rows = rows[::3]
        parent = class_counts_of(ds.labels[rows], ds.c)
        expected = {
            tb: best_split(ds, rows, self.CANDIDATES, parent, _grow_cfg(mtry=40, tie_break=tb))
            for tb in TieBreak
        }
        monkeypatch.setattr("detforest.cart.BLOCK_CELLS", cells)
        for tb in TieBreak:
            got = best_split(ds, rows, self.CANDIDATES, parent, _grow_cfg(mtry=40, tie_break=tb))
            assert got == expected[tb]


def _tied_dataset(data) -> Dataset:
    """Coarse-grid features with some columns repeated as exact copies."""
    n = data.draw(st.integers(min_value=2, max_value=30), label="n")
    p = data.draw(st.integers(min_value=1, max_value=5), label="p")
    c = data.draw(st.integers(min_value=2, max_value=3), label="c")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    gen = np.random.default_rng(seed)
    features = gen.integers(0, 5, size=(n, p)).astype(np.float64)
    copies = data.draw(st.lists(st.integers(0, p - 1), max_size=2), label="copied columns")
    features = np.column_stack([features] + [features[:, [j]] for j in copies])
    labels = gen.integers(0, c, size=n)
    labels[0] = c - 1
    return Dataset(features, labels, [f"f{i}" for i in range(features.shape[1])])


def _any_grow_cfg(data, p: int) -> ForestConfig:
    return ForestConfig(
        mtry=data.draw(st.integers(min_value=1, max_value=p), label="mtry"),
        min_node_size=data.draw(st.sampled_from([1, 3, 7]), label="min_node_size"),
        node_size_semantics=data.draw(st.sampled_from(NodeSizeSemantics), label="semantics"),
        max_depth=data.draw(st.sampled_from([None, 3]), label="max_depth"),
        tie_break=data.draw(st.sampled_from(TieBreak), label="tie_break"),
    )


class TestBestSplitMatchesReference:
    """best_split returns exactly the Split of the search it replaced."""

    # Few distinct values, so that boundaries tie within a column and, with
    # duplicated columns, across columns; 1e308 takes the overflow midpoint.
    VALUES = [0.0, 0.5, 1.0, 2.0, 3.5, 1e308]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_split_as_reference_best_split(self, data):
        c = data.draw(st.integers(2, 4), label="classes")
        n = data.draw(st.integers(2, 24), label="rows")
        p = data.draw(st.integers(1, 5), label="features")
        column = st.lists(st.sampled_from(self.VALUES), min_size=n, max_size=n)
        columns = data.draw(st.lists(column, min_size=p, max_size=p), label="columns")
        copies = data.draw(st.lists(st.integers(0, p - 1), max_size=3), label="duplicated columns")
        columns += [columns[k] for k in copies]
        labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n), label="labels")
        labels[data.draw(st.integers(0, n - 1), label="row of the last class")] = c - 1
        ds = tiny_dataset(columns, labels)
        rows = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="rows")
        )
        kind = data.draw(st.sampled_from(["omitted", "ones", "counts"]), label="weights")
        if kind == "omitted":
            weights = None
        elif kind == "ones":
            weights = np.ones(rows.size)
        else:
            counts = st.lists(st.integers(1, 4), min_size=rows.size, max_size=rows.size)
            weights = np.array(data.draw(counts, label="counts"), dtype=np.float64)
        parent = tuple(int(v) for v in np.bincount(ds.labels[rows], weights=weights, minlength=ds.c))
        order = data.draw(st.permutations(range(ds.p)), label="draw order")
        candidates = order[: data.draw(st.integers(1, ds.p), label="mtry")]
        cfg = ForestConfig(
            mtry=len(candidates),
            min_node_size=data.draw(st.integers(1, 4), label="min_node_size"),
            node_size_semantics=data.draw(st.sampled_from(list(NodeSizeSemantics)), label="semantics"),
            tie_break=data.draw(st.sampled_from(list(TieBreak)), label="tie-break"),
        )
        # One column per block puts the chosen column in an earlier block
        # than the last whenever it is not the last scanned.
        cells = data.draw(st.sampled_from([1, BLOCK_CELLS]), label="block cells")
        with mock.patch("detforest.cart.BLOCK_CELLS", cells):
            got = best_split(ds, rows, candidates, parent, cfg, weights)
        expected = reference_best_split(ds, rows, candidates, parent, cfg, weights)
        assert got == expected
        assert repr(got) == repr(expected)

    def test_window_stops_below_the_improvement_limit(self):
        # A class-0 row of count ~2.5e12 and three class-1 rows: splitting
        # off one class-1 row (feature 0) lowers the impurity by ~0.8e-12,
        # two (feature 1) by ~1.6e-12.  Feature 0's split lies in the tie
        # window of the best one but does not improve on the parent by more
        # than TIE_TOL, so it must not win even where it is scanned first.
        # The total needs 42 bits, so each class takes a 64-bit lane, one
        # per word: two words.
        big = 2_500_000_000_000 - 3
        ds = tiny_dataset([[1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]], [0, 1, 1, 1])
        rows = np.arange(4)
        weights = np.array([big, 1, 1, 1], dtype=np.float64)
        parent = (big, 3)
        assert sum(parent).bit_length() == 42
        feature_0 = (big + 2) * gini((big, 2)) / (big + 3)
        assert feature_0 >= gini(parent) - TIE_TOL
        assert best_split(ds, rows, [0], parent, _grow_cfg(), weights) is None
        for tb in TieBreak:
            cfg = _grow_cfg(mtry=2, tie_break=tb)
            got = best_split(ds, rows, [0, 1], parent, cfg, weights)
            assert got == reference_best_split(ds, rows, [0, 1], parent, cfg, weights)
            assert (got.feature, got.left_counts) == (1, (0, 2))
            assert weighted_child_impurity(got) < feature_0 <= weighted_child_impurity(got) + TIE_TOL


def _parts(gen: np.random.Generator, total: int, n: int) -> np.ndarray:
    """n positive integers summing to total (n <= total): cut [0, total] at
    n - 1 distinct points."""
    cuts = {0, total}
    while len(cuts) < n + 1:
        cuts.add(int(gen.integers(1, total)))
    return np.diff(sorted(cuts))


class TestPackedCounts:
    """Class counts packed into lanes of uint64 words give the reference's Split.

    Each row's count in each class goes into a lane of the narrowest of
    uint16, uint32 and uint64 that holds sum(parent), 4, 2 or 1 to a word,
    and the split must equal reference_best_split.
    """

    VALUES = [0.0, 0.5, 1.0, 2.0, 3.5, 1e308]

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_same_split_as_reference_best_split(self, data):
        c = data.draw(st.integers(2, 9), label="classes")
        weighted = data.draw(st.booleans(), label="weighted")
        # Totals on both sides of each bit step up to 2**53, the lane steps
        # 2**16 and 2**32 among them: 2**k - 1 needs k bits, 2**k needs
        # k + 1.  The c lanes spill into further words when there are more
        # than 4, 2 or 1 to a word: 5 to 9 classes of uint16 lanes take two
        # or three words.
        if weighted:
            k = data.draw(st.integers(2, 53), label="k")
            total = (1 << k) - data.draw(st.integers(0, 1), label="below the step")
            n = data.draw(st.integers(2, min(total, 24)), label="rows")
        else:
            n = total = data.draw(st.sampled_from([2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128]), label="rows")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p = data.draw(st.integers(1, 4), label="features")
        columns = [gen.choice(self.VALUES, size=n).tolist() for _ in range(p)]
        labels = gen.integers(0, c, size=n)
        labels[data.draw(st.integers(0, n - 1), label="row of the last class")] = c - 1
        ds = tiny_dataset(columns, labels.tolist())
        rows = np.arange(n)
        weights = _parts(gen, total, n).astype(np.float64) if weighted else None
        parent = tuple(int(v) for v in np.bincount(ds.labels, weights=weights, minlength=c))
        assert sum(parent) == total
        candidates = data.draw(st.permutations(range(p)), label="draw order")
        cfg = ForestConfig(
            mtry=p,
            min_node_size=data.draw(st.sampled_from([1, 2, 3, total // 2, total // 2 + 1]), label="min_node_size"),
            node_size_semantics=data.draw(st.sampled_from(list(NodeSizeSemantics)), label="semantics"),
            tie_break=data.draw(st.sampled_from(list(TieBreak)), label="tie-break"),
        )
        expected = reference_best_split(ds, rows, candidates, parent, cfg, weights)
        cells = data.draw(st.sampled_from([1, BLOCK_CELLS]), label="block cells")
        with mock.patch("detforest.cart.BLOCK_CELLS", cells):
            got = best_split(ds, rows, candidates, parent, cfg, weights)
        assert repr(got) == repr(expected)


# (classes, total, lane bits, words): a lane is the narrowest of 16, 32
# and 64 bits that holds the total, and c lanes fill one word or spill
# into a second.
LANE_EDGES = [
    (4, 2**16 - 1, 16, 1),  # the largest 16-bit total
    (5, 2**16 - 1, 16, 2),
    (2, 2**16, 32, 1),  # one more takes 32-bit lanes
    (3, 2**16, 32, 2),
    (2, 2**32 - 1, 32, 1),
    (3, 2**32 - 1, 32, 2),
    (1, 2**32, 64, 1),  # one more takes 64-bit lanes
    (2, 2**32, 64, 2),
    (1, 2**53, 64, 1),  # the largest total best_split takes
    (2, 2**53, 64, 2),
]

# (classes, total, words): totals at which the bit-field layout that lanes
# replaced (fields of total.bit_length() bits, 63 // width to an int64
# word) filled a word or spilled into another.  They take 16- and 32-bit
# lanes now, and stay as comparisons with the reference.
WORD_EDGES = [
    (7, 256, 1),  # 7 fields of 9 bits
    (7, 511, 1),
    (7, 512, 2),  # 10 bits: 6 fields to a word
    (3, 2**20, 1),  # 3 fields of 21 bits
    (3, 2**21 - 1, 1),
    (3, 2**21, 2),  # 22 bits: 2 fields to a word
    (2, 2, 1),  # 2 classes: unweighted rows too get 2 fields
    (2, 3, 1),
    (2, 64, 1),
    (2, 2**31 - 1, 1),  # 2 fields of 31 bits
    (2, 2**31, 2),
]


def _edge_matches_reference(c: int, total: int, kind: str) -> None:
    """best_split gives the reference's Split on a node of c classes and the
    given total: unweighted, with unit counts or with repeated counts, under
    both tie-breaks and semantics, in one-candidate and full blocks."""
    gen = np.random.default_rng(total)
    if kind == "counts":
        n = max(2, min(24, total // 2))
        weights = _parts(gen, total, n)
    else:
        n = total
        weights = None if kind == "omitted" else np.ones(n, dtype=np.int64)
    labels = gen.integers(0, c, size=n)
    labels[: min(c, n)] = np.arange(min(c, n))
    # Many distinct values, few distinct values, and a copy of the first
    # column, whose boundaries tie across features.
    fine = (gen.integers(0, 40, size=n) / 4).tolist()
    ds = tiny_dataset([fine, gen.choice([0.0, 1.0, 2.0], size=n).tolist(), fine], labels.tolist())
    rows = np.arange(n)
    parent = tuple(int(v) for v in np.bincount(ds.labels, weights=weights, minlength=c))
    assert sum(parent) == total
    semantics_and_sizes = ((NodeSizeSemantics.MIN_SPLIT, 1), (NodeSizeSemantics.MIN_LEAF, max(1, total // 4)))
    for semantics, min_node_size in semantics_and_sizes:
        for tb in TieBreak:
            cfg = _grow_cfg(mtry=3, min_node_size=min_node_size, node_size_semantics=semantics, tie_break=tb)
            expected = reference_best_split(ds, rows, [2, 0, 1], parent, cfg, weights)
            for cells in (1, BLOCK_CELLS):
                with mock.patch("detforest.cart.BLOCK_CELLS", cells):
                    assert repr(best_split(ds, rows, [2, 0, 1], parent, cfg, weights)) == repr(expected)


class TestPackedWordEdges:
    """At the lane edges, and at the former bit-field word edges, every node
    must give the reference's Split."""

    @pytest.mark.parametrize(
        "c, total, bits, words, kind",
        [
            (*edge, kind)
            for edge in LANE_EDGES
            for kind in ("omitted", "ones", "counts")
            if kind == "counts" or edge[1] <= 2**16  # rows without repeats only up to 65536 rows
        ],
    )
    def test_lane_edges(self, c, total, bits, words, kind):
        assert bits == min(b for b in (16, 32, 64) if total < 2**b)
        assert -(-c // (64 // bits)) == words
        _edge_matches_reference(c, total, kind)

    @pytest.mark.parametrize(
        "c, total, words, kind",
        [
            (*edge, kind)
            for edge in WORD_EDGES
            for kind in ("omitted", "ones", "counts")
            if kind == "counts" or edge[1] <= 512  # rows without repeats only for the smaller totals
        ],
    )
    def test_same_split_as_reference_best_split(self, c, total, words, kind):
        assert -(-c // (63 // total.bit_length())) == words
        _edge_matches_reference(c, total, kind)


class TestMinLeafEarlyReturn:
    """Under MIN_LEAF, a node of total below 2 * min_node_size cannot split."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_none_exactly_where_the_reference_gives_none(self, m, weighted, monkeypatch):
        # Feature 1 is the label, and the classes hold m and total - m: at
        # total 2m it splits them into children of m, at 2m - 1 nothing can.
        gen = np.random.default_rng(m)
        for total in (2 * m - 1, 2 * m):
            weights = None
            n = total
            if weighted:
                r = max(1, m // 2)
                n = 2 * r
                weights = np.empty(n)
                weights[0::2], weights[1::2] = _parts(gen, m, r), _parts(gen, total - m, r)
            ds = tiny_dataset([gen.permutation(n).tolist(), (np.arange(n) % 2).tolist()], [i % 2 for i in range(n)])
            parent = tuple(int(v) for v in np.bincount(ds.labels, weights=weights, minlength=ds.c))
            for tb in TieBreak:
                cfg = _grow_cfg(mtry=2, min_node_size=m, node_size_semantics=NodeSizeSemantics.MIN_LEAF, tie_break=tb)
                expected = reference_best_split(ds, np.arange(n), [0, 1], parent, cfg, weights)
                assert (expected is None) == (total < 2 * m)
                if total < 2 * m:
                    # Nothing is gathered or sorted: the keys are never read.
                    monkeypatch.setattr(Dataset, "rank_keys", lambda self: pytest.fail("keys were read"))
                got = best_split(ds, np.arange(n), [0, 1], parent, cfg, weights)
                monkeypatch.undo()
                assert repr(got) == repr(expected)


class TestWeights:
    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_float_weights_must_be_positive_integers(self, bad):
        ds = duplicated_feature_dataset()
        parent = class_counts_of(ds.labels, ds.c)
        weights = np.ones(ds.n)
        weights[1] = bad
        with pytest.raises(ValueError, match="positive integers"):
            best_split(ds, np.arange(ds.n), [0], parent, _grow_cfg(), weights)

    @pytest.mark.parametrize("dtype, bad", [(np.int64, -1), (np.int64, 0), (np.uint64, 2**63)])
    def test_integer_weights_must_be_positive(self, dtype, bad):
        # Lanes are unsigned: -1, or 2**63 cast to int64 (-2**63), would
        # wrap into a huge count instead of failing.
        ds = duplicated_feature_dataset()
        parent = class_counts_of(ds.labels, ds.c)
        weights = np.ones(ds.n, dtype=dtype)
        weights[1] = bad
        with pytest.raises(ValueError, match="positive integers"):
            best_split(ds, np.arange(ds.n), [0], parent, _grow_cfg(), weights)

    def test_grow_tree_passes_integer_counts(self, monkeypatch):
        ds = duplicated_feature_dataset()
        seen = []
        real = best_split

        def spy(ds, rows, candidates, parent, cfg, weights=None):
            seen.append((weights.dtype, weights.max()))
            return real(ds, rows, candidates, parent, cfg, weights)

        monkeypatch.setattr("detforest.cart.best_split", spy)
        # Every search gets int64 counts: a bootstrap sample's in-bag
        # counts, and 1 for every row of a sample without repeats.
        grow_tree(ds, np.array([0, 0, 1, 2, 3, 3, 4, 5, 6, 7]), _grow_cfg(), derive_stream(0, 0))
        bootstrap = len(seen)
        grow_tree(ds, np.arange(ds.n), _grow_cfg(), derive_stream(0, 0))
        assert 0 < bootstrap < len(seen)
        assert {dtype for dtype, _ in seen} == {np.dtype(np.int64)}
        assert seen[0][1] == 2
        assert {largest for _, largest in seen[bootstrap:]} == {1}

    def test_total_is_bounded_at_2_to_the_53(self):
        # Counts are exact in float64 up to 2**53, so a node of that total
        # is searched; above it, best_split raises instead of handing a
        # child a row that does not exist.
        ds = tiny_dataset([[0.0, 1.0]], [0, 1])
        rows = np.arange(2)
        weights = np.array([2**52, 2**52])
        sp = best_split(ds, rows, [0], (2**52, 2**52), _grow_cfg(), weights)
        assert (sp.left_counts, sp.right_counts) == ((2**52, 0), (0, 2**52))
        assert sp == reference_best_split(ds, rows, [0], (2**52, 2**52), _grow_cfg(), weights)
        for big in ([2**53, 1], [2**53 + 1, 2**53 + 1]):
            with pytest.raises(ValueError, match=r"at most 2\*\*53"):
                best_split(ds, rows, [0], tuple(big), _grow_cfg(), np.array(big))


class TestRankKeyOrder:
    """Ordering rows by rank keys gives the Split that sorting the values gave."""

    # -0.0 and 0.0 are one value and one key; the subnormals sit just above.
    VALUES = [0.0, -0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 0.5, 1.0, 1e308]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_columns(self, data):
        c = data.draw(st.integers(2, 3), label="classes")
        n = data.draw(st.integers(2, 40), label="rows")
        p = data.draw(st.integers(1, 4), label="features")
        columns = []
        for _ in range(p):
            values = data.draw(
                st.lists(st.sampled_from(self.VALUES), min_size=2, max_size=4, unique_by=repr), label="values"
            )
            columns.append(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n), label="column"))
        labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n), label="labels")
        labels[0] = c - 1
        ds = tiny_dataset(columns, labels)
        rows = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="rows")
        )
        weights = None
        if data.draw(st.booleans(), label="weighted"):
            counts = st.lists(st.integers(1, 4), min_size=rows.size, max_size=rows.size)
            weights = np.array(data.draw(counts, label="counts"), dtype=np.float64)
        parent = tuple(int(v) for v in np.bincount(ds.labels[rows], weights=weights, minlength=ds.c))
        candidates = data.draw(st.permutations(range(p)), label="draw order")
        cfg = ForestConfig(
            mtry=p,
            min_node_size=data.draw(st.integers(1, 4), label="min_node_size"),
            node_size_semantics=data.draw(st.sampled_from(list(NodeSizeSemantics)), label="semantics"),
            tie_break=data.draw(st.sampled_from(list(TieBreak)), label="tie-break"),
        )
        cells = data.draw(st.sampled_from([1, BLOCK_CELLS]), label="block cells")
        with mock.patch("detforest.cart.BLOCK_CELLS", cells):
            got = best_split(ds, rows, candidates, parent, cfg, weights)
        expected = reference_best_split(ds, rows, candidates, parent, cfg, weights)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("semantics", list(NodeSizeSemantics))
    @pytest.mark.parametrize("tie_break", list(TieBreak))
    def test_uint32_keys(self, tie_break, semantics):
        # Column 0 has 70000 distinct values, so its keys need 32 bits;
        # column 1 has five, and ties every row with thousands of others.
        n = 70_000
        gen = np.random.default_rng(5)
        values = gen.permutation(n) / 8.0
        ds = Dataset(
            np.column_stack([values, gen.integers(0, 5, size=n) * 0.25]),
            ((values % 3 + gen.integers(0, 2, size=n)) % 3).astype(np.int64),
            ["a", "b"],
        )
        assert ds.rank_keys().dtype == np.uint32
        rows = gen.permutation(n)[:66_000]
        cfg = _grow_cfg(mtry=2, min_node_size=1000, node_size_semantics=semantics, tie_break=tie_break)
        for weights in (None, gen.integers(1, 4, size=rows.size).astype(np.float64)):
            parent = tuple(int(v) for v in np.bincount(ds.labels[rows], weights=weights, minlength=ds.c))
            for candidates in ([0, 1], [1, 0], [1]):
                got = best_split(ds, rows, candidates, parent, cfg, weights)
                assert got is not None
                assert repr(got) == repr(reference_best_split(ds, rows, candidates, parent, cfg, weights))


class TestGrowOnCounts:
    """Growing on distinct rows with in-bag counts changes no tree."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_weighted_split_equals_split_on_repeated_rows(self, data):
        ds = _tied_dataset(data)
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rows seed"))
        rows = gen.permutation(ds.n)[: data.draw(st.integers(1, ds.n), label="distinct rows")]
        counts = gen.integers(1, 5, size=rows.size)
        repeated = np.repeat(rows, counts)
        parent = class_counts_of(ds.labels[repeated], ds.c)
        cfg = _any_grow_cfg(data, ds.p)
        cands = [int(f) for f in gen.permutation(ds.p)[: cfg.mtry]]
        # One column per block as well, so the chosen column can lie in an
        # earlier block than the last.
        cells = data.draw(st.sampled_from([1, BLOCK_CELLS]), label="block cells")
        with mock.patch("detforest.cart.BLOCK_CELLS", cells):
            weighted = best_split(ds, rows, cands, parent, cfg, counts)
            assert weighted == best_split(ds, repeated, cands, parent, cfg)

    def test_unit_weights_are_the_unweighted_search(self):
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)
        parent = class_counts_of(ds.labels, ds.c)
        for tb in TieBreak:
            cfg = _grow_cfg(mtry=2, tie_break=tb)
            assert best_split(ds, rows, [1, 0], parent, cfg, np.ones(ds.n)) == best_split(
                ds, rows, [1, 0], parent, cfg
            )

    def test_weights_must_match_rows(self):
        ds = duplicated_feature_dataset()
        parent = class_counts_of(ds.labels, ds.c)
        with pytest.raises(ValueError):
            best_split(ds, np.arange(ds.n), [0], parent, _grow_cfg(), np.ones(ds.n - 1))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tree_equals_tree_grown_on_repeated_rows(self, data):
        ds = _tied_dataset(data)
        cfg = _any_grow_cfg(data, ds.p)
        rng = derive_stream(data.draw(st.integers(0, 2**64 - 1), label="seed"), 0)
        replace = data.draw(st.booleans(), label="replace")
        fraction = data.draw(st.sampled_from([0.5, 1.0]), label="fraction")
        rows, rng = bootstrap_sample(rng, ds.n, replace, fraction)
        expected = reference_grow_tree(ds, rows, cfg, rng)
        # Blocks of one and of two candidate draws cross block boundaries
        # inside small trees.
        block_values = data.draw(st.sampled_from([1, 2 * ds.p, 1 << 13]), label="draw block")
        with mock.patch("detforest.cart.DRAW_BLOCK_VALUES", block_values):
            assert trees_equal_exact(grow_tree(ds, rows, cfg, rng), expected)

    @pytest.mark.parametrize("tie_break", list(TieBreak))
    def test_bootstrap_tree_on_larger_data(self, tie_break):
        # A fully grown tree of a few hundred nodes on a bootstrap sample,
        # with exact-copy features for cross-feature ties.
        gen = np.random.default_rng(7)
        features = gen.integers(0, 20, size=(400, 30)).astype(np.float64)
        features[:, 20:] = features[:, :10]
        ds = Dataset(features, gen.integers(0, 3, size=400), [f"f{i}" for i in range(30)])
        rows, rng = bootstrap_sample(derive_stream(3, 1), ds.n, True, 1.0)
        assert np.unique(rows).size < rows.size
        cfg = ForestConfig(mtry=5, tie_break=tie_break)
        tree = grow_tree(ds, rows, cfg, rng)
        assert sum(1 for _ in iter_nodes(tree)) > 50
        assert trees_equal_exact(tree, reference_grow_tree(ds, rows, cfg, rng))


class TestCandidateBlocks:
    """grow_tree's block draws are one shuffle per node, rejections included."""

    @given(
        st.integers(min_value=0, max_value=MASK64),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=100)
    def test_partner_rows_are_successive_shuffles(self, state, m, block, k):
        rows = _partner_rows(RngState(state), m, block)
        rng = RngState(state)
        for _ in range(k):
            expected, rng = shuffle(rng, m)
            assert permute(next(rows)) == expected

    # p = 10: each node's permutation takes 9 draws, with bounds 10, 9, ..., 2.
    # Draw k (1-based) is 2**64 - 1, which bounds 10, 7 and 3 reject.
    @pytest.mark.parametrize(
        "block, k",
        [
            (4, 13),  # mid-block: the 4th draw (bound 7) of node 2 of 4
            (3, 26),  # the last node of a block: its 8th draw (bound 3)
            (3, 28),  # the first node of the second block (bound 10)
        ],
    )
    def test_rejected_draw_shifts_every_later_node(self, block, k):
        gen = np.random.default_rng(5)
        p = 10
        features = gen.integers(0, 4, size=(80, p)).astype(np.float64)
        ds = Dataset(features, gen.integers(0, 3, size=80), [f"f{i}" for i in range(p)])
        rng = state_with_draw(k, MASK64)
        assert next_u64_block(rng, k)[0][-1] == MASK64
        assert (1 << 64) % (p - (k - 1) % (p - 1)) != 0  # the draw's bound rejects it
        cfg = ForestConfig(mtry=3, tie_break=TieBreak.FIRST_IN_DRAW_ORDER)
        rows = np.arange(ds.n)
        with mock.patch("detforest.cart.DRAW_BLOCK_VALUES", block * p):
            tree = grow_tree(ds, rows, cfg, rng)
        # Nodes past the rejection's block drew candidates too.
        assert sum(isinstance(node, Internal) for node in tree.nodes) > 2 * block
        assert trees_equal_exact(tree, reference_grow_tree(ds, rows, cfg, rng))


class TestGrowTree:
    def test_pinned_small_tree(self):
        # Clean separation at 2.5; both children pure. Deterministic for any
        # stream because every candidate draw yields an equivalent split.
        ds = duplicated_feature_dataset(copies_per_value=1)
        cfg = ForestConfig(mtry=2, tie_break=TieBreak.LOWEST_FEATURE_INDEX)
        tree = grow_tree(ds, np.arange(4), cfg, derive_stream(0, 0))
        root = tree.nodes[0]
        assert isinstance(root, Internal)
        assert root.feature == 0
        assert root.threshold == 2.5
        assert root.class_counts == (2, 2)
        left, right = tree.nodes[root.left], tree.nodes[root.right]
        assert isinstance(left, Leaf) and isinstance(right, Leaf)
        assert left.class_counts == (2, 0)
        assert right.class_counts == (0, 2)
        assert left.class_distribution == (1.0, 0.0)

    def test_single_row_is_leaf(self):
        ds = tiny_dataset([[1.0, 2.0]], [0, 1])
        tree = grow_tree(ds, np.array([1]), _grow_cfg(), derive_stream(0, 0))
        assert isinstance(tree.nodes[0], Leaf)
        assert tree.nodes[0].class_counts == (0, 1)

    def test_determinism_same_stream(self):
        ds = duplicated_feature_dataset(copies_per_value=5)
        cfg = ForestConfig(mtry=1)
        a = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(7, 3))
        b = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(7, 3))
        assert trees_equal_exact(a, b)

    def _invariant_dataset(self, seed: int) -> Dataset:
        from detforest import generate_synthetic_formulas

        return generate_synthetic_formulas(120, 5, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structural_invariants_fully_grown(self, seed):
        ds = self._invariant_dataset(seed)
        cfg = ForestConfig(mtry=2)
        tree = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(seed, 0))
        self._check_invariants(ds, tree, cfg)
        # Fully grown with min size 1: every leaf is pure.
        for node, _ in iter_nodes(tree):
            if isinstance(node, Leaf):
                assert max(node.class_counts) == sum(node.class_counts)

    @pytest.mark.parametrize(
        "cfg",
        [
            ForestConfig(mtry=2, max_depth=3),
            ForestConfig(mtry=2, min_node_size=20,
                         node_size_semantics=NodeSizeSemantics.MIN_SPLIT),
            ForestConfig(mtry=2, min_node_size=15,
                         node_size_semantics=NodeSizeSemantics.MIN_LEAF),
            ForestConfig(mtry=5, tie_break=TieBreak.FIRST_IN_DRAW_ORDER),
        ],
    )
    def test_structural_invariants_constrained(self, cfg):
        ds = self._invariant_dataset(3)
        tree = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(11, 0))
        self._check_invariants(ds, tree, cfg)

    def _check_invariants(self, ds: Dataset, tree, cfg: ForestConfig) -> None:
        assert tree.n_features == ds.p
        assert tree.n_classes == ds.c
        for node, depth in iter_nodes(tree):
            if cfg.max_depth is not None:
                assert depth <= cfg.max_depth
            if isinstance(node, Internal):
                if cfg.max_depth is not None:
                    assert depth < cfg.max_depth
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                # sample conservation, child side
                assert tuple(
                    l + r
                    for l, r in zip(_counts(left), _counts(right))
                ) == node.class_counts
                assert 0 <= node.feature < ds.p
                if cfg.node_size_semantics is NodeSizeSemantics.MIN_SPLIT:
                    assert _size(node) >= cfg.min_node_size
                else:
                    assert _size(left) >= cfg.min_node_size
                    assert _size(right) >= cfg.min_node_size
                assert _size(left) >= 1
                assert _size(right) >= 1
            else:
                assert node.class_distribution == tuple(
                    cnt / _size(node) for cnt in node.class_counts
                )
        assert _size(tree.nodes[0]) == ds.n

    def test_deep_chain_grows_iteratively(self):
        # Alternating labels on a strictly increasing feature force a comb:
        # depth n-1 with n = 1500, far beyond the interpreter stack.
        n = 1500
        ds = Dataset(
            np.arange(n, dtype=np.float64)[:, None],
            (np.arange(n) % 2).astype(np.int64),
            ["f0"],
        )
        tree = grow_tree(ds, np.arange(n), ForestConfig(mtry=1), derive_stream(0, 0))
        depths = [d for _, d in iter_nodes(tree)]
        assert max(depths) == n - 1
        assert len(depths) == 2 * n - 1
        assert trees_equal_exact(tree, tree)
        leaf = predict_leaf(tree, np.array([3.0]))
        assert leaf.class_counts == (0, 1)

    def test_invalid_config_rejected_before_growth(self):
        ds = tiny_dataset([[1.0, 2.0]], [0, 1])
        with pytest.raises(ValueError):
            grow_tree(ds, np.arange(2), ForestConfig(mtry=5), derive_stream(0, 0))
        with pytest.raises(ValueError):
            grow_tree(
                ds, np.arange(2), ForestConfig(mtry=1, min_node_size=0),
                derive_stream(0, 0),
            )
        with pytest.raises(ValueError):
            grow_tree(
                ds, np.arange(2), ForestConfig(mtry=1, max_depth=0),
                derive_stream(0, 0),
            )
        with pytest.raises(ValueError):
            grow_tree(
                ds, np.array([], dtype=np.intp), ForestConfig(mtry=1),
                derive_stream(0, 0),
            )

    @pytest.mark.parametrize(
        "other",
        [
            {"n_trees": 7},
            {"bootstrap": False},
            {"sample_fraction": 0.5},
            {"aggregation": Aggregation.MAJORITY_VOTE},
            {"seed": 2**64 - 1},
            {"n_trees": 1, "bootstrap": False, "sample_fraction": 0.25,
             "aggregation": Aggregation.MAJORITY_VOTE, "seed": 9},
        ],
    )
    def test_growth_reads_only_the_growth_fields(self, other):
        ds = self._invariant_dataset(4)
        rows = np.repeat(np.arange(ds.n), np.arange(ds.n) % 3 + 1)
        growth = {"mtry": 2, "min_node_size": 3, "max_depth": 6, "tie_break": TieBreak.FIRST_IN_DRAW_ORDER}
        rng = derive_stream(12, 0)
        base = grow_tree(ds, rows, ForestConfig(**growth), rng)
        assert trees_equal_exact(base, grow_tree(ds, rows, ForestConfig(**growth, **other), rng))


def _counts(node) -> tuple[int, ...]:
    return node.class_counts


def _size(node) -> int:
    return sum(node.class_counts)


class TestIterNodes:
    def test_preorder(self):
        ds = duplicated_feature_dataset()
        tree = grow_tree(
            ds, np.arange(ds.n), ForestConfig(mtry=2), derive_stream(0, 0)
        )
        nodes = list(iter_nodes(tree))
        # root first
        assert nodes[0][0] is tree.nodes[0]
        assert nodes[0][1] == 0
        root = tree.nodes[0]
        assert isinstance(root, Internal)
        # iter_nodes yields the node list in order, and the left subtree's
        # positions all precede the right subtree's.  Positions, not ids:
        # equal leaves may be one object.
        assert [node for node, _ in nodes] == list(tree.nodes)
        left = sorted(_subtree_positions(tree, root.left))
        right = sorted(_subtree_positions(tree, root.right))
        assert left == list(range(1, root.right))
        assert right == list(range(root.right, len(tree.nodes)))


def _subtree_positions(tree, i):
    stack = [i]
    while stack:
        i = stack.pop()
        yield i
        if isinstance(n := tree.nodes[i], Internal):
            stack += (n.right, n.left)


class TestTreesEqualExact:
    def test_equal_to_itself_and_twin(self):
        ds = duplicated_feature_dataset()
        cfg = ForestConfig(mtry=2)
        a = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(1, 0))
        b = grow_tree(ds, np.arange(ds.n), cfg, derive_stream(1, 0))
        assert trees_equal_exact(a, b)

    def test_feature_id_differences_detected(self):
        # Same partitions, different chosen feature under the two policies.
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)
        # Find a stream whose draw order puts feature 1 first.
        for s in range(20):
            cands, _ = draw_candidates(derive_stream(5, s), 2, 2)
            if cands == [1, 0]:
                break
        else:
            pytest.fail("no stream with draw order [1, 0] in 20 tries")
        first = grow_tree(
            ds, rows,
            ForestConfig(mtry=2, tie_break=TieBreak.FIRST_IN_DRAW_ORDER),
            derive_stream(5, s),
        )
        lowest = grow_tree(
            ds, rows,
            ForestConfig(mtry=2, tie_break=TieBreak.LOWEST_FEATURE_INDEX),
            derive_stream(5, s),
        )
        assert not trees_equal_exact(first, lowest)

    def test_structure_differences_detected(self):
        # Full tree needs two levels; the capped tree is a strict prefix.
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 0])
        full = grow_tree(ds, np.arange(4), _grow_cfg(), derive_stream(0, 0))
        stump = grow_tree(
            ds, np.arange(4), _grow_cfg(max_depth=1), derive_stream(0, 0)
        )
        assert isinstance(full.nodes[0], Internal)
        assert isinstance(full.nodes[full.nodes[0].right], Internal)
        assert isinstance(stump.nodes[stump.nodes[0].right], Leaf)
        assert not trees_equal_exact(full, stump)
        assert not trees_equal_exact(stump, full)

    def test_zero_and_negative_zero_thresholds_differ(self):
        # The loader keeps a -0.0 threshold, and forest_to_json writes it
        # back as -0.0: == cannot tell it from 0.0, the bits can.
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0, 5.0]], [0, 0, 1, 1, 1])
        forest = fit(ds, SplitIndices((0, 1, 2, 3), (4,)), ForestConfig(n_trees=1, mtry=1, bootstrap=False))
        doc = json.loads(forest_to_json(forest))
        assert doc["trees"][0]["nodes"][0]["threshold"] == 2.5
        forests = []
        for zero in (0.0, -0.0):
            doc["trees"][0]["nodes"][0]["threshold"] = zero
            forests.append(forest_from_json(json.dumps(doc)))
        positive, negative = (f.trees[0] for f in forests)
        assert math.copysign(1.0, negative.nodes[0].threshold) == -1.0
        assert positive.nodes == negative.nodes
        assert forest_to_json(forests[0]) != forest_to_json(forests[1])
        assert not trees_equal_exact(positive, negative)
        assert not trees_equal_exact(negative, positive)
        assert trees_equal_exact(negative, forest_from_json(json.dumps(doc)).trees[0])

    def test_child_index_difference_detected(self):
        # Every field of every node is the same except the root's right
        # child index: the node lists describe different trees.
        leaves = (Leaf((2, 0)), Leaf((0, 2)))
        a = DecisionTree((Internal(0, 2.5, 1, 2, (2, 2)), *leaves), 1, 2)
        b = DecisionTree((Internal(0, 2.5, 1, 1, (2, 2)), *leaves), 1, 2)
        assert trees_equal_exact(a, a)
        assert not trees_equal_exact(a, b)
        assert not trees_equal_exact(b, a)


class TestPredictLeaf:
    def test_boundary_goes_left(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 1])
        tree = grow_tree(ds, np.arange(4), _grow_cfg(), derive_stream(0, 0))
        root = tree.nodes[0]
        assert isinstance(root, Internal)
        left = predict_leaf(tree, np.array([root.threshold]))
        assert left is tree.nodes[root.left]

    def test_training_rows_reach_own_label_leaf(self):
        from detforest import generate_synthetic_formulas

        ds = generate_synthetic_formulas(80, 4, 5)
        tree = grow_tree(
            ds, np.arange(ds.n), ForestConfig(mtry=4), derive_stream(5, 0)
        )
        for i in range(ds.n):
            leaf = predict_leaf(tree, ds.features[i])
            # fully grown, min size 1: leaves are pure
            assert leaf.class_counts[ds.labels[i]] == sum(leaf.class_counts)

    def test_dimension_mismatch_rejected(self):
        ds = tiny_dataset([[1.0, 2.0]], [0, 1])
        tree = grow_tree(ds, np.arange(2), _grow_cfg(), derive_stream(0, 0))
        with pytest.raises(ValueError):
            predict_leaf(tree, np.array([1.0, 2.0]))


class TestOracleProperties:
    @given(
        n=st.integers(min_value=2, max_value=24),
        p=st.integers(min_value=1, max_value=4),
        c=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_split_lands_in_oracle_window(self, n, p, c, seed):
        # Coarse value grids maximize exact ties, the hard case.
        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 4, size=(n, p)).astype(np.float64)
        labels = rng.integers(0, c, size=n).astype(np.int64)
        labels[0] = c - 1  # force class count c
        ds = Dataset(feats, labels, [f"f{i}" for i in range(p)])
        rows = np.arange(n)
        parent = class_counts_of(ds.labels, ds.c)
        oracle = exhaustive_split_oracle(ds, rows, parent)
        order = list(rng.permutation(p))
        for tb in TieBreak:
            sp = best_split(
                ds, rows, order, parent, ForestConfig(mtry=p, tie_break=tb)
            )
            if not oracle:
                assert sp is None
            else:
                assert sp in oracle

    def test_oracle_members_all_within_tolerance(self):
        ds = duplicated_feature_dataset()
        parent = class_counts_of(ds.labels, ds.c)
        oracle = exhaustive_split_oracle(ds, np.arange(ds.n), parent)
        ws = [weighted_child_impurity(s) for s in oracle]
        assert max(ws) - min(ws) <= TIE_TOL
