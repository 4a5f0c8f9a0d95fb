"""Tests for canonical tree forms and forest divergence reports."""

from __future__ import annotations

import numpy as np
import pytest

from detforest import (
    Aggregation,
    DecisionTree,
    Forest,
    ForestConfig,
    SplitIndices,
    TieBreak,
    canonicalize,
    derive_stream,
    fit,
    forest_divergence,
    generate_synthetic_formulas,
    grow_tree,
    predict_classes,
    train_test_split,
    trees_equal_canonical,
)
from detforest.canonical import CanonicalNode, _round10
from detforest.cart import Internal, Leaf, draw_candidates, trees_equal_exact

from helpers import duplicated_feature_dataset, tiny_dataset


def _leaf(counts, gini=0.0):
    return Leaf(n_samples=sum(counts), class_counts=tuple(counts), gini=gini)


def _single_leaf_tree(counts, gini=0.0):
    return DecisionTree(nodes=(_leaf(counts, gini),), n_features=1, n_classes=len(counts))


class TestRound10:
    def test_passthrough_for_short_values(self):
        assert _round10(0.5) == 0.5
        assert _round10(0.0) == 0.0

    def test_rounds_to_ten_significant_digits(self):
        assert _round10(0.12345678994) == 0.1234567899
        assert _round10(0.12345678996) == 0.12345679

    def test_absorbs_last_bit_noise(self):
        a = 2.0 / 3.0
        b = 1.0 - 1.0 / 3.0  # differs from a in the last bit
        assert a != b
        assert _round10(a) == _round10(b)


class TestCanonicalize:
    def test_single_leaf(self):
        tree = _single_leaf_tree([3, 1], gini=0.375)
        canon = canonicalize(tree)
        assert canon == (
            CanonicalNode(
                depth=0,
                n_samples=4,
                class_counts=(3, 1),
                gini=0.375,
                split_signature=None,
            ),
        )

    def test_internal_signature_recomputed_from_children(self):
        ds = duplicated_feature_dataset(copies_per_value=1)
        tree = grow_tree(
            ds, np.arange(4), ForestConfig(mtry=2), derive_stream(0, 0)
        )
        canon = canonicalize(tree)
        assert len(canon) == 3
        root = canon[0]
        # children pure: decrease == parent gini; sizes 2/2
        assert root.split_signature == (0.5, 2, 2)
        assert root.gini == 0.5
        assert canon[1].depth == canon[2].depth == 1
        assert canon[1].split_signature is None

    def test_feature_and_threshold_excluded(self):
        # Same fingerprint even though one tree splits feature 0 and the
        # other feature 1 at a shifted threshold.
        left = _leaf([2, 0])
        right = _leaf([0, 2])
        t1 = DecisionTree(
            nodes=(Internal(0, 2.5, 1, 2, 4, 0.5, (2, 2)), left, right), n_features=2, n_classes=2
        )
        t2 = DecisionTree(
            nodes=(Internal(1, 7.0, 1, 2, 4, 0.5, (2, 2)), left, right), n_features=2, n_classes=2
        )
        assert not trees_equal_exact(t1, t2)
        assert trees_equal_canonical(t1, t2)


class TestTreesEqualCanonical:
    def test_reflexive(self):
        ds = generate_synthetic_formulas(60, 4, 1)
        tree = grow_tree(
            ds, np.arange(ds.n), ForestConfig(mtry=2), derive_stream(1, 0)
        )
        assert trees_equal_canonical(tree, tree)

    def test_tied_features_equal_canonically_not_exactly(self):
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)
        # find a stream that draws feature 1 first
        for s in range(20):
            cands, _ = draw_candidates(derive_stream(5, s), 2, 2)
            if cands == [1, 0]:
                break
        else:
            pytest.fail("no stream drew [1, 0] in 20 tries")
        first = grow_tree(
            ds, rows, ForestConfig(mtry=2, tie_break=TieBreak.FIRST_IN_DRAW_ORDER),
            derive_stream(5, s),
        )
        lowest = grow_tree(
            ds, rows, ForestConfig(mtry=2, tie_break=TieBreak.LOWEST_FEATURE_INDEX),
            derive_stream(5, s),
        )
        assert not trees_equal_exact(first, lowest)
        assert trees_equal_canonical(first, lowest)

    def test_count_difference_detected(self):
        assert not trees_equal_canonical(
            _single_leaf_tree([3, 1], 0.375), _single_leaf_tree([1, 3], 0.375)
        )

    def test_depth_capped_prefix_detected(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 0])
        full = grow_tree(ds, np.arange(4), ForestConfig(mtry=1), derive_stream(0, 0))
        stump = grow_tree(
            ds, np.arange(4), ForestConfig(mtry=1, max_depth=1), derive_stream(0, 0)
        )
        assert not trees_equal_canonical(full, stump)

    def test_gini_rounding_boundary(self):
        base = 0.1234567890123
        same = base + 1e-14  # collapses at 10 significant digits
        diff = 0.1234568890123  # differs in the 8th digit
        assert trees_equal_canonical(
            _single_leaf_tree([3, 1], base), _single_leaf_tree([3, 1], same)
        )
        assert not trees_equal_canonical(
            _single_leaf_tree([3, 1], base), _single_leaf_tree([3, 1], diff)
        )

    def test_equivalence_relation_on_tied_trees(self):
        ds = duplicated_feature_dataset()
        rows = np.arange(ds.n)
        trees = [
            grow_tree(
                ds, rows,
                ForestConfig(mtry=2, tie_break=TieBreak.FIRST_IN_DRAW_ORDER),
                derive_stream(5, s),
            )
            for s in range(6)
        ]
        # symmetric + transitive: all pairwise equal because all equal tree 0
        for t in trees[1:]:
            assert trees_equal_canonical(trees[0], t)
            assert trees_equal_canonical(t, trees[0])
        assert trees_equal_canonical(trees[1], trees[2])


class _Fixture:
    def __init__(self):
        self.ds = generate_synthetic_formulas(300, 5, 4)
        self.split = train_test_split(self.ds, 0.8, 4)

    def forest(self, **kw) -> Forest:
        kw.setdefault("n_trees", 5)
        kw.setdefault("seed", 4)
        return fit(self.ds, self.split, ForestConfig(**kw))


@pytest.fixture(scope="module")
def fx():
    return _Fixture()


class TestForestDivergence:
    def test_identical_forests_have_zero_divergence(self, fx):
        a = fx.forest()
        b = fx.forest()
        report = forest_divergence([("a", a), ("b", b)], fx.ds, rows=fx.split.test)
        assert report.n_test == len(fx.split.test)
        (pair,) = report.pairs
        assert (pair.label_a, pair.label_b, pair.n_divergent, pair.rows) == ("a", "b", 0, ())

    def test_different_seeds_diverge(self, fx):
        a = fx.forest(seed=4)
        b = fx.forest(seed=5)
        report = forest_divergence([("a", a), ("b", b)], fx.ds, rows=fx.split.test)
        (pair,) = report.pairs
        assert (pair.label_a, pair.label_b) == ("a", "b")
        assert pair.n_divergent > 0
        assert len(pair.rows) == pair.n_divergent
        assert set(pair.rows) <= set(fx.split.test)

    def test_aggregation_override_and_reported_rows(self, fx):
        f = fx.forest()
        votes = forest_divergence(
            [("x", f), ("y", f)], fx.ds, rows=fx.split.test,
            aggregation=Aggregation.MAJORITY_VOTE,
        )
        assert [p.n_divergent for p in votes.pairs] == [0]
        # Same forest under two aggregation modes CAN disagree; check the
        # report against a direct comparison of the two modes' predictions.
        fv = Forest(
            trees=f.trees,
            config=ForestConfig(
                n_trees=f.config.n_trees, seed=f.config.seed,
                aggregation=Aggregation.MAJORITY_VOTE,
            ),
            n_features=f.n_features,
            n_classes=f.n_classes,
        )
        report = forest_divergence([("vote", fv), ("mean", f)], fx.ds, rows=fx.split.test)
        rows = fx.ds.features[list(fx.split.test)]
        votes = predict_classes(f, rows, Aggregation.MAJORITY_VOTE)
        means = predict_classes(f, rows, Aggregation.MEAN_PROBABILITY)
        expected = [r for r, v, m in zip(fx.split.test, votes, means) if v != m]
        (pair,) = report.pairs
        assert (pair.label_a, pair.label_b, list(pair.rows)) == ("vote", "mean", expected)

    def test_matrix_symmetric_zero_diagonal(self, fx):
        forests = [("s4", fx.forest(seed=4)), ("s5", fx.forest(seed=5)),
                   ("s6", fx.forest(seed=6))]
        report = forest_divergence(forests, fx.ds, rows=fx.split.test)
        m = report.matrix()
        assert len(m) == 3
        for i in range(3):
            assert m[i][i] == 0
            for j in range(3):
                assert m[i][j] == m[j][i]
        pairs = {(p.label_a, p.label_b): p.n_divergent for p in report.pairs}
        assert pairs == {("s4", "s5"): m[0][1], ("s4", "s6"): m[0][2], ("s5", "s6"): m[1][2]}

    def test_rows_default_is_whole_dataset(self, fx):
        a = fx.forest()
        report = forest_divergence([("a", a), ("b", a)], fx.ds)
        assert report.n_test == fx.ds.n

    def test_errors(self, fx):
        f = fx.forest()
        with pytest.raises(ValueError):
            forest_divergence([("only", f)], fx.ds)
        with pytest.raises(ValueError):
            forest_divergence([("dup", f), ("dup", f)], fx.ds)
        other = generate_synthetic_formulas(20, 4, 0)
        with pytest.raises(ValueError):
            forest_divergence([("a", f), ("b", f)], other)
        with pytest.raises(ValueError):
            forest_divergence([("a", f), ("b", f)], fx.ds, rows=[])

    def test_to_text_two_labels(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [0, 1, 0])
        from test_forest import _leaf_forest

        always0 = _leaf_forest([(1, 0)], 2)
        always1 = _leaf_forest([(0, 1)], 2)
        report = forest_divergence([("zero", always0), ("one", always1)], ds)
        assert [p.n_divergent for p in report.pairs] == [3]
        text = report.to_text()
        assert text == (
            "Divergent classifications out of 3 test rows:\n"
            "      one\n"
            "zero    3\n"
        )

    def test_to_doc(self, fx):
        a = fx.forest(seed=4)
        b = fx.forest(seed=5)
        report = forest_divergence([("a", a), ("b", b)], fx.ds, rows=fx.split.test)
        doc = report.to_doc()
        assert doc["labels"] == ["a", "b"]
        assert doc["n_test"] == len(fx.split.test)
        assert doc["matrix"] == report.matrix()
        assert doc["pairs"][0]["n_divergent"] == report.pairs[0].n_divergent
