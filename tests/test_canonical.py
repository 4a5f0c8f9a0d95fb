"""Tests for canonical tree forms and forest divergence reports."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest import (
    Aggregation,
    Dataset,
    DecisionTree,
    Forest,
    ForestConfig,
    NodeSizeSemantics,
    SplitIndices,
    TieBreak,
    canonicalize,
    derive_stream,
    fit,
    forest_divergence,
    forest_from_json,
    forest_to_json,
    generate_synthetic_formulas,
    grow_tree,
    predict_classes,
    train_test_split,
)
from detforest.canonical import CanonicalNode
from detforest.cart import Internal, Leaf, draw_candidates, trees_equal_exact

from helpers import duplicated_feature_dataset, one_object_per_value, reference_canonicalize, tiny_dataset


def _leaf(counts):
    return Leaf(class_counts=tuple(counts))


def _single_leaf_tree(counts):
    return DecisionTree(nodes=(_leaf(counts),), n_features=1, n_classes=len(counts))


class TestCanonicalize:
    def test_single_leaf(self):
        canon = canonicalize(_single_leaf_tree([3, 1]))
        assert canon == (CanonicalNode(depth=0, class_counts=(3, 1), is_split=False),)

    def test_split_node_and_children(self):
        ds = duplicated_feature_dataset(copies_per_value=1)
        tree = grow_tree(
            ds, np.arange(4), ForestConfig(mtry=2), derive_stream(0, 0)
        )
        assert canonicalize(tree) == (
            CanonicalNode(depth=0, class_counts=(2, 2), is_split=True),
            CanonicalNode(depth=1, class_counts=(2, 0), is_split=False),
            CanonicalNode(depth=1, class_counts=(0, 2), is_split=False),
        )

    def test_feature_and_threshold_excluded(self):
        # Same fingerprint even though one tree splits feature 0 and the
        # other feature 1 at a shifted threshold.
        left = _leaf([2, 0])
        right = _leaf([0, 2])
        t1 = DecisionTree(
            nodes=(Internal(0, 2.5, 1, 2, (2, 2)), left, right), n_features=2, n_classes=2
        )
        t2 = DecisionTree(
            nodes=(Internal(1, 7.0, 1, 2, (2, 2)), left, right), n_features=2, n_classes=2
        )
        assert not trees_equal_exact(t1, t2)
        assert canonicalize(t1) == canonicalize(t2)

    def test_equal_forms_are_one_object(self):
        ds = generate_synthetic_formulas(300, 6, 2)
        tree = grow_tree(ds, np.arange(ds.n), ForestConfig(), derive_stream(2, 0))
        forms = canonicalize(tree)
        assert len(set(forms)) < len(forms)
        assert one_object_per_value(forms)


class TestTreesEqualCanonical:
    def test_reflexive(self):
        ds = generate_synthetic_formulas(60, 4, 1)
        tree = grow_tree(
            ds, np.arange(ds.n), ForestConfig(mtry=2), derive_stream(1, 0)
        )
        assert canonicalize(tree) == canonicalize(tree)

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
        assert canonicalize(first) == canonicalize(lowest)

    def test_count_difference_detected(self):
        assert canonicalize(_single_leaf_tree([3, 1])) != canonicalize(_single_leaf_tree([1, 3]))

    def test_depth_capped_prefix_detected(self):
        ds = tiny_dataset([[1.0, 2.0, 3.0, 4.0]], [0, 0, 1, 0])
        full = grow_tree(ds, np.arange(4), ForestConfig(mtry=1), derive_stream(0, 0))
        stump = grow_tree(
            ds, np.arange(4), ForestConfig(mtry=1, max_depth=1), derive_stream(0, 0)
        )
        assert canonicalize(full) != canonicalize(stump)

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
        forms = [canonicalize(t) for t in trees]
        # symmetric + transitive: all pairwise equal because all equal tree 0
        for form in forms[1:]:
            assert forms[0] == form
            assert form == forms[0]
        assert forms[1] == forms[2]


def _agreement(trees) -> int:
    """Assert that counts-only equality is the reference's relation on every
    pair of the trees; return the number of canonically equal but
    bit-distinct pairs."""
    forms = [(canonicalize(t), reference_canonicalize(t)) for t in trees]
    distinct = 0
    for (a, (form_a, ref_a)), (b, (form_b, ref_b)) in itertools.combinations(zip(trees, forms), 2):
        same = form_a == form_b
        assert same == (ref_a == ref_b)
        distinct += same and not trees_equal_exact(a, b)
    return distinct


def _with_json_copies(forests: list[Forest]) -> list[DecisionTree]:
    return [t for f in forests for t in (*f.trees, *forest_from_json(forest_to_json(f)).trees)]


class TestAgreesWithReference:
    """Counts-only canonical equality is the relation the float form decided."""

    def test_pin_case_fits(self):
        from test_pins import CASES, _case_forest

        distinct = _agreement(_with_json_copies([_case_forest(c[0]) for c in CASES]))
        # The fig1 and min-leaf7 tie-break pairs split on different copies
        # of a feature with the same partitions.
        assert distinct >= 1

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sampled_fits(self, data):
        # A coarse value grid makes ties within a feature, and repeated
        # columns make ties across features.
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        n = data.draw(st.integers(8, 40), label="rows")
        p = data.draw(st.integers(1, 3), label="distinct features")
        values = gen.integers(0, 4, size=(n, p)).astype(np.float64)
        features = np.hstack([values, values[:, : data.draw(st.integers(1, p), label="copies")]])
        labels = gen.integers(0, data.draw(st.integers(2, 3), label="classes"), size=n)
        ds = Dataset(features, labels, [f"f{i}" for i in range(features.shape[1])])
        split = SplitIndices(train=tuple(range(n)), test=())
        bootstrap = data.draw(st.booleans(), label="bootstrap")
        base = dict(
            n_trees=3,
            mtry=data.draw(st.integers(1, ds.p), label="mtry"),
            min_node_size=data.draw(st.integers(1, 4), label="min_node_size"),
            node_size_semantics=data.draw(st.sampled_from(list(NodeSizeSemantics)), label="semantics"),
            max_depth=data.draw(st.sampled_from([None, 1, 3]), label="max_depth"),
            bootstrap=bootstrap,
            sample_fraction=1.0 if bootstrap else 0.75,
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        forests = [fit(ds, split, ForestConfig(**base, tie_break=tb)) for tb in TieBreak]
        _agreement(_with_json_copies(forests))


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
