"""Tests for forest training, aggregation, and serialization."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from detforest import (
    Aggregation,
    Dataset,
    Forest,
    ForestConfig,
    NodeSizeSemantics,
    TieBreak,
    accuracy,
    derive_stream,
    fit,
    forest_from_json,
    forest_to_json,
    forest_divergence,
    generate_synthetic_formulas,
    load_forest,
    predict_classes,
    predict_proba,
    save_forest,
    train_test_split,
)
from detforest.canonical import canonicalize
from detforest.cart import DecisionTree, Internal, Leaf, Split, iter_nodes, trees_equal_exact
from detforest.cli import PRESETS
from detforest.forest import bootstrap_sample, dump_json, read_json
from detforest.prng import TRIAL_STREAM, bounded_uint, shuffle

from helpers import (
    GOLDEN,
    MASK64,
    argmax_lowest,
    duplicated_feature_dataset,
    forest_to_doc,
    reference_predict_vote,
    reference_predict_proba,
    state_with_draw,
    tiny_dataset,
    warm_traced_peak,
)


class TestBootstrapSample:
    def test_full_shuffle_without_replacement(self):
        rng = derive_stream(1, 2)
        s, after = bootstrap_sample(rng, 8, False, 1.0)
        assert sorted(s.tolist()) == list(range(8))
        perm, after_ref = shuffle(rng, 8)
        assert s.tolist() == perm
        assert after == after_ref

    def test_half_without_replacement_is_shuffle_prefix(self):
        rng = derive_stream(5, 0)
        s, _ = bootstrap_sample(rng, 10, False, 0.5)
        assert len(s) == 5
        assert len(set(s.tolist())) == 5
        assert s.tolist() == [6, 5, 2, 8, 4]
        perm, _ = shuffle(rng, 10)
        assert s.tolist() == perm[:5]

    def test_with_replacement_pinned_and_matches_bounded_draws(self):
        rng = derive_stream(5, 0)
        s, after = bootstrap_sample(rng, 4, True, 1.0)
        assert s.tolist() == [3, 0, 0, 1]  # draw order kept, repeats allowed
        ref = []
        r = rng
        for _ in range(4):
            v, r = bounded_uint(r, 4)
            ref.append(v)
        assert s.tolist() == ref
        assert after == r

    def test_sample_size_rounds_half_to_even(self):
        s, _ = bootstrap_sample(derive_stream(0, 0), 5, True, 0.5)
        assert len(s) == 2  # round(2.5) = 2
        s, _ = bootstrap_sample(derive_stream(0, 0), 7, True, 0.5)
        assert len(s) == 4  # round(3.5) = 4

    def test_with_replacement_rejected_draw_falls_back_to_scalar_draws(self):
        # 2**64 mod 5 is 1, so 2**64 - 1 is rejected for n = 5 and redrawn.
        rng = state_with_draw(3, MASK64)
        s, after = bootstrap_sample(rng, 5, True, 1.0)
        ref, r = [], rng
        for _ in range(5):
            v, r = bounded_uint(r, 5)
            ref.append(v)
        assert s.tolist() == ref
        assert s.dtype == np.intp  # indexes a row array as it is
        assert after == r
        assert after.state == (rng.state + 6 * GOLDEN) & MASK64  # one extra step

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_sample(derive_stream(0, 0), 4, True, 0.1)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_sample(derive_stream(0, 0), 0, True, 1.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                bootstrap_sample(derive_stream(0, 0), 4, True, bad)


class TestForestConfig:
    def test_defaults(self):
        cfg = ForestConfig()
        assert cfg.n_trees == 50
        assert cfg.mtry is None
        assert cfg.min_node_size == 1
        assert cfg.node_size_semantics is NodeSizeSemantics.MIN_SPLIT
        assert cfg.max_depth is None
        assert cfg.tie_break is TieBreak.LOWEST_FEATURE_INDEX
        assert cfg.bootstrap is True
        assert cfg.sample_fraction == 1.0
        assert cfg.aggregation is Aggregation.MEAN_PROBABILITY
        assert cfg.seed == 0

    def test_resolved_mtry(self):
        assert ForestConfig().resolved_mtry(87) == 9  # floor(sqrt(87))
        assert ForestConfig().resolved_mtry(1) == 1
        assert ForestConfig(mtry="all").resolved_mtry(87) == 87
        assert ForestConfig(mtry=3).resolved_mtry(87) == 3
        # An mtry above p, and every mtry once there are no features.
        for mtry, p in [(5, 4), (None, 0), ("all", 0), (1, 0), (None, -1)]:
            with pytest.raises(ValueError, match=rf"mtry must be an integer in \[1, {p}\]"):
                ForestConfig(mtry=mtry).resolved_mtry(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        # Tree k draws from stream k: TRIAL_STREAM is the lowest reserved one.
        assert ForestConfig(n_trees=TRIAL_STREAM).n_trees == TRIAL_STREAM
        for n_trees in (TRIAL_STREAM + 1, 2**64):
            with pytest.raises(ValueError, match="n_trees"):
                ForestConfig(n_trees=n_trees)
        with pytest.raises(ValueError):
            ForestConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            ForestConfig(sample_fraction=1.2)
        with pytest.raises(ValueError):
            ForestConfig(seed=-1)
        with pytest.raises(ValueError):
            ForestConfig(seed=2**64)
        with pytest.raises(ValueError):
            ForestConfig(mtry="sqrt")
        with pytest.raises(ValueError):
            ForestConfig(mtry=0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_mtry_rejected(self, flag):
        # bool is an int subclass: True would otherwise pass as mtry = 1.
        with pytest.raises(ValueError):
            ForestConfig(mtry=flag)
        ds = generate_synthetic_formulas(40, 4, 0)
        doc = forest_to_doc(fit(ds, train_test_split(ds, 0.75, 0), ForestConfig(n_trees=1)))
        doc["config"]["mtry"] = flag
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    # Each of these once fitted and then failed later, or fitted without the
    # setting: the loader rejects a document with True for an integer, and
    # a string node_size_semantics grew trees with no node-size limit.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_trees", True),
            ("n_trees", 2.0),
            ("mtry", True),
            ("mtry", 2.0),
            ("min_node_size", True),
            ("min_node_size", 2.0),
            ("max_depth", True),
            ("seed", True),
            ("bootstrap", 1),
            ("sample_fraction", True),
            ("sample_fraction", 1),
            ("node_size_semantics", "min-leaf"),
            ("tie_break", "first-in-draw-order"),
            ("aggregation", "majority-vote"),
        ],
    )
    def test_wrong_typed_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ForestConfig(**{field: value})

    # grow_tree reads the growth fields of the config it is given; a config
    # varied from a valid one by dataclasses.replace is checked again.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mtry", 2.0),
            ("min_node_size", True),
            ("max_depth", True),
            ("node_size_semantics", "min-leaf"),
            ("tie_break", "first-in-draw-order"),
        ],
    )
    def test_grow_config_rejects_wrong_typed_field(self, field, value):
        cfg = ForestConfig(mtry=2)
        assert cfg.resolved_mtry(4) == 2
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: value})

    @pytest.mark.parametrize(
        "cfg",
        [
            ForestConfig(n_trees=2, seed=5),
            ForestConfig(
                n_trees=1, mtry="all", min_node_size=3,
                node_size_semantics=NodeSizeSemantics.MIN_LEAF, max_depth=4,
                tie_break=TieBreak.FIRST_IN_DRAW_ORDER, bootstrap=False,
                sample_fraction=0.5, aggregation=Aggregation.MAJORITY_VOTE, seed=2**64 - 1,
            ),
        ],
    )
    def test_forest_of_a_valid_config_round_trips(self, cfg):
        ds = generate_synthetic_formulas(40, 4, 0)
        text = forest_to_json(fit(ds, train_test_split(ds, 0.75, 0), cfg))
        loaded = forest_from_json(text)
        assert loaded.config == cfg
        assert forest_to_json(loaded) == text

    def test_oversized_mtry_fails_at_fit_time(self):
        ds = generate_synthetic_formulas(30, 4, 0)
        split = train_test_split(ds, 0.8, 0)
        with pytest.raises(ValueError):
            fit(ds, split, ForestConfig(n_trees=1, mtry=10))


class TestFit:
    def _small(self, seed=0):
        ds = generate_synthetic_formulas(60, 4, seed)
        split = train_test_split(ds, 0.75, seed)
        return ds, split

    def test_deterministic_and_worker_invariant(self):
        ds, split = self._small()
        cfg = ForestConfig(n_trees=6, seed=9)
        a = fit(ds, split, cfg)
        b = fit(ds, split, cfg)
        c = fit(ds, split, cfg, n_workers=4)
        assert forest_to_json(a) == forest_to_json(b) == forest_to_json(c)

    def test_different_seed_changes_trees(self):
        ds, split = self._small()
        a = fit(ds, split, ForestConfig(n_trees=3, seed=1))
        b = fit(ds, split, ForestConfig(n_trees=3, seed=2))
        assert forest_to_json(a) != forest_to_json(b)

    def test_no_sampling_passes_full_training_set(self):
        ds, split = self._small()
        cfg = ForestConfig(
            n_trees=2, mtry="all", bootstrap=False, sample_fraction=1.0
        )
        f = fit(ds, split, cfg)
        for tree in f.trees:
            assert sum(tree.nodes[0].class_counts) == len(split.train)

    def test_bootstrap_trees_see_resampled_rows(self):
        ds, split = self._small()
        f = fit(ds, split, ForestConfig(n_trees=3, seed=4))
        assert all(sum(t.nodes[0].class_counts) == len(split.train) for t in f.trees)
        # With replacement the trees almost surely differ from one another.
        assert not trees_equal_exact(f.trees[0], f.trees[1])

    def test_sample_fraction_shrinks_trees(self):
        ds, split = self._small()
        f = fit(
            ds, split,
            ForestConfig(n_trees=2, bootstrap=False, sample_fraction=0.5),
        )
        expected = round(0.5 * len(split.train))
        assert all(sum(t.nodes[0].class_counts) == expected for t in f.trees)

    def test_metadata_recorded(self):
        ds, split = self._small()
        cfg = ForestConfig(n_trees=2)
        f = fit(ds, split, cfg)
        assert f.n_features == ds.p
        assert f.n_classes == ds.c
        assert f.config is cfg
        assert len(f.trees) == 2

    def test_invalid_split_rejected(self):
        ds, _ = self._small()
        from detforest import SplitIndices

        with pytest.raises(ValueError):
            fit(ds, SplitIndices(train=(), test=(0,)), ForestConfig(n_trees=1))
        with pytest.raises(ValueError):
            fit(ds, SplitIndices(train=(0, ds.n), test=()), ForestConfig(n_trees=1))
        with pytest.raises(ValueError):
            fit(ds, SplitIndices(train=(0, 1), test=()), ForestConfig(n_trees=1), n_workers=0)


class TestWorkers:
    @pytest.mark.parametrize(
        "n_workers, n_trees, cpus, threads",
        [
            (5000, 3, 4, 3),  # one thread per tree at most
            (5000, 6, 4, 4),  # one thread per CPU at most
            (2, 6, 4, 2),
            (4, 1, 4, None),  # one thread: no pool
            (4, 6, 1, None),
            (4, 6, None, None),  # unknown CPU count counts as one
        ],
    )
    def test_thread_count_is_capped(self, monkeypatch, n_workers, n_trees, cpus, threads):
        import detforest.forest as forest_module

        started = []

        class SerialPool:
            """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(forest_module, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(forest_module.os, "cpu_count", lambda: cpus)
        ds = generate_synthetic_formulas(40, 4, 0)
        split = train_test_split(ds, 0.75, 0)
        cfg = ForestConfig(n_trees=n_trees, seed=3)
        f = fit(ds, split, cfg, n_workers=n_workers)
        assert started == ([] if threads is None else [threads])
        assert forest_to_json(f) == forest_to_json(fit(ds, split, cfg))

    @pytest.mark.parametrize("n_workers", [0, -1, 2.0, True, "2", None])
    def test_worker_count_must_be_a_positive_int(self, n_workers):
        ds = generate_synthetic_formulas(40, 4, 0)
        split = train_test_split(ds, 0.75, 0)
        with pytest.raises(ValueError, match="n_workers"):
            fit(ds, split, ForestConfig(n_trees=2), n_workers=n_workers)


# Row selections that are not integer indices in [0, n), as functions of n.
_BAD_ROWS = {
    "empty-list": lambda n: [],
    "empty-tuple": lambda n: (),
    "negative": lambda n: [-1],
    "negative-range": lambda n: range(-n, 0),
    "n": lambda n: [0, n],
    "float": lambda n: [1.5],
    "floats": lambda n: (0.9, 1.9, 2.9),
    "integral-floats": lambda n: np.array([0.0, 1.0]),
    "bool": lambda n: [True, False],
    "2-d": lambda n: [[0, 1], [2, 3]],
    "scalar": lambda n: 1,
    "too-large-for-int64": lambda n: [2**64],
}


class TestRowIndices:
    @pytest.fixture(scope="class")
    def fitted(self):
        ds = generate_synthetic_formulas(40, 4, 0)
        return ds, fit(ds, train_test_split(ds, 0.75, 0), ForestConfig(n_trees=2))

    @pytest.mark.parametrize("entry", ["fit", "accuracy", "forest_divergence"])
    @pytest.mark.parametrize("bad", list(_BAD_ROWS))
    def test_bad_rows_rejected(self, fitted, entry, bad):
        from detforest import SplitIndices

        ds, f = fitted
        rows = _BAD_ROWS[bad](ds.n)
        with pytest.raises(ValueError, match="rows|indices"):
            if entry == "fit":
                fit(ds, SplitIndices(train=rows, test=()), ForestConfig(n_trees=1))
            elif entry == "accuracy":
                accuracy(f, ds, rows)
            else:
                forest_divergence([("a", f), ("b", f)], ds, rows=rows)

    def test_any_integer_dtype_accepted(self, fitted):
        ds, f = fitted
        rows = [3, 0, 39, 7]
        expected = accuracy(f, ds, rows)
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            assert accuracy(f, ds, np.array(rows, dtype=dtype)) == expected
        report = forest_divergence([("a", f), ("b", f)], ds, rows=np.array(rows, dtype=np.uint32))
        assert report.n_test == 4


def _leaf(counts: tuple[int, ...]) -> Leaf:
    return Leaf(class_counts=counts)


def _leaf_forest(leaf_counts: list[tuple[int, ...]], n_classes: int,
                 aggregation=Aggregation.MEAN_PROBABILITY) -> Forest:
    """Forest of single-leaf trees with fixed distributions (predictions
    ignore the input, which makes aggregation arithmetic directly checkable)."""
    trees = tuple(
        DecisionTree(nodes=(_leaf(c),), n_features=1, n_classes=n_classes)
        for c in leaf_counts
    )
    cfg = ForestConfig(n_trees=len(trees), aggregation=aggregation)
    return Forest(trees=trees, config=cfg, n_features=1, n_classes=n_classes)


def _split_forest(threshold: float) -> Forest:
    """One tree: x[0] <= threshold reaches a class-0 leaf, anything else a class-1 leaf."""
    root = Internal(feature=0, threshold=threshold, left=1, right=2, class_counts=(1, 1))
    tree = DecisionTree(nodes=(root, _leaf((1, 0)), _leaf((0, 1))), n_features=1, n_classes=2)
    return Forest(trees=(tree,), config=ForestConfig(n_trees=1), n_features=1, n_classes=2)


X = np.array([[0.0]])
VOTE, MEAN = Aggregation.MAJORITY_VOTE, Aggregation.MEAN_PROBABILITY


class TestAggregation:
    def test_majority_plain(self):
        f = _leaf_forest([(1, 0), (1, 0), (0, 1)], 2)
        assert predict_classes(f, X, VOTE) == [0]

    def test_majority_tie_goes_to_lowest_class(self):
        f = _leaf_forest([(0, 1), (1, 0)], 2)
        assert predict_classes(f, X, VOTE) == [0]
        f = _leaf_forest([(0, 0, 1), (0, 1, 0)], 3)
        assert predict_classes(f, X, VOTE) == [1]

    def test_mean_probability_tie_goes_to_lowest_class(self):
        f = _leaf_forest([(1, 0, 0), (0, 1, 0)], 3)
        probs = predict_proba(f, X)
        assert probs.tolist() == [[0.5, 0.5, 0.0]]
        assert predict_classes(f, X, MEAN) == [0]

    def test_mean_probability_uses_distributions_not_votes(self):
        # Vote winner is class 1 (two leaves lean 1), but the probability
        # mass favors class 0.
        f = _leaf_forest([(9, 1), (4, 6), (4, 6)], 2)
        assert predict_classes(f, X, VOTE) == [1]
        assert predict_classes(f, X, MEAN) == [0]

    def test_single_tree_forest(self):
        f = _leaf_forest([(3, 1)], 2)
        assert predict_classes(f, X, VOTE) == [0]
        assert predict_proba(f, X).tolist() == [[0.75, 0.25]]

    def test_predict_class_respects_configured_aggregation(self):
        leaves = [(9, 1), (4, 6), (4, 6)]
        fv = _leaf_forest(leaves, 2, aggregation=VOTE)
        fp = _leaf_forest(leaves, 2, aggregation=MEAN)
        assert predict_classes(fv, X) == [1]
        assert predict_classes(fp, X) == [0]
        # explicit override beats the configured default
        assert predict_classes(fv, X, MEAN) == [0]
        assert predict_classes(fp, X, VOTE) == [1]

    @pytest.mark.parametrize("aggregation", ["majority-vote", "mean-probability", 1])
    def test_aggregation_must_be_an_enum_member(self, aggregation):
        # A string was once scored as mean probability whatever it said.
        f = _leaf_forest([(9, 1), (4, 6), (4, 6)], 2)
        ds = tiny_dataset([[0.0, 1.0]], [0, 1])
        calls = [
            lambda: predict_classes(f, X, aggregation),
            lambda: accuracy(f, ds, [0, 1], aggregation),
            lambda: forest_divergence([("a", f), ("b", f)], ds, aggregation=aggregation),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="aggregation"):
                call()

    def test_proba_sums_to_one(self):
        ds = generate_synthetic_formulas(80, 4, 2)
        split = train_test_split(ds, 0.75, 2)
        f = fit(ds, split, ForestConfig(n_trees=7, seed=2))
        probs = predict_proba(f, ds.features[list(split.test[:10])])
        assert probs.shape == (10, f.n_classes)
        assert probs.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-9)
        assert (probs >= 0).all()

    def test_argmax_lowest(self):
        assert argmax_lowest([1, 3, 3]) == 1
        assert argmax_lowest([2, 2, 2]) == 0
        assert argmax_lowest([5]) == 0

    def test_dimension_errors(self):
        f = _leaf_forest([(1, 0)], 2)
        for shape in [(1,), (2,), (1, 2), (2, 3), (1, 1, 1), ()]:
            for predict in (predict_classes, predict_proba):
                with pytest.raises(ValueError, match="2-D matrix with 1 columns"):
                    predict(f, np.zeros(shape))

    @pytest.mark.parametrize("features", [
        np.array([[1.0 + 0j]]),
        np.array([[1.0]]).astype(complex) + 5j,
        [[1 + 2j]],
        np.array([["1"]]),
        [["1.5"]],
        np.array([[1.0]], dtype=object),
        np.array([[True]]),
        [[False]],
    ], ids=["complex-real", "complex", "complex-list", "str", "str-list", "object", "bool",
            "bool-list"])
    def test_non_real_input_rejected(self, features):
        # numpy would drop the imaginary part, parse the strings and read
        # the bools as 0 and 1, each giving a prediction for other numbers.
        f = _leaf_forest([(1, 0)], 2)
        for predict in (predict_classes, predict_proba):
            with pytest.raises(ValueError, match="integers or floats"):
                predict(f, features)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, np.float16, np.float32])
    def test_integer_and_float_input_accepted(self, dtype):
        f = _split_forest(1.5)
        rows = np.array([[0], [1], [2]], dtype=dtype)
        for features in (rows, rows.tolist()):
            assert predict_classes(f, features) == [0, 0, 1]
            assert predict_proba(f, features).tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


class TestBatchedPrediction:
    """predict_classes routes all rows at once; helpers' per-row predict_leaf walks are the reference."""

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_equals_per_row_aggregation(self, max_depth):
        ds = generate_synthetic_formulas(300, 6, 4)
        split = train_test_split(ds, 0.7, 4)
        f = fit(ds, split, ForestConfig(n_trees=9, max_depth=max_depth, seed=4))
        impure = any(max(leaf.class_counts) < sum(leaf.class_counts)
                     for tree in f.trees for leaf, _ in iter_nodes(tree) if isinstance(leaf, Leaf))
        assert impure == (max_depth is not None)
        rows = ds.features
        votes = predict_classes(f, rows, VOTE)
        means = predict_classes(f, rows, MEAN)
        assert votes == [reference_predict_vote(f, x) for x in rows]
        assert means == [argmax_lowest(reference_predict_proba(f, x)) for x in rows]
        assert means == [argmax_lowest(p) for p in predict_proba(f, rows)]
        if max_depth is not None:
            assert votes != means  # impure leaves make the modes disagree somewhere

    def test_desk_forest_per_row_batched_and_reference_agree(self):
        # Impure leaves (max_depth) make the probabilities non-trivial floats.
        ds = generate_synthetic_formulas(4598, 87, 0)
        split = train_test_split(ds, 0.8, 0)
        f = fit(ds, split, ForestConfig(n_trees=10, max_depth=8, seed=0))
        rows = ds.features[list(split.test[::4])]
        votes = predict_classes(f, rows, VOTE)
        means = predict_classes(f, rows, MEAN)
        assert votes != means
        assert votes == [reference_predict_vote(f, x) for x in rows]
        probas = predict_proba(f, rows)
        reference = np.array([reference_predict_proba(f, x) for x in rows])
        assert probas.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
        assert means == np.argmax(probas, axis=1).tolist()
        # One row at a time gives each row's scores bit for bit.
        for x, p in zip(rows[:20], probas):
            assert predict_proba(f, x[None, :]).view(np.uint64).tolist() == [p.view(np.uint64).tolist()]

    def test_ties_go_to_the_lowest_class(self):
        rows = np.zeros((3, 1))
        f = _leaf_forest([(0, 1), (1, 0)], 2)
        assert predict_classes(f, rows, VOTE) == [0, 0, 0]
        f = _leaf_forest([(0, 1, 1), (0, 1, 1)], 3)
        assert predict_classes(f, rows, MEAN) == [1, 1, 1]

    def test_value_equal_to_threshold_goes_left(self):
        f = _split_forest(2.0)
        rows = np.array([[2.0], [np.nextafter(2.0, 3.0)], [0.0]])
        for agg in Aggregation:
            assert predict_classes(f, rows, agg) == [0, 1, 0]
            assert predict_classes(f, rows, agg) == [predict_classes(f, x[None, :], agg)[0] for x in rows]
        assert predict_proba(f, rows).tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_no_rows(self):
        f = _leaf_forest([(1, 0)], 2)
        assert predict_classes(f, np.zeros((0, 1))) == []
        assert predict_proba(f, np.zeros((0, 1))).shape == (0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        f = _leaf_forest([(1, 0)], 2)
        rows = np.zeros((4, 1))
        rows[2, 0] = bad
        for predict in (predict_classes, predict_proba):
            with pytest.raises(ValueError, match="row 2, column 0"):
                predict(f, rows)
            with pytest.raises(ValueError, match="row 0, column 0"):
                predict(f, rows[2][None, :])


class TestAccuracy:
    def test_hand_case(self):
        # Forest always answers class 0; rows 0 and 2 are labeled 0.
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [0, 1, 0])
        f = _leaf_forest([(1, 0)], 2)
        assert accuracy(f, ds, [0, 1, 2]) == pytest.approx(2 / 3)
        assert accuracy(f, ds, [1]) == 0.0

    def test_empty_rows_rejected(self):
        ds = tiny_dataset([[1.0]], [0])
        f = _leaf_forest([(1,)], 1)
        with pytest.raises(ValueError):
            accuracy(f, ds, [])

    def test_perfect_on_separable_training_data(self):
        ds = duplicated_feature_dataset()
        from detforest import SplitIndices

        rows = tuple(range(ds.n))
        f = fit(
            ds, SplitIndices(train=rows, test=()),
            ForestConfig(n_trees=3, mtry="all", bootstrap=False, seed=1),
        )
        assert accuracy(f, ds, rows) == 1.0


class TestSerialization:
    def _forest(self):
        ds = generate_synthetic_formulas(60, 4, 8)
        split = train_test_split(ds, 0.75, 8)
        return fit(ds, split, ForestConfig(n_trees=4, seed=8))

    def test_json_round_trip_bit_identical(self):
        f = self._forest()
        text = forest_to_json(f)
        g = forest_from_json(text)
        assert forest_to_json(g) == text
        assert g.config == f.config
        assert all(
            trees_equal_exact(a, b) for a, b in zip(f.trees, g.trees)
        )

    def test_json_is_canonical_bytes(self):
        text = forest_to_json(self._forest())
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_file_round_trip(self, tmp_path):
        f = self._forest()
        path = tmp_path / "forest.json"
        save_forest(f, path)
        assert path.read_text().endswith("\n")
        g = load_forest(path)
        assert forest_to_json(g) == forest_to_json(f)

    def test_round_trip_preserves_predictions(self):
        ds = generate_synthetic_formulas(60, 4, 8)
        split = train_test_split(ds, 0.75, 8)
        f = fit(ds, split, ForestConfig(n_trees=4, seed=8))
        g = forest_from_json(forest_to_json(f))
        test_rows = np.asarray(split.test, dtype=np.intp)
        assert predict_classes(f, ds.features[test_rows]) == predict_classes(
            g, ds.features[test_rows]
        )

    def test_deep_tree_round_trips_without_recursion(self):
        n = 1200
        ds = Dataset(
            np.arange(n, dtype=np.float64)[:, None],
            (np.arange(n) % 2).astype(np.int64),
            ["f0"],
        )
        from detforest import SplitIndices

        f = fit(
            ds, SplitIndices(train=tuple(range(n)), test=()),
            ForestConfig(n_trees=1, mtry="all", bootstrap=False),
        )
        g = forest_from_json(forest_to_json(f))
        assert trees_equal_exact(f.trees[0], g.trees[0])

    def test_hand_built_forests_round_trip(self):
        # A hand-built node stores no n_samples or gini that could disagree
        # with its counts, so its file loads back into the same forest.
        for f in (_leaf_forest([(3, 1), (1, 3)], 2), _split_forest(1.5), _split_forest(2.0)):
            assert forest_from_json(forest_to_json(f)) == f

    def test_bad_schema_rejected(self):
        doc = forest_to_doc(self._forest())
        doc["schema"] = "something.else"
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))
        with pytest.raises(ValueError):
            forest_from_json("[1,2,3]")

    def test_bad_child_index_rejected(self):
        doc = forest_to_doc(self._forest())
        # point a left-child reference back at an earlier node
        for node in doc["trees"][0]["nodes"]:
            if "feature" in node:
                node["left"] = 0
                break
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    def test_leaf_count_mismatch_rejected(self):
        doc = forest_to_doc(self._forest())
        for node in doc["trees"][0]["nodes"]:
            if "feature" not in node:
                node["n_samples"] = node["n_samples"] + 1
                break
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    def test_wrong_class_count_width_rejected(self):
        doc = forest_to_doc(self._forest())
        for node in doc["trees"][0]["nodes"]:
            node["class_counts"] = node["class_counts"] + [0]
            break
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    def test_bad_enum_value_rejected(self):
        doc = forest_to_doc(self._forest())
        doc["config"]["tie_break"] = "coin-flip"
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    def test_tree_count_mismatch_rejected(self):
        doc = forest_to_doc(self._forest())
        doc["trees"] = doc["trees"][:-1]
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(doc))

    def test_n_samples_above_exact_float_counts_rejected(self):
        # No fit makes a node above 2**53 rows. Scaling every count by 2**52
        # keeps each gini and child sum valid, so only that bound rejects it.
        doc = forest_to_doc(self._forest())
        for node in doc["trees"][0]["nodes"]:
            node["class_counts"] = [count * 2**52 for count in node["class_counts"]]
            node["n_samples"] *= 2**52
        with pytest.raises(ValueError, match="node 0 has n_samples"):
            forest_from_json(json.dumps(doc))

    def _first_internal(self, doc):
        return next(node for node in doc["trees"][0]["nodes"] if "feature" in node)

    @pytest.mark.parametrize("feature", [4, 99, -1])
    def test_out_of_range_feature_rejected(self, feature):
        doc = forest_to_doc(self._forest())
        self._first_internal(doc)["feature"] = feature
        with pytest.raises(ValueError, match="feature"):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("threshold", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_threshold_rejected(self, threshold):
        doc = forest_to_doc(self._forest())
        self._first_internal(doc)["threshold"] = "THRESHOLD"
        text = json.dumps(doc).replace('"THRESHOLD"', threshold)
        with pytest.raises(ValueError, match="threshold"):
            forest_from_json(text)


class TestOneTreeAtATime:
    """The writer dumps one tree's document at a time, and the loader frees
    each tree's document once its tree is built."""

    @pytest.fixture(scope="class")
    def forest20(self):
        ds = generate_synthetic_formulas(600, 12, 0)
        return fit(ds, train_test_split(ds, 0.75, 0), ForestConfig(n_trees=20, seed=0))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_text_is_the_dump_of_the_document(self, preset):
        ds = generate_synthetic_formulas(200, 6, 3)
        cfg = PRESETS[preset].config()
        cfg = dataclasses.replace(cfg, n_trees=min(cfg.n_trees, 5), seed=3)
        f = fit(ds, train_test_split(ds, 0.75, 3), cfg)
        assert forest_to_json(f) == dump_json(forest_to_doc(f))

    def test_one_tree_text_is_the_dump_of_the_document(self):
        ds = generate_synthetic_formulas(200, 6, 4)
        f = fit(ds, train_test_split(ds, 0.75, 4), ForestConfig(n_trees=1, seed=4))
        assert forest_to_json(f) == dump_json(forest_to_doc(f))

    def test_trees_that_are_not_a_list_rejected(self, forest20):
        doc = forest_to_doc(forest20)
        for trees in (None, {"nodes": []}, "trees"):
            with pytest.raises(ValueError, match="no list of trees"):
                forest_from_json(json.dumps({**doc, "trees": trees}))
        del doc["trees"]
        with pytest.raises(ValueError, match="forest document has keys"):
            forest_from_json(json.dumps(doc))

    def test_writer_peak_is_below_the_document(self, forest20):
        # One json.dumps of the whole document peaked at 3.7x the document.
        assert warm_traced_peak(forest_to_json, forest20) < warm_traced_peak(forest_to_doc, forest20)

    def test_save_writes_one_tree_at_a_time(self, forest20, tmp_path):
        # Joining every tree's text before the write held the text twice.
        path = tmp_path / "forest.json"
        save_forest(forest20, path)
        assert path.read_bytes() == (forest_to_json(forest20) + "\n").encode()
        assert warm_traced_peak(save_forest, forest20, path) < warm_traced_peak(forest_to_json, forest20)

    def test_loader_peak_is_close_to_the_parse(self, forest20):
        # Holding every tree's document until the last tree is built peaked
        # at 1.6x the parse.
        text = forest_to_json(forest20)
        assert warm_traced_peak(forest_from_json, text) <= 1.25 * warm_traced_peak(read_json, text, "forest")


class TestPickle:
    """Trees cross process boundaries as pickles; nodes are frozen, slotted records."""

    @pytest.fixture(scope="class")
    def forest(self):
        ds = generate_synthetic_formulas(120, 5, 2)
        return fit(ds, train_test_split(ds, 0.75, 2), ForestConfig(n_trees=3, max_depth=4, seed=2))

    def test_forest_round_trips(self, forest):
        assert pickle.loads(pickle.dumps(forest)) == forest

    def test_canonical_form_round_trips(self, forest):
        form = canonicalize(forest.trees[0])
        assert pickle.loads(pickle.dumps(form)) == form

    def test_nodes_take_no_new_attribute(self, forest):
        nodes = list(forest.trees[0].nodes) + list(canonicalize(forest.trees[0]))
        nodes.append(Split(0, 0.5, (1,), (1,)))
        assert {type(node).__name__ for node in nodes} == {"Leaf", "Internal", "CanonicalNode", "Split"}
        for node in nodes:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, dataclasses.fields(node)[0].name, 1)
            # CPython 3.10-3.13 raise TypeError here: the frozen __setattr__
            # that dataclasses generates calls super() with the class that
            # slots=True replaces.
            with pytest.raises((AttributeError, TypeError)):
                node.extra = 1
            # No instance dict: a slotted record has no room for the name.
            with pytest.raises(AttributeError):
                object.__setattr__(node, "extra", 1)
