"""Tests for dataset loading, synthesis, and splitting."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest import (
    Dataset,
    generate_synthetic_formulas,
    load_csv,
    save_csv,
    train_test_split,
)
from detforest.dataset import _quantile_linear

from helpers import tiny_dataset


class TestDatasetValidation:
    def test_basic_construction(self):
        ds = tiny_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert ds.n == 2
        assert ds.p == 2
        assert ds.c == 2
        assert ds.feature_names == ("f0", "f1")

    def test_arrays_are_read_only(self):
        ds = tiny_dataset([[1.0, 2.0]], [0, 1])
        with pytest.raises((ValueError, RuntimeError)):
            ds.features[0, 0] = 99.0
        with pytest.raises((ValueError, RuntimeError)):
            ds.labels[0] = 5

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), ["a", "b"])

    def test_feature_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), ["a"])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, -1]), ["a"])

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValueError) as exc:
            Dataset(
                np.array([[1.0], [np.nan]]), np.array([0, 1]), ["a"]
            )
        # Error message locates the offending cell for the user.
        assert "row" in str(exc.value)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ["a", "b"])

    def test_no_feature_column_rejected(self):
        with pytest.raises(ValueError, match="no feature column"):
            Dataset(np.empty((2, 0)), np.array([0, 1]), [])

    def test_composition_flag_requires_row_sums(self):
        feats = np.array([[40.0, 60.0], [30.0, 70.0]])
        ds = Dataset(feats, np.array([0, 1]), ["a", "b"], composition=True)
        assert ds.composition
        with pytest.raises(ValueError):
            Dataset(
                np.array([[40.0, 59.0]]), np.array([0]), ["a", "b"],
                composition=True,
            )

    def test_class_count_is_max_label_plus_one(self):
        # Gaps in integer labels are preserved, not compacted.
        ds = tiny_dataset([[1.0, 2.0, 3.0]], [0, 2, 2])
        assert ds.c == 3


class TestCsvRoundTrip:
    # SHA-256 of the files save_csv wrote when it formatted cell by cell
    # through csv.writer; the bytes must not change.
    @pytest.mark.parametrize(
        "make, label_column, digest",
        [
            (
                lambda: Dataset(
                    np.array(
                        [
                            [5e-324, 1e308, 3.0],
                            [0.1, 1e-05, 123456789.125],
                            [0.0, 2.5e-310, 1.7976931348623157e308],
                        ]
                    ),
                    np.array([0, 2, 1]),
                    ["plain", "has,comma", 'has "quote"'],
                ),
                "lab el,x",
                "e01cef0c19d15fea19c617d1ad68e405af5fc55716434f1d1c9300a549ece877",
            ),
            (
                lambda: generate_synthetic_formulas(200, 9, 3),
                "label",
                "1648245e98850b0398389ae98fbfad36f6d6e6474ce0afb49507206a4eb3c351",
            ),
        ],
        ids=["awkward", "synthetic"],
    )
    def test_bytes_pinned(self, tmp_path, make, label_column, digest):
        path = tmp_path / "data.csv"
        save_csv(make(), path, label_column=label_column)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_quoted_names_load_back(self, tmp_path):
        ds = Dataset(np.array([[5e-324, 1e308]]), np.array([1]), ["a,b", 'c"d'])
        path = tmp_path / "data.csv"
        save_csv(ds, path, label_column="y,z")
        back = load_csv(path, "y,z")
        assert back.feature_names == ds.feature_names
        assert back.features.tolist() == [[5e-324, 1e308]]

    def test_round_trip_bit_identical(self, tmp_path):
        rows = 37
        ds = generate_synthetic_formulas(rows, 5, 123)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, "label", composition=True)
        assert back.n == ds.n and back.p == ds.p
        assert back.feature_names == ds.feature_names
        # repr() round-trips float64 exactly, so arrays must match bitwise.
        assert np.array_equal(
            back.features.view(np.uint64), ds.features.view(np.uint64)
        )
        assert np.array_equal(back.labels, ds.labels)

    def test_custom_label_column_and_position(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,target,b\n1.0,0,2.0\n3.0,1,4.0\n")
        ds = load_csv(path, "target")
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [0, 1]
        assert ds.features[:, 0].tolist() == [1.0, 3.0]
        assert ds.features[:, 1].tolist() == [2.0, 4.0]

    def test_string_labels_mapped_by_first_appearance(self, tmp_path):
        path = tmp_path / "strs.csv"
        path.write_text("a,label\n1.0,spam\n2.0,ham\n3.0,spam\n4.0,eggs\n")
        ds = load_csv(path, "label")
        assert ds.labels.tolist() == [0, 1, 0, 2]

    def test_integer_labels_kept_as_is_with_gaps(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,label\n1.0,0\n2.0,3\n")
        ds = load_csv(path, "label")
        assert ds.labels.tolist() == [0, 3]
        assert ds.c == 4

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path, "label")
        assert "label" in str(exc.value)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError) as exc:
            load_csv(path, "label")
        msg = str(exc.value)
        assert "b" in msg  # column name
        assert "2" in msg  # data row number

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError):
            load_csv(path, "label")

    def test_no_data_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,label\n")
        with pytest.raises(ValueError):
            load_csv(path, "label")


class TestQuantile:
    def test_hand_values(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert _quantile_linear(xs, 0.0) == 1.0
        assert _quantile_linear(xs, 0.25) == 1.75
        assert _quantile_linear(xs, 0.5) == 2.5
        assert _quantile_linear(xs, 0.6) == pytest.approx(2.8)
        assert _quantile_linear(xs, 1.0) == 4.0

    def test_single_element(self):
        assert _quantile_linear(np.array([7.0]), 0.3) == 7.0


class TestTrainTestSplit:
    def test_partition_covers_all_rows_exactly_once(self):
        ds = generate_synthetic_formulas(101, 4, 9)
        sp = train_test_split(ds, 0.7, 9)
        assert len(sp.train) == 70  # floor(0.7 * 101)
        assert len(sp.test) == 31
        assert sorted(sp.train + sp.test) == list(range(101))

    def test_deterministic_for_seed(self):
        ds = generate_synthetic_formulas(50, 4, 1)
        a = train_test_split(ds, 0.8, 42)
        b = train_test_split(ds, 0.8, 42)
        assert a.train == b.train and a.test == b.test
        c = train_test_split(ds, 0.8, 43)
        assert a.train != c.train

    def test_desk_scale_split_sizes(self):
        ds = generate_synthetic_formulas(4598, 87, 0)
        sp = train_test_split(ds, 0.8, 0)
        assert len(sp.train) == 3678
        assert len(sp.test) == 920

    def test_invalid_fraction_rejected(self):
        ds = generate_synthetic_formulas(10, 4, 0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                train_test_split(ds, bad, 0)

    def test_degenerate_split_rejected(self):
        # A fraction that would leave train or test empty is an error.
        ds = generate_synthetic_formulas(3, 4, 0)
        with pytest.raises(ValueError):
            train_test_split(ds, 0.01, 0)


class TestSyntheticGenerator:
    def test_shape_and_composition(self):
        ds = generate_synthetic_formulas(20, 6, 7)
        assert ds.features.shape == (20, 6)
        assert ds.composition
        assert np.allclose(ds.features.sum(axis=1), 100.0, atol=1e-9)
        assert np.all(ds.features > 0.0)
        assert ds.feature_names == tuple(f"x{i}" for i in range(6))

    def test_labels_are_three_classes(self):
        ds = generate_synthetic_formulas(200, 4, 3)
        assert set(np.unique(ds.labels)) <= {0, 1, 2}
        assert ds.c == 3

    def test_deterministic(self):
        a = generate_synthetic_formulas(30, 5, 11)
        b = generate_synthetic_formulas(30, 5, 11)
        assert np.array_equal(
            a.features.view(np.uint64), b.features.view(np.uint64)
        )
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic_formulas(30, 5, 12)
        assert not np.array_equal(a.features, c.features)

    def test_desk_scale_class_balance_pinned(self):
        # Thresholds at the 60th and 85th score percentiles produce a fixed
        # 60/25/15 class composition; exact counts are pinned for seed 0.
        ds = generate_synthetic_formulas(4598, 87, 0)
        assert np.bincount(ds.labels, minlength=3).tolist() == [2759, 1149, 690]

    def test_class_fractions_near_nominal(self):
        ds = generate_synthetic_formulas(2000, 4, 99)
        counts = np.bincount(ds.labels, minlength=3)
        # Quantile thresholds make these fractions structural, not sampling
        # noise, so tolerances only absorb ties at the threshold.
        assert abs(counts[0] / 2000 - 0.60) < 0.02
        assert abs(counts[1] / 2000 - 0.25) < 0.02
        assert abs(counts[2] / 2000 - 0.15) < 0.02

    def test_too_few_features_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_formulas(10, 3, 0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_formulas(0, 4, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=120),
        p=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_rows_always_sum_to_hundred(self, n, p, seed):
        ds = generate_synthetic_formulas(n, p, seed)
        assert np.allclose(ds.features.sum(axis=1), 100.0, atol=1e-9)
