"""Tests for dataset loading, synthesis, and splitting."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detforest
from detforest import (
    Dataset,
    dataset,
    generate_synthetic_formulas,
    load_csv,
    save_csv,
    train_test_split,
)
from detforest.dataset import SYNTH_BLOCK_VALUES, _quantile_linear

from helpers import reference_generate_synthetic_formulas, tiny_dataset, warm_traced_peak

SRC = str(Path(detforest.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)


def _block_edge_shapes() -> list[tuple[int, int]]:
    """(n, p) at the row-block edges; the last p makes every block one row."""
    shapes = []
    for p in (4, 87, SYNTH_BLOCK_VALUES + 1):
        rows = max(1, SYNTH_BLOCK_VALUES // p)
        shapes += [(n, p) for n in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 3}) if n >= 1]
    return shapes


BLOCK_EDGE_SHAPES = _block_edge_shapes()
SEEDS = (0, 1, 2**64 - 1)


def _same_bytes(a: Dataset, b: Dataset) -> bool:
    return a.features.tobytes() == b.features.tobytes() and a.labels.tobytes() == b.labels.tobytes()


def _avx512_group() -> str:
    """numpy's name for the AVX-512 dispatch group, as NPY_DISABLE_CPU_FEATURES takes it."""
    if np.lib.NumpyVersion(np.__version__) >= "2.4.0":
        return "X86_V4 AVX512_ICL AVX512_SPR"
    return "AVX512F AVX512_SKX"


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


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

    def test_uint64_label_above_int64_named_as_too_large(self):
        # The cast to int64 once came first, so 2**63 read as a negative label.
        with pytest.raises(ValueError, match=r"label 9223372036854775808 is above 2\*\*63 - 1"):
            Dataset(np.ones((2, 1)), np.array([0, 2**63], dtype=np.uint64), ["a"])
        ds = Dataset(np.ones((2, 1)), np.array([0, 2**63 - 1], dtype=np.uint64), ["a"])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 2**63 - 1]

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValueError) as exc:
            Dataset(
                np.array([[1.0], [np.nan]]), np.array([0, 1]), ["a"]
            )
        # Error message locates the offending cell for the user.
        assert "row" in str(exc.value)

    @pytest.mark.parametrize(
        "value, kind",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (-1e-300, "negative")],
    )
    def test_bad_value_message_names_first_cell_in_row_major_order(self, value, kind):
        feats = np.ones((4, 3))
        feats[3, 0] = value
        feats[2, 2] = value
        feats[2, 1] = value
        with pytest.raises(ValueError) as exc:
            Dataset(feats, np.zeros(4, dtype=np.int64), ["a", "b", "c"])
        assert str(exc.value) == f"{kind} feature value at row 2, column 'b'"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_wins_over_negative(self, value):
        feats = np.ones((3, 3))
        feats[1, 1] = -2.0
        feats[2, 2] = value
        with pytest.raises(ValueError) as exc:
            Dataset(feats, np.zeros(3, dtype=np.int64), ["a", "b", "c"])
        assert str(exc.value) == "non-finite feature value at row 2, column 'c'"

    def test_negative_zero_and_smallest_subnormal_accepted(self):
        ds = tiny_dataset([[-0.0, 1.0], [5e-324, 2.0]], [0, 1])
        assert ds.features[0, 0] == 0.0 and ds.features[0, 1] == 5e-324

    def test_valid_matrix_builds_no_n_by_p_temporary(self):
        # Two boolean n-by-p masks, the error path's, would take nbytes / 4.
        feats = generate_synthetic_formulas(20000, 87, 0).features.copy()
        labels = np.zeros(20000, dtype=np.int64)
        names = [f"x{i}" for i in range(87)]
        assert warm_traced_peak(Dataset, feats, labels, names) < feats.nbytes / 16

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ["a", "b"])

    def test_empty_labels_of_any_dtype_name_the_missing_rows(self):
        # np.array([]) is float64: the row count is checked before the dtype.
        with pytest.raises(ValueError, match="at least one row"):
            Dataset(np.zeros((0, 2)), np.array([]), ["a", "b"])

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.9, 1.9, 0.2, 1.5]),  # numpy would truncate to 0, 1, 0, 1
            np.array([0.0, 1.0, 0.0, 1.0]),
            np.array([False, True, False, True]),
            np.array(["0", "1", "0", "1"]),
            np.array([0, 1, 0, 1], dtype=object),
        ],
    )
    def test_labels_must_be_integers(self, labels):
        with pytest.raises(ValueError, match=f"labels must be integers, got dtype {labels.dtype}"):
            Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), labels, ["a"])

    @pytest.mark.parametrize(
        "features",
        [
            np.array([["1.5"], ["2"]]),  # numpy would parse the strings
            np.array([[True], [False]]),  # and read bools as 1 and 0
            np.array([[1.0 + 2.0j], [2.0 + 0.0j]]),  # and drop the imaginary part
            np.array([[1.0], [2.0]], dtype=object),
        ],
    )
    def test_features_must_be_integers_or_floats(self, features):
        with pytest.raises(ValueError, match=f"features must be integers or floats, got dtype {features.dtype}"):
            Dataset(features, np.array([0, 1]), ["a"])

    @pytest.mark.parametrize(
        "feature_dtype, label_dtype",
        [(np.int8, np.uint8), (np.uint16, np.int32), (np.float32, np.uint64), (np.float64, np.int64)],
    )
    def test_integer_and_float_dtypes_accepted(self, feature_dtype, label_dtype):
        ds = Dataset(np.array([[1, 2], [3, 4]], dtype=feature_dtype), np.array([1, 0], dtype=label_dtype), ["a", "b"])
        assert ds.features.dtype == np.float64 and ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

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


def _reference_ranks(column: list[float]) -> list[int]:
    """Each value's index among the column's sorted distinct values."""
    rank = {v: r for r, v in enumerate(sorted(set(column)))}
    return [rank[v] for v in column]


class TestRankKeys:
    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 0.5, 1.0, 1e308]), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_keys_are_dense_ranks(self, rows):
        ds = Dataset(np.array(rows), np.zeros(len(rows), dtype=np.int64), ["a", "b", "c"])
        keys = ds.rank_keys()
        assert keys.dtype == np.uint16 and keys.shape == (3, len(rows))
        assert not keys.flags.writeable
        for j in range(3):
            assert keys[j].tolist() == _reference_ranks(ds.features[:, j].tolist())

    def test_uint16_while_every_key_fits(self):
        # 65536 distinct values still fit 16 bits; one more needs 32, and
        # the switch keeps the keys of the columns before it.
        n = 65_537
        few = np.arange(n) % 3 * 1.5
        for distinct, dtype in ((n - 1, np.uint16), (n, np.uint32)):
            many = np.minimum(np.arange(n), distinct - 1) * 0.125
            ds = Dataset(np.column_stack([few, many]), np.zeros(n, dtype=np.int64), ["few", "many"])
            keys = ds.rank_keys()
            assert keys.dtype == dtype
            assert keys[0].tolist() == _reference_ranks(few.tolist())
            assert keys[1].tolist() == _reference_ranks(many.tolist())

    def test_keys_follow_the_feature_array(self):
        ds = tiny_dataset([[3.0, 1.0, 2.0], [0.0, 0.0, 1.0]], [0, 1, 0])
        keys = ds.rank_keys()
        assert ds.rank_keys() is keys
        assert keys.tolist() == [[2, 0, 1], [0, 0, 1]]
        other = np.array([[1.0, 5.0], [2.0, 4.0], [3.0, 3.0]])
        replaced = dataclasses.replace(ds, features=other)
        assert replaced.rank_keys().tolist() == [[0, 1, 2], [2, 1, 0]]
        assert ds.rank_keys() is keys
        ds.features = other[::-1]
        assert ds.rank_keys().tolist() == [[2, 1, 0], [0, 1, 2]]

    def test_keys_build_no_n_by_p_temporary(self):
        # The keys plus one column's temporaries (about 60 bytes a row): a
        # second copy of the keys, or any n-by-p temporary, would not fit.
        n, p = 20000, 87
        features = generate_synthetic_formulas(n, p, 0).features
        assert warm_traced_peak(dataset._rank_keys, features) < n * p * 2 + 100 * n


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

    def test_label_column_named_like_a_feature_rejected(self, tmp_path):
        # load_csv would refuse the file: the label column would appear twice.
        ds = generate_synthetic_formulas(5, 4, 0)
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="label column 'x0' is also a feature name"):
            save_csv(ds, path, label_column="x0")
        assert not path.exists()

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

    def test_string_labels_mapped_to_their_rank(self, tmp_path):
        # By first appearance these were [0, 1, 0, 2].
        path = tmp_path / "strs.csv"
        path.write_text("a,label\n1.0,spam\n2.0,ham\n3.0,spam\n4.0,eggs\n")
        ds = load_csv(path, "label")
        assert ds.labels.tolist() == [2, 1, 2, 0]

    def test_label_with_a_trailing_nul_is_its_own_class(self):
        # numpy's str dtype drops trailing NULs, so np.unique would merge
        # them. csv.reader returns such a cell from Python 3.11 on.
        assert dataset._map_labels(["a\x00", "a", "a\x00"], "label").tolist() == [1, 0, 1]

    @pytest.mark.parametrize("labels, ids", [
        (["-10", "-2", "-1"], [0, 1, 2]),
        # As strings "-1" < "-10" < "-2", and first appearance gives 0, 1, 2.
        (["-1", "-10", "-2", "-1"], [2, 0, 1, 2]),
    ])
    def test_negative_integer_labels_ranked_by_value(self, tmp_path, labels, ids):
        path = tmp_path / "neg.csv"
        path.write_text("a,label\n" + "".join(f"{i}.0,{label}\n" for i, label in enumerate(labels)))
        assert load_csv(path, "label").labels.tolist() == ids

    def test_integer_labels_with_gaps_mapped_to_their_rank(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,label\n1.0,0\n2.0,3\n3.0,0\n4.0,7\n")
        ds = load_csv(path, "label")
        assert ds.labels.tolist() == [0, 1, 0, 2]
        assert ds.c == 3

    def test_dense_integer_labels_kept(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("a,label\n1.0,2\n2.0,0\n3.0,1\n4.0,2\n")
        assert load_csv(path, "label").labels.tolist() == [2, 0, 1, 2]

    def test_integer_label_ids_do_not_depend_on_row_order(self, tmp_path):
        rows = [(1.0, 10**15), (2.0, 5), (3.0, 0), (4.0, 5), (5.0, 42)]
        ids = {}
        for name, order in (("fwd", rows), ("rev", rows[::-1])):
            path = tmp_path / f"{name}.csv"
            path.write_text("a,label\n" + "".join(f"{a},{label}\n" for a, label in order))
            ds = load_csv(path, "label")
            ids[name] = dict(zip(ds.features[:, 0].tolist(), ds.labels.tolist()))
        assert ids["fwd"] == ids["rev"] == {1.0: 3, 2.0: 1, 3.0: 0, 4.0: 1, 5.0: 2}

    def test_sparse_large_labels_make_two_classes(self, tmp_path):
        # Labels 0 and 10**15 made c = 10**15 + 1, and fitting on them
        # tried to allocate 7.11 PiB of class counts.
        path = tmp_path / "sparse.csv"
        path.write_text(f"a,b,label\n1,2,0\n3,4,{10**15}\n5,6,0\n7,8,{10**15}\n")
        ds = load_csv(path, "label")
        assert ds.c == 2
        assert ds.labels.tolist() == [0, 1, 0, 1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from detforest.cli import main; sys.exit(main())",
             "run", "--preset", "table3", "--trials", "1", "--data", str(path),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        # 1 is a failed preset expectation on this tiny data, not an error.
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr

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


class TestSyntheticBlocks:
    """The row-block generator against the whole-matrix reference, byte for byte."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n, p", BLOCK_EDGE_SHAPES)
    def test_matches_whole_matrix_reference(self, n, p, seed):
        assert _same_bytes(generate_synthetic_formulas(n, p, seed), reference_generate_synthetic_formulas(n, p, seed))

    @pytest.mark.parametrize("rows_per_block", [1, 7, 1000])
    def test_bytes_do_not_depend_on_block_size(self, monkeypatch, rows_per_block):
        n, p = 2003, 9
        monkeypatch.setattr(dataset, "SYNTH_BLOCK_VALUES", rows_per_block * p)
        assert _same_bytes(generate_synthetic_formulas(n, p, 5), reference_generate_synthetic_formulas(n, p, 5))

    def test_matches_reference_without_avx512_dispatch(self):
        # Blocking changes where each log call's vector tail falls; this
        # guards that no dispatch path handles a tail with other bits.
        group = _avx512_group()
        if not all(_cpu_features().get(name) for name in group.split()):
            pytest.skip(f"this CPU lacks numpy's AVX-512 group {group}")
        cases = [(n, p, seed) for n, p in BLOCK_EDGE_SHAPES for seed in SEEDS] + [(4598, 87, 0)]
        child = (
            "import json, sys\n"
            "from test_dataset import _cpu_features, _same_bytes\n"
            "from detforest import generate_synthetic_formulas\n"
            "from helpers import reference_generate_synthetic_formulas\n"
            "assert not any(_cpu_features()[name] for name in sys.argv[1].split()), 'group still dispatched'\n"
            "for n, p, seed in json.loads(sys.argv[2]):\n"
            "    a = generate_synthetic_formulas(n, p, seed)\n"
            "    assert _same_bytes(a, reference_generate_synthetic_formulas(n, p, seed)), (n, p, seed)\n"
        )
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": group, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
        proc = subprocess.run(
            [sys.executable, "-c", child, group, json.dumps(cases)], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

    def test_peak_memory_is_output_plus_one_block(self):
        # The whole-matrix reference peaks at 4.32 times the output.
        n, p = 20000, 87
        assert warm_traced_peak(generate_synthetic_formulas, n, p, 0) < 1.5 * n * p * 8
