"""The CSV loader: numpy's C reader for plain files, the per-cell loop for the rest.

Whichever path a file takes, `load_csv` must return what the per-cell loop
alone returned before (`helpers.reference_load_csv`): the same feature bits,
labels and names, or a ValueError with the same message.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest import dataset
from detforest.dataset import Dataset, load_csv, save_csv
from helpers import reference_load_csv


def _outcome(load, path):
    try:
        ds = load(path, "label")
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return ds.features.shape, ds.features.view(np.uint64).tolist(), ds.labels.tolist(), ds.feature_names


def _check_same_as_reference(path):
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)


# Cells float() accepts.  The odd ones only float() accepts, or they hold a
# character that keeps a file off numpy's reader.
PLAIN_FLOATS = st.one_of(
    st.floats(min_value=0, allow_infinity=False).map(repr),
    st.integers(0, 10**20).map(str),
    st.sampled_from(["1e5", "+2.5E-3", "0.", ".5", "-0.0", "1e400", "inf", "-Infinity", "INF"]),
    st.sampled_from([" 1.5 ", "\t2\t", "\u20033\xa0", "\x0b4\x0c"]),
)
ODD_FLOATS = st.sampled_from(["1_000", "\u0663", "4\x1c", "\x1f5", "\x1c5\u2003"])
NOISE_CELLS = st.one_of(
    st.text(alphabet="0123456789.e+-_ \t\u2003\u0663\x1c\x00\"\r\n", max_size=6),
    st.sampled_from(["", "nan", "-NaN", "abc", '"1"', '"1,5"', "1\x00", "\r"]),
)
FEATURE_CELLS = {
    "plain": PLAIN_FLOATS,
    "odd": st.one_of(PLAIN_FLOATS, ODD_FLOATS),
    "noisy": st.one_of(PLAIN_FLOATS, ODD_FLOATS, NOISE_CELLS),
}
LABEL_CELLS = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["a", "b", " 1", "1.0", "x y", "", '"2"', " ", "\x1c", "\x00"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)


@st.composite
def csv_texts(draw) -> str:
    """CSV text: mostly well-formed rows, with noisy cells, odd lines and line ends."""
    ncol = draw(st.integers(1, 4))
    label_at = draw(st.integers(0, ncol - 1))
    header = [f"f{i}" for i in range(ncol)]
    header[label_at] = "label"
    if draw(st.booleans()):
        header[(label_at + 1) % ncol] = '"a,""b"""'  # one quoted name, unless it is the label's
        header[label_at] = "label"
    feature = FEATURE_CELLS[draw(st.sampled_from(sorted(FEATURE_CELLS)))]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["row"] * 12 + ["ragged", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \u2003"])))
        else:
            n = ncol if kind == "row" else draw(st.integers(0, ncol + 1))
            lines.append(",".join(draw(LABEL_CELLS if i == label_at else feature) for i in range(n)))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    ends = [draw(st.sampled_from([end] * 20 + ["\r", "\n\n", "\r\n\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + e for line, e in zip(lines, ends))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), bad_utf8=st.booleans())
def test_same_result_as_cell_loop(csv_path, text, bad_utf8):
    data = text.encode("utf-8")
    if bad_utf8:
        data = data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :]
    csv_path.write_bytes(data)
    _check_same_as_reference(csv_path)


# (name, file text, whether numpy's C reader parses it)
CASES = [
    ("plain", "a,b,label\n1.5,2,0\n3,4e-3,1\n", True),
    ("label-first", "label,a,b\nx,1,2\ny,3,4\n", True),
    ("label-only", "label\n1\n  \n", True),
    ("crlf", "a,label\r\n1,0\r\n2,1\r\n", True),
    ("no-final-newline", "a,label\n1,0\n2,1", True),
    ("quoted-header", '"a,b",label\n1,0\n', True),
    ("spaces-and-tabs", "a,b,label\n 1 ,\t2\t, x\n", True),
    ("unicode-space", "a,label\n\u20031\u2003,0\n", True),
    ("inf-and-signs", "a,b,label\ninf,+Infinity,0\n-0.0,1E+2,1\n", True),
    ("float-labels", "a,label\n1,1.0\n2,1\n", True),
    ("label-above-int64", "a,label\n1,99999999999999999999\n2,0\n", True),
    ("largest-int64-label", "a,label\n1,9223372036854775807\n", True),
    ("other-line-breaks", "a,label\n1,x\u2028y\n2\u2029,\x85\n3,\x0c\n", True),
    ("quote-in-label", 'a,label\n1,"2"\n2,2\n', False),
    ("quote-in-cell", 'a,label\n"1.5",0\n', False),
    ("quoted-label-above-int64", 'a,label\n1,"99999999999999999999"\n2,0\n', False),
    ("nul", "a,label\n1,a\x00\n", False),
    ("bare-cr", "a,label\n1,0\r2,1\n", False),
    ("bare-cr-at-end", "a,label\n1,0\r", False),
    ("blank-line", "a,label\n1,0\n\n2,1\n", False),
    ("blank-crlf-line", "a,label\r\n1,0\r\n\r\n", False),
    ("leading-blank-line", "a,label\n\n1,0\n", False),
    ("separator-char", "a,label\n1\x1c,0\n", False),
    ("no-rows", "a,label\n", False),
    ("underscore", "a,label\n1_000,0\n", False),
    ("arabic-digit", "a,label\n\u0663,0\n", False),
    ("non-numeric", "a,label\n1,0\nx,1\n", False),
    ("empty-cell", "a,b,label\n1,,0\n", False),
    ("nan", "a,label\n1,0\nnan,1\n", False),
    ("ragged", "a,b,label\n1,2,0\n1,0\n", False),
    ("extra-cell", "a,label\n1,0,5\n", False),
    ("whitespace-row", "a,label\n1,0\n \n", False),
]


@pytest.mark.parametrize(
    "text, c_path", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_case_matches_cell_loop(tmp_path, text, c_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_same_as_reference(path)
    assert (dataset._load_plain(path, "label") is not None) == c_path


def test_plain_file_never_reaches_cell_loop(tmp_path, monkeypatch):
    ds = Dataset(np.array([[5e-324, 1e308, 3.0], [0.1, 0.0, 2.5]]), np.array([2, 0]), ["a,b", 'c"d', "e"])
    path = tmp_path / "data.csv"
    save_csv(ds, path, label_column="y")

    def refuse(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    monkeypatch.setattr(dataset, "_load_cells", refuse)
    back = load_csv(path, "y")
    assert np.array_equal(back.features.view(np.uint64), ds.features.view(np.uint64))
    assert back.labels.tolist() == [2, 0] and back.feature_names == ds.feature_names
    assert back.features.flags.c_contiguous


def test_scan_reads_past_its_chunk(tmp_path, monkeypatch):
    # A "\r\n" split across two chunks is a line end; a later quote is seen.
    monkeypatch.setattr(dataset, "_SCAN_CHARS", 7)
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,label\r\n1.25,0\r\n2.5,1\r\n")
    assert dataset._load_plain(path, "label") is not None
    path.write_bytes(b"a,label\r\n1.25,0\r\n2.5,1\r\n3,\"2\"\n")
    assert dataset._load_plain(path, "label") is None
    _check_same_as_reference(path)


def test_overlong_cell(tmp_path):
    # csv.reader refuses a cell over csv.field_size_limit() (131072)
    # characters and numpy's reader does not, so a line over that limit is
    # not plain: a plain file and any other file fail with the same error.
    cell = "0" * 200_000 + "1"
    path = tmp_path / "data.csv"
    for label in ("0", '"0"'):
        path.write_text(f"a,label\n{cell},{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="field larger than field limit"):
            load_csv(path, "label")


@pytest.mark.parametrize("scan_chars", [1000, 1 << 20])
def test_line_over_field_limit_is_not_plain(tmp_path, monkeypatch, scan_chars):
    # A line of exactly the limit is plain; one character more goes to the
    # per-cell loop, which still reads it (its cells are within the limit).
    # Lines longer than a chunk carry their length across chunks.
    monkeypatch.setattr(dataset, "_SCAN_CHARS", scan_chars)
    limit = csv.field_size_limit()
    path = tmp_path / "data.csv"
    for extra, c_path in ((0, True), (1, False)):
        row = "0" * (limit - 3 + extra) + "1,0"
        path.write_text(f"a,label\n1,0\n{row}\n2,1\n", encoding="utf-8")
        assert (dataset._load_plain(path, "label") is not None) == c_path
        _check_same_as_reference(path)
        assert load_csv(path, "label").features.tolist() == [[1.0], [1.0], [2.0]]
