"""Config, split and data files: each either loads valid or raises ValueError.

Like the forest loader tests in tests/test_loader.py, these mutate one
field, line or character of a valid file and require either a valid result
or a ValueError, after which the CLI exits with code 2 and prints
``error: ...`` with no traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detforest
from detforest import ForestConfig, NodeSizeSemantics, TieBreak, generate_synthetic_formulas, load_csv, save_csv
from detforest.cli import SPLIT_SCHEMA, _read_split_file, main, parse_config_text, render_config
from detforest.prng import TRIAL_STREAM

N_ROWS = 8


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    save_csv(generate_synthetic_formulas(N_ROWS, 4, 2), d / "data.csv")
    return d


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def _assert_exit_2(argv) -> None:
    rc, err = _main(argv)
    assert rc == 2 and err.startswith("error: ")


def _mutate_char(text: str, at: int, char: str) -> str:
    """Replace the character at `at` (wrapped to the text) with `char`; "" deletes it."""
    at %= len(text)
    return text[:at] + char + text[at + 1 :]


ODD_CHARS = st.sampled_from(["", "0", "9", "-", ".", "[", "]", "{", "}", '"', ",", ":", "=", "#", " ", "\n", "x", "٣"])

# --------------------------------------------------------------------------
# Config files


VALID_CONFIG = render_config(
    ForestConfig(
        n_trees=3, mtry=2, min_node_size=2, node_size_semantics=NodeSizeSemantics.MIN_LEAF,
        max_depth=4, tie_break=TieBreak.FIRST_IN_DRAW_ORDER, bootstrap=False,
        sample_fraction=0.5, seed=7,
    )
)
CONFIG_LINES = VALID_CONFIG.splitlines()
KEY_LINES = [i for i, line in enumerate(CONFIG_LINES) if "=" in line and not line.startswith("#")]
ODD_VALUES = ["", "0", "-1", "1.5", "nan", "inf", "1e-400", "true", "none", "sqrt", "all", "min-leaf",
              "1_0", "٣", "9" * 5000, str(2**64), "= 1", "1 # note"]


def _mutate_config_line(i: int, how: str, value: str) -> str:
    lines = list(CONFIG_LINES)
    key = lines[i].split("=")[0].strip()
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "key":
        lines[i] = f"{value} = 1"
    else:
        lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(
        st.builds(
            _mutate_config_line,
            st.sampled_from(KEY_LINES),
            st.sampled_from(["delete", "duplicate", "key", "value"]),
            st.sampled_from(ODD_VALUES),
        ),
        st.builds(_mutate_char, st.just(VALID_CONFIG), st.integers(0, len(VALID_CONFIG)), ODD_CHARS),
    )
)
def test_mutated_config_loads_valid_or_exits_2(files, text):
    path = files / "config.txt"
    path.write_text(text, encoding="utf-8")
    try:
        cfg, _ = parse_config_text(text)
    except ValueError:
        _assert_exit_2(["audit-config", "--config", path])
        return
    assert parse_config_text(render_config(cfg))[0] == cfg
    try:
        cfg.resolved_mtry(4)
    except ValueError:
        _assert_exit_2(["run", "--config", path, "--rows", N_ROWS, "--features", 4,
                        "--out-dir", files / "out"])


# --------------------------------------------------------------------------
# Split files

VALID_SPLIT = {"schema": SPLIT_SCHEMA, "train": [3, 0, 6, 1, 7, 4], "test": [2, 5]}
SPLIT_PATHS = [("schema",), ("train",), ("test",)] + [
    (key, i) for key in ("train", "test") for i in range(len(VALID_SPLIT[key]))
]
DELETE = "delete"
ODD_JSON = [DELETE, True, False, None, 1.0, "1", [], {}, [0], -1, 8, 2**70, 1e400, "detforest.split.v2"]


def _mutate_split(path: tuple, value) -> str:
    doc = copy.deepcopy(VALID_SPLIT)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _is_valid_split(split) -> bool:
    train, test = split.train, split.test
    return all(type(i) is int for i in train + test) and sorted(train + test) == list(range(N_ROWS))


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(
        st.builds(_mutate_split, st.sampled_from(SPLIT_PATHS), st.sampled_from(ODD_JSON) | st.integers(-2, 9)),
        st.builds(
            _mutate_char, st.just(json.dumps(VALID_SPLIT)), st.integers(0, len(json.dumps(VALID_SPLIT))), ODD_CHARS
        ),
    )
)
def test_mutated_split_loads_valid_or_exits_2(files, text):
    path = files / "split.json"
    path.write_text(text, encoding="utf-8")
    try:
        split = _read_split_file(path, N_ROWS)
    except ValueError:
        _assert_exit_2(["run", "--preset", "table3", "--data", files / "data.csv", "--split", path,
                        "--out-dir", files / "out"])
        return
    assert _is_valid_split(split)


def test_valid_files_load(files):
    assert parse_config_text(VALID_CONFIG)[0].seed == 7
    path = files / "valid-split.json"
    path.write_text(json.dumps(VALID_SPLIT), encoding="utf-8")
    split = _read_split_file(path, N_ROWS)
    assert (split.train, split.test) == ((3, 0, 6, 1, 7, 4), (2, 5))


# --------------------------------------------------------------------------
# Malformed JSON files through the CLI, in a subprocess so that a traceback
# would show on stderr.

DEEP = "[" * 200000 + "]" * 200000


def _forest_text() -> str:
    ds = generate_synthetic_formulas(24, 4, 1)
    forest = detforest.fit(ds, detforest.train_test_split(ds, 0.75, 1), ForestConfig(n_trees=1, seed=1))
    return detforest.forest_to_json(forest)


SPLIT_CASES = {
    "no-train": '{"schema": "detforest.split.v1", "test": [0, 1, 2, 3, 4, 5, 6, 7]}',
    "no-test": '{"schema": "detforest.split.v1", "train": [0, 1, 2, 3, 4, 5, 6, 7]}',
    "bool-index": '{"schema": "detforest.split.v1", "train": [0, true, 2, 3, 4, 5], "test": [6, 7]}',
    "float-index": '{"schema": "detforest.split.v1", "train": [0, 1.0, 2, 3, 4, 5], "test": [6, 7]}',
    "string-index": '{"schema": "detforest.split.v1", "train": [0, "1", 2, 3, 4, 5], "test": [6, 7]}',
    "train-string": '{"schema": "detforest.split.v1", "train": "012345", "test": [6, 7]}',
    "nested-index": '{"schema": "detforest.split.v1", "train": [0, [1], 2, 3, 4, 5], "test": [6, 7]}',
    "deep-train": '{"schema": "detforest.split.v1", "train": ' + DEEP + ', "test": [6, 7]}',
}


def _run_cli(argv) -> subprocess.CompletedProcess:
    src = str(Path(detforest.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", "import sys; from detforest.cli import main; sys.exit(main())", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )


def _assert_clean_exit_2(proc) -> None:
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_bad_split_file_exits_2(files, tmp_path, name):
    path = tmp_path / "split.json"
    path.write_text(SPLIT_CASES[name], encoding="utf-8")
    with pytest.raises(ValueError):
        _read_split_file(path, N_ROWS)
    proc = _run_cli(["run", "--preset", "table3", "--data", files / "data.csv", "--split", path,
                     "--out-dir", tmp_path / "out"])
    _assert_clean_exit_2(proc)
    assert proc.stdout == ""


@pytest.mark.parametrize("n_trees", [TRIAL_STREAM + 1, 2**64])
def test_n_trees_reaching_a_reserved_stream_exits_2(files, tmp_path, n_trees):
    path = tmp_path / "config.txt"
    path.write_text(f"n_trees = {n_trees}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="n_trees"):
        parse_config_text(path.read_text(encoding="utf-8"))
    proc = _run_cli(["run", "--config", path, "--data", files / "data.csv", "--out-dir", tmp_path / "out"])
    _assert_clean_exit_2(proc)
    assert proc.stdout == ""


def test_deeply_nested_forest_config_exits_2(tmp_path):
    doc = json.loads(_forest_text())
    text = json.dumps({**doc, "config": None}).replace('"config": null', '"config": ' + DEEP)
    path = tmp_path / "forest.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="nested too deeply"):
        detforest.forest_from_json(text)
    proc = _run_cli(["export-tree", "--forest", path])
    _assert_clean_exit_2(proc)
    assert proc.stdout == ""


# --------------------------------------------------------------------------
# Data files

# (name, file text, a fragment of the error message); the quoted cell sends
# its file through the per-cell loop instead of numpy's reader.
BAD_CSV_CASES = [
    ("duplicate-label", "x,label,label\n1,0,0\n2,1,1\n", "'label' appears 2 times in header"),
    ("duplicate-label-quoted-cell", 'label,x,label,label\n0,"1",0,0\n1,2,1,1\n', "'label' appears 3 times in header"),
    ("label-only", "label\n0\n1\n", "no feature column"),
    # int64 holds the labels: one above 2**63 - 1 ended in an OverflowError.
    ("label-above-int64", "a,b,label\n1,2,99999999999999999999\n3,4,0\n", "at row 1, column 'label' is above"),
    ("label-above-int64-quoted", 'a,b,label\n1,2,"99999999999999999999"\n3,4,0\n', "at row 1, column 'label' is above"),
    ("label-2-to-the-63", "a,label\n1,9223372036854775807\n2,9223372036854775808\n", "'9223372036854775808' at row 2"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in BAD_CSV_CASES], ids=[c[0] for c in BAD_CSV_CASES])
def test_bad_data_file_exits_2(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_csv(path, "label")
    for argv in (
        ["split", "--data", path, "--out", tmp_path / "split.json"],
        ["run", "--preset", "table3", "--data", path, "--out-dir", tmp_path / "out"],
    ):
        proc = _run_cli(argv)
        _assert_clean_exit_2(proc)
        assert message in proc.stderr
        assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]
