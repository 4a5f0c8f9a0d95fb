"""The forest loader: a document either loads into a valid forest or raises ValueError.

Forest files are untrusted input.  These tests mutate one field of a small
valid document (a child index, a count, n_samples, gini, a deleted key, a
wrong JSON type, NaN or Infinity) and check that the loader either rejects
it with ValueError or returns a forest that meets every tree invariant and
writes the same document back.  Unknown and duplicate keys are rejected.  A
rejected file makes the CLI exit with code 2 and print no traceback.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detforest
from detforest import (
    ForestConfig,
    Internal,
    canonicalize,
    fit,
    forest_from_json,
    forest_to_json,
    generate_synthetic_formulas,
    gini,
    iter_nodes,
    train_test_split,
)

from helpers import warm_traced_peak


def _valid_doc() -> dict:
    # 3 classes, 4 features, two trees of depth 2 with impure leaves.
    ds = generate_synthetic_formulas(24, 4, 1)
    forest = fit(ds, train_test_split(ds, 0.75, 1), ForestConfig(n_trees=2, max_depth=2, seed=1))
    return json.loads(forest_to_json(forest))


VALID = _valid_doc()


def _load(doc) -> detforest.Forest:
    # Through the text, as from a file: json writes and reads NaN and Infinity.
    return forest_from_json(json.dumps(doc))


def _paths(value, path=()):
    """Every key or index path below `value`, the containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


PATHS = list(_paths(VALID))
NODE_PATHS = [p for p in PATHS if p[0] == "trees" and len(p) >= 4]
OTHER_PATHS = [p for p in PATHS if p not in NODE_PATHS]

DELETE, PLUS_ONE, MINUS_ONE, NEXT_FLOAT = "delete", "+1", "-1", "next float"
ODD_VALUES = [math.nan, math.inf, -math.inf, None, True, False, "1", [], {}, [0, 0, 0], 1e400]


def _mutate(doc: dict, path: tuple, mutation) -> dict:
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if mutation == DELETE:
        del parent[key]
    elif mutation in (PLUS_ONE, MINUS_ONE) and type(old) is int:
        parent[key] = old + (1 if mutation == PLUS_ONE else -1)
    elif mutation == NEXT_FLOAT and type(old) is float:
        parent[key] = math.nextafter(old, math.inf)
    elif mutation not in (PLUS_ONE, MINUS_ONE, NEXT_FLOAT):
        parent[key] = mutation
    return doc


def assert_valid_forest(forest: detforest.Forest) -> None:
    """Every invariant the loader promises, checked with the test's own walk."""
    assert len(forest.trees) == forest.config.n_trees
    forest.config.resolved_mtry(forest.n_features)
    for tree in forest.trees:
        nodes = tree.nodes
        order, depths, stack = [], {}, [(0, 0)]
        while stack:
            i, depth = stack.pop()
            assert i not in depths, "node reached twice"
            order.append(i)
            depths[i] = depth
            node = nodes[i]
            if isinstance(node, Internal):
                stack += [(node.right, depth + 1), (node.left, depth + 1)]
        assert order == list(range(len(nodes))), "nodes are not one preorder walk"
        for k, (node, depth) in enumerate(iter_nodes(tree)):
            assert node is nodes[k] and depth == depths[k]
            counts = node.class_counts
            assert len(counts) == forest.n_classes and min(counts) >= 0 and sum(counts) >= 1
            if isinstance(node, Internal):
                assert node.left == k + 1
                left, right = nodes[node.left], nodes[node.right]
                assert tuple(a + b for a, b in zip(left.class_counts, right.class_counts)) == counts
                assert 0 <= node.feature < forest.n_features
                assert math.isfinite(node.threshold)


def test_valid_document_loads_and_round_trips():
    forest = _load(VALID)
    assert_valid_forest(forest)
    assert json.loads(forest_to_json(forest)) == VALID


@settings(max_examples=200, deadline=None)
@given(
    path=st.one_of(st.sampled_from(NODE_PATHS), st.sampled_from(OTHER_PATHS)),
    mutation=st.one_of(
        st.sampled_from([DELETE, PLUS_ONE, MINUS_ONE, NEXT_FLOAT]),
        st.integers(-2, 8),
        st.sampled_from(ODD_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
def test_one_mutated_field_loads_valid_or_raises_value_error(path, mutation):
    doc = _mutate(VALID, path, mutation)
    try:
        forest = _load(doc)
    except ValueError:
        return
    assert_valid_forest(forest)
    # Nothing the loader accepts is dropped: a node's n_samples and gini
    # are not kept, so they must equal what the writer computes from counts.
    assert json.loads(forest_to_json(forest)) == doc


# Hand-built one-tree documents, each wrong in one way:
# (name, nodes, a fragment of the error message).
def _leaf(counts):
    return {"n_samples": sum(counts), "class_counts": counts, "gini": gini(tuple(counts))}


def _split(counts, left, right):
    return {**_leaf(counts), "feature": 0, "threshold": 0.5, "left": left, "right": right}


L10, L01 = _leaf([1, 0]), _leaf([0, 1])
BAD_TREES = [
    # node 2 is the right child of node 0 and the left child of node 1
    ("shared-node", [_split([2, 1], 1, 2), _split([1, 1], 2, 3), L10, L01], "node 2 is reached twice"),
    ("orphan", [_split([1, 1], 1, 2), L10, L01, L10], "node 3 is not reached"),
    ("cycle", [_split([1, 1], 1, 2), L10, _split([0, 1], 3, 2), L01], "node 2 has children 3, 2"),
    ("right-before-left", [_split([1, 1], 2, 1), L10, L01], "node 1 is not reached"),
    ("missing-gini", [_split([1, 1], 1, 2), {"n_samples": 1, "class_counts": [1, 0]}, L01], "gini"),
    ("empty-leaf", [_leaf([0, 0])], "n_samples 0"),
    ("internal-n-samples", [{**_split([1, 1], 1, 2), "n_samples": 3}, L10, L01], "node 0 has n_samples 3"),
    ("internal-counts", [_split([2, 1], 1, 2), L10, L01], "not the sum of its children"),
    ("wrong-gini", [{**_split([1, 1], 1, 2), "gini": 0.5000000000000001}, L10, L01], "stores gini"),
    ("negative-count", [{"n_samples": 1, "class_counts": [2, -1], "gini": 0.0}], "class counts"),
    ("nan-gini", [{**L10, "gini": math.nan}], "stores gini nan"),
    ("string-count", [{**L10, "class_counts": "10"}], "class count must be an integer"),
    ("node-is-list", [[1, 0]], "malformed forest document"),
    # Fits count rows exactly in float64; canonicalize overflowed on 10**400.
    ("huge-n-samples", [_split([10**400, 1], 1, 2), _leaf([10**400, 0]), L01], "n_samples 10000"),
    ("n-samples-above-2-to-the-53", [_leaf([2**53 + 1, 0])], f"n_samples {2**53 + 1}"),
]


def _one_tree_doc(nodes) -> dict:
    doc = copy.deepcopy(VALID)
    doc.update(n_features=1, n_classes=2, trees=[{"nodes": nodes}])
    doc["config"].update(n_trees=1, mtry=None)
    return doc


def test_hand_built_valid_tree_loads():
    # The builders above make a valid tree when nothing is wrong.
    forest = _load(_one_tree_doc([_split([1, 1], 1, 2), L10, L01]))
    assert_valid_forest(forest)


def test_largest_exact_count_loads():
    forest = _load(_one_tree_doc([_leaf([2**53, 0])]))
    assert_valid_forest(forest)
    assert canonicalize(forest.trees[0])[0].class_counts == (2**53, 0)


@pytest.mark.parametrize("nodes, message", [b[1:] for b in BAD_TREES], ids=[b[0] for b in BAD_TREES])
def test_malformed_tree_rejected(nodes, message):
    with pytest.raises(ValueError, match=message):
        _load(_one_tree_doc(nodes))


# Whole documents wrong in one field: (name, path, mutation).
BAD_FIELDS = [
    ("no-config-key", ("config", "seed"), DELETE),
    ("n-features-string", ("n_features",), "4"),
    ("config-list", ("config",), []),
    ("bootstrap-string", ("config", "bootstrap"), "yes"),
    ("trees-dict", ("trees",), {"nodes": []}),
    ("no-nodes-key", ("trees", 0, "nodes"), DELETE),
    ("n-trees-float", ("config", "n_trees"), 2.0),
    ("mtry-above-features", ("config", "mtry"), 5),
    ("huge-threshold", ("trees", 0, "nodes", 0, "threshold"), 10**400),
    # Objects shaped like a tree document where no tree belongs.
    ("config-is-a-tree", ("config",), VALID["trees"][0]),
    ("class-counts-are-a-tree", ("trees", 0, "nodes", 0, "class_counts"), VALID["trees"][0]),
    ("tree-nodes-object", ("trees", 0), {"nodes": {}}),
]


@pytest.mark.parametrize(
    "path, mutation", [f[1:] for f in BAD_FIELDS], ids=[f[0] for f in BAD_FIELDS]
)
def test_malformed_field_rejected(path, mutation):
    with pytest.raises(ValueError):
        _load(_mutate(VALID, path, mutation))


def _with_key(path: tuple, key: str, value) -> dict:
    doc = copy.deepcopy(VALID)
    parent = doc
    for step in path:
        parent = parent[step]
    parent[key] = value
    return doc


# Each object has exactly the keys the writer emits for it, so a key it
# never writes is an error, not a silently ignored typo:
# (name, path to the object, key, value).
LEAF = next(i for i, nd in enumerate(VALID["trees"][0]["nodes"]) if "feature" not in nd)
UNKNOWN_KEYS = [
    ("document", (), "note", "x"),
    ("config-typo", ("config",), "max_depht", 3),
    ("tree", ("trees", 0), "note", "x"),
    ("leaf-threshold", ("trees", 0, "nodes", LEAF), "threshold", 0.5),
    ("node-note", ("trees", 0, "nodes", 0), "note", "x"),
]


@pytest.mark.parametrize("path, key, value", [u[1:] for u in UNKNOWN_KEYS], ids=[u[0] for u in UNKNOWN_KEYS])
def test_unknown_key_rejected(path, key, value):
    with pytest.raises(ValueError, match=f"has keys .*'{key}'"):
        _load(_with_key(path, key, value))


# A key given twice in one object, where json keeps the last value:
# (name, the text before the first key of the object, key, first value).
DUPLICATE_KEYS = [
    ("document-n-classes", "", "n_classes", 2),
    ("config-seed", '"config": ', "seed", 99),
    ("node-gini", '"nodes": [', "gini", 0.25),
]


def _with_duplicate(before: str, key: str, value) -> str:
    text = json.dumps(VALID)
    at = text.index(before + "{") + len(before) + 1
    return f"{text[:at]}{json.dumps(key)}: {json.dumps(value)}, {text[at:]}"


@pytest.mark.parametrize(
    "before, key, value", [d[1:] for d in DUPLICATE_KEYS], ids=[d[0] for d in DUPLICATE_KEYS]
)
def test_duplicate_key_rejected(before, key, value):
    text = _with_duplicate(before, key, value)
    assert json.loads(text) == VALID  # json alone keeps the last value
    with pytest.raises(ValueError, match=f"forest document has duplicate key '{key}'"):
        forest_from_json(text)


# The loader parses the text with json.loads, through read_json, and
# builds each tree in json's object hook, so it must reject what json.loads
# rejects, and what read_json adds to it: (name, document text).
TEXT = forest_to_json(_load(VALID))
DEEP = "[" * 200000 + "]" * 200000
BAD_TEXTS = [
    ("data-after-closing-brace", TEXT + ' {"trees": []}'),
    ("second-trees-key", TEXT[:-1] + ',"trees":[]}'),
    ("unterminated-tree-list", TEXT[:-2]),
    ("unterminated-object", TEXT[:-1]),
    ("trailing-comma-in-tree-list", TEXT[:-2] + ",]}"),
    ("utf-8-bom", "\ufeff" + TEXT),
    ("tree-nested-too-deeply", TEXT[:-2] + "," + DEEP + "]}"),
]


@pytest.mark.parametrize("text", [b[1] for b in BAD_TEXTS], ids=[b[0] for b in BAD_TEXTS])
def test_malformed_text_rejected(text):
    with pytest.raises(ValueError):
        forest_from_json(text)


def _trees_first(doc: dict) -> str:
    """doc with "trees" as its first key, indented, with \r\n line ends."""
    return json.dumps({"trees": doc["trees"], **doc}, indent=2).replace("\n", "\r\n")


def test_trees_before_the_header_loads_the_same_forest():
    text = _trees_first(VALID)
    assert text.startswith('{\r\n  "trees": [')
    assert forest_from_json(text) == _load(VALID)
    assert forest_to_json(forest_from_json(text)) == TEXT


def test_whitespace_around_the_document_loads():
    assert forest_from_json(" \t\r\n" + TEXT + "\n") == _load(VALID)


def test_loader_peak_is_under_half_the_parse():
    # json.loads built every node's dict before the first tree was made, and
    # a trees-first document was held until its header had been read.
    ds = generate_synthetic_formulas(600, 12, 0)
    forest = fit(ds, train_test_split(ds, 0.75, 0), ForestConfig(n_trees=20, seed=0))
    text = forest_to_json(forest)
    for doc in (text, _trees_first(json.loads(text))):
        assert warm_traced_peak(forest_from_json, doc) < warm_traced_peak(json.loads, doc) / 2


def _counts_objects(trees) -> dict:
    """Each distinct class-count tuple, with the ids of the objects holding
    it: one id means that every node with those counts holds the same object."""
    ids: dict = {}
    for tree in trees:
        for node in tree.nodes:
            ids.setdefault(node.class_counts, set()).add(id(node.class_counts))
    return ids


def test_equal_counts_are_one_object():
    ds = generate_synthetic_formulas(300, 6, 2)
    forest = fit(ds, train_test_split(ds, 0.75, 2), ForestConfig(n_trees=4, seed=2))
    # Within a fitted tree ...
    for tree in forest.trees:
        ids = _counts_objects([tree])
        assert len(ids) < len(tree.nodes)
        assert all(len(objects) == 1 for objects in ids.values())
    # ... and across a loaded forest.
    loaded = forest_from_json(forest_to_json(forest))
    assert loaded == forest
    assert all(len(objects) == 1 for objects in _counts_objects(loaded.trees).values())


CLI_CASES = {name: json.dumps(_one_tree_doc(nodes)) for name, nodes, _ in BAD_TREES[:6]}
CLI_CASES.update({name: json.dumps(_mutate(VALID, path, m)) for name, path, m in BAD_FIELDS[:4] + BAD_FIELDS[-3:]})
CLI_CASES.update({f"unknown-key-{u[0]}": json.dumps(_with_key(*u[1:])) for u in UNKNOWN_KEYS})
CLI_CASES.update({f"duplicate-key-{d[0]}": _with_duplicate(*d[1:]) for d in DUPLICATE_KEYS})
CLI_CASES.update({f"text-{name}": text for name, text in BAD_TEXTS})


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_export_tree_exits_2_without_traceback(name, tmp_path):
    path = tmp_path / "forest.json"
    path.write_text(CLI_CASES[name], encoding="utf-8")
    src = str(Path(detforest.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from detforest.cli import main; sys.exit(main())",
         "export-tree", "--forest", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
