"""Bagged forests of deterministic CART trees.

Tree k always consumes the PRNG stream derived from (seed, k): first the
bootstrap draw, then node-level candidate draws in preorder.  Because no
tree ever touches another tree's stream, the forest is bit-identical no
matter how many workers build it or in what order they finish.

Two aggregation modes exist because real packages disagree: majority vote
(each tree votes the argmax of its leaf distribution) and mean probability
(average the leaf distributions, then argmax).  With impure leaves the two
can legitimately classify a sample differently; with fully grown pure
leaves they coincide.

Forests serialize to a versioned JSON document holding each tree's
preorder node list as it is kept in memory, each node with its n_samples
and gini computed from its class counts, so the bytes are a stable
function of the forest alone.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .cart import (
    DecisionTree,
    Internal,
    Leaf,
    NodeSizeSemantics,
    TieBreak,
    gini,
    grow_tree,
)
from .dataset import Dataset, SplitIndices
from .prng import TRIAL_STREAM, RngState, bounded_uint_block, derive_stream, shuffle

FOREST_SCHEMA = "detforest.forest.v1"

# mtry sentinel: every candidate feature at every node.
MTRY_ALL = "all"


class Aggregation(Enum):
    MAJORITY_VOTE = "majority-vote"
    MEAN_PROBABILITY = "mean-probability"


@dataclass(frozen=True)
class ForestConfig:
    """Everything that determines a forest, including the seed.

    mtry may be an explicit count, the string "all" (use every feature at
    every node), or None (the usual default: floor(sqrt(p)), resolved once
    the feature count is known).
    """

    n_trees: int = 50
    mtry: int | str | None = None
    min_node_size: int = 1
    node_size_semantics: NodeSizeSemantics = NodeSizeSemantics.MIN_SPLIT
    max_depth: int | None = None
    tie_break: TieBreak = TieBreak.LOWEST_FEATURE_INDEX
    bootstrap: bool = True
    sample_fraction: float = 1.0
    aggregation: Aggregation = Aggregation.MEAN_PROBABILITY
    seed: int = 0

    def __post_init__(self) -> None:
        # Integers must be ints (`type(v) is int`, so not bool or float), as
        # the forest loader reads them, and enum fields must be enum members.
        # Tree k draws from stream k, so n_trees stops below the reserved ones.
        if type(self.n_trees) is not int or not 1 <= self.n_trees <= TRIAL_STREAM:
            raise ValueError(f"n_trees must be an integer in [1, {TRIAL_STREAM}], got {self.n_trees!r}")
        if not (self.mtry is None or self.mtry == MTRY_ALL or (type(self.mtry) is int and self.mtry >= 1)):
            raise ValueError(f"mtry must be an integer >= 1, {MTRY_ALL!r} or None, got {self.mtry!r}")
        if type(self.min_node_size) is not int or self.min_node_size < 1:
            raise ValueError(f"min_node_size must be an integer >= 1, got {self.min_node_size!r}")
        if self.max_depth is not None and (type(self.max_depth) is not int or self.max_depth < 1):
            raise ValueError(f"max_depth must be an integer >= 1 or None, got {self.max_depth!r}")
        if not isinstance(self.node_size_semantics, NodeSizeSemantics):
            raise ValueError(f"node_size_semantics must be a NodeSizeSemantics, got {self.node_size_semantics!r}")
        if not isinstance(self.tie_break, TieBreak):
            raise ValueError(f"tie_break must be a TieBreak, got {self.tie_break!r}")
        if type(self.bootstrap) is not bool:
            raise ValueError(f"bootstrap must be True or False, got {self.bootstrap!r}")
        if not isinstance(self.sample_fraction, float) or not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be a float in (0, 1], got {self.sample_fraction!r}")
        if not isinstance(self.aggregation, Aggregation):
            raise ValueError(f"aggregation must be an Aggregation, got {self.aggregation!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    def resolved_mtry(self, p: int) -> int:
        """Concrete candidate count for a dataset with p features.

        Raises ValueError unless it is in [1, p], so also for p < 1.
        """
        if self.mtry is None:
            mtry = max(1, math.isqrt(max(p, 0)))
        else:
            mtry = p if self.mtry == MTRY_ALL else self.mtry
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be an integer in [1, {p}], got {mtry!r}")
        return mtry


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    config: ForestConfig
    n_features: int
    n_classes: int


def bootstrap_sample(rng: RngState, n: int, replace: bool, fraction: float) -> tuple[np.ndarray, RngState]:
    """Draw round(fraction * n) indices from [0, n), as an intp array.

    With replacement: independent bounded draws, kept in draw order.
    Without replacement: the first k entries of a full shuffle of [0, n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = round(fraction * n)
    if k < 1:
        raise ValueError(f"sample size round({fraction} * {n}) is zero")
    if replace:
        draws, rng = bounded_uint_block(rng, np.full(k, n, dtype=np.uint64))
        return draws.astype(np.intp), rng
    perm, rng = shuffle(rng, n)
    return np.array(perm[:k], dtype=np.intp), rng


def _row_indices(
    rows, n: int, empty: str = "rows must be non-empty", what: str = "row indices"
) -> np.ndarray:
    """rows as an intp array of indices into n dataset rows, else ValueError.

    Each index must be an integer (not a bool) in [0, n): numpy would
    count a negative index from the end and truncate a float.
    """
    idx = np.asarray(rows)
    if idx.size == 0:  # checked first: np.asarray(()) is float64
        raise ValueError(empty)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"{what} must be a 1-D sequence of integers, got {idx.dtype} {idx.shape}")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"{what} fall outside the dataset")
    return idx.astype(np.intp, copy=False)


def fit(ds: Dataset, split: SplitIndices, cfg: ForestConfig, n_workers: int = 1) -> Forest:
    """Train cfg.n_trees trees on the training rows of the split.

    Tree k derives its own stream from (cfg.seed, k) and uses it for the
    bootstrap draw and then for growth, so the result is independent of
    worker count and completion order.  When bootstrap is off and the
    fraction is 1 no sampling happens at all and every tree sees the full
    training set (then only tie-breaking can distinguish the trees).
    """
    if type(n_workers) is not int or n_workers < 1:
        raise ValueError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    cfg.resolved_mtry(ds.p)  # an mtry above p fails before the first tree
    train = _row_indices(split.train, ds.n, "split has no training rows", "split training indices")
    skip_sampling = not cfg.bootstrap and cfg.sample_fraction == 1.0

    def build(k: int) -> DecisionTree:
        rng = derive_stream(cfg.seed, k)
        if skip_sampling:
            rows = train
        else:
            sample, rng = bootstrap_sample(rng, train.size, cfg.bootstrap, cfg.sample_fraction)
            rows = train[sample]
        return grow_tree(ds, rows, cfg, rng)

    # The pool starts one thread per submitted tree until max_workers.
    threads = min(n_workers, cfg.n_trees, os.cpu_count() or 1)
    if threads == 1:
        trees = [build(k) for k in range(cfg.n_trees)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(cfg.n_trees)))
    return Forest(trees=tuple(trees), config=cfg, n_features=ds.p, n_classes=ds.c)


def _check_matrix(f: Forest, features) -> np.ndarray:
    """features as a float64 (n, f.n_features) matrix of finite values, else ValueError.

    Only integer and float dtypes pass: numpy would drop an imaginary part,
    parse strings and read bools as 0 and 1.
    """
    x = np.asarray(features)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"features must be integers or floats, got dtype {x.dtype}")
    if x.ndim != 2 or x.shape[1] != f.n_features:
        raise ValueError(f"expected a 2-D matrix with {f.n_features} columns, got shape {x.shape}")
    x = x.astype(np.float64, copy=False)
    bad = ~np.isfinite(x)
    if bad.any():
        r, col = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature value {x[r, col]!r} at row {r}, column {col}")
    return x


def _aggregation(f: Forest, aggregation: Aggregation | None) -> Aggregation:
    """The given aggregation, or the forest's configured one for None."""
    if aggregation is None:
        return f.config.aggregation
    if not isinstance(aggregation, Aggregation):
        raise ValueError(f"aggregation must be an Aggregation or None, got {aggregation!r}")
    return aggregation


def _route(tree: DecisionTree, features: np.ndarray) -> list[tuple[Leaf, np.ndarray]]:
    """Each leaf that some row reaches, with those rows (`<= threshold` goes left).

    Splits the row indices down the tree, so each numpy call routes every
    row at one node, and a row lands in the leaf predict_leaf returns for it.
    """
    out: list[tuple[Leaf, np.ndarray]] = []
    stack = [(tree.nodes[0], np.arange(features.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out.append((node, rows))
            continue
        go_left = features[rows, node.feature] <= node.threshold
        for child, part in ((node.right, rows[~go_left]), (node.left, rows[go_left])):
            if part.size:
                stack.append((tree.nodes[child], part))
    return out


def _scores(f: Forest, features: np.ndarray, agg: Aggregation) -> np.ndarray:
    """Per-row votes (each tree's leaf class with the most samples, the
    lowest id on a tie) or mean leaf distributions, accumulated in tree
    order; np.argmax of a row then gives exact ties to the lowest class id."""
    if agg is Aggregation.MAJORITY_VOTE:
        scores = np.zeros((features.shape[0], f.n_classes), dtype=np.int64)
        for tree in f.trees:
            for leaf, rows in _route(tree, features):
                scores[rows, leaf.class_counts.index(max(leaf.class_counts))] += 1
        return scores
    scores = np.zeros((features.shape[0], f.n_classes))
    for tree in f.trees:
        dist = np.empty_like(scores)
        for leaf, rows in _route(tree, features):
            dist[rows] = leaf.class_distribution
        scores += dist
    scores /= len(f.trees)
    return scores


def predict_classes(
    f: Forest, features: np.ndarray, aggregation: Aggregation | None = None
) -> list[int]:
    """Predict a class id per row of a 2-D feature matrix, using the given
    (or the configured) aggregation; exact ties go to the lowest class id."""
    scores = _scores(f, _check_matrix(f, features), _aggregation(f, aggregation))
    return np.argmax(scores, axis=1).tolist()


def predict_proba(f: Forest, features: np.ndarray) -> np.ndarray:
    """The (n, c) mean leaf class distributions of a 2-D feature matrix,
    accumulated in tree order."""
    return _scores(f, _check_matrix(f, features), Aggregation.MEAN_PROBABILITY)


def accuracy(
    f: Forest,
    ds: Dataset,
    rows,
    aggregation: Aggregation | None = None,
) -> float:
    """Fraction of the given dataset rows classified correctly."""
    idx = _row_indices(rows, ds.n)
    predicted = predict_classes(f, ds.features[idx], aggregation)
    return float(np.mean(np.asarray(predicted) == ds.labels[idx]))


# --------------------------------------------------------------------------
# Serialization.  A tree is stored as its preorder node list, children by
# index, exactly as it is held in memory; json round-trips floats through
# repr, which is exact.  Loading checks every key, every field's JSON type
# and every tree invariant, so a document either loads into a valid forest
# or raises ValueError.


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _float(value, what: str) -> float:
    # float() of a larger JSON integer can overflow.
    if type(value) is float or (type(value) is int and abs(value) <= 2**1023):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


def _object(doc, keys: frozenset[str], what: str) -> dict:
    """doc if it is a JSON object with exactly these keys (TypeError if not an object)."""
    if not isinstance(doc, dict):
        raise TypeError(f"{what} is not a JSON object")
    if doc.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(doc)}, expected {sorted(keys)}")
    return doc


# A node document holds its node's fields plus n_samples and gini, which the
# writer computes from the class counts and the loader checks against them.
_LEAF_KEYS = frozenset({"class_counts", "n_samples", "gini"})
_SPLIT_KEYS = _LEAF_KEYS | {"feature", "threshold", "left", "right"}


def _tree_to_doc(tree: DecisionTree, ginis: dict) -> dict:
    """The tree's node list document.  ginis maps each class-count tuple met
    in one save to its gini, so each is computed once."""
    nodes = []
    for node in tree.nodes:
        counts = node.class_counts
        g = ginis.get(counts)
        if g is None:
            g = ginis[counts] = gini(counts)
        nd = {"class_counts": list(counts), "n_samples": sum(counts), "gini": g}
        if isinstance(node, Internal):
            nd.update(feature=node.feature, threshold=node.threshold, left=node.left, right=node.right)
        nodes.append(nd)
    return {"nodes": nodes}


def _tree_nodes(raw: list, shared: dict) -> tuple[Leaf | Internal, ...]:
    """The nodes that a tree document's node list describes, else ValueError.

    Every check is made but the two that need the forest's header, which
    _tree makes.  Each node's document is freed once read.  shared maps
    each class-count tuple met in one load to its first copy and its gini,
    so that equal counts are one object and each gini is computed once.
    """
    nodes: list[Leaf | Internal] = []
    for i, nd in enumerate(raw):
        raw[i] = None  # free each node's document once read: the load holds no other reference
        is_split = "feature" in nd
        _object(nd, _SPLIT_KEYS if is_split else _LEAF_KEYS, f"node {i}")
        counts = tuple(_int(v, f"node {i} class count") for v in nd["class_counts"])
        total = _int(nd["n_samples"], f"node {i} n_samples")
        g = _float(nd["gini"], f"node {i} gini")
        # best_split counts rows in float64, exact up to 2**53: no fit makes more.
        if not 1 <= total <= 2**53 or sum(counts) != total or min(counts) < 0:
            raise ValueError(f"node {i} has n_samples {total} and class counts {list(counts)}")
        counts, counts_gini = shared.get(counts) or shared.setdefault(counts, (counts, gini(counts)))
        if g != counts_gini:
            raise ValueError(f"node {i} stores gini {g!r}, not the gini of its class counts")
        if not is_split:
            nodes.append(Leaf(counts))
            continue
        feature = _int(nd["feature"], f"node {i} feature")
        threshold = _float(nd["threshold"], f"node {i} threshold")
        if not math.isfinite(threshold):
            raise ValueError(f"node {i} has non-finite threshold {threshold!r}")
        left, right = _int(nd["left"], f"node {i} left"), _int(nd["right"], f"node {i} right")
        nodes.append(Internal(feature, threshold, left, right, counts))

    # One walk from the root, left child first, must meet node k at step k
    # and every node once: this rejects shared children, cycles and orphans.
    stack = [0]
    for k, node in enumerate(nodes):
        if not stack or stack.pop() != k:
            raise ValueError(f"node {k} is not reached at its preorder position from the root")
        if isinstance(node, Internal):
            if not (k < node.left < len(nodes) and k < node.right < len(nodes)):
                raise ValueError(f"node {k} has children {node.left}, {node.right} out of order")
            pair = zip(nodes[node.left].class_counts, nodes[node.right].class_counts)
            if tuple(a + b for a, b in pair) != node.class_counts:
                raise ValueError(f"node {k} class counts are not the sum of its children's")
            stack += (node.right, node.left)
    if stack:
        raise ValueError(f"node {stack[-1]} is reached twice")
    return tuple(nodes)


def _tree(nodes, n_features: int, n_classes: int) -> DecisionTree:
    """The tree of an element of a forest document's tree list, else
    ValueError.  The loader's hook has made a tree document its nodes
    (_tree_nodes); this adds the checks that need the header."""
    if not isinstance(nodes, tuple):
        _object(nodes, frozenset({"nodes"}), "tree document")
        raise ValueError("tree document has no nodes")
    for i, node in enumerate(nodes):
        if len(node.class_counts) != n_classes:
            raise ValueError(f"node {i} has {len(node.class_counts)} class counts, not {n_classes}")
        if isinstance(node, Internal) and not 0 <= node.feature < n_features:
            raise ValueError(f"node {i} splits on feature {node.feature}, outside [0, {n_features})")
    return DecisionTree(nodes=nodes, n_features=n_features, n_classes=n_classes)


def _config_to_doc(cfg: ForestConfig) -> dict:
    return {k: v.value if isinstance(v, Enum) else v for k, v in vars(cfg).items()}


def _config_from_doc(doc: dict) -> ForestConfig:
    # ForestConfig rejects every field of the wrong type.  Each enum field's
    # default is a member, so its type reads the stored value back.
    values = dict(_object(doc, frozenset(field.name for field in fields(ForestConfig)), "config"))
    values["sample_fraction"] = _float(doc["sample_fraction"], "config sample_fraction")
    for field in fields(ForestConfig):
        if isinstance(field.default, Enum):
            values[field.name] = type(field.default)(doc[field.name])
    return ForestConfig(**values)


_FOREST_KEYS = frozenset({"schema", "n_features", "n_classes", "config", "trees"})


def forest_from_json(text: str) -> Forest:
    """The forest that text describes, else ValueError.

    json calls a hook on each object as soon as it is decoded, and the hook
    builds each tree document's nodes there and drops its node documents,
    so one tree's parsed document exists at a time, whatever the key order.
    The checks that need the header follow the parse.  Equal class-count
    tuples are one object across the forest.
    """
    shared: dict = {}

    def build(obj: dict):
        if len(obj) == 1 and isinstance(raw := obj.get("nodes"), list) and raw:
            return _tree_nodes(raw, shared)
        return obj

    try:
        doc = read_json(text, "forest document", build)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != FOREST_SCHEMA:
            raise ValueError(f"not a {FOREST_SCHEMA} document (schema={schema!r})")
        _object(doc, _FOREST_KEYS, "forest document")
        n_features = _int(doc["n_features"], "n_features")
        n_classes = _int(doc["n_classes"], "n_classes")
        config = _config_from_doc(doc["config"])
        config.resolved_mtry(n_features)  # rejects n_features < 1 and an mtry above it
        if not isinstance(doc["trees"], list):
            raise ValueError("forest document has no list of trees")
        if len(doc["trees"]) != config.n_trees:
            raise ValueError(f"document has {len(doc['trees'])} trees but config says {config.n_trees}")
        trees = tuple(_tree(nodes, n_features, n_classes) for nodes in doc["trees"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed forest document: {type(exc).__name__}: {exc}") from None
    return Forest(trees=trees, config=config, n_features=n_features, n_classes=n_classes)


def _json_chunks(f: Forest):
    """The forest's document text in pieces, one tree's text at a time.

    The document holds the schema, n_features, n_classes, the config and
    the trees, each a preorder node list.  dump_json sorts keys and "trees"
    sorts last, so the text is the header's up to its closing brace, then
    the tree list: the bytes of one dump of the whole document.
    """
    header = {
        "schema": FOREST_SCHEMA,
        "n_features": f.n_features,
        "n_classes": f.n_classes,
        "config": _config_to_doc(f.config),
    }
    yield dump_json(header)[:-1] + ',"trees":['
    ginis: dict = {}
    for k, tree in enumerate(f.trees):
        yield ("," if k else "") + dump_json(_tree_to_doc(tree, ginis))
    yield "]}"


def forest_to_json(f: Forest) -> str:
    """The forest's document text (see _json_chunks)."""
    return "".join(_json_chunks(f))


def dump_json(doc) -> str:
    """Deterministic bytes: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def read_json(text: str, what: str, build=None):
    """json.loads for an untrusted file: a duplicate key or nesting too deep
    to parse raises ValueError.  build, if given, is called on each object
    (a dict) as soon as it is decoded, innermost first, and what it returns
    takes the object's place."""

    def hook(pairs: list):
        if len(obj := dict(pairs)) != len(pairs):
            key = Counter(k for k, _ in pairs).most_common(1)[0][0]
            raise ValueError(f"{what} has duplicate key {key!r}")
        return obj if build is None else build(obj)

    try:
        return json.loads(text, object_pairs_hook=hook)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def save_forest(f: Forest, path) -> None:
    """Write forest_to_json(f) and a newline to path, one tree's text at a time."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.writelines(_json_chunks(f))
        out.write("\n")


def load_forest(path) -> Forest:
    return forest_from_json(Path(path).read_text(encoding="utf-8"))
