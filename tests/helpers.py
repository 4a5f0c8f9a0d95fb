"""Shared dataset builders and reference implementations for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import gc
import math
import tracemalloc
from enum import Enum

import numpy as np

from detforest import (
    TIE_TOL,
    Dataset,
    DecisionTree,
    Internal,
    Leaf,
    NodeSizeSemantics,
    RngState,
    Split,
    TreeNode,
    best_split,
    class_counts_of,
    draw_candidates,
    gini,
    iter_nodes,
    predict_leaf,
)
from detforest.cart import BLOCK_CELLS, TieBreak, _midpoint
from detforest.cli import _CONFIG_HEADER, ConfigError
from detforest.dataset import _map_labels
from detforest.forest import FOREST_SCHEMA, MTRY_ALL, Aggregation, Forest, ForestConfig

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def duplicated_feature_dataset(copies_per_value: int = 3) -> Dataset:
    """Two identical informative features; labels separate cleanly at 2.5.

    Every split on feature 0 has an exact-tie twin on feature 1 with the
    identical partition, so tie-breaking by draw order changes the chosen
    feature but can never change any node's samples, counts or impurity.
    """
    values = np.repeat(np.array([1.0, 2.0, 3.0, 4.0]), copies_per_value)
    features = np.column_stack([values, values])
    labels = (values >= 3.0).astype(np.int64)
    return Dataset(features, labels, ["a", "b"])


def tiny_dataset(columns: list[list[float]], labels: list[int]) -> Dataset:
    """Dataset from feature columns (not rows) and labels, names f0, f1, ..."""
    features = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    names = [f"f{i}" for i in range(features.shape[1])]
    return Dataset(features, np.asarray(labels, dtype=np.int64), names)


def exhaustive_split_oracle(
    ds: Dataset, row_indices: np.ndarray, parent: tuple[int, ...]
) -> list[Split]:
    """Brute-force reference for best_split, deliberately kept naive.

    Enumerates every boundary of every feature in plain Python and returns
    ALL splits whose weighted child impurity lies within TIE_TOL of the
    global minimum (subject to strict improvement), with no tie-breaking
    and no node-size constraints.  Pure nodes yield an empty list.
    """
    idx = [int(i) for i in np.asarray(row_indices, dtype=np.intp)]
    n = len(idx)
    if n == 0:
        raise ValueError("row_indices must be non-empty")
    c = ds.c
    parent_gini = gini(parent)

    found: list[tuple[float, Split]] = []
    for f in range(ds.p):
        pairs = sorted((float(ds.features[i, f]), int(ds.labels[i])) for i in idx)
        left = [0] * c
        for j in range(n - 1):
            left[pairs[j][1]] += 1
            if pairs[j][0] == pairs[j + 1][0]:
                continue
            nl = j + 1
            nr = n - nl
            gl_acc = 0.0
            gr_acc = 0.0
            for k in range(c):
                pl = left[k] / nl
                pr = (parent[k] - left[k]) / nr
                gl_acc += pl * pl
                gr_acc += pr * pr
            weighted = (nl * (1.0 - gl_acc) + nr * (1.0 - gr_acc)) / n
            if weighted >= parent_gini - TIE_TOL:
                continue
            threshold = (pairs[j][0] + pairs[j + 1][0]) / 2.0
            if math.isinf(threshold):
                threshold = pairs[j][0] / 2.0 + pairs[j + 1][0] / 2.0
            if threshold == pairs[j + 1][0]:
                threshold = pairs[j][0]
            lc = tuple(left)
            rc = tuple(p - l for p, l in zip(parent, left))
            found.append((weighted, Split(f, threshold, lc, rc)))

    if not found:
        return []
    best = min(w for w, _ in found)
    return [s for w, s in found if w <= best + TIE_TOL]


def weighted_child_impurity(sp: Split) -> float:
    """The split's weighted child impurity, bit for bit as best_split has it.

    best_split's float order: each side's class squares summed in class
    order (gini's order), then ``(nL * gL + nR * gR) / n``, left term first.
    """
    nl, nr = sum(sp.left_counts), sum(sp.right_counts)
    return (nl * gini(sp.left_counts) + nr * gini(sp.right_counts)) / (nl + nr)


def _unxorshift(y: int, shift: int) -> int:
    """Inverse of x -> x ^ (x >> shift) on 64-bit values."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def splitmix_unfinalize(value: int) -> int:
    """The SplitMix64 state z with finalize(z) == value (the finalizer is a bijection)."""
    z = _unxorshift(value, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return _unxorshift(z, 30)


def state_with_draw(k: int, value: int) -> RngState:
    """A state whose k-th next_u64 draw (k >= 1) returns `value`."""
    return RngState((splitmix_unfinalize(value) - k * GOLDEN) & MASK64)


def reference_grow_tree(
    ds: Dataset, row_indices: np.ndarray, cfg: ForestConfig, rng: RngState
) -> DecisionTree:
    """grow_tree as it was before trees grew on in-bag counts.

    Every node holds its rows with their repeats, recounts its classes, and
    draws its candidates with its own shuffle through draw_candidates.  Nodes
    are appended in preorder, as grow_tree does; a split node's record is
    written when its right child is visited.
    """
    mtry = cfg.resolved_mtry(ds.p)
    idx = np.asarray(row_indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("row_indices must be non-empty")

    nodes: list[TreeNode | None] = []
    work: list[tuple] = [(idx, 0, None)]
    while work:
        node_idx, depth, parent = work.pop()
        if parent is not None:
            i, sp, parent_counts = parent
            nodes[i] = Internal(
                feature=sp.feature,
                threshold=sp.threshold,
                left=i + 1,
                right=len(nodes),
                class_counts=parent_counts,
            )
        counts = class_counts_of(ds.labels[node_idx], ds.c)
        total = sum(counts)
        if (
            max(counts) == total
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or (cfg.node_size_semantics is NodeSizeSemantics.MIN_SPLIT and total < cfg.min_node_size)
        ):
            nodes.append(Leaf(counts))
            continue

        candidates, rng = draw_candidates(rng, ds.p, mtry)
        sp = best_split(ds, node_idx, candidates, counts, cfg)
        if sp is None:
            nodes.append(Leaf(counts))
            continue

        mask = ds.features[node_idx, sp.feature] <= sp.threshold
        work.append((node_idx[~mask], depth + 1, (len(nodes), sp, counts)))
        work.append((node_idx[mask], depth + 1, None))
        nodes.append(None)

    return DecisionTree(nodes=tuple(nodes), n_features=ds.p, n_classes=ds.c)


def argmax_lowest(values) -> int:
    """Index of the maximum; exact ties resolve to the lowest index."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def reference_predict_vote(f: Forest, x: np.ndarray) -> int:
    """One row's majority vote, the per-row reference for predict_classes.

    Each tree's leaf is found with predict_leaf; both the per-leaf argmax
    and the final vote break exact ties toward the lowest class id.
    """
    votes = [0] * f.n_classes
    for tree in f.trees:
        leaf = predict_leaf(tree, x)
        votes[argmax_lowest(leaf.class_distribution)] += 1
    return argmax_lowest(votes)


def reference_predict_proba(f: Forest, x: np.ndarray) -> np.ndarray:
    """One row's mean leaf distribution, the per-row reference for
    predict_proba: leaf distributions summed in tree order."""
    acc = np.zeros(f.n_classes)
    for tree in f.trees:
        acc = acc + np.asarray(predict_leaf(tree, x).class_distribution)
    return acc / len(f.trees)


def forest_to_doc(f: Forest) -> dict:
    """The whole forest document as one dict, the reference for forest_to_json:
    its text must be dump_json of this, and its peak memory below this build's."""
    config = {k: v.value if isinstance(v, Enum) else v for k, v in vars(f.config).items()}
    return {
        "schema": FOREST_SCHEMA,
        "n_features": f.n_features,
        "n_classes": f.n_classes,
        "config": config,
        "trees": [{"nodes": [_node_doc(node) for node in tree.nodes]} for tree in f.trees],
    }


def _node_doc(node: TreeNode) -> dict:
    """A node's fields, with n_samples and gini computed from its class counts."""
    counts = node.class_counts
    from_counts = {"class_counts": list(counts), "n_samples": sum(counts), "gini": gini(counts)}
    return {**dataclasses.asdict(node), **from_counts}


def warm_traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs a second time.

    A freed small tuple or float goes to CPython's free list and stays
    traced, so a first call's peak depends on what filled those lists
    before: the traced call follows an untraced one, and no collection
    empties the lists between them.
    """
    gc.disable()
    try:
        fn(*args)
        tracemalloc.start()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _round10(x: float) -> float:
    """Round to 10 significant decimal digits (via the shortest %.10g form)."""
    return float(f"{x:.10g}")


def reference_canonicalize(tree: DecisionTree) -> tuple:
    """canonicalize as it was when the form held floats, one tuple per node.

    Per node, in preorder: (depth, n_samples, class counts, gini rounded to
    10 significant digits, split signature).  A split node's signature is
    (its impurity decrease, rounded the same way, left child size, right
    child size); sizes and ginis are computed from the nodes' class counts.
    A leaf's signature is None.
    """
    out = []
    for node, depth in iter_nodes(tree):
        n, g = sum(node.class_counts), gini(node.class_counts)
        if isinstance(node, Internal):
            left, right = tree.nodes[node.left].class_counts, tree.nodes[node.right].class_counts
            nl, nr = sum(left), sum(right)
            weighted = (nl * gini(left) + nr * gini(right)) / n
            signature = (_round10(g - weighted), nl, nr)
        else:
            signature = None
        out.append((depth, n, node.class_counts, _round10(g), signature))
    return tuple(out)


def reference_load_csv(path: str, label_column: str, composition: bool = False) -> Dataset:
    """load_csv as it was before plain files went to numpy's C reader.

    Every cell is parsed with float() in Python.  The rest is verbatim:

    Feature columns keep file order.  Labels that are all plain non-negative
    integers are used as-is; anything else is mapped to 0, 1, 2, ... by
    first appearance.  Parse failures name the offending row and column
    (row numbers count data rows from 1, excluding the header).

    The labels go through load_csv's own _map_labels, so plain non-negative
    integers map to their rank among the distinct labels, as in load_csv.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path!r} is empty, expected a header row") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise ValueError(f"row {r} has {len(record)} cells, expected {len(header)}")
            vals = []
            for i, cell in enumerate(record):
                if i == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"non-numeric cell at row {r}, column {header[i]!r}: {cell!r}") from None
                if math.isnan(v):
                    raise ValueError(f"NaN cell at row {r}, column {header[i]!r}")
                vals.append(v)
            rows.append(vals)
            raw_labels.append(record[label_idx])

    if not rows:
        raise ValueError(f"{path!r} contains no data rows")
    labels = _map_labels(raw_labels, label_column)
    return Dataset(np.array(rows, dtype=np.float64), labels, feature_names, composition=composition)


def reference_best_split(
    ds: Dataset,
    row_indices: np.ndarray,
    candidates: list[int],
    parent: tuple[int, ...],
    cfg: ForestConfig,
    weights: np.ndarray | None = None,
) -> Split | None:
    """best_split as it was before both children shared one array.

    It scans the candidates in the order given and picks the tie-break
    column from the window with any/flatnonzero/argmin.  The rest is
    verbatim:

    Best admissible split of the node, or None if nothing qualifies.

    Within a feature, every boundary between adjacent distinct sorted values
    is evaluated.  The minimum weighted child impurity over all candidates
    defines a tie window of width TIE_TOL; the returned split is the window
    member selected by cfg.tie_break (FIRST_IN_DRAW_ORDER: first candidate
    in the given order; LOWEST_FEATURE_INDEX: smallest feature index; then,
    within the feature, the smallest threshold).

    `weights` holds a positive integer count per row (a bootstrap's in-bag
    counts), and `parent` the node's class counts under those weights.
    Omitted, every row counts once.  A row with count w is the same node as
    w copies of the row: copies share their values, so the boundaries
    between them are inadmissible, and every admissible boundary sees the
    same integer left size, right size and left class counts either way.

    The search is column-blocked: each numpy call scans a block of columns
    of the node's (n, mtry) sub-matrix, sized so that the block's per-class
    cumsums hold at most BLOCK_CELLS values (or one column, if a node is
    larger than that).  One block covers every candidate of a small node,
    which removes the per-candidate call overhead; blocks bound the memory
    of a large node, which holds the sort orders and class cumsums of one
    block at a time and keeps only the (n - 1, mtry) matrix of weighted
    impurities.  Every element goes through the same float
    operations, in the same order, as a scan of one feature at a time, so
    the result depends neither on the block size nor on how the sort
    orders rows with equal values.
    """
    idx = np.asarray(row_indices, dtype=np.intp)
    n = idx.size
    if n == 0:
        raise ValueError("row_indices must be non-empty")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and w.shape != idx.shape:
        raise ValueError(f"weights must have shape {idx.shape}, got {w.shape}")
    cols = np.asarray(candidates, dtype=np.intp)
    if n < 2 or cols.size == 0:
        return None
    if w is not None and w.max() == 1.0:
        w = None  # every row counts once: the cheaper unweighted scan
    parent_gini = gini(parent)
    total = sum(parent)
    y = ds.labels[idx]
    min_leaf = cfg.min_node_size if cfg.node_size_semantics is NodeSizeSemantics.MIN_LEAF else 1

    # Counts are held as float64 (exact below 2**53): each division below is
    # then the same IEEE operation as on integer counts, minus the casts.
    # Left sizes at the boundaries of every column, unless rows are weighted.
    nl = np.arange(1.0, n)[:, None]
    classes = np.arange(ds.c)[:, None, None]
    totals = np.array(parent, dtype=np.float64)[:, None, None]
    # Weighted child impurity per (boundary, candidate); inf where inadmissible.
    weighted_all = np.empty((n - 1, cols.size))
    step = max(1, BLOCK_CELLS // (ds.c * n))
    for lo in range(0, cols.size, step):
        block = cols[lo : lo + step]
        x = ds.features[idx[:, None], block]
        # Any sort order will do: the values are finite, so every boundary
        # between distinct values sees the same left counts however ties
        # are ordered, and boundaries inside a run of ties are inadmissible.
        order = np.argsort(x, axis=0)
        xs = x[order, np.arange(block.size)]
        head = order[:-1]
        # Left class counts at every boundary, shape (c, n - 1, block), and
        # the left sizes.
        if w is None:
            left = np.cumsum(y[head] == classes, axis=1, dtype=np.float64)
        else:
            ws = w[head]
            left = np.cumsum((y[head] == classes) * ws, axis=1)
            nl = np.cumsum(ws, axis=0)
        nr = total - nl
        pl = left / nl
        pr = (totals - left) / nr
        pl *= pl
        pr *= pr
        # Class-square sums accumulated in class order (starting from the
        # first square is starting from 0.0: squares are never -0.0).
        gl_acc, gr_acc = pl[0], pr[0]
        for k in range(1, ds.c):
            gl_acc = gl_acc + pl[k]
            gr_acc = gr_acc + pr[k]
        weighted = (nl * (1.0 - gl_acc) + nr * (1.0 - gr_acc)) / total
        admissible = (xs[:-1] != xs[1:]) & (weighted < parent_gini - TIE_TOL)
        if min_leaf > 1:
            admissible &= (nl >= min_leaf) & (nr >= min_leaf)
        weighted_all[:, lo : lo + step] = np.where(admissible, weighted, math.inf)

    best_weighted = weighted_all.min()
    if best_weighted == math.inf:
        return None
    qualify = weighted_all <= best_weighted + TIE_TOL
    in_window = np.flatnonzero(qualify.any(axis=0))
    if cfg.tie_break is TieBreak.FIRST_IN_DRAW_ORDER:
        col = int(in_window[0])
    else:
        col = int(in_window[np.argmin(cols[in_window])])
    j = int(np.argmax(qualify[:, col]))

    f = int(cols[col])
    if col >= lo:
        # The column is in the last block, whose sort and counts are at hand.
        xs = xs[:, col - lo]
        left_counts = left[:, j, col - lo]
    else:
        x = ds.features[idx, f]
        order = np.argsort(x)
        xs = x[order]
        left_counts = np.bincount(
            y[order[: j + 1]], weights=None if w is None else w[order[: j + 1]], minlength=ds.c
        )
    threshold = _midpoint(float(xs[j]), float(xs[j + 1]))
    left = tuple(int(v) for v in left_counts.tolist())
    right = tuple(total_k - left_k for total_k, left_k in zip(parent, left))
    return Split(feature=f, threshold=threshold, left_counts=left, right_counts=right)


# The config-file codec as it was before one field table described it:
# one line and one parse branch per key.
_REFERENCE_CONFIG_KEYS = (
    "n_trees",
    "mtry",
    "min_node_size",
    "node_size_semantics",
    "max_depth",
    "tie_break",
    "bootstrap",
    "sample_fraction",
    "aggregation",
    "seed",
)


def reference_render_config(cfg: ForestConfig) -> str:
    if cfg.mtry is None:
        mtry = "sqrt"
    else:
        mtry = str(cfg.mtry)
    lines = [
        _CONFIG_HEADER,
        f"n_trees = {cfg.n_trees}",
        f"mtry = {mtry}",
        f"min_node_size = {cfg.min_node_size}",
        f"node_size_semantics = {cfg.node_size_semantics.value}",
        f"max_depth = {'none' if cfg.max_depth is None else cfg.max_depth}",
        f"tie_break = {cfg.tie_break.value}",
        f"bootstrap = {'true' if cfg.bootstrap else 'false'}",
        f"sample_fraction = {cfg.sample_fraction!r}",
        f"aggregation = {cfg.aggregation.value}",
        f"seed = {cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def _reference_parse_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def _reference_parse_enum(enum_cls, key: str, value: str, lineno: int):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"line {lineno}: {key} must be one of {allowed}, got {value!r}") from None


def reference_parse_config_text(text: str) -> tuple[ForestConfig, frozenset[str]]:
    values: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _REFERENCE_CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if not value:
            raise ConfigError(f"line {lineno}: {key} has no value")

        if key in ("n_trees", "min_node_size", "seed"):
            values[key] = _reference_parse_int(key, value, lineno)
        elif key == "mtry":
            if value == "sqrt":
                values[key] = None
            elif value == MTRY_ALL:
                values[key] = MTRY_ALL
            else:
                values[key] = _reference_parse_int(key, value, lineno)
        elif key == "max_depth":
            values[key] = None if value == "none" else _reference_parse_int(key, value, lineno)
        elif key == "node_size_semantics":
            values[key] = _reference_parse_enum(NodeSizeSemantics, key, value, lineno)
        elif key == "tie_break":
            values[key] = _reference_parse_enum(TieBreak, key, value, lineno)
        elif key == "aggregation":
            values[key] = _reference_parse_enum(Aggregation, key, value, lineno)
        elif key == "bootstrap":
            if value not in ("true", "false"):
                raise ConfigError(f"line {lineno}: bootstrap must be true or false, got {value!r}")
            values[key] = value == "true"
        elif key == "sample_fraction":
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: sample_fraction must be a number, got {value!r}"
                ) from None

    try:
        cfg = ForestConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, frozenset(seen)
