"""Shared dataset builders and reference implementations for the test suite."""

from __future__ import annotations

import csv
import math

import numpy as np

from detforest import (
    TIE_TOL,
    ClassCounts,
    Dataset,
    DecisionTree,
    GrowConfig,
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
)
from detforest.dataset import _map_labels

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
    ds: Dataset, row_indices: np.ndarray, parent: ClassCounts
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
                pr = (parent.counts[k] - left[k]) / nr
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
            lc = ClassCounts(tuple(left))
            rc = ClassCounts(tuple(p - l for p, l in zip(parent.counts, left)))
            found.append(
                (
                    weighted,
                    Split(f, threshold, lc, rc, weighted, parent_gini - weighted),
                )
            )

    if not found:
        return []
    best = min(w for w, _ in found)
    return [s for w, s in found if w <= best + TIE_TOL]


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
    ds: Dataset, row_indices: np.ndarray, cfg: GrowConfig, rng: RngState
) -> DecisionTree:
    """grow_tree as it was before trees grew on in-bag counts.

    Every node holds its rows with their repeats, recounts its classes, and
    draws its candidates with its own shuffle through draw_candidates.  Nodes
    are appended in preorder, as grow_tree does; a split node's record is
    written when its right child is visited.
    """
    cfg.validate(ds.p)
    idx = np.asarray(row_indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("row_indices must be non-empty")

    nodes: list[TreeNode | None] = []
    work: list[tuple] = [(idx, 0, None)]
    while work:
        node_idx, depth, parent = work.pop()
        if parent is not None:
            i, sp, parent_counts, parent_gini = parent
            nodes[i] = Internal(
                feature=sp.feature,
                threshold=sp.threshold,
                left=i + 1,
                right=len(nodes),
                n_samples=parent_counts.total,
                gini=parent_gini,
                class_counts=parent_counts.counts,
            )
        counts = class_counts_of(ds.labels[node_idx], ds.c)
        g = gini(counts)
        total = counts.total
        if (
            max(counts.counts) == total
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or (cfg.node_size_semantics is NodeSizeSemantics.MIN_SPLIT and total < cfg.min_node_size)
        ):
            nodes.append(Leaf(total, counts.counts, g))
            continue

        candidates, rng = draw_candidates(rng, ds.p, cfg.mtry)
        sp = best_split(ds, node_idx, candidates, counts, cfg)
        if sp is None:
            nodes.append(Leaf(total, counts.counts, g))
            continue

        mask = ds.features[node_idx, sp.feature] <= sp.threshold
        work.append((node_idx[~mask], depth + 1, (len(nodes), sp, counts, g)))
        work.append((node_idx[mask], depth + 1, None))
        nodes.append(None)

    return DecisionTree(nodes=tuple(nodes), n_features=ds.p, n_classes=ds.c)


def reference_load_csv(path: str, label_column: str, composition: bool = False) -> Dataset:
    """load_csv as it was before plain files went to numpy's C reader.

    Every cell is parsed with float() in Python.  The rest is verbatim:

    Feature columns keep file order.  Labels that are all plain non-negative
    integers are used as-is; anything else is mapped to 0, 1, 2, ... by
    first appearance.  Parse failures name the offending row and column
    (row numbers count data rows from 1, excluding the header).
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
    labels = _map_labels(raw_labels)
    return Dataset(np.array(rows, dtype=np.float64), labels, feature_names, composition=composition)
