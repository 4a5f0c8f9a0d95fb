"""Single CART classification trees with pinned determinism rules.

Everything that an implementation could plausibly do differently is fixed
here and documented, because each unpinned choice is a reproducibility
hazard:

* impurity is the Gini index, with the class-square sum accumulated in
  class-index order;
* the weighted child impurity is ``(nL*gL + nR*gR) / n``, left term first;
* candidate thresholds are midpoints of adjacent distinct sorted values;
* routing is ``x[feature] <= threshold`` goes left;
* a split is adopted only if it strictly reduces the weighted impurity
  (by more than ``TIE_TOL``);
* ties within ``TIE_TOL`` are broken by an explicit policy, either the
  candidate draw order (what the popular packages effectively do) or the
  lowest feature index then lowest threshold (fully deterministic).

Two node-size semantics coexist because real packages disagree on what
their "node size" parameter does: MIN_SPLIT refuses to split nodes smaller
than the limit (children may be arbitrarily small), MIN_LEAF rejects any
split that would produce a child below the limit.

`grow_tree` and `best_split` take the forest's own `ForestConfig` and read
only its growth fields: mtry, min_node_size, node_size_semantics,
max_depth and tie_break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset
from .prng import RngState, bounded_uint_block, permute, shuffle

if TYPE_CHECKING:
    from .forest import ForestConfig

# Impurity comparisons treat values within this tolerance as tied.
TIE_TOL = 1e-12

# Cap on the classes x rows x candidates cells that best_split holds per
# block: the size of its float count arrays, which it allocates once per
# node (a block's lane words, at most one per class and cell, are no
# larger).  Of 2**13..2**17, 2**15 was fastest on split searches replayed
# from desk fits (BENCH_26.json).
BLOCK_CELLS = 1 << 15

# Cap on the bounded draws in one block of grow_tree's candidate draws
# (p - 1 swap partners per node); a tree's unused tail of a block is wasted.
DRAW_BLOCK_VALUES = 1 << 13


class NodeSizeSemantics(Enum):
    MIN_SPLIT = "min-split"
    MIN_LEAF = "min-leaf"


class TieBreak(Enum):
    FIRST_IN_DRAW_ORDER = "first-in-draw-order"
    LOWEST_FEATURE_INDEX = "lowest-feature-index"


def class_counts_of(labels: np.ndarray, c: int) -> tuple[int, ...]:
    """The count of each class in [0, c), as Python ints."""
    return tuple(np.bincount(labels, minlength=c).tolist())


def gini(counts: tuple[int, ...]) -> float:
    """Gini impurity 1 - sum(p_i^2); an empty node has impurity 0."""
    total = sum(counts)
    if total == 0:
        return 0.0
    acc = 0.0
    for count in counts:
        p = count / total
        acc += p * p
    return 1.0 - acc


@dataclass(frozen=True, slots=True)
class Split:
    feature: int
    threshold: float
    left_counts: tuple[int, ...]
    right_counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Leaf:
    class_counts: tuple[int, ...]

    @property
    def class_distribution(self) -> tuple[float, ...]:
        total = sum(self.class_counts)
        return tuple(count / total for count in self.class_counts)


@dataclass(frozen=True, slots=True)
class Internal:
    """A split node; `left` and `right` are positions in the tree's node list."""

    feature: int
    threshold: float
    left: int
    right: int
    class_counts: tuple[int, ...]


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class DecisionTree:
    """A tree as its preorder node list, the list `detforest.forest.v1` stores.

    nodes[0] is the root, and the left child of an internal node i is node
    i + 1.  Nothing in a tree refers to another node object, so equality,
    hashing and copying never recurse.  A node's size and impurity are
    sum(class_counts) and gini(class_counts), so no node stores them.
    Leaves with equal class counts may be one object, within a tree or
    across a loaded forest: compare nodes with ==, never with `is`.
    """

    nodes: tuple[TreeNode, ...]
    n_features: int
    n_classes: int


def draw_candidates(rng: RngState, p: int, mtry: int) -> tuple[list[int], RngState]:
    """First mtry entries of a fresh permutation of [0, p), in draw order.

    The order is preserved (never sorted) because it feeds the
    FIRST_IN_DRAW_ORDER tie-break.  The draw happens even when mtry = p:
    all features are candidates then, but still in random order.
    """
    if not 1 <= mtry <= p:
        raise ValueError(f"mtry must be in [1, {p}], got {mtry}")
    perm, rng = shuffle(rng, p)
    return perm[:mtry], rng


def _midpoint(a: float, b: float) -> float:
    """Threshold between adjacent distinct sorted values a < b."""
    # (a + b) / 2 where it is finite; a/2 + b/2 where the sum would overflow
    # (values are non-negative, so halves cannot cancel badly).
    mid = (a + b) / 2.0
    if math.isinf(mid):
        mid = a / 2.0 + b / 2.0
    # Midpoint may round up onto the right value; push it back so that
    # `x <= threshold` routes exactly the left block left.
    return a if mid == b else mid


def best_split(
    ds: Dataset,
    row_indices: np.ndarray,
    candidates: list[int],
    parent: tuple[int, ...],
    cfg: ForestConfig,
    weights: np.ndarray | None = None,
) -> Split | None:
    """Best admissible split of the node, or None if nothing qualifies.

    Of the `ForestConfig` cfg it reads tie_break, min_node_size and
    node_size_semantics; the candidates are given.

    Within a feature, every boundary between adjacent distinct sorted values
    is evaluated.  The minimum weighted child impurity over all candidates
    defines a tie window of width TIE_TOL; the returned split is the window
    member selected by cfg.tie_break (FIRST_IN_DRAW_ORDER: first candidate
    in the given order; LOWEST_FEATURE_INDEX: smallest feature index; then,
    within the feature, the smallest threshold).  The candidates are scanned
    in that order (as given, or sorted by feature index), so the tie-break
    order is the scan order: the split is the first window member met.

    `weights` holds a positive integer count per row (a bootstrap's in-bag
    counts, or 1), and `parent` the node's class counts under those
    weights; omitted, every row counts 1.  There is one search either way:
    each side's class counts are sums of its rows' counts, and its size the
    sum of its class counts.  A row with count w is the same node as w
    copies of the row: copies share their values, so the boundaries
    between them are inadmissible, and every admissible boundary sees the
    same integer left size, right size and left class counts either way.
    Weights of any integer or float dtype must hold positive integers
    below 2**63 (ValueError otherwise); they are counted as int64.
    sum(parent) must be at most 2**53, the bound the forest loader puts on
    a node's size (ValueError otherwise), so every count and every sum of
    counts is exact in float64.

    Under MIN_LEAF a node of total below 2 * min_node_size leaves a child
    under the limit at every boundary, so None is returned before any key
    is read.

    Rows are ordered by the dataset's dense integer ranks
    (`Dataset.rank_keys`, built once per dataset), not by their float
    values: the keys sort as the values do, and equal values share a key.
    A stable sort of 16-bit keys is numpy's radix sort.  A boundary whose
    two keys are equal is inadmissible, and only the chosen boundary's two
    values are read as floats, for the threshold.  Any order of tied rows
    gives the same left counts at every admissible boundary, so the split,
    and every byte of it, is the one a sort of the values gives.

    The search is column-blocked: each numpy call scans a block of rows of
    the node's (mtry, n) sub-matrix of keys, sized so that the block's
    per-class cumsums hold at most BLOCK_CELLS values (or one feature, if a
    node is larger than that).  One block covers every candidate of a small
    node, which removes the per-candidate call overhead; blocks bound the
    memory of a large node, which holds the sort orders and class cumsums
    of one block at a time and keeps only the (mtry, n - 1) matrix of
    weighted impurities.  Both children are evaluated in one array, left
    above right.  Every element goes through the same float operations, in
    the same order, as a scan of one feature and one side at a time, so the
    result depends neither on the block size nor on how the sort orders
    rows with equal values.

    A block's left class counts are prefix sums of each row's counts along
    its sort order, taken in lanes of uint64 words: a lane is the narrowest
    of uint16, uint32 and uint64 that holds sum(parent), so a word holds 4,
    2 or 1 classes, and class k is lane k of a row's words.  No prefix sum
    of a lane exceeds sum(parent), so no lane carries into the next, and
    one uint64 cumsum of the words per block gives every class's prefix
    counts, read back through a lane view of the words into the float64
    count array.  The same view writes and reads the lanes, so byte order
    does not matter.
    """
    idx = np.asarray(row_indices, dtype=np.intp)
    n = idx.size
    if n == 0:
        raise ValueError("row_indices must be non-empty")
    if weights is None:
        w = np.ones(n, dtype=np.int64)
    else:
        w = np.asarray(weights)
        if w.shape != idx.shape:
            raise ValueError(f"weights must have shape {idx.shape}, got {w.shape}")
        # Lanes hold unsigned integers, so a fraction would be truncated and
        # a count below 1 would wrap: both are refused, as are uint64 counts
        # of 2**63 or more, which the cast wraps negative.
        if w.dtype.kind not in "fiu" or (
            w.dtype.kind == "f" and not ((w >= 1) & (w < 2.0**63) & (w == np.floor(w))).all()
        ):
            raise ValueError("weights must be positive integers")
        w = w.astype(np.int64, copy=False)
        if w.min() < 1:
            raise ValueError("weights must be positive integers")
    total = sum(parent)
    if total > 2**53:
        raise ValueError(f"a node's total must be at most 2**53, got {total}")
    if cfg.tie_break is TieBreak.LOWEST_FEATURE_INDEX:
        candidates = sorted(candidates)
    cols = np.asarray(candidates, dtype=np.intp)
    if n < 2 or cols.size == 0:
        return None
    c = ds.c
    min_leaf = cfg.min_node_size if cfg.node_size_semantics is NodeSizeSemantics.MIN_LEAF else 1
    if total < 2 * min_leaf:
        return None  # every boundary leaves a child below min_leaf

    y = ds.labels[idx]
    # Row i's count goes into lane y[i] of its words (see the docstring).
    lane, per_word = (np.uint16, 4) if total < 2**16 else (np.uint32, 2) if total < 2**32 else (np.uint64, 1)
    n_words = -(-c // per_word)
    units = np.zeros((n, n_words * per_word), dtype=lane)
    units[np.arange(n), y] = w
    words = units.view(np.uint64)
    # Counts are held as float64 (exact up to 2**53): each division below is
    # then the same IEEE operation as on integer counts, minus the casts.
    totals = np.array((*parent, total), dtype=np.float64)[:, None, None]
    # Weighted child impurity per (candidate, boundary); inf where inadmissible.
    weighted_all = np.empty((cols.size, n - 1))
    step = min(cols.size, max(1, BLOCK_CELLS // (c * n)))
    # The count arrays are allocated once per node; a shorter last block
    # uses their first candidates.
    counts_buf = np.empty((2, c + 1, step, n - 1))
    # Flat takes, two to three times faster than 2-D fancy indexing: a
    # block's keys are keys.flat[feature * ds.n + row], and its k-th
    # feature's sorted keys are block_keys.flat[k * n + order[k]].
    keys = ds.rank_keys()
    for lo in range(0, cols.size, step):
        block = cols[lo : lo + step]
        block_keys = keys.take(block[:, None] * ds.n + idx)
        order = block_keys.argsort(axis=1, kind="stable")
        ks = block_keys.take(order + np.arange(0, order.size, n)[:, None])
        # Left (counts[0]) and right (counts[1] = totals - counts[0]) class
        # counts and sizes at every boundary: shape (2, c + 1, block, n - 1).
        counts = counts_buf[:, :, : block.size]
        left = counts[0]
        # Lane k of the words' prefix sums along each sort order is class
        # k's left count at every boundary.
        prefix = words.take(order[:, :-1], axis=0)
        prefix.cumsum(axis=1, out=prefix)
        left[:c] = prefix.view(lane)[..., :c].transpose(2, 0, 1)
        # A side's size is the sum of its class counts: integers of at most
        # 2**53, so every partial sum is exact.
        left[:c].sum(axis=0, out=left[c])
        np.subtract(totals, left, out=counts[1])
        sizes = counts[:, c]
        p = counts[:, :c] / counts[:, c:]
        p *= p
        # Class-square sums accumulated in class order (starting from the
        # first square is starting from 0.0: squares are never -0.0), then
        # (nl * (1 - gl) + nr * (1 - gr)) / total, left term first.
        g = p[:, 0]
        for k in range(1, c):
            g = g + p[:, k]
        g = 1.0 - g
        g *= sizes
        weighted = np.add(g[0], g[1], out=weighted_all[lo : lo + step])
        weighted /= total
        inadmissible = ks[:, :-1] == ks[:, 1:]
        if min_leaf > 1:
            inadmissible |= (sizes < min_leaf).any(axis=0)
        weighted[inadmissible] = math.inf

    # A split must beat the parent by more than TIE_TOL: the window is capped
    # at the largest float below that limit.
    best_weighted = weighted_all.min()
    limit = gini(parent) - TIE_TOL
    if not best_weighted < limit:
        return None
    window = min(best_weighted + TIE_TOL, math.nextafter(limit, -math.inf))
    # The first window member in scan order: candidate by candidate, then
    # boundary by boundary.
    col, j = divmod(int((weighted_all <= window).argmax()), n - 1)

    f = int(cols[col])
    if col >= lo:
        # The column is in the last block, whose sort and counts are at hand.
        order = order[col - lo]
        left_counts = counts[0, :c, col - lo, j]
    else:
        order = keys[f, idx].argsort(kind="stable")
        head = order[: j + 1]
        left_counts = np.bincount(y[head], w[head], minlength=c)
    a, b = ds.features[idx[order[j : j + 2]], f].tolist()
    threshold = _midpoint(a, b)
    left = tuple(int(v) for v in left_counts.tolist())
    right = tuple(total_k - left_k for total_k, left_k in zip(parent, left))
    return Split(feature=f, threshold=threshold, left_counts=left, right_counts=right)


def _partner_rows(rng: RngState, p: int, block: int):
    """The swap partners of successive ``shuffle(rng, p)`` calls, one list each.

    k shuffles are k * (p - 1) successive bounded draws with the bounds
    p, p - 1, ..., 2 repeated, so each block of `block` shuffles is one
    bounded_uint_block call.
    """
    bounds = np.tile(np.arange(p, 1, -1, dtype=np.uint64), block)
    while True:
        values, rng = bounded_uint_block(rng, bounds)
        yield from values.reshape(block, p - 1).tolist()


def grow_tree(ds: Dataset, row_indices: np.ndarray, cfg: ForestConfig, rng: RngState) -> DecisionTree:
    """Grow a tree on the given rows, threading the PRNG state in preorder.

    Of the `ForestConfig` cfg it reads the growth fields only: mtry (as
    `cfg.resolved_mtry(ds.p)`, which raises ValueError unless it is in
    [1, p]), min_node_size, node_size_semantics, max_depth and tie_break.
    The caller draws the bootstrap sample and derives the tree's stream.

    A node becomes a leaf when it is pure, when it sits at max_depth, when
    MIN_SPLIT semantics finds it smaller than min_node_size, or when no
    admissible split exists.  Fresh candidate features are drawn at every
    node that attempts a split; the left child is grown first and continues
    the stream where the node's draw left off.

    `row_indices` may repeat rows (a bootstrap sample).  Every tree is
    grown on the distinct rows, each carrying its count (1 for every row
    of a sample without repeats), which gives the same tree as growing on
    the repeated rows (see best_split): node sizes and class counts are
    the weighted ones.

    Uses an explicit stack rather than recursion: a fully grown tree can be
    deeper than the interpreter stack allows.  Nodes are visited, and
    appended to the node list, in preorder (left child first), which makes
    the PRNG consumption order identical to the textbook recursive
    formulation.
    """
    mtry = cfg.resolved_mtry(ds.p)
    idx = np.asarray(row_indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("row_indices must be non-empty")
    rows, weights = np.unique(idx, return_counts=True)
    partner_rows = _partner_rows(rng, ds.p, max(1, DRAW_BLOCK_VALUES // ds.p))

    # A split node's record is written once its right child's position is
    # known: the right child's work item carries the parent's record fields
    # but the right position, and the slot holds None until then.
    nodes: list[TreeNode | None] = []
    # One leaf per distinct class-count tuple, whose tuple every node with
    # those counts holds.  Child positions occur once per tree: no sharing.
    leaves: dict[tuple[int, ...], Leaf] = {}
    work: list[tuple] = [(rows, weights, class_counts_of(ds.labels[idx], ds.c), 0, None)]
    while work:
        node_rows, node_weights, counts, depth, parent = work.pop()
        leaf = leaves.get(counts) or leaves.setdefault(counts, Leaf(counts))
        counts = leaf.class_counts
        if parent is not None:
            i, sp, pc = parent
            nodes[i] = Internal(sp.feature, sp.threshold, i + 1, len(nodes), pc)
        total = sum(counts)
        if (
            max(counts) == total
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or (cfg.node_size_semantics is NodeSizeSemantics.MIN_SPLIT and total < cfg.min_node_size)
        ):
            nodes.append(leaf)
            continue

        # The first mtry entries of the node's permutation, as draw_candidates.
        candidates = permute(next(partner_rows))[:mtry]
        sp = best_split(ds, node_rows, candidates, counts, cfg, node_weights)
        if sp is None:
            nodes.append(leaf)
            continue

        mask = ds.features[node_rows, sp.feature] <= sp.threshold
        # LIFO: the left child lands on top so it is grown first, right
        # after its parent's slot.
        parent = (len(nodes), sp, counts)
        work.append((node_rows[~mask], node_weights[~mask], sp.right_counts, depth + 1, parent))
        work.append((node_rows[mask], node_weights[mask], sp.left_counts, depth + 1, None))
        nodes.append(None)

    return DecisionTree(nodes=tuple(nodes), n_features=ds.p, n_classes=ds.c)


def iter_nodes(tree: DecisionTree):
    """Yield (node, depth) in preorder: parent, left subtree, right subtree."""
    depths = [0] * len(tree.nodes)
    for i, node in enumerate(tree.nodes):
        yield node, depths[i]
        if isinstance(node, Internal):
            depths[node.left] = depths[node.right] = depths[i] + 1


def trees_equal_exact(a: DecisionTree, b: DecisionTree) -> bool:
    """True iff the trees have identical structure and bit-identical fields.

    Thresholds are compared by their bits, so 0.0 and -0.0 differ as
    their forest_to_json bytes do, and class counts as integers; this is
    the strong notion of equality (the canonical one lives in `canonical`).
    """
    # == holds for 0.0 and -0.0, which float.hex tells apart.
    return (a.n_features, a.n_classes, a.nodes) == (b.n_features, b.n_classes, b.nodes) and all(
        x.threshold.hex() == y.threshold.hex() for x, y in zip(a.nodes, b.nodes) if isinstance(x, Internal)
    )


def predict_leaf(tree: DecisionTree, x: np.ndarray) -> Leaf:
    """Route a sample to its leaf (`<= threshold` goes left)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.n_features,):
        raise ValueError(f"expected {tree.n_features} features, got shape {x.shape}")
    node = tree.nodes[0]
    while isinstance(node, Internal):
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node
