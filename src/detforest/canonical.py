"""Tree canonicalization and forest diffing.

Two trees that split on different (but tied) features are different objects
bit-for-bit, yet they partition the training data identically: every node
keeps the same depth and class counts.  The canonical form captures exactly
that fingerprint — feature indices, thresholds and impurities are
deliberately excluded — so "identical up to tied splits" becomes a decidable
equality.

The form holds integers only.  A node's gini and a split's impurity
decrease are functions of class counts that the form already holds, so
comparing counts exactly decides equality, and an independent
implementation reproduces it without copying any float operation order.

Forest diffing counts, per pair of forests, the test rows they classify
differently, and renders the counts as an upper-triangular matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cart import DecisionTree, Internal, iter_nodes
from .dataset import Dataset
from .forest import Aggregation, Forest, _row_indices, predict_classes


@dataclass(frozen=True, slots=True)
class CanonicalNode:
    """One node's fingerprint; is_split is False for leaves."""

    depth: int
    class_counts: tuple[int, ...]
    is_split: bool


# A canonical tree is the preorder tuple of canonical nodes; the preorder
# sequence of is_split flags pins the tree shape uniquely.
CanonicalTree = tuple[CanonicalNode, ...]


def canonicalize(tree: DecisionTree) -> CanonicalTree:
    """Map every node to its CanonicalNode, in preorder.

    Two trees are canonically equal iff canonicalize(a) == canonicalize(b).
    Equal forms within one result are one object: compare forms with ==,
    never with `is`.
    """
    forms: dict[tuple, CanonicalNode] = {}
    out = []
    for node, depth in iter_nodes(tree):
        key = (depth, node.class_counts, isinstance(node, Internal))
        out.append(forms.get(key) or forms.setdefault(key, CanonicalNode(*key)))
    return tuple(out)


@dataclass(frozen=True)
class PairDivergence:
    label_a: str
    label_b: str
    n_divergent: int
    rows: tuple[int, ...]


@dataclass(frozen=True)
class DivergenceReport:
    """Pairwise divergent-classification counts for two or more forests."""

    labels: tuple[str, ...]
    n_test: int
    pairs: tuple[PairDivergence, ...]

    def matrix(self) -> list[list[int]]:
        """Symmetric counts matrix with a zero diagonal, in label order."""
        k = len(self.labels)
        pos = {label: i for i, label in enumerate(self.labels)}
        out = [[0] * k for _ in range(k)]
        for p in self.pairs:
            i, j = pos[p.label_a], pos[p.label_b]
            out[i][j] = p.n_divergent
            out[j][i] = p.n_divergent
        return out

    def to_text(self) -> str:
        """Upper-triangular table of divergence counts."""
        m = self.matrix()
        k = len(self.labels)
        head = list(self.labels[1:])
        row_names = list(self.labels[:-1])
        name_w = max(len(s) for s in row_names)
        col_w = [max(len(head[c]), *(len(str(m[r][c + 1])) for r in range(k - 1))) for c in range(k - 1)]
        lines = [f"Divergent classifications out of {self.n_test} test rows:"]
        lines.append(
            " " * name_w + "  " + "  ".join(head[c].rjust(col_w[c]) for c in range(k - 1))
        )
        for r in range(k - 1):
            cells = []
            for c in range(k - 1):
                cells.append(str(m[r][c + 1]).rjust(col_w[c]) if c + 1 > r else " " * col_w[c])
            lines.append(row_names[r].ljust(name_w) + "  " + "  ".join(cells).rstrip())
        return "\n".join(line.rstrip() for line in lines) + "\n"

    def to_doc(self) -> dict:
        return {
            "labels": list(self.labels),
            "n_test": self.n_test,
            "matrix": self.matrix(),
            "pairs": [
                {
                    "a": p.label_a,
                    "b": p.label_b,
                    "n_divergent": p.n_divergent,
                    "rows": list(p.rows),
                }
                for p in self.pairs
            ],
        }


def forest_divergence(
    forests: list[tuple[str, Forest]],
    test: Dataset,
    rows=None,
    aggregation: Aggregation | None = None,
) -> DivergenceReport:
    """Compare the labeled forests' predictions row by row.

    With aggregation=None each forest predicts with its own configured
    aggregation; passing a mode overrides all of them.  `rows` restricts
    the comparison to a subset of dataset rows (default: all); reported
    divergent rows are dataset row indices.
    """
    if len(forests) < 2:
        raise ValueError("need at least two forests to compare")
    labels = [label for label, _ in forests]
    if len(set(labels)) != len(labels):
        raise ValueError(f"forest labels must be unique, got {labels}")
    for label, f in forests:
        if f.n_features != test.p:
            raise ValueError(
                f"forest {label!r} expects {f.n_features} features, test data has {test.p}"
            )
    idx = np.arange(test.n, dtype=np.intp) if rows is None else _row_indices(rows, test.n)

    features = test.features[idx]
    preds = [np.asarray(predict_classes(f, features, aggregation)) for _, f in forests]

    pairs = []
    for i, j in combinations(range(len(forests)), 2):
        rows_ij = tuple(idx[preds[i] != preds[j]].tolist())
        pairs.append(PairDivergence(labels[i], labels[j], len(rows_ij), rows_ij))
    return DivergenceReport(labels=tuple(labels), n_test=int(idx.size), pairs=tuple(pairs))
