"""Tree canonicalization and forest diffing.

Two trees that split on different (but tied) features are different objects
bit-for-bit, yet they partition the training data identically: every node
keeps the same depth, sample count, class counts and Gini impurity.  The
canonical form captures exactly that fingerprint — feature indices and
thresholds are deliberately excluded — so "identical up to tied splits"
becomes a decidable equality.

Floats enter the canonical form rounded to 10 significant digits: enough to
distinguish genuinely different impurities, coarse enough to absorb
last-bit noise between independent implementations.

Forest diffing counts, per pair of forests, the test rows they classify
differently, and renders the counts as an upper-triangular matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import DecisionTree, Internal, iter_nodes
from .dataset import Dataset
from .forest import Aggregation, Forest, _row_indices, predict_classes


def _round10(x: float) -> float:
    """Round to 10 significant decimal digits (via the shortest %.10g form)."""
    return float(f"{x:.10g}")


@dataclass(frozen=True, slots=True)
class CanonicalNode:
    """One node's impurity fingerprint; split_signature is None for leaves."""

    depth: int
    n_samples: int
    class_counts: tuple[int, ...]
    gini: float
    split_signature: tuple[float, int, int] | None


# A canonical tree is the preorder tuple of canonical nodes; together with
# the leaf/internal distinction this pins the tree shape uniquely.
CanonicalTree = tuple[CanonicalNode, ...]


def canonicalize(tree: DecisionTree) -> CanonicalTree:
    """Map every node to its CanonicalNode, in preorder.

    The split signature is (impurity decrease, left child size, right child
    size), recomputed from the stored node fields so it works equally on
    freshly grown and deserialized trees.
    """
    out: list[CanonicalNode] = []
    for node, depth in iter_nodes(tree):
        if isinstance(node, Internal):
            left, right = tree.nodes[node.left], tree.nodes[node.right]
            nl, nr = left.n_samples, right.n_samples
            weighted = (nl * left.gini + nr * right.gini) / node.n_samples
            signature = (_round10(node.gini - weighted), nl, nr)
        else:
            signature = None
        out.append(
            CanonicalNode(
                depth=depth,
                n_samples=node.n_samples,
                class_counts=node.class_counts,
                gini=_round10(node.gini),
                split_signature=signature,
            )
        )
    return tuple(out)


def trees_equal_canonical(a: DecisionTree, b: DecisionTree) -> bool:
    """True iff the trees have the same canonical form (same shape, same
    fingerprint at every position)."""
    return canonicalize(a) == canonicalize(b)


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

    def pair(self, label_a: str, label_b: str) -> PairDivergence:
        want = {label_a, label_b}
        for p in self.pairs:
            if {p.label_a, p.label_b} == want:
                return p
        raise KeyError(f"no pair ({label_a!r}, {label_b!r}) in report")

    @property
    def total_divergent_pairs(self) -> int:
        return sum(1 for p in self.pairs if p.n_divergent > 0)

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
    for i in range(len(forests)):
        for j in range(i + 1, len(forests)):
            diverge = preds[i] != preds[j]
            divergent_rows = tuple(int(r) for r in idx[diverge])
            pairs.append(
                PairDivergence(
                    label_a=labels[i],
                    label_b=labels[j],
                    n_divergent=len(divergent_rows),
                    rows=divergent_rows,
                )
            )
    return DivergenceReport(labels=tuple(labels), n_test=int(idx.size), pairs=tuple(pairs))
