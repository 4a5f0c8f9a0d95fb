"""Byte pins: the SHA-256 of forest_to_json for small forests of every kind.

A change to the PRNG stream, the split search's float order, a tie-break
rule or the JSON layout changes these hashes, while accuracy-level checks
may not notice.  An optimization must leave every hash here unchanged; a
change that alters the bytes on purpose must say so and update the pins.

The data repeats three features as exact copies, so every tie-break policy
meets real cross-feature ties.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from detforest import (
    Dataset,
    NodeSizeSemantics,
    TieBreak,
    fit,
    forest_to_json,
    generate_synthetic_formulas,
    iter_nodes,
    train_test_split,
)
from detforest.cli import PRESETS

LOW = TieBreak.LOWEST_FEATURE_INDEX
FIRST = TieBreak.FIRST_IN_DRAW_ORDER


def _tied_data(rows: int) -> Dataset:
    ds = generate_synthetic_formulas(rows, 12, seed=0)
    features = ds.features.copy()
    features[:, 9:12] = features[:, 0:3]
    return Dataset(features, ds.labels, ds.feature_names)


# (case id, preset, rows, config overrides, sha256 of forest_to_json)
CASES = [
    ("table2-low", "table2", 300, {"n_trees": 5, "tie_break": LOW},
     "db86ddf37c05792a2ccefc9384168e187c4a572ae714e384ab8d1a7cfe66cca7"),
    ("table2-first", "table2", 300, {"n_trees": 5, "tie_break": FIRST},
     "cff36157645fa42ab6f1c73fbd47d5392f5ae61ba6ae46a7be4aa4657434cc12"),
    ("table3-low", "table3", 300, {"tie_break": LOW},
     "8b78c410c6728c424238113c135b0cf6ee08d5eb228878d5311957d09d619a58"),
    ("table3-first", "table3", 300, {"tie_break": FIRST},
     "72c039f0953486b43185fc6c05ee84eb48293ecc145d162f5cee2d7e757548da"),
    ("fig1-low", "fig1", 3000, {"tie_break": LOW},
     "bb933fb26b479dfb126ef69e394142b03c823a5aecc2f4f17d996acf1500d248"),
    ("fig1-first", "fig1", 3000, {"tie_break": FIRST},
     "81151aa9a9bfdcfb82b466c8fa060ca9f899d6bf43c10a1c75ae9876c47d2de2"),
    ("fig2-low", "fig2", 3000, {"tie_break": LOW},
     "4f6bd59774cea7d82b3ce836a968e6581accd42d0e9aa84bebb5337daab413da"),
    ("fig2-first", "fig2", 3000, {"tie_break": FIRST},
     "63ab04e82755125540ad77dec130e38fb61da41f63ffaddd1ff24b61bfed7619"),
    ("min-leaf7-low", "table2", 300,
     {"n_trees": 5, "min_node_size": 7, "node_size_semantics": NodeSizeSemantics.MIN_LEAF,
      "tie_break": LOW},
     "359a3dd8609b95125bfbd65dee3a7626c8251d087f4447b6e63467cf787bea80"),
    ("min-leaf7-first", "table2", 300,
     {"n_trees": 5, "min_node_size": 7, "node_size_semantics": NodeSizeSemantics.MIN_LEAF,
      "tie_break": FIRST},
     "90f8ac0646cff2a692e8e91e5354c2131dd0ef635c4b215d50dedc5ecfdc880f"),
    ("subsample-no-replace", "table2", 300,
     {"n_trees": 5, "bootstrap": False, "sample_fraction": 0.6},
     "616bac3d751333fa59355ce467110a87b1efa210373dc3dc6da98fb8de5ec9d8"),
]


@pytest.mark.parametrize(
    "preset, rows, overrides, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_forest_bytes_pinned(preset, rows, overrides, expected):
    ds = _tied_data(rows)
    split = train_test_split(ds, 0.8, seed=0)
    cfg = dataclasses.replace(PRESETS[preset].config(), seed=0, **overrides)
    forest = fit(ds, split, cfg)
    # A forest of bare roots would pin nothing about the split search.
    assert all(sum(1 for _ in iter_nodes(t)) > 1 for t in forest.trees)
    digest = hashlib.sha256(forest_to_json(forest).encode("utf-8")).hexdigest()
    assert digest == expected
