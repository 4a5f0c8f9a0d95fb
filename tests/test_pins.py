"""Byte pins: the SHA-256 of forest_to_json for small forests of every kind,
and of the tree renderings (DOT, structured JSON, canonical form) of the
same forests.

A change to the PRNG stream, the split search's float order, a tie-break
rule or the JSON layout changes these hashes, while accuracy-level checks
may not notice.  An optimization must leave every hash here unchanged; a
change that alters the bytes on purpose must say so and update the pins.

The data repeats three features as exact copies, so every tie-break policy
meets real cross-feature ties.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from detforest import (
    Dataset,
    NodeSizeSemantics,
    TieBreak,
    canonicalize,
    fit,
    forest_to_json,
    generate_synthetic_formulas,
    iter_nodes,
    train_test_split,
)
from detforest.cli import PRESETS, tree_to_dot, tree_to_structured

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



# (case id) -> sha256 of the forest's trees rendered by cli.tree_to_dot and
# cli.tree_to_structured (concatenated in tree order) and of
# repr(canonicalize(tree)) + "\n" per tree.  A change to how trees are held
# in memory must leave all three unchanged.
RENDER_PINS = {
    "table2-low": (
        "651be99e4a5544c29cb72d739eefb253a46089a816b2be60f6fac1df6b153ebf",
        "3ff4cddb708ced9bb9db9b04bf75cfe1a110ddaf565204e259123f623b553983",
        "53a8d6494ed8db4416b866e717c2f6179986b28d96dedb096db2cc2a3226eafe",
    ),
    "table2-first": (
        "b129fe9a366dbd59f0ca1e39c5e96e8d1b0b722a3c9e3735ad3138c6b9d87c96",
        "2e2f25754b5ff2a91883b52b18a80a35194d0c21c900f563d4da91eaf7a9693c",
        "c8d552e996c1f0af4632d41be2a43e27f984876f7a374fc48f2d3cb0f262ea2e",
    ),
    "table3-low": (
        "e45c693805c382e2b88c25705d225cb4c735c1df9b815efa1b0c390f478c23b5",
        "197556ee16e1741c981a5f124a24fa7a40872041d5551610dec521d09d723986",
        "0ef8d33ffe8ec6cb5acb6a113874834ffe09efbd1815ea853cb8d44ee39c790c",
    ),
    "table3-first": (
        "73553d06906df6b2d6db0dee522b1cac10dc9e91383d6b19b00a2be31a90d0c1",
        "f5fb91b08140ec1fa718fd8ae5fe778ce6097b731ede02c3abe75b744f9777d9",
        "a606f0886bd487d7de71745faa30931db6c14d510e3101413beabe8aba9a2652",
    ),
    "fig1-low": (
        "c6e34e60b366d62254c7058a17143f78f5472ae6a6ab4b2e793857ffb3faf54d",
        "925e38af8cc2005db61ae6e259a7f3162e18f6ce1609ab5e11d59002930f57d5",
        "1cbd0e5323ea43af0ccbc6753addd1f4bd8c3395eb2fc65de4b8f0a63fb3dbfd",
    ),
    "fig1-first": (
        "6331dddb2291829b60608954a6bb8965cb1f67a37ad3bb40b84584bbb894f363",
        "e3e35cd220ac665b4dfdf43e616515992ef0d6b8eab62034da32ebddbc4e7291",
        "1cbd0e5323ea43af0ccbc6753addd1f4bd8c3395eb2fc65de4b8f0a63fb3dbfd",
    ),
    "fig2-low": (
        "12d99bf0161f1965219b2d0680d78b73e817b67ac153eba4297c6b89b784594a",
        "05b80fc4a72809fc1b0fc596689eb9b194ab15f3ede302b2559d0a626bbd51bd",
        "b585479d0fc8faa9fff0c6a81a7c697eb2a9f9c2e5f0dce4d61705f41baf9fea",
    ),
    "fig2-first": (
        "12d99bf0161f1965219b2d0680d78b73e817b67ac153eba4297c6b89b784594a",
        "05b80fc4a72809fc1b0fc596689eb9b194ab15f3ede302b2559d0a626bbd51bd",
        "b585479d0fc8faa9fff0c6a81a7c697eb2a9f9c2e5f0dce4d61705f41baf9fea",
    ),
    "min-leaf7-low": (
        "651314945b46683ebfd26dd54b95d58647bac060fb3d89a5f4ef202b02d5977c",
        "8d3e36eaa7df121e6aa1e2783e1d25a70b24c5adaf221608c553e7605cf9dd2d",
        "03fb3834b60b12a707fbf5d0a9662740845aa8e396680dabd546b34f80597196",
    ),
    "min-leaf7-first": (
        "6792936905629b019bf2c7cbcba8fcc147b7e91836304f7527fb5ff91c1a3b20",
        "4d454d89d5c70b0af6ef54e3f6fa167df624b5fac8c9b1daf947b643ca85c73b",
        "03fb3834b60b12a707fbf5d0a9662740845aa8e396680dabd546b34f80597196",
    ),
    "subsample-no-replace": (
        "e4d2c226a2eacfd1f9d3d50cbeb104d3335bb8b3a2f9e331c1175a4d42a351c9",
        "ab0124ef95590623af0a4b6eb851d97721868e002f180424bf2d318a1095c1f0",
        "252204ba6f803c1fce3e4847ff44fd9f01509e8dc529c02d226c5c7f1fe0fbfe",
    ),
}


@functools.lru_cache(maxsize=None)
def _case_forest(case_id: str):
    _, preset, rows, overrides, _ = next(c for c in CASES if c[0] == case_id)
    ds = _tied_data(rows)
    split = train_test_split(ds, 0.8, seed=0)
    cfg = dataclasses.replace(PRESETS[preset].config(), seed=0, **overrides)
    return fit(ds, split, cfg)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case_id, expected", [(c[0], c[4]) for c in CASES], ids=[c[0] for c in CASES])
def test_forest_bytes_pinned(case_id, expected):
    forest = _case_forest(case_id)
    # A forest of bare roots would pin nothing about the split search.
    assert all(sum(1 for _ in iter_nodes(t)) > 1 for t in forest.trees)
    assert _sha256(forest_to_json(forest)) == expected


@pytest.mark.parametrize("case_id", [c[0] for c in CASES])
def test_renderings_pinned(case_id):
    trees = _case_forest(case_id).trees
    dot, structured, canonical = RENDER_PINS[case_id]
    assert _sha256("".join(tree_to_dot(t) for t in trees)) == dot
    assert _sha256("".join(tree_to_structured(t) for t in trees)) == structured
    assert _sha256("".join(repr(canonicalize(t)) + "\n" for t in trees)) == canonical
