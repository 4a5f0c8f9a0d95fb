"""Byte pins: the SHA-256 of forest_to_json for small forests of every kind,
of the tree renderings (DOT, structured JSON, canonical form) of the
same forests, and of everything ``detforest run`` writes and prints for
each preset and for a config file.

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
import os

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
from detforest.cli import PRESETS, main, tree_to_dot, tree_to_structured

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
# in memory must leave all three unchanged.  Tie-break pairs whose trees
# differ only in tied feature choices share the canonical hash.
RENDER_PINS = {
    "table2-low": (
        "651be99e4a5544c29cb72d739eefb253a46089a816b2be60f6fac1df6b153ebf",
        "3ff4cddb708ced9bb9db9b04bf75cfe1a110ddaf565204e259123f623b553983",
        "48bc99066bff4a524d4e09211476cdc57982b345e0c711313b812551f06e154f",
    ),
    "table2-first": (
        "b129fe9a366dbd59f0ca1e39c5e96e8d1b0b722a3c9e3735ad3138c6b9d87c96",
        "2e2f25754b5ff2a91883b52b18a80a35194d0c21c900f563d4da91eaf7a9693c",
        "b5ff150a4743f88f6e28b9081ca0150a99e3de4bd9fe60dd57ec553d49726977",
    ),
    "table3-low": (
        "e45c693805c382e2b88c25705d225cb4c735c1df9b815efa1b0c390f478c23b5",
        "197556ee16e1741c981a5f124a24fa7a40872041d5551610dec521d09d723986",
        "4377239664ea12fbac7e589950e021fc69b06da5db7734015e8c8fefd2b3feb6",
    ),
    "table3-first": (
        "73553d06906df6b2d6db0dee522b1cac10dc9e91383d6b19b00a2be31a90d0c1",
        "f5fb91b08140ec1fa718fd8ae5fe778ce6097b731ede02c3abe75b744f9777d9",
        "886539182907c79c7d1951abaf3fa37ac1a9fbd31e2de61f5f57561f678ab389",
    ),
    "fig1-low": (
        "c6e34e60b366d62254c7058a17143f78f5472ae6a6ab4b2e793857ffb3faf54d",
        "925e38af8cc2005db61ae6e259a7f3162e18f6ce1609ab5e11d59002930f57d5",
        "33af0abb1da91fe2dfc0a57226ddc612155401a72418b98551cea8efcf4d0d7d",
    ),
    "fig1-first": (
        "6331dddb2291829b60608954a6bb8965cb1f67a37ad3bb40b84584bbb894f363",
        "e3e35cd220ac665b4dfdf43e616515992ef0d6b8eab62034da32ebddbc4e7291",
        "33af0abb1da91fe2dfc0a57226ddc612155401a72418b98551cea8efcf4d0d7d",
    ),
    "fig2-low": (
        "12d99bf0161f1965219b2d0680d78b73e817b67ac153eba4297c6b89b784594a",
        "05b80fc4a72809fc1b0fc596689eb9b194ab15f3ede302b2559d0a626bbd51bd",
        "e88afe8da20cc268752ff526c1999c491cb3f8c8eb91d5a01651c13eb1c0d355",
    ),
    "fig2-first": (
        "12d99bf0161f1965219b2d0680d78b73e817b67ac153eba4297c6b89b784594a",
        "05b80fc4a72809fc1b0fc596689eb9b194ab15f3ede302b2559d0a626bbd51bd",
        "e88afe8da20cc268752ff526c1999c491cb3f8c8eb91d5a01651c13eb1c0d355",
    ),
    "min-leaf7-low": (
        "651314945b46683ebfd26dd54b95d58647bac060fb3d89a5f4ef202b02d5977c",
        "8d3e36eaa7df121e6aa1e2783e1d25a70b24c5adaf221608c553e7605cf9dd2d",
        "37a2ac6c20be8c04ddfaacac48d8a24b7c7f4126e9448693ee69ee68fc76a920",
    ),
    "min-leaf7-first": (
        "6792936905629b019bf2c7cbcba8fcc147b7e91836304f7527fb5ff91c1a3b20",
        "4d454d89d5c70b0af6ef54e3f6fa167df624b5fac8c9b1daf947b643ca85c73b",
        "37a2ac6c20be8c04ddfaacac48d8a24b7c7f4126e9448693ee69ee68fc76a920",
    ),
    "subsample-no-replace": (
        "e4d2c226a2eacfd1f9d3d50cbeb104d3335bb8b3a2f9e331c1175a4d42a351c9",
        "ab0124ef95590623af0a4b6eb851d97721868e002f180424bf2d318a1095c1f0",
        "e6a0a7a84c534ee4803438523b7737f9c05d9bc7143259ec890229de301353df",
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


# `detforest run` on synthetic data, run inside a scratch directory so that
# the paths it prints stay fixed: (case id) -> (argv after "run" and before
# --out-dir, exit code, sha256 of stdout, {output file: sha256}).
RUN_CONFIG_FILE = (
    "n_trees = 3\nmtry = 2\nmin_node_size = 3\nnode_size_semantics = min-leaf\n"
    "max_depth = 4\nseed = 11\n"
)
RUN_ARGV = {
    "table2-one-trial": ["--preset", "table2", "--rows", "300", "--features", "6"],
    "table2-three-trials": ["--preset", "table2", "--rows", "300", "--features", "6",
                            "--trees", "4", "--trials", "3"],
    # one tree cannot show two bit-distinct trees: exit 1
    "table2-one-tree": ["--preset", "table2", "--rows", "300", "--features", "6", "--trees", "1"],
    # draw-order ties change the tree structure: exit 1
    "table3-first-in-draw-order": ["--preset", "table3", "--rows", "300", "--features", "6",
                                   "--tie-break", "first-in-draw-order", "--trials", "3"],
    "fig1": ["--preset", "fig1", "--rows", "1500", "--features", "6", "--trials", "2"],
    "fig2-majority-vote": ["--preset", "fig2", "--rows", "1500", "--features", "6",
                           "--aggregation", "majority-vote", "--trials", "2"],
    "config-file": ["--config", "forest.txt", "--rows", "400", "--features", "5", "--trials", "2"],
}
RUN_PINS = {
    "table2-one-trial": (0, "29690c41451286b2faf7edd0626493ce5c3265beef9406ea8af62fe48fbe6689", {
        "config.txt": "afb51ed88bbaa283be5da24e9f4ca8c0c52a340ea1394f12e51392e0922b6ba8",
        "forest-0.json": "7545e6a029d50369f955a81a1d21219b43dc1c269a726a2acbe0b37071fad379",
        "summary.json": "bbf33f9804a3247354600438e92eb5b49313a8ae89520bda06194984afc949e1",
        "tree0.dot": "6c85d1dec2c3e1e07ed3012c96ede888a3c731d07fcf3bcb1ee6382ca628516a",
    }),
    "table2-three-trials": (0, "65e4fff5769b1632d5463e83b84b53d10528062a557461b9e3100dadcfaeefb9", {
        "config.txt": "5a2e523b34b33a74e86d2f40cf7faf62ed1375531dd709c34417a04ce2e5eb99",
        "forest-0.json": "18cfaf27ed93532a4a0d8fa62261fa3a6f6f08a896a0b34ad649db4f436769db",
        "forest-1.json": "41c45593cbd63cef725ea28eb43864d6769ffe23aea34575f190e87a53ce7905",
        "forest-2.json": "0f64527d0580610499472b156bbb32f660a96e5df9c461d5b5c012380a4a08dc",
        "report.json": "efc2bd6b00dda444b90ff9dd3836200ab804e8cf05792a90f27202565cface2b",
        "report.txt": "0ccb85edafc1fd7737b017d36647123cb63e2d89e66bee9a012b1241c7eda7e2",
        "summary.json": "84cd07f6446b56723bb59f303bc5db99575d80e7a09aeeaebe39bae767a51095",
        "tree0.dot": "6c85d1dec2c3e1e07ed3012c96ede888a3c731d07fcf3bcb1ee6382ca628516a",
    }),
    "table2-one-tree": (1, "5a736ff4aa159beb67ee3a25af7cf18087b3a4cd769701649270c1f3f9abe82c", {
        "config.txt": "f4812e9e2ec01bfd921f589445b6598d95f12dea95eae86f4d9fff6ff3e83623",
        "forest-0.json": "733323bcf95a214cf0bf7d77bc373f1c83da536086b1dedc3d0182baf9a6b40e",
        "summary.json": "1ffee584299e6d939e40bbe4a2ecd11d16f5a1a5d1fe6ab9c904e1b41bd9ec3c",
        "tree0.dot": "6c85d1dec2c3e1e07ed3012c96ede888a3c731d07fcf3bcb1ee6382ca628516a",
    }),
    "table3-first-in-draw-order": (1, "e8b9394e96badb2adf23963076861ec6c06709b2123816c61b733d3d3970016c", {
        "config.txt": "eb72e4a68ab07cfa690d920778de668431262bef3a6feb9dd688149ef2424a98",
        "forest-0.json": "82e39fc5b97fcf6b7428a448a5dd64f03285e5a9f947bf6d4931cf41933b20f5",
        "forest-1.json": "23b122ce83acf8b056e614e9c080f346dbece52808c80e4d776f2795fc08cc79",
        "forest-2.json": "44378b9351aa201adc1dc6e187fcf07393fc8254b0cf81d8deb1091295d5f7ab",
        "report.json": "cbbf0af6d885f60f2fc2a1a3d4353d49ebfbc074b3af27354ab9f2ef2f3d76a4",
        "report.txt": "7b0b1a18c746a5a5e8c3ef2d2ea51d4c3737fd94b89d905069e4fdf55d6d2127",
        "summary.json": "51fd8bd5d93c5531abdc29e32bba5ada1447de764f70abea6128090e53801f0f",
        "tree0.dot": "f48b729de7a8b02d77c3d1afc4e96787ca2786aa9d7d8ce28d5900bd0c8a0f1c",
    }),
    "fig1": (0, "837733ba7ff4313e1d4380746a53c75565df39e9caba07e4b27ba95e9fbfb720", {
        "config.txt": "e79401a3127061dbd46e7764b4ed621786c5904c81e56ac8873b96dad684579a",
        "forest-0.json": "adbd91bdf74262e71979a777347a25af9f8164a369b79a7b5f0c77c302019646",
        "forest-1.json": "bf31b7f21e9c57471d6acc9d6618be8c2d64cd7fda2f9c367f02399b694fe613",
        "report.json": "87adc2e8f41bef33dcf227af3db8ad7185facefd3d446d659299a5af98fd2ee1",
        "report.txt": "1fe806d040710b2e972d0473259f78c947bb1314eae5a5a4ba5dc0d5c151d909",
        "summary.json": "6df6437c2ae8c4bf12a4c59707bab5b55d197dacdb93f6348a21f8e3639b2e2f",
        "tree0.dot": "0b52bb504245788a338c704cad34c132754f287cc1c87d910103fdb7b2d33dee",
    }),
    "fig2-majority-vote": (0, "6141ec7e916d9a2ea36a5e885aa5a9c0bcb25a788d2c8976e6c83dcd55d11f19", {
        "config.txt": "94b392ac817f08a19856b8c0d264fc2ef97fb4cc8c12395489653bfc3683c6a1",
        "forest-0.json": "1173154c58b36ae73a477a5ff24a40f6e25347dd3ed0d15287f6770b51445ae6",
        "forest-1.json": "aedd48a5864b99f55c41a6b36dcd89b2efe820856bf0ca41fe4e7b673c6ac547",
        "report.json": "87adc2e8f41bef33dcf227af3db8ad7185facefd3d446d659299a5af98fd2ee1",
        "report.txt": "1fe806d040710b2e972d0473259f78c947bb1314eae5a5a4ba5dc0d5c151d909",
        "summary.json": "162c78d913ea0a9528e6ca3c4702cef2bddd5239dbd289ef9e2acc105d7ce65d",
        "tree0.dot": "dee159e2f04369a1233a16db6b1999347f5a1ed81504fdf9d4feb64818211be1",
    }),
    "config-file": (0, "57c05dc136202c31fab8ffb3b4690c091db21636b244f731540fb036035b847f", {
        "config.txt": "7242754c594022227020ed375048832dc476a70fa7e4cbe94c7dff9bc383ab45",
        "forest-0.json": "8b07b901f60f0a63daa1efa986466b26d6c4296adf76e28aaf9a2c237caaa9a6",
        "forest-1.json": "d72cb0c9fb3e728f17a2337dabbaac58f257cef6c80062af959ad28c92a94d2c",
        "report.json": "4a5db0cf86ea4b5172909bae38d68d7f157fcfa4d142c6b92190f3b5a07c0ad4",
        "report.txt": "551547a2062bbcd3d0f483dd9b1ebcc6256d01cad8aa8be434d5da5d407d3fca",
        "summary.json": "6e97932c3f7092cc943763db1f2124e3c7b9f15e46e42fce28da73f3867e6437",
        "tree0.dot": "c42b29eebe5bb7aaf2a0c160d8565f27b5f172737fe20c4427861a2944fbea29",
    }),
}


@pytest.mark.parametrize("case_id", list(RUN_ARGV))
def test_run_outputs_pinned(case_id, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "forest.txt").write_text(RUN_CONFIG_FILE, encoding="utf-8")
    code = main(["run", *RUN_ARGV[case_id], "--out-dir", "out"])
    stdout = capsys.readouterr().out
    expected_code, expected_stdout, expected_files = RUN_PINS[case_id]
    assert (code, _sha256(stdout)) == (expected_code, expected_stdout)
    written = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path / "out"))}
    assert written == expected_files
