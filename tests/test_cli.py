"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest import (
    Aggregation,
    ForestConfig,
    NodeSizeSemantics,
    TieBreak,
    forest_to_json,
    generate_synthetic_formulas,
    load_forest,
    save_csv,
    train_test_split,
)
from detforest.cli import (
    _CONFIG_FIELDS,
    PRESETS,
    ConfigError,
    _trial_seeds,
    audit_config_text,
    main,
    parse_config_text,
    render_config,
    run_trials,
)
from detforest.prng import TRIAL_STREAM, derive_stream, next_u64

from helpers import (
    duplicated_feature_dataset,
    reference_parse_config_text,
    reference_render_config,
)


@pytest.fixture()
def dup_csv(tmp_path):
    path = tmp_path / "dup.csv"
    save_csv(duplicated_feature_dataset(), path)
    return str(path)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            ForestConfig(),
            ForestConfig(n_trees=7, mtry="all", bootstrap=False, seed=99),
            ForestConfig(mtry=5, max_depth=7, sample_fraction=0.632),
            ForestConfig(
                min_node_size=10,
                node_size_semantics=NodeSizeSemantics.MIN_LEAF,
                tie_break=TieBreak.FIRST_IN_DRAW_ORDER,
                aggregation=Aggregation.MAJORITY_VOTE,
            ),
            ForestConfig(seed=2**64 - 1),
        ],
    )
    def test_render_parse_identity(self, cfg):
        text = render_config(cfg)
        parsed, present = parse_config_text(text)
        assert parsed == cfg
        # render writes every key, so every key reads back as present
        assert len(present) == 10

    def test_comments_and_blank_lines_ignored(self):
        cfg, present = parse_config_text(
            "\n# a full-line comment\nn_trees = 5  # trailing comment\n\n"
        )
        assert cfg.n_trees == 5
        assert present == frozenset({"n_trees"})

    def test_empty_text_gives_defaults(self):
        cfg, present = parse_config_text("")
        assert cfg == ForestConfig()
        assert present == frozenset()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("max_trees = 5\n", "unknown key"),
            ("n_trees = 5\nn_trees = 6\n", "duplicate key"),
            ("n_trees\n", "expected key = value"),
            ("n_trees =\n", "no value"),
            ("n_trees = many\n", "must be an integer"),
            ("tie_break = coin-flip\n", "must be one of"),
            ("bootstrap = yes\n", "must be true or false"),
            ("sample_fraction = half\n", "must be a number"),
            ("mtry = log2\n", "must be an integer"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert fragment in str(exc.value)
        assert str(exc.value).startswith("line ")

    def test_line_numbers_count_physical_lines(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("# header\nn_trees = 5\nbogus = 1\n")
        assert "line 3" in str(exc.value)

    def test_semantic_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_trees = 0\n")
        with pytest.raises(ConfigError):
            parse_config_text("sample_fraction = 1.5\n")


_KEYS = [field.name for field in dataclasses.fields(ForestConfig)]
_TOKENS = [
    "0", "-1", "1_000", "+5", "05", ".5", "1e3", "nan", "inf",
    "true", "True", "yes", "sqrt", "all", "none",
    *(e.value for cls in (NodeSizeSemantics, TieBreak, Aggregation) for e in cls),
]
_config_line = st.one_of(
    st.builds(
        "{}{}{}{}".format,
        st.sampled_from(_KEYS + ["bogus"]),
        st.sampled_from([" = ", "=", " =", "= ", "\t=\t", " = ", "=", " "]),  # " ": no '='
        st.sampled_from(_TOKENS + [""]),
        st.sampled_from(["", "  # note", "#"]),
    ),
    st.sampled_from(["", "# comment"]),
)
_configs = st.builds(
    ForestConfig,
    n_trees=st.integers(1, 10**6),
    mtry=st.one_of(st.none(), st.just("all"), st.integers(1, 10**6)),
    min_node_size=st.integers(1, 10**6),
    node_size_semantics=st.sampled_from(NodeSizeSemantics),
    max_depth=st.one_of(st.none(), st.integers(1, 10**6)),
    tie_break=st.sampled_from(TieBreak),
    bootstrap=st.booleans(),
    sample_fraction=st.floats(0.0, 1.0, exclude_min=True),
    aggregation=st.sampled_from(Aggregation),
    seed=st.integers(0, 2**64 - 1),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # ConfigError is one
        return type(exc), str(exc)


class TestConfigCodec:
    def test_one_entry_per_config_field_in_order(self):
        assert list(_CONFIG_FIELDS) == _KEYS

    @given(st.lists(_config_line, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_the_per_key_parser(self, lines):
        text = "\n".join(lines)
        assert _outcome(parse_config_text, text) == _outcome(reference_parse_config_text, text)

    @given(_configs)
    @settings(max_examples=200, deadline=None)
    def test_render_matches_the_per_key_renderer(self, cfg):
        text = render_config(cfg)
        assert text == reference_render_config(cfg)
        assert parse_config_text(text) == (cfg, frozenset(_KEYS))


class TestAuditConfig:
    def test_sparse_config_raises_three_warnings(self):
        warnings = audit_config_text("n_trees = 50\nbootstrap = true\n")
        assert len(warnings) == 3
        joined = "\n".join(warnings)
        assert "min_node_size is unset" in joined
        assert "without a recorded seed" in joined
        assert "aggregation is unspecified" in joined

    def test_draw_order_tie_break_adds_fourth_warning(self):
        warnings = audit_config_text(
            "n_trees = 50\nbootstrap = true\ntie_break = first-in-draw-order\n"
        )
        assert len(warnings) == 4
        assert any("first-in-draw-order" in w for w in warnings)

    def test_fully_pinned_config_is_clean(self):
        assert audit_config_text(render_config(ForestConfig())) == []

    def test_seed_warning_only_with_bootstrap(self):
        warnings = audit_config_text(
            "min_node_size = 1\nbootstrap = false\naggregation = majority-vote\n"
        )
        assert warnings == []

    def test_cli_clean_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(render_config(ForestConfig()))
        assert main(["audit-config", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "no reproducibility hazards found\n"

    def test_cli_warning_lines(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("n_trees = 50\n")
        assert main(["audit-config", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("warning: ") == 3

    def test_cli_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        assert main(["audit-config", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestGen:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gen", "--rows", "120", "--features", "4",
                     "--out", str(out), "--seed", "3"]) == 0
        stdout = capsys.readouterr().out
        assert "120 rows, 4 features" in stdout
        assert "class counts [72, 30, 18]" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 121
        assert lines[0] == "x0,x1,x2,x3,label"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["gen", "--rows", "30", "--features", "4",
                  "--out", str(path), "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        main(["gen", "--rows", "30", "--features", "4", "--out", str(c), "--seed", "8"])
        assert a.read_bytes() != c.read_bytes()

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("DETFOREST_SEED", "7")
        main(["gen", "--rows", "30", "--features", "4", "--out", str(a)])
        monkeypatch.delenv("DETFOREST_SEED")
        main(["gen", "--rows", "30", "--features", "4", "--out", str(b), "--seed", "7"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_flag_seed_beats_env(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("DETFOREST_SEED", "5")
        main(["gen", "--rows", "30", "--features", "4", "--out", str(a), "--seed", "7"])
        monkeypatch.delenv("DETFOREST_SEED")
        main(["gen", "--rows", "30", "--features", "4", "--out", str(b), "--seed", "7"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DETFOREST_SEED", "banana")
        rc = main(["gen", "--rows", "30", "--features", "4",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "DETFOREST_SEED" in capsys.readouterr().err


class TestSplit:
    def test_writes_partition(self, dup_csv, tmp_path, capsys):
        out = tmp_path / "split.json"
        assert main(["split", "--data", dup_csv, "--out", str(out),
                     "--train-fraction", "0.75", "--seed", "1"]) == 0
        assert "9 train / 3 test" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "detforest.split.v1"
        assert sorted(doc["train"] + doc["test"]) == list(range(12))
        assert len(doc["train"]) == 9

    def test_deterministic(self, dup_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["split", "--data", dup_csv, "--out", str(path), "--seed", "4"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_data_exits_2(self, tmp_path, capsys):
        rc = main(["split", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def _summary(out_dir) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


class TestRunPresets:
    def test_table3_draw_order_ties_are_canonically_invisible(
        self, dup_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main(["run", "--preset", "table3", "--data", dup_csv,
                   "--tie-break", "first-in-draw-order", "--trials", "5",
                   "--out-dir", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "canonical-equal: 5/5" in stdout
        assert "bit-equal: 3/5" in stdout
        assert "expectation[all trees canonically equal]: PASS" in stdout
        s = _summary(out)
        assert s["canonical_equal"] == [5, 5]
        assert s["bit_equal"] == [3, 5]
        assert s["preset"] == "table3"
        assert len(s["trial_seeds"]) == 5
        for t in range(5):
            assert (out / f"forest-{t}.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "config.txt").exists()
        assert (out / "tree0.dot").exists()

    def test_table3_lowest_index_ties_are_bit_invisible(self, dup_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--preset", "table3", "--data", dup_csv,
                   "--trials", "5", "--out-dir", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "bit-equal: 5/5" in stdout
        assert _summary(out)["bit_equal"] == [5, 5]

    def test_table3_trees_override_single_forest(self, dup_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--preset", "table3", "--data", dup_csv,
                   "--trees", "5", "--out-dir", str(out)])
        assert rc == 0
        capsys.readouterr()
        s = _summary(out)
        assert s["canonical_equal"] == [5, 5]
        assert s["bit_equal"] == [5, 5]
        forest = load_forest(out / "forest-0.json")
        assert len(forest.trees) == 5
        # single trial: no divergence report
        assert not (out / "report.txt").exists()

    def test_table2_bootstrap_varies_trees(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--preset", "table2", "--rows", "120",
                   "--features", "4", "--trees", "8", "--out-dir", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "expectation[bootstrap produces at least two bit-distinct trees]: PASS" in stdout
        s = _summary(out)
        assert s["bit_equal"][0] < 8

    def test_fig_presets_desk_scale(self, tmp_path, capsys):
        out1 = tmp_path / "fig1"
        rc1 = main(["run", "--preset", "fig1", "--out-dir", str(out1)])
        stdout1 = capsys.readouterr().out
        assert rc1 == 0
        assert "expectation[some leaf smaller than min_node_size=1000]: PASS" in stdout1
        assert "expectation[every split node at least min_node_size=1000]: PASS" in stdout1

        out2 = tmp_path / "fig2"
        rc2 = main(["run", "--preset", "fig2", "--out-dir", str(out2)])
        stdout2 = capsys.readouterr().out
        assert rc2 == 0
        assert "expectation[every leaf at least min_node_size=1000]: PASS" in stdout2

        # The two node-size semantics grow visibly different shallow trees.
        dot1 = (out1 / "tree0.dot").read_text()
        dot2 = (out2 / "tree0.dot").read_text()
        assert dot1.startswith("digraph tree {")
        assert dot1 != dot2


class TestRunConfigFile:
    def test_file_seed_used(self, dup_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(render_config(ForestConfig(n_trees=3, seed=77)))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--data", dup_csv,
                   "--out-dir", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "seed: 77" in stdout
        s = _summary(out)
        assert s["seed"] == 77
        assert s["preset"] is None

    def test_flag_and_env_beat_file_seed(self, dup_csv, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(render_config(ForestConfig(n_trees=3, seed=77)))
        out1 = tmp_path / "o1"
        main(["run", "--config", str(cfg_path), "--data", dup_csv,
              "--seed", "5", "--out-dir", str(out1)])
        assert _summary(out1)["seed"] == 5
        monkeypatch.setenv("DETFOREST_SEED", "6")
        out2 = tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--data", dup_csv,
              "--out-dir", str(out2)])
        assert _summary(out2)["seed"] == 6
        capsys.readouterr()

    def test_written_config_reflects_overrides(self, dup_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(render_config(ForestConfig(n_trees=3, seed=77)))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--data", dup_csv,
              "--trees", "2", "--aggregation", "majority-vote",
              "--out-dir", str(out)])
        capsys.readouterr()
        written, _ = parse_config_text((out / "config.txt").read_text())
        assert written.n_trees == 2
        assert written.aggregation is Aggregation.MAJORITY_VOTE
        assert written.seed == 77

    def test_banner_lists_the_written_config(self, dup_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(render_config(ForestConfig(
            n_trees=2, mtry=1, max_depth=3, node_size_semantics=NodeSizeSemantics.MIN_LEAF,
            sample_fraction=0.75, seed=77,
        )))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--data", dup_csv,
                     "--tie-break", "first-in-draw-order", "--out-dir", str(out)]) == 0
        banner = [line for line in capsys.readouterr().out.splitlines() if line.startswith("forest: ")]
        assert len(banner) == 1
        shown = [tuple(pair.split("=", 1)) for pair in banner[0].removeprefix("forest: ").split(" ")]
        written = [
            tuple(part.strip() for part in line.split("=", 1))
            for line in (out / "config.txt").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert shown == written
        assert ("tie_break", "first-in-draw-order") in shown


class TestRunDeterminism:
    def test_two_runs_byte_identical(self, dup_csv, tmp_path, capsys):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            rc = main(["run", "--preset", "table3", "--data", dup_csv,
                       "--trials", "2", "--out-dir", str(out)])
            assert rc == 0
        capsys.readouterr()
        for name in ("forest-0.json", "forest-1.json", "config.txt",
                     "tree0.dot", "report.txt", "report.json", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_trial_seeds_are_successive_trial_stream_draws(self):
        rng, expected = derive_stream(7, TRIAL_STREAM), []
        for _ in range(5):
            seed, rng = next_u64(rng)
            expected.append(seed)
        seeds = _trial_seeds(7, 5)
        assert seeds == expected
        assert all(type(seed) is int for seed in seeds)  # ForestConfig takes only ints
        assert _trial_seeds(7, 0) == []

    def test_workers_option_is_gone(self, dup_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "table3", "--data", dup_csv,
                  "--workers", "2", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRunTrials:
    """run_trials, the library call behind `run`."""

    @pytest.mark.parametrize("preset, extra", [
        ("table2", ["--trees", "3"]),
        ("table3", ["--tie-break", "first-in-draw-order"]),
        ("fig1", []),
        ("fig2", ["--aggregation", "majority-vote"]),
    ])
    def test_gives_what_run_writes(self, preset, extra, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--preset", preset, "--rows", "1500", "--features", "6", "--seed", "3",
              "--trials", "2", *extra, "--out-dir", str(out)])
        capsys.readouterr()
        ds = generate_synthetic_formulas(1500, 6, 3)
        split = train_test_split(ds, 0.8, 3)
        cfg, _ = parse_config_text((out / "config.txt").read_text())
        run = run_trials(ds, split, cfg, 2)
        for t, forest in enumerate(run.forests):
            assert forest_to_json(forest) + "\n" == (out / f"forest-{t}.json").read_text()
        s = _summary(out)
        assert list(run.seeds) == s["trial_seeds"]
        assert [list(run.canonical_equal), list(run.bit_equal)] == [s["canonical_equal"], s["bit_equal"]]
        assert run.divergence.to_doc() == s["divergence"]
        held = [(claim, check(cfg, run)) for claim, check in PRESETS[preset].expectations]
        assert held == [(e["name"], e["holds"]) for e in s["expectations"]]

    def test_derandomized_trials_are_bit_equal(self):
        ds = generate_synthetic_formulas(300, 6, 0)
        split = train_test_split(ds, 0.8, 0)
        cfg = dataclasses.replace(PRESETS["table3"].config(), n_trees=2)
        run = run_trials(ds, split, cfg, 3)
        assert run.canonical_equal == run.bit_equal == (6, 6)
        assert len(set(run.seeds)) == 3
        assert max(p.n_divergent for p in run.divergence.pairs) == 0

    def test_one_trial_has_no_divergence(self):
        ds = generate_synthetic_formulas(300, 6, 0)
        split = train_test_split(ds, 0.8, 0)
        run = run_trials(ds, split, ForestConfig(n_trees=4, seed=5), 1)
        assert run.divergence is None
        assert run.seeds == tuple(_trial_seeds(5, 1))
        assert len(run.forests) == 1
        assert run.bit_equal[1] == run.canonical_equal[1] == 4

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        ds = generate_synthetic_formulas(60, 4, 0)
        split = train_test_split(ds, 0.8, 0)
        with pytest.raises(ValueError, match="--trials must be >= 1"):
            run_trials(ds, split, ForestConfig(n_trees=1), trials)

    @pytest.mark.parametrize("trials", [True, 2.0, np.int64(2), "2"])
    def test_non_int_trials_rejected(self, trials):
        # True once ran one trial, and 2.0 failed deep in the PRNG with a TypeError.
        ds = generate_synthetic_formulas(60, 4, 0)
        split = train_test_split(ds, 0.8, 0)
        with pytest.raises(ValueError, match="--trials must be an integer"):
            run_trials(ds, split, ForestConfig(n_trees=1), trials)


class TestExportTree:
    @pytest.fixture()
    def run_dir(self, dup_csv, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--preset", "table3", "--data", dup_csv,
              "--out-dir", str(out)])
        capsys.readouterr()
        return out

    def test_dot_stdout_matches_run_artifact(self, run_dir, capsys):
        rc = main(["export-tree", "--forest", str(run_dir / "forest-0.json")])
        assert rc == 0
        assert capsys.readouterr().out == (run_dir / "tree0.dot").read_text()

    def test_structured_format(self, run_dir, capsys):
        rc = main(["export-tree", "--forest", str(run_dir / "forest-0.json"),
                   "--format", "structured"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "detforest.tree.v1"
        assert doc["n_features"] == 2
        assert doc["tree"]["nodes"]

    def test_out_file(self, run_dir, tmp_path, capsys):
        path = tmp_path / "t.dot"
        rc = main(["export-tree", "--forest", str(run_dir / "forest-0.json"),
                   "--out", str(path)])
        assert rc == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert path.read_text() == (run_dir / "tree0.dot").read_text()

    def test_index_out_of_range_exits_2(self, run_dir, capsys):
        rc = main(["export-tree", "--forest", str(run_dir / "forest-0.json"),
                   "--tree", "7"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestDiff:
    @pytest.fixture()
    def trained(self, tmp_path, capsys):
        csv = tmp_path / "small.csv"
        main(["gen", "--rows", "120", "--features", "4", "--out", str(csv),
              "--seed", "3"])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(render_config(ForestConfig(n_trees=3, seed=77)))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--data", str(csv), "--trials", "2",
              "--out-dir", str(out)])
        capsys.readouterr()
        return csv, out

    def test_identical_forests_exit_0(self, trained, capsys):
        csv, out = trained
        f0 = str(out / "forest-0.json")
        rc = main(["diff", f0, f0, "--data", str(csv)])
        assert rc == 0
        stdout = capsys.readouterr().out
        # duplicate paths get distinguishing prefixes
        assert f"a:{f0}" in stdout
        assert f"b:{f0}" in stdout
        assert "out of 120 test rows" in stdout

    def test_divergent_forests_exit_1(self, trained, capsys):
        csv, out = trained
        rc = main(["diff", str(out / "forest-0.json"),
                   str(out / "forest-1.json"), "--data", str(csv)])
        assert rc == 1
        assert "12" in capsys.readouterr().out

    def test_aggregation_override(self, trained, capsys):
        csv, out = trained
        f0 = str(out / "forest-0.json")
        rc = main(["diff", f0, f0, "--data", str(csv),
                   "--aggregation", "majority-vote"])
        assert rc == 0
        capsys.readouterr()

    def test_out_of_range_feature_exits_2(self, trained, tmp_path, capsys):
        csv, out = trained
        doc = json.loads((out / "forest-0.json").read_text())
        node = next(nd for nd in doc["trees"][0]["nodes"] if "feature" in nd)
        node["feature"] = doc["n_features"]
        bad = tmp_path / "bad-forest.json"
        bad.write_text(json.dumps(doc))
        rc = main(["diff", str(bad), str(out / "forest-1.json"), "--data", str(csv)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_incompatible_data_exits_2(self, trained, dup_csv, capsys):
        _, out = trained
        rc = main(["diff", str(out / "forest-0.json"),
                   str(out / "forest-1.json"), "--data", dup_csv])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_split_without_data_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--preset", "table3",
                   "--split", str(tmp_path / "s.json"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "--split requires --data" in capsys.readouterr().err

    def test_zero_trials_exits_2(self, dup_csv, tmp_path, capsys):
        rc = main(["run", "--preset", "table3", "--data", dup_csv,
                   "--trials", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "table9"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_preset_and_config_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "table3", "--config",
                  str(tmp_path / "c.txt")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_run_with_corrupt_split_exits_2(self, dup_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema":"detforest.split.v1","train":[0,1],"test":[2]}')
        rc = main(["run", "--preset", "table3", "--data", dup_csv,
                   "--split", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "partition" in capsys.readouterr().err
