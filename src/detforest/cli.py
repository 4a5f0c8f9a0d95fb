"""Command-line front end.

Verbs:

* ``gen``          synthesize a composition-style dataset to CSV
* ``split``        write a deterministic train/test split file
* ``run``          train one or more forests under a named experiment
                   preset (or a config file), write forests, reports and a
                   tree rendering, and verify the preset's expectations
* ``export-tree``  render one tree of a saved forest as DOT or JSON
* ``diff``         count divergent classifications between two saved forests
* ``audit-config`` flag reproducibility hazards in a config file

Every command is deterministic: the same invocation produces byte-identical
output files.  Wall-clock timings go to stderr only.

``run`` is a thin shell over the library call ``run_trials``, which fits
the trials and tallies how far they agree; each ``ExperimentPreset``
carries its expectations as (claim, check) data, and ``run`` only writes
the files and prints.

Exit codes: 0 success (and, for ``diff``, zero divergence; for ``run``, all
expectations hold), 1 divergence/expectation failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .canonical import DivergenceReport, canonicalize, forest_divergence
from .cart import (
    DecisionTree, Internal, Leaf, NodeSizeSemantics, TieBreak, class_counts_of, gini, trees_equal_exact,
)
from .dataset import (
    Dataset,
    SplitIndices,
    generate_synthetic_formulas,
    load_csv,
    save_csv,
    train_test_split,
)
from .forest import (
    MTRY_ALL,
    Aggregation,
    Forest,
    ForestConfig,
    _int,
    _object,
    _tree_to_doc,
    accuracy,
    dump_json,
    fit,
    load_forest,
    read_json,
    save_forest,
)
from .prng import TRIAL_STREAM, derive_stream, next_u64_block

SPLIT_SCHEMA = "detforest.split.v1"
TREE_SCHEMA = "detforest.tree.v1"

DEFAULT_ROWS = 4598
DEFAULT_FEATURES = 87
DEFAULT_TRAIN_FRACTION = 0.8


class ConfigError(ValueError):
    """A config file (or DETFOREST_SEED) could not be parsed."""


# --------------------------------------------------------------------------
# Experiment presets


@dataclass(frozen=True)
class TrialRun:
    """What run_trials returns.  The tallies count the trees of all forests
    that equal the first tree, next to the tree count; divergence is None
    for one trial."""

    seeds: tuple[int, ...]
    forests: tuple[Forest, ...]
    canonical_equal: tuple[int, int]
    bit_equal: tuple[int, int]
    divergence: DivergenceReport | None


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str
    deltas: dict
    # (claim, check): check(cfg, run) says whether the claim holds for a run
    expectations: tuple[tuple[str, Callable[[ForestConfig, TrialRun], bool]], ...]

    def config(self) -> ForestConfig:
        return dataclasses.replace(ForestConfig(), **self.deltas)


# What fig1 and fig2 share: one shallow, derandomized tree with node size 1000.
_SHALLOW_TREE = {
    "n_trees": 1,
    "mtry": MTRY_ALL,
    "bootstrap": False,
    "sample_fraction": 1.0,
    "min_node_size": 1000,
    "max_depth": 5,
}
_NODE_SIZE = f"min_node_size={_SHALLOW_TREE['min_node_size']}"

PRESETS: dict[str, ExperimentPreset] = {
    p.name: p
    for p in [
        ExperimentPreset(
            name="table2",
            description="bagged forest, package-default parameters, desk-scale tree count",
            deltas={"n_trees": 50},
            expectations=((
                "bootstrap produces at least two bit-distinct trees",
                lambda cfg, run: not all(
                    trees_equal_exact(run.forests[0].trees[0], t) for t in run.forests[0].trees
                ),
            ),),
        ),
        ExperimentPreset(
            name="table3",
            description="randomness eliminated: one tree, every feature a candidate, no bootstrap",
            deltas={"n_trees": 1, "mtry": MTRY_ALL, "bootstrap": False, "sample_fraction": 1.0},
            expectations=((
                "all trees canonically equal",
                lambda cfg, run: run.canonical_equal[0] == run.canonical_equal[1],
            ),),
        ),
        ExperimentPreset(
            name="fig1",
            description="shallow single tree, node size 1000 as a split threshold (children may be smaller)",
            deltas={**_SHALLOW_TREE, "node_size_semantics": NodeSizeSemantics.MIN_SPLIT},
            expectations=(
                (
                    f"some leaf smaller than {_NODE_SIZE}",
                    lambda cfg, run: any(
                        isinstance(node, Leaf) and sum(node.class_counts) < cfg.min_node_size
                        for node in run.forests[0].trees[0].nodes
                    ),
                ),
                (
                    f"every split node at least {_NODE_SIZE}",
                    lambda cfg, run: all(
                        isinstance(node, Leaf) or sum(node.class_counts) >= cfg.min_node_size
                        for node in run.forests[0].trees[0].nodes
                    ),
                ),
            ),
        ),
        ExperimentPreset(
            name="fig2",
            description="shallow single tree, node size 1000 as a leaf floor (no child may be smaller)",
            deltas={**_SHALLOW_TREE, "node_size_semantics": NodeSizeSemantics.MIN_LEAF},
            expectations=((
                f"every leaf at least {_NODE_SIZE}",
                lambda cfg, run: all(
                    isinstance(node, Internal) or sum(node.class_counts) >= cfg.min_node_size
                    for node in run.forests[0].trees[0].nodes
                ),
            ),),
        ),
    ]
}


# --------------------------------------------------------------------------
# Config files: flat key=value with a comment block mapping each unified
# name onto its equivalents in the four packages people actually run.

_CONFIG_HEADER = """\
# detforest forest configuration (key = value, '#' starts a comment).
#
# Equivalents of each unified name in the common packages:
#
#   unified          Scikit-Learn        SKRanger         Ranger           randomForest
#   n_trees          n_estimators        n_estimators     num.trees        ntree
#   mtry             max_features        mtry             mtry             mtry
#   min_node_size    min_samples_split   min_node_size    min.node.size    nodesize
#   max_depth        max_depth           max_depth        max.depth        (none)
#   bootstrap        bootstrap           replace          replace          replace
#   sample_fraction  max_samples         sample_fraction  sample.fraction  sampsize
#   seed             random_state        seed             seed             set.seed()
#
# min_node_size follows node_size_semantics: 'min-split' refuses to split
# nodes below the limit (children may be smaller; what nodesize and
# min_samples_split do), 'min-leaf' rejects splits that would produce a
# child below the limit (what min_samples_leaf documents).
# tie_break and aggregation have no package switches: packages break
# impurity ties by candidate draw order, and differ in whether prediction
# majority-votes the trees or averages their leaf probabilities.
"""


def _int_or(words: dict) -> tuple:
    """An integer field whose other values are written as the given words."""
    tokens = {value: word for word, value in words.items()}
    return (
        "an integer",
        lambda t: words[t] if t in words else int(t),
        lambda v: tokens.get(v, str(v)),
    )


def _enum(cls) -> tuple:
    return f"one of {', '.join(e.value for e in cls)}", cls, lambda v: v.value


# One entry per ForestConfig field, in file order: what a valid token is,
# the token -> value reader (it raises ValueError or KeyError), and the
# value -> token writer.
_CONFIG_FIELDS: dict[str, tuple] = {
    "n_trees": ("an integer", int, str),
    "mtry": _int_or({"sqrt": None, MTRY_ALL: MTRY_ALL}),
    "min_node_size": ("an integer", int, str),
    "node_size_semantics": _enum(NodeSizeSemantics),
    "max_depth": _int_or({"none": None}),
    "tie_break": _enum(TieBreak),
    "bootstrap": (
        "true or false",
        {"true": True, "false": False}.__getitem__,
        lambda v: "true" if v else "false",
    ),
    "sample_fraction": ("a number", float, repr),
    "aggregation": _enum(Aggregation),
    "seed": ("an integer", int, str),
}


def _config_tokens(cfg: ForestConfig) -> list[tuple[str, str]]:
    """(key, token) for each field of cfg, in file order."""
    return [(key, write(getattr(cfg, key))) for key, (*_, write) in _CONFIG_FIELDS.items()]


def render_config(cfg: ForestConfig) -> str:
    """Config-file text for cfg; parse_config_text inverts this exactly."""
    lines = [f"{key} = {token}" for key, token in _config_tokens(cfg)]
    return "\n".join([_CONFIG_HEADER, *lines]) + "\n"


def parse_config_text(text: str) -> tuple[ForestConfig, frozenset[str]]:
    """Parse key=value config text.

    Returns the config and the set of keys the file actually set (the audit
    distinguishes an explicit default from an omitted key).  Unknown or
    duplicate keys are errors: a silently ignored typo is itself a
    reproducibility hazard.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: {key} has no value")
        what, read, _ = _CONFIG_FIELDS[key]
        try:
            values[key] = read(value)
        except (ValueError, KeyError):
            raise ConfigError(f"line {lineno}: {key} must be {what}, got {value!r}") from None

    try:
        cfg = ForestConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, frozenset(values)


def audit_config_text(text: str) -> list[str]:
    """Reproducibility warnings for a config file (empty = fully pinned)."""
    cfg, present = parse_config_text(text)
    warnings = []
    if "min_node_size" not in present:
        warnings.append(
            "min_node_size is unset: package defaults disagree (SKRanger uses 10, the "
            "others use 1), so the same pipeline run through different front ends "
            "grows different trees; set it explicitly"
        )
    if cfg.tie_break is TieBreak.FIRST_IN_DRAW_ORDER:
        warnings.append(
            "tie_break = first-in-draw-order: splits tied on impurity follow the "
            "candidate draw order, so tree structure depends on the PRNG stream even "
            "with bootstrap off; use lowest-feature-index for run-to-run stability"
        )
    if cfg.bootstrap and "seed" not in present:
        warnings.append(
            "bootstrap = true without a recorded seed: resampling cannot be replayed; "
            "record seed in this file"
        )
    if "aggregation" not in present:
        warnings.append(
            "aggregation is unspecified: majority voting and mean-probability argmax "
            "can classify the same sample differently when leaves are impure; pin one"
        )
    return warnings


# --------------------------------------------------------------------------
# Tree rendering


def tree_to_dot(tree: DecisionTree) -> str:
    """DOT digraph of the tree; node ids follow preorder."""
    entries: list[str] = []
    parent = [-1] * len(tree.nodes)
    for nid, node in enumerate(tree.nodes):
        counts = node.class_counts
        label = f"n={sum(counts)} | gini={gini(counts):.6g} | counts={list(counts)}"
        if isinstance(node, Internal):
            label = f"f{node.feature} ≤ {node.threshold!r} | {label}"
            parent[node.left] = parent[node.right] = nid
        entries.append(f'  n{nid} [label="{label}"];')
    edges = [f"  n{parent[nid]} -> n{nid};" for nid in range(1, len(tree.nodes))]
    return "\n".join(["digraph tree {", "  node [shape=box];", *entries, *edges, "}"]) + "\n"


def tree_to_structured(tree: DecisionTree) -> str:
    """The tree as a standalone versioned JSON document (deterministic bytes)."""
    doc = {
        "schema": TREE_SCHEMA,
        "n_features": tree.n_features,
        "n_classes": tree.n_classes,
        "tree": _tree_to_doc(tree, {}),
    }
    return dump_json(doc) + "\n"


# --------------------------------------------------------------------------
# Shared plumbing


def _resolve_seed(cli_seed: int | None, file_seed: int | None = None) -> int:
    """--seed beats DETFOREST_SEED beats the config file beats 0."""
    if cli_seed is not None:
        seed = cli_seed
    else:
        env = os.environ.get("DETFOREST_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"DETFOREST_SEED must be an integer, got {env!r}") from None
        elif file_seed is not None:
            seed = file_seed
        else:
            seed = 0
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _write_split_file(split: SplitIndices, path) -> None:
    doc = {"schema": SPLIT_SCHEMA, "train": list(split.train), "test": list(split.test)}
    Path(path).write_text(dump_json(doc) + "\n", encoding="utf-8")


def _read_split_file(path, n: int) -> SplitIndices:
    doc = read_json(Path(path).read_text(encoding="utf-8"), f"split file {path}")
    if not isinstance(doc, dict) or doc.get("schema") != SPLIT_SCHEMA:
        raise ValueError(f"{path} is not a {SPLIT_SCHEMA} document")
    _object(doc, frozenset({"schema", "train", "test"}), f"split file {path}")
    parts = []
    for key in ("train", "test"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{path} has no {key} list of row indices")
        parts.append(tuple(_int(i, f"{path} {key} index") for i in doc[key]))
    train, test = parts
    if sorted(train + test) != list(range(n)):
        raise ValueError(f"split in {path} does not partition the {n} dataset rows")
    return SplitIndices(train=train, test=test)


def _load_data(args, seed: int) -> tuple[Dataset, SplitIndices, str]:
    """Dataset + split from --data/--split, or synthesized when --data absent."""
    if args.data is not None:
        ds = load_csv(args.data, args.label_column, composition=args.composition)
        origin = args.data
        if args.split is not None:
            split = _read_split_file(args.split, ds.n)
        else:
            split = train_test_split(ds, args.train_fraction, seed)
    else:
        if args.split is not None:
            raise ValueError("--split requires --data")
        ds = generate_synthetic_formulas(args.rows, args.features, seed)
        origin = f"synthetic n={args.rows} p={args.features}"
        split = train_test_split(ds, args.train_fraction, seed)
    return ds, split, origin


def _trial_seeds(base_seed: int, trials: int) -> list[int]:
    """Independent forest seeds for repeated trials, from the trial stream."""
    seeds, _ = next_u64_block(derive_stream(base_seed, TRIAL_STREAM), trials)
    return seeds.tolist()


def run_trials(ds: Dataset, split: SplitIndices, cfg: ForestConfig, trials: int) -> TrialRun:
    """Fit cfg once per trial, each on its own seed from _trial_seeds(cfg.seed,
    trials), and compare the forests: tree tallies against the first tree,
    and, for two or more trials, their divergence on split.test."""
    if type(trials) is not int:
        raise ValueError(f"--trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    seeds = tuple(_trial_seeds(cfg.seed, trials))
    forests = tuple(fit(ds, split, dataclasses.replace(cfg, seed=seed)) for seed in seeds)
    trees = [tree for forest in forests for tree in forest.trees]
    reference = canonicalize(trees[0])
    divergence = None
    if trials >= 2:
        labelled = [(f"trial-{t}", forest) for t, forest in enumerate(forests)]
        divergence = forest_divergence(labelled, ds, rows=split.test)
    return TrialRun(
        seeds=seeds,
        forests=forests,
        canonical_equal=(sum(canonicalize(t) == reference for t in trees), len(trees)),
        bit_equal=(sum(trees_equal_exact(trees[0], t) for t in trees), len(trees)),
        divergence=divergence,
    )


# --------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    ds = generate_synthetic_formulas(args.rows, args.features, seed)
    save_csv(ds, args.out)
    counts = list(class_counts_of(ds.labels, ds.c))
    print(f"wrote {args.out}: {ds.n} rows, {ds.p} features, class counts {counts}")
    return 0


def cmd_split(args) -> int:
    seed = _resolve_seed(args.seed)
    ds = load_csv(args.data, args.label_column, composition=args.composition)
    split = train_test_split(ds, args.train_fraction, seed)
    _write_split_file(split, args.out)
    print(f"wrote {args.out}: {len(split.train)} train / {len(split.test)} test rows")
    return 0


def cmd_run(args) -> int:
    t0 = time.monotonic()
    preset: ExperimentPreset | None = None
    if args.preset is not None:
        preset = PRESETS[args.preset]
        cfg = preset.config()
        seed = _resolve_seed(args.seed)
    else:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg, present = parse_config_text(text)
        seed = _resolve_seed(args.seed, file_seed=cfg.seed if "seed" in present else None)

    overrides: dict = {"seed": seed}
    if args.trees is not None:
        overrides["n_trees"] = args.trees
    if args.tie_break is not None:
        overrides["tie_break"] = TieBreak(args.tie_break)
    if args.aggregation is not None:
        overrides["aggregation"] = Aggregation(args.aggregation)
    cfg = dataclasses.replace(cfg, **overrides)

    ds, split, origin = _load_data(args, seed)
    run = run_trials(ds, split, cfg, args.trials)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, forest in enumerate(run.forests):
        save_forest(forest, out_dir / f"forest-{t}.json")
    (out_dir / "config.txt").write_text(render_config(cfg), encoding="utf-8")
    (out_dir / "tree0.dot").write_text(tree_to_dot(run.forests[0].trees[0]), encoding="utf-8")

    acc = accuracy(run.forests[0], ds, split.test)
    checks = preset.expectations if preset else ()
    expectations = [(claim, check(cfg, run)) for claim, check in checks]
    summary = {
        "preset": None if preset is None else preset.name,
        "seed": seed,
        "trial_seeds": run.seeds,
        "data": origin,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "canonical_equal": run.canonical_equal,
        "bit_equal": run.bit_equal,
        "max_pairwise_divergent": 0,
        "accuracy": acc,
        "expectations": [{"name": name, "holds": ok} for name, ok in expectations],
    }
    lines = [
        f"preset: {preset.name if preset else f'config file {args.config}'}",
        f"seed: {seed}  trials: {args.trials}",
        f"data: {origin} (train {len(split.train)} / test {len(split.test)})",
        "forest: " + " ".join(f"{key}={token}" for key, token in _config_tokens(cfg)),
        "canonical-equal: {}/{}".format(*run.canonical_equal),
        "bit-equal: {}/{}".format(*run.bit_equal),
    ]
    if run.divergence is not None:
        (out_dir / "report.txt").write_text(run.divergence.to_text(), encoding="utf-8")
        summary["divergence"] = run.divergence.to_doc()
        (out_dir / "report.json").write_text(dump_json(summary["divergence"]) + "\n", encoding="utf-8")
        max_divergent = max(p.n_divergent for p in run.divergence.pairs)
        summary["max_pairwise_divergent"] = max_divergent
        lines.append(f"divergence: max pairwise {max_divergent} of {len(split.test)} (report.txt)")
    (out_dir / "summary.json").write_text(dump_json(summary) + "\n", encoding="utf-8")

    lines.append(f"accuracy[{cfg.aggregation.value}]: {acc:.4f}")
    lines += [f"expectation[{name}]: {'PASS' if holds else 'FAIL'}" for name, holds in expectations]
    lines.append(f"wrote: {out_dir}")
    print("\n".join(lines))
    print(f"elapsed: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if all(holds for _, holds in expectations) else 1


def cmd_export_tree(args) -> int:
    forest = load_forest(args.forest)
    if not 0 <= args.tree < len(forest.trees):
        raise ValueError(
            f"tree index {args.tree} out of range (forest has "
            f"{len(forest.trees)} tree{'s' if len(forest.trees) != 1 else ''})"
        )
    tree = forest.trees[args.tree]
    text = tree_to_dot(tree) if args.format == "dot" else tree_to_structured(tree)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def cmd_diff(args) -> int:
    fa = load_forest(args.forest_a)
    fb = load_forest(args.forest_b)
    test = load_csv(args.data, args.label_column, composition=args.composition)
    label_a, label_b = str(args.forest_a), str(args.forest_b)
    if label_a == label_b:
        label_a, label_b = f"a:{label_a}", f"b:{label_b}"
    aggregation = None if args.aggregation is None else Aggregation(args.aggregation)
    report = forest_divergence([(label_a, fa), (label_b, fb)], test, aggregation=aggregation)
    sys.stdout.write(report.to_text())
    return 0 if report.pairs[0].n_divergent == 0 else 1


def cmd_audit_config(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    warnings = audit_config_text(text)
    for w in warnings:
        print(f"warning: {w}")
    if not warnings:
        print("no reproducibility hazards found")
    return 0


# --------------------------------------------------------------------------
# Argument parsing


def _add_seed(sub) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        default=None,
        help="64-bit unsigned seed (default: $DETFOREST_SEED, else 0)",
    )


def _add_csv_flags(sub) -> None:
    sub.add_argument("--label-column", default="label", help="label column name (default: label)")
    sub.add_argument(
        "--composition",
        action="store_true",
        help="require every feature row to sum to 100",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detforest",
        description="Deterministic random-forest trainer and reproducibility harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a composition-style dataset to CSV")
    p.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    p.add_argument("--features", type=int, default=DEFAULT_FEATURES)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_seed(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("split", help="write a deterministic train/test split file")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION)
    p.add_argument("--out", required=True, help="output split JSON path")
    _add_csv_flags(p)
    _add_seed(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("run", help="train forests under a preset or config file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
    source.add_argument("--config", help="config file (key = value)")
    p.add_argument("--data", default=None, help="CSV path (default: synthesize)")
    p.add_argument("--split", default=None, help="split JSON from the split command")
    p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION)
    p.add_argument("--rows", type=int, default=DEFAULT_ROWS, help="synthetic row count")
    p.add_argument("--features", type=int, default=DEFAULT_FEATURES, help="synthetic feature count")
    p.add_argument("--trials", type=int, default=1, help="forests to train on derived seeds")
    p.add_argument("--trees", type=int, default=None, help="override the preset tree count")
    p.add_argument("--tie-break", choices=[e.value for e in TieBreak], default=None)
    p.add_argument("--aggregation", choices=[e.value for e in Aggregation], default=None)
    p.add_argument("--out-dir", default="detforest-out", help="output directory")
    _add_csv_flags(p)
    _add_seed(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("export-tree", help="render one tree of a saved forest")
    p.add_argument("--forest", required=True, help="forest JSON path")
    p.add_argument("--tree", type=int, default=0, help="tree index (default 0)")
    p.add_argument("--format", choices=["dot", "structured"], default="dot")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_export_tree)

    p = sub.add_parser("diff", help="count divergent classifications between two forests")
    p.add_argument("forest_a", help="first forest JSON path")
    p.add_argument("forest_b", help="second forest JSON path")
    p.add_argument("--data", required=True, help="test CSV path")
    p.add_argument(
        "--aggregation",
        choices=[e.value for e in Aggregation],
        default=None,
        help="override both forests' aggregation",
    )
    _add_csv_flags(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("audit-config", help="flag reproducibility hazards in a config file")
    p.add_argument("--config", required=True, help="config file to audit")
    p.set_defaults(func=cmd_audit_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
