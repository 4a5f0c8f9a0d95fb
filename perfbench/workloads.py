"""The benchmark's workloads.

Each workload makes its inputs from a seed in `setup`, then runs one timed
pass at a time.  A pass returns the artifacts it produced, as
``{operation: {item: value}}`` where a value is a SHA-256, a count or an
exit code, so that the runner can compare passes with each other, with the
traced run and with the pinned values.

The package is always called through module attributes (``forest.fit``,
``cli.main``, ...) looked up at call time, so that the tracer's wrappers
take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import detforest.canonical as canonical
import detforest.cart as cart
import detforest.cli as cli
import detforest.dataset as dataset
import detforest.forest as forest
import detforest.prng as prng

TRAIN_FRACTION = 0.8
COMPARE_FORESTS = 3
TIE_BREAKS = ("lowest-feature-index", "first-in-draw-order")
PRESETS = ("table3", "fig1", "fig2")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  The default is the desk workload; tests use a smaller one."""

    rows: int = 4598
    features: int = 87
    trees: int = 50
    compare_trees: int = 10


DESK = Scale()


@dataclass
class PassResult:
    artifacts: dict[str, dict[str, str]]
    # Wall times of the unit operation: one fit, the mean `run` call of a
    # pass, or one `diff` call.
    op_s: list[float]
    details: dict[str, float] = field(default_factory=dict)
    # operation -> why it broke an invariant the workload checks at every seed
    violations: dict[str, str] = field(default_factory=dict)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def inside(path: Path):
    """Run with `path` as working directory, so file names in CLI output stay fixed."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``detforest`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _desk_data(scale: Scale, seed: int):
    ds = dataset.generate_synthetic_formulas(scale.rows, scale.features, seed)
    split = dataset.train_test_split(ds, TRAIN_FRACTION, seed)
    return ds, split


def _data_items(ds, split) -> dict[str, str]:
    return {
        "data": sha256(ds.features.tobytes() + ds.labels.tobytes()),
        "split": sha256(json.dumps([split.train, split.test])),
    }


class DeskBagged:
    """Fit the table2 forest, predict the test rows, round-trip JSON, canonicalize."""

    # A set-up takes about 20 ms, so many are needed for a steady median.
    setup_repeats = 25

    def __init__(self, scale: Scale = DESK, n_workers: int = 1) -> None:
        self.scale = scale
        self.n_workers = n_workers

    def setup(self, seed: int, workdir: Path):
        ds, split = _desk_data(self.scale, seed)
        cfg = forest.ForestConfig(n_trees=self.scale.trees, seed=seed)
        return (ds, split, cfg), {"setup": _data_items(ds, split)}

    def run_pass(self, state, workdir: Path) -> PassResult:
        ds, split, cfg = state
        test = np.asarray(split.test, dtype=np.intp)
        rows = ds.features[test]
        t0 = time.perf_counter()
        fitted = forest.fit(ds, split, cfg, n_workers=self.n_workers)
        t1 = time.perf_counter()
        votes = forest.predict_classes(fitted, rows, forest.Aggregation.MAJORITY_VOTE)
        means = forest.predict_classes(fitted, rows, forest.Aggregation.MEAN_PROBABILITY)
        t2 = time.perf_counter()
        text = forest.forest_to_json(fitted)
        loaded = forest.forest_from_json(text)
        t3 = time.perf_counter()
        forms = [canonical.canonicalize(tree) for tree in loaded.trees]
        t4 = time.perf_counter()

        labels = ds.labels[test]
        exact = sum(cart.trees_equal_exact(a, b) for a, b in zip(fitted.trees, loaded.trees))
        artifacts = {
            "fit": {"forest.json": sha256(text)},
            "predict": {
                "majority-vote": f"{int(np.sum(np.asarray(votes) == labels))}/{labels.size}",
                "mean-probability": f"{int(np.sum(np.asarray(means) == labels))}/{labels.size}",
                "predictions": sha256(np.asarray([votes, means], dtype=np.int64).tobytes()),
            },
            "save_load": {"exact_trees": f"{exact}/{len(fitted.trees)}"},
            "canonicalize": {"forms": sha256(repr(forms))},
        }
        violations = {}
        if exact != len(fitted.trees):
            violations["save_load"] = "a tree changed in the JSON round trip"
        details = {
            "fit_s": t1 - t0,
            "predict_rows_per_s": 2 * test.size / (t2 - t1),
            "save_load_s": t3 - t2,
            "canonicalize_s": t4 - t3,
        }
        return PassResult(artifacts, [t1 - t0], details, violations)


class Derandomized:
    """`detforest run` on the derandomized presets under both tie-break policies."""

    setup_repeats = 5

    def __init__(self, scale: Scale = DESK) -> None:
        self.scale = scale

    def setup(self, seed: int, workdir: Path):
        ds, split = _desk_data(self.scale, seed)
        with inside(workdir):
            dataset.save_csv(ds, "data.csv")
        items = _data_items(ds, split)
        items["data.csv"] = sha256((workdir / "data.csv").read_bytes())
        return seed, {"setup": items}

    def run_pass(self, seed, workdir: Path) -> PassResult:
        artifacts: dict[str, dict[str, str]] = {}
        violations: dict[str, str] = {}
        calls: list[float] = []
        table3: list[float] = []
        for preset in PRESETS:
            for tie in TIE_BREAKS:
                op = f"{preset}/{tie}"
                out = workdir / f"{preset}-{tie}"
                shutil.rmtree(out, ignore_errors=True)
                argv = [
                    "run", "--preset", preset, "--trials", "2", "--tie-break", tie,
                    "--data", "data.csv", "--seed", str(seed), "--out-dir", out.name,
                ]
                with inside(workdir):
                    t0 = time.perf_counter()
                    code, _, err = run_cli(argv)
                    elapsed = time.perf_counter() - t0
                calls.append(elapsed)
                if preset == "table3":
                    table3.append(elapsed)
                items = {"exit": str(code)}
                for path in sorted(out.iterdir()) if out.is_dir() else ():
                    items[path.name] = sha256(path.read_bytes())
                artifacts[op] = items
                if code not in (0, 1):
                    violations[op] = f"exit code {code}: {err.strip()}"
                elif preset == "table3" and tie == "lowest-feature-index":
                    # Without bootstrap and with an order-free tie-break, the
                    # seed no longer matters: both trials grow the same tree.
                    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
                    if summary["bit_equal"] != [2, 2] or code != 0:
                        violations[op] = f"trials differ: bit_equal {summary['bit_equal']}, exit {code}"
        # op_s is one value per pass, the mean over all six calls.  The table3
        # tree's size varies by about 15% from seed to seed, so the table3
        # calls alone spread past op_s's bound over ten seeds; their time is
        # a detail.
        details = {"table3_s": sum(table3) / len(table3)}
        return PassResult(artifacts, [sum(calls) / len(calls)], details, violations)


class Compare:
    """The read side: `diff`, `export-tree` and canonical equality on saved forests."""

    # Each set-up fits 30 trees; two keep a run of this workload under a minute.
    setup_repeats = 2

    def __init__(self, scale: Scale = DESK) -> None:
        self.scale = scale

    def setup(self, seed: int, workdir: Path):
        ds, split = _desk_data(self.scale, seed)
        with inside(workdir):
            dataset.save_csv(ds, "data.csv")
        items = _data_items(ds, split)
        items["data.csv"] = sha256((workdir / "data.csv").read_bytes())
        rng = prng.derive_stream(seed, prng.TRIAL_STREAM)
        for k in range(COMPARE_FORESTS):
            trial_seed, rng = prng.next_u64(rng)
            cfg = forest.ForestConfig(n_trees=self.scale.compare_trees, seed=trial_seed)
            path = workdir / f"forest-{k}.json"
            forest.save_forest(forest.fit(ds, split, cfg), path)
            items[path.name] = sha256(path.read_bytes())
        return None, {"setup": items}

    def run_pass(self, state, workdir: Path) -> PassResult:
        artifacts: dict[str, dict[str, str]] = {}
        violations: dict[str, str] = {}
        op_s: list[float] = []
        names = [f"forest-{k}.json" for k in range(COMPARE_FORESTS)]
        with inside(workdir):
            for i in range(COMPARE_FORESTS):
                for j in range(i + 1, COMPARE_FORESTS):
                    op = f"diff/{i}-{j}"
                    t0 = time.perf_counter()
                    code, out, err = run_cli(["diff", names[i], names[j], "--data", "data.csv"])
                    op_s.append(time.perf_counter() - t0)
                    artifacts[op] = {"exit": str(code), "stdout": sha256(out)}
                    if code not in (0, 1):
                        violations[op] = f"exit code {code}: {err.strip()}"
            for k, name in enumerate(names):
                for fmt in ("dot", "structured"):
                    op = f"export/{k}/{fmt}"
                    code, out, err = run_cli(["export-tree", "--forest", name, "--tree", "0", "--format", fmt])
                    artifacts[op] = {"exit": str(code), "stdout": sha256(out)}
                    if code != 0:
                        violations[op] = f"exit code {code}: {err.strip()}"
            trees = [tree for name in names for tree in forest.load_forest(name).trees]
        forms = [canonical.canonicalize(tree) for tree in trees]
        pairs = [(a, b) for a in range(len(trees)) for b in range(a + 1, len(trees))]
        exact = sum(cart.trees_equal_exact(trees[a], trees[b]) for a, b in pairs)
        same = sum(forms[a] == forms[b] for a, b in pairs)
        artifacts["canonical"] = {
            "exact_pairs": f"{exact}/{len(pairs)}",
            "canonical_pairs": f"{same}/{len(pairs)}",
            "forms": sha256(repr(forms)),
        }
        return PassResult(artifacts, op_s, {}, violations)


def make(name: str, scale: Scale = DESK):
    """The workload called `name`; KeyError if there is none."""
    if name == "desk_bagged_w2":
        return DeskBagged(scale, n_workers=min(2, len(os.sched_getaffinity(0))))
    return {"desk_bagged": DeskBagged, "derandomized": Derandomized, "compare": Compare}[name](scale)


# Workloads whose artifacts must equal another workload's pinned artifacts.
PIN_GROUP = {"desk_bagged_w2": "desk_bagged"}
WORKLOADS = ("desk_bagged", "derandomized", "compare", "desk_bagged_w2")
