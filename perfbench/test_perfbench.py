"""Tests of the benchmark itself, kept apart from the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py

They run the workloads at a small scale and assert no timings: counts must
repeat exactly, the seed must reach the data generator, the traced run must
leave the package as it found it, and the declared metrics must match what
the benchmark reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run

run.load_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Scale(rows=300, features=10, trees=3, compare_trees=2)

COUNTS = (
    "cart.best_split.calls",
    "cart.candidates_scanned",
    "cart.cells_scanned",
    "cart.nodes",
    "cart.leaves",
    "cart.draw_candidates.calls",
    "cart.predict_leaf.calls",
    "prng.shuffle.calls",
    "prng.bounded_uint.calls",
    "prng.draws",
    "forest.bootstrap_sample.calls",
    "forest.json_bytes",
    "canonical.canonicalize.calls",
    "dataset.load_csv.cells",
    "cli.main.calls",
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_at_one_seed(name):
    first = run.measure(name, 0, 0.0, True, scale=SMALL)
    second = run.measure(name, 0, 0.0, True, scale=SMALL)
    # The checks include: traced artifacts equal the untraced ones.
    assert first.checks.failed == 0, first.checks.errors
    assert second.checks.failed == 0, second.checks.errors
    assert first.absent == []
    assert set(first.metrics) == set(tracer.metric_units()) | set(run.TRACE_UNITS)
    for key in COUNTS:
        assert first.metrics[key] == second.metrics[key], key
    assert first.metrics["cart.nodes"][0] > 0


def test_other_seed_changes_the_forest():
    a = run.measure("desk_bagged", 0, 0.0, False, scale=SMALL)
    b = run.measure("desk_bagged", 1, 0.0, False, scale=SMALL)
    assert a.checks.failed == 0 and b.checks.failed == 0
    assert a.artifacts["setup"]["data"] != b.artifacts["setup"]["data"]
    assert a.artifacts["fit"]["forest.json"] != b.artifacts["fit"]["forest.json"]


def test_parallel_fit_gives_the_serial_bytes():
    serial = run.measure("desk_bagged", 3, 0.0, False, scale=SMALL)
    parallel = run.measure("desk_bagged_w2", 3, 0.0, False, scale=SMALL)
    assert serial.artifacts == parallel.artifacts


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "detforest" or name.startswith("detforest.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_restores_every_wrapped_name_even_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert workloads.forest.fit is not before[("detforest.forest", "fit")]
            1 / 0
    assert _bindings() == before


def test_removed_target_is_absent_not_zero():
    gone = tracer.Target("cart.gone", "detforest.cart", "no_such_function", ("calls", "s"))
    with tracer.Tracer(tracer.TARGETS + (gone,)) as t:
        pass
    values, absent = t.metrics()
    assert {"cart.gone.calls", "cart.gone.s"} <= set(absent)
    assert "cart.gone.calls" not in values
    assert values["cart.best_split.calls"] == 0


def test_failing_counter_leaves_its_counters_absent():
    def broken(tally, args, kwargs, result):
        raise TypeError("signature changed")

    target = tracer.Target("prng.shuffle", "detforest.prng", "shuffle", ("calls",), broken, ("prng.draws",))
    ds = workloads.dataset.generate_synthetic_formulas(20, 4, 0)
    with tracer.Tracer((target,)) as t:
        workloads.dataset.train_test_split(ds, 0.5, 0)
    values, absent = t.metrics()
    assert values["prng.shuffle.calls"] == 1
    assert "prng.draws" in absent and "prng.draws" not in values


def test_self_time_subtracts_the_union_of_overlapping_children():
    t = tracer.Tracer()
    # fit on thread 1; two trees grown on worker threads 2 and 3, overlapping.
    t.spans = [
        (1, "forest.fit", 0, 100, None, 1),
        (2, "cart.grow_tree", 10, 60, 1, 2),
        (3, "cart.grow_tree", 40, 90, 1, 3),
    ]
    values, _ = t.metrics()
    assert values["forest.fit.self_s"] == pytest.approx(20e-9)
    assert values["cart.grow_tree.self_s"] == pytest.approx(100e-9)
    assert tracer.covered_ns([(0, 10), (5, 15), (20, 30)], 0, 25) == 20


def test_worker_thread_spans_belong_to_the_waiting_call():
    ds, split = workloads._desk_data(SMALL, 0)
    cfg = workloads.forest.ForestConfig(n_trees=4, seed=0)
    with tracer.Tracer() as t:
        workloads.forest.fit(ds, split, cfg, n_workers=2)
    (fit_id,) = [sid for sid, name, *_ in t.spans if name == "forest.fit"]
    grown = [span for span in t.spans if span[1] == "cart.grow_tree"]
    assert len(grown) == 4
    assert all(span[4] == fit_id for span in grown)


def test_declared_metrics_match_the_reported_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracer.metric_units(),
        **run.TRACE_UNITS,
    }
    pins = json.loads((run.HERE / "pins.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        assert w["name"] in workloads.WORKLOADS
        assert workloads.PIN_GROUP.get(w["name"], w["name"]) in pins


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", "desk_bagged", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_are_written_with_their_parents(tmp_path):
    path = tmp_path / "spans.jsonl"
    result = run.measure("derandomized", 0, 0.0, True, scale=SMALL, spans_path=path)
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ids = {span["id"] for span in spans}
    assert len(spans) == len(ids) > 0
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    assert all(span["start"] <= span["end"] for span in spans)
    mains = [span for span in spans if span["name"] == "cli.main"]
    assert len(mains) == result.metrics["cli.main.calls"][0]


def test_compare_refuses_results_from_another_machine(tmp_path, capsys):
    result = run.measure("desk_bagged", 0, 0.0, False, scale=SMALL)
    host = run.machine()
    other = {**host, "cpu": host["cpu"] + " (other)"}
    for label, machine in (("base", host), ("same", host), ("other", other)):
        lines = run.report("desk_bagged", 0, False, machine, result)
        (tmp_path / f"{label}.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert compare.parse("\n".join(lines))[1]["correct"] is True

    assert compare.main(["--base", str(tmp_path / "base.log"), "--new", str(tmp_path / "same.log")]) == 0
    assert "+0.0%" in capsys.readouterr().out
    assert compare.main(["--base", str(tmp_path / "base.log"), "--new", str(tmp_path / "other.log")]) == 2
