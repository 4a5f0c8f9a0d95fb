"""detforest benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_bagged --seed 0 --seconds 45 --trace 0

With ``--trace 0`` the workload is set up several times and then run pass
after pass until ``--seconds`` have gone by (at least one pass); the
end-to-end metrics are medians.  With ``--trace 1`` it is run untraced and then once more with every
public function of the package wrapped (see tracer.py); the per-layer
metrics come from that traced setup and pass, whose artifacts must equal the
untraced ones.

Every pass's artifacts must equal the first pass's.  At seed 0 and the
default scale they must also equal the values pinned in pins.json.  A
mismatch, an exception or an unexpected exit code counts as a failed
operation, and the command then exits with code 1.

Stdout starts with a ``run`` line: the workload, seed and machine
description as JSON.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  compare.py reads
saved stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
# Reported by the traced run next to the per-layer metrics of tracer.py.
TRACE_UNITS = {"trace.pass_s": "s", "trace.overhead_s": "s"}
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")


def load_package() -> None:
    """Import detforest from this checkout's sources, or raise RuntimeError."""
    if not (SRC / "detforest" / "__init__.py").is_file():
        raise RuntimeError(f"no detforest sources under {SRC}")
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import detforest

    if not Path(detforest.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"detforest was imported from {detforest.__file__}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict[str, object]:
    """Where a result was measured.  Compare results only when MACHINE_KEYS match."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "detforest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


@dataclass
class Checks:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def compare(self, label: str, artifacts, reference, pins, violations=None) -> None:
        """One operation per entry of `artifacts`; it fails on any mismatch."""
        for op, items in artifacts.items():
            self.attempted += 1
            problems = []
            if violations and op in violations:
                problems.append(violations[op])
            if reference is not None and reference.get(op) != items:
                problems.append(f"differs from the reference: {items} != {reference.get(op)}")
            for key, want in pins.get(op, {}).items():
                if items.get(key) != want:
                    problems.append(f"{key} = {items.get(key)}, pinned {want}")
            if problems:
                self.fail(f"{label} {op}: " + "; ".join(problems))

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    details: dict[str, float]
    checks: Checks
    absent: list[str]
    setups: int
    passes: int
    artifacts: dict[str, dict[str, str]]


def _pins(name: str, seed: int, scale) -> dict:
    import workloads

    if seed != 0 or scale != workloads.DESK:
        return {}
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    return pins[workloads.PIN_GROUP.get(name, name)]


def measure(name: str, seed: int, seconds: float, trace: bool, scale=None, spans_path=None) -> Result:
    """Run one workload and check it; never raises for a failing workload."""
    # Imported here because they import detforest, which load_package() finds.
    import tracer
    import workloads

    scale = scale or workloads.DESK
    workload = workloads.make(name, scale)
    pins = _pins(name, seed, scale)
    checks = Checks()
    details: dict[str, list[float]] = {}
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    setup_times: list[float] = []
    pass_times: list[float] = []
    op_times: list[float] = []
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    label = "setup"
    setup_ref = reference = None
    try:
        for i in range(1 if trace else workload.setup_repeats):
            label = f"setup {i}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            t0 = time.perf_counter()
            state, setup_artifacts = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            checks.compare(label, setup_artifacts, setup_ref, {})
            setup_ref = setup_ref or setup_artifacts

        start = time.perf_counter()
        while not pass_times or time.perf_counter() - start < seconds:
            label = f"pass {len(pass_times)}"
            t0 = time.perf_counter()
            result = workload.run_pass(state, workdir)
            pass_times.append(time.perf_counter() - t0)
            op_times.extend(result.op_s)
            for key, value in result.details.items():
                details.setdefault(key, []).append(value)
            checks.compare(label, result.artifacts, reference, pins, result.violations)
            reference = reference or result.artifacts

        if trace:
            label = "traced run"
            shutil.rmtree(workdir)
            workdir.mkdir()
            with tracer.Tracer() as t:
                state, traced_setup = workload.setup(seed, workdir)
                t0 = time.perf_counter()
                result = workload.run_pass(state, workdir)
                traced_pass = time.perf_counter() - t0
            checks.compare("traced setup", traced_setup, setup_ref, {})
            checks.compare("traced pass", result.artifacts, reference, pins, result.violations)
            values, absent = t.metrics()
            units = tracer.metric_units()
            metrics = {key: (value, units[key]) for key, value in values.items()}
            metrics["trace.pass_s"] = (traced_pass, TRACE_UNITS["trace.pass_s"])
            overhead = traced_pass - statistics.median(pass_times)
            metrics["trace.overhead_s"] = (overhead, TRACE_UNITS["trace.overhead_s"])
            absent += [f"wrap target {span}" for span in t.absent]
            absent += [f"counters of {span}: {why}" for span, why in t.broken.items()]
            if spans_path:
                t.write_spans(spans_path)
    except Exception:
        checks.attempted += 1
        checks.fail(f"{label}: {traceback.format_exc()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    if not trace and pass_times:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "op_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()}
    summary = {key: statistics.median(values) for key, values in details.items()}
    summary["error_rate"] = checks.failed / checks.attempted
    artifacts = {**(setup_ref or {}), **(reference or {})}
    return Result(metrics, summary, checks, absent, len(setup_times), len(pass_times), artifacts)


def report(name: str, seed: int, trace: bool, host: dict, result: Result) -> list[str]:
    """The lines `main` prints.  The last one is the result object."""
    header = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setups": result.setups,
        "passes": result.passes,
        "machine": host,
    }
    checks = result.checks
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in result.metrics.items()}
    lines = ["run " + json.dumps(header, sort_keys=True)]
    lines += [f"FAIL {reason}" for reason in checks.errors]
    lines.append(f"checks {checks.attempted - checks.failed}/{checks.attempted} passed")
    lines += [f"metric {key} = {value:.6g} {unit}" for key, (value, unit) in result.metrics.items()]
    lines += [f"detail {key} = {value:.6g}" for key, value in result.details.items()]
    lines += [f"absent {what}" for what in result.absent]
    lines.append("artifacts " + json.dumps(result.artifacts, sort_keys=True))
    final = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed}
    lines.append(json.dumps({**final, "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=45.0, help="time to measure passes for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="traced run: write the spans as JSON lines here")
    args = parser.parse_args(argv)

    try:
        load_package()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"perfbench: seed must be a 64-bit unsigned integer, got {args.seed}", file=sys.stderr)
        return 2

    host = machine()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=args.spans)
    print("\n".join(report(args.workload, args.seed, bool(args.trace), host, result)))
    return 0 if result.checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
