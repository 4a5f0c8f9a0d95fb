"""Compare two sets of benchmark results: saved stdout of run.py.

    python3 perfbench/compare.py --base base-*.log --new new-*.log

For every workload, trace mode and metric found on both sides, prints the
median and quartiles of each side and the change of the medians.  Results
measured on different machines (see run.MACHINE_KEYS) are not comparable:
the command then lists the machines and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import MACHINE_KEYS


def parse(text: str) -> tuple[dict, dict]:
    """(run header, result object) from the stdout of one run.py call."""
    lines = text.strip().splitlines()
    header = next(json.loads(line[4:]) for line in lines if line.startswith("run {"))
    return header, json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _group(runs: list[tuple[dict, dict]]) -> dict[tuple[str, int, str], list[float]]:
    out: dict[tuple[str, int, str], list[float]] = defaultdict(list)
    for header, result in runs:
        for name, metric in result["metrics"].items():
            out[(header["workload"], header["trace"], name)].append(metric["value"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="saved stdout of the base runs")
    parser.add_argument("--new", nargs="+", required=True, help="saved stdout of the new runs")
    args = parser.parse_args(argv)
    base = [parse(Path(path).read_text(encoding="utf-8")) for path in args.base]
    new = [parse(Path(path).read_text(encoding="utf-8")) for path in args.new]

    machines = {tuple(h["machine"].get(key) for key in MACHINE_KEYS) for h, _ in base + new}
    if len(machines) != 1:
        print("results come from different machines; not comparing:", file=sys.stderr)
        for m in sorted(machines, key=str):
            print("  " + json.dumps(dict(zip(MACHINE_KEYS, m))), file=sys.stderr)
        return 2

    base_values, new_values = _group(base), _group(new)
    for key in sorted(base_values.keys() & new_values.keys()):
        workload, _, name = key
        b1, b2, b3 = _quartiles(base_values[key])
        n1, n2, n3 = _quartiles(new_values[key])
        change = f"{(n2 / b2 - 1) * 100:+.1f}%" if b2 else "n/a"
        print(
            f"{workload:14} {name:34} base {b2:.6g} [{b1:.4g}, {b3:.4g}]  "
            f"new {n2:.6g} [{n1:.4g}, {n3:.4g}]  {change}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
