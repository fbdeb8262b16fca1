"""Compare two sets of benchmark results, or size the noise of one.

    python3 benchmarks/e2e/compare.py A_DIR            # spread of one set
    python3 benchmarks/e2e/compare.py A_DIR B_DIR      # parent vs change

A set is a directory of ``run.py --out`` files (``sweep.py`` writes
one).  For every (metric, workload) pair the tool prints each side's
median and quartiles (``statistics.quantiles(values, n=4)``, the rule
the benchmark contract uses) and, with two sets, a verdict against the
metric's bound in ``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better by more than A's own quartile
                distance, and B wins at least nine tenths of the
                seed-matched pairs
``unresolved``  the change is inside the bound but either side's
                quartile distance, as a share of its median, is wider
                than the bound, so the runs cannot tell (unless every
                run of one side beats every run of the other)
``unchanged``   none of the above

Exit status is 1 when any pair is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

Runs = Dict[Tuple[str, str], Dict[int, float]]  # (workload, metric) -> seed -> value


def load(directory: Path, trace: int) -> Runs:
    """Every result file of one set, keyed by (workload, metric), then seed."""
    runs: Runs = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace", 0) != trace:
            continue
        for name, entry in record["metrics"].items():
            runs.setdefault((record["workload"], name), {})[record["seed"]] = entry["value"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: Dict[int, float], b: Dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worsening is positive
    va, vb = list(a.values()), list(b.values())
    q1, med_a, q3 = quartiles(va)
    med_b = quartiles(vb)[1]
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    all_worse = min(sign * x for x in vb) > max(sign * x for x in va)
    all_better = max(sign * x for x in vb) < min(sign * x for x in va)
    noisy = max(spread(va), spread(vb)) > bound
    if worsening > bound and (not noisy or all_worse):
        return "worse"
    pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b)) if a[s] != b[s]]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gained = sign * (med_a - med_b) > (q3 - q1) and pairs and wins >= 0.9 * len(pairs)
    if gained or (all_better and worsening < 0):
        return "better"
    if noisy and not (all_worse or all_better):
        return "unresolved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="result set (the parent's, when two are given)")
    parser.add_argument("b", type=Path, nargs="?", help="the change's result set")
    parser.add_argument("--per-layer", action="store_true",
                        help="compare the traced runs' per-layer metrics (no bounds: change only)")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    table = spec["per_layer"] if args.per_layer else spec["end_to_end"]
    trace = 1 if args.per_layer else 0
    a = load(args.a, trace)
    b = load(args.b, trace) if args.b else None
    worse = 0
    for metric in table:
        bound = metric.get("bound")
        for workload in (w["name"] for w in spec["workloads"]):
            key = (workload, metric["name"])
            if key not in a or (b is not None and key not in b):
                continue
            va = list(a[key].values())
            q1, med, q3 = quartiles(va)
            if not any(va) and (b is None or not any(b[key].values())):
                continue  # a layer this workload does not exercise
            line = f"{metric['name']:34s} {workload:14s} A {med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(va)}"
            if b is None:
                line += f"  spread {spread(va):.3f}"
                if bound is not None:
                    room = "ok" if spread(va) <= bound / 3 else ("wide" if spread(va) <= bound else "OVER")
                    line += f"  bound {bound:g}  {room}"
            else:
                vb = list(b[key].values())
                q1b, medb, q3b = quartiles(vb)
                change = (medb - med) / abs(med) if med else 0.0
                line += f"  B {medb:12.6g} [{q1b:.6g}, {q3b:.6g}] n={len(vb)}  {change:+.1%}"
                if bound is not None:
                    v = verdict(a[key], b[key], metric["better"], bound)
                    worse += v == "worse"
                    line += f"  bound {bound:g}  {v}"
                elif med != medb:
                    line += "  changed"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
