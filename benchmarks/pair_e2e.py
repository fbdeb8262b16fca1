"""Seed-paired, order-alternated A/B of the repo benchmark against a parent commit.

    python3 benchmarks/pair_e2e.py --parent REF [--workloads a,b] [--seeds 0-9]
        [--trace 0|1] [--out DIR]

The procedure every PR that claims (or denies) a gain needs, in one
command (``make bench-e2e-pair PARENT=REF``): check ``REF`` out into a
temporary directory, run *each tree's own* ``benchmarks/e2e/run.py`` per
(seed, workload) at the run length ``BENCHMARK.json`` declares — the
parent side first on even seeds, the change side first on odd ones, so
machine drift lands on both alike — write the results to ``DIR/parent``
and ``DIR/change``, and finish with the working tree's ``compare.py
parent change``.  Also reports, per pair, whether both sides were
``correct`` and printed the same per-round SHA-256 digests (the
bit-identity check); a run that exits non-zero fails its pair and is
never read from a result file an earlier sweep left in ``DIR``.  After
``compare.py``'s table it prints, per workload, each side's median
weather index and raw readings: the table's timings are divided by a
weather index the harness samples *inside the measured process* (8 MB
temporaries per sample), so a change that moves the process's page-fault
or cache behaviour moves the divisor too, and the reader must be able to
see a normalised row and its raw numbers side by side.

The parent tree is a ``git archive`` extraction, not a worktree: nothing
is registered in ``.git``, so a killed run leaves only a temp directory
behind.  Ten seeds of all five workloads take about 20 minutes;
``make check`` gates on five (seeds 0-4 against ``HEAD``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> List[int]:
    """``a-b`` (inclusive) or a comma list, as ``sweep.py`` reads it."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def extract(ref: str, into: Path) -> None:
    """The committed files of ``ref``, unpacked under ``into``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")


def run_one(tree: Path, out: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` of ``tree``: its full result, ``{}`` if the run failed."""
    out.unlink(missing_ok=True)  # a crashed run must not read as an earlier sweep's file
    done = subprocess.run(
        [
            sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=tree, stdout=subprocess.DEVNULL,
    )
    if done.returncode == 0 and out.is_file():
        return json.loads(out.read_text())
    out.unlink(missing_ok=True)
    return {}


#: Readings of a ``run.py --out`` record the verdict table does not show.
WEATHER_ROWS = ("weather_index", "setup.weather", "setup.wall")


def weather_report(runs: Dict[str, Dict[str, List[dict]]]) -> None:
    """Per workload: each side's median weather indices and ``raw.*`` readings."""
    print("weather and raw readings (medians of the runs above; parent | change)")
    for workload, sides in runs.items():
        records = [r for side in sides.values() for r in side]
        raw_rows = sorted({f"raw.{name}" for r in records for name in r.get("raw", {})})
        for row in WEATHER_ROWS + tuple(raw_rows):
            cells = []
            for side in ("parent", "change"):
                values = [_lookup(r, row) for r in sides[side]]
                values = [v for v in values if v is not None]
                cells.append(f"{statistics.median(values):12.6g}" if values else f"{'-':>12}")
            print(f"{row:<34} {workload:<14} {cells[0]} | {cells[1]}")


def _lookup(record: dict, dotted: str) -> Optional[float]:
    value = record
    for part in dotted.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9", help="a-b (inclusive) or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="keep the result sets here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="pair-e2e-") as tmp:
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        trees["parent"].mkdir()
        extract(args.parent, trees["parent"])
        results = args.out if args.out is not None else Path(tmp) / "results"
        for side in trees:
            (results / side).mkdir(parents=True, exist_ok=True)

        suspect = 0
        workloads = args.workloads.split(",")
        runs: Dict[str, Dict[str, List[dict]]] = {
            w: {"parent": [], "change": []} for w in workloads
        }
        for seed in parse_seeds(args.seeds):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for workload in workloads:
                name = f"{workload}-s{seed}-t{args.trace}.json"
                record = {
                    side: run_one(trees[side], results / side / name, workload, seed,
                                  spec["run_seconds"], args.trace)
                    for side in order
                }
                correct = all(r.get("correct") and r.get("failed") == 0 for r in record.values())
                parent, change = record["parent"], record["change"]
                for side, result in record.items():
                    if result:
                        runs[workload][side].append(result)
                same = bool(parent) and parent.get("digests") == change.get("digests")
                suspect += not (correct and same)
                print(
                    f"{workload} seed {seed} ({order[0]} first): "
                    f"{'correct' if correct else 'FAILED'}, "
                    f"digests {'equal' if same else 'DIFFER'}",
                    flush=True,
                )

        compare = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "compare.py"),
                   str(results / "parent"), str(results / "change")]
        if args.trace:  # traced runs carry the per-layer names, not the verdicts
            compare.append("--per-layer")
        worse = subprocess.run(compare).returncode
        weather_report(runs)
    return 1 if worse or suspect else 0


if __name__ == "__main__":
    sys.exit(main())
