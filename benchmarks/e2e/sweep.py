"""Run every workload over a range of seeds into one result set.

    python3 benchmarks/e2e/sweep.py --out DIR [--seeds 0-9] [--trace 0|1]
        [--workloads a,b] [--seconds S]

Writes ``DIR/<workload>-s<seed>-t<trace>.json`` (what ``compare.py``
reads).  Seeds are the outer loop and workloads the inner one, so the
runs of one workload are spread over the whole sweep and slow drifts of
the machine land in every workload's spread alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="0-9", help="a-b (inclusive) or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    if "-" in args.seeds:
        lo, hi = args.seeds.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in args.seeds.split(",")]
    failures = 0
    for seed in seeds:
        for name in args.workloads.split(","):
            out = args.out / f"{name}-s{seed}-t{args.trace}.json"
            t0 = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
                ],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and json.loads(last).get("correct", False)
            failures += not ok
            print(f"{name} seed {seed}: {'ok' if ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s",
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
