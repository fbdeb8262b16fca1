"""End-to-end benchmark of the SALO stack: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        [--seconds <s>] [--trace 0|1] [--out <file>] [--smoke]

The parent process only orchestrates.  Every measurement happens in a
child process of its own with a pinned environment (one BLAS thread,
fixed hash seed), pinned to one CPU unless the workload needs two:

* ``--trace 0``: three children run the workload's set-up (imports,
  input generation, round 0, worker spawn); the first two exit there,
  the third goes on to the measured rounds.  ``setup_s`` is the median
  of the three, and the first two leave the pages the third will touch
  already backed by the host.  Prints the end-to-end metrics.
* ``--trace 1``: one child runs set-up, a short untraced pass, then a
  traced pass that records a span around every op and replays the op's
  layers directly, then the stand-alone layer probes.  Prints the
  per-layer metrics.

Every metric is printed as ``name value unit``; the last line of
standard output is the JSON object the benchmark contract asks for.
Nothing is written to disk unless ``--out`` names a file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up clock: first statement of the process

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SHM_DIR = Path("/dev/shm")
SETUP_PROCESSES = 3
#: Hard cap of one child (the contract allows a run 180 s in all).
CHILD_LIMIT_S = 160

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import registry  # noqa: E402


def _workload_class(name: str):
    import importlib

    classes = {
        "prefill_paper": ("wl_prefill_paper", "PrefillPaper"),
        "cold_churn": ("wl_cold_churn", "ColdChurn"),
        "serve_burst": ("wl_serve_burst", "ServeBurst"),
        "decode_stream": ("wl_decode_stream", "DecodeStream"),
        "cluster_sim": ("wl_cluster_sim", "ClusterSim"),
    }
    module, cls = classes[name]
    return getattr(importlib.import_module(module), cls)


# ----------------------------------------------------------------------
# child: one workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 setup_only: bool = False, t0: Optional[float] = None) -> dict:
    """Set up, measure and check one workload; returns the raw result."""
    import harness

    t0 = time.perf_counter() if t0 is None else t0
    start = harness.usage_now()
    workload = _workload_class(name)(seed, smoke=smoke)
    digests: List[str] = []
    notes: List[str] = []
    checks = [0, 0]

    def one_round(rec: "harness.Recorder", r: int) -> None:
        gc.collect()  # every round starts from the same heap state
        rec.begin_round(r)
        workload.run_round(rec)
        check = workload.check_round()
        checks[0] += check.attempted
        checks[1] += check.failed
        notes.extend(check.notes)
        if workload.repeats_exactly and digests and check.digest != digests[0]:
            checks[1] += 1
            notes.append(f"round {r}: output digest differs from round 0's")
        digests.append(check.digest)

    try:
        workload.setup()
        weather = harness.Weather()
        rec = harness.Recorder(weather, workload.clock)
        one_round(rec, 0)
        setup = harness.usage_now() - start
        setup = setup._replace(wall=time.perf_counter() - t0)
        # set-up is CPU work like the rounds: read the weather it ran in
        setup_weather = harness.median([weather.sample() for _ in range(3)])
        result = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "smoke": smoke,
            "setup": {**setup._asdict(), "weather": setup_weather},
        }
        if setup_only:
            return result
        rounds = workload.measured_rounds(seconds)
        if trace:
            rounds = 2
        for r in range(1, rounds + 1):
            one_round(rec, r)
        untraced = rec.result()
        result["end_to_end"] = untraced.end_to_end()
        result["raw"] = untraced.end_to_end(raw=True)
        result["weather_index"] = untraced.weather_index
        result["round_stats"] = untraced.round_stats()
        result["samples"] = len(untraced.latencies_ms())
        result["tail_percentile"] = untraced.tail_percentile
        result["rounds"] = rounds
        attempted, failed = untraced.attempted, untraced.failed
        notes.extend(untraced.errors)
        if trace:
            tracer = harness.Tracer()
            traced_rec = harness.Recorder(weather, workload.clock, tracer)
            for r in range(1, rounds + 1):
                one_round(traced_rec, r)
            traced = traced_rec.result()
            attempted += traced.attempted
            failed += traced.failed
            notes.extend(traced.errors)
            layers = {m.name: 0.0 for m in registry.PER_LAYER}
            probes = workload.layer_probes(tracer)
            unknown = set(probes) - set(layers)
            if unknown:
                raise KeyError(f"{name} reports unregistered per-layer metrics {sorted(unknown)}")
            layers.update(probes)
            layers["harness.setup_user_s"] = setup.user
            layers["harness.setup_sys_s"] = setup.sys
            layers["harness.setup_minor_faults"] = float(setup.minflt)
            layers["harness.weather_index"] = untraced.weather_index
            layers["harness.trace_overhead_share"] = (
                1.0 - traced.tokens_per_s() / untraced.tokens_per_s()
            )
            result["chrome_trace"] = tracer.chrome_trace(name)
        attempted += checks[0]
        failed += checks[1]
        if trace:
            layers["harness.failed_share"] = failed / attempted
            result["per_layer"] = layers
        result["attempted"] = attempted
        result["failed"] = failed
        result["digests"] = digests
        result["notes"] = notes
        result["fingerprint"] = harness.fingerprint()
    finally:
        workload.close()
    result["peak_rss_mb"] = harness.peak_rss_mb()  # after close: the worker is reaped
    return result


def _child_main(args: argparse.Namespace) -> int:
    def expired(signum, frame):
        raise TimeoutError(f"{args.workload} exceeded its {CHILD_LIMIT_S}s guard")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(CHILD_LIMIT_S)
    cpus = sorted(os.sched_getaffinity(0))
    if _workload_class(args.workload).cpus == 1 and len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        setup_only=args.child == "setup", t0=_T0,
    )
    signal.alarm(0)
    sys.stdout.write("RESULT " + json.dumps(result, default=float) + "\n")
    sys.stdout.flush()
    return 0


# ----------------------------------------------------------------------
# parent: spawn, collect, print
# ----------------------------------------------------------------------
def _spawn(args: argparse.Namespace, phase: str) -> dict:
    env = dict(os.environ)
    import harness

    env.update(harness.PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", phase,
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(
        cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_LIMIT_S + 10)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # the child leads its own session: take its workers down with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    for line in out.splitlines():
        if line.startswith("RESULT "):
            if proc.returncode != 0:
                break
            return json.loads(line[len("RESULT "):])
    sys.stderr.write(out)
    raise SystemExit(f"{args.workload}: {phase} child failed (exit {proc.returncode})")


def _shm_segments() -> set:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS),
                        help="measured time the run is sized for on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result here (and spans to *.trace.json)")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the harness tests")
    parser.add_argument("--child", choices=("setup", "measure"), default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: {SRC}/repro not found; the benchmark runs from a repo checkout\n")
        return 2
    if args.child:
        return _child_main(args)

    import harness

    before = _shm_segments()
    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup")["setup"] for _ in range(SETUP_PROCESSES - 1)]
    result = _spawn(args, "measure")
    setups.append(result["setup"])
    leaked = sorted(_shm_segments() - before)
    if leaked:
        result["failed"] += len(leaked)
        result["notes"].append(f"shared-memory segments left behind: {leaked}")
    result["attempted"] += 1  # the leak check itself

    if args.trace:
        values = result["per_layer"]
        table = registry.PER_LAYER
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = harness.median([s["wall"] / s["weather"] for s in setups])
        values["peak_rss_mb"] = result["peak_rss_mb"]
        table = registry.END_TO_END
    names = [m.name for m in table]
    if sorted(values) != sorted(names):
        raise SystemExit(f"metric names drifted from the registry: {sorted(set(values) ^ set(names))}")
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in table}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    fp = result["fingerprint"]
    fp["cpus_available"] = sorted(os.sched_getaffinity(0))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']} "
          f"samples={result['samples']} tail=p{result['tail_percentile']}")
    print(f"# host cpus={fp['cpus_available']} pinned_to={fp['cpus']} python={fp['python']} numpy={fp['numpy']} blas={fp['blas']} "
          f"numba={fp['numba']} kernel={fp['kernel']} threads={fp['thread_env']}")
    print("# set-up wall s (weather): "
          + " ".join(f"{s['wall']:.3f} ({s['weather']:.2f})" for s in setups))
    for i, d in enumerate(result["digests"]):
        print(f"# round {i} sha256 {d}")
    for note in result["notes"]:
        print(f"# NOTE {note}")
    for m in table:
        print(f"{m.name} {values[m.name]:.6g} {m.unit}")
    if not args.trace:
        print(f"weather_index {result['weather_index']:.6g} ratio")
        print(f"raw.setup_s {harness.median([s['wall'] for s in setups]):.6g} s")
        for name, value in result["raw"].items():
            print(f"raw.{name} {value:.6g} {metrics[name]['unit']}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} ratio")

    if args.out is not None:
        chrome = result.pop("chrome_trace", None)
        result["metrics"] = metrics
        result["correct"] = final["correct"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        if chrome is not None:
            args.out.with_suffix(".trace.json").write_text(json.dumps(chrome) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
