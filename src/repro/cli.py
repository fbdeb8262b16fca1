"""Command-line interface: run the paper's experiments.

Usage::

    salo-repro list                      # enumerate experiments
    salo-repro engines list              # enumerate registered backends
    salo-repro run fig7a_speedup         # one experiment
    salo-repro run table3_quantization --fast
    salo-repro all [--fast]              # everything, in DESIGN.md order
    salo-repro serve --requests 64       # replay a synthetic serving trace
    salo-repro simulate --workers 4      # discrete-event cluster simulation
    salo-repro decode --max-lanes 8      # continuous-batching decode simulation
    salo-repro advise --traffic spec.json --out pack/   # provisioning advisor

``run``, ``serve`` and ``simulate`` accept ``--backend NAME`` to select
any registered execution backend (see ``engines list``); serving paths
require an executing backend (``sanger`` is estimate-only).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from typing import List, Optional

from .experiments import all_experiments, get_experiment

_ORDER = [
    "sec21_quadratic",
    "table1_synthesis",
    "table2_workloads",
    "fig7a_speedup",
    "fig7b_energy",
    "sec63_sanger",
    "table3_quantization",
    "ablation_pe_array",
    "ablation_splitting",
    "ablation_dataflow",
    "ablation_exp_lut",
    "ablation_global_tokens",
    "ablation_band_packing",
    "ablation_pipelining",
    "design_space",
    "seq_scaling",
    "serving_capacity",
    "overload",
    "decode_scaling",
    "transport_multicore",
    "advisor_search",
]


def _ordered_names() -> List[str]:
    known = all_experiments()
    ordered = [n for n in _ORDER if n in known]
    ordered.extend(sorted(set(known) - set(ordered)))
    return ordered


def _validate_backend(
    name: str, require_executing: bool = False, require_cost_model: bool = False
) -> int:
    """Exit-code-style backend validation: 0 ok, 2 with message otherwise.

    ``require_executing`` gates serving paths (the backend must attend);
    ``require_cost_model`` gates cost-model-clocked paths (the default
    simulate/experiment clocks call ``estimate`` on every dispatch, so a
    backend without one must be refused up front, not crash mid-run).
    """
    from .api import CapabilityError, backend_spec, engine_factory, list_backends

    if name not in list_backends():
        print(
            f"unknown backend {name!r}; registered: {', '.join(list_backends())} "
            "(see 'salo-repro engines list')",
            file=sys.stderr,
        )
        return 2
    if require_executing:
        try:
            engine_factory(name)
        except CapabilityError as exc:
            print(exc, file=sys.stderr)
            return 2
    if require_cost_model and not backend_spec(name).capabilities.has_cost_model:
        print(
            f"backend {name!r} has no cost model (has_cost_model=False); the "
            "deterministic cost-model clock cannot serve it — use --measured "
            "or a backend with a cost model",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_engines(args) -> int:
    """``engines list``: tabulate the registered backend specs."""
    from .api import backend_spec, list_backends

    flags = (
        ("batch", "supports_batch"),
        ("lens", "supports_valid_lens"),
        ("exact", "bit_exact"),
        ("cost", "has_cost_model"),
        ("exec", "can_execute"),
        ("struct", "needs_structure"),
    )
    names = list_backends()
    width = max(len(n) for n in names)
    header = f"{'backend':{width}s}  " + "  ".join(f"{label:6s}" for label, _ in flags) + "  summary"
    print(header)
    print("-" * len(header))
    for name in names:
        spec = backend_spec(name)
        cells = "  ".join(
            f"{'yes' if getattr(spec.capabilities, attr) else '-':6s}" for _, attr in flags
        )
        print(f"{name:{width}s}  {cells}  {spec.summary}")
    return 0


def _cmd_advise(args) -> int:
    """Run the provisioning advisor on a declarative traffic spec."""
    import json as _json

    from .advisor import RunCache, SearchSpace, TrafficSpec, advise, export_pack

    if args.traffic is not None:
        try:
            traffic = TrafficSpec.load(args.traffic)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"bad traffic spec {args.traffic!r}: {exc}", file=sys.stderr)
            return 2
    else:
        traffic = TrafficSpec()
    space = SearchSpace(
        workers=tuple(args.workers),
        policies=tuple(args.policy),
        admissions=tuple(args.admission),
        backends=(args.backend,),
        batch_caps=tuple(args.batch_size),
    )
    rc = _validate_backend(args.backend, require_executing=True, require_cost_model=True)
    if rc:
        return rc
    cache = RunCache(args.cache) if args.cache else RunCache()
    t0 = time.perf_counter()
    advice = advise(traffic, space, cache=cache, ablate_top=args.ablate_top)
    elapsed = time.perf_counter() - t0
    manifest = None
    if args.out:
        manifest = export_pack(advice, args.out)
    if args.json:
        payload = advice.to_dict()
        if manifest is not None:
            payload["pack"] = manifest
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(advice.render(top=args.top))
    if manifest is not None:
        print(
            f"\ndecision pack -> {args.out} "
            f"(manifest {manifest['manifest_hash']})"
        )
    print(
        f"\n[advise finished in {elapsed:.1f}s; "
        f"{cache.misses} simulations, {cache.hits} cache hits]"
    )
    return 0


def _cmd_simulate(args) -> int:
    """Build a workload + policy from CLI args and run the simulator."""
    import numpy as np

    from .cluster import (
        BULK_BUDGET,
        INTERACTIVE_BUDGET,
        ClosedLoopSource,
        CostModelClock,
        CrashSpec,
        FaultInjector,
        MeasuredClock,
        OnOffProcess,
        PoissonProcess,
        RecoveryConfig,
        SimConfig,
        SLOClass,
        StragglerSpec,
        TransientSpec,
        WorkloadSpec,
        make_admission,
        make_policy,
        open_loop,
        service_scales,
        simulate,
    )
    from .core.salo import SALO
    from .serving.trace import pattern_families

    if args.batch_size < 1:
        print(f"--batch-size must be >= 1, got {args.batch_size}", file=sys.stderr)
        return 2
    rc = _validate_backend(
        args.backend,
        require_executing=True,
        # The default clock charges SALO.estimate per dispatch; only a
        # measured run can serve a backend without a cost model.
        require_cost_model=not args.measured,
    )
    if rc:
        return rc
    if args.rate is not None and args.rho is not None:
        print("--rate and --rho are mutually exclusive", file=sys.stderr)
        return 2
    # `not (x > 0)` instead of `x <= 0` throughout: NaN compares False
    # both ways, and a NaN knob must exit 2, not hang or crash later.
    if args.rho is not None and not (args.rho > 0):
        print(f"--rho must be positive, got {args.rho}", file=sys.stderr)
        return 2
    if args.rate is not None and not (args.rate > 0):
        print(f"--rate must be positive, got {args.rate}", file=sys.stderr)
        return 2
    # Cheap flag validation first: a typo'd --slo or --class-weights
    # must not wait for the service-time probe below.
    if args.length_weighted and args.policy != "weighted-fair":
        print("--length-weighted only applies to --policy weighted-fair", file=sys.stderr)
        return 2
    class_weights = {}
    if args.class_weights:
        if args.policy != "weighted-fair":
            print(
                "--class-weights only applies to --policy weighted-fair",
                file=sys.stderr,
            )
            return 2
        for part in args.class_weights.split(","):
            try:
                name, weight = part.split(":")
                class_weights[name] = float(weight)
            except ValueError:
                print(
                    f"bad --class-weights {args.class_weights!r}; expected "
                    "NAME:WEIGHT[,NAME:WEIGHT...]",
                    file=sys.stderr,
                )
                return 2
            if not (class_weights[name] > 0) or math.isinf(class_weights[name]):
                print(f"--class-weights entries must be positive, got {part!r}", file=sys.stderr)
                return 2
    if args.admission_depth < 1:
        print(f"--admission-depth must be >= 1, got {args.admission_depth}", file=sys.stderr)
        return 2
    if not (args.admission_slack > 0):
        print(f"--admission-slack must be positive, got {args.admission_slack}", file=sys.stderr)
        return 2
    if args.admission_rate is not None and not (args.admission_rate > 0):
        print(f"--admission-rate must be positive, got {args.admission_rate}", file=sys.stderr)
        return 2
    if args.admission_wait_ms is not None and not (args.admission_wait_ms >= 0):
        print(f"--admission-wait-ms must be >= 0, got {args.admission_wait_ms}", file=sys.stderr)
        return 2
    fault_specs = []
    for spec_str in args.fault_crash or ():
        parts = spec_str.split(":")
        try:
            if len(parts) == 2:
                wid, at_ms = int(parts[0]), float(parts[1])
                down_s = None
            elif len(parts) == 3:
                wid, at_ms = int(parts[0]), float(parts[1])
                down_s = float(parts[2]) / 1e3
            else:
                raise ValueError(spec_str)
            fault_specs.append(CrashSpec(worker=wid, at_s=at_ms / 1e3, down_for_s=down_s))
        except ValueError:
            print(
                f"bad --fault-crash {spec_str!r}; expected WID:AT_MS[:DOWN_MS] "
                "with AT_MS >= 0 and DOWN_MS > 0",
                file=sys.stderr,
            )
            return 2
    for spec_str in args.fault_straggler or ():
        try:
            wid, start_ms, dur_ms, factor = spec_str.split(":")
            fault_specs.append(
                StragglerSpec(
                    worker=int(wid),
                    start_s=float(start_ms) / 1e3,
                    duration_s=float(dur_ms) / 1e3,
                    factor=float(factor),
                )
            )
        except ValueError:
            print(
                f"bad --fault-straggler {spec_str!r}; expected "
                "WID:START_MS:DUR_MS:FACTOR with DUR_MS > 0 and FACTOR >= 1",
                file=sys.stderr,
            )
            return 2
    if args.fault_transient is not None:
        try:
            fault_specs.append(TransientSpec(prob=args.fault_transient))
        except ValueError:
            print(
                f"--fault-transient must be in [0, 1), got {args.fault_transient}",
                file=sys.stderr,
            )
            return 2
    injector = FaultInjector(fault_specs, seed=args.fault_seed) if fault_specs else None
    try:
        if injector is not None:
            injector.validate_workers(args.workers)
        recovery = RecoveryConfig(
            heartbeat_interval_s=args.heartbeat_interval_ms / 1e3,
            heartbeat_timeout_s=args.heartbeat_timeout_ms / 1e3,
            max_retries=args.max_retries,
            requeue=not args.no_requeue,
            breaker_threshold=args.breaker_threshold,
            breaker_window=args.breaker_window,
            breaker_min_samples=args.breaker_min_samples,
            breaker_cooldown_s=args.breaker_cooldown_ms / 1e3,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    explicit_slo = None
    if args.slo:
        classes = []
        for spec_str in args.slo:
            try:
                name, deadline_ms, share = spec_str.split(":")
                deadline = None if deadline_ms in ("none", "") else float(deadline_ms) / 1e3
                classes.append(SLOClass(name, deadline, float(share)))
            except ValueError:
                print(f"bad --slo {spec_str!r}; expected NAME:DEADLINE_MS:SHARE", file=sys.stderr)
                return 2
        explicit_slo = tuple(classes)

    clock = CostModelClock()
    probe = WorkloadSpec(
        n=args.n,
        window=args.window,
        heads=args.heads,
        head_dim=args.head_dim,
        mixed=not args.uniform,
    )
    if args.measured:
        # Measured mode runs on the host wall clock (milliseconds per
        # batch), not the accelerator cycle model (microseconds) — the
        # auto rate and default SLO deadlines must be probed on the same
        # clock or every deadline is missed by construction.
        salo = SALO()
        rng = np.random.default_rng(0)
        hidden = args.heads * args.head_dim
        probed = []
        for pattern in pattern_families(probe):
            q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
            salo.attend(pattern, q, k, v, heads=args.heads)  # warm compile
            t0 = time.perf_counter()
            salo.attend(pattern, q, k, v, heads=args.heads)
            probed.append(time.perf_counter() - t0)
        unit_s = dispatch_s = float(np.mean(probed))
    else:
        unit_s, dispatch_s = service_scales(
            probe, clock, full_batch=args.batch_size, backend=args.backend
        )

    if explicit_slo is not None:
        slo_classes = explicit_slo
    else:
        slo_classes = (
            SLOClass("interactive", deadline_s=INTERACTIVE_BUDGET * dispatch_s, share=0.5),
            SLOClass("bulk", deadline_s=BULK_BUDGET * dispatch_s, share=0.5),
        )
    # A typo'd class name would silently fall back to default_weight and
    # neutralise the fairness knob the user thinks is in force.
    unknown = set(class_weights) - {c.name for c in slo_classes}
    if unknown:
        print(
            f"--class-weights names {sorted(unknown)} match no SLO class "
            f"(known: {sorted(c.name for c in slo_classes)})",
            file=sys.stderr,
        )
        return 2

    spec = WorkloadSpec(
        num_requests=args.requests,
        n=args.n,
        window=args.window,
        heads=args.heads,
        head_dim=args.head_dim,
        mixed=not args.uniform,
        slo_classes=slo_classes,
        seed=args.seed,
    )
    if args.rate is not None:
        rate = args.rate
    else:
        rho = args.rho if args.rho is not None else 0.9
        rate = rho * args.workers / unit_s
    if args.arrival == "closed":
        source = ClosedLoopSource(spec, clients=args.clients, think_time_s=args.think_ms / 1e3)
    elif args.arrival == "bursty":
        source = open_loop(
            spec,
            OnOffProcess(
                rate_on_rps=2.0 * rate,
                rate_off_rps=0.0,
                mean_on_s=50.0 / rate,
                mean_off_s=50.0 / rate,
            ),
        )
    else:
        source = open_loop(spec, PoissonProcess(rate_rps=rate))

    policy_kwargs = {"drop_expired": args.drop_expired}
    if args.policy in ("max-wait", "size-latency"):
        policy_kwargs["max_wait_s"] = args.max_wait_ms / 1e3
    if args.policy == "size-latency":
        policy_kwargs["target_size"] = args.target_size
    if args.policy == "weighted-fair" and class_weights:
        policy_kwargs["weights"] = class_weights
    if args.policy == "weighted-fair" and args.length_weighted:
        policy_kwargs["length_weighted"] = True

    admission_kwargs = {}
    if args.admission == "queue-depth":
        admission_kwargs["max_depth"] = args.admission_depth
    elif args.admission == "est-wait":
        admission_kwargs["slack"] = args.admission_slack
        if args.admission_wait_ms is not None:
            admission_kwargs["max_wait_s"] = args.admission_wait_ms / 1e3
    elif args.admission == "token-bucket":
        # Default quota: an even split of the pool's cost-model capacity
        # across the configured SLO classes.
        rate_per_class = (
            args.admission_rate
            if args.admission_rate is not None
            else args.workers / unit_s / max(len(slo_classes), 1)
        )
        admission_kwargs["default_rate"] = rate_per_class

    config = SimConfig(
        workers=args.workers,
        max_batch_size=args.batch_size,
        pad_to_bucket=args.pad,
        steal=not args.no_steal,
        policy=make_policy(args.policy, **policy_kwargs),
        admission=make_admission(args.admission, **admission_kwargs),
        service=MeasuredClock() if args.measured else clock,
        backend=args.backend,
        faults=injector,
        recovery=recovery,
    )

    t0 = time.perf_counter()
    report = simulate(source, config)
    if args.json:
        # One JSON document on stdout, nothing else: the machine-readable
        # path the provisioning advisor (and any script) consumes.
        import json as _json

        payload = report.to_dict()
        payload["workload"] = {
            "requests": args.requests,
            "arrival": args.arrival,
            "rate_rps": None if args.arrival == "closed" else rate,
            "policy": args.policy,
            "admission": args.admission,
            "workers": args.workers,
            "backend": args.backend,
            "seed": args.seed,
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"workload: {args.requests} requests, {args.arrival} arrivals"
        + (f" @ {rate:.0f} req/s" if args.arrival != "closed" else f", {args.clients} clients")
        + f", policy {args.policy}"
        + (" (drop-expired)" if args.drop_expired else "")
        + (f", admission {args.admission}" if args.admission != "admit-all" else "")
        + f", {args.workers} workers"
        + (f", faults {injector!r}" if injector is not None else "")
    )
    print(report.render())
    print(f"\n[simulate finished in {time.perf_counter() - t0:.1f}s]")
    return 0


def _cmd_decode(args) -> int:
    """Build a decode workload from CLI args and run the decode simulator."""
    from .cluster import (
        DecodeClusterSimulator,
        DecodeSimConfig,
        DecodeSLOClass,
        DecodeWorkloadSpec,
        FaultInjector,
        TransientSpec,
        make_admission,
    )

    slo_classes = None
    if args.slo:
        classes = []
        for spec_str in args.slo:
            try:
                name, ttft_ms, itl_ms, share = spec_str.split(":")
                ttft = None if ttft_ms in ("none", "") else float(ttft_ms) / 1e3
                itl = None if itl_ms in ("none", "") else float(itl_ms) / 1e3
                classes.append(
                    DecodeSLOClass(name, ttft, float(share), itl_deadline_s=itl)
                )
            except ValueError:
                print(
                    f"bad --slo {spec_str!r}; expected NAME:TTFT_MS:ITL_MS:SHARE "
                    "(budgets may be 'none')",
                    file=sys.stderr,
                )
                return 2
        slo_classes = tuple(classes)

    try:
        spec_kwargs = dict(
            sequences=args.sequences,
            rate_rps=args.rate,
            prompt_min=args.prompt_min,
            prompt_max=args.prompt_max,
            mean_new_tokens=args.mean_new_tokens,
            max_new_tokens=args.max_new_tokens,
            window=args.window,
            global_tokens=tuple(args.global_token or ()),
            heads=args.heads,
            head_dim=args.head_dim,
            seed=args.seed,
        )
        if slo_classes is not None:
            spec_kwargs["slo_classes"] = slo_classes
        spec = DecodeWorkloadSpec(**spec_kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    admission = None
    if args.admission != "admit-all":
        admission_kwargs = {}
        if args.admission == "queue-depth":
            admission_kwargs["max_depth"] = args.admission_depth
        elif args.admission == "est-wait":
            admission_kwargs["slack"] = args.admission_slack
        elif args.admission == "token-bucket":
            # Default quota: the offered sequence rate split evenly
            # across the configured SLO classes.
            admission_kwargs["default_rate"] = (
                args.admission_rate
                if args.admission_rate is not None
                else args.rate / max(len(spec.slo_classes), 1)
            )
        try:
            admission = make_admission(args.admission, **admission_kwargs)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    faults = None
    t0 = time.perf_counter()
    try:
        if args.fault_transient is not None:
            faults = FaultInjector(
                [TransientSpec(prob=args.fault_transient, worker=args.fault_worker)],
                seed=args.fault_seed,
            )
        config = DecodeSimConfig(
            workers=args.workers,
            max_lanes=args.max_lanes,
            admission=admission,
            shed_lagging=not args.no_shed_lagging,
            itl_shed_factor=args.itl_shed_factor,
            max_retries=args.max_retries,
            faults=faults,
        )
        # the simulator checks the fault specs against the pool and the
        # workload's step patterns against the engine before the first event
        report = DecodeClusterSimulator(config).run(spec)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(
        f"workload: {args.sequences} sequences @ {args.rate:.0f} seq/s, "
        f"prompts [{args.prompt_min}, {args.prompt_max}], "
        f"output ~geometric({args.mean_new_tokens:.0f}) cap {args.max_new_tokens}, "
        f"{args.workers} workers x {args.max_lanes} lanes"
        + (f", admission {args.admission}" if admission is not None else "")
        + (f", faults {faults!r}" if faults is not None else "")
    )
    print(report.render())
    print(f"\n[decode finished in {time.perf_counter() - t0:.1f}s]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="salo-repro",
        description="Reproduction of SALO (DAC 2022): experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    engines_p = sub.add_parser(
        "engines",
        help="inspect the registered attention backends",
        description=(
            "Tabulates every backend registered with repro.api: capability "
            "flags (batch axis, valid_lens masking, bit-exactness, cost "
            "model, executability, structure requirement) and a summary. "
            "These are the names run/serve/simulate --backend accept."
        ),
    )
    engines_p.add_argument(
        "action", choices=("list",), help="engines subcommand (list: tabulate backends)"
    )

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment name (see 'list')")
    run_p.add_argument("--fast", action="store_true", help="reduced problem sizes")
    run_p.add_argument(
        "--backend",
        default=None,
        help="execution backend for experiments with a backend axis "
        "(see 'engines list'); experiments without one reject the flag",
    )

    all_p = sub.add_parser("all", help="run every experiment in paper order")
    all_p.add_argument("--fast", action="store_true", help="reduced problem sizes")

    serve_p = sub.add_parser(
        "serve",
        help="replay a synthetic request trace through the batching serving layer",
        description=(
            "Generates a synthetic multi-pattern request trace, serves it through "
            "the length-bucketed batch scheduler (one batched engine dispatch per "
            "batch) and reports throughput, latency percentiles and the speedup "
            "over one-call-per-request execution of the same work."
        ),
    )
    serve_p.add_argument("--requests", type=int, default=64, help="trace length (default 64)")
    serve_p.add_argument("--batch-size", type=int, default=8, help="max requests per batch")
    serve_p.add_argument("--n", type=int, default=256, help="base sequence length")
    serve_p.add_argument("--window", type=int, default=32, help="attention window width")
    serve_p.add_argument("--heads", type=int, default=2, help="attention heads")
    serve_p.add_argument("--head-dim", type=int, default=8, help="per-head width")
    serve_p.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    serve_p.add_argument(
        "--uniform",
        action="store_true",
        help="single pattern family (default: mixed families and lengths)",
    )
    serve_p.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the sequential one-call-per-request comparison",
    )
    serve_p.add_argument(
        "--backend",
        default="functional",
        help="execution backend serving the trace (see 'engines list')",
    )
    serve_p.add_argument(
        "--json",
        action="store_true",
        help="print the replay report as one JSON document instead of text",
    )

    sim_p = sub.add_parser(
        "simulate",
        help="discrete-event simulation of a multi-worker SALO cluster",
        description=(
            "Simulates N worker engines serving timestamped traffic (Poisson, "
            "bursty on-off, or closed-loop clients) under a batch-close policy, "
            "with plan-affinity routing and work stealing.  Service times come "
            "from the paper's cycle model (SALO.estimate) — deterministic, no "
            "wall clock — unless --measured executes batches for real.  Reports "
            "per-SLO-class latency percentiles, goodput and per-worker "
            "utilisation."
        ),
    )
    sim_p.add_argument("--workers", type=int, default=2, help="worker engines (default 2)")
    sim_p.add_argument("--requests", type=int, default=200, help="total requests (default 200)")
    sim_p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in req/s (default: 0.9x the pool's cost-model capacity)",
    )
    sim_p.add_argument(
        "--rho",
        type=float,
        default=None,
        help="offered load relative to the pool's cost-model capacity "
        "(alternative to --rate; rho > 1 simulates sustained overload)",
    )
    sim_p.add_argument(
        "--arrival",
        choices=("poisson", "bursty", "closed"),
        default="poisson",
        help="arrival process (closed = fixed client population)",
    )
    sim_p.add_argument(
        "--policy",
        choices=("greedy-fifo", "max-wait", "edf", "size-latency", "weighted-fair"),
        default="greedy-fifo",
        help="batch-close policy",
    )
    sim_p.add_argument(
        "--drop-expired",
        action="store_true",
        help="shed queued requests whose deadline already passed "
        "(load shedding: trades completions for goodput under overload)",
    )
    sim_p.add_argument(
        "--class-weights",
        metavar="NAME:W[,NAME:W...]",
        default=None,
        help="per-SLO-class weights for the weighted-fair policy "
        "(e.g. interactive:3,bulk:1)",
    )
    sim_p.add_argument(
        "--length-weighted",
        action="store_true",
        help="weighted-fair policy: charge credit proportional to request "
        "length (token-share fairness) instead of 1 per request",
    )
    sim_p.add_argument(
        "--admission",
        choices=("admit-all", "queue-depth", "est-wait", "token-bucket"),
        default="admit-all",
        help="admission policy consulted at each arrival (overload valve)",
    )
    sim_p.add_argument(
        "--admission-depth",
        type=int,
        default=64,
        help="queue-depth admission: max requests held by the routed worker",
    )
    sim_p.add_argument(
        "--admission-slack",
        type=float,
        default=0.5,
        help="est-wait admission: reject once projected wait exceeds this "
        "fraction of the request's deadline budget",
    )
    sim_p.add_argument(
        "--admission-wait-ms",
        type=float,
        default=None,
        help="est-wait admission: absolute wait cap for deadline-free requests (ms)",
    )
    sim_p.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="token-bucket admission: per-class refill rate in req/s "
        "(default: an even split of pool capacity across classes)",
    )
    sim_p.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.2,
        help="holding bound for max-wait / size-latency policies (ms)",
    )
    sim_p.add_argument(
        "--target-size", type=int, default=4, help="size-latency policy batch target"
    )
    sim_p.add_argument("--batch-size", type=int, default=8, help="max requests per batch")
    sim_p.add_argument("--n", type=int, default=256, help="base sequence length")
    sim_p.add_argument("--window", type=int, default=32, help="attention window width")
    sim_p.add_argument("--heads", type=int, default=2, help="attention heads")
    sim_p.add_argument("--head-dim", type=int, default=8, help="per-head width")
    sim_p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    sim_p.add_argument(
        "--slo",
        action="append",
        metavar="NAME:DEADLINE_MS:SHARE",
        help=(
            "an SLO class (repeatable); default: interactive/bulk classes with "
            "deadlines scaled to the workload's cost-model dispatch unit"
        ),
    )
    sim_p.add_argument(
        "--clients", type=int, default=16, help="closed-loop client population"
    )
    sim_p.add_argument(
        "--think-ms", type=float, default=0.1, help="closed-loop mean think time (ms)"
    )
    sim_p.add_argument(
        "--pad",
        action="store_true",
        help="pad_to_bucket batching (cross-length batches with masked tails)",
    )
    sim_p.add_argument("--no-steal", action="store_true", help="disable work stealing")
    sim_p.add_argument(
        "--measured",
        action="store_true",
        help="execute batches on the engines and use measured wall time "
        "(default: deterministic cost-model clock)",
    )
    sim_p.add_argument(
        "--uniform",
        action="store_true",
        help="single pattern family (default: mixed families and lengths)",
    )
    sim_p.add_argument(
        "--backend",
        default="functional",
        help="execution backend of every worker engine (see 'engines list')",
    )
    sim_p.add_argument(
        "--json",
        action="store_true",
        help="print the cluster report as one JSON document instead of text",
    )
    sim_p.add_argument(
        "--fault-crash",
        action="append",
        metavar="WID:AT_MS[:DOWN_MS]",
        help=(
            "crash worker WID at AT_MS simulated ms, rejoining DOWN_MS later "
            "with a cold plan cache (omit DOWN_MS: never rejoins; repeatable)"
        ),
    )
    sim_p.add_argument(
        "--fault-straggler",
        action="append",
        metavar="WID:START_MS:DUR_MS:FACTOR",
        help=(
            "slow worker WID by FACTOR x for batches dispatched in "
            "[START_MS, START_MS+DUR_MS) (repeatable)"
        ),
    )
    sim_p.add_argument(
        "--fault-transient",
        type=float,
        default=None,
        metavar="PROB",
        help="per-dispatch transient-error probability on every worker",
    )
    sim_p.add_argument(
        "--fault-seed", type=int, default=0, help="fault injector RNG seed"
    )
    sim_p.add_argument(
        "--heartbeat-interval-ms",
        type=float,
        default=1.0,
        help="health probe period (simulated ms; default 1.0)",
    )
    sim_p.add_argument(
        "--heartbeat-timeout-ms",
        type=float,
        default=2.0,
        help="silence after which a worker is marked down (simulated ms; default 2.0)",
    )
    sim_p.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="transient-error retry budget per request (default 3)",
    )
    sim_p.add_argument(
        "--no-requeue",
        action="store_true",
        help="fail a down worker's orphaned requests instead of requeuing them",
    )
    sim_p.add_argument(
        "--breaker-threshold",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "per-worker circuit breaker: stop routing to a worker whose "
            "dispatch failure rate over the sliding window reaches RATE "
            "(catches grey failures heartbeats miss; default: disabled)"
        ),
    )
    sim_p.add_argument(
        "--breaker-window",
        type=int,
        default=8,
        help="circuit breaker: sliding window of dispatch outcomes (default 8)",
    )
    sim_p.add_argument(
        "--breaker-min-samples",
        type=int,
        default=4,
        help="circuit breaker: outcomes required before it may trip (default 4)",
    )
    sim_p.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=2.0,
        help="circuit breaker: open duration before the half-open probe "
        "(simulated ms; default 2.0)",
    )

    adv_p = sub.add_parser(
        "advise",
        help="provisioning advisor: search configs against a traffic spec",
        description=(
            "Searches the configuration space (workers x batch policy x "
            "admission x backend x batch cap) against a declarative traffic "
            "spec on the deterministic cost-model clock, ranks candidates "
            "cheapest-feasible-first with per-SLO margins, load headroom and "
            "the binding constraint, ablates the top candidates component by "
            "component, and optionally exports a manifest-hashed decision "
            "pack.  Without --traffic, a built-in interactive/bulk example "
            "spec at rho 1.2 is used (the committed copy lives at "
            "examples/traffic_interactive_bulk.json)."
        ),
    )
    adv_p.add_argument(
        "--traffic",
        default=None,
        metavar="FILE",
        help="JSON traffic spec (see examples/traffic_interactive_bulk.json)",
    )
    adv_p.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to search (default: 1 2 4)",
    )
    adv_p.add_argument(
        "--policy",
        nargs="+",
        choices=("greedy-fifo", "max-wait", "edf", "size-latency", "weighted-fair"),
        default=["greedy-fifo", "edf", "weighted-fair"],
        help="batch policies to search",
    )
    adv_p.add_argument(
        "--admission",
        nargs="+",
        choices=("admit-all", "queue-depth", "est-wait"),
        default=["admit-all", "est-wait"],
        help="admission policies to search",
    )
    adv_p.add_argument(
        "--batch-size",
        type=int,
        nargs="+",
        default=[8],
        help="max batch sizes to search (default: 8)",
    )
    adv_p.add_argument(
        "--backend",
        default="functional",
        help="execution backend candidates are configured with",
    )
    adv_p.add_argument(
        "--top", type=int, default=None, help="show only the top K ranked candidates"
    )
    adv_p.add_argument(
        "--ablate-top",
        type=int,
        default=3,
        help="run the component-ablation matrix on the top K candidates",
    )
    adv_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="export the decision pack (candidates.json, comparison.csv, "
        "DECISION_REPORT.md, manifest.json) to this directory",
    )
    adv_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="persist per-simulation results keyed by run id; a re-run "
        "with unchanged configuration replays from disk",
    )
    adv_p.add_argument(
        "--json", action="store_true", help="emit the full advice as JSON"
    )

    dec_p = sub.add_parser(
        "decode",
        help="continuous-batching decode simulation (tokens/s, TTFT/ITL SLOs)",
        description=(
            "Simulates decode-phase workers: each sequence arrives with a "
            "prompt, holds a lane for one engine step per generated token, "
            "and retires at its output budget — new arrivals join the running "
            "batch between steps.  Service times come from the cost model "
            "(latency x lanes + batch overhead, cold compile on the first "
            "step per bucket).  Reports tokens/s, mean lane concurrency, "
            "TTFT/ITL percentiles per SLO class, and per-worker plan-cache "
            "hit rates."
        ),
    )
    dec_p.add_argument("--sequences", type=int, default=64, help="total sequences (default 64)")
    dec_p.add_argument(
        "--rate", type=float, default=2000.0, help="sequence arrival rate in seq/s"
    )
    dec_p.add_argument("--workers", type=int, default=2, help="decode workers (default 2)")
    dec_p.add_argument(
        "--max-lanes", type=int, default=8, help="continuous-batch lanes per worker"
    )
    dec_p.add_argument("--prompt-min", type=int, default=4, help="shortest prompt")
    dec_p.add_argument("--prompt-max", type=int, default=48, help="longest prompt")
    dec_p.add_argument(
        "--mean-new-tokens",
        type=float,
        default=16.0,
        help="mean output budget (geometric draw)",
    )
    dec_p.add_argument(
        "--max-new-tokens", type=int, default=64, help="output budget cap"
    )
    dec_p.add_argument("--window", type=int, default=8, help="attention window width")
    dec_p.add_argument(
        "--global-token",
        action="append",
        type=int,
        metavar="POS",
        help="a global-attention token position (repeatable)",
    )
    dec_p.add_argument("--heads", type=int, default=2, help="attention heads")
    dec_p.add_argument("--head-dim", type=int, default=8, help="per-head width")
    dec_p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    dec_p.add_argument(
        "--slo",
        action="append",
        metavar="NAME:TTFT_MS:ITL_MS:SHARE",
        help=(
            "a decode SLO class with first-token and inter-token budgets "
            "(either may be 'none'; repeatable; default: interactive/bulk)"
        ),
    )
    dec_p.add_argument(
        "--admission",
        choices=("admit-all", "queue-depth", "est-wait", "token-bucket"),
        default="admit-all",
        help="admission policy at the decode door (est-wait gates on TTFT "
        "feasibility via the lane-drain estimate)",
    )
    dec_p.add_argument(
        "--admission-depth",
        type=int,
        default=64,
        help="queue-depth admission: max sequences held by the routed worker",
    )
    dec_p.add_argument(
        "--admission-slack",
        type=float,
        default=1.0,
        help="est-wait admission: reject once the projected first-step wait "
        "exceeds this fraction of the TTFT budget",
    )
    dec_p.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="token-bucket admission: per-class refill rate in seq/s "
        "(default: the offered rate split across classes)",
    )
    dec_p.add_argument(
        "--no-shed-lagging",
        action="store_true",
        help="keep lanes whose inter-token gap blew past their ITL budget "
        "(default: shed them; produced tokens stay completed)",
    )
    dec_p.add_argument(
        "--itl-shed-factor",
        type=float,
        default=4.0,
        help="shed a lane once its gap exceeds this multiple of its ITL budget",
    )
    dec_p.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="step-failure retry budget per sequence (default 3)",
    )
    dec_p.add_argument(
        "--fault-transient",
        type=float,
        default=None,
        metavar="PROB",
        help="per-step transient-error probability",
    )
    dec_p.add_argument(
        "--fault-worker",
        type=int,
        default=None,
        metavar="WID",
        help="restrict transient faults to one worker (default: all)",
    )
    dec_p.add_argument(
        "--fault-seed", type=int, default=0, help="fault injector RNG seed"
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in _ordered_names():
            print(name)
        return 0

    if args.command == "engines":
        return _cmd_engines(args)

    if args.command == "run":
        try:
            fn = get_experiment(args.experiment)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        kwargs = {}
        if args.backend is not None:
            # The serving experiments run the deterministic cost-model
            # clock, so the backend must both execute and estimate.
            rc = _validate_backend(
                args.backend, require_executing=True, require_cost_model=True
            )
            if rc:
                return rc
            if "backend" not in inspect.signature(fn).parameters:
                print(
                    f"experiment {args.experiment!r} has no execution-backend axis "
                    "(cost-model only); drop --backend",
                    file=sys.stderr,
                )
                return 2
            kwargs["backend"] = args.backend
        t0 = time.perf_counter()
        result = fn(fast=args.fast, **kwargs)
        print(result.render())
        print(f"\n[{args.experiment} finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    if args.command == "serve":
        from .serving import TraceSpec, replay, synthetic_trace

        rc = _validate_backend(args.backend, require_executing=True)
        if rc:
            return rc
        spec = TraceSpec(
            num_requests=args.requests,
            n=args.n,
            window=args.window,
            heads=args.heads,
            head_dim=args.head_dim,
            mixed=not args.uniform,
            seed=args.seed,
        )
        t0 = time.perf_counter()
        report = replay(
            synthetic_trace(spec),
            max_batch_size=args.batch_size,
            compare_sequential=not args.no_baseline,
            backend=args.backend,
        )
        if args.json:
            import json as _json

            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        print(report.render())
        print(f"\n[serve finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    if args.command == "simulate":
        return _cmd_simulate(args)

    if args.command == "advise":
        return _cmd_advise(args)

    if args.command == "decode":
        return _cmd_decode(args)

    if args.command == "all":
        for name in _ordered_names():
            t0 = time.perf_counter()
            result = get_experiment(name)(fast=args.fast)
            print(result.render())
            print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
