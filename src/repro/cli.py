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

The door rule: a flag the chosen mode never reads is refused, not
ignored — each such rule is one row of ``_ONLY_WITH`` (a flag set away
from its default while its row's mode is off exits 2 with ``--flag only
applies ...``).  Value ranges are checked by the objects the flags
build (``QueueDepthCap``, ``TransientSpec``, ``PoissonProcess``, ...);
the command line checks only what no constructor sees.  Each command
builds its inputs and returns its run: a ``ValueError`` while building
exits 2 with its message, and the run itself is outside that door.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, List, Optional

from .cluster import ADMISSIONS, POLICIES, RecoveryConfig
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

Run = Callable[[], int]


def _ordered_names() -> List[str]:
    known = all_experiments()
    ordered = [n for n in _ORDER if n in known]
    ordered.extend(sorted(set(known) - set(ordered)))
    return ordered


def _validate_backend(
    name: str, require_executing: bool = False, require_cost_model: bool = False
) -> None:
    """Refuse backend ``name`` with a ``ValueError`` unless it may serve here.

    ``require_executing`` gates serving paths (the backend must attend);
    ``require_cost_model`` gates cost-model-clocked paths (the default
    simulate/experiment clocks call ``estimate`` on every dispatch, so a
    backend without one must be refused up front, not crash mid-run).
    """
    from .api import CapabilityError, backend_spec, engine_factory, list_backends

    if name not in list_backends():
        raise ValueError(
            f"unknown backend {name!r}; registered: {', '.join(list_backends())} "
            "(see 'salo-repro engines list')"
        )
    if require_executing:
        try:
            engine_factory(name)
        except CapabilityError as exc:
            raise ValueError(str(exc)) from exc
    if require_cost_model and not backend_spec(name).capabilities.has_cost_model:
        raise ValueError(
            f"backend {name!r} has no cost model (has_cost_model=False); the "
            "deterministic cost-model clock cannot serve it — use --measured "
            "or a backend with a cost model"
        )


def _ms(text: str) -> float:
    """Milliseconds on the command line, seconds inside."""
    return float(text) / 1e3


def _budget_ms(text: str) -> Optional[float]:
    """A latency budget in ms; ``none`` (or nothing) is no budget."""
    return None if text in ("none", "") else _ms(text)


def _spec(flag: str, metavar: str, text: str, make, *fields, optional: int = 0):
    """``make(*fields)`` of a ``:``-separated ``flag`` value, each field
    through its converter; the last ``optional`` fields may be left out.

    A wrong field count, a field that does not convert and a value
    ``make`` refuses all raise one ``ValueError`` naming the flag.
    """
    parts = text.split(":")
    try:
        if not len(fields) - optional <= len(parts) <= len(fields):
            raise ValueError(f"{len(parts)} fields")
        return make(*(convert(part) for convert, part in zip(fields, parts)))
    except ValueError as exc:
        raise ValueError(f"bad {flag} {text!r}; expected {metavar} ({exc})") from None


def _fault_flags(args) -> bool:
    return any(getattr(args, dest, None) is not None
               for dest in ("fault_crash", "fault_straggler", "fault_transient"))


# A flag the chosen mode never reads is refused, not ignored: per command,
# (dest, "applies when" predicate, where it applies).  Recovery and
# breaker flags have no row — RecoveryConfig reads and checks all of them.
_DOOR_ROWS = (
    ("admission_depth", lambda a: a.admission == "queue-depth", "to --admission queue-depth"),
    ("admission_slack", lambda a: a.admission == "est-wait", "to --admission est-wait"),
    ("admission_rate", lambda a: a.admission == "token-bucket", "to --admission token-bucket"),
    ("fault_seed", _fault_flags, "with a --fault-* flag"),
)
_ONLY_WITH = {
    "simulate": _DOOR_ROWS + (
        ("admission_wait_ms", lambda a: a.admission == "est-wait", "to --admission est-wait"),
        ("rate", lambda a: a.arrival != "closed", "to open-loop arrivals, not --arrival closed"),
        ("rho", lambda a: a.arrival != "closed", "to open-loop arrivals, not --arrival closed"),
        ("rho", lambda a: a.rate is None, "without --rate"),
        ("class_weights", lambda a: a.policy == "weighted-fair", "to --policy weighted-fair"),
        ("length_weighted", lambda a: a.policy == "weighted-fair", "to --policy weighted-fair"),
        ("max_wait_ms", lambda a: a.policy in ("max-wait", "size-latency"),
         "to --policy max-wait or size-latency"),
        ("target_size", lambda a: a.policy == "size-latency", "to --policy size-latency"),
        ("clients", lambda a: a.arrival == "closed", "to --arrival closed"),
        ("think_ms", lambda a: a.arrival == "closed", "to --arrival closed"),
    ),
    "decode": _DOOR_ROWS + (
        ("fault_worker", lambda a: a.fault_transient is not None, "with --fault-transient"),
        ("itl_shed_factor", lambda a: not a.no_shed_lagging, "without --no-shed-lagging"),
    ),
}


def _refuse_ignored(args, command: argparse.ArgumentParser) -> None:
    """Raise on the first ``_ONLY_WITH`` row whose flag left its default
    while its mode is off (NaN differs from every default)."""
    for dest, applies, where in _ONLY_WITH.get(args.command, ()):
        if getattr(args, dest) != command.get_default(dest) and not applies(args):
            raise ValueError(f"--{dest.replace('_', '-')} only applies {where}")


def _cmd_list(args) -> Run:
    def run() -> int:
        for name in _ordered_names():
            print(name)
        return 0

    return run


def _cmd_engines(args) -> Run:
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

    def run() -> int:
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

    return run


def _cmd_run(args) -> Run:
    """One experiment, on ``--backend`` when it has a backend axis."""
    try:
        fn = get_experiment(args.experiment)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    kwargs = {}
    if args.backend is not None:
        # The serving experiments run the deterministic cost-model
        # clock, so the backend must both execute and estimate.
        _validate_backend(args.backend, require_executing=True, require_cost_model=True)
        if "backend" not in inspect.signature(fn).parameters:
            raise ValueError(
                f"experiment {args.experiment!r} has no execution-backend axis "
                "(cost-model only); drop --backend"
            )
        kwargs["backend"] = args.backend

    def run() -> int:
        t0 = time.perf_counter()
        result = fn(fast=args.fast, **kwargs)
        print(result.render())
        print(f"\n[{args.experiment} finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    return run


def _cmd_all(args) -> Run:
    def run() -> int:
        for name in _ordered_names():
            t0 = time.perf_counter()
            result = get_experiment(name)(fast=args.fast)
            print(result.render())
            print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
        return 0

    return run


def _cmd_serve(args) -> Run:
    """Draw a synthetic trace; the run replays it through the batching layer."""
    import json

    from .serving import BatchScheduler, TraceSpec, replay, synthetic_trace

    _validate_backend(args.backend, require_executing=True)
    # checked at the door too: main maps only a door's ValueError to exit 2
    BatchScheduler(max_batch_size=args.batch_size)
    t0 = time.perf_counter()
    trace = synthetic_trace(
        TraceSpec(
            num_requests=args.requests,
            n=args.n,
            window=args.window,
            heads=args.heads,
            head_dim=args.head_dim,
            mixed=not args.uniform,
            seed=args.seed,
        )
    )

    def run() -> int:
        report = replay(
            trace,
            max_batch_size=args.batch_size,
            compare_sequential=not args.no_baseline,
            backend=args.backend,
        )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        print(report.render())
        print(f"\n[serve finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    return run


def _cmd_advise(args) -> Run:
    """Run the provisioning advisor on a declarative traffic spec."""
    import json

    from .advisor import RunCache, SearchSpace, TrafficSpec, advise, export_pack

    if args.top is not None and args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    try:
        traffic = TrafficSpec() if args.traffic is None else TrafficSpec.load(args.traffic)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"bad traffic spec {args.traffic!r}: {exc}") from exc
    space = SearchSpace(
        workers=tuple(args.workers),
        policies=tuple(args.policy),
        admissions=tuple(args.admission),
        backends=(args.backend,),
        batch_caps=tuple(args.batch_size),
    )
    space.candidates()  # each candidate checks its own knobs
    _validate_backend(args.backend, require_executing=True, require_cost_model=True)

    def run() -> int:
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
            print(json.dumps(payload, indent=2, sort_keys=True))
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

    return run


def _admission(name: str, depth: int, slack: float, rate: float,
               max_wait_s: Optional[float] = None):
    """Admission policy ``name`` over its flags' values: queue-depth reads
    ``depth``, est-wait ``slack`` and ``max_wait_s``, token-bucket ``rate``."""
    from .cluster import make_admission

    kwargs = {
        "queue-depth": dict(max_depth=depth),
        "est-wait": dict(slack=slack, max_wait_s=max_wait_s),
        "token-bucket": dict(default_rate=rate),
    }
    return make_admission(name, **kwargs.get(name, {}))


def _simulation(args):
    """``simulate``'s source, config and open-loop rate; a bad flag raises ``ValueError``."""
    import numpy as np

    from .api import engine_factory
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
        SimConfig,
        SLOClass,
        StragglerSpec,
        TransientSpec,
        WorkloadSpec,
        make_policy,
        open_loop,
        service_scales,
    )
    from .serving.trace import pattern_families

    if args.batch_size < 1:  # on the measured path no constructor reads it before the run
        raise ValueError(f"--batch-size must be >= 1, got {args.batch_size}")
    # before the automatic rate, which divides by the pool's capacity
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    # The default clock charges the backend's estimate per dispatch; only
    # a measured run can serve a backend without a cost model.
    _validate_backend(args.backend, require_executing=True, require_cost_model=not args.measured)
    # `not (x > 0)` instead of `x <= 0`: NaN compares False both ways.
    if args.rho is not None and not (args.rho > 0):
        raise ValueError(f"--rho must be positive, got {args.rho}")
    # Cheap flag parsing first: a typo'd spec must not wait for the
    # service-time probe below.
    class_weights = dict(
        _spec("--class-weights", "NAME:W[,NAME:W...]", part, lambda *nw: nw, str, float)
        for part in args.class_weights.split(",")
    ) if args.class_weights else {}
    fault_specs = [
        _spec("--fault-crash", "WID:AT_MS[:DOWN_MS]", text, CrashSpec, int, _ms, _ms, optional=1)
        for text in args.fault_crash or ()
    ] + [
        _spec("--fault-straggler", "WID:START_MS:DUR_MS:FACTOR", text, StragglerSpec,
              int, _ms, _ms, float)
        for text in args.fault_straggler or ()
    ]
    if args.fault_transient is not None:
        fault_specs.append(TransientSpec(prob=args.fault_transient))
    explicit_slo = tuple(
        _spec("--slo", "NAME:DEADLINE_MS:SHARE", text, SLOClass, str, _budget_ms, float)
        for text in args.slo
    ) if args.slo else None

    injector = FaultInjector(fault_specs, seed=args.fault_seed) if fault_specs else None
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
        # clock, and on the engine the workers run, or every deadline is
        # missed by construction.
        engine = engine_factory(args.backend)()
        rng = np.random.default_rng(0)
        hidden = args.heads * args.head_dim
        probed = []
        for pattern in pattern_families(probe):
            q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
            engine.attend(pattern, q, k, v, heads=args.heads)  # warm compile
            t0 = time.perf_counter()
            engine.attend(pattern, q, k, v, heads=args.heads)
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
        raise ValueError(
            f"--class-weights names {sorted(unknown)} match no SLO class "
            f"(known: {sorted(c.name for c in slo_classes)})"
        )

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
    else:
        process = PoissonProcess(rate_rps=rate)  # checks the rate of either open loop
        if args.arrival == "bursty":
            process = OnOffProcess(
                rate_on_rps=2.0 * rate,
                rate_off_rps=0.0,
                mean_on_s=50.0 / rate,
                mean_off_s=50.0 / rate,
            )
        source = open_loop(spec, process)

    policy_kwargs = {}
    if args.policy in ("max-wait", "size-latency"):
        policy_kwargs["max_wait_s"] = args.max_wait_ms / 1e3
    if args.policy == "size-latency":
        policy_kwargs["target_size"] = args.target_size
    if args.policy == "weighted-fair" and class_weights:
        policy_kwargs["weights"] = class_weights
    if args.policy == "weighted-fair" and args.length_weighted:
        policy_kwargs["length_weighted"] = True

    # Default token-bucket quota: an even split of the pool's cost-model
    # capacity across the configured SLO classes.
    quota = args.admission_rate if args.admission_rate is not None else (
        args.workers / unit_s / max(len(slo_classes), 1))
    wait_s = None if args.admission_wait_ms is None else args.admission_wait_ms / 1e3

    config = SimConfig(
        workers=args.workers,
        max_batch_size=args.batch_size,
        pad_to_bucket=args.pad,
        steal=not args.no_steal,
        policy=make_policy(args.policy, **policy_kwargs),
        admission=_admission(args.admission, args.admission_depth, args.admission_slack,
                             quota, wait_s),
        drop_expired=args.drop_expired,
        service=MeasuredClock() if args.measured else clock,
        backend=args.backend,
        faults=injector,
        recovery=recovery,
    )
    return source, config, rate


def _cmd_simulate(args) -> Run:
    """Build a workload + policy from CLI args; the run simulates it."""
    import json

    from .cluster import simulate

    source, config, rate = _simulation(args)

    def run() -> int:
        t0 = time.perf_counter()
        report = simulate(source, config)
        if args.json:
            # One JSON document on stdout, nothing else: the machine-readable
            # path the provisioning advisor (and any script) consumes.
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
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(
            f"workload: {args.requests} requests, {args.arrival} arrivals"
            + (f" @ {rate:.0f} req/s" if args.arrival != "closed" else f", {args.clients} clients")
            + f", policy {args.policy}"
            + (" (drop-expired)" if args.drop_expired else "")
            + (f", admission {args.admission}" if args.admission != "admit-all" else "")
            + f", {args.workers} workers"
            + (f", faults {config.faults!r}" if config.faults is not None else "")
        )
        print(report.render())
        print(f"\n[simulate finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    return run


def _cmd_decode(args) -> Run:
    """Build a decode workload from CLI args and run the decode simulator.

    The simulator checks the fault specs against the pool and the
    workload's step patterns against the engine before the first event,
    so the run itself is built at the door; the returned run reports it.
    """
    from .cluster import (
        ContinuousBatching,
        DecodeClusterSimulator,
        DecodeSimConfig,
        DecodeSLOClass,
        DecodeWorkloadSpec,
        FaultInjector,
        TransientSpec,
    )

    slo = {}
    if args.slo:
        slo["slo_classes"] = tuple(
            _spec("--slo", "NAME:TTFT_MS:ITL_MS:SHARE", text,
                  lambda name, ttft, itl, share: DecodeSLOClass(name, ttft, share, itl_deadline_s=itl),
                  str, _budget_ms, _budget_ms, float)
            for text in args.slo
        )
    spec = DecodeWorkloadSpec(
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
        **slo,
    )

    # Default token-bucket quota: the offered sequence rate split evenly
    # across the configured SLO classes.
    quota = args.admission_rate if args.admission_rate is not None else (
        args.rate / len(spec.slo_classes))
    t0 = time.perf_counter()
    faults = None if args.fault_transient is None else FaultInjector(
        [TransientSpec(prob=args.fault_transient, worker=args.fault_worker)],
        seed=args.fault_seed,
    )
    config = DecodeSimConfig(
        workers=args.workers,
        max_batch_size=args.max_lanes,
        policy=ContinuousBatching(itl_shed_factor=None) if args.no_shed_lagging
        else ContinuousBatching() if args.itl_shed_factor is None
        else ContinuousBatching(args.itl_shed_factor),
        admission=_admission(args.admission, args.admission_depth, args.admission_slack, quota),
        recovery=RecoveryConfig(max_retries=args.max_retries),
        faults=faults,
    )
    report = DecodeClusterSimulator(config).run(spec)

    def run() -> int:
        print(
            f"workload: {args.sequences} sequences @ {args.rate:.0f} seq/s, "
            f"prompts [{args.prompt_min}, {args.prompt_max}], "
            f"output ~geometric({args.mean_new_tokens:.0f}) cap {args.max_new_tokens}, "
            f"{args.workers} workers x {args.max_lanes} lanes"
            + (f", admission {args.admission}" if args.admission != "admit-all" else "")
            + (f", faults {faults!r}" if faults is not None else "")
        )
        print(report.render())
        print(f"\n[decode finished in {time.perf_counter() - t0:.1f}s]")
        return 0

    return run


def _shape_flags(p: argparse.ArgumentParser, window: int = 32) -> None:
    """The attention shape and the workload seed (serve, simulate, decode)."""
    p.add_argument("--window", type=int, default=window, help="attention window width")
    p.add_argument("--heads", type=int, default=2, help="attention heads")
    p.add_argument("--head-dim", type=int, default=8, help="per-head width")
    p.add_argument("--seed", type=int, default=0, help="workload RNG seed")


def _trace_flags(p: argparse.ArgumentParser, requests: int) -> None:
    """The synthetic trace (serve, simulate)."""
    p.add_argument(
        "--requests", type=int, default=requests, help="total requests (default %(default)s)"
    )
    p.add_argument("--batch-size", type=int, default=8, help="max requests per batch")
    p.add_argument("--n", type=int, default=256, help="base sequence length")
    p.add_argument(
        "--uniform",
        action="store_true",
        help="single pattern family (default: mixed families and lengths)",
    )


def _door_flags(p: argparse.ArgumentParser, slack: float) -> None:
    """The pool, its admission door and its faults (simulate, decode)."""
    p.add_argument("--workers", type=int, default=2, help="worker engines (default 2)")
    p.add_argument(
        "--admission",
        choices=tuple(ADMISSIONS),
        default="admit-all",
        help="admission policy consulted at each arrival (overload valve; decode's "
        "est-wait gates on TTFT feasibility via the lane-drain estimate)",
    )
    p.add_argument(
        "--admission-depth",
        type=int,
        default=64,
        help="queue-depth admission: max requests held by the routed worker",
    )
    p.add_argument(
        "--admission-slack",
        type=float,
        default=slack,
        help="est-wait admission: reject once the projected wait exceeds this "
        "fraction of the request's deadline budget (decode: its TTFT budget)",
    )
    p.add_argument(
        "--admission-rate",
        type=float,
        default=None,
        help="token-bucket admission: per-class refill rate per second (default: "
        "simulate's pool capacity or decode's offered rate, split evenly across classes)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=RecoveryConfig().max_retries,
        help="transient-error retry budget per request (default %(default)s)",
    )
    p.add_argument(
        "--fault-transient",
        type=float,
        default=None,
        metavar="PROB",
        help="per-dispatch transient-error probability",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0, help="fault injector RNG seed"
    )


def _parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="salo-repro",
        description="Reproduction of SALO (DAC 2022): experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available experiments")

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

    all_p = sub.add_parser("all", help="run every experiment in paper order")

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
    _shape_flags(serve_p)
    _trace_flags(serve_p, requests=64)
    serve_p.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the sequential one-call-per-request comparison",
    )

    recovery = RecoveryConfig()  # the fault-tolerance flags' defaults
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
    _shape_flags(sim_p)
    _trace_flags(sim_p, requests=200)
    _door_flags(sim_p, slack=0.5)
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
        choices=tuple(POLICIES),
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
        "--admission-wait-ms",
        type=float,
        default=None,
        help="est-wait admission: absolute wait cap for deadline-free requests (ms)",
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
        "--heartbeat-interval-ms",
        type=float,
        default=recovery.heartbeat_interval_s * 1e3,
        help="health probe period (simulated ms; default %(default)s)",
    )
    sim_p.add_argument(
        "--heartbeat-timeout-ms",
        type=float,
        default=recovery.heartbeat_timeout_s * 1e3,
        help="silence after which a worker is marked down (simulated ms; default %(default)s)",
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
        default=recovery.breaker_window,
        help="circuit breaker: sliding window of dispatch outcomes (default %(default)s)",
    )
    sim_p.add_argument(
        "--breaker-min-samples",
        type=int,
        default=recovery.breaker_min_samples,
        help="circuit breaker: outcomes required before it may trip (default %(default)s)",
    )
    sim_p.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=recovery.breaker_cooldown_s * 1e3,
        help="circuit breaker: open duration before the half-open probe "
        "(simulated ms; default %(default)s)",
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
        choices=tuple(POLICIES),
        default=["greedy-fifo", "edf", "weighted-fair"],
        help="batch policies to search",
    )
    adv_p.add_argument(
        "--admission",
        nargs="+",
        # not token-bucket: a Candidate carries no bucket rate, so it
        # would be admit-all under another name
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
    _shape_flags(dec_p, window=8)
    _door_flags(dec_p, slack=1.0)
    dec_p.add_argument("--sequences", type=int, default=64, help="total sequences (default 64)")
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
    dec_p.add_argument(
        "--global-token",
        action="append",
        type=int,
        metavar="POS",
        help="a global-attention token position (repeatable)",
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
        default=None,
        help="shed a lane once its gap exceeds this multiple of its ITL budget",
    )
    dec_p.add_argument(
        "--fault-worker",
        type=int,
        default=None,
        metavar="WID",
        help="restrict transient faults to one worker (default: all)",
    )

    # Flags shared by commands outside one group, each declared once.
    for p in (run_p, all_p):
        p.add_argument("--fast", action="store_true", help="reduced problem sizes")
    for p, backend in ((run_p, None), (serve_p, "functional"), (sim_p, "functional"),
                       (adv_p, "functional")):
        p.add_argument(
            "--backend",
            default=backend,
            help="execution backend of the engines the command builds (see 'engines list')",
        )
    for p in (serve_p, sim_p, adv_p):
        p.add_argument(
            "--json",
            action="store_true",
            help="print the report as one JSON document instead of text",
        )
    for p, rate, what in (
        (sim_p, None, "offered load in req/s (default: 0.9x the pool's cost-model capacity)"),
        (dec_p, 2000.0, "sequence arrival rate in seq/s"),
    ):
        p.add_argument("--rate", type=float, default=rate, help=what)
    for p, metavar, what in (
        (sim_p, "NAME:DEADLINE_MS:SHARE", "an SLO class (repeatable); default: "
         "interactive/bulk classes with deadlines scaled to the workload's "
         "cost-model dispatch unit"),
        (dec_p, "NAME:TTFT_MS:ITL_MS:SHARE", "a decode SLO class with first-token "
         "and inter-token budgets (either may be 'none'; repeatable; default: "
         "interactive/bulk)"),
    ):
        p.add_argument("--slo", action="append", metavar=metavar, help=what)

    for p, command in ((list_p, _cmd_list), (engines_p, _cmd_engines), (run_p, _cmd_run),
                       (all_p, _cmd_all), (serve_p, _cmd_serve), (sim_p, _cmd_simulate),
                       (adv_p, _cmd_advise), (dec_p, _cmd_decode)):
        p.set_defaults(func=command)
    return parser, sub.choices


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    try:
        _refuse_ignored(args, commands[args.command])
        run = args.func(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
