"""Surface audit: every module under ``src/repro`` is reachable.

Reachable means imported, transitively, from the package root
(``repro/__init__``), the command line (``repro.cli``), a benchmark
(``benchmarks/``) or an example (``examples/``) — a paper artefact, a
workload or a command.  A module only its own test imports is dead
weight: delete it with its test, or wire it to one of the roots.  The
walk is over ASTs (function-level imports included); nothing is
executed.
"""

import ast
import inspect
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _modules():
    """``{dotted name: path}`` of every module and package under ``src/repro``."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


def _imports(path, name, modules):
    """Names of the ``repro`` modules that the file at ``path`` imports.

    ``name`` is the file's own dotted name (``None`` outside the
    package), which anchors relative imports.
    """
    package = None
    if name is not None:
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            # ``from package import submodule`` imports a module too.
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    return {t for t in targets if t in modules}


def _reachable(modules):
    roots = [(path, None) for d in ("benchmarks", "examples") for path in (REPO / d).rglob("*.py")]
    roots += [(modules[name], name) for name in ("repro", "repro.cli")]
    seen, todo = set(), []
    for path, name in roots:
        todo.extend(_imports(path, name, modules))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        if parent:  # importing a submodule runs its packages' __init__
            todo.append(parent)
        todo.extend(_imports(modules[name], name, modules))
    return seen | {"repro", "repro.cli"}


def test_every_module_is_reachable_from_a_root():
    modules = _modules()
    assert len(modules) > 100  # the walk found the package
    orphans = sorted(set(modules) - _reachable(modules))
    assert not orphans, f"imported by no root (package, CLI, benchmark, example): {orphans}"


def test_the_walk_resolves_relative_and_function_level_imports():
    modules = _modules()
    cli = _imports(modules["repro.cli"], "repro.cli", modules)
    assert "repro.serving" in cli  # ``from .serving import ...`` inside a command
    functional = _imports(
        modules["repro.accelerator.functional"], "repro.accelerator.functional", modules
    )
    assert {"repro.scheduler.compiled", "repro.accelerator.arena"} <= functional


def _sources():
    """``{path relative to src/repro: AST}`` of every module in the package."""
    root = SRC / "repro"
    return {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in root.rglob("*.py")
    }


def test_one_event_heap_per_executor_family():
    """A module that imports ``heapq`` owns an event loop: the simulated
    executor's and the wall-clock one's are the only two."""
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module] if isinstance(node, ast.ImportFrom) else []

    importers = {
        name
        for name, tree in _sources().items()
        if any("heapq" in imported(node) for node in ast.walk(tree))
    }
    assert importers == {"cluster/simulator.py", "transport/cluster.py"}


def test_only_the_control_plane_pops_batches():
    """Batches are closed by the cluster control plane's policies; a
    module outside ``repro/cluster`` calling ``.next_batch(`` is a second
    serving loop growing back beside the plane."""
    callers = {
        name
        for name, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "next_batch"
    }
    assert callers and all(name.startswith("cluster/") for name in callers), sorted(callers)


def test_the_decode_front_neither_attends_nor_decides_steps():
    """``repro/decode/scheduler.py`` is a front on the control plane:
    ``ContinuousBatching`` decides each step and the step batch runs it
    (``repro/cluster/decode.py``).  An engine call or a step-window /
    step-plan decision in the front is a second decode loop growing back
    beside the plane."""
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(_sources()["decode/scheduler.py"])
        if isinstance(node, ast.Call)
    }
    assert {"_admit", "_dispatch"} <= called  # the walk sees the front's calls
    assert not called & {"attend", "step_window", "decode_pattern"}, sorted(called)


def test_decode_reaches_the_engine_through_the_codes_door():
    """A decode KV holds operand codes, so the two modules that hand it
    to the engine call ``attend_codes``; a float ``attend`` there would
    re-quantise (and re-check) every history row on every step."""
    for name in ("cluster/decode.py", "decode/session.py"):
        called = {
            node.func.attr
            for node in ast.walk(_sources()[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "attend_codes" in called, name  # the walk sees the engine call
        assert "attend" not in called, name


def test_the_clock_prices_its_own_cold_penalty():
    """``CostModelClock._cold_penalty_s`` is charged through
    ``service_s``; nothing re-derives a launch's cost around it."""
    users = {
        name
        for name, tree in _sources().items()
        for node in ast.walk(tree)
        if "_cold_penalty_s" in (getattr(node, "attr", None), getattr(node, "name", None))
    }
    assert users == {"cluster/pool.py"}


def test_the_event_loop_keeps_no_per_event_accounting():
    """``ControlPlane._drive`` only decides: per-request records are kept
    by the handlers, and nothing in ``self.metrics`` grows per event.  A
    per-event sample is observability, which belongs on an opt-in sink."""
    plane = next(
        node
        for node in ast.walk(_sources()["cluster/simulator.py"])
        if isinstance(node, ast.ClassDef) and node.name == "ControlPlane"
    )
    drive = next(
        node for node in plane.body if isinstance(node, ast.FunctionDef) and node.name == "_drive"
    )
    calls = [node.func for node in ast.walk(drive) if isinstance(node, ast.Call)]
    assert any(getattr(func, "attr", None) == "_balance" for func in calls)  # the walk sees the loop
    on_metrics = [name for name in map(ast.unparse, calls) if name.startswith("self.metrics.")]
    assert not on_metrics, on_metrics


def test_a_member_output_rides_its_completion():
    """``ControlPlane._complete`` hands each member its own output by
    position.  A ``_complete`` that looks a member up with ``.index(``,
    or reads ``.served`` / ``executor.service``, is a side channel holding
    the last batch's outputs growing back beside the completion event."""
    from repro.cluster import MeasuredClock

    found = {}
    for name, tree in _sources().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_complete":
                found.setdefault(name, []).extend(
                    ast.unparse(node)
                    for node in ast.walk(fn)
                    if getattr(node, "attr", None) in ("served", "service")
                    or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "index")
                )
    # the walk sees the plane's hook and the three fronts that override it
    assert {"cluster/simulator.py", "serving/session.py", "decode/scheduler.py",
            "cluster/decode.py"} <= set(found)
    assert not any(found.values()), found
    assert not hasattr(MeasuredClock(), "served")


def test_decode_is_configured_like_every_simulation():
    """``DecodeSimConfig`` is a ``SimConfig`` that only changes defaults:
    a field of its own would be a second configuration growing back
    beside the plane's."""
    from dataclasses import fields

    from repro.cluster import DecodeSimConfig, SimConfig

    assert issubclass(DecodeSimConfig, SimConfig)
    assert [f.name for f in fields(DecodeSimConfig)] == [f.name for f in fields(SimConfig)]


def test_the_request_stream_draws_descriptors_only():
    """``RequestFactory.make`` draws a request's family and class; its
    operands come from their own ``(seed, request id)`` key on first
    read.  A normal drawn in ``make`` (or its generator handed to a
    helper that draws them), or a generator state snapshot in
    ``repro.serving.request``, is the shared data stream growing back."""
    factory = next(
        node
        for node in ast.walk(_sources()["serving/trace.py"])
        if isinstance(node, ast.ClassDef) and node.name == "RequestFactory"
    )
    make = next(
        node for node in factory.body if isinstance(node, ast.FunctionDef) and node.name == "make"
    )
    calls = [node for node in ast.walk(make) if isinstance(node, ast.Call)]
    draws = {
        call.func.attr
        for call in calls
        if isinstance(call.func, ast.Attribute) and ast.unparse(call.func.value) in ("rng", "self.rng")
    }
    handed = [
        ast.unparse(call)
        for call in calls
        if any(ast.unparse(arg) in ("rng", "self.rng") for arg in call.args)
    ]
    assert "integers" in draws  # the walk sees the family draw
    assert draws <= {"integers", "random", "choice"}, sorted(draws)
    assert not handed, handed
    request = ast.unparse(_sources()["serving/request.py"])
    assert "bit_generator" not in request, "repro.serving.request reads a generator state"


def test_stage5_and_the_merges_run_without_part_sized_scratch():
    """The V slab carries stage 5's shift to output units, so the
    production path rounds a stage-5 sum once and calls no
    ``output_codes_into``; a merge consumes its part, so the weighted-sum
    module asks the arena for no ``merge_tmp``.  Either coming back is a
    full-band pass (or a part-sized buffer) growing back."""
    sources = _sources()
    called = {
        node.func.attr
        for node in ast.walk(sources["accelerator/functional.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "matmul" in called  # the walk sees the engine's calls
    assert "output_codes_into" not in called
    names = {
        node.args[0].value
        for node in ast.walk(sources["accelerator/weighted_sum.py"])
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "ARENA.buf"
        and isinstance(node.args[0], ast.Constant)
    }
    assert "merge_total" in names  # the walk sees the arena requests
    assert "merge_tmp" not in names, sorted(names)


def test_the_plane_books_every_outcome_as_an_event():
    """Outcomes reach ``MetricsCollector`` only as events it folds: it has
    no ``note_*`` method, ``ControlPlane._emit`` is the one caller of its
    ``fold`` and every other ``self.metrics`` call is the read-only
    ``report``, and the plane, pool and workers keep no retry, requeue or
    steal counter beside the stream."""
    from repro.cluster import ClusterSimulator

    sources = _sources()
    collector = next(
        node
        for node in ast.walk(sources["cluster/metrics.py"])
        if isinstance(node, ast.ClassDef) and node.name == "MetricsCollector"
    )
    methods = {node.name for node in collector.body if isinstance(node, ast.FunctionDef)}
    assert "fold" in methods  # the walk sees the collector
    assert not {m for m in methods if m.lstrip("_").startswith("note_")}, sorted(methods)
    called = {
        (name, fn.name, ast.unparse(node.func))
        for name, tree in sources.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("self.metrics.")
    }
    assert ("cluster/simulator.py", "report", "self.metrics.report") in called  # the walk sees it
    others = called - {("cluster/simulator.py", "_emit", "self.metrics.fold")}
    assert {call for _, _, call in others} == {"self.metrics.report"}, sorted(others)
    plane = ClusterSimulator()
    for obj in (plane, plane.pool, *plane.pool.workers):
        kept = {"_retries", "_requeues", "steals", "stolen_in"} & set(dir(obj))
        assert not kept, (type(obj).__name__, kept)


def _plane_callers(method):
    """``(module, function)`` of every call to ``self.<method>`` in
    ``ControlPlane`` or a class deriving from it, through any front."""
    trees = _sources()
    bases = {
        node.name: {ast.unparse(base).split(".")[-1] for base in node.bases}
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    fronts = {"ControlPlane"}
    while more := {cls for cls, of in bases.items() if of & fronts} - fronts:
        fronts |= more  # every class deriving from the plane, through any front
    assert {"ClusterSimulator", "TransportCluster", "ServingSession", "DecodeScheduler"} <= fronts
    return {
        (name, fn.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in fronts
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == f"self.{method}"
            for node in ast.walk(fn)
        )
    }


def test_arrivals_reach_the_plane_through_one_handler():
    """A source's arrivals are ``_ARRIVE`` events that ``ControlPlane._play``
    schedules and ``ControlPlane._on_arrive`` admits, so outside
    ``ControlPlane`` its ``_admit`` is called only by a synchronous
    ``submit`` door.  A front admitting from anywhere else (an
    ``_on_arrive`` override among them) is a second arrival loop growing
    back beside ``_play``."""
    callers = _plane_callers("_admit")
    inside = {c for c in callers if c[0] == "cluster/simulator.py"}
    assert inside == {("cluster/simulator.py", "_on_arrive")}  # the walk sees the handler
    doors = {("serving/session.py", "submit"), ("decode/scheduler.py", "submit")}
    assert callers - inside == doors, sorted(callers)


def test_the_policy_is_consulted_in_one_place():
    """Handlers only mark a worker for consultation; ``ControlPlane._drive``
    consults each marked worker once per instant, after every arrival due
    by then, and a thief in ``_balance`` launches what it stole at once.
    Outside the plane, only the two synchronous doors that spend a launch
    budget call ``_dispatch``.  Any other caller is a second consultation
    instant growing back, and one trace would again form different
    batches on different executors."""
    assert _plane_callers("_dispatch") == {
        ("cluster/simulator.py", "_drive"),
        ("cluster/simulator.py", "_balance"),
        ("serving/session.py", "_serve"),
        ("decode/scheduler.py", "step"),
    }


def test_the_cli_declares_each_flag_once():
    """A long option string sits in one ``add_argument`` call of
    ``cli.py``: a flag several commands share is declared by one flag-group
    function or one loop, so its type, default and help cannot drift
    apart between copies.  The exception is ``advise``'s list-valued
    search axes, declared with ``nargs="+"`` beside the single-valued
    flag of the same name."""
    calls = {}
    for node in ast.walk(_sources()["cli.py"]):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".add_argument"):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("--"):
                    calls.setdefault(arg.value, []).append(node)
    assert len(calls) > 50  # the walk found the declarations
    repeated = {flag: nodes for flag, nodes in calls.items() if len(nodes) > 1}
    assert set(repeated) <= {"--workers", "--policy", "--admission", "--batch-size"}, sorted(repeated)
    for flag, nodes in repeated.items():
        nargs = [ast.unparse(kw.value) for node in nodes for kw in node.keywords if kw.arg == "nargs"]
        assert len(nodes) == 2 and nargs == ["'+'"], flag


def test_every_plan_is_the_schedulers_product():
    """An ``ExecutionPlan``'s passes are the ``PassIndex`` the scheduler
    derives from its tiling, so ``DataScheduler.schedule`` is the one
    place in the package that builds a plan.  A second ``ExecutionPlan(``
    call, or an indexer for hand-built pass lists with its irregular-list
    error, is a second way into ``compile_plan`` growing back."""
    trees = _sources()
    calls = [
        (name, fn.name)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ExecutionPlan"
    ]
    total = sum(
        isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ExecutionPlan"
        for tree in trees.values()
        for node in ast.walk(tree)
    )
    assert calls == [("scheduler/scheduler.py", "schedule")] and total == 1, calls
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"tiling_index", "PassIndex"} <= defined  # the walk sees definitions
    assert not {"pass_index", "IrregularPassError"} & defined


def test_one_expiry_timer_is_armed_in_one_place():
    """With ``drop_expired`` the plane keeps one expiry timer, at the
    earliest queued deadline: ``ControlPlane._arm_expiry`` is the only
    function in the package that schedules an ``_EXPIRE`` event.  A second
    scheduling site is a timer per request growing back."""
    sites = [
        (name, fn.name)
        for name, tree in _sources().items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith(".schedule")
        and any(ast.unparse(arg) == "_EXPIRE" for arg in node.args)
    ]
    assert sites == [("cluster/simulator.py", "_arm_expiry")], sites


def test_a_structure_key_is_derived_by_the_pattern_once():
    """A pattern computes its structure key once and keeps it
    (``AttentionPattern.structure_key``); ``pattern_structure_key`` and
    every group / plan key read that cache.  A function named for a key
    that calls ``.bands()`` itself is a per-request derivation growing
    back."""
    callers = {
        (name, fn.name)
        for name, tree in _sources().items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and "key" in fn.name
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".bands")
    }
    assert callers == {("patterns/base.py", "structure_key")}, sorted(callers)
    keyed = {
        fn.name
        for tree in _sources().values()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and "key" in fn.name
    }
    # the walk sees them
    assert {"pattern_structure_key", "group_key", "_plan_key", "plan_key"} <= keyed


def test_the_simulated_plane_hashes_no_band(monkeypatch):
    """A structure key holds each band as its ``(lo, hi, dilation)``
    triple, so routing, queueing and plan lookups hash ints in C: a
    ``simulate()`` run with a crash, retries and stealing calls
    ``Band.__hash__`` not once, and every group key it derives is ints
    and tuples of ints."""
    from repro.cluster import (
        CostModelClock, PoissonProcess, WorkloadSpec, open_loop, service_scales, simulate,
    )
    from repro.experiments import faults
    from repro.patterns.base import Band
    from repro.serving.batching import BatchScheduler

    clock = CostModelClock.flat()
    unit_s, dispatch_s = service_scales(WorkloadSpec(n=256, window=32, heads=2, head_dim=8), clock)
    requests, rate = 300, 0.8 * 2 / unit_s
    source = open_loop(faults.faults_spec(requests, dispatch_s, seed=2), PoissonProcess(rate_rps=rate))
    config = faults.mode_config(
        "retry+steal", 2, clock,
        crash_at_s=faults.CRASH_AT_FRAC * requests / rate,
        down_for_s=faults.DOWN_FOR_UNITS * unit_s,
        unit_s=unit_s,
    )
    hashed, keys = [], []
    band_hash, group_key = Band.__hash__, BatchScheduler.group_key

    def counting_hash(self):
        hashed.append(self)
        return band_hash(self)

    def recording_key(self, request):
        keys.append(group_key(self, request))
        return keys[-1]

    monkeypatch.setattr(Band, "__hash__", counting_hash)
    monkeypatch.setattr(BatchScheduler, "group_key", recording_key)
    report = simulate(source, config)

    def leaves(key):
        return [leaf for part in key for leaf in leaves(part)] if type(key) is tuple else [key]

    assert report.completed and keys
    assert {type(leaf) for key in keys for leaf in leaves(key)} == {int}
    assert hashed == []


def _enclosing_calls(attr):
    """``{(module, class, function)}`` around every ``.<attr>(`` or bare
    ``<attr>(`` call in the package (``None`` where a call sits outside a
    class or function)."""
    found = set()

    def visit(node, name, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, ast.FunctionDef):
            fn = node.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == attr):
            found.add((name, cls, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, name, cls, fn)

    for name, tree in _sources().items():
        visit(tree, name, None, None)
    return found


def test_only_the_plane_sweeps_queues():
    """Shedding is the plane's decision (``ControlConfig.drop_expired``):
    ``ControlPlane._dispatch`` sweeps a worker's queue before each
    consultation and ``_on_expire`` sweeps every queue when the expiry
    timer fires.  Any other ``.expire(`` call is a second sweep growing
    back beside them, a policy's among them."""
    assert _enclosing_calls("expire") == {
        ("cluster/simulator.py", "ControlPlane", "_dispatch"),
        ("cluster/simulator.py", "ControlPlane", "_on_expire"),
    }


def test_the_policies_hold_no_shedding_switch():
    """A batch policy chooses a batch; whether a doomed request is shed
    is a control-plane knob, so ``cluster/policy.py`` never names it."""
    assert "drop_expired" not in (SRC / "repro" / "cluster" / "policy.py").read_text()


def test_no_policy_level_sweep_is_defined():
    """The policies' shared sweep (``shed_expired``) is gone with the
    policies' switch; defining it again anywhere brings it back."""
    defined = {
        node.name
        for tree in _sources().values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "_dispatch" in defined  # the walk sees definitions
    assert "shed_expired" not in defined


def test_a_worker_engine_is_named_one_way():
    """Each front takes one engine parameter (an engine, a factory or a
    backend name), and ``ControlPlane.__init__`` is where a config's
    backend name becomes the pool's engine factory; ``replay`` builds
    its two sides from its own.  A second engine parameter, or another
    ``engine_factory(`` call in the serving stack, is a second way to
    name the engine growing back, with a "not both" guard beside it."""
    from repro.cluster import EnginePool
    from repro.serving import ServingSession, replay
    from repro.transport import InProcessTransport, MultiprocessTransport

    layers = ("cluster/", "serving/", "transport/")
    callers = {c for c in _enclosing_calls("engine_factory") if c[0].startswith(layers)}
    assert callers == {
        ("cluster/simulator.py", "ControlPlane", "__init__"),
        ("serving/trace.py", None, "replay"),
    }, sorted(callers)
    engine_params = {"salo", "salo_factory", "backend", "engine", "config", "runtime_config"}
    for front in (EnginePool, ServingSession, InProcessTransport, MultiprocessTransport, replay):
        named = engine_params & set(inspect.signature(front).parameters)
        assert len(named) == 1, (front.__name__, sorted(named))
