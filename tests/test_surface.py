"""Surface audit: each decision of the package is made in one place.

Every module under ``src/repro`` is reachable from a root, and most of
the promises about *where* a decision lives are rows of :data:`RULES`:
"``name`` in scope occurs exactly at these sites", or nowhere.  One walk
over one parse of the package indexes every call, import, definition,
identifier and string with the site that holds it
(``module::Class.function``), and one checker reads every row; a failure
names each offending ``file:line``, the rule and the PR that set it.
Rules of another shape stay functions below and read the same parse.
"""

import ast
import functools
import inspect
from collections import Counter, defaultdict
from fnmatch import fnmatchcase
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text())


def _tree(module):
    """The parse of ``src/repro/<module>``."""
    return _parse(PACKAGE / module)


# -- reachability -------------------------------------------------------------
#
# Reachable means imported, transitively, from the package root
# (``repro/__init__``), the command line (``repro.cli``), a benchmark or an
# example.  A module only its own test imports is dead weight: delete it with
# its test, or wire it to one of the roots.


def _modules():
    """``{dotted name: path}`` of every module and package under ``src/repro``."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
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
    for node in ast.walk(_parse(path)):
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


# -- the index and the rules --------------------------------------------------


class _Hit(NamedTuple):
    """One indexed occurrence.  ``kind`` is ``call`` (``text`` is the
    dotted callee, ``args`` its bare-name positional arguments),
    ``import`` (the module), ``name`` (an identifier: a variable, a
    definition, a parameter, a keyword, an import alias), ``attr`` (an
    attribute) or ``str`` (a string constant)."""

    site: str
    line: int
    kind: str
    text: str
    args: Tuple[str, ...] = ()


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ast.unparse(node)


class _Index(NamedTuple):
    hits: list
    sites: set  # every module and every class or function site
    fronts: set  # ``module::Class`` of ControlPlane and every class deriving from it


@functools.lru_cache(maxsize=None)
def _index():
    """Every module of the package parsed once and walked once."""
    hits, sites, bases = [], set(), {}

    def visit(node, module, qual):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = qual + (node.name,)
            sites.add(f"{module}::{'.'.join(qual)}")
            if isinstance(node, ast.ClassDef):
                bases[f"{module}::{node.name}"] = {_dotted(b).split(".")[-1] for b in node.bases}
        site = f"{module}::{'.'.join(qual)}" if qual else module
        add = hits.append
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            add(_Hit(site, line, "name", node.name))
        elif isinstance(node, ast.Call):
            names = tuple(arg.id for arg in node.args if isinstance(arg, ast.Name))
            add(_Hit(site, line, "call", _dotted(node.func), names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                add(_Hit(site, line, "import", node.module or ""))
            for alias in node.names:
                if isinstance(node, ast.Import):
                    add(_Hit(site, line, "import", alias.name))
                add(_Hit(site, line, "name", alias.asname or alias.name.split(".")[-1]))
        elif isinstance(node, ast.Attribute):
            add(_Hit(site, line, "attr", node.attr))
        elif isinstance(node, (ast.Name, ast.arg, ast.keyword)):
            text = node.id if isinstance(node, ast.Name) else node.arg
            if text:
                add(_Hit(site, line, "name", text))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            add(_Hit(site, line, "str", node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, module, qual)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        sites.add(module)
        visit(_parse(path), module, ())
    fronts = {cls for cls in bases if cls.endswith("::ControlPlane")}
    while more := {cls for cls, of in bases.items() if of & {f.split("::")[-1] for f in fronts}} - fronts:
        fronts |= more
    return _Index(hits, sites, fronts)


class Rule(NamedTuple):
    """``name`` occurs in ``scope`` exactly at ``allowed``.

    ``kind`` is what the walker matches: ``call`` (a name with a ``.`` is
    a glob over the dotted callee, a bare one its last part; ``(arg)``
    also asks for that positional argument), ``import``, ``attr``, or
    ``name`` (an identifier, an attribute or a string equal to it, as a
    ``getattr`` names it: "never called, defined or named").  ``scope``
    and ``allowed`` are sites: ``module``, ``module::Class`` or
    ``module::Class.function``; fnmatch globs, and ``ControlPlane+`` is
    every class deriving from the plane.
    A scope holds its sites' nested sites.  A plain allowed site holds
    exactly as many occurrences as it is listed; a glob at least one;
    ``()`` none anywhere in scope.  ``pr`` set the rule.
    """

    id: str
    kind: str
    name: str
    scope: Tuple[str, ...]
    allowed: Tuple[str, ...]
    pr: int
    why: str


_PLANE = "cluster/simulator.py::ControlPlane"
_DECODE_ENGINE_CALLERS = ("cluster/decode.py", "decode/session.py")

RULES = (
    Rule("heapq-importers", "import", "heapq", ("*",),
         ("cluster/simulator.py*", "transport/cluster.py*"), 24,
         "a module importing heapq owns an event loop: the simulated and the wall-clock executor's"),
    Rule("cold-penalty", "name", "_cold_penalty_s", ("*",), ("cluster/pool.py*",), 24,
         "CostModelClock charges its cold penalty through service_s; nothing re-derives it"),
    Rule("next-batch", "call", "next_batch", ("*",), ("cluster/*",), 29,
         "batches are closed by the plane's policies; another caller is a second serving loop"),
    *(Rule(f"decode-front-{name}", "name", name, ("decode/scheduler.py",), (), 31,
           "the decode front neither attends nor decides steps: ContinuousBatching and the "
           "step batch do")
      for name in ("attend", "step_window", "decode_pattern")),
    Rule("decode-attend", "name", "attend", _DECODE_ENGINE_CALLERS, (), 38,
         "a decode KV holds codes: a float attend would re-quantise every history row per step"),
    Rule("decode-codes-door", "call", "attend_codes", _DECODE_ENGINE_CALLERS,
         ("cluster/decode.py::_StepBatch.execute", "decode/session.py::DecodeSession._attend"), 38,
         "decode reaches the engine through the codes door"),
    Rule("drive-metrics", "call", "self.metrics.*", (f"{_PLANE}._drive",), (), 34,
         "the event loop keeps no per-event accounting"),
    Rule("request-generator-state", "name", "bit_generator", ("serving/request.py",), (), 36,
         "a request's operands come from their own key, not from a generator state snapshot"),
    Rule("stage5-output-codes", "name", "output_codes_into", ("accelerator/functional.py",), (), 39,
         "the V slab carries stage 5's shift, so a stage-5 sum is rounded once"),
    Rule("merge-scratch", "name", "merge_tmp", ("accelerator/weighted_sum.py",), (), 39,
         "a merge consumes its part: no part-sized scratch buffer"),
    *(Rule(f"complete-{name}", kind, name, ("*[.:]_complete",), (), 41,
           "each member's output rides its completion event by position: no side channel")
      for kind, name in (("attr", "served"), ("attr", "service"), ("call", "index"))),
    Rule("metrics-fold", "call", "self.metrics.fold", ("*",), (f"{_PLANE}._emit",), 43,
         "outcomes reach the collector only as events _emit folds"),
    Rule("metrics-calls", "call", "self.metrics.*", ("*",),
         (f"{_PLANE}._emit", f"{_PLANE}.report"), 43,
         "besides the fold, the plane only reads its report"),
    Rule("admit-callers", "call", "self._admit", ("ControlPlane+",),
         (f"{_PLANE}._on_arrive", "serving/session.py::ServingSession.submit",
          "decode/scheduler.py::DecodeScheduler.submit"), 44,
         "arrivals reach the plane through _on_arrive, and a synchronous submit door"),
    Rule("dispatch-callers", "call", "self._dispatch", ("ControlPlane+",),
         (f"{_PLANE}._drive", f"{_PLANE}._balance", "serving/session.py::ServingSession._serve",
          "decode/scheduler.py::DecodeScheduler.step"), 46,
         "the policy is consulted at one instant: _drive, a thief in _balance, two budgeted doors"),
    Rule("execution-plan", "call", "ExecutionPlan", ("*",),
         ("scheduler/scheduler.py::DataScheduler.schedule",), 47,
         "every plan is the scheduler's product"),
    *(Rule(f"no-{name}", "name", name, ("*",), (), 47,
           "hand-built pass lists and their indexer stay out of src/")
      for name in ("pass_index", "IrregularPassError")),
    Rule("expiry-timer", "call", "*.schedule(_EXPIRE)", ("*",), (f"{_PLANE}._arm_expiry",), 48,
         "one expiry timer per plane, armed in one place"),
    Rule("key-bands", "call", "*.bands", ("*[.:]*key*",),
         ("patterns/base.py::AttentionPattern.structure_key",), 48,
         "a pattern derives its structure key once; key functions read it"),
    Rule("queue-sweeps", "call", "expire", ("*",),
         (f"{_PLANE}._dispatch", f"{_PLANE}._on_expire"), 49,
         "shedding is the plane's decision: it sweeps before a consultation and on the timer"),
    Rule("policy-shedding-switch", "name", "drop_expired", ("cluster/policy.py",), (), 49,
         "a batch policy chooses a batch; shedding is a control-plane knob"),
    Rule("no-shed-expired", "name", "shed_expired", ("*",), (), 49,
         "the policies' shared sweep is gone with their switch"),
    Rule("engine-factory", "call", "engine_factory", ("cluster/*", "serving/*", "transport/*"),
         (f"{_PLANE}.__init__", "serving/trace.py::replay"), 50,
         "a worker's engine is named one way; ControlPlane.__init__ and replay build factories"),
    *(Rule(f"global-chain-{name}", "call", name,
           ("accelerator/functional.py::FunctionalEngine._merge_global_rows",), (), 55,
           "the global row's Eq. 2 weights come in one pass; per batch only the output half runs")
      for name in ("_merge_part", "merge_into")),
    *(Rule(f"no-{name}", "name", name, ("*",), (), 55,
           "window jobs are built from the scheduler's tiling; the pass-list builder is a test oracle")
      for name in ("_ColumnRun", "_column_run", "_even_runs", "_split_blocks",
                   "_position_families", "_cut_valid")),
)


def _within(site, scope):
    return any(fnmatchcase(site, pattern) for pattern in (scope, scope + "::*", scope + ".*"))


def _matches(rule, hit):
    if rule.kind == "call":
        callee, _, arg = rule.name.partition("(")
        return hit.kind == "call" and (
            fnmatchcase(hit.text, callee) if "." in callee else hit.text.split(".")[-1] == callee
        ) and (not arg or arg[:-1] in hit.args)
    return hit.text == rule.name and (hit.kind in ("name", "attr", "str") if rule.kind == "name"
                                      else hit.kind == rule.kind)


def _violations(rule):
    """What breaks ``rule``, one line each; empty when it holds."""
    index = _index()
    scope = [s for entry in rule.scope
             for s in (sorted(index.fronts) if entry == "ControlPlane+" else [entry])]
    problems = [f"scope {s}: the walk sees no such site" for s in scope
                if not any(_within(site, s) for site in index.sites)]
    exact = Counter(a for a in rule.allowed if not any(c in a for c in "*?["))
    globs = [a for a in rule.allowed if a not in exact]
    at = defaultdict(list)
    for hit in index.hits:
        if _matches(rule, hit) and any(_within(hit.site, s) for s in scope):
            slot = hit.site if hit.site in exact else next(
                (g for g in globs if fnmatchcase(hit.site, g)), None)
            at[slot].append(hit)
    where = [f"src/repro/{h.site.split('::')[0]}:{h.line}: {h.text} in {h.site}" for h in at[None]]
    for site, n in exact.items():
        if len(at[site]) != n:
            lines = ", ".join(str(h.line) for h in at[site])
            problems.append(f"{site}: {n} expected, the walk sees {len(at[site])} (lines {lines})")
    problems += [f"{g}: the walk sees none" for g in globs if not at[g]]
    return where + problems


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_rule(rule):
    problems = _violations(rule)
    assert not problems, f"rule {rule.id} (PR {rule.pr}): {rule.why}\n" + "\n".join(problems)


def test_the_index_sees_what_the_rules_read():
    """The walker's positive control: the sites and kinds the rows rely on."""
    index = _index()
    fronts = {front.split("::")[-1] for front in index.fronts}
    assert {"ClusterSimulator", "TransportCluster", "ServingSession", "DecodeScheduler"} <= fronts
    completes = {s.split("::")[0] for s in index.sites if s.endswith("._complete")}
    assert {"cluster/simulator.py", "serving/session.py", "decode/scheduler.py",
            "cluster/decode.py"} <= completes
    keyed = {s.rpartition("::")[2].split(".")[-1] for s in index.sites}
    assert {"pattern_structure_key", "group_key", "_plan_key", "plan_key"} <= keyed
    assert {"call", "import", "name", "attr", "str"} == {hit.kind for hit in index.hits}
    assert all(rule.kind in ("call", "import", "name", "attr") for rule in RULES)
    assert len({rule.id for rule in RULES}) == len(RULES)


# -- rules of another shape ---------------------------------------------------


def test_the_cli_declares_each_flag_once():
    """A long option string sits in one ``add_argument`` call of
    ``cli.py``: a flag several commands share is declared by one flag-group
    function or one loop, so its type, default and help cannot drift
    apart between copies.  The exception is ``advise``'s list-valued
    search axes, declared with ``nargs="+"`` beside the single-valued
    flag of the same name."""
    calls = {}
    for node in ast.walk(_tree("cli.py")):
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


def test_each_front_takes_one_engine_parameter():
    """An engine, a factory or a backend name: a second engine parameter
    is a second way to name the engine, with a "not both" guard beside it."""
    from repro.cluster import EnginePool
    from repro.serving import ServingSession, replay
    from repro.transport import InProcessTransport, MultiprocessTransport

    engine_params = {"salo", "salo_factory", "backend", "engine", "config", "runtime_config"}
    for front in (EnginePool, ServingSession, InProcessTransport, MultiprocessTransport, replay):
        named = engine_params & set(inspect.signature(front).parameters)
        assert len(named) == 1, (front.__name__, sorted(named))


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
    read.  A normal drawn in ``make``, or its generator handed to a
    helper that draws them, is the shared data stream growing back."""
    factory = next(
        node
        for node in ast.walk(_tree("serving/trace.py"))
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


def test_the_plane_counts_nothing_beside_the_event_stream():
    """``MetricsCollector`` folds events and has no ``note_*`` method; the
    plane, pool and workers keep no retry, requeue or steal counter, and
    the clock keeps no last batch's outputs."""
    from repro.cluster import ClusterSimulator, MeasuredClock

    collector = next(
        node
        for node in ast.walk(_tree("cluster/metrics.py"))
        if isinstance(node, ast.ClassDef) and node.name == "MetricsCollector"
    )
    methods = {node.name for node in collector.body if isinstance(node, ast.FunctionDef)}
    assert "fold" in methods  # the walk sees the collector
    assert not {m for m in methods if m.lstrip("_").startswith("note_")}, sorted(methods)
    plane = ClusterSimulator()
    for obj in (plane, plane.pool, *plane.pool.workers):
        kept = {"_retries", "_requeues", "steals", "stolen_in"} & set(dir(obj))
        assert not kept, (type(obj).__name__, kept)
    assert not hasattr(MeasuredClock(), "served")


def test_the_simulated_plane_hashes_no_band(monkeypatch):
    """A structure key holds each band as its ``(lo, hi, dilation)``
    triple, so routing, queueing and plan lookups hash ints in C: a
    ``simulate()`` run with a crash, retries and stealing, a decode
    simulation and a few real decode steps call ``Band.__hash__`` not
    once, and every group key they derive is ints and tuples of ints."""
    import numpy as np

    from repro.cluster import (
        CostModelClock, DecodeClusterSimulator, DecodeSimConfig, DecodeWorkloadSpec,
        PoissonProcess, WorkloadSpec, open_loop, service_scales, simulate,
    )
    from repro.cluster import decode
    from repro.core import HardwareConfig
    from repro.core.salo import SALO
    from repro.decode import DecodeRequest, DecodeScheduler
    from repro.experiments import faults
    from repro.patterns import Band, HybridSparsePattern
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
    band_hash, group_key, lane_key = Band.__hash__, BatchScheduler.group_key, decode._group_key

    def counting_hash(self):
        hashed.append(self)
        return band_hash(self)

    def recording(derive):
        def record(*args):
            keys.append(derive(*args))
            return keys[-1]
        return record

    pattern = HybridSparsePattern(256, [Band(-8, 0), Band(-16, -12, 4)], [3])
    monkeypatch.setattr(Band, "__hash__", counting_hash)
    monkeypatch.setattr(BatchScheduler, "group_key", recording(group_key))
    monkeypatch.setattr(decode, "_group_key", recording(lane_key))
    report = simulate(source, config)
    spec = DecodeWorkloadSpec(sequences=16, global_tokens=(6,))
    decoded = DecodeClusterSimulator(DecodeSimConfig(workers=2)).run(spec)
    sched = DecodeScheduler(SALO(HardwareConfig(pe_rows=4, pe_cols=4)), max_lanes=3)
    for i, prompt in enumerate((2, 9, 30)):
        q, k, v = np.random.default_rng(i).standard_normal((3, prompt, 4))
        sched.submit(DecodeRequest(f"seq-{i}", pattern, q, k, v, max_new_tokens=4))
    steps = [sched.step() for _ in range(3)]

    def leaves(key):
        return [leaf for part in key for leaf in leaves(part)] if type(key) is tuple else [key]

    assert report.completed and decoded.tokens_completed and all(s.tokens for s in steps)
    assert keys and {type(leaf) for key in keys for leaf in leaves(key)} == {int}
    assert hashed == []
