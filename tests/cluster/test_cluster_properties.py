"""Property-based invariants of the cluster layer (hypothesis).

These pin the laws the serving/cluster stack relies on, across randomly
drawn scenarios — any arrival timing, any batch policy, any admission
mode, any worker count:

* **The event laws** — the ``drive`` fixture checks every run's event
  stream with :func:`repro.cluster.events.check`: conservation per run
  and per SLO class, exactly one terminal outcome per request, no steal
  of work in flight, a launch completes at most once and, with
  ``drop_expired``, no completed request had expired at dispatch.  Under
  any drawn mix of crash / straggler / transient fault specs the same
  laws hold with ``failed`` as a fourth terminal bucket.
* **Batch integrity** — every dispatched batch is same-plan (one group
  key) and never exceeds ``max_batch_size``.
* **EDF order** — over a static queue, successive EDF batches are
  non-decreasing in urgency.
* **Determinism** — the same drawn scenario, rebuilt from scratch,
  yields a byte-identical ``ClusterReport.render()``.
* **Empty-injector identity** — carrying a ``FaultInjector([])`` (armed
  but with no specs) is byte-identical to carrying no injector at all:
  zero extra events, zero RNG draws.

Scenarios are deliberately tiny (n <= 48, 4x4 PE array, <= 18 requests)
— the invariants are about bookkeeping and ordering, not scale, and the
cost-model clock never executes a batch.

The laws belong to the control plane, not to one executor: scenarios
run through the shared ``drive`` fixture, and for the
executor-independent laws the executor is itself part of the drawn
scenario — virtual time on the simulator, or wall clock on real
in-process workers (where a crash spec is a real ``kill_worker``).
Byte-identical replay is a property of virtual time only.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AdmitAll,
    ClusterSimulator,
    CostModelClock,
    CrashSpec,
    EDFPolicy,
    EstimatedWaitCap,
    FaultInjector,
    GreedyFIFOPolicy,
    MaxWaitPolicy,
    OpenLoopSource,
    QueueDepthCap,
    RecoveryConfig,
    SimConfig,
    StragglerSpec,
    TokenBucketAdmission,
    TransientSpec,
    WeightedFairPolicy,
)
from repro.cluster.events import ARRIVE, LAUNCH, REQUEUE, SHED, STEAL, TERMINAL
from repro.cluster.policy import _urgency
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.core.salo import pattern_structure_key
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, BatchScheduler

# Shared structures: three band geometries over two lengths.  Operand
# data is shared zeros — the cost-model clock never executes a batch, so
# only shapes matter, and sharing keeps scenario construction cheap.
_PATTERNS = (
    longformer_pattern(32, 4, (0,)),
    longformer_pattern(32, 8, (0,)),
    longformer_pattern(48, 8, (0,)),
)
_HIDDEN = 8  # heads=2 x head_dim=4
_DATA = {p.n: np.zeros((p.n, _HIDDEN)) for p in _PATTERNS}

# (class name, deadline in seconds).  The scale matters: service times
# under the 4x4 cost model are ~10us-1ms (cold compiles 0.5ms), so these
# deadlines make expiry genuinely reachable without being universal.
_CLASSES = (
    ("tight", 2e-4),
    ("loose", 5e-3),
    ("besteffort", None),
)


EVERY_EXECUTOR = ("simulated", "inprocess")


@st.composite
def scenario(draw, executors=("simulated",)):
    """One cluster scenario: requests + sim knobs + policy/admission picks
    + the executor it runs on."""
    num = draw(st.integers(4, 18))
    workers = draw(st.integers(1, 3))
    max_batch = draw(st.integers(2, 4))
    pad = draw(st.booleans())
    # Arrival gaps in 10us ticks: 0 (burst) .. 500us (trickle) spans the
    # congested and idle regimes relative to the service times above.
    gaps = draw(st.lists(st.integers(0, 50), min_size=num, max_size=num))
    pattern_picks = draw(
        st.lists(st.integers(0, len(_PATTERNS) - 1), min_size=num, max_size=num)
    )
    class_picks = draw(
        st.lists(st.integers(0, len(_CLASSES) - 1), min_size=num, max_size=num)
    )
    policy_pick = draw(
        st.sampled_from(
            [
                ("greedy-fifo", False),
                ("greedy-fifo", True),
                ("max-wait", False),
                ("edf", False),
                ("edf", True),
                ("weighted-fair", True),
            ]
        )
    )
    admission_pick = draw(
        st.sampled_from(["admit-all", "queue-depth", "est-wait", "token-bucket"])
    )
    requests = []
    t = 0.0
    for i in range(num):
        t += gaps[i] * 1e-5
        pattern = _PATTERNS[pattern_picks[i]]
        name, deadline = _CLASSES[class_picks[i]]
        requests.append(
            AttentionRequest(
                request_id=i,
                pattern=pattern,
                q=_DATA[pattern.n],
                k=_DATA[pattern.n],
                v=_DATA[pattern.n],
                heads=2,
                arrival_s=t,
                deadline_s=deadline,
                slo_class=name,
            )
        )
    return {
        "executor": draw(st.sampled_from(executors)),
        "requests": requests,
        "workers": workers,
        "max_batch": max_batch,
        "pad": pad,
        "policy": policy_pick,
        "admission": admission_pick,
    }


@st.composite
def faulty_scenario(draw, executors=("simulated",)):
    """A scenario plus a drawn mix of fault specs naming its workers.

    Times are in 10us ticks over [0, 5ms] — the same order as the
    scenario's arrival span, so crashes land before, during and after
    the traffic with roughly equal probability.
    """
    sc = draw(scenario(executors))
    workers = sc["workers"]
    specs = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["crash", "straggler", "transient"]))
        wid = draw(st.integers(0, workers - 1))
        start = draw(st.integers(0, 500)) * 1e-5
        if kind == "crash":
            down = draw(st.one_of(st.none(), st.integers(1, 200)))
            specs.append(
                CrashSpec(
                    worker=wid,
                    at_s=start,
                    down_for_s=None if down is None else down * 1e-5,
                )
            )
        elif kind == "straggler":
            specs.append(
                StragglerSpec(
                    worker=wid,
                    start_s=start,
                    duration_s=draw(st.integers(1, 300)) * 1e-5,
                    factor=float(draw(st.integers(2, 8))),
                )
            )
        else:
            specs.append(
                TransientSpec(
                    prob=draw(st.integers(5, 40)) / 100.0,
                    worker=draw(st.one_of(st.none(), st.just(wid))),
                )
            )
    sc["faults"] = specs
    sc["requeue"] = draw(st.booleans())
    sc["max_retries"] = draw(st.integers(0, 3))
    return sc


def _build_policy(name: str):
    """Fresh policy per run — WeightedFair/token-bucket are stateful."""
    if name == "greedy-fifo":
        return GreedyFIFOPolicy()
    if name == "max-wait":
        return MaxWaitPolicy(max_wait_s=1e-4)
    if name == "edf":
        return EDFPolicy()
    return WeightedFairPolicy(weights={"tight": 3.0, "loose": 1.0})


def _build_admission(name: str):
    if name == "admit-all":
        return AdmitAll()
    if name == "queue-depth":
        return QueueDepthCap(max_depth=4)
    if name == "est-wait":
        return EstimatedWaitCap(slack=1.0, max_wait_s=1e-3)
    return TokenBucketAdmission(default_rate=20000.0, burst=4.0)


def _run(drive, sc, service=None, faults=None):
    """Run the scenario to empty on a fresh control plane.

    Scenario deadlines, admission caps and heartbeat probes are absolute
    times sized against the flat clock scale ``drive`` pins for the
    simulated executor; on a transport the same numbers are wall-clock
    and simply expire more work.
    """
    return drive(sc["executor"], sc["requests"], service=service, faults=faults, **_knobs(sc))


def _knobs(sc):
    """The scenario's :class:`~repro.cluster.simulator.ControlConfig` fields."""
    policy, drop = sc["policy"]
    return dict(
        workers=sc["workers"],
        max_batch_size=sc["max_batch"],
        pad_to_bucket=sc["pad"],
        policy=_build_policy(policy),
        drop_expired=drop,
        admission=_build_admission(sc["admission"]),
        # Probes at 50us against ~10us-1ms service times: detection is
        # fast enough to matter inside the tiny scenario horizons.
        recovery=RecoveryConfig(
            heartbeat_interval_s=5e-5,
            heartbeat_timeout_s=1e-4,
            requeue=sc.get("requeue", True),
            max_retries=sc.get("max_retries", 3),
        ),
    )


class _RecordingClock(CostModelClock):
    """Cost-model clock that also captures every dispatched batch."""

    def __init__(self):
        flat = CostModelClock.flat()
        super().__init__(flat.batch_overhead_s, flat.cold_compile_s)
        self.batches = []

    def service_s(self, worker, batch, cold):
        self.batches.append(batch)
        return super().service_s(worker, batch, cold)


class TestLaws:
    @given(scenario(EVERY_EXECUTOR))
    @settings(max_examples=40)
    def test_every_scenario_keeps_the_laws(self, drive, sc):
        """``drive`` checks the laws; every drawn request reached the door
        and a drained run leaves nothing queued."""
        sim, report = _run(drive, sc)
        assert report.submitted == len(sc["requests"]) and sim.pool.pending == 0

    @given(faulty_scenario(EVERY_EXECUTOR))
    @settings(max_examples=40, deadline=None)
    def test_the_laws_hold_under_any_fault_mix(self, drive, sc):
        """Crashes, stragglers and transient errors may *fail* requests,
        and nothing is left queued, in flight or orphaned."""
        sim, report = _run(drive, sc, faults=FaultInjector(sc["faults"], seed=13))
        assert report.submitted == len(sc["requests"]) and sim.pool.pending == 0

    @given(scenario(EVERY_EXECUTOR))
    @settings(max_examples=40)
    def test_drop_expired_keeps_the_shedding_law(self, drive, sc):
        """With shedding forced on, ``drive`` checks that nobody already
        doomed was served; best-effort requests are never shed."""
        sc = dict(sc)
        sc["policy"] = (sc["policy"][0], True)
        sim, _ = _run(drive, sc)
        assert all(d.deadline_s is not None for d in sim.metrics.drops if d.kind == "shed")


class TestBatchIntegrity:
    @given(scenario())
    @settings(max_examples=20)
    def test_batches_same_plan_and_bounded(self, drive, sc):
        clock = _RecordingClock()
        _run(drive, sc, service=clock)
        reference = BatchScheduler(
            max_batch_size=sc["max_batch"], pad_to_bucket=sc["pad"]
        )
        assert clock.batches  # something was dispatched
        for batch in clock.batches:
            assert 1 <= batch.size <= sc["max_batch"]
            # One group key per batch: the grouping invariant every
            # policy (and work stealing) must preserve.
            assert len({reference.group_key(r) for r in batch.requests}) == 1
            # And the executed plan's band structure matches every
            # member (padded batches run members' bands at bucket n).
            executed = batch.execution_pattern()
            _, bands, globals_, _ = pattern_structure_key(executed)
            for r in batch.requests:
                _, r_bands, r_globals, _ = pattern_structure_key(r.pattern)
                assert r_bands == bands and r_globals == globals_
                assert r.n <= executed.n


class TestEDFOrder:
    @given(scenario())
    @settings(max_examples=30)
    def test_static_queue_dispatch_urgency_non_decreasing(self, sc):
        """Draining a frozen queue, EDF batch urgency never decreases."""
        queue = BatchScheduler(max_batch_size=sc["max_batch"], pad_to_bucket=sc["pad"])
        for req in sc["requests"]:
            queue.enqueue(req)
        now = max(r.arrival_s for r in sc["requests"])
        policy = EDFPolicy()
        previous = None
        while True:
            decision = policy.next_batch(queue, now)
            if decision.batch is None:
                break
            head = min(_urgency(r, now) for r in decision.batch.requests)
            if previous is not None:
                assert head >= previous
            previous = head
        assert queue.pending == 0

    @given(scenario())
    @settings(max_examples=30)
    def test_members_chosen_most_urgent_first_within_queue(self, sc):
        """The batch EDF pops holds its group's most urgent members."""
        queue = BatchScheduler(max_batch_size=sc["max_batch"], pad_to_bucket=sc["pad"])
        for req in sc["requests"]:
            queue.enqueue(req)
        now = max(r.arrival_s for r in sc["requests"])
        snapshot = {key: list(members) for key, members in queue.group_items()}
        decision = EDFPolicy().next_batch(queue, now)
        batch = decision.batch
        taken = {r.request_id for r in batch.requests}
        group = snapshot[batch.key]
        ranked = sorted(group, key=lambda r: (_urgency(r, now), r.arrival_s))
        expected = {r.request_id for r in ranked[: len(taken)]}
        assert taken == expected


class TestDeterminism:
    @given(scenario())
    @settings(max_examples=10)
    def test_same_scenario_byte_identical_report(self, drive, sc):
        _, first = _run(drive, sc)
        _, second = _run(drive, sc)
        assert first.render() == second.render()
        assert first.to_dict() == second.to_dict()


class TestFaultDeterminism:
    @given(faulty_scenario())
    @settings(max_examples=10, deadline=None)
    def test_same_faulty_scenario_byte_identical_report(self, drive, sc):
        _, first = _run(drive, sc, faults=FaultInjector(sc["faults"], seed=13))
        _, second = _run(drive, sc, faults=FaultInjector(sc["faults"], seed=13))
        assert first.render() == second.render()


class TestEmptyInjectorIdentity:
    @given(scenario())
    @settings(max_examples=10)
    def test_armed_but_empty_injector_is_byte_identical(self, drive, sc):
        """A FaultInjector with no specs schedules nothing, draws
        nothing, multiplies nothing: the run is indistinguishable from
        one with no injector at all."""
        _, without = _run(drive, sc, faults=None)
        _, empty = _run(drive, sc, faults=FaultInjector([], seed=99))
        assert without.render() == empty.render()
        assert without.to_dict() == empty.to_dict()


def _sheds(sc):
    """Run ``sc`` with ``drop_expired`` on the simulator; one ``(queued, t,
    absolute deadline)`` per shed, ``queued`` when the request sat in a
    worker's queue (not in a launch, a backoff or a recovery) until then."""
    sc = dict(sc, policy=(sc["policy"][0], True))
    plane = ClusterSimulator(
        SimConfig(
            service=CostModelClock.flat(),
            salo_factory=lambda: SALO(HardwareConfig(pe_rows=4, pe_cols=4)),
            faults=FaultInjector(sc["faults"], seed=13),
            **_knobs(sc),
        )
    )
    events = []
    plane.listen(events.append)
    plane.run(OpenLoopSource(sc["requests"]))
    deadline = {r.request_id: r.absolute_deadline_s for r in sc["requests"]}
    queued, sheds = set(), []  # ids sitting in some worker's queue
    for event in events:
        if event.kind in (ARRIVE, REQUEUE):
            queued.add(event.request)
        elif event.kind == STEAL:
            queued.update(r.request_id for r in event.payload[1])
        elif event.kind == LAUNCH:
            queued.difference_update(r.request_id for r in event.payload.requests)
        elif event.kind == SHED:
            sheds.append((event.request in queued, event.t, deadline[event.request]))
        if event.kind in TERMINAL:
            queued.discard(event.request)
    return sheds


class TestShedInstant:
    """With ``drop_expired``, a request shed while queued is shed at exactly
    its absolute deadline (an expiry sweep or a consultation at that
    instant), under any fault mix; one shed where a retry or a recovery
    places it again is shed at or after its deadline."""

    @given(faulty_scenario())
    @settings(max_examples=40, deadline=None)
    def test_a_queued_request_is_shed_at_its_deadline(self, sc):
        for queued, t, due in _sheds(sc):
            assert t == due if queued else t >= due, (queued, t, due)

    def test_a_retry_placed_past_its_deadline_is_shed_there(self):
        """A burst whose one launch fails after its 0.2 ms budgets ran out:
        each retry reaches ``_place`` late and is shed there, not at its
        deadline."""
        pattern = _PATTERNS[0]
        requests = [
            AttentionRequest(
                request_id=i,
                pattern=pattern,
                q=_DATA[pattern.n],
                k=_DATA[pattern.n],
                v=_DATA[pattern.n],
                heads=2,
                arrival_s=0.0,
                deadline_s=2e-4,
                slo_class="tight",
            )
            for i in range(3)
        ]
        sc = {
            "requests": requests,
            "workers": 1,
            "max_batch": 4,
            "pad": False,
            "policy": ("greedy-fifo", True),
            "admission": "admit-all",
            "faults": [TransientSpec(prob=0.9, worker=0)],
        }
        sheds = _sheds(sc)
        assert len(sheds) == 3 and all(not queued and t > due for queued, t, due in sheds)
