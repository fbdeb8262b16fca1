"""``simulate()`` reports pinned by hash.

A change to the queues, the policies or the control plane that means to
keep behaviour reproduces every number of every report here; one that
means to move them re-pins.  The three ``cluster_sim`` benchmark
scenarios (seed 0, at 600 requests), one overloaded row per batch
policy, and one crash + rejoin row — whose event stream is pinned too,
per kind.  Below them, work the plane does is counted, not timed: expiry
timers handled and structure keys derived.
"""

import functools
import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.cluster import (
    ClusterSimulator,
    CostModelClock,
    CrashSpec,
    EDFPolicy,
    FaultInjector,
    GreedyFIFOPolicy,
    MaxWaitPolicy,
    PoissonProcess,
    RecoveryConfig,
    SimConfig,
    SizeLatencyPolicy,
    TransientSpec,
    WeightedFairPolicy,
    WorkloadSpec,
    open_loop,
    service_scales,
    simulate,
)
from repro.cluster.events import check
from repro.cluster.simulator import ControlPlane
from repro.experiments import faults, overload
from repro.patterns.hybrid import HybridSparsePattern

_REQUESTS = 600
_CLOCK = CostModelClock.flat()
_FAIR = {"interactive": 3.0, "bulk": 1.0}


@functools.lru_cache(maxsize=None)
def _scales():
    """(amortised unit, dispatch unit) of the benchmark's workload."""
    return service_scales(WorkloadSpec(n=256, window=32, heads=2, head_dim=8), _CLOCK)


def _source(spec, rho, workers):
    unit_s, _ = _scales()
    return open_loop(spec, PoissonProcess(rate_rps=rho * workers / unit_s))


def _steady(requests=_REQUESTS):
    spec = faults.faults_spec(requests, _scales()[1], seed=0)
    return _source(spec, 0.9, 4), SimConfig(workers=4, policy=EDFPolicy(), service=_CLOCK)


def _overload(requests=_REQUESTS):
    spec = overload.overload_spec(requests, _scales()[1], seed=1)
    return _source(spec, 1.5, 2), overload.mode_config("admit+shed", 2, _CLOCK)


def _faults(requests=_REQUESTS):
    unit_s, dispatch_s = _scales()
    spec = faults.faults_spec(requests, dispatch_s, seed=2)
    horizon_s = requests / (0.8 * 2 / unit_s)
    config = faults.mode_config(
        "retry+steal", 2, _CLOCK,
        crash_at_s=faults.CRASH_AT_FRAC * horizon_s,
        down_for_s=faults.DOWN_FOR_UNITS * unit_s,
        unit_s=unit_s,
    )
    return _source(spec, 0.8, 2), config


def _policy_row(policy, drop_expired=False):
    """Two stealing workers at rho 1.2 on the mixed-length overload mix."""
    def build():
        spec = overload.overload_spec(_REQUESTS, _scales()[1], seed=5)
        config = SimConfig(
            workers=2, policy=policy(), drop_expired=drop_expired, service=_CLOCK
        )
        return _source(spec, 1.2, 2), config
    return build


def _crash_rejoin():
    """Worker 1 dies, is detected, and rejoins cold; worker 0 flakes."""
    unit_s, dispatch_s = _scales()
    spec = overload.overload_spec(_REQUESTS, dispatch_s, seed=7)
    horizon_s = _REQUESTS / (0.9 * 3 / unit_s)
    injector = FaultInjector(
        [
            CrashSpec(worker=1, at_s=0.3 * horizon_s, down_for_s=40 * unit_s),
            TransientSpec(prob=0.05, worker=0),
        ],
        seed=3,
    )
    config = SimConfig(
        workers=3,
        policy=GreedyFIFOPolicy(),
        drop_expired=True,
        service=_CLOCK,
        faults=injector,
        recovery=RecoveryConfig(
            heartbeat_interval_s=2 * unit_s, heartbeat_timeout_s=4 * unit_s
        ),
    )
    return _source(spec, 0.9, 3), config


# name -> (build () -> (source, config), sha256 of the report's ``to_dict()``)
_PINNED = {
    "cluster_sim-steady": (
        _steady,
        "6e40fec933ac33473c4c6b73d494db1aa07dd09ed03b4e26fb907e9f6e45d6d9",
    ),
    "cluster_sim-overload": (
        _overload,
        "9fcbb749bbbbc55a114a006805d7a7687eb880e6b23bbc00d4b77353a70adb05",
    ),
    "cluster_sim-faults": (
        _faults,
        "eb26637f3eaf9bd2a9aaa642b42f59b2ed5619336a1c809378139262cd25f6b4",
    ),
    "greedy-fifo": (
        _policy_row(GreedyFIFOPolicy),
        "7af915b6da7a28c26e233fbc90688ea56f95f5a66eb8cd24fad8fab1f2e80a9d",
    ),
    "greedy-fifo+shed": (
        _policy_row(GreedyFIFOPolicy, drop_expired=True),
        "868af927c00b85b4180826763f84e84d81737cc0543b081cb1b37849e3a48aeb",
    ),
    "max-wait": (
        _policy_row(lambda: MaxWaitPolicy(max_wait_s=4 * _scales()[1])),
        "7aaf9f0d8be3c503c1dd4eb4678d26e919d3835492eefa2f47764fd6f14d09dc",
    ),
    "size-latency": (
        _policy_row(lambda: SizeLatencyPolicy(4, max_wait_s=4 * _scales()[1])),
        "4e0080561fa9d49a389f721c41868577c76d01222ad40a3cb63d5ee872097305",
    ),
    "edf": (
        _policy_row(EDFPolicy),
        "c4ec2cfd3d4b4c0923e4027fd1088604019cf98fb4d4e6e3c0c39b34398ebc1e",
    ),
    "edf+shed": (
        _policy_row(EDFPolicy, drop_expired=True),
        "323efa5f076df7b1e45672aea281d32914a0bb203fb221469e6dadb9baf9160f",
    ),
    "weighted-fair": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR)),
        "2d35b81e3b6c8fe0ebf1b3d440dac55de132087d200840f24b5088afdabf728f",
    ),
    "weighted-fair-length": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR, length_weighted=True)),
        "dfa468ea347fe29b94c192c05e5840f308e05ee1f4c4ef3e2e00c9d16f749d7a",
    ),
    "crash+rejoin": (
        _crash_rejoin,
        "d7dd56bd089dbea4dafb685b6eabe3e8ad447447f13f623d32fc80bd1ea10d24",
    ),
}


def _digest(report):
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_report_is_byte_identical(name):
    build, want = _PINNED[name]
    source, config = build()
    report = simulate(source, config)
    assert report.submitted == report.completed + report.rejected + report.shed + report.failed
    assert _digest(report) == want


def test_the_crash_rejoin_stream_is_pinned_per_kind():
    """It retries, requeues and steals; the collector folded every event,
    and the stream keeps the plane's laws."""
    source, config = _crash_rejoin()
    sim, events = ClusterSimulator(config), []
    sim.listen(events.append)
    sim.run(source)
    kinds = Counter(event.kind for event in events)
    assert kinds == {
        "arrive": 600, "launch": 62, "launch-complete": 62, "done": 420, "shed": 180,
        "retry": 8, "requeue": 62, "steal": 4,
    }
    assert Counter(sim.metrics.counts) == kinds and not check(events, drop_expired=True)


# ----------------------------------------------------------------------
# Work the plane does per run, counted (no timing)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build,at_most", [(_overload, 105), (_faults, 9)], ids=["overload", "faults"]
)
def test_one_expiry_timer_per_plane(monkeypatch, build, at_most):
    """The ``cluster_sim`` scenarios at their 3000 requests handle at most
    this many ``_EXPIRE`` events, superseded timers included: one timer
    armed at the earliest queued deadline, where a timer per admitted
    request handled 2166 and 3000."""
    handled = []
    original = ControlPlane._on_expire

    def counting(self, at, now):
        handled.append(at)
        return original(self, at, now)

    monkeypatch.setattr(ControlPlane, "_on_expire", counting)
    simulate(*build(3000))
    assert len(handled) <= at_most


def test_one_structure_key_per_pattern_object(monkeypatch):
    """3000 requests share a handful of pattern objects, and each derives
    its structure key (its one ``bands()`` call for a key) once."""
    source, config = _steady(3000)
    patterns = {id(r.pattern): r.pattern for r in source.requests}
    for pattern in patterns.values():
        vars(pattern).pop("_structure_key", None)  # derive afresh in this run
    derived = []
    bands = HybridSparsePattern.bands

    def counting(self):
        if sys._getframe(1).f_code.co_name == "structure_key":
            derived.append(id(self))
        return bands(self)

    monkeypatch.setattr(HybridSparsePattern, "bands", counting)
    simulate(source, config)
    assert len(source.requests) == 3000 and len(derived) == len(patterns) == len(set(derived))
