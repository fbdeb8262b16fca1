"""``simulate()`` reports pinned by hash.

A change to the queues, the policies or the control plane that means to
keep behaviour reproduces every number of every report here, event time
series included; one that means to move them re-pins.  The three
``cluster_sim`` benchmark scenarios (seed 0, at 600 requests), one
overloaded row per batch policy, and one crash + rejoin row.
"""

import functools
import hashlib
import json

import pytest

from repro.cluster import (
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
from repro.experiments import faults, overload

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


def _steady():
    spec = faults.faults_spec(_REQUESTS, _scales()[1], seed=0)
    return _source(spec, 0.9, 4), SimConfig(workers=4, policy=EDFPolicy(), service=_CLOCK)


def _overload():
    spec = overload.overload_spec(_REQUESTS, _scales()[1], seed=1)
    return _source(spec, 1.5, 2), overload.mode_config("admit+shed", 2, _CLOCK)


def _faults():
    unit_s, dispatch_s = _scales()
    spec = faults.faults_spec(_REQUESTS, dispatch_s, seed=2)
    horizon_s = _REQUESTS / (0.8 * 2 / unit_s)
    config = faults.mode_config(
        "retry+steal", 2, _CLOCK,
        crash_at_s=faults.CRASH_AT_FRAC * horizon_s,
        down_for_s=faults.DOWN_FOR_UNITS * unit_s,
        unit_s=unit_s,
    )
    return _source(spec, 0.8, 2), config


def _policy_row(policy):
    """Two stealing workers at rho 1.2 on the mixed-length overload mix."""
    def build():
        spec = overload.overload_spec(_REQUESTS, _scales()[1], seed=5)
        return _source(spec, 1.2, 2), SimConfig(workers=2, policy=policy(), service=_CLOCK)
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
        policy=GreedyFIFOPolicy(drop_expired=True),
        service=_CLOCK,
        faults=injector,
        recovery=RecoveryConfig(
            heartbeat_interval_s=2 * unit_s, heartbeat_timeout_s=4 * unit_s
        ),
    )
    return _source(spec, 0.9, 3), config


# name -> (build () -> (source, config), sha256 of the report with its series)
_PINNED = {
    "cluster_sim-steady": (
        _steady,
        "a4427ec7e98b2f2637106500a817290ea496cd9f3aca2ced70b4a2fb1c26e76d",
    ),
    "cluster_sim-overload": (
        _overload,
        "bbc005c1db9a3b1b77803a7cc02f4997de26a1e96d82212ee0892ee181862b9a",
    ),
    "cluster_sim-faults": (
        _faults,
        "222d62c49cef4c0828c71ccdf683462b44c96c230f43e20d51a834da56eb31fa",
    ),
    "greedy-fifo": (
        _policy_row(GreedyFIFOPolicy),
        "00337aec8ed9a78bc7555c81a9141e945671a15358342335ae8fdf82f3f5515b",
    ),
    "greedy-fifo+shed": (
        _policy_row(lambda: GreedyFIFOPolicy(drop_expired=True)),
        "0dc1e0de7ed70a74e54bb047d0626eac2e6541ddba92b1508bdec1c2636aa381",
    ),
    "max-wait": (
        _policy_row(lambda: MaxWaitPolicy(max_wait_s=4 * _scales()[1])),
        "bc1c2ca664ae57364c5d19ff573a489f5c1c0ebf9aa9d579f88ec89c2894667a",
    ),
    "size-latency": (
        _policy_row(lambda: SizeLatencyPolicy(4, max_wait_s=4 * _scales()[1])),
        "701c7e139b9ec559b45c87018916f61b77d7409eb24f9cd2b0b340c85e3dbb31",
    ),
    "edf": (
        _policy_row(EDFPolicy),
        "de814633adcd5cb3d7ecea68c8be39f9bef3b2a11d74a22cc118ad6b92982eff",
    ),
    "edf+shed": (
        _policy_row(lambda: EDFPolicy(drop_expired=True)),
        "b24d38df7057226d597c2d105abe19b929b476c3eedd5cbad71f6560f647580c",
    ),
    "weighted-fair": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR)),
        "51cd500772183b2dc2cc92e6db91329634a5077198cd5241075ee3e376b0d10c",
    ),
    "weighted-fair-length": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR, length_weighted=True)),
        "41f955352d5ea121b5423f80c22c1fed3cc7cafb632b967599f92c6d7a3eb668",
    ),
    "crash+rejoin": (
        _crash_rejoin,
        "c2929bf90a2b8c3585f6456ea801491a41849bb9b40cdf03265a88164b0b7510",
    ),
}


def _digest(report):
    text = json.dumps(report.to_dict(include_series=True), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_report_is_byte_identical(name):
    build, want = _PINNED[name]
    source, config = build()
    report = simulate(source, config)
    assert report.submitted == report.completed + report.rejected + report.shed + report.failed
    assert _digest(report) == want
