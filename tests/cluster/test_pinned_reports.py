"""``simulate()`` reports pinned by hash.

A change to the queues, the policies or the control plane that means to
keep behaviour reproduces every number of every report here; one that
means to move them re-pins.  The three ``cluster_sim`` benchmark
scenarios (seed 0, at 600 requests), one overloaded row per batch
policy, and one crash + rejoin row.
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


# name -> (build () -> (source, config), sha256 of the report's ``to_dict()``)
_PINNED = {
    "cluster_sim-steady": (
        _steady,
        "55567cd12c361a10de90efc92336f283dfb83e6ee3391571ba226d71c64f20c0",
    ),
    "cluster_sim-overload": (
        _overload,
        "945013db634dc1cdad17feb88d9ff0a7f5fa7b01865bccb15f0160ac6e411a05",
    ),
    "cluster_sim-faults": (
        _faults,
        "705d8ca4d7373aca061dc297c6c15095ade535741bff16e672e460a2e93df674",
    ),
    "greedy-fifo": (
        _policy_row(GreedyFIFOPolicy),
        "fad26d1e1c687761bae0ad1bb62aaa21d1aef4d39c74a371cb0f15fb6897f573",
    ),
    "greedy-fifo+shed": (
        _policy_row(lambda: GreedyFIFOPolicy(drop_expired=True)),
        "ab5d514dcb288aad56bce04b56ab218b90034901c26f88086af10509e9caea37",
    ),
    "max-wait": (
        _policy_row(lambda: MaxWaitPolicy(max_wait_s=4 * _scales()[1])),
        "fa7724d1f469a849b3106d83738ab548c64f1b135a3224e33ae8ceb847883e8a",
    ),
    "size-latency": (
        _policy_row(lambda: SizeLatencyPolicy(4, max_wait_s=4 * _scales()[1])),
        "c57e60939ccf1fc4d307ca272379251ad3e1c42111302cad9a5fd5f69749ba63",
    ),
    "edf": (
        _policy_row(EDFPolicy),
        "0c849ad52691c41b90c77829ad5b846d0fd3f629976b8f0d716219a4a0f28d5e",
    ),
    "edf+shed": (
        _policy_row(lambda: EDFPolicy(drop_expired=True)),
        "49dc63fd991bd27a20e204b55dae48a9c79ee20396ddba2d51126189cc5209a8",
    ),
    "weighted-fair": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR)),
        "4a066876ff00600d592704f3c8a5e03ce3028bf4eb2bba74bb92220840b71c40",
    ),
    "weighted-fair-length": (
        _policy_row(lambda: WeightedFairPolicy(weights=_FAIR, length_weighted=True)),
        "cc6d2c5ccdb3acfbd4262b9f18747fbec104d6cb7f4879f832d8433a7a9b4f2b",
    ),
    "crash+rejoin": (
        _crash_rejoin,
        "2ceef28dc58fabe4e43e1a6074e890280f5196f55e8b21c7e0184a54d5f3dbbd",
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
