"""Shared fixtures + hypothesis profiles for the SALO reproduction suite.

Hypothesis profiles: CI runs the ``ci`` profile — ``derandomize=True``
pins the example stream (the property-test equivalent of a fixed
``--hypothesis-seed``), so `make check` cannot flake on a fresh draw.
Exporting ``REPRO_HYPOTHESIS_THOROUGH=1`` opts into the ``thorough``
profile instead: randomized example streams and a larger
``max_examples`` (override the count with ``REPRO_HYPOTHESIS_EXAMPLES``)
for local invariant hunting.  Tests that pin their own ``max_examples``
keep it; the profile fills in the unspecified settings.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import HardwareConfig, NumericsConfig

settings.register_profile("ci", deadline=None, derandomize=True)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "300")),
)
settings.load_profile(
    "thorough" if os.environ.get("REPRO_HYPOTHESIS_THOROUGH") else "ci"
)

#: Suites that execute the engine, directly or through a facade, or build
#: what it runs (patterns, plans).  A masked merge computes Eq. 2 on
#: cells it then discards; a ``recip(0)`` or ``inf * 0`` there would be
#: silent, so in these suites a RuntimeWarning is an error.  The cluster,
#: advisor and transport suites join them: their reports are ratios and
#: percentiles, where a ``0 / 0`` would be just as silent.  ``nn`` and
#: ``quant`` run the engine as the quantised attention forward.
_STRICT_WARNING_SUITES = tuple(
    str(Path(__file__).parent / suite)
    for suite in (
        "accelerator",
        "serving",
        "decode",
        "api",
        "core",
        "patterns",
        "scheduler",
        "cluster",
        "advisor",
        "transport",
        "nn",
        "quant",
        "test_properties.py",
    )
)


def pytest_collection_modifyitems(items):
    strict = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if str(item.path).startswith(_STRICT_WARNING_SUITES):
            item.add_marker(strict)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20220710)  # DAC'22 conference date


@pytest.fixture
def tiny_config() -> HardwareConfig:
    """4x4 PE array with an exact float datapath (isolates scheduling)."""
    return HardwareConfig(pe_rows=4, pe_cols=4).exact()


@pytest.fixture
def tiny_quant_config() -> HardwareConfig:
    """4x4 PE array with the paper's fixed-point datapath."""
    return HardwareConfig(pe_rows=4, pe_cols=4)


@pytest.fixture
def small_config() -> HardwareConfig:
    """8x8 PE array, exact datapath."""
    return HardwareConfig(pe_rows=8, pe_cols=8).exact()


def _drive(executor, requests, *, faults=None, service=None, tick=None, transports=None, **knobs):
    """Serve ``requests`` to completion on one executor of the control
    plane; returns ``(plane, report)``.

    ``"simulated"`` is :class:`~repro.cluster.ClusterSimulator` on 4x4
    engines (virtual time; requests keep their ``arrival_s``);
    ``"inprocess"`` / ``"multiprocess"`` are
    :class:`~repro.transport.TransportCluster` drivers (wall clock; the
    list is one burst arriving now).  ``knobs`` are
    :class:`~repro.cluster.simulator.ControlConfig` fields, plus the
    transport-only ones on transports.  ``faults`` is a
    :class:`~repro.cluster.FaultInjector`: the simulator interprets it;
    real workers have no injector, so there its crash specs become real
    ``kill_worker`` calls at the same offsets into the run, and the spec
    kinds only a model can impose are skipped.  The simulated clock
    defaults to the flat one so re-measuring the default clock's
    constants cannot move scenario timings.
    """
    from repro.cluster import (
        ClusterSimulator,
        CostModelClock,
        CrashSpec,
        OpenLoopSource,
        SimConfig,
    )
    from repro.core.salo import SALO
    from repro.transport import TransportCluster, TransportClusterConfig

    if executor == "simulated":
        plane = ClusterSimulator(
            SimConfig(
                service=service if service is not None else CostModelClock.flat(),
                salo_factory=lambda: SALO(HardwareConfig(pe_rows=4, pe_cols=4)),
                faults=faults,
                **knobs,
            )
        )
        return plane, plane.run(OpenLoopSource(requests))
    crashes = sorted(
        (s.at_s, s.worker)
        for s in (faults.specs if faults is not None else ())
        if isinstance(s, CrashSpec)
    )
    started = {}

    def chaos(cluster, now):
        t0 = started.setdefault("s", now)
        while crashes and now - t0 >= crashes[0][0]:
            cluster.kill_worker(crashes.pop(0)[1])
        if tick is not None:
            tick(cluster, now)

    config = TransportClusterConfig(driver=executor, **knobs)
    with TransportCluster(config, transports=transports) as plane:
        return plane, plane.run(requests, tick=chaos)


@pytest.fixture(scope="session")
def drive():
    """The one way the cluster suites run a scenario (see ``_drive``)."""
    return _drive
