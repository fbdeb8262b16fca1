"""Property-based invariants of the decode subsystem (hypothesis).

* **Token conservation** — across any drawn decode-cluster scenario
  (arrival mix, lane widths, admission policy, transient faults, a
  straggler window), the run's events keep the plane's laws
  (:func:`repro.cluster.events.check`: the four-way sequence law, one
  terminal outcome per sequence, a completed sequence served exactly its
  target tokens and any other fewer, no step for a shed or failed lane);
  the workers' token counts add up to the completed tokens; a drained
  run leaves nothing per sequence on the control plane's books.
* **Continuous-batching determinism** — joining and retiring mid-batch
  is unobservable: for banded patterns every sequence's outputs are
  bit-identical to decoding it alone, for *any* lane width and any
  interleaving the scheduler produces.  Global-token patterns are
  excluded from the solo-identity property by design: their global rows
  depend on the padded bucket length through the engine's documented
  partial-softmax regrouping, and the bucket trajectory of a batch
  (driven by the longest lane) need not match the solo trajectory.
  They are instead covered by the rerun-determinism property, which
  pins that the batched numbers themselves are reproducible.
* **Conservation through the real front** — with poisoned token
  sources over two structures, the laws hold on
  :class:`DecodeScheduler`'s events and every submitted sequence ends in
  ``completed`` or ``failed``.

Scenarios are tiny (4x4 PE array, prompts <= 12, budgets <= 6) — the
laws are about bookkeeping and bit-stability, not scale.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AdmitAll,
    ContinuousBatching,
    DecodeClusterSimulator,
    DecodeSimConfig,
    DecodeSLOClass,
    DecodeWorkloadSpec,
    FaultInjector,
    RecoveryConfig,
    StragglerSpec,
    TransientSpec,
    make_admission,
)
from repro.cluster.events import check
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import DecodeRequest, DecodeScheduler, DecodeSession, default_next_token
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern

HEADS = 2
HIDDEN = 8

# Banded structure families (solo-identity holds bit-for-bit; see module
# docstring for why global-token families are excluded here).
_BANDED = (
    SlidingWindowPattern.causal(16, 6),
    SlidingWindowPattern.causal(16, 3),
    HybridSparsePattern(16, [Band(-8, 0, 2)], ()),
    HybridSparsePattern(16, [Band(-3, 0), Band(-12, -8)], ()),
)

_SLO_MENUS = (
    # (TTFT budget, ITL budget) per class — None means best-effort
    (DecodeSLOClass("only", deadline_s=None, share=1.0),),
    (
        DecodeSLOClass("interactive", deadline_s=5e-3, share=0.6, itl_deadline_s=2e-3),
        DecodeSLOClass("bulk", deadline_s=5e-2, share=0.4),
    ),
    (DecodeSLOClass("tight", deadline_s=3e-4, share=1.0, itl_deadline_s=1e-3),),
)


def _salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4))


@st.composite
def cluster_scenario(draw):
    spec = DecodeWorkloadSpec(
        sequences=draw(st.integers(4, 20)),
        rate_rps=float(draw(st.integers(500, 8000))),
        prompt_min=draw(st.integers(1, 4)),
        prompt_max=draw(st.integers(8, 40)),
        mean_new_tokens=float(draw(st.integers(2, 16))),
        max_new_tokens=draw(st.integers(16, 40)),
        global_tokens=draw(st.sampled_from(((), (0,)))),
        slo_classes=draw(st.sampled_from(_SLO_MENUS)),
        seed=draw(st.integers(0, 1000)),
    )
    admission = draw(
        st.sampled_from([None, ("queue-depth", {"max_depth": 6}),
                         ("est-wait", {"slack": 1.0})])
    )
    fault_specs = []
    if draw(st.booleans()):
        fault_specs.append(TransientSpec(
            prob=draw(st.integers(10, 70)) / 100.0,
            worker=draw(st.one_of(st.none(), st.just(0))),
        ))
    if draw(st.booleans()):
        fault_specs.append(StragglerSpec(
            worker=0,
            start_s=draw(st.integers(0, 20)) * 1e-3,
            duration_s=draw(st.integers(1, 40)) * 1e-3,
            factor=float(draw(st.integers(2, 6))),
        ))
    faults = FaultInjector(fault_specs, seed=draw(st.integers(0, 100))) if fault_specs else None
    config = DecodeSimConfig(
        workers=draw(st.integers(1, 3)),
        max_batch_size=draw(st.integers(1, 8)),
        admission=make_admission(admission[0], **admission[1]) if admission else AdmitAll(),
        policy=ContinuousBatching(4.0 if draw(st.booleans()) else None),
        recovery=RecoveryConfig(max_retries=draw(st.integers(0, 3))),
        faults=faults,
    )
    return spec, config


class TestTokenConservation:
    @given(cluster_scenario())
    @settings(max_examples=30, deadline=None)
    def test_every_admitted_token_has_exactly_one_fate(self, scenario):
        spec, config = scenario
        sim, events = DecodeClusterSimulator(config), []
        sim.listen(events.append)
        report = sim.run(spec)
        assert not check(events) and report.submitted == spec.sequences
        # the workers' own token counts are the completed tokens
        assert sum(w["tokens"] for w in report.workers) == report.tokens_completed
        # nothing per sequence outlives the run on the control plane
        assert not sim._attempts and not sim._routed
        # a fully admitted run admits every target token
        if report.rejected == 0:
            assert report.tokens_target_admitted == sum(s.target_tokens for s in spec.draw())

    @given(cluster_scenario())
    @settings(max_examples=10, deadline=None)
    def test_rerun_is_byte_identical(self, scenario):
        spec, config = scenario

        def run():
            cfg = DecodeSimConfig(
                workers=config.workers,
                max_batch_size=config.max_batch_size,
                policy=ContinuousBatching(config.policy.itl_shed_factor),
                recovery=config.recovery,
            )
            return DecodeClusterSimulator(cfg).run(spec)

        assert run().render() == run().render()


@st.composite
def batch_scenario(draw):
    num = draw(st.integers(2, 4))
    requests = []
    for i in range(num):
        pattern = _BANDED[draw(st.integers(0, len(_BANDED) - 1))]
        prompt_len = draw(st.integers(2, 12))
        rng = np.random.default_rng((draw(st.integers(0, 50)), i))
        requests.append(
            DecodeRequest(
                request_id=f"seq-{i}",
                pattern=pattern,
                prompt_q=rng.standard_normal((prompt_len, HIDDEN)),
                prompt_k=rng.standard_normal((prompt_len, HIDDEN)),
                prompt_v=rng.standard_normal((prompt_len, HIDDEN)),
                max_new_tokens=draw(st.integers(1, 6)),
                heads=HEADS,
                seed=draw(st.integers(0, 50)),
            )
        )
    # staggered submission: some sequences only enter after a few steps
    joins = sorted(draw(st.lists(st.integers(0, 4), min_size=num, max_size=num)))
    max_lanes = draw(st.integers(1, 3))
    return requests, joins, max_lanes


def _poisoned(at):
    """Token feedback whose ``at``-th call hands back a non-finite row."""
    calls = []

    def source(out_row, rng):
        calls.append(1)
        q, k, v = default_next_token(out_row, rng)
        if len(calls) == at:
            v[0] = np.inf
        return q, k, v

    return source


@st.composite
def poisoned_scenario(draw):
    """Two band structures, some token sources poisoned.  Feed ``j`` of a
    lane calls its source only while ``j < budget``, so a source poisoned
    at call ``p < budget`` fails its lane with ``p - 1`` rows produced."""
    num = draw(st.integers(2, 6))
    requests, rows = [], {}
    for i in range(num):
        budget = draw(st.integers(1, 5))
        poison = draw(st.one_of(st.none(), st.integers(1, 5)))
        rng = np.random.default_rng((draw(st.integers(0, 50)), i))
        prompt = draw(st.integers(2, 12))
        requests.append(
            DecodeRequest(
                request_id=f"seq-{i}",
                pattern=_BANDED[draw(st.sampled_from((0, 2)))],
                prompt_q=rng.standard_normal((prompt, HIDDEN)),
                prompt_k=rng.standard_normal((prompt, HIDDEN)),
                prompt_v=rng.standard_normal((prompt, HIDDEN)),
                max_new_tokens=budget,
                heads=HEADS,
                seed=i,
                next_token=None if poison is None else _poisoned(poison),
            )
        )
        rows[f"seq-{i}"] = poison - 1 if poison is not None and poison < budget else budget
    joins = sorted(draw(st.lists(st.integers(0, 4), min_size=num, max_size=num)))
    return requests, rows, joins, draw(st.integers(1, 4))


def _solo(request):
    session = DecodeSession(request.pattern, salo=_salo(), heads=HEADS)
    out = session.prefill(request.prompt_q, request.prompt_k, request.prompt_v)
    rng = request.rng()
    rows = [out[-1]]
    cur = out[-1]
    for _ in range(request.max_new_tokens - 1):
        cur = session.step(*default_next_token(cur, rng))
        rows.append(cur)
    return np.stack(rows)


class TestJoinRetireDeterminism:
    @given(batch_scenario())
    @settings(max_examples=10, deadline=None)
    def test_mid_batch_joins_and_retires_are_unobservable(self, scenario):
        """Any interleaving of joins (staggered submission) and
        retirements (uneven budgets) over any lane width produces
        outputs bit-identical to each sequence decoded alone."""
        requests, joins, max_lanes = scenario
        sched = DecodeScheduler(salo=_salo(), max_lanes=max_lanes)
        pending = list(zip(joins, requests))
        step = 0
        while pending or sched.queued or sched.active:
            while pending and pending[0][0] <= step:
                sched.submit(pending.pop(0)[1])
            if sched.queued or sched.active:
                sched.step()
            step += 1
        assert set(sched.completed) == {r.request_id for r in requests}
        for r in requests:
            assert np.array_equal(sched.completed[r.request_id], _solo(r))

    @given(poisoned_scenario())
    @settings(max_examples=15, deadline=None)
    def test_every_submitted_sequence_has_exactly_one_fate(self, scenario):
        """Through the real front, with poisoned token sources over two
        band structures: the laws hold, every id ends in ``completed`` or
        ``failed`` and nothing is left routed; ``tokens`` is the number of
        output rows produced; lanes that never met their poison equal
        their solo outputs."""
        requests, rows, joins, max_lanes = scenario
        sched, events = DecodeScheduler(salo=_salo(), max_lanes=max_lanes), []
        sched.listen(events.append)
        pending = list(zip(joins, requests))
        step = 0
        while pending or sched.queued or sched.active:
            while pending and pending[0][0] <= step:
                sched.submit(pending.pop(0)[1])
            sched.step()
            step += 1
        assert not check(events) and not sched._routed
        assert set(sched.completed) | set(sched.failed) == {r.request_id for r in requests}
        produced = sum(len(out) for out in sched.completed.values())
        produced += sum(rows[rid] for rid in sched.failed)
        assert sched.tokens == produced == sum(rows.values())
        for r in requests:
            if r.request_id in sched.completed:
                assert np.array_equal(sched.completed[r.request_id], _solo(r))

    @given(batch_scenario())
    @settings(max_examples=8, deadline=None)
    def test_lane_width_is_unobservable(self, scenario):
        requests, _, _ = scenario
        def run(width):
            sched = DecodeScheduler(salo=_salo(), max_lanes=width)
            for r in requests:
                sched.submit(r)
            return sched.run().outputs
        a, b = run(1), run(len(requests))
        for rid in a:
            assert np.array_equal(a[rid], b[rid])
