"""Continuous batching semantics: joins and retirements mid-flight,
structure grouping, and solo-vs-batched bit identity."""

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import (
    DecodeRequest,
    DecodeScheduler,
    DecodeSession,
    default_next_token,
)
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern

HEADS = 2
HIDDEN = 8


def _salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4))


def _request(i, prompt_len, new_tokens, pattern=None, seed=7):
    rng = np.random.default_rng((seed, i))
    return DecodeRequest(
        request_id=f"seq-{i}",
        pattern=pattern if pattern is not None else SlidingWindowPattern.causal(16, 6),
        prompt_q=rng.standard_normal((prompt_len, HIDDEN)),
        prompt_k=rng.standard_normal((prompt_len, HIDDEN)),
        prompt_v=rng.standard_normal((prompt_len, HIDDEN)),
        max_new_tokens=new_tokens,
        heads=HEADS,
        seed=seed,
    )


def _solo_outputs(request):
    """The same sequence decoded alone in a DecodeSession."""
    session = DecodeSession(request.pattern, salo=_salo(), heads=HEADS)
    out = session.prefill(request.prompt_q, request.prompt_k, request.prompt_v)
    rng = request.rng()
    rows = [out[-1]]
    cur = out[-1]
    for _ in range(request.max_new_tokens - 1):
        source = request.next_token or default_next_token
        cur = session.step(*source(cur, rng))
        rows.append(cur)
    return np.stack(rows)


class TestContinuousBatching:
    def test_join_and_retire_mid_flight(self):
        """Lanes churn without draining: a retirement frees a lane that
        the next step's admission fills."""
        sched = DecodeScheduler(salo=_salo(), max_lanes=2)
        for i in range(4):
            sched.submit(_request(i, prompt_len=4 + i, new_tokens=3 + i))
        occupancy = []
        retired_at = {}
        while sched.queued or sched.active:
            report = sched.step()
            occupancy.append(report.lanes)
            for _ in range(report.retired):
                pass
            for rid in sched.completed:
                retired_at.setdefault(rid, sched.steps)
        # seq-0 (3 tokens) retires first; seq-2 joins the running batch
        # without the batch ever draining
        assert retired_at["seq-0"] < retired_at["seq-3"]
        assert max(occupancy) == 2
        assert 0 not in occupancy[:-1]  # never drained mid-run
        assert set(sched.completed) == {f"seq-{i}" for i in range(4)}

    def test_submit_between_steps_joins_running_batch(self):
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        sched.submit(_request(0, 5, 10))
        r1 = sched.step()
        assert (r1.admitted, r1.lanes) == (1, 1)
        sched.submit(_request(1, 6, 2))  # arrives mid-flight
        r2 = sched.step()
        assert (r2.admitted, r2.lanes) == (1, 2)
        sched.run()
        assert set(sched.completed) == {"seq-0", "seq-1"}

    def test_max_lanes_respected(self):
        sched = DecodeScheduler(salo=_salo(), max_lanes=3)
        for i in range(7):
            sched.submit(_request(i, 4, 4))
        while sched.queued or sched.active:
            report = sched.step()
            assert report.lanes <= 3
        assert len(sched.completed) == 7

    def test_token_accounting(self):
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        budgets = [3, 5, 2, 7]
        for i, b in enumerate(budgets):
            sched.submit(_request(i, 4, b))
        result = sched.run()
        assert result.tokens == sum(budgets)
        assert result.lane_steps == result.tokens  # one token per lane-step
        for i, b in enumerate(budgets):
            assert result.outputs[f"seq-{i}"].shape == (b, HIDDEN)
        assert 0 < result.mean_occupancy <= 4

    def test_same_structure_sequences_share_dispatches(self):
        """The point of continuous batching, as structure: 8 sequences of
        one pattern x 12 tokens ride the lane axis together — more than
        half the lanes busy on average, far fewer engine dispatches than
        the one per token that decoding them solo takes."""
        pattern = SlidingWindowPattern.causal(64, 8)
        sched = DecodeScheduler(salo=_salo(), max_lanes=8)
        for i in range(8):
            sched.submit(_request(i, 24 + 4 * i, 12, pattern=pattern))
        result = sched.run()
        assert set(result.outputs) == {f"seq-{i}" for i in range(8)}
        assert result.tokens == 8 * 12
        assert result.mean_occupancy > 4.0
        assert result.dispatches < result.tokens / 4


class TestBitIdentity:
    def test_batched_equals_solo_banded(self):
        """Batch composition is unobservable in the numbers: each
        sequence's outputs are bit-identical to decoding it alone."""
        requests = [
            _request(0, 4, 6),
            _request(1, 9, 4),
            _request(2, 13, 8),
            _request(3, 2, 5),
            _request(4, 17, 3),
        ]
        sched = DecodeScheduler(salo=_salo(), max_lanes=3)
        for r in requests:
            sched.submit(r)
        result = sched.run()
        for r in requests:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))

    def test_composition_invariance(self):
        """Same sequences, different lane caps -> identical outputs."""
        def run(max_lanes):
            sched = DecodeScheduler(salo=_salo(), max_lanes=max_lanes)
            for i in range(4):
                sched.submit(_request(i, 3 + 2 * i, 5))
            return sched.run().outputs

        a, b, c = run(1), run(2), run(4)
        for rid in a:
            assert np.array_equal(a[rid], b[rid])
            assert np.array_equal(a[rid], c[rid])

    def test_rerun_is_deterministic_including_globals(self):
        pattern = HybridSparsePattern(64, [Band(-6, 0)], (0,))

        def run():
            sched = DecodeScheduler(salo=_salo(), max_lanes=3)
            for i in range(4):
                sched.submit(_request(i, 4 + i, 5, pattern=pattern))
            return sched.run()

        a, b = run(), run()
        assert sorted(a.outputs) == sorted(b.outputs)
        for rid in a.outputs:
            assert np.array_equal(a.outputs[rid], b.outputs[rid])
        assert a.steps == b.steps and a.dispatches == b.dispatches


class TestStructureGrouping:
    def test_one_dispatch_per_structure_group(self):
        """Two band families never share an engine call; same-family
        lanes always do."""
        window = SlidingWindowPattern.causal(16, 6)
        dilated = HybridSparsePattern(16, [Band(-8, 0, 2)], ())
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        sched.submit(_request(0, 4, 4, pattern=window))
        sched.submit(_request(1, 5, 4, pattern=window))
        sched.submit(_request(2, 6, 4, pattern=dilated))
        sched.submit(_request(3, 7, 4, pattern=dilated))
        report = sched.step()
        assert report.lanes == 4
        assert report.dispatches == 2

    def test_global_activation_splits_then_merges_groups(self):
        """A lane that has not grown past a global token steps in its
        own group; once it has, the groups fuse into one dispatch."""
        pattern = HybridSparsePattern(64, [Band(-6, 0)], (0, 5))
        sched = DecodeScheduler(salo=_salo(), max_lanes=2)
        sched.submit(_request(0, 3, 8, pattern=pattern))   # global 5 inactive
        sched.submit(_request(1, 10, 8, pattern=pattern))  # both active
        first = sched.step()
        assert first.dispatches == 2
        merged = []
        while sched.active:
            merged.append(sched.step().dispatches)
        assert merged[-1] == 1  # groups fused once lane 0 passed token 5

    def test_solo_matches_batched_when_buckets_coincide_globals(self):
        """Global rows depend on the padded length, so solo/batched
        identity for global patterns holds when the bucket trajectories
        coincide — equal prompt lengths guarantee that."""
        pattern = HybridSparsePattern(64, [Band(-6, 0)], (0,))
        requests = [_request(i, 8, 6, pattern=pattern) for i in range(3)]
        sched = DecodeScheduler(salo=_salo(), max_lanes=3)
        for r in requests:
            sched.submit(r)
        result = sched.run()
        for r in requests:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))


class TestFrontState:
    def test_long_run_keeps_no_per_event_history(self):
        """A decoder that runs for a long time stays bounded: the plane
        forgets each sequence once the sequence ends."""
        sched = DecodeScheduler(salo=_salo(), max_lanes=2)
        sched.submit(_request(0, 4, 300))
        for i in range(1, 21):
            sched.submit(_request(i, 4 + i % 3, 5))
        for _ in range(150):
            sched.step()
        assert len(sched.metrics.records) == len(sched.completed) == 20
        assert set(sched._routed) == {"seq-0"} and not sched._attempts
        assert len(sched.worker.warm_plans) <= 8  # one per step bucket seen

    def test_a_raising_launch_leaves_no_round_behind(self, monkeypatch):
        """An engine call that raises leaves the step; the next step
        regroups every lane from scratch (the lanes that joined stay
        joined), and the run ends as if the failed step had never been
        taken."""
        pattern = HybridSparsePattern(64, [Band(-6, 0)], (0, 5))
        requests = [_request(0, 3, 6, pattern=pattern), _request(1, 10, 6, pattern=pattern)]

        calls = []

        def broken(*args, **kwargs):
            calls.append(kwargs["valid_lens"])
            raise RuntimeError("engine down")

        clean = DecodeScheduler(salo=_salo(), max_lanes=2)
        sched = DecodeScheduler(salo=_salo(), max_lanes=2)
        for r in requests:
            clean.submit(r)
            sched.submit(r)

        def shape(report):
            return report.dispatches, report.lanes, report.tokens, report.bucket

        expected = [shape(clean.step()) for _ in range(2)]
        assert expected[0][0] == 2  # lanes either side of global 5
        monkeypatch.setattr(sched.salo, "attend_codes", broken)  # the door a step calls
        with pytest.raises(RuntimeError, match="engine down"):
            sched.step()  # the round's first launch raises
        monkeypatch.undo()
        assert len(calls) == 1  # the patched door was the one invoked
        assert [shape(sched.step()) for _ in range(2)] == expected
        assert sched.lane_steps == clean.lane_steps == 4
        a, b = sched.run(), clean.run()
        assert (a.steps, a.dispatches, a.tokens, a.lane_steps) == (
            b.steps, b.dispatches, b.tokens, b.lane_steps)
        for r in requests:
            assert np.array_equal(a.outputs[r.request_id], b.outputs[r.request_id])


class TestValidation:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            _request(0, 4, 0)

    def test_opaque_pattern_rejected(self):
        class Opaque:
            n = 16

            def bands(self):
                return None

            def global_tokens(self):
                return ()

        with pytest.raises(ValueError):
            DecodeRequest(
                request_id="x",
                pattern=Opaque(),
                prompt_q=np.zeros((3, HIDDEN)),
                prompt_k=np.zeros((3, HIDDEN)),
                prompt_v=np.zeros((3, HIDDEN)),
                max_new_tokens=2,
            )

    def test_max_lanes_validation(self):
        with pytest.raises(ValueError):
            DecodeScheduler(salo=_salo(), max_lanes=0)

    @pytest.mark.parametrize("field", ["prompt_q", "prompt_k", "prompt_v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prompt_fails_at_the_door(self, field, bad):
        """A poisoned prompt is refused at construction, by name, so it
        never reaches a batch; its would-be batch-mates complete with
        the outputs of a run that never saw it."""
        good = [_request(i, 4 + i, 4) for i in range(3)]
        fields = {
            name: np.array(getattr(good[1], name))
            for name in ("prompt_q", "prompt_k", "prompt_v")
        }
        fields[field][2, 3] = bad
        with pytest.raises(ValueError, match=f"'seq-bad'.*{field}"):
            DecodeRequest(
                request_id="seq-bad",
                pattern=good[1].pattern,
                max_new_tokens=4,
                heads=HEADS,
                **fields,
            )
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        for r in good:
            sched.submit(r)
        result = sched.run()
        for r in good:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))

    @pytest.mark.parametrize("case, match", [
        ("k-rows", r"'seq-bad'.*prompt_k"),
        ("v-hidden", r"'seq-bad'.*prompt_v"),
        ("heads", r"'seq-bad'.*heads 3"),
    ])
    def test_malformed_prompt_fails_at_the_door(self, case, match):
        """Prompts no step can attend — K/V shaped unlike Q, heads that do
        not divide the hidden size — are refused at construction, by
        name, instead of escaping a later step (the request vanishing)
        or failing the engine call a healthy batch-mate shares."""
        good = [_request(i, 4 + i, 4) for i in range(3)]
        fields = {
            name: np.array(getattr(good[1], name))
            for name in ("prompt_q", "prompt_k", "prompt_v")
        }
        heads = 3 if case == "heads" else HEADS
        if case == "k-rows":
            fields["prompt_k"] = fields["prompt_k"][:-1]
        elif case == "v-hidden":
            fields["prompt_v"] = np.zeros((len(fields["prompt_q"]), HIDDEN + 1))
        with pytest.raises(ValueError, match=match):
            DecodeRequest(
                request_id="seq-bad",
                pattern=good[1].pattern,
                max_new_tokens=4,
                heads=heads,
                **fields,
            )
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        for r in good:
            sched.submit(r)
        result = sched.run()
        for r in good:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))

    def test_repeated_request_id_is_refused(self):
        """An id the scheduler holds — queued, active, completed or failed —
        is refused by name, and the first sequence under it is untouched."""
        def poisoned(out_row, rng):
            q, k, v = default_next_token(out_row, rng)
            k[0] = np.nan
            return q, k, v

        first = [_request(0, 4, 3), _request(1, 5, 2)]
        sched = DecodeScheduler(salo=_salo(), max_lanes=1)
        for r in first:
            sched.submit(r)
        with pytest.raises(ValueError, match="'seq-1'"):
            sched.submit(_request(1, 6, 4))  # queued
        sched.step()
        with pytest.raises(ValueError, match="'seq-0'"):
            sched.submit(_request(0, 6, 4))  # active
        victim = _request(2, 4, 3)
        victim.next_token = poisoned
        sched.submit(victim)
        result = sched.run()
        assert set(sched.failed) == {"seq-2"}
        for rid in ("seq-0", "seq-1", "seq-2"):  # completed, completed, failed
            with pytest.raises(ValueError, match=f"'{rid}'"):
                sched.submit(_request(int(rid[-1]), 6, 4))
        assert sched.tokens == 3 + 2 and not sched.queued and not sched.active
        for r in first:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_poisoned_next_token_fails_only_its_lane(self, bad):
        """Token feedback that turns non-finite mid-run drops that lane,
        by name, in the step it happens; the lanes fed before and after
        it in the same step finish with their solo outputs."""
        good = [_request(i, 4 + i, 5) for i in (0, 2)]
        calls = []

        def poisoned(out_row, rng):
            calls.append(1)
            q, k, v = default_next_token(out_row, rng)
            if len(calls) == 2:
                k[3] = bad
            return q, k, v

        victim = _request(1, 5, 5)
        victim.next_token = poisoned
        sched = DecodeScheduler(salo=_salo(), max_lanes=4)
        for r in (good[0], victim, good[1]):
            sched.submit(r)
        reports = [sched.step() for _ in range(2)]
        assert [r.failed for r in reports] == [0, 1]
        assert reports[1].tokens == 2 and sched.active == 2
        assert "finite" in sched.failed["seq-1"]
        result = sched.run()
        assert set(result.outputs) == {"seq-0", "seq-2"}
        assert sched.tokens == 2 * 5 + 1  # the victim's one good token
        for r in good:
            assert np.array_equal(result.outputs[r.request_id], _solo_outputs(r))
