"""decode_stream: eight closed-loop clients on a continuous-batching scheduler.

``DecodeScheduler(max_lanes=8)`` on one warm ``SALO``; a round decodes
16 sequences (causal sliding window 64 over up to 1024 tokens, 4 heads x
16) for 8 clients that each submit their next sequence the moment their
previous one retires.  One op is one ``step()``: every active lane
advances one token, so a step is the gap between two tokens of every
client, and the widest bucket in the step sets everyone's gap.

Prompt lengths (24..400) and output budgets (16..64) are a fixed design
paired by the seed, so every round generates the same number of tokens
whatever the seed.  The issue's 32..128-token budgets are halved here
to fit four measured rounds in the run-time cap; bucket structure
(256/512/1024 crossings) is unchanged.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List

import numpy as np

from harness import Check, Recorder, Tracer, Workload, digest, grouped_median, interleaved_minima, median
from layers import plan_cache_metrics, thin_overheads_us

HEADS, HEAD_DIM = 4, 16
HIDDEN = HEADS * HEAD_DIM
LANES = 8
SEQUENCES = 16


class DecodeStream(Workload):
    name = "decode_stream"
    nominal_round_s = 2.5  # ~125 steps of ~20 ms

    def setup(self) -> None:
        from repro import SALO
        from repro.patterns import SlidingWindowPattern

        rng = np.random.default_rng(self.seed)
        if self.smoke:
            self.pattern = SlidingWindowPattern.causal(128, 8)
            prompts = np.linspace(6, 40, 10).astype(int)
            budgets = np.linspace(3, 8, 10).astype(int)
        else:
            self.pattern = SlidingWindowPattern.causal(1024, 64)
            prompts = np.linspace(24, 400, SEQUENCES).astype(int)
            budgets = np.linspace(16, 64, SEQUENCES).astype(int)
        budgets = budgets[rng.permutation(len(budgets))]
        self.specs = []
        for i in rng.permutation(len(prompts)):
            q, k, v = (rng.standard_normal((int(prompts[i]), HIDDEN)) for _ in range(3))
            self.specs.append(
                dict(
                    request_id=f"seq{len(self.specs):02d}",
                    pattern=self.pattern,
                    prompt_q=q,
                    prompt_k=k,
                    prompt_v=v,
                    max_new_tokens=int(budgets[i]),
                    heads=HEADS,
                    seed=self.seed,
                )
            )
        self.salo = SALO()
        self.scheduler = None
        self.ttft_ms: List[float] = []
        self.cache = [0, 0]
        self.counters = Counter()

    # ------------------------------------------------------------------
    def run_round(self, rec: Recorder) -> None:
        from repro.decode import DecodeRequest, DecodeScheduler

        self.scheduler = DecodeScheduler(self.salo, max_lanes=LANES)
        waiting = [DecodeRequest(**spec) for spec in self.specs]
        before = self.salo.cache_info()
        submitted: Dict[str, float] = {}
        for _ in range(min(LANES, len(waiting))):
            request = waiting.pop(0)
            submitted[request.request_id] = time.perf_counter()
            self.scheduler.submit(request)
        measured = rec.round > 0 and rec.tracer is None
        while self.scheduler.queued or self.scheduler.active:
            lanes = min(LANES, self.scheduler.active + self.scheduler.queued)
            report = rec.op("step", lanes, self.scheduler.step)
            now = time.perf_counter()
            if report is None:
                break  # a failed step cannot make progress
            if measured:
                # sequences submitted since the last step got their first token now
                self.ttft_ms.extend(1e3 * (now - t) for t in submitted.values())
                self.counters["rows"] += report.lanes * report.bucket
                self.counters["buckets", report.bucket] += 1
            submitted.clear()
            for _ in range(min(report.retired, len(waiting))):
                request = waiting.pop(0)
                submitted[request.request_id] = time.perf_counter()
                self.scheduler.submit(request)
        after = self.salo.cache_info()
        if measured:
            self.cache[0] += after["hits"] - before["hits"]
            self.cache[1] += after["misses"] - before["misses"]
            for field in ("steps", "dispatches", "tokens", "lane_steps"):
                self.counters[field] += getattr(self.scheduler, field)

    def check_round(self) -> Check:
        """Every sequence finished; one of them bit-equal to a solo session."""
        from repro import SALO
        from repro.decode import DecodeRequest, DecodeSession
        from repro.decode.scheduler import default_next_token

        notes: List[str] = []
        done = self.scheduler.completed
        failed = sum(1 for spec in self.specs if spec["request_id"] not in done)
        if failed:
            notes.append(f"{failed} sequences never completed")
        spec = self.specs[len(self.specs) // 2]
        request = DecodeRequest(**spec)
        session = DecodeSession(self.pattern, salo=SALO(), heads=HEADS)
        rng = request.rng()
        row = session.prefill(request.prompt_q, request.prompt_k, request.prompt_v)[-1]
        rows = [row]
        for _ in range(request.max_new_tokens - 1):
            row = session.step(*default_next_token(row, rng))
            rows.append(row)
        got = done.get(request.request_id)
        if got is None or not np.array_equal(np.stack(rows), got):
            failed += 1
            notes.append(f"{request.request_id} differs from its solo DecodeSession")
        outs = [done[s["request_id"]] for s in self.specs if s["request_id"] in done]
        return Check(len(self.specs) + 1, failed, digest(outs), notes)

    # ------------------------------------------------------------------
    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        from repro import SALO
        from repro.accelerator.functional import FunctionalEngine
        from repro.decode import DecodeRequest, DecodeScheduler, DecodeSession
        from repro.decode.session import decode_pattern
        from repro.serving.batching import length_bucket

        rng = np.random.default_rng(self.seed + 1)
        c = self.counters
        steps_at = {key[1]: n for key, n in c.items() if isinstance(key, tuple)}
        bucket = max(steps_at, key=steps_at.get)  # the bucket most steps ran at
        floor = 16
        bands = tuple(self.pattern.bands())

        def rows(n):
            return tuple(rng.standard_normal((n, HIDDEN)) for _ in range(3))

        # eight lanes inside the modal bucket: scheduler step vs the bare attend
        # and the bare engine run on operands of the same shape
        lengths = [bucket // 2 + 2 + 3 * i for i in range(LANES)]
        sched = DecodeScheduler(self.salo, max_lanes=LANES)
        for i, n in enumerate(lengths):
            q, k, v = rows(n)
            sched.submit(
                DecodeRequest(f"probe{i}", self.pattern, q, k, v, max_new_tokens=10_000, heads=HEADS)
            )
        sched.step()
        stacked = rows(LANES * bucket)
        stacked = tuple(a.reshape(LANES, bucket, HIDDEN) for a in stacked)
        pattern = decode_pattern(bands, (), bucket, bucket)
        lens = np.asarray(lengths)
        engine = FunctionalEngine(self.salo.schedule(pattern, heads=HEADS, head_dim=HEAD_DIM))
        engine.run(*stacked, valid_lens=lens)
        self.salo.attend(pattern, *stacked, heads=HEADS, valid_lens=lens)
        step_s, attend_s, run_s = interleaved_minima(
            12,
            sched.step,
            lambda: self.salo.attend(pattern, *stacked, heads=HEADS, valid_lens=lens),
            lambda: engine.run(*stacked, valid_lens=lens),
        )
        tiny = decode_pattern(bands, (), 32, 32)
        _, hit_us = thin_overheads_us(
            tiny,
            *(rng.standard_normal((LANES, 32, HIDDEN)) for _ in range(3)),
            heads=HEADS,
            valid_lens=np.arange(17, 17 + LANES),
        )

        # one solo session per sequence on the warm engine: prefill, warm
        # steps, and the step that crosses into the next (cached) bucket
        prefill_ms, warm_ms, cross_ms = [], [], []
        for spec in self.specs:
            session = DecodeSession(self.pattern, salo=self.salo, heads=HEADS)
            t0 = time.perf_counter()
            session.prefill(spec["prompt_q"], spec["prompt_k"], spec["prompt_v"])
            prefill_ms.append((session.bucket, 1e3 * (time.perf_counter() - t0)))
            for _ in range(3):
                t0 = time.perf_counter()
                session.step(*(r[0] for r in rows(1)))
                warm_ms.append((session.bucket, 1e3 * (time.perf_counter() - t0)))
        for start in sorted({length_bucket(len(s["prompt_q"]), floor) for s in self.specs}):
            if 2 * start > self.pattern.n:
                continue
            for salo, sink in ((self.salo, cross_ms), (SALO(), None)):
                session = DecodeSession(self.pattern, salo=salo, heads=HEADS)
                session.prefill(*rows(start))
                if sink is None:
                    tracer.call("decode.step_cross_cold", session.step, *(r[0] for r in rows(1)), kind=start)
                else:
                    # make sure the next bucket's plan is cached, then cross
                    warm = DecodeSession(self.pattern, salo=salo, heads=HEADS)
                    warm.prefill(*rows(start + 1))
                    t0 = time.perf_counter()
                    session.step(*(r[0] for r in rows(1)))
                    sink.append((start, 1e3 * (time.perf_counter() - t0)))

        crossings = 0
        for spec in self.specs:
            first = len(spec["prompt_q"])
            last = first + spec["max_new_tokens"] - 1
            n = length_bucket(first, floor)
            while n < last:
                crossings += 1
                n *= 2
        return {
            "accelerator.run_decode_lanes8_ms": 1e3 * run_s,
            "core.attend_hit_overhead_us": hit_us,
            **plan_cache_metrics(*self.cache),
            "decode.ttft_p50_ms": median(self.ttft_ms) if self.ttft_ms else 0.0,
            "decode.prefill_ms": grouped_median(prefill_ms),
            "decode.step_warm_ms": grouped_median(warm_ms),
            "decode.step_cross_warm_ms": grouped_median(cross_ms),
            "decode.step_cross_cold_user_ms": tracer.reduce("decode.step_cross_cold", "user", scale=1e3),
            "decode.sched_overhead_ms": 1e3 * (step_s - attend_s),
            "decode.mean_occupancy": c["lane_steps"] / c["steps"] if c["steps"] else 0.0,
            "decode.dispatches_per_token": c["dispatches"] / c["tokens"] if c["tokens"] else 0.0,
            "decode.bucket_crossings": float(crossings),
            "decode.attended_rows_per_token": c["rows"] / c["tokens"] if c["tokens"] else 0.0,
            # of an 8-lane step at the modal bucket: what is neither the engine
            # run, nor the scheduler around the attend, nor the cache lookup
            "harness.decomposition_residual_share": (attend_s - run_s - hit_us / 1e6) / step_s,
        }
