"""serve_burst: bursts of 16 requests served by one real worker process.

``TransportCluster(workers=1, driver="multiprocess", max_batch_size=8)``
with the three pattern families of the serve CLI's mixed trace (n=512
window 64, n=256 window 32, n=512 dilated; 4 heads x 16) pre-warmed on
the worker.  One op is one burst served to completion by
``cluster.run``: every request crosses serving (group, stack) ->
transport (shm pack, queue hop, copy-out) -> worker api/accelerator ->
completion under the cluster's control loop.  One worker plus the
parent is the reference host's two cores.

A burst always holds 8 + 4 + 4 requests of the three families (one full
batch and two half batches), so every burst — whatever the seed — is
the same work; the seed draws which pool operands ride in it and in
which order.  Requests get fresh ids and share the pool's arrays.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from harness import Check, Recorder, Tracer, Workload, digest, grouped_median, median
from layers import plan_cache_metrics

HEADS, HEAD_DIM = 4, 16
COMPOSITION = (8, 4, 4)  # requests per family in one burst
POOL = 64


class ServeBurst(Workload):
    name = "serve_burst"
    cpus = 2  # the parent's control loop and the worker run side by side
    nominal_round_s = 1.9  # 20 bursts of ~90 ms

    def setup(self) -> None:
        from repro.serving import TraceSpec
        from repro.serving.trace import pattern_families
        from repro.transport import TransportCluster, TransportClusterConfig

        rng = np.random.default_rng(self.seed)
        spec = (
            TraceSpec(n=64, window=8, heads=HEADS, head_dim=4, mixed=True)
            if self.smoke
            else TraceSpec(n=512, window=64, heads=HEADS, head_dim=HEAD_DIM, mixed=True)
        )
        self.hidden = spec.heads * spec.head_dim
        self.families = pattern_families(spec)
        # pool entry i belongs to family i % 3; arrays are shared by every
        # request that draws the entry
        self.pool = [
            [
                tuple(rng.standard_normal((fam.n, self.hidden)) for _ in range(3))
                for _ in range(POOL // len(self.families))
            ]
            for fam in self.families
        ]
        self.bursts_per_round = 3 if self.smoke else 20
        # one fixed plan of draws per round: round 0 and every measured
        # round serve the same bursts
        self.plan = [self._draw(rng) for _ in range(self.bursts_per_round)]
        self.check_plan = self._draw(rng)
        self.serial = 0
        self.warm = tuple((fam, HEADS) for fam in self.families)
        self.config = TransportClusterConfig(
            workers=1, driver="multiprocess", max_batch_size=8, warm=self.warm
        )
        self.cluster = TransportCluster(self.config)
        self.cache = [0, 0]
        self.wire_gaps: List[tuple] = []
        self.local = None  # in-process Runtime the check compares against
        self.salo = None  # in-process engine the replays run on

    def _draw(self, rng: np.random.Generator) -> List[tuple]:
        """(family index, pool slot) for one burst, in submission order."""
        picks = [
            (f, int(slot))
            for f, count in enumerate(COMPOSITION)
            for slot in rng.choice(len(self.pool[f]), size=count, replace=False)
        ]
        return [picks[i] for i in rng.permutation(len(picks))]

    def _requests(self, draw: List[tuple]) -> list:
        from repro.serving import AttentionRequest

        out = []
        for f, slot in draw:
            q, k, v = self.pool[f][slot]
            self.serial += 1
            out.append(
                AttentionRequest(
                    request_id=self.serial, pattern=self.families[f], q=q, k=k, v=v, heads=HEADS
                )
            )
        return out

    # ------------------------------------------------------------------
    def run_round(self, rec: Recorder) -> None:
        transport = self.cluster.states[0].transport
        before = transport.cache_info()
        for draw in self.plan:
            burst = self._requests(draw)
            tokens = sum(r.n for r in burst)
            rec.op("burst", tokens, self.cluster.run, burst)
            if rec.tracer is not None and rec.round > 0:
                self._replay(rec.tracer, draw, rec.last_span, len(rec.samples) - 1)
        after = transport.cache_info()  # the worker's own plan cache
        if rec.round > 0 and rec.tracer is None:
            self.cache[0] += after["hits"] - before["hits"]
            self.cache[1] += after["misses"] - before["misses"]

    def _batches(self, requests: list) -> list:
        """The batches the cluster's per-worker queue forms from a burst."""
        from repro.serving import BatchScheduler

        queue = BatchScheduler(max_batch_size=self.config.max_batch_size)
        for r in requests:
            queue.enqueue(r)
        out = []
        while True:
            batch = queue.next_batch()
            if batch is None:
                return out
            out.append(batch)

    def _wire_batch(self, batch, batch_id: int, timeout_s: float = 30.0):
        """One batch through the worker's transport: submit -> poll."""
        from repro.transport import TransportRequest, stacked_operands

        transport = self.cluster.states[0].transport
        pattern = batch.execution_pattern()
        q, k, v, lens = stacked_operands(batch.requests, pattern)
        transport.submit(
            TransportRequest(
                batch_id=batch_id, pattern=pattern, q=q, k=k, v=v, heads=batch.heads, valid_lens=lens
            )
        )
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            for completion in transport.poll(0.005):
                if completion.batch_id == batch_id:
                    return completion, (pattern, q, k, v, lens)
        raise TimeoutError(f"batch {batch_id} never completed")

    def check_round(self) -> Check:
        """Conservation on the cluster's report; one burst bit-equal in process.

        The check burst goes through the worker's transport batch by
        batch (the cluster itself drops outputs) and every completion
        must equal ``Runtime.attend`` on the same stacked operands in
        this process.
        """
        from repro import Runtime

        notes: List[str] = []
        attempted, failed = 1, 0
        rep = self.cluster.report()
        if rep.submitted != rep.completed + rep.rejected + rep.shed + rep.failed:
            failed += 1
            notes.append("cluster report breaks submitted == completed+rejected+shed+failed")
        lost = rep.rejected + rep.shed + rep.failed
        if lost:
            failed += lost
            notes.append(f"{lost} requests rejected/shed/failed by the cluster")
        if self.local is None:
            self.local = Runtime()
        outputs = []
        for i, batch in enumerate(self._batches(self._requests(self.check_plan))):
            attempted += 1
            completion, (pattern, q, k, v, lens) = self._wire_batch(batch, -(i + 1))
            want = self.local.attend(pattern, q, k, v, heads=batch.heads, valid_lens=lens).output
            if not completion.ok or not np.array_equal(completion.output, want):
                failed += 1
                notes.append(f"check batch {i} differs from in-process Runtime.attend")
            else:
                outputs.append(completion.output)
        return Check(attempted, failed, digest(outputs), notes)

    def close(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.close()

    # ------------------------------------------------------------------
    def _replay(self, tracer: Tracer, draw: List[tuple], op_span: int, op: int) -> None:
        """The burst's layers one after the other, nothing overlapped."""
        from repro.serving import BatchScheduler, execute_batch
        from repro.serving.session import stack_batch_operands
        from repro.transport import ShmBatch

        tags = {"parent": op_span, "op": op}
        requests = self._requests(draw)
        queue = BatchScheduler(max_batch_size=self.config.max_batch_size)
        for r in requests:
            tracer.call("serving.enqueue", queue.enqueue, r, **tags)
        salo = self._local_salo()
        serial = 0
        while True:
            batch, _ = tracer.call("serving.next_batch", queue.next_batch, **tags)
            if batch is None:
                break
            kind = batch.size
            (q, k, v, _), _ = tracer.call(
                "serving.stack", stack_batch_operands, batch.requests, batch.execution_pattern(),
                kind=kind, **tags,
            )
            block, _ = tracer.call("transport.pack", ShmBatch.pack, q, k, v, kind=kind, **tags)
            try:
                tracer.call("transport.read_output", block.read_output, kind=kind, **tags)
            finally:
                tracer.call("transport.destroy", block.destroy, kind=kind, **tags)
            _, local = tracer.call("serving.execute_batch", execute_batch, salo, batch, kind=kind, **tags)
            serial += 1
            _, wire = tracer.call(
                "transport.submit_to_completion", self._wire_batch, batch, -(1000 + serial), kind=kind, **tags
            )
            self.wire_gaps.append(
                (kind, tracer.spans[wire]["usage"].wall - tracer.spans[local]["usage"].wall)
            )

    def _local_salo(self):
        """A warm in-process engine (what the worker holds, minus the wire)."""
        if self.salo is None:
            from repro import SALO

            self.salo = SALO()
            for fam in self.families:
                zeros = np.zeros((fam.n, self.hidden))
                self.salo.attend(fam, zeros, zeros, zeros, heads=HEADS)
        return self.salo

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        from repro.accelerator.functional import FunctionalEngine
        from repro.serving import ServingSession
        from repro.transport import (
            MultiprocessTransport,
            TransportCluster,
            TransportClusterConfig,
        )
        rng = np.random.default_rng(self.seed + 1)
        transport = self.cluster.states[0].transport
        salo = self._local_salo()

        # queue hop: an idle worker answering a ping
        rtts = []
        for _ in range(20):
            t0 = time.perf_counter()
            if transport.probe(timeout_s=1.0):
                rtts.append(1e3 * (time.perf_counter() - t0))

        # a second worker, start to first good probe
        t0 = time.perf_counter()
        extra = MultiprocessTransport(wid=1, warm=self.warm)
        try:
            ok = extra.probe(timeout_s=5.0)
            spawn_s = time.perf_counter() - t0 if ok else 0.0
        finally:
            extra.close()

        # the same bursts through an in-process session and an in-process cluster
        session_ms, inproc_ms = [], []
        inproc = TransportCluster(
            TransportClusterConfig(workers=1, driver="inprocess", max_batch_size=8)
        )
        try:
            for rounds in range(2):  # first pass warms both engines
                for draw in self.plan[: 3 if self.smoke else 8]:
                    session = ServingSession(salo=salo, max_batch_size=8)
                    t0 = time.perf_counter()
                    for r in self._requests(draw):
                        session.submit(r.pattern, r.q, r.k, r.v, heads=r.heads, request_id=r.request_id)
                    session.drain()
                    t1 = time.perf_counter()
                    inproc.run(self._requests(draw))
                    t2 = time.perf_counter()
                    if rounds:
                        session_ms.append(1e3 * (t1 - t0))
                        inproc_ms.append(1e3 * (t2 - t1))
        finally:
            inproc.close()

        # the full batch of the burst on a bare engine
        fam = self.families[0]
        plan = salo.schedule(fam, heads=HEADS, head_dim=self.hidden // HEADS)
        engine = FunctionalEngine(plan)
        q, k, v = (rng.standard_normal((8, fam.n, self.hidden)) for _ in range(3))
        engine.run(q, k, v)
        runs = []
        for _ in range(10):
            t0 = time.perf_counter()
            engine.run(q, k, v)
            runs.append(1e3 * (time.perf_counter() - t0))

        rep = self.cluster.report()
        worker = rep.workers[0]
        op_ms = tracer.reduce("op", scale=1e3)
        # A burst laid end to end: its enqueues and batch pops, then every
        # batch through the wire (which stacks, packs, runs, reads back and
        # unlinks).  The cluster overlaps the parent's share of that with the
        # worker's, so the residual reads negative by the overlap it wins.
        bursts = len(tracer.samples("op"))
        serial_s = sum(
            seconds
            for name in ("serving.enqueue", "serving.next_batch", "transport.submit_to_completion")
            for _, seconds in tracer.samples(name)
        )
        covered_ms = 1e3 * serial_s / bursts if bursts else 0.0
        return {
            "accelerator.run_batch8_ms": median(runs),
            **plan_cache_metrics(*self.cache),
            "serving.enqueue_us": tracer.reduce("serving.enqueue", scale=1e6),
            "serving.next_batch_us": tracer.reduce("serving.next_batch", scale=1e6),
            "serving.stack_ms": tracer.reduce("serving.stack", scale=1e3),
            "serving.execute_batch_ms": tracer.reduce("serving.execute_batch", scale=1e3),
            "serving.session_burst_ms": median(session_ms),
            "serving.mean_batch_size": float(rep.mean_batch_size),
            "transport.spawn_s": spawn_s,
            "transport.pack_ms": tracer.reduce("transport.pack", scale=1e3),
            "transport.read_output_ms": tracer.reduce("transport.read_output", scale=1e3),
            "transport.destroy_ms": tracer.reduce("transport.destroy", scale=1e3),
            "transport.probe_rtt_ms": median(rtts) if rtts else 0.0,
            "transport.submit_to_completion_ms": tracer.reduce(
                "transport.submit_to_completion", scale=1e3
            ),
            "transport.wire_overhead_ms": 1e3 * grouped_median(self.wire_gaps),
            "transport.burst_inprocess_ms": median(inproc_ms),
            "transport.batches": float(worker.batches),
            "transport.retries": float(rep.retries),
            "transport.requeues": float(rep.requeues),
            "harness.decomposition_residual_share": (op_ms - covered_ms) / op_ms if op_ms else 0.0,
        }
