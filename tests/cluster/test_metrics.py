"""MetricsCollector/ClusterReport edge cases and the fairness index.

Overload control makes previously-impossible report shapes routine: runs
where *nothing* completed (all rejected), classes whose every member was
shed, single-sample classes.  Every reduction must stay finite and
renderable — no division by zero, no NaN percentiles, no ``inf``.
"""

import numpy as np
import pytest

from repro.cluster import MetricsCollector, RequestRecord, jain_index
from repro.cluster.events import ARRIVE, DONE, REJECT, SHED, Event
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest


def _request(rid, slo="default", deadline=None):
    pattern = longformer_pattern(16, 4, (0,))
    data = np.zeros((16, 8))
    return AttentionRequest(
        request_id=rid, pattern=pattern, q=data, k=data, v=data, heads=2,
        deadline_s=deadline, slo_class=slo,
    )


def _record(rid, slo="default", arrival=0.0, dispatch=1e-3, complete=2e-3, deadline=None):
    return RequestRecord(
        request_id=rid, slo_class=slo, arrival_s=arrival, dispatch_s=dispatch,
        complete_s=complete, worker=0, batch_size=1, deadline_s=deadline,
    )


def _collect(*events):
    """A collector that folded ``(kind, t, request or record)`` events."""
    collector = MetricsCollector()
    for kind, t, payload in events:
        collector.fold(Event(kind, t, payload.request_id, payload=payload))
    return collector


def _finite(report):
    values = [
        report.throughput_rps, report.goodput_rps, report.deadline_met_rate,
        report.mean_batch_size, report.latency_p50_ms, report.latency_p99_ms,
        report.fairness_index,
    ]
    for cls in report.classes:
        values += [
            cls.latency_p50_ms, cls.latency_p99_ms, cls.queue_p50_ms,
            cls.deadline_met_rate, cls.goodput_rps, cls.goodput_share,
        ]
    assert all(np.isfinite(v) for v in values), values


class TestReportEdges:
    def test_empty_run(self):
        report = MetricsCollector().report(workers=[])
        assert report.completed == 0 and report.submitted == 0
        _finite(report)
        assert report.render()

    def test_all_rejected_run(self):
        """Zero completions but nonzero submissions: the admission
        policy turned everything away."""
        requests = [_request(i, slo="gold", deadline=1e-3) for i in range(5)]
        report = _collect(
            *((kind, i * 1e-3, r) for i, r in enumerate(requests) for kind in (ARRIVE, REJECT))
        ).report(workers=[])
        assert report.submitted == 5 and report.completed == 0
        assert report.rejected == 5 and report.shed == 0
        _finite(report)
        gold = report.class_report("gold")
        assert gold.completed == 0 and gold.rejected == 5
        assert gold.submitted == 5
        assert gold.deadline_met_rate == 0.0 and gold.latency_p50_ms == 0.0
        assert gold.deadline_s == pytest.approx(1e-3)  # taken from the drop
        assert report.render()

    def test_single_sample_class(self):
        record = _record(0, slo="lone", deadline=1.0)
        report = _collect((ARRIVE, 0.0, record), (DONE, 2e-3, record)).report(workers=[])
        lone = report.class_report("lone")
        assert lone.completed == 1
        assert lone.latency_p50_ms == lone.latency_p99_ms  # one sample
        assert lone.deadline_met_rate == 1.0
        _finite(report)

    def test_mixed_completed_and_shed_class(self):
        record, shed = _record(0, slo="gold", deadline=1.0), _request(1, slo="gold", deadline=1e-3)
        report = _collect(
            (ARRIVE, 0.0, record), (ARRIVE, 1e-3, shed), (DONE, 2e-3, record), (SHED, 2e-3, shed)
        ).report(workers=[])
        gold = report.class_report("gold")
        assert (gold.completed, gold.rejected, gold.shed) == (1, 0, 1)
        assert gold.submitted == 2
        assert report.submitted == report.completed + report.rejected + report.shed
        assert "shed 1" in report.render()

    def test_goodput_shares_sum_to_one_when_anything_met(self):
        records = [_record(i, slo=slo, deadline=1.0) for i, slo in enumerate(("a", "a", "b"))]
        report = _collect(
            *((kind, i * 1e-3, r) for i, r in enumerate(records) for kind in (ARRIVE, DONE))
        ).report(workers=[])
        assert sum(c.goodput_share for c in report.classes) == pytest.approx(1.0)


class TestJainIndex:
    def test_even_allocation_is_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_party_holding_everything(self):
        assert jain_index([5.0, 0.0]) == pytest.approx(0.5)
        assert jain_index([7.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_edges(self):
        assert jain_index([]) == 1.0
        assert jain_index([4.2]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0  # equal misery is equal
