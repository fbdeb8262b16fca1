"""transport_multicore experiment: registry, row mechanics, the laws.

The full experiment (worker ladder + chaos row) runs real processes and
belongs to `make transport-smoke`; the tier-1 checks here keep to the
cheap single-process rows, one single-worker multiprocess row (the
warm-up contract) and the plumbing the experiment relies on.  ``run_row``
checks every row's events against the plane's laws and raises on a
broken one.
"""

from repro.experiments import all_experiments
from repro.experiments.transport_multicore import (
    run_row,
    transport_config,
    transport_trace,
)


class TestRegistry:
    def test_registered(self):
        assert "transport_multicore" in all_experiments()


class TestRows:
    def test_inprocess_row_conserves_and_completes(self):
        report = run_row("inprocess", 1, num_requests=8)
        assert report.submitted == report.completed == 8
        assert report.makespan_s > 0 and report.throughput_rps > 0

    def test_edf_shed_row_sheds_the_doomed_half_and_conserves(self):
        """EDF + drop_expired on real transports: the control-plane
        feature `make transport-smoke` exercises in CI."""
        report = run_row("inprocess", 2, num_requests=8, shed=True)
        assert report.shed == 4 and report.completed == 4
        assert report.rejected == report.failed == 0

    def test_warm_up_covers_the_trace_so_traffic_never_compiles(self):
        """Workers pre-compile at the trace's own head_dim: after the run
        the worker's plan cache has missed once per warm spec and never
        on traffic (it missed twice as often when the warm-up ran at
        ``Runtime.warm``'s default head_dim)."""
        report = run_row("multiprocess", 1, num_requests=8)
        warm = transport_config("multiprocess", 1, 8).warm
        assert report.completed == 8
        assert report.workers[0].plan_cache["misses"] == len(warm)
        assert report.workers[0].cold_compiles == 0


class TestConfig:
    def test_multiprocess_rows_pre_warm_the_trace_family(self):
        config = transport_config("multiprocess", 2, 8)
        assert len(config.warm) == 1  # unmixed trace: one pattern family
        pattern, heads, head_dim = config.warm[0]
        assert pattern.n == 512 and heads == 4 and head_dim == 16
        assert transport_config("inprocess", 1, 8).warm == ()

    def test_trace_is_deterministic(self):
        a, b = transport_trace(4), transport_trace(4)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert all(x.pattern.n == 512 for x in a)
