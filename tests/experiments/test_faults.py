"""The committed fault-tolerance claims (fixed seed, cost-model clock).

The acceptance assertions from the issue, on exactly the workload the
committed ``faults`` chaos sweep runs: the sweep checks every row's
events against the plane's laws (a mid-run worker crash never silently
loses a request) and raises on a broken one, ``retry+steal`` recovers at least 90% of the fault-free goodput at
rho 0.8, recovery modes fail nothing while ``no-retry`` permanently
strands the crashed worker's queue, and disabling faults reproduces the
fault-free baseline byte for byte.
"""

import pytest

from repro.experiments import faults, get_experiment
from repro.experiments.faults import MODES, RECOVERY_GOODPUT_FLOOR


@pytest.fixture(scope="module")
def result():
    return get_experiment("faults")(fast=True)


def _by_mode(result):
    return {row["mode"]: row for row in result.rows}


class TestFaults:
    def test_sweep_shape(self, result):
        assert [row["mode"] for row in result.rows] == list(MODES)
        for row in result.rows:
            assert 0.0 <= row["met_rate"] <= 1.0
            assert 0.0 <= row["availability"] <= 1.0
            assert row["goodput_rps"] > 0
            assert row["completed"] > 0

    def test_a_broken_law_fails_the_sweep(self, monkeypatch):
        """The sweep's rows stand on the event checker: a law it reports
        broken stops the sweep at the first row."""
        monkeypatch.setattr(faults, "check", lambda events, drop_expired: ["planted"])
        with pytest.raises(RuntimeError, match="no-fault broke the plane's laws"):
            faults.run(fast=True)

    def test_fault_free_baseline_is_clean(self, result):
        base = _by_mode(result)["no-fault"]
        assert base["failed"] == 0
        assert base["retries"] == 0 and base["requeues"] == 0
        assert base["availability"] == 1.0

    def test_recovery_goodput_floor(self, result):
        """The headline claim: full recovery (requeue + steal) holds at
        least RECOVERY_GOODPUT_FLOOR of the fault-free goodput despite
        losing one of two workers mid-run."""
        by_mode = _by_mode(result)
        baseline = by_mode["no-fault"]["goodput_rps"]
        recovered = by_mode["retry+steal"]["goodput_rps"]
        assert recovered >= RECOVERY_GOODPUT_FLOOR * baseline, (
            f"retry+steal recovered only {recovered / baseline:.1%} of the "
            f"no-fault goodput ({recovered} vs {baseline} rps)"
        )

    def test_no_retry_strands_work_recovery_modes_do_not(self, result):
        by_mode = _by_mode(result)
        stranded = by_mode["no-retry"]
        # Without requeue the crashed worker's in-flight batch and queue
        # land in the terminal failed bucket...
        assert stranded["failed"] > 0
        assert stranded["requeues"] == 0
        # ...while both recovery modes re-route every orphan and fail
        # nothing, completing strictly more of the identical traffic.
        for mode in ("retry", "retry+steal"):
            row = by_mode[mode]
            assert row["failed"] == 0, (mode, row["failed"])
            assert row["requeues"] > 0, mode
            assert row["completed"] > stranded["completed"], mode

    def test_availability_dips_exactly_in_crash_modes(self, result):
        for mode, row in _by_mode(result).items():
            if mode == "no-fault":
                assert row["availability"] == 1.0
            else:
                assert row["availability"] < 1.0, mode

    def test_stealing_only_in_steal_modes(self, result):
        by_mode = _by_mode(result)
        assert by_mode["no-retry"]["steals"] == 0
        assert by_mode["retry"]["steals"] == 0
        assert by_mode["retry+steal"]["steals"] > 0

    def test_deterministic_rerun(self, result):
        again = get_experiment("faults")(fast=True)
        assert again.rows == result.rows
