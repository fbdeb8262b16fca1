"""Tests of the benchmark harness itself (collected by the tier-1 run).

The statistics and span arithmetic are checked on hand-made numbers;
the five workloads run once each at ``--smoke`` scale, traced, which is
what holds ``BENCHMARK.json``, ``registry.py`` and what ``run.py``
really prints to one set of names.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import registry  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def _alarm():
    """A wedged worker must fail its own test, not hang the suite."""

    def expired(signum, frame):
        raise TimeoutError("benchmark harness test exceeded 120 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "samples, expected",
    [(1, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_highest_percentile_with_ten_samples_beyond_it(samples, expected):
    assert harness.supported_percentile(samples) == expected
    if expected != 50:
        assert samples * (100 - expected) // 100 >= 10


def test_percentile_is_numpys_linear_rule():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(37))
    for p in (0, 25, 50, 75, 90, 95, 99, 100):
        assert harness.percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert harness.percentile([3.0], 99) == 3.0


def test_grouped_median_reduces_each_kind_before_averaging():
    samples = [("a", 1.0), ("a", 100.0), ("a", 3.0), ("b", 10.0)]
    assert harness.grouped_median(samples) == pytest.approx((3.0 + 10.0) / 2)
    assert harness.grouped_median([]) == 0.0


class _StillWeather:
    """A weather source that reads a fixed index and is never due."""

    def __init__(self, index=1.0):
        self.index = index

    def sample(self):
        return self.index

    def due(self):
        return False


def _usage(t, user=0.0):
    return harness.Usage(t, user, 0.0, 0)


def test_pass_result_drops_round_zero_and_takes_round_medians():
    rec = harness.Recorder(_StillWeather(2.0))
    for r, wall in enumerate((9.0, 1.0, 2.0, 4.0)):
        rec.begin_round(r)
        rec.samples.append(harness.OpSample(r, "x", 100, True, _usage(wall, wall / 2), False))
    result = rec.result()
    assert result.attempted == 3 and result.failed == 0
    assert result.tokens_per_s(raw=True) == pytest.approx(100 / 2.0)
    assert result.user_cpu_ms_per_ktoken(raw=True) == pytest.approx(1e6 * 1.0 / 100)
    assert result.end_to_end(raw=True)["latency_p50_ms"] == pytest.approx(2000.0)
    # the reported values are the raw ones at weather index 1.0
    assert result.weather_index == 2.0
    assert result.tokens_per_s() == pytest.approx(2 * 100 / 2.0)
    assert result.end_to_end()["latency_p50_ms"] == pytest.approx(1000.0)
    assert result.end_to_end()["user_cpu_ms_per_ktoken"] == pytest.approx(1e6 * 0.5 / 100)


def test_ops_can_be_read_on_the_user_clock():
    rec = harness.Recorder(_StillWeather(), clock="user")
    rec.begin_round(1)
    rec.samples.append(harness.OpSample(1, "x", 10, True, _usage(5.0, user=2.0), False))
    assert rec.result().tokens_per_s() == pytest.approx(10 / 2.0)


def test_an_op_that_raises_is_counted_not_propagated():
    rec = harness.Recorder(_StillWeather())
    rec.begin_round(1)
    assert rec.op("boom", 1, lambda: 1 / 0) is None
    assert rec.result().failed == 1 and "ZeroDivisionError" in rec.errors[0]


def test_weather_index_is_a_positive_ratio_near_one():
    weather = harness.Weather()
    assert 0.1 < weather.sample() < 10.0 and not weather.due()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_self_time_is_duration_minus_children():
    tracer = harness.Tracer()
    op = tracer.add("op", _usage(0.0), _usage(10.0), kind="k")
    core = tracer.add("core", _usage(10.0), _usage(17.0), parent=op, kind="k")
    tracer.add("run", _usage(17.0), _usage(22.0), parent=core, kind="k")
    tracer.add("run", _usage(22.0), _usage(23.0), parent=core, kind="k")
    assert tracer.self_time(op) == pytest.approx(10.0 - 7.0)
    assert tracer.self_time(core) == pytest.approx(7.0 - 5.0 - 1.0)
    assert tracer.reduce("run") == pytest.approx(3.0)  # median of 5 and 1
    assert tracer.reduce("core", "self") == pytest.approx(1.0)
    assert tracer.reduce("missing") == 0.0
    events = tracer.chrome_trace("t")["traceEvents"]
    assert [e["name"] for e in events] == ["op", "core", "run", "run"]
    assert events[1]["args"]["parent"] == op and events[0]["tid"] == 0 and events[1]["tid"] == 1


def test_tracer_call_records_the_clocks_around_the_call():
    tracer = harness.Tracer()
    value, sid = tracer.call("work", sum, [1, 2, 3], kind="k", op=7)
    span = tracer.spans[sid]
    assert value == 6 and span["op"] == 7 and span["usage"].wall >= 0.0


# ----------------------------------------------------------------------
# names: registry == BENCHMARK.json == what run.py emits
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == registry.benchmark_json()


def test_names_units_and_limits_of_the_contract():
    spec = registry.benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len(json.dumps(spec)) < 64 * 1024


@pytest.mark.parametrize("workload", sorted(registry.WORKLOADS))
def test_every_workload_emits_every_name_and_fails_nothing(workload):
    result = run.run_workload(workload, seed=3, seconds=1.0, trace=True, smoke=True)
    assert result["failed"] == 0, result["notes"]
    assert result["attempted"] >= 1
    assert sorted(result["per_layer"]) == sorted(m.name for m in registry.PER_LAYER)
    end_to_end = {m.name for m in registry.END_TO_END} - {"setup_s", "peak_rss_mb"}
    assert set(result["end_to_end"]) == end_to_end
    assert all(v > 0 for v in result["end_to_end"].values())
    assert all(np.isfinite(v) for v in result["per_layer"].values())
    assert result["setup"]["wall"] > 0 and result["peak_rss_mb"] > 0
    share = result["per_layer"]["core.plan_cache_hit_share"]
    if workload == "cold_churn":
        assert share == 0.0 and result["per_layer"]["core.plan_cache_misses"] > 0
    elif workload != "cluster_sim":
        assert share == 1.0
    assert any(e["name"] == "op" for e in result["chrome_trace"]["traceEvents"])


def test_command_line_prints_the_contract_object_last(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "prefill_paper", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke", "--out", str(out)],
        cwd=str(tmp_path), stdout=subprocess.PIPE, text=True, timeout=110,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] is True and final["failed"] == 0
    assert list(final["metrics"]) == [m.name for m in registry.END_TO_END]
    for m in registry.END_TO_END:
        assert final["metrics"][m.name]["unit"] == m.unit and final["metrics"][m.name]["value"] > 0
        assert any(line.startswith(f"{m.name} ") and line.endswith(f" {m.unit}") for line in lines)
    assert json.loads(out.read_text())["workload"] == "prefill_paper"


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cluster_sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def _runs(values):
    return dict(enumerate(values))


def test_compare_verdicts():
    steady = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert compare.verdict(steady, steady, "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, _runs([v * 1.2 for v in steady.values()]), "lower", 0.10) == "worse"
    assert compare.verdict(steady, _runs([v * 1.2 for v in steady.values()]), "higher", 0.10) == "better"
    assert compare.verdict(steady, _runs([v * 0.8 for v in steady.values()]), "lower", 0.10) == "better"
    noisy = _runs([100, 140, 70, 120, 80, 130, 60, 110, 90, 100])
    shifted = _runs([105, 150, 72, 118, 88, 128, 66, 120, 95, 104])
    assert compare.verdict(noisy, shifted, "lower", 0.10) == "unresolved"
    assert compare.spread(list(steady.values())) == pytest.approx(0.02, abs=0.01)
