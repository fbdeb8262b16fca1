"""Tests for the experiment drivers: each must regenerate the paper's
artefact with the right shape (who wins, by roughly what factor)."""

import numpy as np
import pytest

from repro.experiments import all_experiments, get_experiment
from repro.experiments.base import ExperimentResult, format_table


class TestRegistry:
    def test_all_registered(self):
        names = set(all_experiments())
        expected = {
            "sec21_quadratic",
            "table1_synthesis",
            "table2_workloads",
            "fig7a_speedup",
            "fig7b_energy",
            "sec63_sanger",
            "table3_quantization",
            "ablation_pe_array",
            "ablation_splitting",
            "ablation_dataflow",
            "ablation_exp_lut",
            "ablation_global_tokens",
            "ablation_band_packing",
        }
        assert expected <= names

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("nope")


class TestFormatTable:
    def test_alignment(self):
        txt = format_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": "x"}])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_empty(self):
        assert format_table([]) == "(no rows)"


class TestSec21:
    def test_quadratic_ratio(self):
        res = get_experiment("sec21_quadratic")(fast=True)
        row2048 = res.row_for("n", 2048)
        row8192 = res.row_for("n", 8192)
        assert row2048["gpu_model_ms"] == pytest.approx(9.20, rel=0.05)
        assert row8192["gpu_model_ms"] == pytest.approx(145.70, rel=0.05)
        assert row8192["gpu_model_ms"] / row2048["gpu_model_ms"] == pytest.approx(16, rel=0.02)


class TestTable1:
    def test_power_area_close(self):
        res = get_experiment("table1_synthesis")(fast=True)
        power = res.row_for("parameter", "Power (mW)")
        area = res.row_for("parameter", "Area (mm2)")
        assert power["ours"] == pytest.approx(532.66, rel=0.02)
        assert area["ours"] == pytest.approx(4.56, rel=0.02)


class TestTable2:
    def test_nominal_sparsity_matches_paper(self):
        res = get_experiment("table2_workloads")(fast=True)
        for row in res.rows:
            assert row["nominal_sparsity"] == pytest.approx(
                row["paper_sparsity"], abs=0.002
            )


class TestFig7a:
    @pytest.fixture(scope="class")
    def res(self):
        return get_experiment("fig7a_speedup")(fast=True)

    def test_speedups_within_15pct_of_paper(self, res):
        for row in res.rows:
            assert row["speedup_cpu"] == pytest.approx(row["paper_cpu"], rel=0.15)
            assert row["speedup_gpu"] == pytest.approx(row["paper_gpu"], rel=0.15)

    def test_ordering_preserved(self, res):
        """The paper's shape: CPU speedups ~80-100x, GPU 7-26x, Longformer
        smallest GPU speedup."""
        by_name = {r["workload"]: r for r in res.rows}
        assert by_name["Longformer"]["speedup_gpu"] < by_name["ViL-stage1"]["speedup_gpu"]
        assert by_name["ViL-stage1"]["speedup_gpu"] < by_name["ViL-stage2"]["speedup_gpu"]

    def test_averages(self, res):
        avg = res.row_for("workload", "Average")
        assert avg["speedup_cpu"] == pytest.approx(89.33, rel=0.1)
        assert avg["speedup_gpu"] == pytest.approx(17.66, rel=0.1)


class TestFig7b:
    @pytest.fixture(scope="class")
    def res(self):
        return get_experiment("fig7b_energy")(fast=True)

    def test_savings_within_20pct_of_paper(self, res):
        for row in res.rows:
            assert row["saving_cpu"] == pytest.approx(row["paper_cpu"], rel=0.2)
            assert row["saving_gpu"] == pytest.approx(row["paper_gpu"], rel=0.2)

    def test_gpu_saving_ordering(self, res):
        """Paper shape: GPU energy saving decreases from Longformer to
        ViL-stage2."""
        vals = [r["saving_gpu"] for r in res.rows[:3]]
        assert vals[0] > vals[1] > vals[2]

    def test_averages_and_savings_exceed_speedups(self, res):
        avg = res.row_for("workload", "Average")
        assert avg["saving_cpu"] == pytest.approx(183.86, rel=0.15)
        assert avg["saving_gpu"] == pytest.approx(272.04, rel=0.15)
        # Shape: energy savings exceed the corresponding Fig. 7a speedups.
        lf = res.row_for("workload", "Longformer")
        assert lf["saving_cpu"] > 83.0
        assert lf["saving_gpu"] > 7.4


class TestSec63:
    def test_longformer_near_paper(self):
        res = get_experiment("sec63_sanger")(fast=True)
        row = res.row_for("workload", "Longformer")
        assert row["salo_speedup"] == pytest.approx(1.33, rel=0.15)
        assert row["salo_util"] > 0.75
        assert 0.55 <= row["sanger_util"] <= 0.75


class TestAblations:
    def test_pe_array_rows(self):
        res = get_experiment("ablation_pe_array")(fast=True)
        assert len(res.rows) >= 2
        lat = res.column("latency_ms")
        assert lat[0] > lat[-1]  # bigger array is faster

    def test_splitting_exact(self):
        res = get_experiment("ablation_splitting")(fast=True)
        for row in res.rows:
            assert row["max_err_vs_oracle"] < 1e-10

    def test_dataflow_reuse(self):
        res = get_experiment("ablation_dataflow")(fast=True)
        for row in res.rows:
            assert row["reuse_factor"] > 3.0
        assert res.row_for("workload", "Longformer")["reuse_factor"] > 10.0

    def test_exp_lut_sqnr(self):
        res = get_experiment("ablation_exp_lut")(fast=True)
        assert all(row["attention_sqnr_db"] > 15 for row in res.rows)

    def test_global_bound(self):
        res = get_experiment("ablation_global_tokens")(fast=True)
        for row in res.rows:
            assert row["schedulable"] == (row["global_tokens"] <= row["bound"])

    def test_band_packing_lifts_utilization(self):
        res = get_experiment("ablation_band_packing")(fast=True)
        packed = res.row_for("pack_bands", True)
        unpacked = res.row_for("pack_bands", False)
        assert packed["utilization"] > 0.75 > unpacked["utilization"]
        assert packed["latency_ms"] < unpacked["latency_ms"]

    def test_pipelining_speedup_bounded(self):
        res = get_experiment("ablation_pipelining")(fast=True)
        for row in res.rows:
            assert 1.0 < row["speedup"] < 2.0
            assert row["pipelined_ms"] < row["sequential_ms"]

    def test_design_space_sweep(self):
        res = get_experiment("design_space")(fast=True)
        assert len(res.rows) == 4  # 2x2 geometries in fast mode
        assert sum(row["best_edp"] for row in res.rows) == 1
        pareto = [row for row in res.rows if row["pareto"]]
        assert pareto

    def test_seq_scaling_shapes(self):
        res = get_experiment("seq_scaling")(fast=True)
        # SALO latency grows ~linearly; speedup over dense grows with n.
        salo = res.column("salo_ms")
        assert salo == sorted(salo)
        ns = res.column("n")
        assert salo[-1] / salo[0] < 1.3 * (ns[-1] / ns[0])
        dense = res.column("speedup_vs_dense")
        assert dense == sorted(dense)
        # Speedup over the sparse GPU baseline stays near Fig 7a's 7.38x.
        for row in res.rows:
            assert 6.5 < row["speedup_vs_sparse"] < 8.5


class TestRendering:
    def test_render_contains_title(self):
        res = get_experiment("table2_workloads")(fast=True)
        assert "table2" in res.render()

    def test_result_type(self):
        res = get_experiment("ablation_dataflow")(fast=True)
        assert isinstance(res, ExperimentResult)
