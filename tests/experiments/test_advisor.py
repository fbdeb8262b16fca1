"""Pinned advisor decision: winner, matrix, manifest at the fixed seed.

The committed example traffic (``examples/traffic_interactive_bulk.json``,
seed 11) plus the default search space must keep producing the *same
decision*: the same winner configuration, the same component ranking in
the ablation matrix, and — strongest of all — the same manifest hash on
the exported decision pack.  A change to any of these is a change to
what the advisor tells a user to deploy, and has to be a deliberate,
reviewed edit to the pins below rather than silent drift.
"""

import pytest

from repro.advisor import advise, export_pack
from repro.experiments.advisor import example_space, example_traffic, run

# The full-size decision, pinned end to end.  ``manifest`` covers every
# byte of the exported pack, so it moves iff any ranked margin, run id
# or report sentence moves.
WINNER_RUN_ID = "advise-06b346f07e7f"
ADVICE_ID = "advice-17ee7a3f0b29"
MANIFEST_HASH = "e90f2d6effd4d314"


@pytest.fixture(scope="module")
def result():
    return run(fast=False)


@pytest.fixture(scope="module")
def advice():
    return advise(example_traffic(), example_space(), ablate_top=1)


class TestPinnedDecision:
    def test_winner_configuration(self, result):
        top = result.rows[0]
        assert top["run_id"] == WINNER_RUN_ID
        assert top["workers"] == 4
        assert top["policy"] == "edf"
        assert top["admission"] == "admit-all"
        assert top["feasible"] and top["headroom"] == 3.0
        assert top["binding"] == "slo:bulk"

    def test_winner_runs_fewest_feasible_workers(self, result):
        feasible = [r for r in result.rows if r["feasible"]]
        assert feasible, "nothing feasible: the example traffic regressed"
        assert result.rows[0]["workers"] == min(r["workers"] for r in feasible)

    def test_small_pools_are_infeasible_with_interactive_binding(self, result):
        """The provisioning story: 1 and 2 workers cannot hold the
        interactive SLO at rho 1.2 — the tight class is what breaks."""
        for row in result.rows:
            if row["workers"] in (1, 2):
                assert not row["feasible"]
                assert row["binding"] == "slo:interactive"
                assert row["margin"] < 0

    def test_component_ranking(self, advice):
        """Ablation matrix at the fixed seed: stealing is *harmful*
        (plan-affinity loss costs goodput under a uniform overload: the
        winner without it serves 2.18x the goodput), EDF is worth about
        2% of goodput over FIFO — small, not neutral — and shedding is
        neutral for the saturated winner.  Importances are rounded to 6
        places, so they are pinned exactly."""
        matrix = {s.component: s for s in advice.ablation_of(advice.winner)}
        assert {c: s.importance for c, s in matrix.items()} == {
            "policy": 0.021692,
            "shedding": 0.0,
            "stealing": -1.181927,
        }
        assert matrix["stealing"].harmful
        assert not matrix["policy"].harmful
        assert not matrix["shedding"].harmful
        # Ranked most-important first, harmful at the bottom.
        order = [s.component for s in advice.ablation_of(advice.winner)]
        assert order == ["policy", "shedding", "stealing"]

    def test_exported_pack_manifest_is_pinned(self, advice, tmp_path):
        manifest = export_pack(advice, tmp_path / "pack")
        assert manifest["advice_id"] == ADVICE_ID
        assert manifest["winner_run_id"] == WINNER_RUN_ID
        assert manifest["manifest_hash"] == MANIFEST_HASH

    def test_rerun_rows_identical(self, result):
        assert run(fast=False).rows == result.rows

    def test_result_carries_stable_run_id(self, result):
        assert result.run_id is not None
        assert result.run_id == run(fast=False).run_id
        assert f"[{result.run_id}]" in result.render()

    def test_every_rank_has_unique_run_id(self, result):
        ids = [r["run_id"] for r in result.rows]
        assert len(set(ids)) == len(ids)

    def test_fast_mode_agrees_on_the_headline(self):
        """The smoke-sized search reaches the same conclusion: a 4-worker
        pool is needed, 2 workers miss the interactive SLO."""
        fast = run(fast=True)
        assert fast.rows[0]["workers"] == 4 and fast.rows[0]["feasible"]
        assert all(not r["feasible"] for r in fast.rows if r["workers"] == 2)
