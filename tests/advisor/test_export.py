"""Decision packs: artefact set, manifest pinning, byte determinism."""

import hashlib
import json

import pytest

from repro.advisor import (
    RunCache,
    SearchSpace,
    TrafficSpec,
    advise,
    export_pack,
)

TRAFFIC = TrafficSpec(num_requests=60, rho=1.2)
SPACE = SearchSpace(workers=(2, 4), policies=("greedy-fifo", "edf"))

ARTEFACTS = ("candidates.json", "comparison.csv", "DECISION_REPORT.md")


@pytest.fixture(scope="module")
def advice():
    return advise(TRAFFIC, SPACE, ablate_top=1)


class TestExportPack:
    def test_writes_all_artefacts_plus_manifest(self, advice, tmp_path):
        manifest = export_pack(advice, tmp_path / "pack")
        for name in ARTEFACTS:
            assert (tmp_path / "pack" / name).exists()
        on_disk = json.loads((tmp_path / "pack" / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["winner_run_id"] == advice.winner.run_id
        assert manifest["advice_id"] == advice.advice_id

    def test_manifest_hashes_match_file_bytes(self, advice, tmp_path):
        manifest = export_pack(advice, tmp_path / "pack")
        for name in ARTEFACTS:
            blob = (tmp_path / "pack" / name).read_bytes()
            assert manifest["files"][name] == hashlib.sha256(blob).hexdigest()

    def test_reexport_is_byte_identical(self, advice, tmp_path):
        """No timestamps, no float drift: two exports of the same advice
        produce the same manifest hash — what the regression test pins."""
        a = export_pack(advice, tmp_path / "a")
        b = export_pack(advice, tmp_path / "b")
        assert a == b
        for name in ARTEFACTS:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_recomputed_advice_reproduces_manifest(self, advice, tmp_path):
        """The whole pipeline is deterministic end to end: advise again
        from scratch, export, same manifest hash."""
        again = advise(TRAFFIC, SPACE, ablate_top=1)
        assert export_pack(again, tmp_path / "again") == export_pack(
            advice, tmp_path / "orig"
        )

    def test_candidates_json_carries_the_full_decision(self, advice, tmp_path):
        export_pack(advice, tmp_path / "pack")
        payload = json.loads((tmp_path / "pack" / "candidates.json").read_text())
        assert payload == advice.to_dict()
        assert len(payload["ranked"]) == len(SPACE.candidates())

    def test_report_names_winner_and_harmful_components(self, advice, tmp_path):
        export_pack(advice, tmp_path / "pack")
        report = (tmp_path / "pack" / "DECISION_REPORT.md").read_text()
        assert advice.winner.run_id in report
        assert advice.winner.candidate.label in report
        assert "HARMFUL" in report  # stealing, pinned in test_advise

    def test_csv_has_one_row_per_candidate(self, advice, tmp_path):
        export_pack(advice, tmp_path / "pack")
        lines = (tmp_path / "pack" / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(advice.ranked)
        assert lines[0].startswith("rank,run_id,workers,")

    def test_cached_and_uncached_advice_export_identically(self, tmp_path):
        cached = advise(TRAFFIC, SPACE, cache=RunCache(tmp_path / "cache"), ablate_top=1)
        resumed = advise(TRAFFIC, SPACE, cache=RunCache(tmp_path / "cache"), ablate_top=1)
        assert export_pack(cached, tmp_path / "x") == export_pack(
            resumed, tmp_path / "y"
        )
