"""Decision packs: the advisor's exportable, hash-pinned artefact.

A pack is a directory with four files:

* ``candidates.json``  — the full :meth:`Advice.to_dict` payload
  (every ranked candidate, every scan point, every ablation row);
* ``comparison.csv``   — the ranked table, one row per candidate, for
  spreadsheets and diff-friendly review;
* ``DECISION_REPORT.md`` — the human story: winner, why (margins,
  headroom, binding constraint), component importances, runner-ups;
* ``manifest.json``    — the SHA-256 of each artefact plus one
  pack-level :func:`~repro.experiments.base.manifest_hash` over them.

Every byte is a pure function of the :class:`~repro.advisor.advise.Advice`
— no timestamps, no hostnames, no float repr drift — so re-exporting
the same advice reproduces the manifest hash exactly.  That is the
property the regression test pins: a changed manifest hash means the
*decision* changed, not the clock.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Union

from ..experiments.base import manifest_hash
from .advise import Advice

__all__ = ["export_pack"]

CANDIDATES_JSON = "candidates.json"
COMPARISON_CSV = "comparison.csv"
REPORT_MD = "DECISION_REPORT.md"
MANIFEST_JSON = "manifest.json"


def _sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _candidates_bytes(advice: Advice) -> bytes:
    return (json.dumps(advice.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def _comparison_bytes(advice: Advice) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "rank", "run_id", "workers", "policy", "admission", "backend",
            "max_batch_size", "feasible", "headroom", "binding", "binding_margin",
            "goodput_rps", "met_rate", "p99_ms",
        ]
    )
    for i, r in enumerate(advice.ranked):
        c = r.candidate
        writer.writerow(
            [
                i + 1, r.run_id, c.workers, c.policy, c.admission, c.backend,
                c.max_batch_size, r.feasible,
                "" if r.headroom is None else f"{r.headroom:g}",
                r.binding.name, f"{r.binding.margin:.6f}",
                f"{r.goodput_rps:.3f}",
                f"{r.nominal.metrics['deadline_met_rate']:.4f}",
                f"{r.nominal.metrics['latency_p99_ms']:.3f}",
            ]
        )
    return buf.getvalue().encode()


def _report_bytes(advice: Advice) -> bytes:
    w = advice.winner
    lines = [
        "# Provisioning decision",
        "",
        f"Advice `{advice.advice_id}` over traffic `{advice.traffic.traffic_id}` "
        f"({advice.traffic.num_requests} requests, {advice.traffic.arrival} arrivals "
        f"at rho {advice.traffic.rho:g}, {len(advice.traffic.slo)} SLO classes).",
        "",
        "## Winner",
        "",
        f"**{w.candidate.label}** (`{w.run_id}`)",
        "",
    ]
    if w.feasible:
        lines.append(
            f"Feasible at nominal load with headroom to x{w.headroom:g}; the "
            f"binding constraint is `{w.binding.name}`"
            + (
                f", which fails first at x{w.binding_scale:g}."
                if w.binding_scale is not None
                else f" (thinnest margin, {w.binding.margin:+.4f}, never failing inside the grid)."
            )
        )
    else:
        lines.append(
            f"**No candidate was feasible at nominal load.** Closest miss: "
            f"`{w.binding.name}` at margin {w.binding.margin:+.4f}; consider "
            "relaxing that target or widening the search space."
        )
    lines.append("")
    lines.append("Nominal-load margins:")
    lines.append("")
    for c in w.nominal.constraints:
        lines.append(f"- `{c.name}`: {c.margin:+.4f} ({'ok' if c.ok else 'VIOLATED'})")
    matrix = advice.ablation_of(w)
    if matrix:
        lines += [
            "",
            "## Component importance (winner)",
            "",
            "| component | importance | goodput without | feasible without | flag |",
            "|---|---|---|---|---|",
        ]
        for s in matrix:
            lines.append(
                f"| {s.component} | {s.importance:+.4f} | "
                f"{s.ablated_goodput_rps:.0f} rps | "
                f"{'yes' if s.feasible_without else 'no'} | "
                f"{'HARMFUL' if s.harmful else ''} |"
            )
    lines += [
        "",
        "## Ranked candidates",
        "",
        "| rank | config | feasible | headroom | binding | margin | goodput |",
        "|---|---|---|---|---|---|---|",
    ]
    for i, r in enumerate(advice.ranked):
        lines.append(
            f"| {i + 1} | {r.candidate.label} | {'yes' if r.feasible else 'NO'} | "
            f"{'x%g' % r.headroom if r.headroom else '-'} | {r.binding.name} | "
            f"{r.binding.margin:+.4f} | {r.goodput_rps:.0f} rps |"
        )
    lines.append("")
    return "\n".join(lines).encode()


def export_pack(advice: Advice, out_dir: Union[str, Path]) -> dict:
    """Write the four-artefact decision pack; return the manifest.

    The returned dict is exactly what lands in ``manifest.json``:
    ``{"files": {name: sha256}, "manifest_hash": ..., "advice_id": ...,
    "winner_run_id": ...}``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artefacts = {
        CANDIDATES_JSON: _candidates_bytes(advice),
        COMPARISON_CSV: _comparison_bytes(advice),
        REPORT_MD: _report_bytes(advice),
    }
    files = {name: _sha256_bytes(blob) for name, blob in artefacts.items()}
    manifest = {
        "advice_id": advice.advice_id,
        "winner_run_id": advice.winner.run_id,
        "files": files,
        "manifest_hash": manifest_hash(files),
    }
    for name, blob in artefacts.items():
        (out / name).write_bytes(blob)
    with open(out / MANIFEST_JSON, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
