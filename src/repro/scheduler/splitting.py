"""Data splitting: fit patterns onto the finite PE array (Section 4.2).

*Sequence splitting* slices query groups into blocks of ``pe_rows``
(independent rows — no correction needed).  *Window splitting* slices a
band's key window into chunks of at most ``pe_cols`` columns; the partial
softmax outputs of the resulting passes are merged by the weighted-sum
module using the renormalising transformation of Eq. 2.

*Band packing* (a scheduler optimisation, on by default) places several
narrow band chunks side by side in a single pass so that multi-band
patterns such as ViL's 15 x 15 window keep the PE columns busy; the paper
reports >75 % PE utilisation on such workloads, which a strict
one-band-per-pass mapping cannot reach (15 of 32 columns ≈ 47 %).  Each
packed segment keeps its own diagonal key stream (one injection point per
segment).

The two splittings of one query group form a product, query blocks x
packed column groups, and :func:`tile_group` emits it as such — a
:class:`~repro.scheduler.plan.GroupTiling` whose has-work mask is
derived in closed form from each block's key bounds — without building
a pass object.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .plan import BandSegment, GroupTiling
from .reorder import GroupedBandJob

__all__ = ["chunk_band_job", "pack_segments", "residue_prefix", "tile_group"]


def chunk_band_job(job: GroupedBandJob, pe_cols: int) -> List[BandSegment]:
    """Window splitting: slice one band job into <= ``pe_cols`` wide segments."""
    if pe_cols < 1:
        raise ValueError(f"pe_cols must be >= 1, got {pe_cols}")
    segments = []
    start = 0
    while start < job.width:
        width = min(pe_cols, job.width - start)
        segments.append(
            BandSegment(
                band_index=job.band_index,
                rel_lo=job.rel_lo + start,
                width=width,
                key_residue=job.key_residue,
                dilation=job.dilation,
            )
        )
        start += width
    return segments


def pack_segments(
    segments: Sequence[BandSegment], pe_cols: int, pack: bool
) -> List[Tuple[BandSegment, ...]]:
    """Group segments into per-pass column assignments.

    With ``pack=False`` every segment gets its own pass (the strict
    mapping implied by a single key-injection port).  With ``pack=True``
    segments are packed first-fit in order, never splitting a segment
    across passes.
    """
    if not pack:
        return [(seg,) for seg in segments]
    groups: List[List[BandSegment]] = []
    widths: List[int] = []
    for seg in segments:
        placed = False
        for gi, used in enumerate(widths):
            if used + seg.width <= pe_cols:
                groups[gi].append(seg)
                widths[gi] += seg.width
                placed = True
                break
        if not placed:
            groups.append([seg])
            widths.append(seg.width)
    return [tuple(g) for g in groups]


def residue_prefix(tokens: Sequence[int], n: int, dilation: int) -> np.ndarray:
    """``upto[x]``: how many ``tokens`` are ``<= x`` and congruent to ``x``.

    Congruent modulo ``dilation``: the ids ``lo, lo + dilation, ..., hi``
    hold ``upto[hi] - upto[lo - dilation]`` tokens (``upto[hi]`` when
    ``lo < dilation``)."""
    marks = np.zeros(-(-n // dilation) * dilation, dtype=np.int64)
    marks[np.asarray(tokens, dtype=np.int64)] = 1
    return marks.reshape(-1, dilation).cumsum(axis=0).ravel()


def tile_group(
    jobs: Sequence[GroupedBandJob],
    n: int,
    pe_rows: int,
    pe_cols: int,
    pack: bool,
    first_query: int = 0,
    global_tokens: Sequence[int] = (),
) -> GroupTiling:
    """Sequence-split + window-split all jobs of one query group, as a product.

    All jobs share ``(query_residue, dilation, group_size)`` — bands
    attended by the *same* ordered queries — so their segments can share
    passes.  Blocks whose last query lies below ``first_query`` are cut.
    The has-work mask is closed form: over a block, a segment's keys are
    the positions ``start + rel_lo .. stop - 2 + rel_lo + width`` of its
    key residue class; some lie in ``[0, n)`` where that span meets
    ``[0, (n - 1 - key_residue) // dilation]``, and one is not global
    where the span's count of global tokens (:func:`residue_prefix`)
    falls short of its length.
    """
    residue, dilation, size = key = jobs[0].query_residue, jobs[0].dilation, jobs[0].group_size
    if any((job.query_residue, job.dilation, job.group_size) != key for job in jobs):
        raise ValueError("jobs of one group must share residue/dilation/size")
    segments = [seg for job in jobs for seg in chunk_band_job(job, pe_cols)]
    colgroups = pack_segments(segments, pe_cols, pack)
    starts = np.arange(0, size, pe_rows, dtype=np.int64)
    stops = np.minimum(starts + pe_rows, size)
    # Cutting the full tiling (never re-tiling) keeps each kept row's
    # passes and merge order, so its output bits; the cut reads query ids.
    live = residue + (stops - 1) * dilation >= first_query
    starts, stops = starts[live], stops[live]

    flat = [seg for cols in colgroups for seg in cols]
    rel = np.array([s.rel_lo for s in flat], dtype=np.int64)
    width = np.array([s.width for s in flat], dtype=np.int64)
    key_res = np.array([s.key_residue for s in flat], dtype=np.int64)
    lo = np.maximum(starts[:, None] + rel, 0)
    hi = np.minimum(stops[:, None] + rel + width - 2, (n - 1 - key_res) // dilation)
    work = lo <= hi  # (B, S): in-range keys
    if len(global_tokens):
        upto = residue_prefix(global_tokens, n, dilation)
        b, s = np.nonzero(work)
        lo_id = key_res[s] + lo[b, s] * dilation
        before = np.where(lo_id >= dilation, upto[np.maximum(lo_id - dilation, 0)], 0)
        work[b, s] = upto[key_res[s] + hi[b, s] * dilation] - before <= hi[b, s] - lo[b, s]
    counts = [len(cols) for cols in colgroups]
    has_work = np.logical_or.reduceat(work, np.cumsum([0] + counts[:-1]), axis=1)
    return GroupTiling(residue, dilation, starts, stops, colgroups, has_work)
