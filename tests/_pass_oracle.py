"""Test oracle: the ``PassIndex`` of a materialised ``TilePass`` list.

``DataScheduler.schedule`` derives its plan's index from the tiling
product (:func:`~repro.scheduler.compiled.tiling_index`).  This module
derives the same index from the pass objects, one sweep over the list,
the way a pass list was indexed before the scheduler emitted a product;
tests compare the two and build reference plans on it.

It indexes *regular* lists only — every pass's rows are consecutive
group positions, every column group has one dilation, and the blocks of
a query group agree on one column order — which is what the scheduler
emits and what the shared derivation (``compiled._index``) assumes.  Any
other list fails an assertion here rather than being indexed wrongly.
Tests import it as ``_pass_oracle``: the root ``conftest.py`` puts
``tests/`` on the import path.
"""

from typing import Sequence

import numpy as np

from repro.scheduler.compiled import PassIndex, _index, _merge_order
from repro.scheduler.plan import GroupTiling, TilePass


def pass_index(passes: Sequence[TilePass], n: int, global_tokens: Sequence[int]) -> PassIndex:
    """The :class:`PassIndex` of a regular pass list (see module docstring)."""
    num = len(passes)
    lengths = np.fromiter((len(tp.q_positions) for tp in passes), dtype=np.int64, count=num)
    residues = np.fromiter((tp.query_residue for tp in passes), dtype=np.int64, count=num)
    dilations = np.fromiter((tp.dilation for tp in passes), dtype=np.int64, count=num)
    colgroup = np.empty(num, dtype=np.int64)
    ids: dict = {}  # (residue, dilation, segment tuple) -> column group
    blocks: dict = {}  # (residue, dilation) -> {block start: [column groups]}
    for i, tp in enumerate(passes):
        q = tp.q_positions
        assert q and q == tuple(range(q[0], q[0] + len(q))), (
            f"pass {i}: rows {q} are not consecutive group positions"
        )
        assert len({s.dilation for s in tp.segments}) == 1, (
            f"pass {i}: its column group mixes dilations"
        )
        gkey = (tp.query_residue, tp.dilation)
        colgroup[i] = cg = ids.setdefault((gkey, tp.segments), len(ids))
        blocks.setdefault(gkey, {}).setdefault(q[0], []).append(cg)
    colgroups = [segs for _, segs in ids]
    orders = []
    for gkey, seqs in blocks.items():
        nodes = sorted({cg for seq in seqs.values() for cg in seq})
        order = _merge_order(nodes, [e for seq in seqs.values() for e in zip(seq, seq[1:])])
        assert order is not None, f"query group {gkey}: its blocks disagree on a column order"
        orders.append((gkey[1], tuple(order)))

    rows = np.arange(int(lengths.max()) if num else 1)
    qpos = np.zeros((num, len(rows)), dtype=np.int64)
    qpos[rows < lengths[:, None]] = np.fromiter(
        (p for tp in passes for p in tp.q_positions), dtype=np.int64, count=int(lengths.sum())
    )
    tilings = [
        _tiling(gkey, order, passes, colgroup, colgroups) for gkey, (_, order) in zip(blocks, orders)
    ]
    walk = [i for t, (_, order) in zip(tilings, orders) for i in _cells(t, order, passes, colgroup)]
    assert walk == list(range(num)), "passes do not run block by block in master order"
    return _index(
        n, global_tokens, qpos, lengths, residues, dilations, colgroup, colgroups, orders, tilings
    )


def _tiling(gkey, order, passes, colgroup, colgroups) -> GroupTiling:
    """A query group's :class:`GroupTiling`: its blocks x its column groups
    in master order, work where the list has a pass."""
    mine = [i for i, tp in enumerate(passes) if (tp.query_residue, tp.dilation) == gkey]
    spans = sorted({(passes[i].q_positions[0], len(passes[i].q_positions)) for i in mine})
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    assert len(set(starts.tolist())) == len(spans), f"query group {gkey}: blocks of two lengths"
    column = {cg: j for j, cg in enumerate(order)}
    has_work = np.zeros((len(spans), len(order)), dtype=bool)
    block = {s: b for b, s in enumerate(starts.tolist())}
    for i in mine:
        has_work[block[passes[i].q_positions[0]], column[int(colgroup[i])]] = True
    stops = starts + np.array([length for _, length in spans], dtype=np.int64)
    segments = tuple(colgroups[cg] for cg in order)
    return GroupTiling(gkey[0], gkey[1], starts, stops, segments, has_work)


def _cells(tiling, order, passes, colgroup):
    """The list positions of a tiling's has-work cells, row-major."""
    where = {
        (tp.query_residue, tp.dilation, tp.q_positions[0], int(colgroup[i])): i
        for i, tp in enumerate(passes)
    }
    key = (tiling.residue, tiling.dilation)
    return [
        where[key + (int(tiling.starts[b]), order[c])] for b, c in zip(*np.nonzero(tiling.has_work))
    ]
