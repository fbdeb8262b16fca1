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
from repro.scheduler.plan import TilePass


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
    return _index(n, global_tokens, qpos, lengths, residues, dilations, colgroup, colgroups, orders)
