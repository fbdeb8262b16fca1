"""Test oracle: the global-row merge chain, one ``_merge_part`` per batch.

``FunctionalEngine._merge_global_rows`` folds every global-row batch
into the global queries' running outputs with the weights of all
batches computed in one pass (an exclusive prefix sum of the exact
fixed-point weights).  This module keeps the walk it replaced: batch by
batch, each through the engine's masked Eq. 2 primitive
``FunctionalEngine._merge_part`` on chain-local ``(lanes, G)`` state,
so tests can hold the vectorised chain bit-equal to it.  Tests import
it as ``_merge_oracle``: the root ``conftest.py`` puts ``tests/`` on the
import path.
"""

from typing import Tuple

import numpy as np


def merge_chain(engine, out, w, has) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``(out, w, has, parts, merges)`` of the sequential chain over the
    batch axis of ``out (lanes, B, G, d)`` / ``w`` / ``has (lanes, B, G)``.

    Consumes ``out`` as the engine does (a merge scales its part in
    place); returns fresh arrays.  Cells no batch covers hold whatever
    the walk left there: callers compare covered cells only.
    """
    lanes, num_b, num_g, d = out.shape
    out_run = np.zeros((lanes, num_g, d))
    w_run = np.zeros((lanes, num_g))
    has_run = np.zeros((lanes, num_g), dtype=bool)
    parts_run = np.zeros((lanes, num_g), dtype=np.int64)
    merges = 0
    for b in range(num_b):
        merges += engine._merge_part(
            out_run, w_run, has_run, parts_run, out[:, b], w[:, b], has[:, b]
        )
    return out_run, w_run, has_run, parts_run, merges
