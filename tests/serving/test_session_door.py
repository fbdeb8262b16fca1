"""Session-door conservation (hypothesis).

Random interleavings of ``submit`` / ``step`` / ``drain`` over random
band structures and lengths, with ``pad_to_bucket`` on and off, through
a :class:`~repro.serving.QueueDepthCap` door:

* ``step`` runs at most one batch and leaves nothing in flight;
* after the final ``drain`` nothing is pending, the session's events
  keep the plane's laws (:func:`repro.cluster.events.check`: every
  submission ends exactly once, completed or rejected), and the rejected
  ones are exactly the submissions ``submit`` refused;
* every output equals a solo ``attend`` of its request — bit for bit
  without padding, to float round-off with it (a padded batch regroups
  the partial softmax).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import check
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.serving import QueueDepthCap, ServingSession

_STRUCTURES = (
    lambda n: longformer_pattern(n, 4, (0,)),
    lambda n: HybridSparsePattern(n, [Band(-4, 4, 2)], ()),
)
_LENGTHS = (18, 24, 30, 32, 40)
_HEADS, _HIDDEN = 2, 8
_REFERENCE = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())

_submit = st.tuples(
    st.just("submit"),
    st.integers(0, len(_STRUCTURES) - 1),
    st.sampled_from(_LENGTHS),
    st.sampled_from(("gold", "bulk")),
)
# Rounds of a burst of submits then a step or a drain, so a step often
# leaves batches queued behind the one it runs.
_rounds = st.lists(
    st.tuples(st.lists(_submit, max_size=6), st.sampled_from([("step",), ("drain",)])),
    max_size=6,
)


@settings(max_examples=40)
@given(
    rounds=_rounds,
    pad=st.booleans(),
    max_batch_size=st.integers(1, 4),
    max_depth=st.integers(1, 8),
)
def test_session_door_conserves_and_matches_solo(rounds, pad, max_batch_size, max_depth):
    session = ServingSession(
        salo=SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact()),
        max_batch_size=max_batch_size,
        pad_to_bucket=pad,
        admission=QueueDepthCap(max_depth=max_depth),
    )
    events = []
    session.listen(events.append)
    rng = np.random.default_rng(0)
    submitted, admitted = 0, {}
    ops = [op for submits, action in rounds for op in submits + [action]] + [("drain",)]
    for op in ops:
        if op[0] == "submit":
            pattern = _STRUCTURES[op[1]](op[2])
            q, k, v = (rng.standard_normal((pattern.n, _HIDDEN)) for _ in range(3))
            rid = session.submit(pattern, q, k, v, heads=_HEADS, slo_class=op[3])
            submitted += 1
            if rid is not None:
                admitted[rid] = (pattern, q, k, v)
        elif op[0] == "step":
            before = session.pending
            batch = session.step()
            assert (batch is None) == (before == 0)
            if batch is not None:
                assert batch.size <= max_batch_size
                assert session.pending == before - batch.size
            assert not session.worker.launched  # nothing left in flight
        else:
            session.drain()
            assert session.pending == 0 and not session.worker.launched

    assert not check(events)
    assert sum(session.rejected.values()) == submitted - len(admitted)
    assert set(session.results) == set(admitted)
    for rid, (pattern, q, k, v) in admitted.items():
        solo = _REFERENCE.attend(pattern, q, k, v, heads=_HEADS).output
        got = session.results[rid].output
        if pad:
            np.testing.assert_allclose(got, solo, rtol=1e-9, atol=1e-12)
        else:
            assert np.array_equal(got, solo)
