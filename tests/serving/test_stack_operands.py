"""stack_batch_operands: the one packing of a batch's members.

Local dispatch (``execute_batch``) and the transport wire (a
multiprocess transport stacks straight into its shared-memory slot via
``out=``) share it, so the cases here cover both: fresh arrays and
reused memory with stale contents must come out the same, and a member
that does not fit the batch is named before anything is written.
"""

import numpy as np
import pytest

from repro.core.salo import SALO
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, Batch
from repro.serving.session import execute_batch, stack_batch_operands

N, HIDDEN = 32, 8


def _request(request_id, n=N, hidden=HIDDEN, seed=0):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((n, hidden)) for _ in range(3))
    return AttentionRequest(
        request_id=request_id, pattern=longformer_pattern(n, 4, (0,)), q=q, k=k, v=v, heads=2
    )


def _stale(b, n=N, hidden=HIDDEN):
    return tuple(np.full((b, n, hidden), 7.5) for _ in range(3))


class TestStacking:
    def test_uniform_members_stack_without_lens(self):
        members = [_request(i, seed=i) for i in range(3)]
        q, k, v, lens = stack_batch_operands(members, members[0].pattern)
        assert lens is None
        for got, name in zip((q, k, v), "qkv"):
            assert np.array_equal(got, np.stack([getattr(r, name) for r in members]))

    def test_mixed_members_pad_with_zero_tails(self):
        members = [_request("a", n=N), _request("b", n=20, seed=1)]
        q, k, v, lens = stack_batch_operands(members, longformer_pattern(N, 4, (0,)))
        assert lens.dtype == np.int64 and lens.tolist() == [N, 20]
        assert np.array_equal(q[1, :20], members[1].q)
        assert not q[1, 20:].any() and not k[1, 20:].any() and not v[1, 20:].any()

    @pytest.mark.parametrize("lengths", [(N, N, N), (N, 20, 12)])
    def test_out_overwrites_stale_memory_exactly(self, lengths):
        members = [_request(i, n=n, seed=i) for i, n in enumerate(lengths)]
        pattern = longformer_pattern(N, 4, (0,))
        fresh = stack_batch_operands(members, pattern)
        out = _stale(len(members))
        got = stack_batch_operands(members, pattern, out=out)
        for region, array, want in zip(out, got[:3], fresh[:3]):
            assert array is region  # stacked in place, no staging copy
            assert np.array_equal(region, want)
        assert (got[3] is None) == (fresh[3] is None)


class TestMemberNamedOnMisfit:
    """A member that does not fit is refused by id before any write."""

    @pytest.mark.parametrize(
        "odd", [dict(hidden=2 * HIDDEN), dict(n=2 * N)], ids=["hidden", "too-long"]
    )
    def test_direct_call_names_the_member_and_writes_nothing(self, odd):
        members = [_request("ok-1"), _request("odd-7", seed=1, **odd), _request("ok-2", seed=2)]
        out = _stale(3)
        with pytest.raises(ValueError) as info:
            stack_batch_operands(members, members[0].pattern, out=out)
        message = str(info.value)
        assert "'odd-7'" in message and f"({N}, {HIDDEN})" in message
        assert "ok-" not in message
        assert all((region == 7.5).all() for region in out)

    def test_execute_batch_names_the_member(self):
        members = [_request("short"), _request("long-3", n=2 * N, seed=1)]
        batch = Batch(members, key="k", bucket=N)  # no pad_to: runs at the first's length
        with pytest.raises(ValueError, match=r"'long-3'.*\(32, 8\)"):
            execute_batch(SALO(), batch)
