"""A bucket floor below 1 is refused at every door that takes one.

Doubling a floor of 0 stays 0 and a negative one doubles downward, so
``length_bucket`` would loop forever; each constructor refuses the floor
before its first enqueue or prefill could reach that loop.  An alarm
turns a regression into a failure instead of a hung suite.
"""

import signal
from contextlib import contextmanager

import pytest

from repro.cluster import ClusterSimulator, DecodeClusterSimulator, DecodeSimConfig, SimConfig
from repro.decode import DecodeScheduler, DecodeSession
from repro.decode.session import KVState
from repro.patterns.window import SlidingWindowPattern
from repro.serving import BatchScheduler, ServingSession, length_bucket


@contextmanager
def _raises_within(seconds, match):
    def _hung(signum, frame):
        raise AssertionError(f"still looping after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(seconds)
    try:
        with pytest.raises(ValueError, match=match):
            yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("floor", [0, -4])
def test_length_bucket_names_floor(floor):
    with _raises_within(5, r"^floor must be >= 1"):
        length_bucket(5, floor)


_DOORS = {
    "BatchScheduler": lambda f: BatchScheduler(bucket_floor=f),
    "ServingSession": lambda f: ServingSession(bucket_floor=f),
    "SimConfig": lambda f: ClusterSimulator(SimConfig(bucket_floor=f)),
    "DecodeScheduler": lambda f: DecodeScheduler(bucket_floor=f),
    "DecodeSession": lambda f: DecodeSession(SlidingWindowPattern.causal(16, 6), bucket_floor=f),
    "KVState": lambda f: KVState(8, bucket_floor=f),
    "DecodeSimConfig": lambda f: DecodeClusterSimulator(DecodeSimConfig(bucket_floor=f)),
}


@pytest.mark.parametrize("door", sorted(_DOORS))
@pytest.mark.parametrize("floor", [0, -4])
def test_constructor_refuses_floor(door, floor):
    with _raises_within(5, r"bucket_floor must be >= 1"):
        _DOORS[door](floor)


def test_floor_of_one_still_buckets():
    assert [length_bucket(n, 1) for n in (1, 2, 3, 5)] == [1, 2, 4, 8]
    assert BatchScheduler(bucket_floor=1).bucket_floor == 1
