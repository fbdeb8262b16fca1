"""``TraceSpec`` is the one request-stream shape; ``RequestFactory`` draws it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import WorkloadSpec
from repro.core.salo import pattern_structure_key
from repro.serving import TraceSpec, synthetic_trace
from repro.serving.trace import pattern_families

SRC = Path(__file__).resolve().parents[2] / "src"


def _eager_trace(spec):
    """The reference: families from the spec's one stream, each
    request's q/k/v from its own ``(seed, request id)`` stream, arrays
    up front (ids from 1)."""
    rng = np.random.default_rng(spec.seed)
    families = pattern_families(spec)
    hidden = spec.heads * spec.head_dim
    requests = []
    for rid in range(1, spec.num_requests + 1):
        pattern = families[int(rng.integers(len(families)))]
        data = np.random.default_rng((spec.seed, rid))
        q, k, v = (data.standard_normal((pattern.n, hidden)) for _ in range(3))
        requests.append((rid, pattern, q, k, v))
    return requests


@pytest.mark.parametrize("spec", [
    TraceSpec(num_requests=24, n=64, window=8, heads=2, head_dim=4, seed=3),
    TraceSpec(num_requests=12, n=128, window=16, heads=4, head_dim=4, mixed=False,
              global_tokens=(0, 5), seed=11),
    TraceSpec(num_requests=6),
])
def test_synthetic_trace_matches_the_eager_loop(spec):
    trace = synthetic_trace(spec)
    reference = _eager_trace(spec)
    assert len(trace) == len(reference)
    for request, (rid, pattern, q, k, v) in zip(trace, reference):
        assert request.request_id == rid  # the factory's serial
        assert "q" in vars(request)  # drawn before synthetic_trace returns
        assert pattern_structure_key(request.pattern) == pattern_structure_key(pattern)
        assert (request.heads, request.arrival_s) == (spec.heads, 0.0)
        assert (request.deadline_s, request.slo_class) == (None, "default")
        for got, want in zip(request.operands(), (q, k, v)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cls", [TraceSpec, WorkloadSpec])
@pytest.mark.parametrize("field", ["num_requests", "heads", "head_dim"])
@pytest.mark.parametrize("value", [0, -5])
def test_spec_refuses_empty_streams_and_layouts(cls, field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        cls(**{field: value})


@pytest.mark.parametrize("cls", [TraceSpec, WorkloadSpec])
@pytest.mark.parametrize("fields, match", [
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(n=64, window=65), "window must be <= n=64, got 65"),
    (dict(n=12, window=4), "mixed traffic needs n >= 16, got n=12"),
])
def test_spec_refuses_by_field_name(cls, fields, match):
    """A stream no family can be built for fails at the spec, naming the
    field the user passed, not a derived family's window."""
    with pytest.raises(ValueError, match=match):
        cls(**fields)


def test_a_uniform_stream_may_be_short():
    assert TraceSpec(n=12, window=4, mixed=False).n == 12


@pytest.mark.parametrize("module", ["repro.cluster", "repro.serving.trace", "repro.advisor"])
def test_module_imports_first(module):
    """No import cycle between the traffic description and its users,
    whichever side a program imports first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
