"""Measurement machinery shared by the five workloads.

Everything here observes the program from outside: clocks and
``getrusage`` snapshots around calls into public functions, spans kept
in memory, digests of outputs.  Nothing in ``src/`` is instrumented.

Clocks
------
``wall``  ``time.perf_counter``.
``user`` / ``sys`` / ``minflt``  ``getrusage(RUSAGE_SELF)``.  On this
sandbox the first touch of a page costs anywhere between 1 us and
100 us of *system* time for identical work (memory the VM never touched
is backed lazily by the host), so cold paths are read on the user clock
and wall clocks are only trusted on warm, allocation-free paths.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

__all__ = [
    "PINNED_ENV",
    "Usage",
    "usage_now",
    "median",
    "percentile",
    "supported_percentile",
    "grouped_median",
    "interleaved_minima",
    "digest",
    "Weather",
    "Tracer",
    "OpSample",
    "Recorder",
    "PassResult",
    "Check",
    "Workload",
    "fingerprint",
    "peak_rss_mb",
]

#: Environment every workload process runs under (one BLAS thread so
#: ``ru_utime`` is the work, a fixed hash seed so dict orders repeat).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
class Usage(NamedTuple):
    """One reading of every clock the harness uses."""

    wall: float
    user: float
    sys: float
    minflt: int

    def __sub__(self, other: "Usage") -> "Usage":  # type: ignore[override]
        return Usage(
            self.wall - other.wall,
            self.user - other.user,
            self.sys - other.sys,
            self.minflt - other.minflt,
        )


def usage_now() -> Usage:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return Usage(time.perf_counter(), ru.ru_utime, ru.ru_stime, ru.ru_minflt)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports kB


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


_LADDER = (99, 95, 90, 75)


def supported_percentile(samples: int) -> int:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    A percentile read off fewer than ten tail samples is mostly noise,
    so small samples fall back to the median (50).
    """
    for p in _LADDER:
        if samples * (100 - p) // 100 >= 10:
            return p
    return 50


def grouped_median(samples: Iterable, default: float = 0.0) -> float:
    """Mean over input kinds of the per-kind median of ``(kind, value)``.

    Probes run over a fixed mix of input shapes; a plain median over the
    mix would report whichever shape sits in the middle and ignore the
    rest, so each shape is reduced robustly first and the shapes are
    then averaged.
    """
    by_kind: Dict[object, List[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    if not by_kind:
        return default
    return float(statistics.fmean(median(v) for v in by_kind.values()))


def interleaved_minima(k: int, *fns: Callable[[], object]) -> List[float]:
    """Fastest of ``k`` calls of each function, in seconds.

    The cost of a thin layer is a few microseconds on top of a call that
    takes milliseconds and wobbles by more than that.  Calling the
    candidates in turn puts them through the same machine weather, the
    minimum drops one-sided noise, and reversing the order on every
    other pass keeps "runs second, finds the caches warm" from always
    favouring the same one.
    """
    best = [float("inf")] * len(fns)
    order = list(range(len(fns)))
    for i in range(k):
        for j in order if i % 2 == 0 else reversed(order):
            t0 = time.perf_counter()
            fns[j]()
            best[j] = min(best[j], time.perf_counter() - t0)
    return best


def digest(arrays: Iterable) -> str:
    """SHA-256 over the raw bytes of a sequence of arrays."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# machine weather
# ----------------------------------------------------------------------
class Weather:
    """Speed of the machine right now, from a fixed calibration kernel.

    The reference host is a 2-vCPU VM whose speed drifts by +-25% over
    tens of seconds for every kind of code at once (pure Python, numpy
    streaming and GEMM move together, correlation ~0.8).  Two runs taken
    a minute apart therefore differ by more than most changes worth
    making.  The kernel below — a Python loop, a numpy stream / gather /
    exp over 8 MB, and a small GEMM, ~25 ms in all — is timed between
    ops a few times per second; its time relative to the constants in
    ``REFERENCE_S`` (geometric mean over the three parts) is the
    *weather index* of that moment: 1.0 on the reference host on an
    average day, 1.3 when everything runs 30% slow.  Timed quantities
    are divided by the index of their round, which removes about half of
    the run-to-run spread; the raw readings are printed beside them.
    """

    #: Seconds each part takes on the reference host at index 1.0
    #: (medians over ten minutes of interleaved sampling).
    REFERENCE_S = (0.0090, 0.0075, 0.0021)
    #: Seconds between two samples while ops are running.
    CADENCE_S = 0.3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(1234)
        self._np = np
        self._square = rng.standard_normal((256, 256))
        self._stream = rng.standard_normal(1_000_000)
        self._index = rng.integers(0, 1_000_000, 250_000)
        self.last = 0.0
        self.sample()  # first call pays the allocations

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        x = 0
        for i in range(90_000):
            x += i * i % 7
        t1 = time.perf_counter()
        for _ in range(2):
            y = self._stream * 1.5 + 2.0
            np.exp(y[:150_000])
            self._stream[self._index]
        t2 = time.perf_counter()
        for _ in range(3):
            self._square @ self._square
        t3 = time.perf_counter()
        self.last = t3
        parts = (t1 - t0, t2 - t1, t3 - t2)
        index = 1.0
        for seconds, reference in zip(parts, self.REFERENCE_S):
            index *= seconds / reference
        return index ** (1.0 / len(parts))

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.CADENCE_S


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span log: name, start, end, parent, op id.

    Spans come from two places: around every end-to-end op of the traced
    pass, and around the *replay* of that op's layers — direct calls
    into each layer's public functions on the op's inputs, made right
    after the op.  A replayed span names its layer-wise parent, so a
    layer's self time is its span minus the spans recorded under it,
    whether or not the child ran inside the parent's interval.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._t0 = time.perf_counter()

    def add(
        self,
        name: str,
        before: Usage,
        after: Usage,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        kind: object = None,
    ) -> int:
        self.spans.append(
            {
                "name": name,
                "start": before.wall,
                "end": after.wall,
                "usage": after - before,
                "parent": parent,
                "op": op,
                "kind": kind,
            }
        )
        return len(self.spans) - 1

    def call(
        self,
        name: str,
        fn: Callable,
        *args,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        kind: object = None,
        **kwargs,
    ):
        """Run ``fn`` under a span; returns ``(result, span id)``."""
        before = usage_now()
        result = fn(*args, **kwargs)
        after = usage_now()
        return result, self.add(name, before, after, parent, op, kind)

    def duration(self, sid: int) -> float:
        s = self.spans[sid]
        return s["end"] - s["start"]

    def self_time(self, sid: int) -> float:
        """Span duration minus the durations of the spans parented to it."""
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == sid
        )
        return self.duration(sid) - children

    def samples(self, name: str, clock: str = "wall", kind: object = None) -> List[tuple]:
        """``(kind, reading)`` of every span called ``name``.

        ``clock`` is ``wall``/``user``/``sys`` (seconds), ``minflt``
        (count) or ``self`` (wall seconds net of child spans); ``kind``
        keeps only spans of that input kind.
        """
        out = []
        for sid, s in enumerate(self.spans):
            if s["name"] != name or (kind is not None and s["kind"] != kind):
                continue
            value = self.self_time(sid) if clock == "self" else getattr(s["usage"], clock)
            out.append((s["kind"], value))
        return out

    def reduce(self, name: str, clock: str = "wall", kind: object = None, scale: float = 1.0) -> float:
        """Grouped median of a span's readings, times ``scale`` (0 if none)."""
        return scale * grouped_median(self.samples(name, clock, kind))

    def chrome_trace(self, process: str) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto JSON (complete events)."""
        events = []
        for sid, s in enumerate(self.spans):
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0 if s["name"] == "op" else 1,
                    "ts": (s["start"] - self._t0) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "args": {"id": sid, "parent": s["parent"], "op": s["op"], "kind": repr(s["kind"])},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"process": process, "tid0": "end-to-end ops", "tid1": "layer replays"},
        }


# ----------------------------------------------------------------------
# op recording
# ----------------------------------------------------------------------
class OpSample(NamedTuple):
    round: int
    kind: object
    tokens: int
    headline: bool
    usage: Usage  # deltas over the op
    failed: bool


class Recorder:
    """Times the end-to-end ops of one pass (a sequence of rounds).

    Round 0 is executed exactly like the others and dropped from every
    statistic.  A round's time is the sum of its ops' times, so request
    building, result keeping, weather samples and checks between ops are
    never on a clock.  ``clock`` names the field of :class:`Usage` an
    op's time is read from (``wall``, or ``user`` for cold paths).
    """

    def __init__(self, weather: Weather, clock: str = "wall", tracer: Optional[Tracer] = None) -> None:
        self.weather = weather
        self.clock = clock
        self.tracer = tracer
        self.samples: List[OpSample] = []
        self.indices: List[tuple] = []  # (round, weather index)
        self.errors: List[str] = []
        self.round = 0
        self.last_span: Optional[int] = None

    def begin_round(self, r: int) -> None:
        self.round = r
        self.indices.append((r, self.weather.sample()))

    def op(self, kind, tokens: int, fn: Callable, *args, headline: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the clocks; returns its result.

        An op that raises is counted as failed and returns ``None`` —
        the workloads are chosen so that none does.
        """
        failed = False
        result = None
        before = usage_now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an op failing is a result, not a crash
            failed = True
            self.errors.append(f"round {self.round} op {kind!r}: {type(exc).__name__}: {exc}")
        after = usage_now()
        self.samples.append(
            OpSample(self.round, kind, tokens, headline, after - before, failed)
        )
        if self.tracer is not None and self.round > 0:
            self.last_span = self.tracer.add(
                "op", before, after, None, len(self.samples) - 1, kind
            )
        if self.weather.due():
            self.indices.append((self.round, self.weather.sample()))
        return result

    def result(self) -> "PassResult":
        return PassResult(
            [s for s in self.samples if s.round > 0],
            {
                r: median([i for rr, i in self.indices if rr == r])
                for r in {rr for rr, _ in self.indices if rr > 0}
            },
            self.clock,
            list(self.errors),
        )


class PassResult:
    """Statistics over the measured rounds of one pass.

    Every timed quantity exists twice: as read (``raw=True``) and
    divided by its round's weather index (the reported value).
    """

    def __init__(self, samples: List[OpSample], weather: Dict[int, float], clock: str,
                 errors: List[str]) -> None:
        self.samples = samples
        self.weather = weather
        self.clock = clock
        self.errors = errors
        self.rounds = sorted({s.round for s in samples})

    def _seconds(self, op: OpSample, raw: bool) -> float:
        seconds = getattr(op.usage, self.clock)
        return seconds if raw else seconds / self.weather[op.round]

    def _per_round(self, fn: Callable[[List[OpSample]], float]) -> List[float]:
        return [fn([s for s in self.samples if s.round == r]) for r in self.rounds]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.failed)

    @property
    def weather_index(self) -> float:
        return median(list(self.weather.values()))

    def tokens_per_s(self, raw: bool = False) -> float:
        return median(
            self._per_round(
                lambda ops: sum(o.tokens for o in ops) / sum(self._seconds(o, raw) for o in ops)
            )
        )

    def user_cpu_ms_per_ktoken(self, raw: bool = False) -> float:
        def cost(ops: List[OpSample]) -> float:
            user = sum(o.usage.user for o in ops)
            if not raw:
                user /= self.weather[ops[0].round]
            return 1e6 * user / sum(o.tokens for o in ops)

        return median(self._per_round(cost))

    def latencies_ms(self, raw: bool = False) -> List[float]:
        return [1e3 * self._seconds(s, raw) for s in self.samples if s.headline]

    @property
    def tail_percentile(self) -> int:
        return supported_percentile(sum(1 for s in self.samples if s.headline))

    def round_stats(self) -> List[dict]:
        """Per measured round: raw clock sums, tokens and weather index."""
        return [
            {
                "round": r,
                "seconds": sum(self._seconds(o, True) for o in self.samples if o.round == r),
                "user": sum(o.usage.user for o in self.samples if o.round == r),
                "sys": sum(o.usage.sys for o in self.samples if o.round == r),
                "tokens": sum(o.tokens for o in self.samples if o.round == r),
                "weather": self.weather[r],
            }
            for r in self.rounds
        ]

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        lat = self.latencies_ms(raw)
        return {
            "tokens_per_s": self.tokens_per_s(raw),
            "latency_p50_ms": percentile(lat, 50),
            "latency_tail_ms": percentile(lat, self.tail_percentile),
            "user_cpu_ms_per_ktoken": self.user_cpu_ms_per_ktoken(raw),
        }


class Check(NamedTuple):
    """Outcome of one round's output checks (made off the clocks)."""

    attempted: int
    failed: int
    digest: str
    notes: List[str]


# ----------------------------------------------------------------------
# workload interface
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload.

    ``setup`` builds inputs from the seed and whatever long-lived
    objects the rounds share; ``run_round`` performs one round's ops
    through ``rec.op``; ``check_round`` validates the round's outputs;
    ``layer_probes`` (traced runs only) calls the layers directly and
    returns per-layer metrics by registry name; ``close`` releases
    processes and shared memory and must be safe to call twice.
    """

    name = ""
    #: CPUs the workload needs: 1 pins the process to a single CPU (less
    #: migration noise), more leaves it on the whole affinity set.
    cpus = 1
    #: Wall seconds one round takes on the reference host; the number of
    #: measured rounds is ``--seconds`` divided by this (at least 3).
    nominal_round_s = 1.0
    #: Clock the ops are read on: ``wall``, or ``user`` where the wall
    #: clock is dominated by page-fault stalls that are not the program's.
    clock = "wall"
    #: Whether every round produces the same outputs as round 0 (then a
    #: round whose digest differs counts as failed).
    repeats_exactly = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def measured_rounds(self, seconds: float) -> int:
        if self.smoke:
            return 2
        return max(3, round(seconds / self.nominal_round_s))

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def check_round(self) -> Check:
        raise NotImplementedError

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# machine fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """What the numbers were taken on (printed with every result)."""
    import numpy as np

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # older numpy: no dict mode
        pass
    return {
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "numba": have_numba,
        "kernel": platform.release(),
        "executable": sys.executable,
    }
