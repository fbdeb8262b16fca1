"""The :class:`Runtime` facade: pattern -> plan -> backend -> typed result.

One object, one frozen config, one entry surface.  Where callers used to
juggle ``SALO(...)`` constructor kwargs, engine-path booleans and
hand-picked baseline functions, a :class:`Runtime` is configured once by
a :class:`RuntimeConfig` (hashable, comparable, loggable) and then
serves :meth:`Runtime.attend` / :meth:`Runtime.estimate` against
whichever registered backend the config names::

    from repro.api import Runtime, RuntimeConfig

    rt = Runtime(RuntimeConfig(backend="functional"))
    result = rt.attend(pattern, q, k, v, heads=12)   # AttendResult
    cost = rt.estimate(pattern, heads=12, head_dim=64)  # EstimateResult

    Runtime(backend="dense").attend(pattern, q, k, v)   # kwarg shorthand

The facade adds nothing on the hot path beyond one attribute hop — the
``runtime_dispatch_overhead`` benchmark holds it to <5% over a direct
``SALO.attend`` call — and the backend instance is built once at
construction, so its warm state (plan caches) persists across calls
exactly as a bare engine's would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.config import HardwareConfig
from ..patterns.base import AttentionPattern
from .protocol import AttendResult, AttentionBackend, BackendCapabilities, EstimateResult
from .registry import backend_spec

__all__ = ["Runtime", "RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen configuration of one :class:`Runtime`.

    ``backend``
        Registered backend name (see
        :func:`repro.api.list_backends`).
    ``hardware``
        Hardware configuration for SALO-backed engines (``None``: the
        synthesised Table 1 instance).  Baseline backends that model no
        hardware ignore it (except Sanger, which scales to the published
        64 x 16 array regardless).
    ``plan_cache_size`` / ``strict_global_bound`` / ``check_buffers``
        Forwarded to the underlying SALO instance for engine backends;
        inert for oracle/model backends.
    """

    backend: str = "functional"
    hardware: Optional[HardwareConfig] = None
    plan_cache_size: int = 32
    strict_global_bound: bool = True
    check_buffers: bool = True


class Runtime:
    """Serve attention calls through one configured, registered backend."""

    def __init__(self, config: Optional[RuntimeConfig] = None, **overrides) -> None:
        """Build the runtime (and its backend instance) once.

        ``overrides`` are :class:`RuntimeConfig` field shorthands:
        ``Runtime(backend="systolic", hardware=cfg)`` is
        ``Runtime(RuntimeConfig(backend="systolic", hardware=cfg))``.
        """
        if config is None:
            config = RuntimeConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        self._spec = backend_spec(config.backend)
        self.backend: AttentionBackend = self._spec.factory(config)

    # ------------------------------------------------------------------
    @property
    def capabilities(self) -> BackendCapabilities:
        return self.backend.capabilities

    def attend(
        self,
        pattern: AttentionPattern,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        heads: int = 1,
        scale: Optional[float] = None,
        valid_lens: Optional[np.ndarray] = None,
    ) -> AttendResult:
        """Execute sparse attention on the configured backend."""
        return self.backend.attend(
            pattern, q, k, v, heads=heads, scale=scale, valid_lens=valid_lens
        )

    def estimate(
        self, pattern: AttentionPattern, heads: int = 1, head_dim: int = 64
    ) -> EstimateResult:
        """Run the configured backend's cost model."""
        return self.backend.estimate(pattern, heads=heads, head_dim=head_dim)

    def warm(self, patterns, heads: int = 1, head_dim: int = 64) -> dict:
        """Pre-compile the plans for ``patterns`` (one tiny dispatch each).

        The plan cache keys on pattern structure, head count and head
        dim — not batch size or data — so a single zero-operand dispatch
        per pattern leaves the cache warm for any later batch of the
        same shape.  Worker processes call this during start-up so
        steady-state traffic never pays a cold compile; returns
        :meth:`cache_info` after warming.
        """
        hidden = heads * head_dim
        for pattern in patterns:
            zeros = np.zeros((pattern.n, hidden))
            self.attend(pattern, zeros, zeros, zeros, heads=heads)
        return self.cache_info()

    def cache_info(self) -> dict:
        """The backend's plan-cache counters (zeros when it has none)."""
        return self.backend.cache_info()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Runtime(backend={self.config.backend!r})"
