"""Built-in backend adapters: every engine in the repo, one protocol.

Six backends register on import (``repro.api`` imports this module):

======================  ============================================
``functional``          Compiled batched SALO engine (the default).
``functional-legacy``   Per-pass SALO reference path.
``systolic``            Cycle-accurate micro-simulator (small configs,
                        one sequence at a time).
``dense``               Dense masked-score float64 oracle, with the
                        paper's calibrated GTX 1080Ti dense-attention
                        latency model as its cost model.
``sparse-reference``    Row-streaming exact float64 oracle (O(n·w)
                        memory; serves mask-only patterns too).
``sanger``              Sanger (MICRO 2021) analytic performance model
                        — estimates only, never executes.
======================  ============================================

The three SALO-backed adapters are registered by one loop over
:data:`repro.core.salo.ENGINE_BACKENDS`, which holds each engine's
factory, batch/valid-lens capability flags and summary, so the engine
table and the registry cannot drift apart.  All three are
``bit_exact``: they share one fixed-point datapath and must return
identical arrays.  The oracles compute exact float64 attention instead
— they agree with the SALO group only to quantisation tolerance (or to
float round-off under an ``exact()`` hardware config), which is
precisely what the parity suite asserts.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..baselines.cpu_gpu_model import GPU_1080TI
from ..baselines.sanger import SangerModel
from ..baselines.sparse_reference import masked_attention, sparse_attention_rowwise
from ..core.salo import ENGINE_BACKENDS, SALO
from ..patterns.base import AttentionPattern
from .protocol import (
    AttendResult,
    AttentionBackend,
    BackendCapabilities,
    CapabilityError,
    EstimateResult,
)
from .registry import register_backend

__all__ = [
    "SALOEngineBackend",
    "OracleBackend",
    "DenseOracleBackend",
    "SparseReferenceBackend",
    "SangerBackend",
    "engine_factory",
]


class SALOEngineBackend(AttentionBackend):
    """Adapter over a :class:`~repro.core.salo.SALO` instance.

    One adapter class serves all three plan-executing engine backends;
    the engine choice is the wrapped instance's ``backend`` name.  The
    SALO plan cache, buffer checks and cost models ride along unchanged,
    so wrapping adds one attribute hop and a dataclass construction per
    call.
    """

    def __init__(self, name: str, capabilities: BackendCapabilities, salo: SALO) -> None:
        self.name = name
        self.capabilities = capabilities
        self.salo = salo
        self._check_buffers = True

    def _attend(self, pattern, q, k, v, heads, scale, valid_lens) -> AttendResult:
        result = self.salo.attend(
            pattern,
            q,
            k,
            v,
            heads=heads,
            scale=scale,
            check_buffers=self._check_buffers,
            valid_lens=valid_lens,
        )
        return AttendResult(
            output=result.output, backend=self.name, stats=result.stats, raw=result
        )

    def _estimate(self, pattern, heads, head_dim) -> EstimateResult:
        stats = self.salo.estimate(pattern, heads=heads, head_dim=head_dim)
        return EstimateResult(
            latency_s=stats.latency_s,
            backend=self.name,
            cycles=stats.cycles,
            energy_j=stats.energy_j,
            utilization=stats.utilization,
            raw=stats,
        )

    def cache_info(self) -> dict:
        return self.salo.cache_info()


class OracleBackend(AttentionBackend):
    """Shared shell of the exact float64 oracles.

    Subclasses provide ``_single(pattern, q, k, v, scale)`` for one
    ``(n, d)`` head; the shell handles multi-head splitting and the
    batch loop (oracles advertise ``supports_batch`` for convenience,
    implemented as a per-sequence loop — they are correctness
    references, not throughput engines).
    """

    def _single(
        self, pattern: AttentionPattern, q, k, v, scale: Optional[float]
    ) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def _sequence(self, pattern, q, k, v, heads: int, scale: Optional[float]) -> np.ndarray:
        hidden = q.shape[1]
        if heads < 1 or hidden % heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by heads {heads}")
        d = hidden // heads
        outs = [
            self._single(
                pattern,
                q[:, h * d : (h + 1) * d],
                k[:, h * d : (h + 1) * d],
                v[:, h * d : (h + 1) * d],
                scale,
            )
            for h in range(heads)
        ]
        return np.concatenate(outs, axis=1)

    def _attend(self, pattern, q, k, v, heads, scale, valid_lens) -> AttendResult:
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if q.ndim == 3:
            out = np.stack(
                [self._sequence(pattern, q[b], k[b], v[b], heads, scale) for b in range(q.shape[0])]
            )
        else:
            out = self._sequence(pattern, q, k, v, heads, scale)
        return AttendResult(output=out, backend=self.name, stats=None, raw=None)


class DenseOracleBackend(OracleBackend):
    """Dense masked-score oracle + the paper's GPU dense cost model.

    Executes the pattern exactly by materialising the dense score matrix
    and masking excluded cells (:func:`masked_attention` — O(n^2)
    memory, fully vectorised: a structured pattern's mask is built from
    its bands and global tokens, not row by row).  Its cost model is
    the calibrated GTX 1080Ti dense-attention latency of
    :mod:`repro.baselines.cpu_gpu_model` — the Section 2.1 baseline the
    paper's speedups are quoted against, which charges the full
    quadratic cost regardless of sparsity.
    """

    name = "dense"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_valid_lens=False,
        bit_exact=False,
        has_cost_model=True,
        can_execute=True,
        needs_structure=False,
    )

    def _single(self, pattern, q, k, v, scale):
        return masked_attention(q, k, v, pattern, scale=scale)

    def _estimate(self, pattern, heads, head_dim) -> EstimateResult:
        hidden = heads * head_dim
        latency = GPU_1080TI.dense_attention_latency_s(pattern.n, hidden)
        return EstimateResult(
            latency_s=latency,
            backend=self.name,
            energy_j=latency * GPU_1080TI.dense_power_w,
            raw=GPU_1080TI,
        )


class SparseReferenceBackend(OracleBackend):
    """Row-streaming exact oracle (O(n·w) memory, no cost model)."""

    name = "sparse-reference"
    capabilities = BackendCapabilities(
        supports_batch=True,
        supports_valid_lens=False,
        bit_exact=False,
        has_cost_model=False,
        can_execute=True,
        needs_structure=False,
    )

    def _single(self, pattern, q, k, v, scale):
        return sparse_attention_rowwise(q, k, v, pattern, scale=scale)


class SangerBackend(AttentionBackend):
    """Sanger (MICRO 2021) analytic model: estimates, never executes."""

    name = "sanger"
    capabilities = BackendCapabilities(
        supports_batch=False,
        supports_valid_lens=False,
        bit_exact=False,
        has_cost_model=True,
        can_execute=False,
        needs_structure=False,
    )

    def __init__(self, model: Optional[SangerModel] = None) -> None:
        self.model = model if model is not None else SangerModel()

    def _estimate(self, pattern, heads, head_dim) -> EstimateResult:
        est = self.model.estimate(
            n=pattern.n,
            nnz=pattern.nnz(),
            heads=heads,
            head_dim=head_dim,
            sparsity=pattern.sparsity(),
        )
        return EstimateResult(
            latency_s=est.latency_s,
            backend=self.name,
            cycles=est.cycles,
            utilization=est.utilization,
            raw=est,
        )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------

def _salo_caps(mode: str) -> BackendCapabilities:
    _, batch, lens, _ = ENGINE_BACKENDS[mode]
    return BackendCapabilities(
        supports_batch=batch,
        supports_valid_lens=lens,
        bit_exact=True,
        has_cost_model=True,
        can_execute=True,
        needs_structure=True,
    )


def _salo_factory(mode: str) -> Callable[..., SALOEngineBackend]:
    caps = _salo_caps(mode)

    def factory(config) -> SALOEngineBackend:
        salo = SALO(
            config=config.hardware,
            strict_global_bound=config.strict_global_bound,
            plan_cache_size=config.plan_cache_size,
            backend=mode,
        )
        adapter = SALOEngineBackend(mode, caps, salo)
        adapter._check_buffers = config.check_buffers
        return adapter

    return factory


def engine_factory(name: str) -> Callable[[], object]:
    """A zero-argument factory of serving engines for backend ``name``.

    The serving and cluster layers hold one warm engine per worker; this
    helper maps a registered backend name to the object a worker should
    own — a bare :class:`SALO` for the plan-executing engine backends
    (so existing plan-cache/affinity accounting sees the same type it
    always has), or the registered :class:`AttentionBackend` adapter for
    everything else.  Unknown names raise ``KeyError`` with the
    registered names listed.
    """
    from .registry import backend_spec, get_backend

    spec = backend_spec(name)  # raises KeyError for unknown names
    if name in ENGINE_BACKENDS:
        return lambda: SALO(backend=name)
    if not spec.capabilities.can_execute:
        raise CapabilityError(
            f"backend {name!r} cannot serve traffic (can_execute=False); "
            "it is an analytic cost model"
        )
    return lambda: get_backend(name)


for _mode, (_, _, _, _summary) in ENGINE_BACKENDS.items():
    register_backend(_mode, _salo_factory(_mode), _salo_caps(_mode), summary=_summary)
register_backend(
    "dense",
    lambda config: DenseOracleBackend(),
    DenseOracleBackend.capabilities,
    summary="dense masked-score float64 oracle + GPU dense cost model",
)
register_backend(
    "sparse-reference",
    lambda config: SparseReferenceBackend(),
    SparseReferenceBackend.capabilities,
    summary="row-streaming exact float64 oracle",
)
register_backend(
    "sanger",
    lambda config: SangerBackend(),
    SangerBackend.capabilities,
    summary="Sanger (MICRO 2021) analytic performance model (estimate-only)",
)
