"""What a decode sequence is when submitted, and what the scheduler reports.

:class:`DecodeRequest` is the prompt, output budget and token feedback of
one sequence; bad prompts are refused at construction, by
``request_id``, so they never reach a batch.  :class:`DecodeStepReport`
and :class:`DecodeRunResult` are what :class:`~repro.decode.DecodeScheduler`
says about one step and about a drained run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.salo import pattern_structure_key
from ..patterns.base import AttentionPattern

__all__ = ["DecodeRequest", "DecodeStepReport", "DecodeRunResult", "default_next_token"]

# next_token(attention_row, rng) -> (q_row, k_row, v_row)
TokenSource = Callable[[np.ndarray, np.random.Generator], Tuple[np.ndarray, np.ndarray, np.ndarray]]


def default_next_token(
    out_row: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic token feedback: attention output + per-request noise.

    Mixing the attention row in means any numerical divergence between
    two executions of the same sequence compounds instead of hiding —
    the determinism property leans on this.
    """
    hidden = out_row.shape[0]
    noise = rng.standard_normal(3 * hidden)
    base = np.tanh(out_row)
    return base + noise[:hidden], base + noise[hidden : 2 * hidden], base + noise[2 * hidden :]


@dataclass
class DecodeRequest:
    """One sequence to decode: prompt plus an output-token budget.

    Refused here, by ``request_id``: a non-finite prompt, K/V prompts
    shaped unlike Q, and heads that do not divide the hidden size — each
    would otherwise fail inside a step its batch-mates share.
    """

    request_id: str
    pattern: AttentionPattern
    prompt_q: np.ndarray
    prompt_k: np.ndarray
    prompt_v: np.ndarray
    max_new_tokens: int
    heads: int = 1
    seed: int = 0
    next_token: Optional[TokenSource] = None

    def __post_init__(self) -> None:
        if pattern_structure_key(self.pattern) is None:
            raise ValueError("decode requires a structured pattern")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        names = ("prompt_q", "prompt_k", "prompt_v")
        for name in names:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        q, who = self.prompt_q, f"request {self.request_id!r}"
        if q.ndim != 2:
            raise ValueError("prompt must be (L, hidden)")
        for name in names:
            if getattr(self, name).shape != q.shape:
                raise ValueError(f"{who}: {name} shape {getattr(self, name).shape} != prompt_q {q.shape}")
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{who}: {name} holds non-finite values")
        if self.heads < 1 or q.shape[1] % self.heads:
            raise ValueError(f"{who}: hidden size {q.shape[1]} not divisible by heads {self.heads}")

    def rng(self) -> np.random.Generator:
        """Fresh per-request generator; independent of batch placement."""
        return np.random.default_rng((self.seed & 0xFFFFFFFF, zlib.crc32(self.request_id.encode())))


@dataclass
class DecodeStepReport:
    """What one scheduler step did."""

    admitted: int = 0
    retired: int = 0
    failed: int = 0  # lanes dropped this step (see DecodeScheduler.failed)
    dispatches: int = 0
    tokens: int = 0
    lanes: int = 0
    bucket: int = 0  # largest attended (step) bucket this step


@dataclass
class DecodeRunResult:
    """Outputs and counters from draining a scheduler."""

    outputs: Dict[str, np.ndarray]
    steps: int
    dispatches: int
    tokens: int
    peak_lanes: int
    lane_steps: int
    cache_info: Dict

    @property
    def mean_occupancy(self) -> float:
        return self.lane_steps / self.steps if self.steps else 0.0
