"""Autoregressive decode: per-sequence KV state, step-window plans,
and continuous batching over the shared engine lane axis.

* :class:`DecodeSession` — one sequence, one token per step; a step
  attends only the :func:`step_window` that decides the new token, on
  one small plan reused via the SALO plan cache at every length.
* :class:`DecodeScheduler` — many sequences folded into one running
  batch; joins and retirements happen between steps.
* :mod:`repro.cluster.decode` builds the fleet-level simulator (TTFT /
  ITL / tokens-per-second) on the same primitives.
"""

from .scheduler import (
    DecodeRequest,
    DecodeRunResult,
    DecodeScheduler,
    DecodeStepReport,
    default_next_token,
)
from .session import DecodeSession, KVState, decode_pattern, step_window

__all__ = [
    "DecodeRequest",
    "DecodeRunResult",
    "DecodeScheduler",
    "DecodeSession",
    "DecodeStepReport",
    "KVState",
    "decode_pattern",
    "default_next_token",
    "step_window",
]
