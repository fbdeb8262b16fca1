"""Autoregressive decode: per-sequence KV state, step-window plans,
and continuous batching over the shared engine lane axis.

* :class:`DecodeSession` — one sequence, one token per step; a step
  attends only the :func:`step_window` that decides the new token, on
  one small plan reused via the SALO plan cache at every length.
* :class:`DecodeScheduler` — many sequences folded into one running
  batch; joins and retirements happen between steps.  It is a front on
  the cluster control plane: :mod:`repro.cluster.decode`'s
  ``ContinuousBatching`` decides its steps, as it does the fleet-level
  simulator's (TTFT / ITL / tokens-per-second).
"""

from .request import DecodeRequest, DecodeRunResult, DecodeStepReport, default_next_token
from .scheduler import DecodeScheduler
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
