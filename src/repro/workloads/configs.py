"""Workload definitions of the paper's evaluation (Table 2 + Section 2.1).

Table 2 parameters:

============  ========  ========  ======  ======  ========
Workload      Seq len   Window    Hidden  Global  Sparsity
============  ========  ========  ======  ======  ========
Longformer    4096      512       768     1       0.125
ViL-stage1    56 x 56   15 x 15   192     1       0.072
ViL-stage2    28 x 28   15 x 15   384     1       0.288
============  ========  ========  ======  ======  ========

All attention layers use 64-dimensional heads (Longformer-Base has 12
heads; ViL-Medium-Wide stages 1/2 have 3/6).  BERT-base (Section 2.1's
motivation) is included for the quadratic-latency experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..patterns.base import AttentionPattern
from ..patterns.library import longformer_pattern, vil_pattern
from ..patterns.window import SlidingWindowPattern

__all__ = [
    "AttentionWorkload",
    "LONGFORMER_BASE_4096",
    "VIL_STAGE1",
    "VIL_STAGE2",
    "PAPER_WORKLOADS",
    "bert_base_workload",
    "longformer_workload",
]


@dataclass(frozen=True)
class AttentionWorkload:
    """One attention layer workload: a pattern plus layer hyperparameters."""

    name: str
    n: int
    hidden: int
    heads: int
    window: int
    num_global: int
    kind: str  # 'longformer' | 'vil' | 'dense'
    grid: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def pattern(self) -> AttentionPattern:
        """Build the sparse attention pattern of this workload."""
        if self.kind == "longformer":
            return longformer_pattern(self.n, self.window, tuple(range(self.num_global)))
        if self.kind == "vil":
            assert self.grid is not None
            side = int(round(self.window ** 0.5))
            return vil_pattern(
                self.grid[0], self.grid[1], side, tuple(range(self.num_global))
            )
        if self.kind == "dense":
            return SlidingWindowPattern(self.n, -(self.n - 1), self.n - 1)
        raise ValueError(f"unknown workload kind {self.kind!r}")

    def sparsity(self) -> float:
        return self.pattern().sparsity()

    def dense_flops(self) -> int:
        """MAC count of the dense (unsparsified) attention layer."""
        return 2 * 2 * self.n * self.n * self.hidden


LONGFORMER_BASE_4096 = AttentionWorkload(
    name="Longformer",
    n=4096,
    hidden=768,
    heads=12,
    window=512,
    num_global=1,
    kind="longformer",
)

VIL_STAGE1 = AttentionWorkload(
    name="ViL-stage1",
    n=56 * 56,
    hidden=192,
    heads=3,
    window=15 * 15,
    num_global=1,
    kind="vil",
    grid=(56, 56),
)

VIL_STAGE2 = AttentionWorkload(
    name="ViL-stage2",
    n=28 * 28,
    hidden=384,
    heads=6,
    window=15 * 15,
    num_global=1,
    kind="vil",
    grid=(28, 28),
)

#: The three attention layers of Figure 7 in paper order.
PAPER_WORKLOADS: Dict[str, AttentionWorkload] = {
    w.name: w for w in (LONGFORMER_BASE_4096, VIL_STAGE1, VIL_STAGE2)
}


def bert_base_workload(n: int) -> AttentionWorkload:
    """BERT-base dense attention layer at sequence length ``n`` (Section 2.1)."""
    return AttentionWorkload(
        name=f"BERT-base-{n}",
        n=n,
        hidden=768,
        heads=12,
        window=n,
        num_global=0,
        kind="dense",
    )


def longformer_workload(
    n: int, window: int = 512, hidden: int = 768, heads: int = 12, num_global: int = 1
) -> AttentionWorkload:
    """Longformer attention layer with custom sequence length/window."""
    return AttentionWorkload(
        name=f"Longformer-{n}",
        n=n,
        hidden=hidden,
        heads=heads,
        window=window,
        num_global=num_global,
        kind="longformer",
    )
