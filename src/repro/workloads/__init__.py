"""Evaluation workloads (Table 2, Section 2.1)."""

from .configs import (
    LONGFORMER_BASE_4096,
    PAPER_WORKLOADS,
    VIL_STAGE1,
    VIL_STAGE2,
    AttentionWorkload,
    bert_base_workload,
    longformer_workload,
)
from .synthetic import correlated_qkv, random_qkv

__all__ = [
    "AttentionWorkload",
    "LONGFORMER_BASE_4096",
    "VIL_STAGE1",
    "VIL_STAGE2",
    "PAPER_WORKLOADS",
    "bert_base_workload",
    "longformer_workload",
    "random_qkv",
    "correlated_qkv",
]
