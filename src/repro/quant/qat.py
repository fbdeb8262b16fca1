"""Quantisation study harness: the Table 3 protocol.

The paper inserts QPyTorch quantisation layers into pretrained
Longformer/ViL attention, finetunes (quantisation-aware), and compares
accuracy against the float original.  :func:`run_quantization_study`
replays the protocol on our substrate:

1. train a float sparse-attention classifier on a synthetic task;
2. evaluate the float model ("Original");
3. set one :class:`AttentionQuantizer` on every attention layer, so each
   attention runs on its SALO engine (the 32 x 32 array of Table 1 with
   Q8.4 numerics), and evaluate directly (post-training quantisation);
4. finetune briefly (QAT): the forward value is the engine's output and
   the gradient the float masked attention's (straight-through), then
   evaluate ("Quantized").

The claim under test is the paper's: the quantised accuracy lands within
a few tenths of a point of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.config import NumericsConfig
from ..nn.attention import AttentionQuantizer
from ..nn.model import TransformerClassifier
from ..nn.training import evaluate_accuracy, train_classifier
from ..patterns.base import AttentionPattern

__all__ = ["QuantStudyResult", "run_quantization_study"]


@dataclass
class QuantStudyResult:
    """Accuracy triple of one quantisation study."""

    task_name: str
    original_accuracy: float
    ptq_accuracy: float  # post-training quantisation, no finetune
    qat_accuracy: float  # after quantisation-aware finetuning

    @property
    def degradation_points(self) -> float:
        """Original − quantised accuracy in percentage points (QAT)."""
        return (self.original_accuracy - self.qat_accuracy) * 100.0

    def row(self) -> dict:
        return {
            "task": self.task_name,
            "original_%": round(self.original_accuracy * 100.0, 2),
            "ptq_%": round(self.ptq_accuracy * 100.0, 2),
            "quantized_%": round(self.qat_accuracy * 100.0, 2),
            "degradation_pts": round(self.degradation_points, 2),
        }


def run_quantization_study(
    task_name: str,
    pattern: AttentionPattern,
    sampler: Callable[[int, int], Tuple[np.ndarray, np.ndarray]],
    *,
    vocab: Optional[int] = None,
    input_dim: Optional[int] = None,
    num_classes: int = 2,
    dim: int = 32,
    heads: int = 4,
    layers: int = 2,
    train_steps: int = 200,
    qat_steps: int = 40,
    batch: int = 16,
    lr: float = 3e-3,
    test_size: int = 256,
    seed: int = 0,
    numerics: Optional[NumericsConfig] = None,
) -> QuantStudyResult:
    """Run the full Table 3 protocol on one task."""
    model = TransformerClassifier(
        pattern,
        dim=dim,
        heads=heads,
        layers=layers,
        num_classes=num_classes,
        vocab=vocab,
        input_dim=input_dim,
        seed=seed,
    )
    test_x, test_y = sampler(test_size, 999_983)

    # 1-2: float training + evaluation.
    train_classifier(model, sampler, steps=train_steps, batch=batch, lr=lr)
    original = evaluate_accuracy(model, test_x, test_y)

    # 3: post-training quantisation.
    quantizer = AttentionQuantizer(numerics or NumericsConfig())
    model.set_quantizer(quantizer)
    ptq = evaluate_accuracy(model, test_x, test_y)

    # 4: quantisation-aware finetuning (engine forward, float gradient).
    if qat_steps > 0:
        train_classifier(
            model, sampler, steps=qat_steps, batch=batch, lr=lr * 0.1, lr_decay=False
        )
    qat = evaluate_accuracy(model, test_x, test_y)
    return QuantStudyResult(
        task_name=task_name,
        original_accuracy=original,
        ptq_accuracy=ptq,
        qat_accuracy=qat,
    )
