"""E7 — Table 3: accuracy of the original vs quantised models.

Published: Longformer IMDB 95.34 → 95.20, Hyperpartisan 93.42 → 93.46,
ViL ImageNet-1K 82.87 → 82.80 — i.e. Q8.4 quantisation of the attention
datapath costs at most ~0.15 accuracy points (and sometimes helps).

Offline substitution (DESIGN.md §2): three synthetic tasks exercising the
same attention mechanisms — global aggregation (IMDB-like), local
co-occurrence (Hyperpartisan-like) on Longformer patterns, and 2-D texture
classification (ImageNet-like) on a ViL pattern.  The claim under test is
the *degradation bound*, not the absolute accuracy.
"""

from __future__ import annotations

from ..nn.data import PhraseTask, SentimentTask, ShapesTask
from ..patterns.library import longformer_pattern, vil_pattern
from ..quant.qat import run_quantization_study
from .base import ExperimentResult, register

#: Published Table 3 accuracies (original, quantised).
PAPER_TABLE3 = {
    "IMDB": (95.34, 95.20),
    "Hyperpartisan": (93.42, 93.46),
    "ImageNet-1K": (82.87, 82.80),
}


@register("table3_quantization")
def run(fast: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E7/table3",
        title="Original vs quantised accuracy (synthetic task substitution)",
    )
    steps = 80 if fast else 260
    qat_steps = 15 if fast else 50
    test_size = 128 if fast else 384

    studies = []

    sentiment = SentimentTask(n=96, seed=11)
    studies.append(
        (
            "IMDB-like (global aggregation)",
            "IMDB",
            run_quantization_study(
                "sentiment",
                longformer_pattern(96, 24, (0,)),
                sentiment.sample,
                vocab=sentiment.vocab,
                num_classes=2,
                dim=32,
                heads=4,
                layers=2,
                train_steps=steps,
                qat_steps=qat_steps,
                test_size=test_size,
                seed=1,
            ),
        )
    )

    phrase = PhraseTask(n=96, seed=13)
    studies.append(
        (
            "Hyperpartisan-like (local co-occurrence)",
            "Hyperpartisan",
            run_quantization_study(
                "phrase",
                longformer_pattern(96, 16, (0,)),
                phrase.sample,
                vocab=phrase.vocab,
                num_classes=2,
                dim=32,
                heads=4,
                layers=2,
                train_steps=steps,
                qat_steps=qat_steps,
                test_size=test_size,
                seed=2,
            ),
        )
    )

    # The 4-class texture task needs a slightly wider model and a longer
    # schedule than the binary text tasks to converge.
    shapes = ShapesTask(grid=10, feat=8, seed=17, noise=0.3)
    studies.append(
        (
            "ImageNet-like (2-D texture)",
            "ImageNet-1K",
            run_quantization_study(
                "shapes",
                vil_pattern(10, 10, 5, (0,)),
                shapes.sample,
                input_dim=shapes.feat,
                num_classes=shapes.num_classes,
                dim=48,
                heads=4,
                layers=2,
                train_steps=steps + 80,
                qat_steps=qat_steps,
                test_size=test_size,
                seed=3,
            ),
        )
    )

    for label, paper_key, study in studies:
        orig_p, quant_p = PAPER_TABLE3[paper_key]
        result.rows.append(
            {
                "task": label,
                "original_%": round(study.original_accuracy * 100, 2),
                "ptq_%": round(study.ptq_accuracy * 100, 2),
                "quantized_%": round(study.qat_accuracy * 100, 2),
                "degradation_pts": round(study.degradation_points, 2),
                "paper_orig": orig_p,
                "paper_quant": quant_p,
                "paper_deg": round(orig_p - quant_p, 2),
            }
        )
    result.notes.append(
        "absolute accuracies are task-specific; the reproduced claim is the "
        "degradation column: quantising the attention datapath to Q8.4 costs "
        "well under one accuracy point after finetuning"
    )
    result.notes.append(
        "ptq_% and quantized_% are the 32x32 SALO engine's output (SALO.attend: "
        "per-pass PWL exp and LUT reciprocal joined by Eq. 2 merges); QAT "
        "finetunes through it with the float attention's gradient"
    )
    return result
