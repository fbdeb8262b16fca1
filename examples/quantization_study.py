"""Quantisation study: the Table 3 protocol at laptop scale.

Trains a Longformer-style classifier on a synthetic global-aggregation
task, runs its attention layers on the SALO engine (32 x 32 array, Q8.4
inputs, per-pass PWL exponential and LUT reciprocal, Eq. 2 merges, 16-bit
outputs), finetunes with the engine's output as the forward value and the
float attention's gradient (straight-through), and reports the accuracy
triple — the claim under test being the paper's: quantisation costs well
under a point.

Run:  python examples/quantization_study.py        (~1 minute)
"""

from repro.nn import SentimentTask
from repro.patterns import longformer_pattern
from repro.quant import run_quantization_study


def main() -> None:
    task = SentimentTask(n=96, seed=11)
    pattern = longformer_pattern(96, 24, global_tokens=(0,))
    print("training a 2-layer Longformer-style classifier on the "
          "global-counting task ...")
    study = run_quantization_study(
        "sentiment",
        pattern,
        task.sample,
        vocab=task.vocab,
        num_classes=2,
        dim=32,
        heads=4,
        layers=2,
        train_steps=150,
        qat_steps=30,
        test_size=256,
        seed=1,
    )
    row = study.row()
    print("\n--- results (cf. paper Table 3) ---")
    print(f"original (float)          : {row['original_%']:.2f}%")
    print(f"post-training quantisation: {row['ptq_%']:.2f}%")
    print(f"after QAT finetuning      : {row['quantized_%']:.2f}%")
    print(f"degradation               : {row['degradation_pts']:.2f} points")
    print("\npaper (Longformer on IMDB): 95.34% -> 95.20% (0.14 points)")


if __name__ == "__main__":
    main()
