"""End-to-end transformer encoder with SALO-accelerated attention (Fig. 3).

Runs a 2-layer sparse encoder (``repro.nn.EncoderBlock``s in eval mode)
where every attention executes on the SALO engine and the host provides
projections/FFN — then shows the Amdahl split: how much of a whole layer
the accelerator actually covers, which is why the paper evaluates the
attention kernel in isolation.

Run:  python examples/end_to_end_encoder.py
"""

import numpy as np

from repro import longformer_pattern
from repro.nn import AttentionQuantizer, EncoderBlock, Tensor, no_grad

N, DIM, HEADS, LAYERS = 256, 128, 2, 2
HOST_GFLOPS = 50.0  # a modest GEMM engine for the projections and FFN


def host_flops(n: int, dim: int) -> int:
    """FLOPs of one layer's host-side blocks: Q/K/V/O projections and a
    4x-wide FFN."""
    return 2 * (4 * n * dim * dim + 2 * n * dim * 4 * dim)


def main() -> None:
    pattern = longformer_pattern(N, 32, global_tokens=(0,))
    quantizer = AttentionQuantizer()  # Table 1's 32x32 array, Q8.4
    rng = np.random.default_rng(0)
    blocks = [EncoderBlock(DIM, HEADS, 4 * DIM, pattern, rng).eval() for _ in range(LAYERS)]
    for block in blocks:
        block.attn.set_quantizer(quantizer)

    x = Tensor(rng.standard_normal((N, DIM)))
    with no_grad():
        for block in blocks:
            x = block(x)

    st = quantizer.salo.estimate(pattern, heads=HEADS, head_dim=DIM // HEADS)
    print(f"=== {LAYERS}-layer sparse encoder, n={N}, dim={DIM} ===")
    for i in range(LAYERS):
        print(f"layer {i}: attention {st.latency_ms:.4f} ms on SALO "
              f"({st.timing.num_passes} passes, util {st.utilization:.1%}), "
              f"host blocks {host_flops(N, DIM) / 1e6:.1f} MFLOPs")
    print(f"final hidden states: shape {x.shape}, norm {np.linalg.norm(x.data):.1f}")

    # Whole-layer latency split (Amdahl view) at the paper's scale.
    paper = quantizer.salo.estimate(longformer_pattern(4096, 512, (0,)), heads=12, head_dim=64)
    host_s = host_flops(4096, 768) / (HOST_GFLOPS * 1e9)
    print("\n=== whole-layer split, Longformer-Base-4096 ===")
    print(f"attention on SALO : {paper.latency_s * 1e3:8.2f} ms")
    print(f"host proj + FFN   : {host_s * 1e3:8.2f} ms ({HOST_GFLOPS:.0f} GFLOPS host)")
    print(f"attention fraction: {paper.latency_s / (paper.latency_s + host_s):.1%} of the layer")
    print("(the attention share shrinks once SALO removes the quadratic part —"
          " which is why the paper measures the attention kernel in isolation)")


if __name__ == "__main__":
    main()
