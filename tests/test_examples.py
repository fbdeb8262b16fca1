"""Runs the end-to-end encoder example, so a broken example fails the suite."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_end_to_end_encoder_host_flops_formula():
    host_flops = runpy.run_path(str(EXAMPLES / "end_to_end_encoder.py"), run_name="example")["host_flops"]
    n, dim = 24, 16
    proj = 4 * n * dim * dim
    ffn = 2 * n * dim * 4 * dim
    assert host_flops(n, dim) == 2 * (proj + ffn)


def test_end_to_end_encoder_prints_salo_layers_and_split(capsys):
    runpy.run_path(str(EXAMPLES / "end_to_end_encoder.py"), run_name="example")["main"]()
    lines = capsys.readouterr().out.splitlines()
    for layer in (0, 1):
        assert any(
            line.startswith(f"layer {layer}: attention ") and " ms on SALO (" in line
            for line in lines
        ), layer
    assert any(line.startswith("attention fraction: ") for line in lines)
