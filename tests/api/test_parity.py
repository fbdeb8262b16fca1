"""Cross-backend parity: all registered backends agree, flags are honest.

The contract of the unified surface: on a common pattern matrix every
executing backend returns the same attention output — *bitwise*
identical within the ``bit_exact`` group (they share one fixed-point
datapath), float-tight against the exact oracles when that datapath is
configured exact — and every capability flag is enforced, not merely
advertised (batch calls rejected cleanly when ``supports_batch`` is
False, and so on).
"""

import dataclasses

import numpy as np
import pytest

from repro.api import CapabilityError, Runtime, RuntimeConfig, backend_spec, list_backends
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode.session import decode_pattern
from repro.patterns.base import AttentionPattern, Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, star_transformer_pattern

#: Small pattern matrix: window+global, plain band, dilated band, star.
PATTERNS = [
    pytest.param(longformer_pattern(24, 8, (0,)), id="longformer-24"),
    pytest.param(HybridSparsePattern(24, [Band(-4, 4, 1)], ()), id="band-24"),
    pytest.param(HybridSparsePattern(32, [Band(-8, 8, 2)], ()), id="dilated-32"),
    pytest.param(star_transformer_pattern(20, 3), id="star-20"),
]

EXACT_CONFIG = RuntimeConfig(
    hardware=HardwareConfig(pe_rows=4, pe_cols=4).exact(), strict_global_bound=False
)
QUANT_CONFIG = RuntimeConfig(
    hardware=HardwareConfig(pe_rows=4, pe_cols=4), strict_global_bound=False
)

EXECUTING = [n for n in list_backends() if backend_spec(n).capabilities.can_execute]
BIT_EXACT = [n for n in EXECUTING if backend_spec(n).capabilities.bit_exact]
ORACLES = [n for n in EXECUTING if not backend_spec(n).capabilities.bit_exact]


def _data(pattern, heads=2, head_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    return tuple(rng.standard_normal((pattern.n, hidden)) for _ in range(3))


def _outputs(config, pattern, heads=2, head_dim=4):
    q, k, v = _data(pattern, heads, head_dim)
    outs = {}
    for name in EXECUTING:
        rt = Runtime(dataclasses.replace(config, backend=name))
        outs[name] = rt.attend(pattern, q, k, v, heads=heads).output
    return outs


class TestOutputParity:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_exact_datapath_all_backends_agree(self, pattern):
        """Exact numerics: everything float-tight, engines bitwise.

        With the quantiser disabled the systolic simulator's scalar
        summation order differs from the functional engine's vectorised
        one at the last ulp (the quantised datapath collapses that — see
        the test below), so the bitwise claim here covers the two
        functional modes and the rest is round-off-tight.
        """
        outs = _outputs(EXACT_CONFIG, pattern)
        reference = outs["functional"]
        assert np.array_equal(reference, outs["functional-legacy"])
        assert np.allclose(reference, outs["systolic"], atol=1e-12)
        for name in ORACLES:
            # Same mathematics, different merge trees: float round-off only.
            assert np.allclose(reference, outs[name], atol=1e-9), name

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_quantised_datapath_bit_exact_group_identical(self, pattern):
        """Default Q8.4 numerics: the hardware-faithful backends cannot
        diverge from each other by even one bit; the float oracles agree
        with each other to round-off and with the quantised group to
        quantisation error."""
        outs = _outputs(QUANT_CONFIG, pattern)
        reference = outs[BIT_EXACT[0]]
        for name in BIT_EXACT[1:]:
            assert np.array_equal(reference, outs[name]), name
        assert np.allclose(outs["dense"], outs["sparse-reference"], atol=1e-11)
        for name in ORACLES:
            assert np.allclose(reference, outs[name], atol=0.2), name

    def test_batch_axis_matches_looped_singles(self):
        """supports_batch backends: one batched call == b single calls."""
        pattern = longformer_pattern(24, 8, (0,))
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((3, 24, 8)) for _ in range(3))
        for name in EXECUTING:
            if not backend_spec(name).capabilities.supports_batch:
                continue
            rt = Runtime(dataclasses.replace(EXACT_CONFIG, backend=name))
            batched = rt.attend(pattern, q, k, v, heads=2).output
            for b in range(3):
                single = rt.attend(pattern, q[b], k[b], v[b], heads=2).output
                assert np.array_equal(batched[b], single), name


class TestLateStartPattern:
    """Rows below ``first_query`` hold no query: the oracles read 0.0 there
    as the engine does, and agree with it on every row from it on."""

    @pytest.mark.parametrize("name", ORACLES)
    def test_oracle_matches_salo(self, name):
        pattern = decode_pattern((Band(-63, 0),), (), 64, 64, first_query=32)
        q, k, v = _data(pattern)
        engine = SALO(EXACT_CONFIG.hardware, strict_global_bound=False)
        expected = engine.attend(pattern, q, k, v, heads=2).output
        out = Runtime(dataclasses.replace(EXACT_CONFIG, backend=name)).attend(
            pattern, q, k, v, heads=2
        ).output
        assert not out[:32].any() and not expected[:32].any()
        assert np.allclose(expected, out, atol=1e-9)

    @pytest.mark.parametrize("name", ORACLES)
    def test_keyless_query_still_raises(self, name):
        pattern = HybridSparsePattern(16, [Band(8, 8)], (), first_query=4)
        q, k, v = _data(pattern)
        rt = Runtime(dataclasses.replace(EXACT_CONFIG, backend=name))
        with pytest.raises(ValueError, match="no (attended )?key"):
            rt.attend(pattern, q, k, v, heads=2)


class _MaskOnlyPattern(AttentionPattern):
    """Opaque pattern: a mask with no band/global decomposition."""

    def __init__(self, n, mask):
        super().__init__(n)
        self._mask = mask

    def row_keys(self, i):
        return np.flatnonzero(self._mask[i])

    def mask(self):
        return self._mask


def _opaque(n=16):
    mask = np.tril(np.ones((n, n), dtype=bool))
    mask[0] = True  # keep row 0 non-empty under any slicing
    return _MaskOnlyPattern(n, mask)


class TestCapabilityHonesty:
    """Every advertised limitation is enforced with a CapabilityError."""

    @pytest.mark.parametrize("name", list_backends())
    def test_flags_are_enforced(self, name):
        caps = backend_spec(name).capabilities
        rt = Runtime(dataclasses.replace(EXACT_CONFIG, backend=name))
        pattern = longformer_pattern(24, 8, (0,))
        q, k, v = _data(pattern)

        if not caps.can_execute:
            with pytest.raises(CapabilityError, match="can_execute"):
                rt.attend(pattern, q, k, v, heads=2)
        else:
            assert rt.attend(pattern, q, k, v, heads=2).output.shape == (24, 8)
            qb, kb, vb = (np.stack([x, x]) for x in (q, k, v))
            if not caps.supports_batch:
                with pytest.raises(CapabilityError, match="batch"):
                    rt.attend(pattern, qb, kb, vb, heads=2)
            if not caps.supports_valid_lens:
                with pytest.raises(CapabilityError, match="valid_lens"):
                    rt.attend(pattern, q, k, v, heads=2, valid_lens=np.array([20]))

        if caps.has_cost_model:
            est = rt.estimate(pattern, heads=2, head_dim=4)
            assert est.latency_s > 0
            assert est.backend == name
        else:
            with pytest.raises(CapabilityError, match="cost model"):
                rt.estimate(pattern, heads=2, head_dim=4)

    @pytest.mark.parametrize("name", EXECUTING)
    def test_structure_requirement(self, name):
        caps = backend_spec(name).capabilities
        rt = Runtime(dataclasses.replace(EXACT_CONFIG, backend=name))
        pattern = _opaque()
        q, k, v = _data(pattern)
        if caps.needs_structure:
            with pytest.raises(CapabilityError, match="structure"):
                rt.attend(pattern, q, k, v, heads=2)
        else:
            out = rt.attend(pattern, q, k, v, heads=2).output
            assert out.shape == (16, 8)

    def test_mask_only_oracles_agree(self):
        """The two oracles serve the same opaque pattern identically."""
        pattern = _opaque()
        q, k, v = _data(pattern, seed=5)
        outs = {
            name: Runtime(backend=name).attend(pattern, q, k, v, heads=2).output
            for name in ORACLES
        }
        assert np.allclose(outs["dense"], outs["sparse-reference"], atol=1e-11)
