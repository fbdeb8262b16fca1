"""Tests for hardware/numerics configuration."""

import pytest

from repro.core.config import ConfigError, HardwareConfig, NumericsConfig


class TestHardwareConfig:
    def test_defaults_match_table1(self):
        c = HardwareConfig()
        assert (c.pe_rows, c.pe_cols) == (32, 32)
        assert (c.global_rows, c.global_cols) == (1, 1)
        assert c.frequency_hz == 1.0e9
        assert c.query_buffer_bytes == 16 * 1024
        assert c.key_buffer_bytes == 32 * 1024
        assert c.weighted_sum_entries == 33

    def test_pe_counts(self):
        c = HardwareConfig()
        assert c.num_pes == 1024
        assert c.num_global_pes == 64
        assert c.total_pes == 1088

    def test_cycle_time(self):
        assert HardwareConfig(frequency_hz=2e9).cycle_time_s() == 0.5e-9

    def test_rejects_empty_array(self):
        with pytest.raises(ConfigError):
            HardwareConfig(pe_rows=0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigError):
            HardwareConfig(frequency_hz=0)

    def test_rejects_bad_buffer(self):
        with pytest.raises(ConfigError):
            HardwareConfig(key_buffer_bytes=0)

    def test_exact_copy(self):
        c = HardwareConfig().exact()
        assert not c.numerics.quantize
        assert c.numerics.exp_mode == "exact"

    def test_hash_is_cached_but_never_pickled(self):
        """The plan cache hashes its config on every lookup, so the hash is
        computed once per object; a pickle leaves it out, because a hash of
        NumericsConfig's strings means nothing in another process."""
        import os
        import pickle
        import subprocess
        import sys

        config = HardwareConfig(pe_rows=8)
        assert hash(config) == hash(HardwareConfig(pe_rows=8)) and "_hash" in vars(config)
        wire = pickle.dumps(config)
        assert "_hash" not in vars(pickle.loads(wire))
        child = (
            "import pickle, sys; from repro.core.config import HardwareConfig; "
            "c = pickle.loads(sys.stdin.buffer.read()); "
            "assert hash(c) == hash(HardwareConfig(pe_rows=8)) and c == HardwareConfig(pe_rows=8)"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", child], input=wire, env=env, check=True)

    def test_with_numerics_is_pure(self):
        base = HardwareConfig()
        modified = base.with_numerics(NumericsConfig.exact())
        assert base.numerics.quantize
        assert not modified.numerics.quantize


class TestGlobalTokenBound:
    def test_paper_formula(self):
        """Section 5.2: min(ceil(n/#row), ceil(w/#col))."""
        c = HardwareConfig()
        assert c.max_global_tokens(4096, 512) == min(128, 16)

    def test_zero_global_pes(self):
        c = HardwareConfig(global_rows=0)
        assert c.max_global_tokens(4096, 512) == 0

    def test_small_sequence(self):
        c = HardwareConfig(pe_rows=4, pe_cols=4)
        assert c.max_global_tokens(16, 4) == min(4, 1)


class TestNumericsConfig:
    def test_paper_defaults(self):
        n = NumericsConfig()
        assert n.input_bits == 8
        assert n.input_frac_bits == 4
        assert n.output_bits == 16

    def test_exact_factory(self):
        n = NumericsConfig.exact()
        assert not n.quantize and n.exp_mode == "exact" and n.recip_mode == "exact"

    def test_rejects_bad_segments(self):
        with pytest.raises(ConfigError):
            NumericsConfig(exp_lut_segments=1)
