"""The optional numba-fused engine: gating and bit-identity.

Two contracts, both testable without numba installed:

* Absence is clean: when numba does not import, the module stays inert,
  ``functional-jit`` is nowhere in the engine table or the registry, and
  ``engines list`` renders without it.
* The fused kernels are the same arithmetic: running them as plain
  Python (numba stubbed with a pass-through ``njit``) must reproduce the
  plain tiled engine bit for bit — numba compiles the same float64
  operation sequence, so this is exactly the equivalence the jit backend
  ships with.
"""

import importlib
import sys
import types

import numpy as np
import pytest

import repro.accelerator.jit as jit_module
from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.core.salo import ENGINE_BACKENDS
from repro.patterns.library import longformer_pattern
from repro.scheduler.scheduler import DataScheduler


def _plan(n=256, w=64, heads=4, head_dim=32):
    pattern = longformer_pattern(n, w, (0,))
    return DataScheduler(HardwareConfig()).schedule(
        pattern, heads=heads, head_dim=head_dim
    )


class TestGating:
    def test_module_imports_without_numba(self):
        assert jit_module.HAVE_NUMBA in (True, False)

    def test_registry_matches_probe(self):
        from repro.api import list_backends

        assert ("functional-jit" in ENGINE_BACKENDS) == jit_module.HAVE_NUMBA
        assert ("functional-jit" in list_backends()) == jit_module.HAVE_NUMBA

    @pytest.mark.skipif(jit_module.HAVE_NUMBA, reason="numba present")
    def test_engine_refuses_without_numba(self):
        with pytest.raises(ImportError, match="numba"):
            jit_module.JitFunctionalEngine(_plan())

    def test_engines_list_renders(self, capsys):
        from repro.cli import main

        assert main(["engines", "list"]) == 0
        out = capsys.readouterr().out
        assert ("functional-jit" in out) == jit_module.HAVE_NUMBA


@pytest.fixture
def stubbed_jit():
    """Reload the jit module with numba stubbed to a pass-through njit.

    The fused kernels then run as ordinary Python loops — same float64
    operation sequence numba would compile — so bit-identity against the
    plain engine checks the jit backend's arithmetic on images without
    numba.  The module is reloaded clean afterwards so the probe result
    seen by the registry tests stays truthful.
    """
    real = sys.modules.get("numba")
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        def deco(fn):
            return fn

        return deco

    fake.njit = njit
    sys.modules["numba"] = fake
    try:
        yield importlib.reload(jit_module)
    finally:
        if real is None:
            del sys.modules["numba"]
        else:
            sys.modules["numba"] = real
        importlib.reload(jit_module)


class TestFusedKernelsBitIdentity:
    def test_matches_plain_engine(self, stubbed_jit):
        plan = _plan()
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((256, 128)) for _ in range(3))
        a = FunctionalEngine(plan).run(q, k, v).output
        b = stubbed_jit.JitFunctionalEngine(plan).run(q, k, v).output
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("head_dim,scale", [(8, None), (32, None), (16, 0.3)])
    def test_fused_table_at_non_power_of_two_scales(self, stubbed_jit, head_dim, scale):
        """The exp table now exists at these scales, so the fused kernels
        run; they must equal the plain engine's elementwise ``exp_into``."""
        plan = _plan(n=128, w=32, heads=2, head_dim=head_dim)
        rng = np.random.default_rng(head_dim)
        q, k, v = (rng.standard_normal((128, 2 * head_dim)) for _ in range(3))
        fused = stubbed_jit.JitFunctionalEngine(plan)
        assert fused._exp_table(scale or head_dim**-0.5) is not None
        plain = FunctionalEngine(plan)
        plain._exp_table = lambda scale: None
        assert np.array_equal(
            fused.run(q, k, v, scale=scale).output, plain.run(q, k, v, scale=scale).output
        )

    def test_matches_on_unfusable_fallback(self, stubbed_jit):
        """valid_lens forces the inherited numpy epilogue — still identical."""
        plan = _plan()
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((1, 256, 128)) for _ in range(3))
        lens = np.array([200])
        a = FunctionalEngine(plan).run(q, k, v, valid_lens=lens).output
        b = stubbed_jit.JitFunctionalEngine(plan).run(q, k, v, valid_lens=lens).output
        assert np.array_equal(a, b)
