"""Optional numba-fused variant of the tiled functional engine.

The tiled compiled path of :class:`~repro.accelerator.functional.
FunctionalEngine` is already allocation-free and GEMM-dominated, but its
epilogue still walks each score band several times (grid-code mapping,
table gather, masking, row reduction).  When `numba <https://numba.
pydata.org>`_ is importable, :class:`JitFunctionalEngine` fuses those
walks into single compiled loops that perform *the same float64
operations in the same order*, so its results remain bit-identical to
the plain engine — the parity suite asserts exactly that on the
quantised backend group.

The dependency is strictly optional and never shipped with the repo:
importing this module is always safe, :data:`HAVE_NUMBA` reports the
probe result, and the ``functional-jit`` backend only registers with
:mod:`repro.api` (and :data:`repro.core.salo.ENGINE_BACKENDS`) when the
probe succeeds.  Without numba the module stays inert — no stub engine,
no half-working fallback — so ``engines list`` simply doesn't show the
backend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arena import ARENA
from .functional import FunctionalEngine

__all__ = ["HAVE_NUMBA", "JitFunctionalEngine"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common case in CI images
    numba = None
    HAVE_NUMBA = False


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True, fastmath=False)
    def _fused_exp_rowsum(band, table, cmul, off, w):
        """Grid-code map + table gather + row sum, one pass per element.

        ``fastmath=False`` keeps IEEE semantics: every multiply,
        subtract and add is the same float64 op the numpy pipeline
        performs.  The row sum accumulates left-to-right; on the
        quantised datapath every partial sum is an exact integer in
        resolution units (the ``supports_exact_gemm`` argument), so the
        association order cannot change a bit.
        """
        rows, cols = band.shape
        last = table.shape[0] - 1
        for i in range(rows):
            acc = 0.0
            for j in range(cols):
                c = int(band[i, j] * cmul - off)
                if c < 0:
                    c = 0
                elif c > last:
                    c = last
                e = table[c]
                band[i, j] = e
                acc += e
            w[i] = acc

    @numba.njit(cache=True, fastmath=False)
    def _fused_prob_fold(band, inv, res):
        """Reciprocal broadcast + rint fold of the probability quantiser."""
        rows, cols = band.shape
        for i in range(rows):
            a = inv[i]
            for j in range(cols):
                band[i, j] = np.rint(band[i, j] * a) * res


class JitFunctionalEngine(FunctionalEngine):
    """Tiled functional engine with numba-fused epilogue loops.

    Construction requires numba (the backend is absent from the registry
    otherwise, so ordinary users can never reach this error).  Engine
    semantics, plan compilation, arena buffers and capability flags
    are inherited unchanged from :class:`FunctionalEngine`; only the
    band epilogue's elementwise pipeline is swapped for the fused
    kernels above when the direct exp table applies, falling back to the
    inherited numpy path (and therefore to bit-identity by construction)
    whenever it does not.
    """

    def __init__(self, *args, **kwargs) -> None:
        if not HAVE_NUMBA:
            raise ImportError(
                "JitFunctionalEngine requires numba; install it or use the "
                "'functional' backend"
            )
        super().__init__(*args, **kwargs)

    def _band_epilogue(self, band, valid, lmask, scale, w, has) -> None:
        lut = self._exp_table(scale)
        pf = self.datapath.prob_format
        fusable = (
            lut is not None
            and valid is None
            and lmask is None
            and pf is not None
            and pf.max_value >= 2.0
            and band.flags.c_contiguous
            and w.flags.c_contiguous
            and has.flags.c_contiguous
        )
        if not fusable:
            return super()._band_epilogue(band, valid, lmask, scale, w, has)
        table, cmul, off = lut
        flat = band.reshape(-1, band.shape[-1])
        wf = w.reshape(-1)
        _fused_exp_rowsum(flat, table, cmul, off, wf)
        wsafe = ARENA.buf("epi_wsafe", w.shape)
        inv = ARENA.buf("epi_inv", w.shape)
        np.greater(wf, 0.0, out=has.reshape(-1))
        np.subtract(1.0, has, out=wsafe)
        np.add(wsafe, w, out=wsafe)
        self.datapath.recip_into(wsafe, inv)
        np.multiply(inv, float(1 << pf.frac_bits), out=inv)
        _fused_prob_fold(flat, inv.reshape(-1), pf.resolution)
