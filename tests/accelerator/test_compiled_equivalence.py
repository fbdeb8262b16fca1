"""Compiled engine: bit-identity, path selection and serving-cache contracts.

``FunctionalEngine(plan)`` (``mode="compiled"``, the default) runs the
lane-tiled production path — index tensors precomputed once per plan,
stages 1 and 5 as banded GEMMs over all lanes — wherever its one gate
holds (``supports_exact_gemm``, ``prob_bounded``, ``stage5_bounded``),
on every plan the scheduler can emit, and the per-pass reference path
everywhere else (``exact()`` configs, over-budget bit widths, formats
that can saturate).  Its contract is *bit identity*: whichever
executor it picks must produce exactly the outputs of
``mode="legacy"`` and — on the micro-simulator's parameter space — of
the cycle-accurate simulator.  These tests pin that contract and the
selection rule across every pattern family, plus the SALO plan-cache
semantics (cached compiles on repeated structure, separation across
configs).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scheduler.compiled as compiled_module
from repro.accelerator.arena import ARENA
from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.accelerator.systolic import SystolicSimulator
from repro.accelerator.timing import pass_cycles, plan_timing
from repro.core.config import HardwareConfig, NumericsConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.scheduler.scheduler import DataScheduler, SchedulerError


# The gate's three proofs (``FunctionalEngine._supports_tiled``).  The
# default and the exact-reciprocal variant pass them all and run tiled;
# each of the others fails one and runs the reference path: floats make
# summation order observable, 12-bit operands give stage-1 sums of 25
# bits over head_dim 8 — inside the 53-bit double significand, past the
# 24-bit float32 one the production GEMMs run in — and 28-bit ones
# products of 54 bits, past both, a Q0.16 probability format
# cannot hold the reciprocal LUT's worst product
# (``Datapath.prob_bounded``), and a Q4.12 output format cannot hold a
# stage-5 sum of Q8.4 operands (``Datapath.stage5_bounded``).
NUMERICS = {
    "quantised": NumericsConfig(),
    "recip-exact": NumericsConfig(recip_mode="exact"),
    "exact": NumericsConfig.exact(),
    "between-budgets": NumericsConfig(input_bits=12),
    "over-budget": NumericsConfig(input_bits=28),
    "prob-unbounded": NumericsConfig(prob_frac_bits=16),
    "stage5-unbounded": NumericsConfig(output_frac_bits=12),
}
TILED = {"quantised", "recip-exact"}


def _plan_and_data(pattern, heads=1, head_dim=8, rows=4, cols=4, datapath="quantised", seed=0):
    config = HardwareConfig(pe_rows=rows, pe_cols=cols, numerics=NUMERICS[datapath])
    plan = DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=heads, head_dim=head_dim
    )
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
    return plan, q, k, v


def _assert_same_result(got, ref):
    assert np.array_equal(got.output, ref.output)
    assert got.merges == ref.merges
    assert np.array_equal(got.parts, ref.parts)


def _assert_bit_identical(pattern, datapath="quantised", **kwargs):
    plan, q, k, v = _plan_and_data(pattern, datapath=datapath, **kwargs)
    engine = FunctionalEngine(plan, mode="compiled")
    assert engine.tiled is (datapath in TILED)
    compiled = engine.run(q, k, v)
    _assert_same_result(compiled, FunctionalEngine(plan, mode="legacy").run(q, k, v))
    return compiled


PATTERN_CASES = [
    ("window", longformer_pattern(24, 8, (0,))),
    ("window-no-global", longformer_pattern(24, 8, ())),
    ("window-two-globals", longformer_pattern(32, 8, (0, 15))),
    ("dilated", HybridSparsePattern(30, [Band(-6, 6, 3)], (0,))),
    ("mixed-dilations", HybridSparsePattern(40, [Band(-4, 4, 1), Band(6, 18, 6)], (0, 3))),
    ("twod-vil", vil_pattern(5, 5, 3, (0,))),
    ("star", star_transformer_pattern(20)),
    ("sparse-transformer", sparse_transformer_pattern(24, block=4)),
]


class TestCompiledMatchesLegacy:
    """Batched path == per-pass path, bit for bit."""

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_quantized(self, name, pattern):
        _assert_bit_identical(pattern)

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_exact(self, name, pattern):
        _assert_bit_identical(pattern, datapath="exact")

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_between_budgets(self, name, pattern):
        _assert_bit_identical(pattern, datapath="between-budgets")

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_over_budget(self, name, pattern):
        _assert_bit_identical(pattern, datapath="over-budget")

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_prob_unbounded(self, name, pattern):
        _assert_bit_identical(pattern, datapath="prob-unbounded")

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_stage5_unbounded(self, name, pattern):
        _assert_bit_identical(pattern, datapath="stage5-unbounded")

    @pytest.mark.parametrize("datapath", sorted(NUMERICS))
    def test_batched_and_padded(self, datapath):
        """Batch axis and ``valid_lens`` follow the same selection rule."""
        plan, q, k, v = _plan_and_data(
            longformer_pattern(32, 8, (0, 15)), heads=2, head_dim=4, datapath=datapath
        )
        compiled = FunctionalEngine(plan, mode="compiled")
        legacy = FunctionalEngine(plan, mode="legacy")
        assert compiled.tiled is (datapath in TILED)
        qb, kb, vb = (np.stack([x, x[::-1]]) for x in (q, k, v))
        _assert_same_result(compiled.run(qb, kb, vb), legacy.run(qb, kb, vb))
        for x in (qb, kb, vb):
            x[1, 20:] = 0.0
        lens = [32, 20]
        _assert_same_result(
            compiled.run(qb, kb, vb, valid_lens=lens), legacy.run(qb, kb, vb, valid_lens=lens)
        )

    def test_path_is_not_caller_selectable(self):
        plan, *_ = _plan_and_data(longformer_pattern(24, 8, (0,)))
        with pytest.raises(TypeError):
            FunctionalEngine(plan, tiled=False)
        with pytest.raises(TypeError):
            FunctionalEngine(plan, use_compiled=False)

    def test_multihead(self):
        _assert_bit_identical(longformer_pattern(24, 8, (0,)), heads=3, head_dim=4)

    def test_multihead_twod(self):
        _assert_bit_identical(vil_pattern(6, 7, 3, (0, 1)), heads=2, head_dim=4)

    @given(
        n=st.integers(6, 40),
        window=st.integers(1, 9),
        dilation=st.integers(1, 3),
        use_global=st.booleans(),
        heads=st.integers(1, 2),
        rows=st.sampled_from([2, 4, 8]),
        cols=st.sampled_from([2, 4, 8]),
        datapath=st.sampled_from(sorted(NUMERICS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, n, window, dilation, use_global, heads, rows, cols, datapath):
        half = window // 2
        band = Band(-half * dilation, (window - 1 - half) * dilation, dilation)
        pattern = HybridSparsePattern(n, [band], (0,) if use_global else ())
        _assert_bit_identical(
            pattern, heads=heads, head_dim=4, rows=rows, cols=cols, datapath=datapath
        )


class TestExtremeOperands:
    """Q8.4 extremes drive the float32 GEMM sums to the edge of the 24-bit
    proof: all-minimum q and k give stage-1 score codes of exactly
    ``128 * 128 * head_dim`` — ``2^24`` at head_dim 1024, the largest the
    proof admits — and saturated scores give every row the largest
    probability codes against value codes of magnitude 128."""

    LO, HI = -8.0, 8.0 - 1 / 16  # the Q8.4 minimum and maximum

    def _operands(self, fill, n, head_dim):
        if fill == "all-min":
            return (np.full((n, head_dim), self.LO),) * 3
        rng = np.random.default_rng(head_dim)
        q, v = (rng.choice([self.LO, self.HI], (n, head_dim)) for _ in range(2))
        return q, q, v  # k = q: every row scores its own key at the maximum

    @pytest.mark.parametrize("head_dim", [64, 1024])
    @pytest.mark.parametrize("fill", ["all-min", "mixed-signs"])
    def test_compiled_equals_legacy_at_the_extremes(self, fill, head_dim):
        pattern = longformer_pattern(24, 8, (0, 13))
        plan, *_ = _plan_and_data(pattern, head_dim=head_dim)
        engine = FunctionalEngine(plan)
        assert engine.tiled
        q, k, v = self._operands(fill, pattern.n, head_dim)
        legacy = FunctionalEngine(plan, mode="legacy")
        _assert_same_result(engine.run(q, k, v), legacy.run(q, k, v))

    def test_one_past_the_largest_head_dim_runs_the_reference_path(self):
        plan, *_ = _plan_and_data(longformer_pattern(24, 8, (0, 13)), head_dim=1025)
        assert not FunctionalEngine(plan).tiled


#: Plans whose schedule drops a zero-work block from the *middle* of a
#: column group, so the group runs in two pieces (``pattern, pe_rows, pe_cols``).
GAPPED_PLANS = [
    ("all-keys-global", HybridSparsePattern(4, [Band(0, 0, 1)], (1,)), 1, 1),
    ("packed-opposite-ends", HybridSparsePattern(13, [Band(-7, -7, 3), Band(-6, 12, 3)], ()), 1, 2),
]


class TestEveryScheduledPlanRunsCompiled:
    """The default engine is total: whatever ``DataScheduler.schedule``
    emits runs on the production path, bit-equal to the reference."""

    @pytest.mark.parametrize("name,pattern,rows,cols", GAPPED_PLANS, ids=[c[0] for c in GAPPED_PLANS])
    def test_gapped_column_groups_through_the_facade(self, name, pattern, rows, cols):
        config = HardwareConfig(pe_rows=rows, pe_cols=cols)
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((pattern.n, 8)) for _ in range(3))
        got = SALO(config).attend(pattern, q, k, v, heads=2)
        ref = SALO(config, backend="functional-legacy").attend(pattern, q, k, v, heads=2)
        _assert_same_result(got.functional, ref.functional)

    @given(
        n=st.integers(4, 60),
        bands=st.lists(
            st.tuples(st.integers(1, 14), st.integers(1, 4), st.integers(1, 12)),
            min_size=1,
            max_size=3,
        ),
        start=st.integers(-50, 10),
        global_tokens=st.sets(st.integers(0, 59), max_size=3),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        pack=st.booleans(),
        batch=st.sampled_from([None, 2, 3]),
        padded=st.booleans(),
        datapath=st.sampled_from(sorted(TILED)),
        first=st.one_of(st.just(0), st.integers(1, 59)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=500, deadline=None)
    def test_any_pattern_any_array_matches_legacy(
        self, n, bands, start, global_tokens, rows, cols, pack, batch, padded, datapath, first,
        seed,
    ):
        lo, built = start, []
        for width, dilation, gap in bands:
            built.append(Band(lo, lo + (width - 1) * dilation, dilation))
            lo = built[-1].hi + gap
        gtok = tuple(sorted(g for g in global_tokens if g < n))
        first = 0 if gtok else first % n  # a step pattern has no global token
        config = HardwareConfig(
            pe_rows=rows, pe_cols=cols, pack_bands=pack, numerics=NUMERICS[datapath]
        )
        try:
            plan = DataScheduler(config, strict_global_bound=False).schedule(
                HybridSparsePattern(n, built, gtok, first), heads=2, head_dim=4
            )
        except SchedulerError:  # every band clipped away and no global token
            return
        rng = np.random.default_rng(seed)
        q, k, v = (rng.standard_normal((batch or 1, n, 8)) for _ in range(3))
        lens = rng.integers(max(gtok, default=0) + 1, n + 1, size=batch or 1) if padded else None
        if batch is None:
            q, k, v = q[0], k[0], v[0]
        compiled = FunctionalEngine(plan)
        assert compiled.tiled
        try:
            ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        except EngineError:  # a query the pattern leaves without keys
            with pytest.raises(EngineError):
                compiled.run(q, k, v, valid_lens=lens)
            return
        _assert_same_result(compiled.run(q, k, v, valid_lens=lens), ref)


class TestScatteredGlobals:
    """Global tokens *mid-sequence* — the shape of every ``cold_churn`` op.

    The non-global rows are then not one range, and under ``valid_lens``
    the global column is the only part of the padded rows past the
    window's reach, so its merge sees mixed coverage.
    """

    @pytest.mark.parametrize("gtok", [(5,), (3, 11, 20)], ids=["one", "several"])
    @pytest.mark.parametrize("lens", [None, [32, 24, 21]], ids=["full", "valid_lens"])
    def test_matches_legacy(self, gtok, lens):
        plan, q, k, v = _plan_and_data(longformer_pattern(32, 8, gtok), heads=2, head_dim=4)
        compiled = FunctionalEngine(plan, mode="compiled")
        legacy = FunctionalEngine(plan, mode="legacy")
        assert compiled.tiled
        if lens is None:
            _assert_same_result(compiled.run(q, k, v), legacy.run(q, k, v))
        qb, kb, vb = (np.stack([x, x[::-1], 0.5 * x]) for x in (q, k, v))
        got = compiled.run(qb, kb, vb, valid_lens=lens)
        _assert_same_result(got, legacy.run(qb, kb, vb, valid_lens=lens))
        if lens is not None:
            # Rows 29.. of the 21-long sequence: the column's part only.
            assert (got.parts[2, :, 29:] == 1).all()


class TestMergePart:
    """``_merge_part`` — the production path's one Eq. 2, on output codes —
    against ``WeightedSumModule.merge`` on the gathered cells' values
    (the reference accumulator's arithmetic), branch by branch."""

    SHAPE, D = (2, 3, 5), 4

    def _engine(self):
        plan, *_ = _plan_and_data(longformer_pattern(24, 8, (0,)))
        return FunctionalEngine(plan)

    def _state(self, rng, has):
        """Output codes and weights with work exactly on ``has``; (0, 0) elsewhere."""
        out = np.round(rng.standard_normal(self.SHAPE + (self.D,)) * 4096) * has[..., None]
        return out, rng.uniform(0.5, 4.0, self.SHAPE) * has

    def _check(self, rh, has, strided=False):
        engine, rng = self._engine(), np.random.default_rng(3)
        ro, rw = self._state(rng, rh)
        out, w = self._state(rng, has)
        if strided:  # a non-contiguous part view, as ``out[:, b]`` is
            out, w, has = (
                np.stack([x, x], axis=1)[:, 1] for x in (out, w, has)
            )
            assert not out.flags.c_contiguous
        rp = rng.integers(0, 3, self.SHAPE)
        both, fresh, none = rh & has, has & ~rh, ~rh & ~has
        want_o, want_w, want_p = ro.copy(), rw.copy(), rp + has
        want_o[fresh], want_w[fresh] = out[fresh], w[fresh]
        if both.any():
            res = engine.datapath.output_format.resolution
            merged, want_w[both] = engine.module.merge(
                ro[both] * res, rw[both], out[both] * res, w[both]
            )
            want_o[both] = merged / res
        got_h = rh.copy()
        assert engine._merge_part(ro, rw, got_h, rp, out, w, has) == both.sum()
        assert np.array_equal(got_h, rh | has)
        assert np.array_equal(rp, want_p)
        live = ~none
        assert np.array_equal(ro[live], want_o[live])
        assert np.array_equal(rw[live], want_w[live])
        # Cells empty on both sides stay exactly (0, 0): no recip(0) leak.
        assert not ro[none].any() and not rw[none].any()

    def _mask(self, seed, p):
        return np.random.default_rng(seed).random(self.SHAPE) < p

    def test_assign_into_empty_state(self):
        self._check(np.zeros(self.SHAPE, bool), self._mask(0, 0.7))

    def test_equal_coverage_merges_in_place(self):
        mask = self._mask(1, 0.7)
        assert not mask.all()  # includes cells empty on both sides
        self._check(mask, mask.copy())

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided-part"])
    def test_mixed_coverage(self, strided):
        rh, has = self._mask(2, 0.6), self._mask(3, 0.6)
        assert (rh & has).any() and (has & ~rh).any() and (rh & ~has).any() and (~rh & ~has).any()
        self._check(rh, has, strided=strided)


class TestStreamsAreSlices:
    """Range-shaped id streams are slab slices; only non-ranges gather."""

    @staticmethod
    def _window_gathers(monkeypatch, engine, q, k, v):
        """``np.take`` calls of one warm run's window path that read Q/K/V.

        The global PE row keeps its gathers where its key batches are not
        ranges (2-D windows), so only calls made while a job chain runs
        count.
        """
        engine.run(q, k, v)  # warm: slabs and range facts exist
        slabs = [ARENA.storage(("slab", x)) for x in "qkv"]
        calls, in_chain = [], []
        take, run_chain = np.take, FunctionalEngine._run_chain_tiled

        def spy(a, *args, **kwargs):
            if in_chain and any(np.shares_memory(a, slab) for slab in slabs):
                calls.append(a.shape)
            return take(a, *args, **kwargs)

        def chain(self, *args, **kwargs):
            in_chain.append(True)
            try:
                return run_chain(self, *args, **kwargs)
            finally:
                in_chain.pop()

        monkeypatch.setattr(np, "take", spy)
        monkeypatch.setattr(FunctionalEngine, "_run_chain_tiled", chain)
        engine.run(q, k, v)
        return calls

    @pytest.mark.parametrize(
        "name,pattern",
        [
            ("longformer-4096", longformer_pattern(4096, 512, (0,))),
            ("vil-stage1", vil_pattern(56, 56, 15)),
            ("vil-stage2", vil_pattern(28, 28, 15)),  # n not a block multiple
        ],
    )
    def test_table2_layers_never_gather_an_operand(self, monkeypatch, name, pattern):
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=1, head_dim=8)
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((pattern.n, 8)) for _ in range(3))
        assert self._window_gathers(monkeypatch, FunctionalEngine(plan), q, k, v) == []

    def test_dilated_bands_still_gather(self, monkeypatch):
        """The spy sees what it should: a dilated stream is not a range."""
        plan, q, k, v = _plan_and_data(HybridSparsePattern(30, [Band(-6, 6, 3)], (0,)))
        assert self._window_gathers(monkeypatch, FunctionalEngine(plan), q, k, v)

    @pytest.mark.parametrize("grid", [(9, 8), (9, 7)], ids=["block-multiple", "short-last-block"])
    def test_multi_segment_vil_batched_and_padded(self, monkeypatch, grid):
        """Packed multi-segment jobs chain over the interior and slice every
        segment's stream, at batch sizes that each chunk the chain
        differently and with tails ending in the interior and in an edge
        block."""
        pattern = vil_pattern(*grid, 5, (0,))
        config = HardwareConfig(pe_rows=8, pe_cols=16)
        plan = DataScheduler(config, strict_global_bound=False).schedule(
            pattern, heads=2, head_dim=4
        )
        cp = plan.compiled()
        jobs = cp.window_jobs
        assert max(len(job.segments) for job in jobs) > 1
        assert max(len(c.jobs) for c in cp.job_chains) > 1
        assert all(seg.start is not None for job in jobs for seg in job.segments)
        # 16 (lane, block) units of the chained jobs: 8 / 3 / 1 blocks a chunk.
        monkeypatch.setattr(compiled_module, "CHUNK_BYTES", 16 * 6464)
        batches = (1, 3, 8)
        assert len({cp.chunk_blocks(jobs[0], 2 * batch) for batch in batches}) == 3
        rng = np.random.default_rng(3)
        compiled, legacy = FunctionalEngine(plan), FunctionalEngine(plan, mode="legacy")
        for batch in batches:
            q, k, v = (rng.standard_normal((batch, pattern.n, 8)) for _ in range(3))
            _assert_same_result(compiled.run(q, k, v), legacy.run(q, k, v))
            lens = [pattern.n // 2, pattern.n, pattern.n - 3, 5, 17, 40, pattern.n - 9, 33][:batch]
            _assert_same_result(
                compiled.run(q, k, v, valid_lens=lens), legacy.run(q, k, v, valid_lens=lens)
            )


class TestCompiledMatchesMicroSim:
    """Batched path == cycle-accurate micro-simulator, bit for bit."""

    MICRO_SIM_PLANS = [
        ("window", longformer_pattern(20, 6, (0,)), 4, 4),
        ("dilated", HybridSparsePattern(24, [Band(-4, 4, 2)], (0,)), 4, 4),
        ("twod-vil", vil_pattern(4, 4, 3, (0,)), 4, 4),
        ("no-global", longformer_pattern(16, 4, ()), 4, 4),
        *GAPPED_PLANS,
    ]

    @pytest.mark.parametrize(
        "name,pattern,rows,cols", MICRO_SIM_PLANS, ids=[c[0] for c in MICRO_SIM_PLANS]
    )
    def test_quantized(self, name, pattern, rows, cols):
        plan, q, k, v = _plan_and_data(pattern, rows=rows, cols=cols)
        compiled = FunctionalEngine(plan, mode="compiled").run(q, k, v)
        sim = SystolicSimulator(plan).run(q, k, v)
        assert np.array_equal(compiled.output, sim.output)
        assert compiled.merges == sim.merges

    def test_exact_close(self):
        plan, q, k, v = _plan_and_data(longformer_pattern(20, 6, (0,)), datapath="exact")
        compiled = FunctionalEngine(plan, mode="compiled").run(q, k, v)
        sim = SystolicSimulator(plan).run(q, k, v)
        assert np.allclose(compiled.output, sim.output, atol=1e-11)


STEP_CASES = [
    ("causal", (Band(-7, 0),)),
    ("dilated", (Band(-8, 0, 2),)),
    ("multi-band", (Band(-3, 0), Band(-12, -8))),
]


def _assert_step_rows(n, bands, first, **kw):
    """Compiled, legacy and micro-sim agree on every row of the step plan
    (rows below ``first`` are never computed and read 0.0), and with the
    full plan on every row from ``first`` on."""
    plan, q, k, v = _plan_and_data(HybridSparsePattern(n, bands, first_query=first), **kw)
    full, *_ = _plan_and_data(HybridSparsePattern(n, bands), **kw)
    assert plan.first_query == first
    engine = FunctionalEngine(plan)
    assert engine.tiled
    compiled = engine.run(q, k, v)
    legacy = FunctionalEngine(plan, mode="legacy").run(q, k, v)
    sim = SystolicSimulator(plan).run(q, k, v)
    ref = FunctionalEngine(full).run(q, k, v)
    for got in (legacy.output, sim.output):
        assert np.array_equal(got, compiled.output)
    assert not compiled.output[:first].any()
    assert np.array_equal(compiled.output[first:], ref.output[first:])
    assert compiled.merges == legacy.merges == sim.merges
    assert np.array_equal(compiled.parts, legacy.parts)
    assert np.array_equal(compiled.parts[:, first:], ref.parts[:, first:])
    return plan, full


class TestStepPatterns:
    """Decode step patterns (``first_query > 0``) leave passes out of the
    full plan and compute no row below the first query: compiled, legacy
    and micro-sim agree bit for bit on every row, and with the full plan
    on every row from the first query on."""

    @pytest.mark.parametrize("first", [1, 7, 12, 20, 31])
    @pytest.mark.parametrize("name,bands", STEP_CASES, ids=[c[0] for c in STEP_CASES])
    def test_kept_rows_bit_equal(self, name, bands, first):
        plan, full = _assert_step_rows(32, bands, first, heads=2)
        assert len(plan.passes) < len(full.passes) or first < 4  # block 0 holds row 1

    @pytest.mark.parametrize("name,bands", STEP_CASES, ids=[c[0] for c in STEP_CASES])
    def test_single_live_row(self, name, bands):
        """``first = n - 1``: every window job computes row 31 alone."""
        plan, _ = _assert_step_rows(32, bands, 31, heads=2)
        for job in plan.compiled().window_jobs:
            assert job.rows == 1 and set(job.q_ids.ravel().tolist()) == {31}

    @pytest.mark.parametrize("first", [33, 70, 100, 127])
    def test_first_query_inside_a_later_block_of_a_causal_band(self, first):
        """A 64-row causal band over 128 rows on an 8 x 8 array: the first
        query falls inside block 4, 8 or 12 (or ends the sequence), and the
        straddling block starts at it in each of its column groups."""
        plan, _ = _assert_step_rows(128, (Band(-63, 0),), first, rows=8, cols=8)
        starts = {int(job.q_ids[0, 0, 0]) for job in plan.compiled().window_jobs}
        assert first in starts and min(starts) == first

    @pytest.mark.parametrize("first", [21, 37, 58])
    @pytest.mark.parametrize(
        "name,bands",
        [("dilated", (Band(-24, 0, 3),)), ("multi-band", (Band(-5, 0), Band(-40, -30)))],
    )
    def test_dilated_and_multi_band_steps(self, name, bands, first):
        _assert_step_rows(64, bands, first, rows=8, cols=8)

    @pytest.mark.parametrize("first", [1, 7, 12, 20, 31])
    @pytest.mark.parametrize("name,bands", STEP_CASES, ids=[c[0] for c in STEP_CASES])
    def test_no_window_job_holds_a_row_below_the_first_query(self, name, bands, first):
        plan, *_ = _plan_and_data(HybridSparsePattern(32, bands, first_query=first))
        for job in plan.compiled().window_jobs:
            rows = job.q_ids[job.q_ids >= 0]
            assert rows.min() >= first, (job.rows, rows.min())

    @pytest.mark.parametrize(
        "pattern",
        [
            longformer_pattern(512, 64, (0,)),
            longformer_pattern(256, 64, (0, 3, 100)),
            vil_pattern(256, 32),
        ],
        ids=["longformer", "longformer-scattered", "vil"],
    )
    def test_first_query_zero_plans_keep_full_blocks(self, pattern):
        """The cut reads ``first_query``, never ``keep``: a global query
        row 0 is left out of ``keep`` but its block is computed whole."""
        config = HardwareConfig()
        plan = DataScheduler(config, strict_global_bound=False).schedule(
            pattern, heads=2, head_dim=16
        )
        cp = plan.compiled()
        assert plan.first_query == 0 and not cp.keep[0, 0]
        assert {job.rows for job in cp.window_jobs} == {config.pe_rows}

    @pytest.mark.parametrize("name,bands", STEP_CASES, ids=[c[0] for c in STEP_CASES])
    def test_batched_padded_lanes_keep_their_rows(self, name, bands):
        """The decode shape: lanes of one group, each keeping ``valid - 1``."""
        lens = np.array([32, 27, 30])
        first = 16
        plan, *_ = _plan_and_data(HybridSparsePattern(32, bands, first_query=first), heads=2)
        full, *_ = _plan_and_data(HybridSparsePattern(32, bands), heads=2)
        rng = np.random.default_rng(4)
        q, k, v = (rng.standard_normal((3, 32, 16)) for _ in range(3))
        compiled = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        legacy = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(full).run(q, k, v, valid_lens=lens)
        for lane, stop in enumerate(lens):
            for got in (compiled, legacy):
                assert np.array_equal(got.output[lane, first:stop], ref.output[lane, first:stop])

    def test_estimate_of_the_decode_stream_step(self):
        """Causal window 64, step bucket 64, 32 x 32 array: the step plan
        (first query 48) runs 2 passes where the full bucket runs 3."""
        salo = SALO()
        bands = [Band(-63, 0)]
        full = salo.estimate(HybridSparsePattern(64, bands), heads=4, head_dim=16)
        step = salo.estimate(HybridSparsePattern(64, bands, first_query=48), heads=4, head_dim=16)
        assert (full.plan.num_passes, step.plan.num_passes) == (3, 2)
        assert step.timing.cycles < full.timing.cycles

    def test_rows_past_the_first_query_still_need_a_part(self):
        # forward-looking band: the last rows have no keys
        pattern = HybridSparsePattern(16, [Band(2, 3)], first_query=8)
        plan, q, k, v = _plan_and_data(pattern)
        for mode in ("compiled", "legacy"):
            with pytest.raises(EngineError, match=r"queries \[14, 15\]"):
                FunctionalEngine(plan, mode=mode).run(q, k, v)


class TestPlanCache:
    """SALO's serving cache: cached compiles, config separation."""

    def _data(self, n, hidden, seed=0):
        rng = np.random.default_rng(seed)
        return tuple(rng.standard_normal((n, hidden)) for _ in range(3))

    def test_repeat_structure_hits(self):
        salo = SALO()
        q, k, v = self._data(64, 16)
        first = salo.attend(longformer_pattern(64, 8, (0,)), q, k, v)
        assert salo.plan_cache_misses == 1 and salo.plan_cache_hits == 0
        # A fresh but structurally identical pattern object hits.
        second = salo.attend(longformer_pattern(64, 8, (0,)), q, k, v)
        assert salo.plan_cache_hits == 1
        assert second.plan is first.plan
        assert second.plan.compiled() is first.plan.compiled()
        assert second.stats is first.stats
        assert np.array_equal(first.output, second.output)

    def test_structure_change_misses(self):
        salo = SALO()
        q, k, v = self._data(64, 16)
        salo.attend(longformer_pattern(64, 8, (0,)), q, k, v)
        salo.attend(longformer_pattern(64, 12, (0,)), q, k, v)  # wider window
        salo.attend(longformer_pattern(64, 8, (5,)), q, k, v)  # moved global
        assert salo.plan_cache_misses == 3 and salo.plan_cache_hits == 0

    def test_head_layout_is_part_of_key(self):
        salo = SALO()
        q, k, v = self._data(64, 16)
        salo.attend(longformer_pattern(64, 8, (0,)), q, k, v, heads=1)
        salo.attend(longformer_pattern(64, 8, (0,)), q, k, v, heads=2)
        assert salo.plan_cache_misses == 2

    def test_config_change_invalidates(self):
        """Separate configs never share plans (config is in the key)."""
        pattern = longformer_pattern(64, 8, (0,))
        q, k, v = self._data(64, 16)
        small = SALO(HardwareConfig(pe_rows=8, pe_cols=8))
        large = SALO(HardwareConfig(pe_rows=16, pe_cols=16))
        plan_small = small.attend(pattern, q, k, v).plan
        plan_large = large.attend(pattern, q, k, v).plan
        assert len(plan_small.passes) != len(plan_large.passes)
        # Swapping the config on an existing instance makes old entries
        # unreachable rather than stale.
        small.config = HardwareConfig(pe_rows=16, pe_cols=16)
        small.scheduler = DataScheduler(small.config)
        plan_new = small.attend(pattern, q, k, v).plan
        assert small.plan_cache_misses == 2
        assert len(plan_new.passes) == len(plan_large.passes)

    def test_lru_eviction(self):
        salo = SALO(plan_cache_size=2)
        q, k, v = self._data(64, 16)
        for w in (4, 8, 12):
            salo.attend(longformer_pattern(64, w, (0,)), q, k, v)
        salo.attend(longformer_pattern(64, 4, (0,)), q, k, v)  # evicted: miss
        assert salo.plan_cache_misses == 4

    def test_cache_disabled(self):
        salo = SALO(plan_cache_size=0)
        q, k, v = self._data(64, 16)
        a = salo.attend(longformer_pattern(64, 8, (0,)), q, k, v)
        b = salo.attend(longformer_pattern(64, 8, (0,)), q, k, v)
        assert a.plan is not b.plan
        assert np.array_equal(a.output, b.output)

    def test_cache_hit_skips_schedule_and_compile(self):
        """Serving scenario: a cache hit runs >= 10x faster than the
        first call, which pays for scheduling + plan compilation + the
        cost models.  A heavily dilated band maximises scheduler work
        (one residue group per dilation step) while the compiled engine
        executes all groups as a single window-job family.  Timed on
        the default quantised config: the production path is what the
        plan cache serves.
        """
        salo = SALO()
        pattern = HybridSparsePattern(6144, [Band(-768, 768, 768)], ())
        q, k, v = self._data(6144, 8)
        t0 = time.perf_counter()
        salo.attend(pattern, q, k, v)
        first = time.perf_counter() - t0
        hits = []
        for _ in range(5):
            t0 = time.perf_counter()
            salo.attend(pattern, q, k, v)
            hits.append(time.perf_counter() - t0)
        assert salo.plan_cache_hits == 5
        assert first / min(hits) >= 10.0


class TestTimingMatchesPassCycles:
    """The vectorised plan_timing equals a per-pass pass_cycles walk.

    ``plan_timing`` re-expresses the five stage formulas as array
    arithmetic over the compiled rows/cols aggregates; this pins it to
    ``pass_cycles`` (the version validated cycle-for-cycle against the
    micro-simulator) so the two cannot drift apart silently.
    """

    def _reference_cycles(self, plan, pipelined):
        config, d = plan.config, plan.head_dim
        cycles = 0
        last_tail = 0
        for tp in plan.passes:
            pt = pass_cycles(config, tp.rows_used, tp.cols_used, d)
            if pipelined:
                tail = pt.stage2 + pt.stage3 + pt.stage4 + pt.stage5 + pt.weighted_sum
                cycles += max(pt.stage1, tail)
                last_tail = tail
            else:
                cycles += pt.total
        if pipelined and plan.passes:
            pt = pass_cycles(
                config, plan.passes[-1].rows_used, plan.passes[-1].cols_used, d
            )
            cycles += max(0, pt.total - max(pt.stage1, last_tail))
        if plan.global_only_passes:
            pt = pass_cycles(config, max(1, config.global_rows), config.pe_cols, d)
            cycles += pt.total * plan.global_only_passes
        return cycles * plan.heads

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize(
        "pattern",
        [
            longformer_pattern(64, 12, (0,)),
            HybridSparsePattern(50, [Band(-6, 6, 3)], ()),
            vil_pattern(6, 6, 3, (0,)),
            star_transformer_pattern(20),  # pure-global cleanup passes
        ],
    )
    def test_cycles_match(self, pattern, pipelined):
        plan = DataScheduler(
            HardwareConfig(pe_rows=8, pe_cols=8), strict_global_bound=False
        ).schedule(pattern, heads=2, head_dim=16)
        assert plan_timing(plan, pipelined=pipelined).cycles == self._reference_cycles(
            plan, pipelined
        )

    def test_stage_totals_match(self):
        plan = DataScheduler(HardwareConfig(pe_rows=8, pe_cols=8)).schedule(
            longformer_pattern(64, 12, (0,)), heads=3, head_dim=16
        )
        totals = {k: 0 for k in ("stage1", "stage2", "stage3", "stage4", "stage5", "weighted_sum")}
        for tp in plan.passes:
            pt = pass_cycles(plan.config, tp.rows_used, tp.cols_used, plan.head_dim)
            for key in totals:
                totals[key] += getattr(pt, key)
        expected = {k: v * plan.heads for k, v in totals.items()}
        assert plan_timing(plan).stage_cycles == expected


class TestCompiledEngineFaster:
    """The batched path beats the per-pass reference on a real workload."""

    def test_medium_longformer_speedup(self):
        plan, q, k, v = _plan_and_data(
            longformer_pattern(512, 64, (0,)), head_dim=64, rows=32, cols=32
        )
        legacy_engine = FunctionalEngine(plan, mode="legacy")
        compiled_engine = FunctionalEngine(plan, mode="compiled")
        compiled_engine.run(q, k, v)  # warm the compile
        t0 = time.perf_counter()
        ref = legacy_engine.run(q, k, v)
        legacy_t = time.perf_counter() - t0
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = compiled_engine.run(q, k, v)
            runs.append(time.perf_counter() - t0)
        assert np.array_equal(out.output, ref.output)
        # The seed engine (which also lacked the ldexp shift units) is
        # >= 5x slower; the in-tree reference shares those units, so the
        # conservative floor asserted here is 2.5x.
        assert legacy_t / min(runs) >= 2.5
