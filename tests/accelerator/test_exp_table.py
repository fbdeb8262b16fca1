"""The score-code -> exp table: exact at every scale it is built for.

On a quantised datapath the tiled engine replaces the elementwise
``scale -> PWLExpUnit`` pipeline with one gather from a table indexed
by the integer score code.  The table evaluates the elementwise path's
own multiply at every code, so the two must agree bit for bit — for
power-of-two scales (head_dim 64) and for every other positive scale
whose code range fits the size bound (head_dim 8/32/128, explicit
scales).  Scales no table covers call the reference unit itself
(``Datapath.exp_into``); that fallback is pinned against the per-pass
reference engine here too.
"""

import numpy as np
import pytest

from repro.accelerator.exp_unit import PWLExpUnit
from repro.accelerator.functional import FunctionalEngine, _exp_code_table
from repro.core.config import HardwareConfig, NumericsConfig
from repro.patterns.library import longformer_pattern
from repro.scheduler.scheduler import DataScheduler

SCALES = [8 ** -0.5, 32 ** -0.5, 128 ** -0.5, 0.125, 0.3, 1.7]


class TestTableEqualsElementwisePath:
    @pytest.mark.parametrize("scale", SCALES)
    def test_every_code_including_beyond_the_clamp(self, scale):
        numerics = NumericsConfig()
        table, first = _exp_code_table(numerics, scale)
        unit = PWLExpUnit.from_numerics(numerics)
        g = 2.0 ** (-2 * numerics.input_frac_bits)
        reach = int(max(abs(unit.lo), abs(unit.hi)) / (g * scale)) + 500
        codes = np.arange(-reach, reach + 1)  # what stage 1 produces
        scores = codes * g  # their values: exact multiples of 2^-2f
        idx = np.clip((codes - first).astype(np.int64), 0, len(table) - 1)
        assert np.array_equal(table[idx], unit(np.multiply(scores, scale)))

    def test_one_read_only_table_per_numerics_and_scale(self):
        a = _exp_code_table(NumericsConfig(), 0.3)
        assert a is _exp_code_table(NumericsConfig(), 0.3)
        assert not a[0].flags.writeable

    @pytest.mark.parametrize(
        "numerics,scale",
        [
            (NumericsConfig(), 1e-4),  # code range beyond the size bound
            (NumericsConfig(), -0.5),
            (NumericsConfig(), float("inf")),
            (NumericsConfig.exact(), 0.125),  # scores are not on a grid
            (NumericsConfig(exp_mode="exact"), 0.125),
        ],
    )
    def test_inapplicable_cases_fall_back(self, numerics, scale):
        assert _exp_code_table(numerics, scale) is None


ENGINES = [pytest.param(FunctionalEngine, id="functional")]


def _run(
    engine_cls, head_dim, scale=None, valid_lens=None, n=192, window=48, heads=2, mode="compiled"
):
    plan = DataScheduler(HardwareConfig()).schedule(
        longformer_pattern(n, window, (0,)), heads=heads, head_dim=head_dim
    )
    rng = np.random.default_rng(head_dim)
    shape = (n, heads * head_dim) if valid_lens is None else (len(valid_lens), n, heads * head_dim)
    q, k, v = (2.0 * rng.standard_normal(shape) for _ in range(3))
    engine = engine_cls(plan, mode=mode)
    assert engine.tiled is (mode == "compiled")
    return engine.run(q, k, v, scale=scale, valid_lens=valid_lens).output


LUT_RUNS = [
    ("head_dim-8", dict(head_dim=8)),
    ("head_dim-32", dict(head_dim=32)),
    ("scale-0.3", dict(head_dim=16, scale=0.3)),
    ("valid_lens", dict(head_dim=8, valid_lens=np.array([192, 101, 17]))),
]


class TestEngineParity:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("name,kwargs", LUT_RUNS, ids=[r[0] for r in LUT_RUNS])
    def test_table_equals_forced_exp_into(self, name, kwargs, engine_cls, monkeypatch):
        scale = kwargs.get("scale") or kwargs["head_dim"] ** -0.5
        assert _exp_code_table(NumericsConfig(), float(scale)) is not None
        with_table = _run(engine_cls, **kwargs)
        monkeypatch.setattr(FunctionalEngine, "_exp_table", lambda self, scale: None)
        assert np.array_equal(with_table, _run(engine_cls, **kwargs))

    @pytest.mark.parametrize("valid_lens", [None, np.array([192, 101, 17])], ids=["full", "padded"])
    def test_off_table_scale_runs_the_reference_unit(self, valid_lens):
        """``scale=1e-4``: a code range past the size bound, so no table."""
        assert _exp_code_table(NumericsConfig(), 1e-4) is None
        kwargs = dict(head_dim=8, scale=1e-4, valid_lens=valid_lens)
        got = _run(FunctionalEngine, **kwargs)
        assert np.array_equal(got, _run(FunctionalEngine, mode="legacy", **kwargs))
