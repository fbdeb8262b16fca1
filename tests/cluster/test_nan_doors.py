"""NaN at the doors: every positive / non-negative knob refuses NaN.

``x <= 0`` and ``x < 0`` are both False for NaN, so a door written that
way admits it, and a NaN timer or rate then hangs or poisons a run far
from its cause (``MaxWaitPolicy(max_wait_s=nan)`` re-arms a NaN timer
forever).  Each door here is written ``not (x > 0)`` / ``not (x >= 0)``.
"""

import pytest

from repro.advisor.spec import SLOTarget, TrafficSpec
from repro.cluster import (
    ClosedLoopSource,
    CostModelClock,
    DecodeSLOClass,
    MaxWaitPolicy,
    OnOffProcess,
    PoissonProcess,
    SizeLatencyPolicy,
    SLOClass,
    WorkloadSpec,
)

NAN = float("nan")

_DOORS = {
    "MaxWaitPolicy.max_wait_s": lambda: MaxWaitPolicy(max_wait_s=NAN),
    "SizeLatencyPolicy.max_wait_s": lambda: SizeLatencyPolicy(4, max_wait_s=NAN),
    "ClosedLoopSource.think_time_s": lambda: ClosedLoopSource(
        WorkloadSpec(num_requests=4), clients=2, think_time_s=NAN
    ),
    "PoissonProcess.rate_rps": lambda: PoissonProcess(rate_rps=NAN),
    "OnOffProcess.rate_on_rps": lambda: OnOffProcess(rate_on_rps=NAN),
    "OnOffProcess.rate_off_rps": lambda: OnOffProcess(rate_on_rps=1.0, rate_off_rps=NAN),
    "OnOffProcess.mean_on_s": lambda: OnOffProcess(rate_on_rps=1.0, mean_on_s=NAN),
    "OnOffProcess.mean_off_s": lambda: OnOffProcess(rate_on_rps=1.0, mean_off_s=NAN),
    "SLOClass.deadline_s": lambda: SLOClass("a", deadline_s=NAN),
    "SLOClass.share": lambda: SLOClass("a", deadline_s=1.0, share=NAN),
    "DecodeSLOClass.itl_deadline_s": lambda: DecodeSLOClass("a", 1.0, itl_deadline_s=NAN),
    "CostModelClock.batch_overhead_s": lambda: CostModelClock(batch_overhead_s=NAN),
    "CostModelClock.cold_compile_s": lambda: CostModelClock(cold_compile_s=NAN),
    "SLOTarget.deadline_units": lambda: SLOTarget("a", deadline_units=NAN),
    "SLOTarget.share": lambda: SLOTarget("a", deadline_units=1.0, share=NAN),
    "TrafficSpec.rho": lambda: TrafficSpec(rho=NAN),
    "TrafficSpec.rate_rps(scale)": lambda: TrafficSpec().rate_rps(NAN),
}


@pytest.mark.parametrize("door", sorted(_DOORS))
def test_nan_is_refused_at_the_door(door):
    with pytest.raises(ValueError):
        _DOORS[door]()
