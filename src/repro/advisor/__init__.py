"""Provisioning advisor: config search, ablation, decision packs.

The decision layer over the cluster simulator.  Given a declarative
:class:`TrafficSpec` — arrival process, request mix, SLO classes with
deadline budgets, feasibility targets — the
advisor searches a :class:`SearchSpace` of deployable configurations on
the deterministic cost-model clock, ranks them cheapest-feasible-first
with per-constraint margins and load headroom, scores each ranked
candidate's components by automated ablation, and exports the winner as
a manifest-hashed decision pack.

    from repro.advisor import TrafficSpec, advise, export_pack

    advice = advise(TrafficSpec(rho=1.2))
    print(advice.render(top=5))
    export_pack(advice, "out/pack")

Everything is content-addressed: traffic specs, candidates and whole
advice objects carry stable hashed ids (the same
:func:`repro.experiments.base.stable_run_id` scheme the experiment
sweeps stamp), so runs cache, resume and pin byte-identically.
"""

from .ablation import COMPONENTS, ComponentScore, ablate, toggled
from .advise import Advice, advise
from .export import export_pack
from .ranking import rank, sort_key
from .search import (
    DEFAULT_SCALE_GRID,
    Candidate,
    CandidateResult,
    Constraint,
    Evaluation,
    RunCache,
    SearchSpace,
    evaluate,
)
from .spec import SLOTarget, TrafficSpec, reference_scales

__all__ = [
    "TrafficSpec",
    "SLOTarget",
    "reference_scales",
    "Candidate",
    "SearchSpace",
    "Constraint",
    "Evaluation",
    "CandidateResult",
    "RunCache",
    "evaluate",
    "DEFAULT_SCALE_GRID",
    "rank",
    "sort_key",
    "COMPONENTS",
    "ComponentScore",
    "ablate",
    "toggled",
    "Advice",
    "advise",
    "export_pack",
]
