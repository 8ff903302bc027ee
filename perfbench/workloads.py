"""The benchmark's workloads: campaign grids and execution routes.

Every workload is a :class:`~repro.campaigns.spec.CampaignSpec` plus the
route it runs on (serial, supervised pool, or fabric broker with worker
subprocesses). The workload seed shifts every trial seed by
``seed * SEED_STRIDE``, so two seeds run the same grid shape on disjoint
Monte-Carlo draws and the same seed always reproduces the same store.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Distance between the trial-seed ranges of consecutive workload seeds;
#: wider than any grid's seed axis, so seed ranges never overlap.
SEED_STRIDE = 1000

#: Paper Q1.3 components of the OPT block, the injected bit and its BERs;
#: 100 seeds make the 1800-trial Monte-Carlo grid.
Q13_COMPONENTS = ("Q", "K", "V", "O", "FC1", "FC2")
Q13_BERS = (1e-4, 1e-3, 1e-2)
Q13_SEEDS = 100

#: Paper Fig. 9 operating points: 0.84 V down to 0.60 V in 0.04 V steps.
FIG9_VOLTAGES = (0.84, 0.80, 0.76, 0.72, 0.68, 0.64, 0.60)
FIG9_SEEDS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in ``BENCHMARK.json``."""

    name: str
    route: str  # "serial" | "pool" | "fabric"
    grid: str  # "q13" | "fig9"

    @property
    def workers(self) -> int:
        return 2 if self.route in ("pool", "fabric") else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("q13-mc", "serial", "q13"),
        Workload("fig9-sweep", "serial", "fig9"),
        Workload("q13-pool", "pool", "q13"),
        Workload("q13-fabric", "fabric", "q13"),
    )
}


def build_spec(workload: Workload, seed: int):
    """The campaign grid of ``workload`` for workload seed ``seed``."""
    from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
    from repro.core.methods import METHODS
    from repro.dispatch.cost import CostSpec

    base = seed * SEED_STRIDE
    if workload.grid == "q13":
        return CampaignSpec(
            name=f"perfbench-{workload.name}",
            models=("opt-mini",),
            tasks=("perplexity",),
            sites=tuple(
                SiteSpec.only(components=[c], stages=["prefill"])
                for c in Q13_COMPONENTS
            ),
            errors=tuple(ErrorSpec.bitflip(b, bits=(30,)) for b in Q13_BERS),
            seeds=tuple(range(base, base + Q13_SEEDS)),
        )
    return CampaignSpec(
        name=f"perfbench-{workload.name}",
        models=("llama-mini",),
        tasks=("xsum",),
        sites=(SiteSpec.everywhere(),),
        errors=(ErrorSpec.bitflip(None),),
        methods=tuple(METHODS),
        voltages=FIG9_VOLTAGES,
        seeds=tuple(range(base, base + FIG9_SEEDS)),
        cost=CostSpec(),
    )
