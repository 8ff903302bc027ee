"""Per-``GemmSite`` wall-time tracing for the dispatch pipeline.

The cost instrument (DESIGN.md section 8) measures what a GEMM *would*
cost on the modeled systolic array — tiles, cycles, MACs. The trace
instrument measures what the same call actually cost this process in wall
time, keyed by the same :class:`~repro.errors.sites.GemmSite`, so the two
reports join per site and a ``repro trace export`` can show modeled cycles
next to measured milliseconds.

Placement: the instrument rides the executor's chain (last, after Cost) so
chain membership documents that tracing is on, but the *timing* is taken
by ``GemmExecutor.dispatch`` around the whole call. Hook-level timing
cannot see the full window — ``before`` hooks run before the kernel, and
on the bypass route the kernel executes *after* the ``after`` hooks — so
the executor stamps the boundary where every route converges. When no
trace instrument is attached (the default), that boundary is a single
``is None`` test and the chain is exactly the pre-telemetry chain.
"""

from __future__ import annotations

from repro.dispatch.pipeline import GemmCall, Instrument
from repro.errors.sites import GemmSite


class SiteWall:
    """Accumulated wall clock of one site's dispatched + replayed calls.

    ``backend`` records the GEMM backend of the site's most recent live
    dispatch (empty until one runs — replays execute no kernel), so
    exported timings say which kernel produced them (DESIGN.md §11).
    """

    __slots__ = ("calls", "replays", "wall_s", "macs", "backend")

    def __init__(self) -> None:
        self.calls = 0
        self.replays = 0
        self.wall_s = 0.0
        self.macs = 0
        self.backend = ""

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "replays": self.replays,
            "wall_s": self.wall_s,
            "macs": self.macs,
            "backend": self.backend,
        }


class TraceInstrument(Instrument):
    """Aggregates per-site wall time across every traced dispatch."""

    name = "trace"

    def __init__(self) -> None:
        self.by_site: dict[GemmSite, SiteWall] = {}

    # The executor times the full dispatch/replay window and reports here;
    # the inherited before/after/replay hooks stay no-ops on purpose.
    def observe(self, call: GemmCall, wall_s: float, backend: str) -> None:
        row = self.by_site.get(call.site)
        if row is None:
            row = self.by_site[call.site] = SiteWall()
        row.calls += 1
        row.wall_s += wall_s
        row.macs += call.macs
        row.backend = backend

    def observe_replay(self, call: GemmCall, wall_s: float) -> None:
        row = self.by_site.get(call.site)
        if row is None:
            row = self.by_site[call.site] = SiteWall()
        row.replays += 1
        row.wall_s += wall_s
        row.macs += call.macs

    def reset(self) -> None:
        self.by_site.clear()

    @property
    def total_wall_s(self) -> float:
        return sum(row.wall_s for row in self.by_site.values())

    def rows(self, cost_report=None) -> list[dict]:
        """Per-site summary, hottest first; joins modeled cycles when a
        :class:`~repro.systolic.array.GemmRunReport` is supplied."""
        out = []
        for site, row in self.by_site.items():
            entry = {"site": str(site), **row.to_dict()}
            if cost_report is not None:
                site_cost = cost_report.by_site.get(site)
                if site_cost is not None:
                    entry["cycles"] = (
                        site_cost.compute_cycles + site_cost.recovery_cycles
                    )
                    entry["tiles"] = site_cost.tiles
            out.append(entry)
        out.sort(key=lambda e: e["wall_s"], reverse=True)
        return out
