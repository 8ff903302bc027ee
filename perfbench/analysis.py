"""Per-layer metrics of a traced campaign, and its trace files.

Numbers come from four places, all read after the campaign returned:

- the probe table of this process (``probes.TABLE``) plus the
  ``perfbench.*`` gauges workers shipped back in their metric snapshots
  (merged by the campaign parent into the store's final progress row);
- the program's own counters in that same merged snapshot (lane packs,
  supervision, fabric leases, protector statistics);
- the telemetry spans of every process (workers ship theirs with their
  results), deduplicated — a forked worker inherits the parent's buffer;
- the store itself, for the simulated totals (injected errors, cycles,
  recovered MACs, energy), which are simulator output and must repeat.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path

import probes

#: Metrics whose numbers are observed in the campaign parent only; every
#: other per-layer metric adds the workers' shipped numbers to the parent's.
PARENT_ONLY = (
    "spec.", "lanes.pack.s", "store.", "executor.", "supervise.", "fabric.",
    "sharing.publish", "process.", "accounting.", "telemetry.",
)

COMPONENTS = ("Q", "K", "V", "QKT", "SV", "O", "FC1", "FC2", "Gate", "Up", "Down")
LAYERS = (0, 1)
STAGES = ("prefill", "decode")

#: Every per-layer metric with its unit, in reporting order.
UNITS: dict[str, str] = {
    "process.startup_s": "s",
    "accounting.coverage": "ratio",
    "zoo.get_pretrained.calls": "count",
    "zoo.get_pretrained.s": "s",
    "spec.expand.s": "s",
    "lanes.pack.s": "s",
    "lanes.packs": "count",
    "lanes.occupancy": "ratio",
    "lanes.evaluate_lane_pack.s": "s",
    "lanes.degraded_packs": "count",
    "store.add.calls": "count",
    "store.add.s": "s",
    "store.get.calls": "count",
    "store.get.s": "s",
    "store.write_progress.calls": "count",
    "store.write_progress.s": "s",
    "executor.drain_wait_s": "s",
    "pool.worker_busy_frac": "ratio",
    "supervise.requeues": "count",
    "supervise.worker_deaths": "count",
    "sharing.publish.s": "s",
    "sharing.attach.s": "s",
    "fabric.leases_granted": "count",
    "fabric.lease_steals": "count",
    "fabric.duplicate_results": "count",
    "fabric.deliveries": "count",
    "eval.clean.s": "s",
    "replay.record.s": "s",
    "replay.resume.s": "s",
    "realm.calibrate.calls": "count",
    "realm.calibrate.s": "s",
    "dispatch.calls": "count",
    "dispatch.s": "s",
    "dispatch.replay.calls": "count",
    "dispatch.overhead_s": "s",
    "decode_step.calls": "count",
    "decode_step.s": "s",
    "backend.kernel.calls": "count",
    "backend.kernel.s": "s",
    "backend.kernel_share": "ratio",
    "backend.prepack_hit_rate": "ratio",
    "injector.corrupt.calls": "count",
    "injector.corrupt.s": "s",
    "injector.errors": "count",
    "abft.checksum.calls": "count",
    "abft.checksum.s": "s",
    "protector.inspected": "count",
    "protector.recovered": "count",
    "protector.recovery_rate": "ratio",
    "cost.hook.s": "s",
    "cost.cycles": "cycles",
    "cost.recovered_macs": "MACs",
    "cost.energy_j": "J",
    **{f"gemm.{c}.s": "s" for c in COMPONENTS},
    **{f"gemm.L{i}.s": "s" for i in LAYERS},
    **{f"gemm.{s}.s": "s" for s in STAGES},
    "telemetry.overhead_pct": "%",
}


def side(name: str) -> str:
    return "parent" if name.startswith(PARENT_ONLY) else "parent+workers"


def _dedupe(events: list[dict]) -> list[dict]:
    seen = set()
    out = []
    for ev in events:
        key = (ev["pid"], ev["tid"], ev["ts"], ev["dur"], ev["name"])
        if key not in seen:
            seen.add(key)
            out.append(ev)
    return out


def span_table(events: list[dict]) -> tuple[dict[str, dict], dict[int, float]]:
    """Per span name: count, total and self seconds (self = the span minus
    the part its child spans cover). Also the root-span seconds per pid."""
    stats: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    roots: dict[int, float] = defaultdict(float)
    by_thread: dict[tuple, list[dict]] = defaultdict(list)
    for ev in events:
        by_thread[(ev["pid"], ev["tid"])].append(ev)
    for (pid, _), evs in by_thread.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [end_us, event, child_us]

        def close(frame):
            ev, child = frame[1], frame[2]
            row = stats[ev["name"]]
            row["count"] += 1
            row["total_s"] += ev["dur"] / 1e6
            row["self_s"] += (ev["dur"] - child) / 1e6

        for ev in evs:
            while stack and stack[-1][0] <= ev["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += ev["dur"]
            else:
                roots[pid] += ev["dur"] / 1e6
            stack.append([ev["ts"] + ev["dur"], ev, 0.0])
        while stack:
            close(stack.pop())
    return dict(stats), dict(roots)


def _store_totals(store_dir: Path) -> dict[str, float]:
    from repro.campaigns.store import ResultStore

    totals = {"injector.errors": 0, "cost.cycles": 0, "cost.recovered_macs": 0,
              "cost.energy_j": 0.0}
    with ResultStore(store_dir, create=False) as store:
        for record in store.records():
            result = record.result
            totals["injector.errors"] += result.injected_errors
            totals["cost.cycles"] += result.cycles
            totals["cost.recovered_macs"] += result.recovered_macs
            totals["cost.energy_j"] += result.energy_j
    return totals


def per_layer(workload, store_dir: Path, trace_dir: Path, campaign_s: float,
              startup_s: float) -> tuple[dict[str, float], dict[str, dict]]:
    """Every per-layer metric plus the span table; writes the deduplicated
    Perfetto trace to ``trace_dir/trace.json``."""
    import repro.telemetry as telemetry
    from repro.campaigns.lanes import DEFAULT_MAX_LANES
    from repro.campaigns.progress import read_latest_progress
    from repro.dispatch.backends.prepack import PREPACK

    snapshot = (read_latest_progress(store_dir) or {}).get("metrics", {})
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    prefix = probes.GAUGE_PREFIX

    def probe(name: str) -> tuple[float, float]:
        calls, seconds = probes.TABLE.get(name, (0, 0.0))
        return (calls + gauges.get(f"{prefix}{name}.calls", 0.0),
                seconds + gauges.get(f"{prefix}{name}.s", 0.0))

    events = _dedupe(telemetry.tracer().events())
    spans, roots = span_table(events)
    parent = os.getpid()

    m: dict[str, float] = {}
    m["process.startup_s"] = startup_s
    m["accounting.coverage"] = (startup_s + roots.get(parent, 0.0)) / campaign_s
    for name in ("zoo.get_pretrained", "store.add", "store.get",
                 "store.write_progress", "realm.calibrate", "decode_step",
                 "backend.kernel", "injector.corrupt", "abft.checksum"):
        m[f"{name}.calls"], m[f"{name}.s"] = probe(name)
    for name in ("spec.expand", "lanes.pack", "lanes.evaluate_lane_pack",
                 "sharing.publish", "sharing.attach"):
        m[f"{name}.s"] = probe(name)[1]
    m["lanes.packs"] = counters.get("lanes.packs", 0)
    packed = counters.get("lanes.packed_trials", 0)
    m["lanes.occupancy"] = packed / (m["lanes.packs"] * DEFAULT_MAX_LANES) if packed else 0.0
    m["lanes.degraded_packs"] = counters.get("lanes.pack_degradations", 0)
    m["executor.drain_wait_s"] = probes.TABLE.get("executor.next_event", (0, 0.0))[1]

    # Worker busy share: workers' pack-evaluation span time over workers x
    # the window from the first pack evaluation to the last.
    packs = [ev for ev in events if ev["pid"] != parent
             and ev["name"] in ("pack.evaluate", "trial.evaluate")]
    if packs and workload.workers:
        window = (max(ev["ts"] + ev["dur"] for ev in packs)
                  - min(ev["ts"] for ev in packs)) / 1e6
        busy = sum(ev["dur"] for ev in packs) / 1e6
        m["pool.worker_busy_frac"] = busy / (workload.workers * window)
    else:
        m["pool.worker_busy_frac"] = 0.0
    for name in ("supervise.requeues", "supervise.worker_deaths",
                 "fabric.leases_granted", "fabric.lease_steals",
                 "fabric.duplicate_results"):
        m[name] = counters.get(name, 0)
    m["fabric.deliveries"] = probes.TABLE.get("fabric.deliveries", (0, 0.0))[0]
    for name in ("eval.clean", "replay.record", "replay.resume"):
        m[f"{name}.s"] = spans.get(name, {}).get("total_s", 0.0)

    m["dispatch.calls"], m["dispatch.s"] = probe("dispatch")
    m["dispatch.replay.calls"] = probe("dispatch.replay")[0]
    hooks = sum(probe(h)[1] for h in ("hook.inject", "hook.protect", "hook.cost"))
    m["dispatch.overhead_s"] = m["dispatch.s"] - m["backend.kernel.s"] - hooks
    m["backend.kernel_share"] = (
        m["backend.kernel.s"] / m["dispatch.s"] if m["dispatch.s"] else 0.0
    )
    hits = PREPACK.hits + gauges.get(f"{prefix}prepack.hits", 0.0)
    misses = PREPACK.misses + gauges.get(f"{prefix}prepack.misses", 0.0)
    m["backend.prepack_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["protector.inspected"] = counters.get("protector.inspected", 0)
    m["protector.recovered"] = counters.get("protector.recovered", 0)
    m["protector.recovery_rate"] = (
        m["protector.recovered"] / m["protector.inspected"]
        if m["protector.inspected"] else 0.0
    )
    m["cost.hook.s"] = probe("hook.cost")[1] + probe("hook.cost.replay")[1]
    m.update(_store_totals(store_dir))

    gemm = probes.gemm_rollup(telemetry.gemm_trace().by_site.items())
    for name in UNITS:
        if name.startswith("gemm."):
            m[name] = gemm.get(name, 0.0) + gauges.get(f"{prefix}{name}", 0.0)

    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n"
    )
    return {name: m[name] for name in UNITS if name in m}, spans
