"""Per-layer probes for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of each layer (zoo loads,
spec expansion, lane packing and evaluation, store calls, runner events,
shared-memory publish/attach, calibration, GEMM dispatch, the backend
kernel, injection, checksums and the cost hooks) with timers that count
calls and seconds per process. Coarse layers also open a telemetry span,
so the Perfetto trace shows them next to the program's own spans.

Worker processes report back through the channel the program already
has: after each lane pack (or solo trial) a worker copies its probe table
into ``perfbench.*`` gauges of the metrics registry, which ride the
metric snapshots workers ship with their results, and the campaign parent
merges them into its final progress row. Forked pool workers reset the
table at fork, so nothing the parent counted before the fork is counted
twice.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

#: Probe name -> [calls, seconds] in this process.
TABLE: dict[str, list] = defaultdict(lambda: [0, 0.0])
_LOCK = threading.Lock()
_STATE = {"publish_pid": None, "worker": False}

GAUGE_PREFIX = "perfbench."


def _timed(name: str, fn, span: bool = False):
    import repro.telemetry as telemetry

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            if span:
                with telemetry.span(name):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            with _LOCK:
                row = TABLE[name]
                row[0] += 1
                row[1] += elapsed

    return wrapper


def _publishing(fn):
    """Wrap a worker-side pack entry point to export the probe table."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if _STATE["worker"] or os.getpid() != _STATE["publish_pid"]:
                publish()

    return wrapper


def _patch(owner, attr: str, name: str, span: bool = False, publish: bool = False):
    wrapped = _timed(name, getattr(owner, attr), span=span)
    setattr(owner, attr, _publishing(wrapped) if publish else wrapped)
    return wrapped


def gemm_rollup(rows) -> dict[str, float]:
    """Per-component, per-layer and per-stage seconds from ``gemm_trace``."""
    out: dict[str, float] = defaultdict(float)
    for site, wall in rows:
        out[f"gemm.{site.component.value}.s"] += wall.wall_s
        out[f"gemm.L{site.layer}.s"] += wall.wall_s
        out[f"gemm.{site.stage.value}.s"] += wall.wall_s
    return dict(out)


def publish() -> None:
    """Copy this process's probe table and GEMM-site times into gauges."""
    import repro.telemetry as telemetry
    from repro.dispatch.backends.prepack import PREPACK

    metrics = telemetry.METRICS
    with _LOCK:
        rows = {name: tuple(row) for name, row in TABLE.items()}
    for name, (calls, seconds) in rows.items():
        metrics.gauge(f"{GAUGE_PREFIX}{name}.calls").set(calls)
        metrics.gauge(f"{GAUGE_PREFIX}{name}.s").set(seconds)
    for name, seconds in gemm_rollup(telemetry.gemm_trace().by_site.items()).items():
        metrics.gauge(f"{GAUGE_PREFIX}{name}").set(seconds)
    metrics.gauge(f"{GAUGE_PREFIX}prepack.hits").set(PREPACK.hits)
    metrics.gauge(f"{GAUGE_PREFIX}prepack.misses").set(PREPACK.misses)


def _reset_after_fork() -> None:
    import repro.telemetry as telemetry
    from repro.dispatch.backends.prepack import PREPACK

    with _LOCK:
        TABLE.clear()
    telemetry.gemm_trace().reset()
    PREPACK.reset_stats()


def install(worker: bool = False) -> None:
    """Wrap every probed layer in this process (call before any work).

    ``worker=True`` marks a process that only runs packs (a fabric
    worker): it publishes after every pack. Otherwise only forked
    children publish; the installing process is read directly.
    """
    import repro.campaigns.executor as executor
    import repro.campaigns.lanes as lanes
    import repro.dispatch.pipeline as pipeline
    import repro.models.sharing as sharing
    import repro.training.zoo as zoo
    from repro.campaigns.spec import CampaignSpec
    from repro.campaigns.store import ResultStore
    from repro.core.realm import ReaLMPipeline
    from repro.dispatch.backends import resolve_backend
    from repro.dispatch.backends.prepack import PREPACK
    from repro.dispatch.cost import CostInstrument, LaneCostInstrument
    from repro.errors.injector import ErrorInjector, LaneInjector
    from repro.fabric.broker import FabricRunner
    from repro.models.quantized import GemmExecutor, QuantizedTransformerLM

    _STATE["publish_pid"] = os.getpid()
    _STATE["worker"] = worker
    os.register_at_fork(after_in_child=_reset_after_fork)
    PREPACK.reset_stats()

    # training.zoo — the executor holds its own binding of the function.
    loader = _patch(zoo, "get_pretrained", "zoo.get_pretrained", span=True)
    executor.get_pretrained = loader
    # campaigns.spec / campaigns.lanes / campaigns.store
    _patch(CampaignSpec, "expand", "spec.expand", span=True)
    _patch(lanes.LanePacker, "pack", "lanes.pack", span=True)
    pack_eval = _timed("lanes.evaluate_lane_pack", lanes.evaluate_lane_pack, span=True)
    lanes.evaluate_lane_pack = executor.evaluate_lane_pack = _publishing(pack_eval)
    _patch(executor, "evaluate_trial", "executor.evaluate_trial", span=True, publish=True)
    _patch(ResultStore, "add", "store.add", span=True)
    _patch(ResultStore, "get", "store.get", span=True)
    _patch(ResultStore, "write_progress", "store.write_progress", span=True)
    # campaigns.executor / fabric — time the parent blocks waiting on events
    _patch(executor._PoolRunner, "next_event", "executor.next_event", span=True)
    _patch(FabricRunner, "next_event", "executor.next_event", span=True)
    handle = FabricRunner.handle

    @functools.wraps(handle)
    def counting_handle(self, msg):
        reply = handle(self, msg)
        if type(msg).__name__ == "ResultDelivery":
            with _LOCK:
                TABLE["fabric.deliveries"][0] += 1
        return reply

    FabricRunner.handle = counting_handle
    # models.sharing (the executor imports both lazily, at call time)
    _patch(sharing, "publish_bundle", "sharing.publish", span=True)
    _patch(sharing, "attach_bundle", "sharing.attach", span=True)
    # core.realm
    _patch(ReaLMPipeline, "calibrate", "realm.calibrate", span=True)
    # models.quantized
    _patch(GemmExecutor, "dispatch", "dispatch")
    _patch(GemmExecutor, "replay_call", "dispatch.replay")
    _patch(QuantizedTransformerLM, "decode_step", "decode_step")
    # dispatch.backends — a timing proxy on the default backend instance
    backend = resolve_backend(None)
    for attr in ("matmul_f64", "matmul_int32"):
        setattr(backend, attr, _timed("backend.kernel", getattr(backend, attr)))
    # errors.injector / abft / dispatch.cost — the after-hooks inside dispatch
    _patch(ErrorInjector, "corrupt", "injector.corrupt")
    _patch(LaneInjector, "corrupt", "injector.corrupt")
    _patch(pipeline, "checksum_report", "abft.checksum")
    _patch(pipeline.InjectInstrument, "after", "hook.inject")
    _patch(pipeline.ProtectInstrument, "after", "hook.protect")
    for cls in (CostInstrument, LaneCostInstrument):
        _patch(cls, "after", "hook.cost")
        _patch(cls, "replay", "hook.cost.replay")
