"""Campaign executors: serial and supervised-pool trial runners.

The single-trial primitive :func:`evaluate_trial` is shared by everything
that scores an injected configuration — the characterization sweeps, the
benchmarks, and both campaign executors — so a trial means exactly the same
measurement everywhere.

The parallel route runs on a :class:`~repro.campaigns.supervise.SupervisedPool`
rather than a raw :class:`multiprocessing.Pool`: every lane pack is a lease
with a deadline, dead or hung workers are respawned and their packs requeued,
trial-level exceptions are retried with backoff, and trials that exhaust
their retry budget are quarantined in the store (DESIGN.md section 12).

The pool executor keys its caches per worker process: each worker loads (or
trains, on a cold cache) every zoo model it touches **once**, builds one
:class:`~repro.characterization.evaluator.ModelEvaluator` per (model, task)
— and one calibrated :class:`~repro.core.realm.ReaLMPipeline` where a
behavioral protection method demands it — and then reuses them for every
subsequent trial. Before the pool starts, the parent quantizes/calibrates
each needed engine once, records the clean traces the replay engine resumes
from, and publishes both into ``multiprocessing.shared_memory``
(:mod:`repro.models.sharing`); the pool initializer attaches them as
read-only zero-copy views, so workers skip quantization, calibration, and
clean re-scoring entirely. The parent process is the only writer of the
result store; results stream back as they finish, so killing a campaign
mid-run loses at most the in-flight trials.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.campaigns import chaos as chaos_mod
from repro.campaigns.chaos import ChaosSpec
from repro.campaigns.lanes import (
    DEFAULT_MAX_LANES,
    LanePacker,
    _count_trial_stats,
    build_injector,
    build_protector,
    evaluate_lane_pack,
    trial_costs as _trial_costs,
)
from repro.campaigns.progress import build_snapshot
from repro.campaigns.spec import NO_METHOD, CampaignSpec, Trial
from repro.campaigns.stopping import STOP
from repro.campaigns.store import ResultStore, TrialResult
from repro.campaigns.supervise import (
    PackDone,
    PackLost,
    SupervisedPool,
    SuperviseConfig,
)
import repro.telemetry as telemetry
from repro.characterization.evaluator import ModelEvaluator
from repro.core.methods import METHODS
from repro.core.realm import ReaLMConfig, ReaLMPipeline
from repro.dispatch.backends import use_backend
from repro.dispatch.cost import CostSpec
from repro.training.zoo import get_pretrained
from repro.utils.logging import get_logger

logger = get_logger("campaigns")


def _needs_pipeline(method: str) -> bool:
    """Methods whose protector requires pipeline calibration state."""
    if method in (NO_METHOD, "classical-abft") or method not in METHODS:
        return False
    return METHODS[method].behavioral


def evaluate_trial(
    trial: Trial,
    evaluator: ModelEvaluator,
    pipeline: Optional[ReaLMPipeline] = None,
    cost: Optional[CostSpec] = None,
    backend: Optional[str] = None,
    attempt: int = 0,
) -> TrialResult:
    """Score one trial on an already-built evaluator.

    ``pipeline`` is only consulted for behavioral protection methods that
    need calibrated critical regions (statistical/approx ABFT). ``cost``
    attaches a :class:`~repro.dispatch.cost.CostInstrument` for the
    duration of the trial, filling the result's ``cycles`` /
    ``recovered_macs`` / ``energy_j`` columns with hardware costs measured
    on the trial's actual GEMM calls (energy at the trial's voltage, or
    nominal when the grid has no voltage axis). ``backend`` selects the
    GEMM backend for the duration (``CampaignSpec.backend``, DESIGN.md
    section 11); an unavailable one degrades to the exact default with a
    WARNING, and the result records what actually ran.

    This is the per-trial reference route the lane-packed executor
    (:mod:`repro.campaigns.lanes`) is asserted bit-identical against.
    ``attempt`` is the supervisor's retry counter (0 on first execution) —
    it only feeds the chaos harness's per-trial fault point, never the
    measurement.
    """
    chaos_mod.maybe_fail_trial(trial.key, attempt)
    start = time.perf_counter()
    injector = build_injector(trial)
    cost_instrument = cost.build() if cost is not None else None
    protector = build_protector(trial, evaluator, pipeline)

    with use_backend(evaluator.model.executor, backend) as active:
        with telemetry.span("trial.evaluate", cell=trial.cell_label, seed=trial.seed):
            score = evaluator.run(injector, protector, cost=cost_instrument)
        if trial.method not in (NO_METHOD,) and METHODS[trial.method].exact_correction:
            score = evaluator.clean_score  # detected-and-replayed: fault-free output
        clean_score = evaluator.clean_score
    cycles = recovered_macs = 0
    energy_j = 0.0
    if cost_instrument is not None:
        cycles, recovered_macs, energy_j = _trial_costs(
            trial, cost_instrument, injector, evaluator
        )
    elapsed = time.perf_counter() - start
    metrics = telemetry.METRICS
    _count_trial_stats(metrics, injector, protector)
    metrics.histogram("trial.elapsed_s").observe(elapsed)
    return TrialResult(
        score=score,
        degradation=evaluator.degradation(score),
        clean_score=clean_score,
        injected_errors=injector.stats.injected_errors if injector else 0,
        gemm_calls=injector.stats.gemm_calls if injector else 0,
        cycles=cycles,
        recovered_macs=recovered_macs,
        energy_j=energy_j,
        elapsed_s=elapsed,
        worker=os.getpid(),
        backend=active.name,
    )


# --------------------------------------------------------------- worker side
#: Per-process caches — populated lazily inside each pool worker (and by the
#: serial executor in the parent), so a model is loaded/trained once per
#: process rather than once per trial.
_EVALUATORS: dict[tuple[str, str], ModelEvaluator] = {}
_PIPELINES: dict[tuple[str, str], ReaLMPipeline] = {}


def _trial_context(trial: Trial) -> tuple[ModelEvaluator, Optional[ReaLMPipeline]]:
    key = (trial.model, trial.task)
    if _needs_pipeline(trial.method):
        pipeline = _PIPELINES.get(key)
        if pipeline is None:
            cached = _EVALUATORS.get(key)
            bundle = cached.bundle if cached is not None else get_pretrained(trial.model)
            pipeline = ReaLMPipeline(
                bundle, ReaLMConfig(task=trial.task), evaluator=cached
            )
            _PIPELINES[key] = pipeline
            _EVALUATORS[key] = pipeline.evaluator
        return pipeline.evaluator, pipeline
    evaluator = _EVALUATORS.get(key)
    if evaluator is None:
        if key in _PIPELINES:
            evaluator = _PIPELINES[key].evaluator
        else:
            evaluator = ModelEvaluator(get_pretrained(trial.model), trial.task)
        _EVALUATORS[key] = evaluator
    return evaluator, None


def _run_trial_payload(payload: dict) -> dict:
    """Pool entry point: trial dict in, (key, result | error) dict out.

    The optional ``"cost"`` key carries the campaign-level
    :class:`~repro.dispatch.cost.CostSpec`; it is popped before the trial
    is parsed so it never leaks into trial identity or stored records.
    The optional ``"gemm_backend"`` key carries the campaign-level
    backend selection (``CampaignSpec.backend``) the same way — an
    execution setting, never part of the trial key. ``"attempt"`` is the
    supervisor's retry counter for this trial, consumed by the chaos
    harness; ``"chaos"`` activates a
    :class:`~repro.campaigns.chaos.ChaosSpec` in this process.
    """
    cost_payload = payload.pop("cost", None)
    cost = CostSpec.from_dict(cost_payload) if cost_payload is not None else None
    backend = payload.pop("gemm_backend", None)
    chaos_payload = payload.pop("chaos", None)
    if chaos_payload is not None:
        chaos_mod.install(ChaosSpec.from_dict(chaos_payload))
    attempt = payload.pop("attempt", 0)
    trial = Trial.from_dict(payload)
    try:
        evaluator, pipeline = _trial_context(trial)
        result = evaluate_trial(
            trial, evaluator, pipeline, cost=cost, backend=backend,
            attempt=attempt,
        )
        return {"key": trial.key, "trial": payload, "result": result.to_dict()}
    except Exception as exc:  # surfaced to the parent, which keeps going
        return {
            "key": trial.key,
            "trial": payload,
            "error": repr(exc),
            "worker": os.getpid(),
        }


def _ship_telemetry(outcomes: list[dict]) -> list[dict]:
    """Piggyback this worker's telemetry on the pack's last outcome dict.

    Metric snapshots are cumulative per process (the parent keeps the latest
    per pid and merges); spans are drained, so each pack ships only what it
    added. Riding the existing result payloads means no side channel — the
    serial runner, the pool, and any future transport all work unchanged.
    """
    if not outcomes:
        return outcomes
    snapshot = telemetry.runtime_snapshot()
    snapshot["pid"] = os.getpid()
    outcomes[-1]["metrics"] = snapshot
    if telemetry.enabled():
        outcomes[-1]["spans"] = telemetry.tracer().drain()
    return outcomes


def _run_pack_payload(payload: dict) -> list[dict]:
    """Pool entry point for a lane pack: trial dicts in, outcome dicts out.

    Single-lane packs route straight through the per-trial reference path.
    A multi-lane pack that fails for any reason degrades to per-trial
    execution instead of failing all its lanes at once — the lane
    vectorization is a pure throughput optimization, never a correctness
    dependency. Degraded outcomes carry ``"degraded": True`` and bump the
    ``lanes.pack_degradations`` counter so a campaign that quietly lost its
    vectorization shows up in ``campaign watch`` / ``status --metrics``.
    """
    trial_payloads = payload["trials"]
    cost_payload = payload.get("cost")
    backend = payload.get("gemm_backend")
    chaos_payload = payload.get("chaos")
    if chaos_payload is not None:
        chaos_mod.install(ChaosSpec.from_dict(chaos_payload))
    pack_attempt = payload.get("pack_attempt", 0)
    attempts = [p.get("attempt", 0) for p in trial_payloads]
    # ``attempt`` is supervision metadata, never trial identity — strip it
    # before anything parses or re-emits the trial dicts.
    clean_payloads = [
        {k: v for k, v in p.items() if k != "attempt"} for p in trial_payloads
    ]
    trials = [Trial.from_dict(p) for p in clean_payloads]
    # Pack-level chaos fault points: these model *worker* failures (hard
    # death, a wedged process), so they fire before any trial work — the
    # supervisor must recover the whole lease.
    chaos_mod.maybe_kill_worker(trials[0].key, pack_attempt)
    chaos_mod.maybe_hang(trials[0].key, pack_attempt)

    def solo(trial_payload: dict) -> dict:
        single = dict(trial_payload)
        if cost_payload is not None:
            single["cost"] = cost_payload
        if backend is not None:
            single["gemm_backend"] = backend
        return _run_trial_payload(single)

    if len(trial_payloads) == 1:
        return _ship_telemetry([solo(trial_payloads[0])])
    cost = CostSpec.from_dict(cost_payload) if cost_payload is not None else None
    try:
        evaluator, pipeline = _trial_context(trials[0])
        results = evaluate_lane_pack(
            trials, evaluator, pipeline, cost=cost, backend=backend,
            attempts=attempts,
        )
        return _ship_telemetry(
            [
                {"key": trial.key, "trial": trial_payload, "result": result.to_dict()}
                for trial, trial_payload, result in zip(
                    trials, clean_payloads, results
                )
            ]
        )
    except Exception as exc:
        telemetry.METRICS.counter("lanes.pack_degradations").inc()
        logger.warning(
            "lane pack of %d trials (%s) degraded to per-trial execution",
            len(trials),
            trials[0].cell_label,
            exc_info=exc,
        )
        outcomes = [solo(p) for p in trial_payloads]
        for outcome in outcomes:
            outcome["degraded"] = True
        return _ship_telemetry(outcomes)


# --------------------------------------------------------------- parent side
@dataclass
class RunReport:
    """What one ``run_campaign`` invocation actually did."""

    total: int = 0
    cached: int = 0
    executed: int = 0
    skipped: int = 0  # pending seeds dropped by early stopping
    failed: int = 0  # infrastructure gave up (pack lost after max_requeues)
    retried: int = 0  # trial-level retries granted (each may still succeed)
    quarantined: int = 0  # trials that failed max_retries + 1 attempts
    poison_skipped: int = 0  # trials skipped because already quarantined
    stopped_cells: int = 0
    elapsed_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        extras = ""
        if self.retried or self.quarantined or self.poison_skipped:
            extras = (
                f", {self.retried} retried, {self.quarantined} quarantined"
                f" (+{self.poison_skipped} already quarantined)"
            )
        return (
            f"{self.total} trials: {self.cached} cached, {self.executed} executed, "
            f"{self.skipped} skipped by early stopping ({self.stopped_cells} cells), "
            f"{self.failed} failed{extras} [{self.elapsed_s:.1f}s]"
        )


@dataclass
class _Cell:
    label: str
    total: int = 0  # trials the spec allots this cell, done or not
    values: list[float] = field(default_factory=list)
    pending: list[Trial] = field(default_factory=list)


class _SerialRunner:
    """Runs lane packs in-process, sharing the worker caches.

    Speaks the same submit/``next_event`` protocol as :class:`_PoolRunner`
    so the parent's drain loop (retries, quarantine, progress writes) is
    identical for both. Each ``next_event`` call executes exactly one pack
    and returns its :class:`PackDone`, so the parent persists outcomes as
    they complete — materializing the wave first would mean a crash loses
    every already-computed result. Leases are a no-op here: the runner
    cannot outlive or kill itself, so deadlines are ignored and only the
    retry-backoff eligibility time is honored.
    """

    def __init__(self) -> None:
        self._next_job_id = 0
        self._queue: list[tuple[float, int, dict]] = []  # (eligible_at, id, payload)

    @property
    def outstanding(self) -> int:
        return len(self._queue)

    def submit(self, payload: dict, deadline_s: float, delay_s: float = 0.0) -> int:
        job_id = self._next_job_id
        self._next_job_id += 1
        self._queue.append((time.monotonic() + delay_s, job_id, payload))
        return job_id

    def next_event(self) -> Optional[PackDone]:
        if not self._queue:
            return None
        self._queue.sort(key=lambda item: item[0])
        eligible_at, job_id, payload = self._queue.pop(0)
        delay = eligible_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        return PackDone(
            job_id=job_id, payload=payload, outcomes=_run_pack_payload(payload)
        )

    def close(self, force: bool = False) -> None:
        pass


def _worker_init(manifests: Sequence[dict], chaos_payload: Optional[dict] = None) -> None:
    """Pool initializer: attach parent-published engines + traces zero-copy.

    Chaos is installed first so the attach itself is a fault site
    (:func:`repro.campaigns.chaos.maybe_fail_shm_attach`) — an injected
    attach failure exercises the same degrade-and-rebuild path a real
    ``/dev/shm`` problem would.
    """
    from repro.models.sharing import attach_bundle

    if chaos_payload is not None:
        chaos_mod.install(ChaosSpec.from_dict(chaos_payload))
    for manifest in manifests:
        try:
            attach_bundle(manifest)
        except Exception as exc:  # worker falls back to building its own
            logger.warning("shared-memory attach failed (%r); rebuilding", exc)


def _build_shared_packs(needed: dict[str, set[str]]):
    """Publish one (engine + clean traces) pack per still-needed model.

    The parent pays one quantization + calibration + clean scoring pass per
    (model, task) — work every worker would otherwise repeat — and ships
    the result as shared memory. Returns ``None`` (and the campaign runs
    exactly as before) when shared memory is unavailable.
    """
    try:
        from repro.characterization.evaluator import (
            _bundle_fingerprint,
            quantized_model_for,
        )
        from repro.models.replay import TRACES
        from repro.models.sharing import publish_bundle
    except ImportError:  # pragma: no cover - no shared_memory on platform
        return None
    packs = []
    try:
        for model in sorted(needed):
            bundle = get_pretrained(model)
            recorded = False
            for task in sorted(needed[model]):
                evaluator = ModelEvaluator(bundle, task)
                if evaluator.replay:
                    evaluator.clean_score  # records this cell's clean traces
                    recorded = True
            fingerprint = _bundle_fingerprint(bundle)
            traces = (
                {k: t for k, t in TRACES.items() if k.startswith(fingerprint)}
                if recorded
                else None
            )
            packs.append(
                publish_bundle(fingerprint, quantized_model_for(bundle), traces)
            )
    except Exception as exc:
        logger.warning("shared-memory publish failed (%r); workers rebuild", exc)
        for pack in packs:
            pack.close()
        return None
    return packs


class _PoolRunner:
    """Runs lane packs on a :class:`SupervisedPool`, streaming events back.

    Replaces the raw ``multiprocessing.Pool`` of PRs 1-6: every pack is a
    lease with a deadline, worker SIGKILLs and hangs are detected and the
    pack requeued on a healthy worker (DESIGN.md section 12). The wrapper
    only adds shared-memory pack lifecycle on top of the generic pool.
    """

    def __init__(
        self,
        workers: int,
        shared_packs=None,
        config: Optional[SuperviseConfig] = None,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        self.workers = workers
        self.shared_packs = shared_packs or []
        manifests = [pack.manifest for pack in self.shared_packs]
        self.pool = SupervisedPool(
            workers,
            _run_pack_payload,
            initializer=_worker_init,
            initargs=(manifests, chaos.to_dict() if chaos is not None else None),
            config=config,
        )

    @property
    def outstanding(self) -> int:
        return self.pool.outstanding

    def submit(self, payload: dict, deadline_s: float, delay_s: float = 0.0) -> int:
        return self.pool.submit(payload, deadline_s, delay_s=delay_s)

    def next_event(self):
        return self.pool.next_event()

    def close(self, force: bool = False) -> None:
        try:
            self.pool.close(force=force)
        finally:
            for pack in self.shared_packs:
                pack.close()


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    workers: int = 0,
    on_result=None,
    lane_width: int = DEFAULT_MAX_LANES,
    supervise: Optional[SuperviseConfig] = None,
    chaos: Optional[ChaosSpec] = None,
    runner=None,
) -> RunReport:
    """Execute every not-yet-stored trial of ``spec``, writing into ``store``.

    ``workers <= 1`` runs serially in-process; otherwise a supervised pool
    of ``workers`` processes is used (DESIGN.md section 12) — worker
    SIGKILLs, hangs past the lease deadline, and crashes are recovered by
    requeueing the lost pack on a healthy worker. Either way the parent
    writes each result to the store the moment it arrives, so a killed run
    resumes cleanly. ``on_result`` (if given) is called with each new
    ``StoredRecord``-shaped payload dict, for progress display.

    ``lane_width`` caps how many trials pack into one batched forward
    (DESIGN.md section 9); results are bit-identical at any width, so the
    knob only trades activation memory against per-dispatch overhead.
    ``lane_width=1`` restores strictly per-trial execution.

    ``supervise`` overrides the spec's :class:`SuperviseConfig` (both a
    measurement setting, never trial identity). A trial whose own execution
    raises is retried with exponential backoff up to ``max_retries`` times;
    one that fails every attempt is **quarantined**: persisted in the
    store's quarantine log and skipped by every later run, so one poison
    trial can never wedge a campaign in a crash loop. ``chaos`` injects
    deterministic faults (:mod:`repro.campaigns.chaos`); when ``None``,
    ``$REPRO_CHAOS`` is honored.

    ``runner`` overrides the execution backend with any object speaking the
    submit/``next_event``/``outstanding``/``close`` protocol — this is how
    the distributed fabric (:class:`repro.fabric.FabricRunner`) reuses this
    exact drain loop across a worker fleet. The campaign consumes the
    runner: it is closed before returning. A runner may optionally expose
    ``fleet_snapshot()`` (merged into progress snapshots) and
    ``note_quarantine(trial, info)`` (called after each quarantine so
    remote workers can be notified).
    """
    start = time.perf_counter()
    policy = spec.stopping
    cfg = supervise or spec.supervise or SuperviseConfig()
    installed_chaos = False
    if chaos is None:
        chaos = chaos_mod.active()
    elif chaos is not chaos_mod.active():
        chaos_mod.install(chaos)  # parent-side faults: torn store writes
        installed_chaos = True
    report = RunReport()

    quarantined_keys = store.quarantined_keys()
    cells: dict[str, _Cell] = {}
    order: list[str] = []
    for trial in spec.expand():
        report.total += 1
        cell = cells.get(trial.cell_id)
        if cell is None:
            cell = cells[trial.cell_id] = _Cell(label=trial.cell_label)
            order.append(trial.cell_id)
        cell.total += 1
        record = store.get(trial.key)
        if record is not None:
            report.cached += 1
            cell.values.append(record.result.degradation)
        elif trial.key in quarantined_keys:
            report.poison_skipped += 1
        else:
            cell.pending.append(trial)
    if report.poison_skipped:
        logger.warning(
            "skipping %d quarantined trial(s); `campaign quarantine list` "
            "shows them, `campaign quarantine clear` re-enables them",
            report.poison_skipped,
        )

    # Cells already satisfied by stored results (resume after a stop/kill).
    active: list[_Cell] = []
    for cell_id in order:
        cell = cells[cell_id]
        if not cell.pending:
            continue
        if policy is not None and cell.values and policy.decide(cell.values) == STOP:
            report.skipped += len(cell.pending)
            report.stopped_cells += 1
            cell.pending.clear()
            continue
        active.append(cell)

    # Live progress: the parent (sole store writer) snapshots campaign-wide
    # state into the store's ``progress`` table for ``campaign watch`` /
    # ``status --metrics`` readers in other processes. Worker metric
    # snapshots are cumulative per pid; the parent keeps the latest one per
    # worker and merges with its own registry at write time (its own pid is
    # skipped from the shipped set so the serial runner is not counted
    # twice).
    worker_metrics: dict[int, dict] = {}
    last_progress_write = 0.0
    last_result_at: Optional[float] = None

    def _write_progress(state: str) -> None:
        nonlocal last_progress_write
        now = time.perf_counter()
        shipped = [
            snap for pid, snap in worker_metrics.items() if pid != os.getpid()
        ]
        merged = telemetry.merge_snapshots(shipped + [telemetry.runtime_snapshot()])
        fleet_fn = getattr(runner, "fleet_snapshot", None)
        snapshot = build_snapshot(
            fleet=fleet_fn() if fleet_fn is not None else None,
            name=spec.name,
            state=state,
            totals={
                "total": report.total,
                "cached": report.cached,
                "executed": report.executed,
                "failed": report.failed,
                "skipped": report.skipped,
                "retried": report.retried,
                "quarantined": report.quarantined,
                "poison_skipped": report.poison_skipped,
            },
            elapsed_s=now - start,
            cells=[
                {
                    "cell": cell_id,
                    "label": cells[cell_id].label,
                    "done": len(cells[cell_id].values),
                    "total": cells[cell_id].total,
                    "values": cells[cell_id].values,
                }
                for cell_id in order
            ],
            metrics=merged,
            last_result_age_s=None if last_result_at is None else now - last_result_at,
        )
        store.write_progress(snapshot)
        last_progress_write = now

    if active:
        # Train/load each still-needed model once in the parent, not N times
        # concurrently in the workers. (An external fabric runner needs this
        # too: its degrade-to-local pool forks workers that load bundles.)
        needed: dict[str, set[str]] = {}
        for cell in active:
            for trial in cell.pending:
                needed.setdefault(trial.model, set()).add(trial.task)
        with telemetry.span("campaign.warm_models", models=len(needed)):
            for model in sorted(needed):
                get_pretrained(model)
    if active and runner is None:
        if workers > 1:
            # Quantize/calibrate once, record clean traces, publish both as
            # shared memory so workers attach zero-copy instead of
            # re-materializing per process.
            shared_packs = _build_shared_packs(needed)
            try:
                runner = _PoolRunner(workers, shared_packs, config=cfg, chaos=chaos)
            except Exception:
                # Pool creation failed after the segments were published;
                # unlink them now or they outlive the process in /dev/shm.
                for pack in shared_packs or []:
                    pack.close()
                raise
        else:
            runner = _SerialRunner()
    packer = LanePacker(max_lanes=max(1, lane_width)) if runner is not None else None
    _write_progress("running")

    # Trial-level retry bookkeeping: retries granted so far and the error
    # history per trial key. The taxonomy label is decided at quarantine
    # time — the same exception repr twice in a row reads as deterministic,
    # anything else as transient.
    retries_granted: dict[str, int] = {}
    error_history: dict[str, list[str]] = {}

    def _submit_pack(trial_dicts: list[dict], delay_s: float = 0.0) -> None:
        payload = {"trials": trial_dicts}
        if spec.cost is not None:
            payload["cost"] = spec.cost.to_dict()
        if spec.backend is not None:
            payload["gemm_backend"] = spec.backend
        if chaos is not None:
            payload["chaos"] = chaos.to_dict()
        runner.submit(
            payload,
            deadline_s=cfg.trial_timeout * len(trial_dicts),
            delay_s=delay_s,
        )

    def _handle_error(outcome: dict, trial: Trial) -> None:
        """Retry a failed trial with backoff, or quarantine it for good."""
        key = outcome["key"]
        history = error_history.setdefault(key, [])
        history.append(outcome["error"])
        granted = retries_granted.get(key, 0)
        if granted < cfg.max_retries:
            retries_granted[key] = granted + 1
            report.retried += 1
            telemetry.METRICS.counter("campaign.trial_retries").inc()
            delay = cfg.backoff(granted + 1, key)
            retry_dict = dict(outcome["trial"])
            retry_dict["attempt"] = granted + 1
            logger.warning(
                "retrying trial %s#s%d (attempt %d/%d, backoff %.2fs): %s",
                trial.cell_label, trial.seed, granted + 2,
                cfg.max_retries + 1, delay, outcome["error"],
            )
            _submit_pack([retry_dict], delay_s=delay)
            return
        kind = (
            "deterministic"
            if len(history) >= 2 and history[-1] == history[-2]
            else "transient"
        )
        store.quarantine(
            trial,
            {
                "error": outcome["error"],
                "kind": kind,
                "attempts": granted + 1,
                "errors": list(history),
                "worker": outcome.get("worker"),
            },
        )
        report.quarantined += 1
        notify = getattr(runner, "note_quarantine", None)
        if notify is not None:
            notify(trial, {"error": outcome["error"], "kind": kind, "attempts": granted + 1})
        telemetry.METRICS.counter("campaign.trials_quarantined").inc()
        report.errors.append(
            f"{trial.cell_label}#s{trial.seed}: quarantined ({kind}) after "
            f"{granted + 1} attempts: {outcome['error']}"
        )
        logger.warning("trial quarantined: %s", report.errors[-1])

    try:
        wave_index = 0
        while active:
            wave: list[Trial] = []
            owner: dict[str, _Cell] = {}
            for cell in active:
                if policy is None:
                    take = len(cell.pending)
                else:
                    take = max(policy.min_seeds - len(cell.values), 1)
                for trial in cell.pending[:take]:
                    wave.append(trial)
                    owner[trial.key] = cell
                del cell.pending[:take]
            with telemetry.span("campaign.pack", trials=len(wave)):
                packs = packer.pack(wave)
            wave_index += 1
            logger.info(
                "wave %d: %d trials in %d lane packs across %d cells (%s)",
                wave_index, len(wave), len(packs), len(active),
                f"{workers} workers" if workers > 1 else "serial",
            )
            for pack in packs:
                _submit_pack([trial.to_dict() for trial in pack])
            # Drain until every lease of this wave (including trial retries
            # submitted along the way) is done, lost, or quarantined.
            while runner.outstanding:
                event = runner.next_event()
                if time.perf_counter() - last_progress_write >= 0.5:
                    _write_progress("running")
                if event is None:
                    continue  # heartbeat tick: nothing finished this poll
                if isinstance(event, PackLost):
                    # Requeue budget exhausted — a host problem, not a
                    # poison trial, so the trials fail without quarantine.
                    for trial_dict in event.payload["trials"]:
                        clean = {
                            k: v for k, v in trial_dict.items() if k != "attempt"
                        }
                        trial = Trial.from_dict(clean)
                        report.failed += 1
                        telemetry.METRICS.counter("campaign.trials_failed").inc()
                        report.errors.append(
                            f"{trial.cell_label}#s{trial.seed}: pack lost after "
                            f"{event.requeues} requeues ({event.reason})"
                        )
                        logger.warning("trial failed: %s", report.errors[-1])
                    continue
                for outcome in event.outcomes:
                    snapshot = outcome.pop("metrics", None)
                    if snapshot is not None:
                        worker_metrics[snapshot.get("pid", -1)] = snapshot
                    spans = outcome.pop("spans", None)
                    if spans and telemetry.enabled():
                        telemetry.tracer().ingest(spans)
                    trial = Trial.from_dict(outcome["trial"])
                    cell = owner[outcome["key"]]
                    if "error" in outcome:
                        _handle_error(outcome, trial)
                        continue
                    result = TrialResult.from_dict(outcome["result"])
                    store.add(trial, result)
                    report.executed += 1
                    telemetry.METRICS.counter("campaign.trials_executed").inc()
                    cell.values.append(result.degradation)
                    last_result_at = time.perf_counter()
                    if on_result is not None:
                        on_result(outcome)

            still_active: list[_Cell] = []
            for cell in active:
                if not cell.pending:
                    continue
                if policy is not None and policy.decide(cell.values) == STOP:
                    report.skipped += len(cell.pending)
                    report.stopped_cells += 1
                    cell.pending.clear()
                    continue
                still_active.append(cell)
            active = still_active
    except BaseException:
        # Leave an honest progress snapshot behind, then tear the pool down
        # hard — force-close never hangs and always unlinks the shm packs.
        if runner is not None:
            runner.close(force=True)
            runner = None
        try:
            report.elapsed_s = time.perf_counter() - start
            _write_progress("failed")
        except Exception:  # the store itself may be the thing that broke
            logger.exception("could not write final 'failed' progress snapshot")
        raise
    finally:
        if runner is not None:
            runner.close()
        if installed_chaos:
            chaos_mod.install(None)

    report.elapsed_s = time.perf_counter() - start
    _write_progress("finished")
    logger.info("campaign %s: %s", spec.name, report.summary())
    return report
