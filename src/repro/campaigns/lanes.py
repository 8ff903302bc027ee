"""Lane-vectorized trial execution: pack campaign cells into batched forwards.

Campaign wall-clock is dominated by injected forwards, yet every trial of a
cell shares the same (model, task, prompts) and differs only in (site,
error model, seed, method). The batched engine is bit-exact under a batch
axis with per-2-D-slice injection and recovery (DESIGN.md section 4), and
the replay engine resumes per-trial from ``SiteFilter.earliest_layer``
(DESIGN.md section 7) — so K pending trials can run as K *batch lanes* of a
single replayed forward, the DAVOS-style trick of amortizing simulator
setup across fault targets:

- :class:`LanePacker` groups pending trials by (model, task, method,
  replay-resume layers) and chunks each group into packs of at most
  ``max_lanes`` lanes;
- :func:`evaluate_lane_pack` builds one injector / protector / cost
  instrument per lane, wraps them in the lane-aware dispatch adapters
  (:class:`~repro.errors.injector.LaneInjector`,
  :class:`~repro.abft.protectors.LaneProtector`,
  :class:`~repro.dispatch.cost.LaneCostInstrument`), and scores the whole
  pack through one ``ModelEvaluator.run(..., lanes=K)`` call.

The contract (asserted exactly in ``tests/test_lanes.py``): every lane's
score, injector RNG stream, protector statistics, and cost columns are
**bit-identical** to running that trial alone through the per-trial
dispatch route. See DESIGN.md section 9 for the packing rules and the
per-lane RNG discipline.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.abft.protectors import ClassicalABFT, LaneProtector, Protector
from repro.campaigns.spec import NO_METHOD, Trial
from repro.campaigns.store import TrialResult
from repro.characterization.evaluator import ModelEvaluator
from repro.circuits.voltage import VoltageBerModel
from repro.core.methods import METHODS, analytic_recovered_macs
from repro.dispatch.backends import use_backend
from repro.dispatch.cost import CostInstrument, CostSpec, LaneCostInstrument
from repro.energy.model import EnergyModel
from repro.errors.injector import ErrorInjector, LaneInjector
from repro.errors.sites import Component, Stage
import repro.telemetry as telemetry
from repro.training.zoo import model_config

_VOLTAGE_MODEL = VoltageBerModel()


def _count_trial_stats(metrics, injector, protector) -> None:
    """Fold one finished trial's injector/protector tallies into ``metrics``.

    Shared by the solo route (``executor.evaluate_trial``) and the per-lane
    accounting here so ``campaign watch`` reads the same counters either way.
    """
    if injector is not None:
        metrics.counter("injector.corruptions").inc(injector.stats.injected_errors)
    if protector is not None:
        stats = protector.stats
        metrics.counter("protector.inspected").inc(stats.inspected)
        metrics.counter("protector.detected").inc(stats.detected)
        metrics.counter("protector.recovered").inc(stats.recovered)

#: Default pack width: enough lanes to amortize per-dispatch overhead
#: without blowing up activation memory (a pack's working set scales
#: linearly with the lane count).
DEFAULT_MAX_LANES = 8


# ---------------------------------------------------------------- per-trial
def build_injector(trial: Trial) -> Optional[ErrorInjector]:
    """The trial's error injector (``None`` for clean error specs)."""
    ber = _VOLTAGE_MODEL.ber(trial.voltage) if trial.voltage is not None else None
    error_model = trial.error.build(ber=ber)
    if error_model is None:
        return None
    return ErrorInjector(error_model, trial.site.to_filter(), seed=trial.seed)


def build_protector(
    trial: Trial,
    evaluator: ModelEvaluator,
    pipeline=None,
) -> Optional[Protector]:
    """Fresh protector instance for the trial's method (``None`` when the
    method runs unprotected or recovers analytically). ``pipeline`` (a
    calibrated :class:`~repro.core.realm.ReaLMPipeline`) is only consulted
    for behavioral methods that need fitted critical regions."""
    method = trial.method
    if method in (NO_METHOD, "no-protection"):
        return None
    spec = METHODS[method]
    if method == "classical-abft":
        return ClassicalABFT()
    if spec.behavioral:
        if pipeline is None:
            raise ValueError(f"method {method!r} needs a calibrated pipeline")
        components = (
            tuple(Component(c) for c in trial.site.components)
            if trial.site.components is not None
            else tuple(evaluator.bundle.config.components)
        )
        pipeline.calibrate(components)
        return pipeline.protector_for(method, components)
    return None


def trial_costs(
    trial: Trial,
    cost_instrument: CostInstrument,
    injector: Optional[ErrorInjector],
    evaluator: ModelEvaluator,
) -> tuple[int, int, float]:
    """Hardware costs of one scored trial: (cycles, recovered_macs, energy_j).

    Cycles and MAC counts come straight from the cost instrument's measured
    report. Energy accounting is method-aware, mirroring
    ``ReaLMPipeline.evaluate_method_at``: a registered method contributes
    its detection-power overhead and compute factor (2.0 for DMR), and the
    non-behavioral methods — which recover analytically rather than through
    a protector the instrument can observe — charge their replay MACs from
    the injector statistics. Energy is evaluated at the trial's voltage
    (nominal when the grid has no voltage axis).
    """
    report = cost_instrument.report
    recovered_macs = report.recovered_macs
    params = cost_instrument.params
    method = trial.method
    if method in METHODS:
        spec = METHODS[method]
        params = replace(
            params,
            detection_overhead=spec.detection_overhead,
            compute_factor=spec.compute_factor,
        )
        if not spec.behavioral and injector is not None:
            recovered_macs = analytic_recovered_macs(
                method, injector.stats.injected_errors, evaluator.bundle.config.d_model
            )
    voltage = params.v_nominal if trial.voltage is None else trial.voltage
    energy_j = EnergyModel(params).breakdown(report.macs, recovered_macs, voltage).total_j
    return report.total_cycles, recovered_macs, energy_j


# ------------------------------------------------------------------ packing
def pack_signature(trial: Trial, config) -> tuple:
    """Grouping key of the lane packer (DESIGN.md section 9).

    Trials pack together when they share the evaluator (model, task), the
    protection method (the pack carries one protector kind), and the
    replay-resume layers their filters allow per stage — so every lane of a
    pack resumes the same forwards from the same boundary and no lane pays
    for another's earlier resume point.
    """
    site_filter = trial.site.to_filter()
    resume = tuple(
        site_filter.earliest_layer(
            config.n_layers, components=config.components, stage=stage
        )
        for stage in (Stage.PREFILL, Stage.DECODE)
    )
    return (trial.model, trial.task, trial.method, resume)


class LanePacker:
    """Groups pending trials into lane packs of at most ``max_lanes``.

    ``config_for`` maps a zoo model name to its ``ModelConfig`` (the resume
    signature needs layer/component counts); the default,
    :func:`repro.training.zoo.model_config`, reads the architecture from
    the zoo spec and loads no weights. :meth:`pack` resolves each model
    name once per call, not once per trial.
    """

    def __init__(
        self,
        max_lanes: int = DEFAULT_MAX_LANES,
        config_for: Optional[Callable[[str], object]] = None,
    ) -> None:
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.max_lanes = max_lanes
        self.config_for = model_config if config_for is None else config_for

    def pack(self, trials: Sequence[Trial]) -> list[list[Trial]]:
        """Partition ``trials`` into packs, preserving first-seen order."""
        configs: dict[str, object] = {}
        groups: dict[tuple, list[Trial]] = {}
        order: list[tuple] = []
        for trial in trials:
            if trial.model not in configs:
                configs[trial.model] = self.config_for(trial.model)
            key = pack_signature(trial, configs[trial.model])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(trial)
        packs: list[list[Trial]] = []
        for key in order:
            group = groups[key]
            for i in range(0, len(group), self.max_lanes):
                packs.append(group[i : i + self.max_lanes])
        return packs


# --------------------------------------------------------------- evaluation
def prepare_lanes(
    trials: Sequence[Trial],
    evaluator: ModelEvaluator,
    pipeline=None,
    cost: Optional[CostSpec] = None,
):
    """Per-lane instruments plus their pack-level wrappers.

    Returns ``(injectors, protectors, costs, packed)`` where ``packed`` is
    the ``(injector, protector, cost)`` triple to attach for the packed
    run. Split out from :func:`evaluate_lane_pack` so tests can assert the
    per-lane statistics directly against solo runs.
    """
    if not trials:
        raise ValueError("a lane pack needs at least one trial")
    if len({(t.model, t.task, t.method) for t in trials}) > 1:
        raise ValueError("a lane pack must share one (model, task, method)")
    injectors = [build_injector(t) for t in trials]
    protectors = [build_protector(t, evaluator, pipeline) for t in trials]
    costs = [cost.build() if cost is not None else None for _ in trials]
    pack_injector = LaneInjector(injectors)
    pack_protector = (
        LaneProtector(protectors) if protectors[0] is not None else None
    )
    pack_cost = LaneCostInstrument(costs) if cost is not None else None
    return injectors, protectors, costs, (pack_injector, pack_protector, pack_cost)


def evaluate_lane_pack(
    trials: Sequence[Trial],
    evaluator: ModelEvaluator,
    pipeline=None,
    cost: Optional[CostSpec] = None,
    backend: Optional[str] = None,
    attempts: Optional[Sequence[int]] = None,
) -> list[TrialResult]:
    """Score a pack of trials as lanes of one batched forward.

    Every returned :class:`TrialResult`'s score, degradation, injector
    statistics, and cost columns are bit-identical to
    ``repro.campaigns.executor.evaluate_trial`` on the same trial;
    ``elapsed_s`` attributes the pack's wall clock evenly across lanes
    (telemetry, not part of the bit-exactness contract). ``backend``
    selects the GEMM backend for the whole pack; ``None`` keeps the
    executor's current one.

    ``attempts`` carries the supervisor's per-trial retry counters into
    the chaos harness's per-trial fault point — a lane whose trial is
    chaos-marked raises here, which degrades the whole pack to per-trial
    execution, exactly the path a real mid-pack failure takes.
    """
    from repro.campaigns import chaos

    for j, trial in enumerate(trials):
        chaos.maybe_fail_trial(
            trial.key, attempts[j] if attempts is not None else 0
        )
    start = time.perf_counter()
    injectors, protectors, costs, packed = prepare_lanes(
        trials, evaluator, pipeline, cost
    )
    pack_injector, pack_protector, pack_cost = packed
    with use_backend(evaluator.model.executor, backend) as active:
        with telemetry.span(
            "pack.evaluate", lanes=len(trials), cell=trials[0].cell_label
        ):
            scores = evaluator.run(
                pack_injector, pack_protector, cost=pack_cost, lanes=len(trials)
            )
    elapsed = (time.perf_counter() - start) / len(trials)
    metrics = telemetry.METRICS
    metrics.counter("lanes.packs").inc()
    metrics.counter("lanes.packed_trials").inc(len(trials))
    metrics.histogram("trial.elapsed_s").observe(elapsed * len(trials))
    for injector, protector in zip(injectors, protectors):
        _count_trial_stats(metrics, injector, protector)
    results = []
    for j, trial in enumerate(trials):
        score = float(scores[j]) if len(trials) > 1 else float(scores)
        if trial.method not in (NO_METHOD,) and METHODS[trial.method].exact_correction:
            score = evaluator.clean_score  # detected-and-replayed: fault-free
        injector = injectors[j]
        cycles = recovered_macs = 0
        energy_j = 0.0
        if costs[j] is not None:
            cycles, recovered_macs, energy_j = trial_costs(
                trial, costs[j], injector, evaluator
            )
        results.append(
            TrialResult(
                score=score,
                degradation=evaluator.degradation(score),
                clean_score=evaluator.clean_score,
                injected_errors=injector.stats.injected_errors if injector else 0,
                gemm_calls=injector.stats.gemm_calls if injector else 0,
                cycles=cycles,
                recovered_macs=recovered_macs,
                energy_j=energy_j,
                elapsed_s=elapsed,
                worker=os.getpid(),
                backend=active.name,
            )
        )
    return results
