"""Shared helpers for the benchmark harness.

Every ``bench_*`` file regenerates one table or figure of the paper (the
experiment id in each file names it). Output goes to stdout *and* to
``benchmarks/results/<id>.txt`` so the artifacts survive pytest's output
capture; pytest-benchmark wraps one representative kernel per file.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.campaigns.lanes import build_injector
from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
from repro.characterization.evaluator import ModelEvaluator
from repro.characterization.questions import PROTOCOL_BIT
from repro.core.realm import ReaLMConfig, ReaLMPipeline
from repro.evalsuite.metrics import perplexity_from_nll
from repro.training.zoo import PretrainedBundle, get_pretrained
from repro.utils.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"

#: Fast-but-meaningful configuration shared by the model-level benchmarks.
FAST_VOLTAGES = (0.84, 0.80, 0.76, 0.72, 0.68, 0.64, 0.60)
FAST_MAGS = tuple(2**p for p in (4, 10, 16, 22, 28))
FAST_FREQS = (1, 8, 64, 256)
BER_SWEEP = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def emit(experiment_id: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    print(f"\n===== {experiment_id} =====")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def table(experiment_id: str, headers, rows, title=None) -> None:
    emit(experiment_id, format_table(headers, rows, title=title))


@functools.lru_cache(maxsize=None)
def bundle(name: str) -> PretrainedBundle:
    return get_pretrained(name)


@functools.lru_cache(maxsize=None)
def evaluator(model_name: str, task: str) -> ModelEvaluator:
    return ModelEvaluator(bundle(model_name), task)


@functools.lru_cache(maxsize=None)
def pipeline(model_name: str, task: str = "perplexity") -> ReaLMPipeline:
    # Perplexity budget follows the paper (0.3). Accuracy-style tasks use a
    # one-example budget: with 10-16 evaluation examples the metric moves in
    # 6-10 point steps, so the paper's 0.5% is below the measurement
    # granularity.
    config = ReaLMConfig(
        task=task,
        budget=0.3 if task == "perplexity" else 10.0,
        voltages=FAST_VOLTAGES,
        calib_mags=FAST_MAGS,
        calib_freqs=FAST_FREQS,
    )
    return ReaLMPipeline(bundle(model_name), config)


def sweep_injector(evaluator: ModelEvaluator, site_filter, ber: float, seed: int = 0):
    """The injector a ``ber_sweep`` trial of this cell attaches (30th bit)."""
    return build_injector(
        Trial(
            model=evaluator.bundle.name,
            task=evaluator.task,
            site=SiteSpec.from_filter(site_filter),
            error=ErrorSpec.bitflip(ber, bits=(PROTOCOL_BIT,)),
            seed=seed,
        )
    )


def full_route_score(
    evaluator: ModelEvaluator, injector=None, cost=None, per_sequence: bool = False
) -> float:
    """Score the evaluator's task on the engine's full-forward route.

    The reference route the production path is benchmarked against: the
    given instruments attached, no clean-trace replay session, one lane.
    ``per_sequence`` (perplexity only) loops the engine's 1-D
    ``sequence_nll`` instead of scoring whole batches.
    """
    model = evaluator.model
    model.attach(injector, None)
    model.executor.cost = cost
    try:
        with model.replay_into(None):
            if per_sequence:
                return perplexity_from_nll(
                    [model.sequence_nll(seq) for seq in evaluator.data.sequences]
                )
            return evaluator.score_task()
    finally:
        model.attach(None, None)
        model.executor.cost = None
