"""Reference scoring routes the production route is asserted against.

Production scores every trial one way: as a lane of a packed forward under
a clean-trace replay session (``repro.campaigns.lanes.evaluate_lane_pack``,
DESIGN.md sections 7 and 9). This oracle scores the same trial without any
of that machinery:

- :func:`oracle_result` attaches one plain
  :class:`~repro.errors.injector.ErrorInjector`, protector and
  :class:`~repro.dispatch.cost.CostInstrument` and runs the task on the
  engine's full-forward route with no replay session and no lanes;
- :func:`per_sequence_score` scores a fault-free task one sequence, prompt
  or (example, choice) row at a time through the engine's 1-D API.

The per-sequence route is fault-free only: an injected per-sequence run
issues one dispatch per sequence instead of one per batch, so it draws
different per-(site, call-index) streams and cannot be compared.
"""

from __future__ import annotations

import numpy as np

from repro.campaigns.lanes import build_injector, build_protector, trial_costs
from repro.campaigns.spec import Trial
from repro.characterization.evaluator import ModelEvaluator
from repro.core.methods import METHODS
from repro.dispatch.cost import CostSpec
from repro.evalsuite.metrics import exact_match, perplexity_from_nll, rouge1

#: Everything of a TrialResult that belongs to the bit-exactness contract
#: (``elapsed_s``/``worker``/``backend`` are run metadata, not measurements).
RESULT_FIELDS = (
    "score",
    "degradation",
    "clean_score",
    "injected_errors",
    "gemm_calls",
    "cycles",
    "recovered_macs",
    "energy_j",
)


def full_route_score(evaluator: ModelEvaluator) -> float:
    """The task's score with whatever is attached, on the full forward."""
    with evaluator.model.replay_into(None):
        return evaluator.score_task()


def _scored(evaluator: ModelEvaluator, injector=None, protector=None, cost=None) -> float:
    model = evaluator.model
    executor = model.executor
    saved = (model.injector, model.protector, executor.cost)
    model.attach(injector, protector)
    executor.cost = cost
    try:
        return full_route_score(evaluator)
    finally:
        model.attach(saved[0], saved[1])
        executor.cost = saved[2]


def oracle_result(
    trial: Trial,
    evaluator: ModelEvaluator,
    pipeline=None,
    cost: CostSpec | None = None,
) -> dict:
    """Every :data:`RESULT_FIELDS` column of ``trial``, scored solo with
    plain instruments on the full-forward route."""
    clean = _scored(evaluator)
    injector = build_injector(trial)
    protector = build_protector(trial, evaluator, pipeline)
    instrument = cost.build() if cost is not None else None
    score = _scored(evaluator, injector, protector, instrument)
    if trial.method in METHODS and METHODS[trial.method].exact_correction:
        score = clean  # detected-and-replayed: fault-free output
    cycles, recovered_macs, energy_j = (
        trial_costs(trial, instrument, injector, evaluator)
        if instrument is not None
        else (0, 0, 0.0)
    )
    return {
        "score": score,
        "degradation": clean - score if evaluator.higher_is_better else score - clean,
        "clean_score": clean,
        "injected_errors": injector.stats.injected_errors if injector else 0,
        "gemm_calls": injector.stats.gemm_calls if injector else 0,
        "cycles": cycles,
        "recovered_macs": recovered_macs,
        "energy_j": energy_j,
    }


def assert_matches_oracle(results, oracles) -> None:
    """Field-by-field exact equality of production results and oracles."""
    assert len(results) == len(oracles)
    for lane, (result, oracle) in enumerate(zip(results, oracles)):
        for field in RESULT_FIELDS:
            assert getattr(result, field) == oracle[field], (
                f"lane {lane} diverged from the oracle on {field}: "
                f"{getattr(result, field)} != {oracle[field]}"
            )


def per_sequence_score(evaluator: ModelEvaluator) -> float:
    """Fault-free task score, one sequence at a time, with no replay."""
    model = evaluator.model
    data = evaluator.data
    task = evaluator.task
    with model.replay_into(None):
        if task == "perplexity":
            return perplexity_from_nll([model.sequence_nll(s) for s in data.sequences])
        if task == "lambada":
            correct = sum(
                int(np.argmax(model.forward_full(context)[-1])) == int(target)
                for context, target in zip(data.contexts, data.targets)
            )
            return 100.0 * correct / len(data.contexts)
        if task == "hellaswag":
            correct = 0
            for context, choices, label in zip(data.contexts, data.choices, data.labels):
                scores = [model.choice_logprob(context, cont) for cont in choices]
                correct += int(np.argmax(scores)) == int(label)
            return 100.0 * correct / len(data.contexts)
        # Generation tasks score against the evaluator's cached references
        # (its batched clean generations): per-prompt outputs that differ
        # from them lower the score.
        refs = evaluator._harness._references(data.prompts, data.gen_len)
        outs = [model.generate(p, data.gen_len) for p in data.prompts]
        if task == "xsum":
            return float(np.mean([rouge1(out, ref) for out, ref in zip(outs, refs)]))
        return float(
            100.0 * np.mean([exact_match(out, ref) for out, ref in zip(outs, refs)])
        )
