"""Uniform evaluation front-end over the benchmark tasks.

A :class:`ModelEvaluator` owns one quantized model plus one task's data and
exposes ``score()`` (run the task under whatever injector/protector is
attached) and ``degradation(score)`` (signed degradation vs. the fault-free
baseline, oriented so that *larger is worse* for every task: perplexity
increase, or accuracy/ROUGE drop).

Every score takes one route: the engine's batched path under a clean-trace
replay session, tiled across ``lanes`` trial lanes (one lane when the
caller passes none). The reference routes it is asserted bit-identical
against — the full forward with no replay session and, fault-free, the
per-sequence loop — live in ``tests/oracle.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.abft.protectors import Protector
from repro.dispatch.cost import CostInstrument
from repro.data import (
    build_gsm8k_like,
    build_hellaswag_like,
    build_lambada_like,
    build_lm_data,
    build_xsum_like,
)
from repro.errors.injector import ErrorInjector
from repro.evalsuite.harness import (
    EvalHarness,
    evaluate_last_token_accuracy,
    evaluate_multiple_choice,
    evaluate_perplexity,
)
from repro.models.export import quantize_model
from repro.models.quantized import QuantizedTransformerLM
from repro.models.replay import ReplaySession
from repro.training.zoo import PretrainedBundle
import repro.telemetry as telemetry

#: Task registry: name -> (higher_is_better, default sizing kwargs).
TASKS: dict[str, bool] = {
    "perplexity": False,
    "lambada": True,
    "xsum": True,
    "gsm8k": True,
    "hellaswag": True,
}


@dataclass
class TaskSizing:
    """How much evaluation data each task uses (kept small for speed).

    Generation tasks mirror the paper's workload shape: prompts much longer
    than the generated continuation (X-Sum documents vs ~30-token
    summaries), which is what makes the prefill stage dominate both compute
    and error exposure (paper Insight 3).
    """

    lm_sequences: int = 4
    lm_seq_len: int = 32
    lambada_examples: int = 16
    lambada_context: int = 16
    xsum_prompts: int = 6
    xsum_prompt_len: int = 24
    xsum_gen_len: int = 8
    gsm8k_prompts: int = 8
    gsm8k_prompt_len: int = 20
    gsm8k_gen_len: int = 4
    hellaswag_examples: int = 10
    hellaswag_context: int = 12
    hellaswag_cont: int = 6


#: Process-wide cache of calibrated quantized models, keyed by the bundle's
#: weight fingerprint + calibration recipe. Quantizing + calibrating is the
#: expensive part of evaluator construction; a campaign worker scoring
#: several tasks of one model (or several evaluators in one process) reuses
#: the same engine instead of redoing calibration per task.
_QUANT_MODEL_CACHE: dict[str, QuantizedTransformerLM] = {}

#: Calibration recipe shared by every evaluator: (n_sequences, seq_len cap).
_CALIBRATION_RECIPE = (2, 32)


def _calibration_sequences(bundle: PretrainedBundle) -> list[np.ndarray]:
    n_seqs, len_cap = _CALIBRATION_RECIPE
    return [
        row
        for row in bundle.source.sample_batch(
            n_seqs, min(len_cap, bundle.config.max_seq_len), key="calibration"
        )
    ]


def _bundle_fingerprint(bundle: PretrainedBundle) -> str:
    """Content key over the weights + calibration recipe (names can collide
    across zoo revisions; weight bytes cannot). Memoized on the bundle —
    zoo weights are immutable once loaded."""
    cached = getattr(bundle, "_quant_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(repr((bundle.name, _CALIBRATION_RECIPE)).encode())
    for key in sorted(bundle.state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(bundle.state[key]).tobytes())
    fingerprint = digest.hexdigest()
    bundle._quant_fingerprint = fingerprint
    return fingerprint


def quantized_model_for(
    bundle: PretrainedBundle, reuse: bool = True
) -> QuantizedTransformerLM:
    """Calibrated quantized engine for ``bundle``, cached per process.

    The shared engine is *mutable*: executor-level knobs (``wraparound``,
    ``backend``, ``mode``, ``scale_store``) set through one evaluator are
    seen by every other sharer. Pass ``reuse=False`` for a private engine
    whenever you mutate executor state (ablations, benchmarks, tests)."""
    key = _bundle_fingerprint(bundle) if reuse else ""
    if reuse and key in _QUANT_MODEL_CACHE:
        return _QUANT_MODEL_CACHE[key]
    model = quantize_model(
        bundle.state, bundle.config, calibration=_calibration_sequences(bundle)
    )
    if reuse:
        _QUANT_MODEL_CACHE[key] = model
    return model


def register_quantized_model(fingerprint: str, model: QuantizedTransformerLM) -> None:
    """Pre-seed the process-wide engine cache (shared-memory attach path):
    a campaign worker that attaches a parent-published engine skips
    quantization and calibration entirely."""
    _QUANT_MODEL_CACHE[fingerprint] = model


class ModelEvaluator:
    """One (model, task) pair with attach-and-score plumbing.

    Scoring runs the task through the engine's batched path — all
    sequences/prompts/choices of the task in single forwards and lock-step
    generations — under a clean-trace replay session: the fault-free
    forward per (task, length-group) is recorded once and every injected
    trial resumes from the earliest layer its filter can touch —
    bit-identical scores and statistics, a fraction of the work (DESIGN.md
    section 7). ``reuse_model=True`` shares one calibrated engine per
    bundle across all evaluators in the process (see
    :func:`quantized_model_for`).
    """

    def __init__(
        self,
        bundle: PretrainedBundle,
        task: str = "perplexity",
        sizing: Optional[TaskSizing] = None,
        reuse_model: bool = True,
    ) -> None:
        if task not in TASKS:
            raise KeyError(f"unknown task {task!r}; available: {sorted(TASKS)}")
        self.bundle = bundle
        self.task = task
        self.sizing = sizing or TaskSizing()
        self._replay_session = ReplaySession(_bundle_fingerprint(bundle))
        self.model = quantized_model_for(bundle, reuse=reuse_model)
        self.higher_is_better = TASKS[task]
        s = self.sizing
        source = bundle.source
        if task == "perplexity":
            self.data = build_lm_data(source, s.lm_sequences, s.lm_seq_len)
        elif task == "lambada":
            self.data = build_lambada_like(source, s.lambada_examples, s.lambada_context)
        elif task == "xsum":
            self.data = build_xsum_like(
                source, s.xsum_prompts, s.xsum_prompt_len, s.xsum_gen_len
            )
        elif task == "gsm8k":
            self.data = build_gsm8k_like(
                source, s.gsm8k_prompts, s.gsm8k_prompt_len, s.gsm8k_gen_len
            )
        else:
            self.data = build_hellaswag_like(
                source, s.hellaswag_examples, s.hellaswag_context, s.hellaswag_cont
            )
        self._harness = EvalHarness(self.model) if task in ("xsum", "gsm8k") else None
        self._clean_score: Optional[float] = None

    # ------------------------------------------------------------- scoring
    def score(self, lanes: Optional[int] = None):
        """Run the task with whatever injector/protector is attached.

        Scoring is scoped inside this evaluator's replay session: the clean
        pass records traces, injected passes resume from them. ``lanes=K``
        scores a lane-packed batch of K trials in one pass (DESIGN.md
        section 9) and returns one score per lane; the attached instruments
        must then be the lane-aware wrappers. Without ``lanes`` the result
        is the single lane's score.
        """
        with self.model.replay_into(self._replay_session):
            with self.model.lanes(1 if lanes is None else lanes):
                return self.score_task(lanes)

    def score_task(self, lanes: Optional[int] = None):
        """Score the task on the engine's current replay/lane scope."""
        if self.task == "perplexity":
            return evaluate_perplexity(self.model, self.data, lanes=lanes)
        if self.task == "lambada":
            return evaluate_last_token_accuracy(self.model, self.data, lanes=lanes)
        if self.task == "xsum":
            return self._harness.summarization_score(self.model, self.data, lanes=lanes)
        if self.task == "gsm8k":
            return self._harness.arithmetic_score(self.model, self.data, lanes=lanes)
        return evaluate_multiple_choice(self.model, self.data, lanes=lanes)

    @property
    def clean_score(self) -> float:
        """Fault-free baseline (computed once, with nothing attached)."""
        if self._clean_score is None:
            saved = (self.model.injector, self.model.protector)
            self.model.attach(None, None)
            try:
                with telemetry.span("eval.clean", task=self.task):
                    self._clean_score = self.score()
            finally:
                self.model.attach(*saved)
        return self._clean_score

    def degradation(self, score: float) -> float:
        """Signed degradation vs. clean baseline; larger = worse."""
        if self.higher_is_better:
            return self.clean_score - score
        return score - self.clean_score

    def run(
        self,
        injector: Optional[ErrorInjector] = None,
        protector: Optional[Protector] = None,
        cost: Optional[CostInstrument] = None,
        lanes: Optional[int] = None,
    ) -> float:
        """Attach, score, detach; returns the raw score.

        ``cost`` (a :class:`~repro.dispatch.cost.CostInstrument`) rides the
        dispatch chain for the duration of the scoring call, measuring
        systolic cycles / recovery work / energy of exactly the GEMMs this
        run executed or replayed (DESIGN.md section 8). The baseline is
        cached before attaching, so clean-score forwards are never charged
        to the trial's cost report.

        ``lanes=K`` runs a lane-packed batch of K trials in one scoring
        pass (DESIGN.md section 9): ``injector``/``protector``/``cost``
        must then be the lane-aware wrappers
        (:class:`~repro.errors.injector.LaneInjector`,
        :class:`~repro.abft.protectors.LaneProtector`,
        :class:`~repro.dispatch.cost.LaneCostInstrument`) and the return
        value is one score per lane, each bit-identical to scoring that
        lane's trial alone on the full-forward route.
        """
        baseline = self.clean_score  # ensure cached before attaching  # noqa: F841
        executor = self.model.executor
        saved_cost = executor.cost
        saved_trace = executor.trace
        self.model.attach(injector, protector)
        executor.cost = cost
        if telemetry.enabled():
            # Correlate modeled cycles with measured wall time per GemmSite;
            # detached in the same finally so a clean run never inherits it.
            executor.trace = telemetry.gemm_trace()
        try:
            with telemetry.span(
                "eval.run", task=self.task, lanes=1 if lanes is None else lanes
            ):
                return self.score(lanes)
        finally:
            self.model.attach(None, None)
            executor.cost = saved_cost
            executor.trace = saved_trace
