"""Task harness running the quantized model over the benchmark suite.

All evaluation functions feed the engine whole batches: sequences, prompts
and (example, choice) rows of a task are grouped by length and scored in
single batched forwards / lock-step generations instead of Python loops —
the tight loop the batched engine exists for. The per-sequence loop that
the batched path is asserted bit-identical against lives in
``tests/oracle.py``.

The generation tasks (summarization / arithmetic) follow the paper's
degradation protocol: the *reference* output is produced once by the
fault-free model, cached by :class:`EvalHarness`, and every injected
configuration is scored against it.

Every evaluation accepts ``lanes=K`` (DESIGN.md section 9): the task's
batches are tiled K times along the batch axis — one lane per packed trial
— and scored in single lane-packed forwards, returning one score per lane.
Every call runs that one per-lane path; a caller that passes no ``lanes``
scores a single lane and gets lane 0's score as a float.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.tasks import (
    ArithmeticTask,
    LanguageModelingData,
    LastTokenTask,
    MultipleChoiceTask,
    SummarizationTask,
)
from repro.evalsuite.metrics import exact_match, perplexity_from_nll, rouge1
from repro.models.quantized import QuantizedTransformerLM, batch_groups
from repro.telemetry.spans import span as _span


def _lane_count(lanes: Optional[int]) -> int:
    if lanes is not None and lanes < 1:
        raise ValueError("lane count must be >= 1")
    return 1 if lanes is None else lanes


def _by_lane(scores: list[float], lanes: Optional[int]) -> float | np.ndarray:
    """Lane 0's score for a lane-less call, else one score per lane."""
    return scores[0] if lanes is None else np.array(scores)


def evaluate_perplexity(
    model: QuantizedTransformerLM,
    data: LanguageModelingData,
    lanes: Optional[int] = None,
) -> float | np.ndarray:
    """Corpus perplexity (paper's WikiText-2 metric, lower is better)."""
    k = _lane_count(lanes)
    per_lane = [[0.0] * len(data.sequences) for _ in range(k)]
    for idxs, batch in batch_groups(data.sequences):
        stacked = model.sequence_nll_batch(np.tile(batch, (k, 1))).reshape(k, len(idxs))
        for j in range(k):
            for i, nll in zip(idxs, stacked[j]):
                per_lane[j][i] = float(nll)
    return _by_lane([perplexity_from_nll(row) for row in per_lane], lanes)


def evaluate_last_token_accuracy(
    model: QuantizedTransformerLM,
    task: LastTokenTask,
    lanes: Optional[int] = None,
) -> float | np.ndarray:
    """LAMBADA-style final-token accuracy in percent (higher is better)."""
    k = _lane_count(lanes)
    targets = np.asarray(task.targets)
    correct_by_lane = [0] * k
    for idxs, batch in batch_groups(task.contexts):
        logits = model.forward_full(np.tile(batch, (k, 1)))
        preds = np.argmax(logits[:, -1, :], axis=-1).reshape(k, len(idxs))
        for j in range(k):
            correct_by_lane[j] += int(np.sum(preds[j] == targets[np.asarray(idxs)]))
    return _by_lane([100.0 * c / len(task.contexts) for c in correct_by_lane], lanes)


def evaluate_multiple_choice(
    model: QuantizedTransformerLM,
    task: MultipleChoiceTask,
    lanes: Optional[int] = None,
) -> float | np.ndarray:
    """HellaSwag-style accuracy by per-choice log-likelihood, in percent."""
    k = _lane_count(lanes)
    # Flatten every (example, choice) pair into one row set, batch rows of
    # equal (context, continuation) shape, then regroup scores per example.
    rows: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for ei, (context, choices) in enumerate(zip(task.contexts, task.choices)):
        for ci, cont in enumerate(choices):
            rows.append((ei, ci, np.asarray(context), np.asarray(cont)))
    scores: list[dict[tuple[int, int], float]] = [{} for _ in range(k)]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for ri, (_, _, context, cont) in enumerate(rows):
        by_shape.setdefault((context.shape[0], cont.shape[0]), []).append(ri)
    for row_idxs in by_shape.values():
        contexts = np.tile(np.stack([rows[ri][2] for ri in row_idxs]), (k, 1))
        conts = np.tile(np.stack([rows[ri][3] for ri in row_idxs]), (k, 1))
        logprobs = model.choice_logprob_batch(contexts, conts).reshape(k, len(row_idxs))
        for j in range(k):
            for ri, lp in zip(row_idxs, logprobs[j]):
                scores[j][(rows[ri][0], rows[ri][1])] = float(lp)
    accuracy = []
    for lane_scores in scores:
        correct = 0
        for ei, (choices, label) in enumerate(zip(task.choices, task.labels)):
            per_choice = [lane_scores[(ei, ci)] for ci in range(len(choices))]
            if int(np.argmax(per_choice)) == int(label):
                correct += 1
        accuracy.append(100.0 * correct / len(task.contexts))
    return _by_lane(accuracy, lanes)


def _generate_all(
    model: QuantizedTransformerLM,
    prompts: list[np.ndarray],
    gen_len: int,
    lanes: int = 1,
) -> list[list[np.ndarray]]:
    """Generate continuations for every prompt, preserving input order,
    for ``lanes`` packed trial lanes in lock-step: one list per lane."""
    out: list[list[np.ndarray]] = [[None] * len(prompts) for _ in range(lanes)]  # type: ignore[list-item]
    for idxs, batch in batch_groups(prompts):
        gen = model.generate_batch(np.tile(batch, (lanes, 1)), gen_len).reshape(
            lanes, len(idxs), -1
        )
        for j in range(lanes):
            for i, row in zip(idxs, gen[j]):
                out[j][i] = row
    return out


@dataclass
class EvalHarness:
    """Caches fault-free reference generations for the generation tasks.

    Create one harness per (clean model, task suite); then call the
    ``*_score`` methods with injected/protected model configurations.

    Replay-transparent: generations run under whatever clean-trace replay
    session the model currently carries (DESIGN.md section 7) — the
    reference pass records the generation traces that injected scoring
    passes then resume from. ``ModelEvaluator`` scopes the session around
    ``score()``; without one, every forward runs the full route.
    """

    clean_model: QuantizedTransformerLM
    _ref_cache: dict[str, list[np.ndarray]] = field(default_factory=dict)

    @staticmethod
    def _prompt_digest(prompts: list[np.ndarray], gen_len: int) -> str:
        """Content key for a prompt set (``id()`` can be reused after GC)."""
        digest = hashlib.sha256(str(gen_len).encode())
        for prompt in prompts:
            arr = np.ascontiguousarray(prompt)
            digest.update(str((arr.shape, str(arr.dtype))).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def _references(
        self, prompts: list[np.ndarray], gen_len: int
    ) -> list[np.ndarray]:
        key = self._prompt_digest(prompts, gen_len)
        if key not in self._ref_cache:
            # Fault-free reference generations run with every instrument
            # detached — injector, protector, *and* cost: the reference
            # pass is part of the metric's definition, not of the trial
            # being measured, so its GEMMs must not be charged to an
            # attached CostInstrument (DESIGN.md section 8).
            executor = self.clean_model.executor
            saved_injector = self.clean_model.injector
            saved_protector = self.clean_model.protector
            saved_cost = executor.cost
            saved_trace = executor.trace
            self.clean_model.attach(None, None)
            executor.cost = None
            executor.trace = None
            try:
                with _span("harness.reference", prompts=len(prompts), gen_len=gen_len):
                    self._ref_cache[key] = _generate_all(
                        self.clean_model, prompts, gen_len
                    )[0]
            finally:
                self.clean_model.attach(saved_injector, saved_protector)
                executor.cost = saved_cost
                executor.trace = saved_trace
        return self._ref_cache[key]

    def summarization_score(
        self,
        model: QuantizedTransformerLM,
        task: SummarizationTask,
        lanes: Optional[int] = None,
    ) -> float | np.ndarray:
        """Mean ROUGE-1 vs. the clean model's generations (X-Sum metric)."""
        refs = self._references(task.prompts, task.gen_len)
        by_lane = _generate_all(model, task.prompts, task.gen_len, _lane_count(lanes))
        return _by_lane(
            [
                float(np.mean([rouge1(out, ref) for out, ref in zip(outputs, refs)]))
                for outputs in by_lane
            ],
            lanes,
        )

    def arithmetic_score(
        self,
        model: QuantizedTransformerLM,
        task: ArithmeticTask,
        lanes: Optional[int] = None,
    ) -> float | np.ndarray:
        """Exact-match accuracy (%) vs. clean generations (GSM8K metric)."""
        refs = self._references(task.prompts, task.gen_len)
        by_lane = _generate_all(model, task.prompts, task.gen_len, _lane_count(lanes))
        return _by_lane(
            [
                float(100.0 * np.mean([exact_match(out, ref) for out, ref in zip(outputs, refs)]))
                for outputs in by_lane
            ],
            lanes,
        )
