"""Batched inference engine — wall-clock speedup on the Q1.3 characterization.

Engineering benchmark (no paper figure): times the Q1.3 per-component
resilience sweep of ``opt-mini`` under three engine configurations and
reports the end-to-end speedup the batched engine delivers:

- ``seed-equivalent``: per-sequence evaluation loop with the seed
  engine's all-integer GEMM (NumPy int64 matmul, via a benchmark-local
  backend) — a *conservative* stand-in for the pre-batching engine, which
  additionally looped per attention head;
- ``single-sequence``: per-sequence evaluation on the fast engine
  (head-batched GEMMs + BLAS int8 pipeline);
- ``batched``: the default batched path (whole task per forward,
  lock-step generation).

All three produce bit-identical fault-free scores (asserted), so the table
is a pure wall-clock comparison of the same measurement.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the workload and skips the
speedup assertion so CI can exercise the benchmark in seconds.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import bundle, table

import numpy as np

from repro.characterization.evaluator import ModelEvaluator, TaskSizing
from repro.characterization.questions import DEFAULT_BERS, q13_components
from repro.dispatch.backends import GemmBackend

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Larger-than-default eval set: the batched engine's advantage grows with
#: the number of sequences scored per trial, and 12 is still tiny.
SIZING = TaskSizing(lm_sequences=4 if SMOKE else 12, lm_seq_len=32)
BERS = (1e-3,) if SMOKE else DEFAULT_BERS
ROUNDS = 1 if SMOKE else 3
MIN_SPEEDUP = 3.0


class _Int64Backend(GemmBackend):
    """The seed engine's GEMM: NumPy int64 matmul on every call, no BLAS.
    Exact like every backend, so it only changes the wall clock."""

    name = "bench-int64"

    def product_int64(self, a_q, b_q, b_f64=None):
        return a_q.astype(np.int64) @ b_q.astype(np.int64)


def _evaluators():
    # replay=False throughout: this benchmark isolates the batching axis,
    # so no configuration may ride the clean-trace replay engine (that
    # speedup is bench_replay.py's measurement).
    b = bundle("opt-mini")
    seed_like = ModelEvaluator(
        b, "perplexity", sizing=SIZING, batched=False, reuse_model=False, replay=False
    )
    seed_like.model.executor.backend = _Int64Backend()
    single = ModelEvaluator(b, "perplexity", sizing=SIZING, batched=False, replay=False)
    batched = ModelEvaluator(b, "perplexity", sizing=SIZING, batched=True, replay=False)
    return {"seed-equivalent": seed_like, "single-sequence": single, "batched": batched}


def _time_q13(evaluator) -> tuple[float, int]:
    """Best-of-ROUNDS wall clock for the full Q1.3 sweep on one evaluator."""
    components = None  # all components of the architecture
    q13_components(evaluator, components=components, bers=BERS[:1])  # warmup
    best = float("inf")
    trials = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        records = q13_components(evaluator, components=components, bers=BERS)
        best = min(best, time.perf_counter() - start)
        trials = len(records)
    return best, trials


def _run():
    evaluators = _evaluators()
    clean_scores = {name: ev.clean_score for name, ev in evaluators.items()}
    assert len(set(clean_scores.values())) == 1, (
        f"engine configurations disagree on clean perplexity: {clean_scores}"
    )

    timings = {name: _time_q13(ev) for name, ev in evaluators.items()}
    base = timings["seed-equivalent"][0]
    rows = [
        [name, trials, f"{seconds:.3f}", f"{base / seconds:.2f}x"]
        for name, (seconds, trials) in timings.items()
    ]
    table(
        "bench_batching",
        ["engine configuration", "trials", "seconds (best)", "speedup"],
        rows,
        title=(
            "Q1.3 component characterization of opt-mini "
            f"({SIZING.lm_sequences} sequences x {len(BERS)} BERs, "
            "bit-identical scores across configurations)"
        ),
    )
    speedup = base / timings["batched"][0]
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"batched engine speedup {speedup:.2f}x below target {MIN_SPEEDUP}x"
        )
    return speedup


def test_batching_speedup(benchmark):
    benchmark.pedantic(_run, rounds=1, iterations=1)
