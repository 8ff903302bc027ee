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

Every configuration scores on the engine's full-forward route (no
clean-trace replay: that speedup is ``bench_replay.py``'s measurement), and
all three produce bit-identical fault-free scores (asserted), so the table
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

from _common import bundle, full_route_score, sweep_injector, table

import numpy as np

from repro.characterization.evaluator import ModelEvaluator, TaskSizing
from repro.characterization.questions import DEFAULT_BERS
from repro.dispatch.backends import GemmBackend
from repro.errors.sites import SiteFilter, Stage

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


def _configurations():
    """(evaluator, per_sequence) per engine configuration."""
    b = bundle("opt-mini")
    seed_like = ModelEvaluator(b, "perplexity", sizing=SIZING, reuse_model=False)
    seed_like.model.executor.backend = _Int64Backend()
    fast = ModelEvaluator(b, "perplexity", sizing=SIZING)
    return {
        "seed-equivalent": (seed_like, True),
        "single-sequence": (fast, True),
        "batched": (fast, False),
    }


def _q13(evaluator, per_sequence: bool, bers) -> int:
    """The Q1.3 sweep (every component, prefill, 30th bit) on one
    configuration; returns the trial count."""
    trials = 0
    for component in evaluator.bundle.config.components:
        flt = SiteFilter.only(components=[component], stages=[Stage.PREFILL])
        for ber in bers:
            full_route_score(
                evaluator, sweep_injector(evaluator, flt, ber), per_sequence=per_sequence
            )
            trials += 1
    return trials


def _time_q13(evaluator, per_sequence: bool) -> tuple[float, int]:
    """Best-of-ROUNDS wall clock for the full Q1.3 sweep on one configuration."""
    _q13(evaluator, per_sequence, BERS[:1])  # warmup
    best = float("inf")
    trials = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        trials = _q13(evaluator, per_sequence, BERS)
        best = min(best, time.perf_counter() - start)
    return best, trials


def _run():
    configurations = _configurations()
    clean_scores = {
        name: full_route_score(ev, per_sequence=per_sequence)
        for name, (ev, per_sequence) in configurations.items()
    }
    assert len(set(clean_scores.values())) == 1, (
        f"engine configurations disagree on clean perplexity: {clean_scores}"
    )

    timings = {name: _time_q13(*config) for name, config in configurations.items()}
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
