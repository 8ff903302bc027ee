"""Trial-lane vectorization — trials/sec vs the per-trial replay route.

Engineering benchmark (no paper figure): scores Q1.3-style campaign cells
of ``opt-mini`` (component O, prefill, fixed BER, K seeds) two ways — the
per-trial route (one replay-resumed forward per trial, the PR-3/PR-4
execution model) vs the lane-packed route (all K trials as K batch lanes
of one replayed forward, DESIGN.md section 9) — and reports trials/sec.
Results are asserted **bit-identical** between the routes before anything
is timed, so the table is a pure wall-clock comparison of the same
measurement.

Two cells are reported:

- the *headline* cell (2 sequences x 16 tokens, 64 seeds): the
  overhead-dominated Monte-Carlo regime lane packing exists for — many
  seeds per cell, small per-trial forwards, per-trial scaffolding and
  dispatch overhead dominating wall clock. Full (non-smoke) runs assert
  **>= 2x** here (target >= 3x).
- the *default-sizing* cell (the characterization sweeps' TaskSizing,
  16 seeds), reported unasserted for context: its per-lane arithmetic
  after fault divergence bounds the gain — lanes genuinely diverge after
  injection, so only per-dispatch overhead amortizes, not element work.

Emits ``benchmarks/results/BENCH_lanes.json`` (the perf-trajectory
datapoint CI uploads as an artifact and ``tools/bench_compare.py`` guards
against regressions).

Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``) shrinks the cells and
skips the speedup assertion so CI can exercise the benchmark in seconds;
like ``bench_replay.py``, the >= 2x bound is enforced only in full runs
(millisecond-scale smoke cells are dominated by timing noise).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import RESULTS_DIR, bundle, table

import numpy as np

import repro.telemetry as telemetry
from repro.campaigns.executor import evaluate_trial
from repro.dispatch.backends import PREPACK, get_backend
from repro.dispatch.pipeline import GemmCall
from repro.campaigns.lanes import evaluate_lane_pack
from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
from repro.characterization.evaluator import ModelEvaluator, TaskSizing

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE")) or "--smoke" in sys.argv[1:]

MODEL = "opt-mini"
ROUNDS = 1 if SMOKE else 3
MIN_SPEEDUP = 2.0
TARGET_SPEEDUP = 3.0
#: Floor for the compiled ``native`` kernel over ``numpy-f64`` — asserted
#: in full runs only, and only when ``native.fast`` (compiled kernel on a
#: multi-core host, where the row-parallel partition applies); elsewhere
#: the measured ratio is reported unasserted.
MIN_NATIVE_SPEEDUP = 3.0
#: The overhead contract (DESIGN.md section 10): full spans + dispatch
#: tracing may cost at most this much wall time on the lane-packed path.
MAX_TELEMETRY_OVERHEAD_PCT = 2.0

#: (label, TaskSizing, lane count, asserted): the headline Monte-Carlo cell
#: plus the characterization default sizing for context.
CELLS = (
    (
        "mc-cell",
        TaskSizing(lm_sequences=2, lm_seq_len=16),
        4 if SMOKE else 64,
        True,
    ),
    (
        "default-sizing",
        TaskSizing(),
        4 if SMOKE else 16,
        False,
    ),
)


def _cell_trials(lanes: int) -> list[Trial]:
    """One Q1.3-style cell: component O, prefill, fixed BER, ``lanes`` seeds."""
    return [
        Trial(
            model=MODEL,
            task="perplexity",
            site=SiteSpec.only(components=["O"], stages=["prefill"]),
            error=ErrorSpec.bitflip(1e-3, bits=(30,)),
            seed=seed,
        )
        for seed in range(lanes)
    ]


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_per_op(fn, n: int, repeats: int = 5) -> float:
    """Best-of wall time per call of ``fn`` over ``n``-iteration loops."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / n


def _telemetry_overhead_pct(evaluator, trials, packed_baseline, plain_pack_s) -> float:
    """Measure the enabled-telemetry overhead on the lane-packed path.

    Diffing whole-pack wall clocks cannot resolve this number here: the
    enabled mode adds a handful of microseconds to a ~40 ms pack, while
    single-CPU host noise (frequency drift, scheduler preemption) moves
    pack timings by several percent no matter how samples are paired or
    aggregated — a wall-clock estimate of a <0.1% effect under +/-3% noise
    gates nothing. Instead the benchmark measures exactly what enabled
    telemetry adds to the path: it runs one traced pack to *count* the
    events (dispatch timing boundaries, spans, the per-run trace
    attach/detach), microtimes each primitive in a tight loop (stable to a
    few percent even on a noisy host, since each sample aggregates
    thousands of ops), and reports their per-pack cost as a fraction of
    the measured plain pack time. A tracer regression — a span growing a
    syscall, an observe() going quadratic — shows up directly in the
    per-op timings. Bit-exactness with telemetry enabled is asserted
    before anything is timed.
    """
    telemetry.enable()
    try:
        trace = telemetry.gemm_trace()
        trace.reset()
        telemetry.tracer().drain()
        traced = evaluate_lane_pack(trials, evaluator)
        spans = len(telemetry.tracer().drain())
        for t, base, tr in zip(trials, packed_baseline, traced):
            for field in ("score", "degradation", "injected_errors", "gemm_calls"):
                assert getattr(tr, field) == getattr(base, field), (
                    f"telemetry perturbed seed {t.seed} ({field}): "
                    f"{getattr(tr, field)} != {getattr(base, field)}"
                )
        boundaries = sum(
            row.calls + row.replays for row in trace.by_site.values()
        )
        site = next(iter(trace.by_site))
        call = GemmCall(site=site, macs=1 << 20, out_shape=(16, 16))

        # The enabled-mode additions, timed individually: the two
        # perf_counter() stamps plus observe() per dispatch/replay
        # boundary, one span per recorded event, and the per-run trace
        # attach/detach on the executor.
        t_clock = _time_per_op(time.perf_counter, 50_000)
        t_observe = _time_per_op(
            lambda: trace.observe(call, 1e-6, "numpy-f64"), 20_000
        )

        def span_once():
            with telemetry.span("eval.run", task="perplexity", lanes=len(trials)):
                pass

        t_span = _time_per_op(span_once, 5_000)
        executor = evaluator.model.executor

        def attach_detach():
            saved = executor.trace
            executor.trace = trace
            executor.trace = saved

        t_attach = _time_per_op(attach_detach, 2_000)
        trace.reset()
        telemetry.tracer().drain()
    finally:
        telemetry.disable()

    per_pack_s = (
        boundaries * (2 * t_clock + t_observe) + spans * t_span + t_attach
    )
    return 100.0 * per_pack_s / plain_pack_s


class _RecordingBackend:
    """Transparent proxy over a backend, harvesting the GEMM workload of one
    pack: the (route, shapes, mirror) of every kernel call that actually
    executes — replay-skipped calls never reach the backend, so the harvest
    is exactly the campaign's live GEMM mix."""

    def __init__(self, inner):
        self._inner = inner
        self.calls: list[tuple] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def matmul_f64(self, a_q, b_q, b_f64=None):
        self.calls.append(("f64", a_q.shape, b_q.shape, b_f64 is not None))
        return self._inner.matmul_f64(a_q, b_q, b_f64=b_f64)

    def matmul_int32(self, a_q, b_q, wraparound=True, b_f64=None):
        self.calls.append(("int32", a_q.shape, b_q.shape, b_f64 is not None))
        return self._inner.matmul_int32(
            a_q, b_q, wraparound=wraparound, b_f64=b_f64
        )


def _harvest_gemm_workload(sizing: TaskSizing, lanes: int) -> list[tuple]:
    evaluator = ModelEvaluator(bundle(MODEL), "perplexity", sizing=sizing, replay=True)
    trials = _cell_trials(lanes)
    evaluator.clean_score
    executor = evaluator.model.executor
    proxy = _RecordingBackend(executor.backend)
    executor.backend = proxy
    try:
        evaluate_lane_pack(trials, evaluator)
    finally:
        executor.backend = proxy._inner
    return proxy.calls


def _workload_once(backend, ops) -> None:
    for kind, a, b, mirror in ops:
        if kind == "f64":
            backend.matmul_f64(a, b, b_f64=mirror)
        else:
            backend.matmul_int32(a, b, b_f64=mirror)


def _measure_backend_speedup(sizing: TaskSizing, lanes: int) -> dict:
    """The opt-in ``native`` backend vs numpy-f64 on synthesized operands
    matching the harvested shapes, timed as interleaved best-of rounds
    (single-CPU noise robust), plus the shared prepack cache's hit rate
    over the timed phase (weight panels pack once, then every rerun hits).
    Empty when ``native`` is unavailable on this host."""
    native = get_backend("native")
    if not native.available():
        print(f"native backend unavailable ({native.why_unavailable()}); "
              "backend speedup not measured")
        return {}
    calls = _harvest_gemm_workload(sizing, lanes)
    rng = np.random.default_rng(0)
    ops = []
    for kind, a_shape, b_shape, has_mirror in calls:
        a = rng.integers(-127, 128, size=a_shape, dtype=np.int8)
        b = rng.integers(-127, 128, size=b_shape, dtype=np.int8)
        ops.append((kind, a, b, b.astype(np.float64) if has_mirror else None))
    reference = get_backend("numpy-f64")
    start = time.perf_counter()  # warm (compile, pool spin-up) + size
    _workload_once(reference, ops)
    _workload_once(native, ops)
    pass_s = (time.perf_counter() - start) / 2
    # Smoke workloads pass in well under a millisecond — loop each sample
    # up to ~20 ms so scheduler noise cannot swamp the ratio.
    inner = max(1, int(0.02 / max(pass_s, 1e-6)))
    PREPACK.reset_stats()  # warm-up packed every weight: steady-state rate
    times = {"numpy-f64": float("inf"), "native": float("inf")}
    for _ in range(3 if SMOKE else 7):
        for backend in (reference, native):
            start = time.perf_counter()
            for _ in range(inner):
                _workload_once(backend, ops)
            times[backend.name] = min(
                times[backend.name], (time.perf_counter() - start) / inner
            )
    prepack = PREPACK.stats()
    return {
        "backend_speedup": round(times["numpy-f64"] / times["native"], 2),
        "backend_name": native.name,
        "backend_kernel": native.kernel(),
        "backend_fast": native.fast,
        "backend_gemm_calls": len(ops),
        "backend_ref_s": round(times["numpy-f64"], 4),
        "backend_time_s": round(times["native"], 4),
        "prepack_hit_rate": prepack["hit_rate"],
        "prepack_stats": prepack,
    }


def _measure_cell(label: str, sizing: TaskSizing, lanes: int) -> dict:
    evaluator = ModelEvaluator(bundle(MODEL), "perplexity", sizing=sizing, replay=True)
    trials = _cell_trials(lanes)

    # Bit-identical results on every lane is the precondition for comparing
    # wall clocks — assert it (and warm every cache) before timing anything.
    evaluator.clean_score
    solo = [evaluate_trial(t, evaluator) for t in trials]
    packed = evaluate_lane_pack(trials, evaluator)
    for t, s, p in zip(trials, solo, packed):
        for field in ("score", "degradation", "injected_errors", "gemm_calls"):
            assert getattr(s, field) == getattr(p, field), (
                f"lane route diverged on seed {t.seed} ({field}): "
                f"{getattr(s, field)} != {getattr(p, field)}"
            )

    per_trial_s = _best_of(lambda: [evaluate_trial(t, evaluator) for t in trials])
    lanes_s = _best_of(lambda: evaluate_lane_pack(trials, evaluator))
    overhead_pct = _telemetry_overhead_pct(evaluator, trials, packed, lanes_s)
    return {
        "cell": label,
        "lanes": lanes,
        "lm_sequences": sizing.lm_sequences,
        "lm_seq_len": sizing.lm_seq_len,
        "per_trial_s": round(per_trial_s, 4),
        "lanes_s": round(lanes_s, 4),
        "trials_per_s_per_trial": round(lanes / per_trial_s, 2),
        "trials_per_s_lanes": round(lanes / lanes_s, 2),
        "speedup": round(per_trial_s / lanes_s, 2),
        "telemetry_overhead_pct": round(overhead_pct, 4),
    }


def _run():
    cells = [
        _measure_cell(label, sizing, lanes)
        for label, sizing, lanes, _asserted in CELLS
    ]

    rows = []
    for cell in cells:
        rows.append(
            [
                f"{cell['cell']} ({cell['lm_sequences']}x{cell['lm_seq_len']})",
                cell["lanes"],
                f"{cell['per_trial_s']:.4f}",
                f"{cell['lanes_s']:.4f}",
                f"{cell['trials_per_s_lanes']:.1f}",
                f"{cell['speedup']:.2f}x",
                f"{cell['telemetry_overhead_pct']:+.3f}%",
            ]
        )
    table(
        "bench_trial_lanes",
        ["cell", "lanes", "per-trial (s)", "packed (s)", "trials/s (lanes)",
         "speedup", "telemetry ovh"],
        rows,
        title=(
            f"Q1.3 cells of {MODEL} (component O, prefill, bit-identical "
            "results across routes)"
            + ("; smoke mode: >=2x asserted only in full runs" if SMOKE else "")
        ),
    )

    headline = cells[0]
    backend = _measure_backend_speedup(CELLS[0][1], CELLS[0][2])
    if backend:
        print(
            f"native backend ({backend['backend_kernel']}): "
            f"{backend['backend_speedup']:.2f}x vs numpy-f64 over "
            f"{backend['backend_gemm_calls']} harvested GEMMs"
            + ("" if backend["backend_fast"] else " [single-core: unasserted]")
        )
        print(
            f"prepack cache: {backend['prepack_hit_rate']:.3f} hit rate "
            f"({backend['prepack_stats']['hits']} hits / "
            f"{backend['prepack_stats']['misses']} misses)"
        )
    payload = {
        "benchmark": "trial_lanes",
        "model": MODEL,
        "task": "perplexity",
        "smoke": SMOKE,
        "lanes": headline["lanes"],
        "cells": cells,
        "speedup": headline["speedup"],
        "telemetry_overhead_pct": headline["telemetry_overhead_pct"],
        **backend,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_lanes.json").write_text(json.dumps(payload, indent=2) + "\n")

    # The telemetry overhead contract is absolute and the per-op
    # measurement is noise-robust, so smoke runs gate it at full strength.
    assert headline["telemetry_overhead_pct"] < MAX_TELEMETRY_OVERHEAD_PCT, (
        f"telemetry overhead {headline['telemetry_overhead_pct']:.2f}% on "
        f"{headline['cell']} exceeds the {MAX_TELEMETRY_OVERHEAD_PCT}% cap"
    )
    if not SMOKE:
        for cell, (_, _, _, asserted) in zip(cells, CELLS):
            if asserted:
                assert cell["speedup"] >= MIN_SPEEDUP, (
                    f"lane-packed speedup {cell['speedup']:.2f}x on {cell['cell']} "
                    f"below the {MIN_SPEEDUP}x floor (target {TARGET_SPEEDUP}x)"
                )
        # The backend speed claim is only made where the fast kernel
        # actually runs (compiled, on a multi-core host); a single-core
        # run is reported, never asserted.
        if backend and backend["backend_fast"]:
            assert backend["backend_speedup"] >= MIN_NATIVE_SPEEDUP, (
                f"native backend speedup {backend['backend_speedup']:.2f}x "
                f"({backend['backend_kernel']}) below the "
                f"{MIN_NATIVE_SPEEDUP}x floor"
            )
    return headline["speedup"]


def test_trial_lane_speedup(benchmark):
    benchmark.pedantic(_run, rounds=1, iterations=1)


if __name__ == "__main__":
    speedup = _run()
    print(f"lane-packed speedup: {speedup:.2f}x")
