"""Fig. 7 — statistical ABFT on the systolic array, driven through the
unified GEMM dispatch pipeline (DESIGN.md section 8).

The dataflow table is now a thin consumer of the pipeline: the same GEMM is
(a) functionally simulated tile-by-tile by :class:`SystolicArray` (the
fault-injection oracle) and (b) dispatched through :class:`GemmExecutor`
with a :class:`CostInstrument` attached — and the two must agree cycle for
cycle, which pins the pipeline's cost accounting to the hardware model the
paper's Fig. 7 numbers come from. A third section measures what cost
accounting *costs*: a full opt-mini evaluation with and without the
instrument attached must stay within 10% wall clock (the tiling-plan memo
caches make per-call accounting a dictionary lookup).

Emits ``benchmarks/results/BENCH_dispatch.json`` (the perf-trajectory
datapoint CI uploads as an artifact). Smoke mode (``REPRO_BENCH_SMOKE=1``
or ``--smoke``) shrinks the eval workload and skips the overhead assertion
so CI can exercise the benchmark in seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from _common import RESULTS_DIR, bundle, full_route_score, table

from repro.abft.protectors import ClassicalABFT, StatisticalABFT
from repro.abft.region import CriticalRegion, theta_mag
from repro.characterization.evaluator import ModelEvaluator, TaskSizing
from repro.dispatch import CostInstrument
from repro.errors.injector import ErrorInjector
from repro.errors.models import BitFlipModel
from repro.errors.sites import Component, GemmSite, SiteFilter, Stage
from repro.models.quantized import GemmExecutor, QuantizedWeight
from repro.quant.gemm import gemm_int32
from repro.systolic.array import SystolicArray
from repro.systolic.dataflow import OS, WS
from repro.systolic.stat_unit import Log2LinearUnit
from repro.utils.seeding import derive_rng

SITE = GemmSite(0, Component.K, Stage.PREFILL)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE")) or "--smoke" in sys.argv[1:]
EVAL_SIZING = TaskSizing(lm_sequences=4 if SMOKE else 48, lm_seq_len=32)
EVAL_ROUNDS = 2 if SMOKE else 11
MAX_OVERHEAD = 0.10  # cost accounting must stay under 10% of eval wall clock


def _pipeline_cost(dataflow, x, weight, protect: bool):
    """Dispatch one GEMM through the executor with a cost instrument and
    return the measured report (the pipeline's half of the agreement)."""
    executor = GemmExecutor()
    cost = CostInstrument(size=32, dataflow=dataflow)
    executor.cost = cost
    executor.attach(None, ClassicalABFT() if protect else None)
    try:
        executor.linear(x, weight, SITE)
    finally:
        executor.attach(None, None)
        executor.cost = None
    return cost.report, executor


def test_fig7_systolic_dataflows(benchmark):
    rng = derive_rng(0, "fig7")
    a = rng.integers(-127, 128, size=(96, 96)).astype(np.int8)
    b = rng.integers(-127, 128, size=(96, 96)).astype(np.int8)
    reference = gemm_int32(a, b)

    ws_array = SystolicArray(32, WS)
    benchmark.pedantic(lambda: ws_array.gemm(a, b), rounds=3, iterations=1)

    # The pipeline route quantizes float operands; feed it the float image
    # of the weight codes so shapes (and therefore cycles) match exactly.
    weight = QuantizedWeight.from_float(b.astype(np.float64))
    x = a.astype(np.float64)

    rows = []
    for dataflow, name in ((WS, "WS"), (OS, "OS")):
        array = SystolicArray(32, dataflow)
        out, plain = array.gemm(a, b, site=SITE)
        np.testing.assert_array_equal(out, reference)

        # Pipeline-measured cycles must agree with the functional simulator
        # on both the plain and the checksum-augmented configuration.
        pipeline_plain, executor = _pipeline_cost(dataflow, x, weight, protect=False)
        assert pipeline_plain.compute_cycles == plain.compute_cycles
        assert pipeline_plain.tiles == plain.tiles
        assert pipeline_plain.macs == plain.macs
        _, with_checksum = array.gemm(a, b, protector=ClassicalABFT(), site=SITE)
        pipeline_checked, _ = _pipeline_cost(dataflow, x, weight, protect=True)
        assert pipeline_checked.compute_cycles == with_checksum.compute_cycles

        region = CriticalRegion(a=1.5, b=14.0, theta_freq=4.0)
        protector = StatisticalABFT({"K": region})
        injector = ErrorInjector(BitFlipModel(1e-5), seed=1)
        protected_out, protected = array.gemm(a, b, injector, protector, SITE)
        checksum_overhead = protected.compute_cycles / plain.compute_cycles - 1.0
        rows.append(
            [name, plain.compute_cycles, pipeline_plain.compute_cycles,
             protected.compute_cycles, f"{100*checksum_overhead:.2f}%",
             protected.recovered_tiles, f"{100*protected.recovery_overhead:.2f}%"]
        )
        # checksum pipeline overhead is ~1 cycle per tile: negligible
        assert checksum_overhead < 0.05
    table(
        "fig7_systolic",
        ["dataflow", "array cycles", "pipeline cycles", "protected cycles",
         "checksum overhead", "recovered tiles", "recovery cycle overhead"],
        rows,
        title="Fig 7: statistical ABFT on WS/OS systolic arrays "
              "(functional sim == dispatch-pipeline cost accounting)",
    )


def test_fig7_statistical_unit_hw_vs_sw(benchmark):
    """The Log2LinearFunction hardware threshold tracks the software law."""
    unit = Log2LinearUnit(a=1.5, b=12.0)
    msds = [2**p + 3 for p in range(4, 30, 2)]

    benchmark.pedantic(lambda: [unit.theta_mag(m) for m in msds], rounds=10, iterations=1)

    rows = []
    for msd in msds:
        hw = unit.theta_mag(msd)
        sw = theta_mag(1.5, 12.0, msd)
        ratio = hw / sw if sw else float("inf")
        rows.append([msd, sw, hw, f"{ratio:.3f}"])
        assert 0.4 <= ratio <= 2.5
    table(
        "fig7_stat_unit_hw_vs_sw",
        ["MSD", "software theta_mag", "hardware theta_mag", "ratio"],
        rows,
        title="Fig 7(c): Log2LinearFunction unit vs exact threshold",
    )


def _one_eval(evaluator, flt, cost) -> float:
    injector = ErrorInjector(BitFlipModel(1e-3, bits=(30,)), flt, seed=1)
    if cost is not None:
        cost.reset()
    start = time.perf_counter()
    full_route_score(evaluator, injector, cost=cost)
    return time.perf_counter() - start


def _time_eval(evaluator, flt, cost_instrument):
    """Best-of-N wall clock for both routes, rounds interleaved so drift
    (thermal, BLAS threads, noisy neighbours) hits them symmetrically."""
    plain_best = cost_best = float("inf")
    for _ in range(EVAL_ROUNDS):
        plain_best = min(plain_best, _one_eval(evaluator, flt, None))
        cost_best = min(cost_best, _one_eval(evaluator, flt, cost_instrument))
    return plain_best, cost_best


def _run_overhead():
    """Cost-instrument overhead on a whole-model opt-mini evaluation.

    Measured on the engine's full-forward route (no replay session):
    replay-resumed evals finish in single-digit milliseconds, where timer
    noise would swamp the per-call accounting being measured. The full
    route runs the same dispatches per GEMM, so the relative overhead bound
    transfers.
    """
    evaluator = ModelEvaluator(bundle("opt-mini"), "perplexity", sizing=EVAL_SIZING)
    flt = SiteFilter.everywhere()
    cost = CostInstrument(size=256, dataflow=WS)
    _one_eval(evaluator, flt, None)  # warm caches for both routes
    _one_eval(evaluator, flt, cost)
    plain_s, cost_s = _time_eval(evaluator, flt, cost)
    overhead = cost_s / plain_s - 1.0

    report = cost.report
    energy_uj = cost.energy(0.70).total_j * 1e6
    table(
        "fig7_dispatch_overhead",
        ["metric", "value"],
        [
            ["eval wall clock, cost off (s)", f"{plain_s:.4f}"],
            ["eval wall clock, cost on (s)", f"{cost_s:.4f}"],
            ["cost-accounting overhead", f"{100*overhead:.2f}%"],
            ["measured GEMM calls (sites)", len(report.by_site)],
            ["measured cycles", report.total_cycles],
            ["measured MACs", report.macs],
            ["energy @0.70V (uJ)", f"{energy_uj:.3f}"],
        ],
        title="Dispatch-pipeline cost accounting: overhead on an opt-mini eval",
    )
    payload = {
        "benchmark": "dispatch",
        "model": "opt-mini",
        "task": "perplexity",
        "smoke": SMOKE,
        "lm_sequences": EVAL_SIZING.lm_sequences,
        "plain_s": round(plain_s, 5),
        "cost_s": round(cost_s, 5),
        "overhead_pct": round(100 * overhead, 2),
        "sites_measured": len(report.by_site),
        "cycles": report.total_cycles,
        "macs": report.macs,
        "energy_uj_at_0v70": round(energy_uj, 4),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_dispatch.json").write_text(json.dumps(payload, indent=2) + "\n")
    if not SMOKE:
        assert overhead < MAX_OVERHEAD, (
            f"cost accounting added {100*overhead:.1f}% to the eval "
            f"(budget {100*MAX_OVERHEAD:.0f}%)"
        )
    return overhead


def test_fig7_cost_instrument_overhead(benchmark):
    benchmark.pedantic(_run_overhead, rounds=1, iterations=1)


if __name__ == "__main__":
    overhead = _run_overhead()
    print(f"cost-accounting overhead: {100*overhead:.2f}%")
