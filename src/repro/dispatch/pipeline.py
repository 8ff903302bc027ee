"""The GEMM dispatch pipeline: one call object, one ordered instrument chain.

Every protected/injectable GEMM of the inference engine is expressed as a
:class:`GemmCall` — site identity, operands, quantization scales, routing
state — dispatched through an ordered chain of :class:`Instrument` objects
with a uniform protocol (see DESIGN.md section 8):

- ``before(call)`` runs pre-execution on every live dispatch. Instruments
  prepare operands (:class:`QuantizeInstrument`), log the call
  (:class:`RecordInstrument`), or request materialized integer accumulators
  by setting ``call.need_int`` (:class:`InjectInstrument` when the site is
  targeted, :class:`ProtectInstrument` always).
- ``after(call)`` runs post-execution. On the materialized route
  ``call.acc`` holds the int32-valued accumulators and instruments
  transform it in place (corrupt, inspect/recover, cost-account); on the
  bypass route ``call.acc`` is ``None`` and instruments perform only their
  bookkeeping (RNG-counter advance, cost accounting).
- ``replay(call)`` replays the bookkeeping of a skipped clean GEMM (the
  clean-trace replay engine, DESIGN.md section 7): no operands, just the
  site, MAC count, and output shape. Live and replayed bookkeeping share
  one code path per instrument, so the two can never drift apart.

The chain order is fixed — Quantize, Record, Inject, Protect, Cost — and
matches the physical pipeline: operands are quantized before execution,
corruption happens on the accumulators, the checksum unit inspects the
(possibly corrupted) result and recovers, and the hardware cost model
observes what actually ran (including recoveries). The executor itself owns
MAC accounting and the route decision; with no injector, protector, or cost
instrument attached the chain degenerates to Quantize+Record and the
dispatch is bit-identical to (and as fast as) the pre-pipeline inline
route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.abft.checksums import checksum_report, slice_inspections
from repro.errors.sites import GemmSite


@dataclass(frozen=True)
class GemmCallRecord:
    """One executed GEMM of a recorded clean forward: enough to replay its
    bookkeeping (RNG stream advance, protector inspection, MAC charge,
    hardware cost) without re-executing the arithmetic."""

    site: GemmSite
    macs: int
    shape: tuple[int, ...]


@dataclass
class GemmCall:
    """One GEMM dispatch flowing through the instrument chain.

    ``kind`` is ``"linear"`` (activation x pre-quantized weight),
    ``"matmul"`` (activation x activation), or ``"replay"`` (bookkeeping
    replay of a skipped clean call — no operands). The quantize instrument
    fills in the int8 operands and the dequantization scale; the executor
    fills in ``clean``/``acc`` on the materialized route; the protect
    instrument records recovery decisions for the cost instrument.
    """

    site: GemmSite
    kind: str = "replay"
    # float operands (live dispatch only)
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    weight: Optional[object] = None  # QuantizedWeight (duck-typed)
    # quantized operands + scales (set by QuantizeInstrument)
    a_q: Optional[np.ndarray] = None
    b_q: Optional[np.ndarray] = None
    b_f64: Optional[np.ndarray] = None
    out_scale: Optional[np.ndarray] = None
    # shape/work accounting
    macs: int = 0
    out_shape: tuple[int, ...] = ()
    # routing state
    need_int: bool = False  # an instrument needs materialized accumulators
    protected: bool = False  # checksum hardware active for this call
    replayed: bool = False
    # accumulators (materialized route only)
    clean: Optional[np.ndarray] = None
    acc: Optional[np.ndarray] = None
    # recovery outcome (set by ProtectInstrument, read by CostInstrument);
    # the per-lane breakdowns are filled only on lane-packed dispatches
    # (DESIGN.md section 9), where the cost instrument must attribute each
    # recovered slice to the trial lane that tripped it.
    recovered_slices: int = 0
    recovered_macs: int = 0
    recovered_slices_by_lane: Optional[list[int]] = None
    recovered_macs_by_lane: Optional[list[int]] = None

    @property
    def stage(self):
        return self.site.stage

    def slice_shape(self) -> tuple[int, int, int, int]:
        """``(n_slices, m, k, n)`` of the call's 2-D GEMM slices.

        The reduction dimension is recovered exactly from the MAC count
        (``macs = n_slices * m * k * n``), so replayed calls — which carry
        only (site, macs, shape) — cost-account identically to live ones.
        """
        m, n = int(self.out_shape[-2]), int(self.out_shape[-1])
        n_slices = 1
        for d in self.out_shape[:-2]:
            n_slices *= int(d)
        return n_slices, m, self.macs // (n_slices * m * n), n


class Instrument:
    """Base instrument: every hook is a no-op."""

    name = "instrument"

    def before(self, call: GemmCall) -> None:
        """Pre-execution hook (live dispatch)."""

    def after(self, call: GemmCall) -> None:
        """Post-execution hook; ``call.acc`` is ``None`` on the bypass route."""

    def replay(self, call: GemmCall) -> None:
        """Bookkeeping replay of a skipped clean call (no operands)."""


class QuantizeInstrument(Instrument):
    """Quantizes operands per the executor's activation-quantization mode.

    Weight GEMMs quantize the activation only (weights are pre-quantized
    per-channel, with a cached float64 BLAS mirror); activation-activation
    GEMMs quantize both operands in ``a``-then-``b`` order, which is also
    the calibration-scale recording order.
    """

    name = "quantize"

    def __init__(self, executor) -> None:
        self.executor = executor

    def before(self, call: GemmCall) -> None:
        ex = self.executor
        a_q, a_params = ex._quantize(call.a, call.site, "a")
        call.a_q = a_q
        if call.kind == "linear":
            weight = call.weight
            call.b_q = weight.q
            call.b_f64 = weight.q_f64
            call.out_scale = a_params.scale * weight.params.scale
        else:
            b_q, b_params = ex._quantize(call.b, call.site, "b")
            call.b_q = b_q
            call.out_scale = np.asarray(a_params.scale * b_params.scale)
        rows = int(np.prod(call.a_q.shape[:-1]))
        n = int(call.b_q.shape[-1])
        call.macs = rows * call.a_q.shape[-1] * n
        call.out_shape = tuple(call.a_q.shape[:-1]) + (n,)


class RecordInstrument(Instrument):
    """Appends a :class:`GemmCallRecord` to the executor's active call log
    (clean-trace recording, DESIGN.md section 7). Inert when no log is
    scoped — the common case."""

    name = "record"

    def __init__(self, executor) -> None:
        self.executor = executor

    def before(self, call: GemmCall) -> None:
        log = self.executor.call_log
        if log is not None:
            log.append(
                GemmCallRecord(site=call.site, macs=call.macs, shape=call.out_shape)
            )


class InjectInstrument(Instrument):
    """Routes the attached :class:`~repro.errors.injector.ErrorInjector`.

    A targeted site forces integer materialization; an untargeted call (on
    the bypass route or in replay) advances the injector's per-call RNG
    counter via ``register_untargeted`` so downstream targeted streams are
    identical whichever route ran.
    """

    name = "inject"

    def __init__(self, injector) -> None:
        self.injector = injector

    def before(self, call: GemmCall) -> None:
        if self.injector.targets(call.site):
            call.need_int = True

    def after(self, call: GemmCall) -> None:
        if call.acc is None:
            self.injector.register_untargeted(call.site)
        else:
            call.acc = self.injector.corrupt(call.acc, call.site)

    def replay(self, call: GemmCall) -> None:
        self.injector.register_untargeted(call.site)


class ProtectInstrument(Instrument):
    """Consults the attached :class:`~repro.abft.protectors.Protector` per
    2-D GEMM slice and recovers tripped slices from the clean accumulators.

    The slicing/charging protocol lives in
    :func:`~repro.abft.checksums.slice_inspections` (shared with replayed
    bookkeeping); recovery granularity, the protector's inspection
    statistics, and the charged recovery MACs all match the paper's
    per-GEMM protocol independent of batch size.
    """

    name = "protect"

    def __init__(self, protector) -> None:
        self.protector = protector

    def before(self, call: GemmCall) -> None:
        call.need_int = True
        call.protected = True

    def _lane_count(self) -> Optional[int]:
        lanes = getattr(self.protector, "lanes", None)
        return len(lanes) if lanes is not None else None

    def after(self, call: GemmCall) -> None:
        # ``before`` forces materialization, so ``call.acc`` is never None.
        report = checksum_report(call.a_q, call.b_q, call.acc)
        macs = call.macs
        n_lanes = self._lane_count()
        if n_lanes is not None:
            call.recovered_slices_by_lane = [0] * n_lanes
            call.recovered_macs_by_lane = [0] * n_lanes
        if report.diffs.ndim <= 1:
            for _, sub, sub_macs in slice_inspections(report.diffs, macs):
                if self.protector.for_slice(None, 1).inspect(sub, call.site, sub_macs):
                    # recovery: recompute at nominal voltage
                    call.acc = call.clean
                    call.recovered_slices += 1
                    call.recovered_macs += sub_macs
                    return
            return
        acc, clean = call.acc, call.clean
        n_slices = int(np.prod(report.diffs.shape[:-1]))
        acc_slices = acc.reshape(n_slices, *acc.shape[-2:])
        clean_slices = clean.reshape(n_slices, *clean.shape[-2:])
        out = acc_slices
        for s, sub, slice_macs in slice_inspections(report.diffs, macs):
            protector = self.protector.for_slice(s, n_slices)
            if protector.inspect(sub, call.site, slice_macs):
                if out is acc_slices:
                    out = acc_slices.copy()
                out[s] = clean_slices[s]
                call.recovered_slices += 1
                call.recovered_macs += slice_macs
                if n_lanes is not None:
                    lane = self.protector.lane_of(s, n_slices)
                    call.recovered_slices_by_lane[lane] += 1
                    call.recovered_macs_by_lane[lane] += slice_macs
        call.acc = out.reshape(acc.shape)

    def replay(self, call: GemmCall) -> None:
        # A skipped clean call would have produced zero discrepancies at
        # every slice; hand the owning protector exactly those inspections.
        call.protected = True
        lead = call.out_shape[:-2]
        zero = np.zeros(lead + (call.out_shape[-1],), dtype=np.int64)
        n_slices = int(np.prod(lead)) if lead else 1
        for s, report, sub_macs in slice_inspections(zero, call.macs):
            self.protector.for_slice(s, n_slices).inspect(report, call.site, sub_macs)
