"""Clean-trace replay engine: resume injected forwards from the first
targeted layer boundary.

Every campaign trial corrupts a small subset of GEMM sites (one layer band,
one component, one stage), yet the seed engine re-ran the *entire* forward
per trial. All computation upstream of the first targeted site is
bit-identical to the fault-free run, so one clean forward per (model,
token-content) cell can be recorded once and reused by every trial of that
cell:

- :class:`CleanTrace` stores the per-layer boundary activations, the final
  logits, the post-prefill KV segments (generation traces), and a per-call
  :class:`GemmCall` log of the skipped work (site, MACs, output shape);
- :class:`TraceStore` keys traces by model fingerprint + token digest +
  quantization mode, so traces are shared across evaluators, campaign
  trials, and (via ``repro.models.sharing``) worker processes;
- :func:`replay_skipped_calls` replays the *bookkeeping* of the skipped
  prefix — injector call-counter advances, protector zero-discrepancy
  inspections, MAC accounting — so a resumed forward is indistinguishable
  from a full one: identical logits, identical RNG streams at every
  downstream targeted site, identical injector/protector statistics, and
  identical energy counters.

See DESIGN.md section 7 for the invariants and the invalidation rules.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dispatch.pipeline import GemmCallRecord
from repro.errors.sites import Stage

#: Backwards-compatible alias: the per-call record now lives in the
#: dispatch pipeline (see DESIGN.md section 8), since live dispatch and
#: replayed bookkeeping share one instrument protocol.
GemmCall = GemmCallRecord


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a trace array read-only: traces are shared across trials (and
    processes), so accidental in-place mutation must raise, not corrupt."""
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass
class CleanTrace:
    """Recorded state of one fault-free forward (see DESIGN.md section 7).

    ``kind`` is ``"full"`` (a ``forward_full`` scoring pass) or
    ``"generate"`` (a prefill + lock-step decode). ``boundaries[i]`` is the
    hidden state *entering* layer ``i``; ``logits`` is the forward's output
    (full logits for ``"full"``, last-position prefill logits for
    ``"generate"``). Generation traces additionally carry the post-prefill
    KV segments per layer and the clean greedy continuation.
    """

    kind: str
    boundaries: list[np.ndarray]
    calls_by_layer: list[list[GemmCall]]
    logits: np.ndarray
    kv: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    new_tokens: Optional[np.ndarray] = None
    decode_calls: Optional[list[GemmCall]] = None
    #: Provenance only: which GEMM backend recorded this trace. Every
    #: registered backend is exact, so traces interchange freely across
    #: backends (DESIGN.md section 11).
    backend: str = "numpy-f64"

    def __post_init__(self) -> None:
        self.boundaries = [_freeze(b) for b in self.boundaries]
        self.logits = _freeze(self.logits)
        if self.kv is not None:
            self.kv = [(_freeze(k), _freeze(v)) for k, v in self.kv]
        if self.new_tokens is not None:
            self.new_tokens = _freeze(self.new_tokens)

    @property
    def nbytes(self) -> int:
        total = sum(b.nbytes for b in self.boundaries) + self.logits.nbytes
        if self.kv is not None:
            total += sum(k.nbytes + v.nbytes for k, v in self.kv)
        if self.new_tokens is not None:
            total += self.new_tokens.nbytes
        return total


class TraceStore:
    """Process-wide clean-trace cache keyed by content, not identity.

    A key bakes in everything a trace's bit-exactness depends on: the model
    fingerprint (weights + calibration recipe), the exact token content, the
    forward kind/stage/generation length, and the executor's quantization
    mode and accumulator semantics. Anything else (injector, protector, the
    GEMM backend — every registered one is exact) cannot change a clean
    forward's bits, so it is *not* part of the key — that is what makes one
    trace serve every trial of a cell.

    The store is a byte-capped LRU (``max_bytes``, default from
    ``REPRO_TRACE_CACHE_MB``, 512 MB): a long-lived process sweeping many
    (model, task, sizing) cells evicts the least-recently-used traces
    instead of growing without bound. Eviction only costs speed — a missing
    trace re-records on the next fault-free forward, or the trial falls
    back to the full route.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        #: ``None`` resolves ``REPRO_TRACE_CACHE_MB`` lazily at each put, so
        #: the knob works whenever it is set — the global ``TRACES`` store is
        #: constructed at import time, long before user code runs.
        self.max_bytes = max_bytes
        self._traces: OrderedDict[str, CleanTrace] = OrderedDict()
        self._nbytes = 0
        #: Plain-int hit/miss tallies; ``repro.telemetry`` mirrors them into
        #: gauges at snapshot time rather than importing a registry here.
        self.hits = 0
        self.misses = 0

    def _cap(self) -> int:
        if self.max_bytes is not None:
            return self.max_bytes
        try:
            return int(os.environ.get("REPRO_TRACE_CACHE_MB", "512")) << 20
        except ValueError:  # malformed value: fall back, don't crash scoring
            return 512 << 20

    def get(self, key: str) -> Optional[CleanTrace]:
        trace = self._traces.get(key)
        if trace is None:
            self.misses += 1
            return None
        self.hits += 1
        self._traces.move_to_end(key)
        return trace

    def put(self, key: str, trace: CleanTrace) -> None:
        old = self._traces.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
        self._traces[key] = trace
        self._nbytes += trace.nbytes
        # Never evict the trace just inserted: one oversized trace must
        # still be usable for the trials that immediately follow it.
        cap = self._cap()
        while self._nbytes > cap and len(self._traces) > 1:
            _, evicted = self._traces.popitem(last=False)
            self._nbytes -= evicted.nbytes

    def clear(self) -> None:
        self._traces.clear()
        self._nbytes = 0

    def items(self):
        return self._traces.items()

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def nbytes(self) -> int:
        return self._nbytes


#: The shared per-process store. Campaign workers attach shared-memory
#: traces into this store at pool-init time (see repro.models.sharing).
TRACES = TraceStore()


def _token_digest(tokens: np.ndarray) -> str:
    arr = np.ascontiguousarray(tokens)
    digest = hashlib.sha256(str((arr.shape, str(arr.dtype))).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()[:24]


@dataclass
class ReplaySession:
    """Binds a model's trace identity (its fingerprint) to a trace store.

    Attach to an engine via ``model.replay_into(session)``; the engine then
    records a clean trace on the first fault-free forward per token content
    and resumes every later injected forward from the earliest targeted
    layer boundary.
    """

    fingerprint: str
    store: TraceStore = field(default_factory=lambda: TRACES)

    def key_full(self, tokens: np.ndarray, stage: Stage, executor) -> str:
        return (
            f"{self.fingerprint}/full/{stage.value}/{executor.mode}/"
            f"w{int(executor.wraparound)}/{_token_digest(tokens)}"
        )

    def key_generate(self, prompts: np.ndarray, max_new_tokens: int, executor) -> str:
        return (
            f"{self.fingerprint}/gen{max_new_tokens}/{executor.mode}/"
            f"w{int(executor.wraparound)}/{_token_digest(prompts)}"
        )


def resume_layer(
    injector,
    n_layers: int,
    components: Sequence,
    stage: Stage,
) -> Optional[int]:
    """First layer an attached injector could touch in ``stage``.

    ``None`` means no site of this forward is targeted (disabled injector,
    stage filtered out, disjoint components, out-of-range layers) and the
    whole forward can be restored from the trace; ``0`` means resume from
    the first layer (the only saving is the embedding). A missing injector
    targets nothing.
    """
    if injector is None or not injector.enabled:
        return None
    return injector.site_filter.earliest_layer(
        n_layers, components=components, stage=stage
    )


def replay_skipped_calls(
    executor, calls: Sequence[GemmCallRecord], lanes: int = 1
) -> None:
    """Replay the bookkeeping of skipped clean GEMMs on ``executor``.

    Each record dispatches through the executor's instrument chain
    (``GemmExecutor.replay_call``), mirroring what a full forward would
    have done at each untargeted site: charge the MACs, advance the
    injector's per-call RNG counter (``register_untargeted``), hand the
    protector the zero-discrepancy checksum inspections it would have
    performed (sliced and charged by the same
    :func:`~repro.abft.checksums.slice_inspections` protocol as the live
    protect instrument), and charge the hardware cost instrument — so
    recovery statistics, charged recovery MACs, and measured cycles are
    identical whether or not the prefix was recomputed.

    ``lanes`` is the width of the forward being replayed (DESIGN.md
    section 9): the trace was recorded on the per-lane token block, so each
    record's leading batch dimension and MAC count scale by the lane count,
    exactly matching the calls a packed clean forward would have logged.
    The lane-aware instruments then split the bookkeeping back per lane, so
    every lane's counters equal its solo run's.
    """
    for call in calls:
        shape = (call.shape[0] * lanes,) + tuple(call.shape[1:])
        executor.replay_call(call.site, call.macs * lanes, shape)
