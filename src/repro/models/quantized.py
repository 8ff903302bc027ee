"""W8A8 quantized inference engine with fault injection and ABFT hooks.

This is the device-under-test of the whole reproduction. Every matrix
multiplication of the transformer (paper Fig. 2 components Q, K, V, QK^T,
SV, O and the MLP GEMMs) executes as INT8 x INT8 -> INT32 through
:class:`GemmExecutor` — since the dispatch-pipeline refactor a thin
orchestrator over the ``repro.dispatch`` instrument chain (DESIGN.md
section 8) — which:

1. quantizes activations per-matrix (weights are pre-quantized per-channel),
2. computes the INT32 result with wraparound accumulators,
3. lets the attached :class:`~repro.errors.injector.ErrorInjector` corrupt
   the accumulators (transient timing faults),
4. lets the attached :class:`~repro.abft.protectors.Protector` inspect the
   checksum report and, if recovery is requested, replaces the output with a
   clean recomputation (charged to recovery cost), and
5. dequantizes back to float for the nonlinear functions (softmax, norms,
   activations), which stay in floating point per paper Sec. II-A.

The engine is batched end-to-end: every public entry point accepts either a
single token sequence or a ``(batch, seq)`` stack, hidden states carry a
leading batch axis, attention runs as head-batched stacked GEMMs, and the KV
cache decodes all sequences of a batch in lock-step. Exactly one injector
call is issued per (GemmSite, forward) regardless of batch size, and the
batched path is bit-identical to the single-sequence path on fault-free
inference — see DESIGN.md section 4 for the representation change and its
RNG-stream consequences.

The LM head and embeddings run in float: the paper's component taxonomy
covers only the block GEMMs, and vocabulary projection is typically executed
on protected vector units.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.abft.protectors import Protector
from repro.dispatch.backends import GemmBackend, resolve_backend
from repro.dispatch.pipeline import (
    GemmCall as DispatchCall,
    GemmCallRecord,
    InjectInstrument,
    Instrument,
    ProtectInstrument,
    QuantizeInstrument,
    RecordInstrument,
)
from repro.errors.injector import ErrorInjector
from repro.errors.sites import Component, GemmSite, Stage
from repro.models.config import ModelConfig
from repro.models.float_model import outlier_gain
from repro.models.kv_cache import KVCache, LayerKV
from repro.models.replay import (
    CleanTrace,
    ReplaySession,
    replay_skipped_calls,
    resume_layer,
)
from repro.models.rope import apply_rope_np, rope_tables
from repro.quant.gemm import INT32_MAX
from repro.quant.quantizer import (
    QuantParams,
    quantize_activation_blockwise,
    quantize_weight_per_channel,
    quantize_with_scale,
)
from repro.telemetry.spans import span as _span


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on plain arrays (inference path)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def layer_norm_np(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * weight + bias


def rms_norm_np(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(ms + eps) * weight


def silu_np(x: np.ndarray) -> np.ndarray:
    # overflow-safe sigmoid: exp of a non-positive argument only
    positive = x >= 0
    exp_neg = np.exp(np.where(positive, -x, x))
    sigmoid = np.where(positive, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    return x * sigmoid


def batch_groups(
    sequences: Sequence[np.ndarray],
) -> list[tuple[list[int], np.ndarray]]:
    """Group equal-length sequences into stackable batches.

    Returns ``(original_indices, stacked_batch)`` pairs covering every input
    sequence exactly once, grouped by length in first-seen order. Lock-step
    batched inference needs rectangular batches; callers scatter the batched
    results back through ``original_indices`` so output order never depends
    on the grouping.
    """
    by_length: dict[int, list[int]] = {}
    arrays = [np.asarray(seq) for seq in sequences]
    for idx, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise ValueError("batch_groups expects 1-D token sequences")
        by_length.setdefault(arr.shape[0], []).append(idx)
    return [
        (idxs, np.stack([arrays[i] for i in idxs]))
        for idxs in by_length.values()
    ]


@dataclass
class QuantizedWeight:
    """Pre-quantized weight: int8 codes ``(in, out)`` + per-column scales.

    ``q_f64`` caches the codes as float64 for the executor's BLAS fast path
    (the codes are exact integers either way).
    """

    q: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        self.q_f64 = self.q.astype(np.float64)

    @classmethod
    def from_float(cls, w: np.ndarray) -> "QuantizedWeight":
        q, params = quantize_weight_per_channel(w)
        return cls(q=q, params=params)

    @classmethod
    def from_parts(
        cls, q: np.ndarray, params: QuantParams, q_f64: Optional[np.ndarray] = None
    ) -> "QuantizedWeight":
        """Rebuild from already-quantized parts (shared-memory attach path):
        skips ``__post_init__`` when ``q_f64`` is supplied so the float64
        cache stays a zero-copy view instead of being re-materialized."""
        obj = object.__new__(cls)
        obj.q = q
        obj.params = params
        obj.q_f64 = q_f64 if q_f64 is not None else q.astype(np.float64)
        return obj


class GemmExecutor:
    """Runs every protected/injectable GEMM of the quantized model.

    Since the dispatch-pipeline refactor (DESIGN.md section 8) the executor
    is a thin orchestrator: each ``linear``/``matmul`` builds a
    :class:`~repro.dispatch.pipeline.GemmCall` and pushes it through an
    ordered chain of instruments (Quantize, Record, Inject, Protect, Cost)
    rebuilt on every :meth:`attach`. The executor itself owns only the MAC
    accounting, the materialize-vs-bypass route decision, and the integer
    GEMM kernel; the chain with nothing attached is bit-identical to the
    pre-pipeline inline route (asserted in ``tests/test_dispatch.py``).

    Operands may carry leading batch/head axes: a weight GEMM takes
    ``(batch, m, k) @ (k, n)`` and an activation-activation GEMM takes
    ``(batch, heads, m, k) @ (batch, heads, k, n)``; either way the whole
    stack executes as **one** GEMM call — one injector consultation, one
    checksum report (broadcast over the leading axes), one recovery
    decision.

    Activation quantization modes:

    - ``"dynamic"`` — per-matrix scale from each stacked matrix's own
      max-abs, so a batch row quantizes exactly as it would alone (no
      calibration required; an ablation — a single large injected error
      inflates its matrix's scale and washes out every other value).
    - ``"calibrate"`` — transparent float pass that records per-site
      activation max-abs into ``scale_store``.
    - ``"static"`` — calibrated per-site scales; out-of-range values
      (e.g. injected faults flowing through) saturate at the int8 boundary,
      as deployed W8A8 inference does. This is the default experimental
      setting, matching the paper's SmoothQuant-style quantization.
    """

    def __init__(
        self,
        wraparound: bool = True,
        backend: "GemmBackend | str | None" = None,
    ) -> None:
        self.injector: Optional[ErrorInjector] = None
        self.protector: Optional[Protector] = None
        self.wraparound = wraparound
        #: The GEMM kernel strategy (DESIGN.md section 11). Resolution
        #: order: explicit argument > $REPRO_GEMM_BACKEND > "numpy-f64".
        #: Every registered backend is bit-identical to the oracle.
        self.backend: GemmBackend = resolve_backend(backend)
        self.total_macs = 0
        self.macs_by_component: dict[str, int] = {}
        self.mode = "dynamic"
        self.scale_store: dict[str, float] = {}
        #: When set (trace recording), every executed GEMM appends a
        #: :class:`~repro.dispatch.pipeline.GemmCallRecord` so a later
        #: resumed forward can replay the skipped prefix's bookkeeping
        #: (DESIGN.md section 7).
        self.call_log: Optional[list[GemmCallRecord]] = None
        self._cost: Optional[Instrument] = None
        self._trace: Optional[Instrument] = None
        self._rebuild_chain()

    def _rebuild_chain(self) -> None:
        """Instrument chain in pipeline order (DESIGN.md section 8):
        Quantize, Record, Inject, Protect, Cost, Trace — each present only
        while its subject is attached."""
        chain: list[Instrument] = [QuantizeInstrument(self), RecordInstrument(self)]
        if self.injector is not None:
            chain.append(InjectInstrument(self.injector))
        if self.protector is not None:
            chain.append(ProtectInstrument(self.protector))
        if self._cost is not None:
            chain.append(self._cost)
        if self._trace is not None:
            chain.append(self._trace)
        self.instruments: tuple[Instrument, ...] = tuple(chain)

    @property
    def cost(self) -> Optional[Instrument]:
        """Hardware cost instrument (``None`` — the default — disables cost
        accounting entirely; the hot path never consults it)."""
        return self._cost

    @cost.setter
    def cost(self, instrument: Optional[Instrument]) -> None:
        self._cost = instrument
        self._rebuild_chain()

    @property
    def trace(self) -> Optional[Instrument]:
        """Wall-time trace instrument (DESIGN.md section 10; ``None`` — the
        default — means :meth:`dispatch` pays one ``is None`` test and the
        chain is exactly the pre-telemetry chain)."""
        return self._trace

    @trace.setter
    def trace(self, instrument: Optional[Instrument]) -> None:
        self._trace = instrument
        self._rebuild_chain()

    @staticmethod
    def _scale_key(site: GemmSite, operand: str) -> str:
        # Stage-independent: decode reuses the scales calibrated in prefill.
        return f"L{site.layer}/{site.component.value}/{operand}"

    def _quantize(
        self, x: np.ndarray, site: GemmSite, operand: str
    ) -> tuple[np.ndarray, QuantParams]:
        if self.mode == "static":
            key = self._scale_key(site, operand)
            scale = self.scale_store.get(key)
            if scale is None:
                raise RuntimeError(
                    f"no calibrated scale for {key}; run calibration first"
                )
            return quantize_with_scale(x, scale)
        if self.mode == "calibrate":
            key = self._scale_key(site, operand)
            observed = float(np.max(np.abs(x))) / 127.0
            self.scale_store[key] = max(self.scale_store.get(key, 0.0), observed, 1e-12)
        return quantize_activation_blockwise(x)

    def attach(
        self,
        injector: Optional[ErrorInjector] = None,
        protector: Optional[Protector] = None,
    ) -> None:
        self.injector = injector
        self.protector = protector
        self._rebuild_chain()

    def reset_counters(self) -> None:
        """Zero the MAC accounting (fresh energy measurement)."""
        self.total_macs = 0
        self.macs_by_component = {}

    def dispatch(self, call: DispatchCall) -> np.ndarray:
        """Run one GEMM call through the instrument chain.

        With a trace instrument attached the whole call is timed here —
        the only boundary both the materialized and bypass routes cross
        (the bypass kernel runs *after* the ``after`` hooks, so hook-level
        timing would miss it).
        """
        trace = self._trace
        if trace is None:
            return self._dispatch(call)
        t0 = time.perf_counter()
        out = self._dispatch(call)
        trace.observe(call, time.perf_counter() - t0, self.backend.name)
        return out

    def _dispatch(self, call: DispatchCall) -> np.ndarray:
        """The untimed dispatch route.

        ``before`` hooks quantize/log the call and vote on materialization;
        the executor charges the MACs and picks the route; ``after`` hooks
        then corrupt, protect, and cost-account the result. The bypass
        route (nothing needs integer accumulators and the int8 reduction
        cannot leave int32 range) runs the GEMM on the BLAS pipeline and
        dequantizes directly — bit-identical to the integer route.
        """
        for instrument in self.instruments:
            instrument.before(call)
        self.total_macs += call.macs
        key = call.site.component.value
        self.macs_by_component[key] = self.macs_by_component.get(key, 0) + call.macs
        a_q, b_q = call.a_q, call.b_q
        backend = self.backend
        no_overflow = (
            a_q.dtype == np.int8
            and b_q.dtype == np.int8
            and a_q.shape[-1] * 127 * 127 <= INT32_MAX
        )
        if no_overflow and not call.need_int:
            for instrument in self.instruments:
                instrument.after(call)  # bookkeeping only: call.acc is None
            return backend.matmul_f64(a_q, b_q, b_f64=call.b_f64) * call.out_scale
        call.clean = backend.matmul_int32(
            a_q, b_q, wraparound=self.wraparound, b_f64=call.b_f64
        )
        call.acc = call.clean
        for instrument in self.instruments:
            instrument.after(call)
        return call.acc.astype(np.float64) * call.out_scale

    def replay_call(self, site: GemmSite, macs: int, shape: tuple[int, ...]) -> None:
        """Replay the bookkeeping of one skipped clean GEMM (DESIGN.md
        section 7): charge the MACs and hand every instrument its
        ``replay`` hook — RNG-counter advance, zero-discrepancy protector
        inspections, hardware cost — so a resumed forward is
        indistinguishable from a full one."""
        call = DispatchCall(site=site, macs=macs, out_shape=shape, replayed=True)
        self.total_macs += macs
        key = site.component.value
        self.macs_by_component[key] = self.macs_by_component.get(key, 0) + macs
        trace = self._trace
        if trace is None:
            for instrument in self.instruments:
                instrument.replay(call)
            return
        t0 = time.perf_counter()
        for instrument in self.instruments:
            instrument.replay(call)
        trace.observe_replay(call, time.perf_counter() - t0)

    def linear(self, x: np.ndarray, weight: QuantizedWeight, site: GemmSite) -> np.ndarray:
        """Weight GEMM ``x @ W`` with ``x`` of shape ``(..., m, in)``."""
        return self.dispatch(DispatchCall(site=site, kind="linear", a=x, weight=weight))

    def matmul(self, a: np.ndarray, b: np.ndarray, site: GemmSite) -> np.ndarray:
        """Activation-activation GEMM (QK^T, SV) with stacked operands."""
        return self.dispatch(DispatchCall(site=site, kind="matmul", a=a, b=b))


class QuantizedTransformerLM:
    """Quantized inference engine built from trained float weights.

    Token inputs may be a single 1-D sequence or a 2-D ``(batch, seq)``
    stack; outputs mirror the input rank. Internally everything runs
    batched (a single sequence is a batch of one), and fault-free results
    are bit-identical either way.

    Parameters
    ----------
    config:
        Shared :class:`ModelConfig`.
    state:
        ``FloatTransformerLM.state_dict()`` arrays.
    """

    def __init__(self, config: ModelConfig, state: dict[str, np.ndarray]) -> None:
        self._init_runtime(config)
        self.embed = state["embed.weight"]
        self.pos_embed = state.get("pos_embed.weight")
        self.lm_head = state["lm_head.weight"]
        self.final_norm_w = state["final_norm.weight"]
        self.final_norm_b = state.get("final_norm.bias")
        self.layers: list[dict[str, object]] = []
        for i in range(config.n_layers):
            prefix = f"blocks.{i}"
            layer: dict[str, object] = {
                "norm1_w": state[f"{prefix}.norm1.weight"],
                "norm2_w": state[f"{prefix}.norm2.weight"],
                "wq": QuantizedWeight.from_float(state[f"{prefix}.attn.wq.weight"]),
                "wk": QuantizedWeight.from_float(state[f"{prefix}.attn.wk.weight"]),
                "wv": QuantizedWeight.from_float(state[f"{prefix}.attn.wv.weight"]),
                "wo": QuantizedWeight.from_float(state[f"{prefix}.attn.wo.weight"]),
            }
            if config.arch == "opt":
                layer["norm1_b"] = state[f"{prefix}.norm1.bias"]
                layer["norm2_b"] = state[f"{prefix}.norm2.bias"]
                layer["fc1"] = QuantizedWeight.from_float(state[f"{prefix}.mlp.fc1.weight"])
                layer["fc2"] = QuantizedWeight.from_float(state[f"{prefix}.mlp.fc2.weight"])
            else:
                layer["gate"] = QuantizedWeight.from_float(state[f"{prefix}.mlp.gate.weight"])
                layer["up"] = QuantizedWeight.from_float(state[f"{prefix}.mlp.up.weight"])
                layer["down"] = QuantizedWeight.from_float(state[f"{prefix}.mlp.down.weight"])
            self.layers.append(layer)

    # ------------------------------------------------------------- plumbing
    def attach(
        self,
        injector: Optional[ErrorInjector] = None,
        protector: Optional[Protector] = None,
    ) -> None:
        """Attach/replace the error injector and ABFT protector."""
        self.executor.attach(injector, protector)

    @property
    def injector(self) -> Optional[ErrorInjector]:
        return self.executor.injector

    @property
    def protector(self) -> Optional[Protector]:
        return self.executor.protector

    def _init_runtime(self, config: ModelConfig) -> None:
        """Non-weight runtime state, shared with the shared-memory attach
        path (``repro.models.sharing.attach_model``) so a worker-rebuilt
        engine can never silently miss an attribute added here."""
        self.config = config
        self.executor = GemmExecutor()
        #: Active clean-trace replay session (see DESIGN.md section 7);
        #: managed by :meth:`replay_into`, ``None`` disables replay.
        self.replay: Optional[ReplaySession] = None
        #: Lane-packed execution width (see DESIGN.md section 9): token
        #: batches are ``lane_split`` stacked trial lanes sharing one
        #: forward. Managed by :meth:`lanes`; ``1`` means normal execution.
        self.lane_split: int = 1
        self._gain = outlier_gain(config)

    def _empty_cache(self, batch: int) -> KVCache:
        """A zero-length KV cache for ``batch`` sequences (prefill start)."""
        return KVCache(
            layers=[
                LayerKV(
                    k=np.empty((batch, self.config.n_heads, 0, self.config.head_dim)),
                    v=np.empty((batch, self.config.n_heads, 0, self.config.head_dim)),
                )
                for _ in self.layers
            ]
        )

    @contextmanager
    def replay_into(self, session: Optional[ReplaySession]):
        """Scope a clean-trace replay session onto this (possibly shared)
        engine; restores the previous session on exit. ``None`` scopes
        replay *off* — the seed-equivalent full-forward route."""
        saved = self.replay
        self.replay = session
        try:
            yield self
        finally:
            self.replay = saved

    @contextmanager
    def lanes(self, n: int):
        """Scope lane-packed execution onto this (possibly shared) engine.

        While active, token batches are interpreted as ``n`` stacked trial
        lanes (lane j owns the j-th contiguous block of batch rows), which
        lets the replay engine resume a packed forward from the per-lane
        clean trace (see DESIGN.md section 9). The caller is responsible
        for attaching matching lane-aware instruments
        (:class:`~repro.errors.injector.LaneInjector`, ...).
        """
        if n < 1:
            raise ValueError("lane count must be >= 1")
        saved = self.lane_split
        self.lane_split = n
        try:
            yield self
        finally:
            self.lane_split = saved

    @staticmethod
    def _as_batch(token_ids: np.ndarray) -> tuple[np.ndarray, bool]:
        """Promote tokens to ``(batch, seq)``; report whether input was batched."""
        arr = np.asarray(token_ids)
        if arr.ndim == 1:
            return arr[None, :], False
        if arr.ndim == 2:
            return arr, True
        raise ValueError(f"expected 1-D or 2-D token ids, got shape {arr.shape}")

    def _norm(self, x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
        if self.config.arch == "opt":
            assert b is not None
            return layer_norm_np(x, w, b, self.config.norm_eps)
        return rms_norm_np(x, w, self.config.norm_eps)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, seq, d_model) -> (batch, n_heads, seq, head_dim)."""
        batch, seq, _ = x.shape
        cfg = self.config
        return x.reshape(batch, seq, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, n_heads, seq, head_dim) -> (batch, seq, d_model)."""
        batch, n_heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, n_heads * head_dim)

    # ------------------------------------------------------------- attention
    def _attention(
        self,
        layer: dict[str, object],
        layer_idx: int,
        h_norm: np.ndarray,
        stage: Stage,
        cache: Optional[LayerKV],
        position: int,
    ) -> np.ndarray:
        cfg = self.config
        ex = self.executor

        def site(component: Component) -> GemmSite:
            return GemmSite(layer=layer_idx, component=component, stage=stage)

        q = ex.linear(h_norm, layer["wq"], site(Component.Q))
        k = ex.linear(h_norm, layer["wk"], site(Component.K))
        v = ex.linear(h_norm, layer["wv"], site(Component.V))
        q = self._split_heads(q)
        k = self._split_heads(k)
        v = self._split_heads(v)
        if cfg.arch == "llama":
            cos, sin = rope_tables(q.shape[-2], cfg.head_dim, cfg.rope_base, offset=position)
            q = apply_rope_np(q, cos, sin)
            k = apply_rope_np(k, cos, sin)

        if cache is not None:
            cache.append(k, v)
            k_all, v_all = cache.k, cache.v
        else:
            k_all, v_all = k, v

        seq_q = q.shape[-2]
        seq_k = k_all.shape[-2]
        scale = 1.0 / np.sqrt(cfg.head_dim)
        # Head-batched stacked GEMMs: all (batch, head) score/context
        # matrices in one call each — one injector/protector consultation
        # per component per forward, whatever the batch size.
        scores = ex.matmul(q, np.swapaxes(k_all, -1, -2), site(Component.QKT)) * scale
        if stage is Stage.PREFILL and seq_q > 1:
            mask = np.triu(np.ones((seq_q, seq_k), dtype=bool), k=1 + (seq_k - seq_q))
            scores = np.where(mask, -1e30, scores)
        attn = softmax_np(scores, axis=-1)
        context = ex.matmul(attn, v_all, site(Component.SV))
        merged = self._merge_heads(context)
        return ex.linear(merged, layer["wo"], site(Component.O))

    def _mlp(
        self,
        layer: dict[str, object],
        layer_idx: int,
        h_norm: np.ndarray,
        stage: Stage,
    ) -> np.ndarray:
        ex = self.executor

        def site(component: Component) -> GemmSite:
            return GemmSite(layer=layer_idx, component=component, stage=stage)

        if self.config.arch == "opt":
            hidden = ex.linear(h_norm, layer["fc1"], site(Component.FC1))
            hidden = np.maximum(hidden, 0.0)
            return ex.linear(hidden, layer["fc2"], site(Component.FC2))
        gate = ex.linear(h_norm, layer["gate"], site(Component.GATE))
        up = ex.linear(h_norm, layer["up"], site(Component.UP))
        return ex.linear(silu_np(gate) * up, layer["down"], site(Component.DOWN))

    def _block(
        self,
        layer: dict[str, object],
        layer_idx: int,
        h: np.ndarray,
        stage: Stage,
        cache: Optional[LayerKV],
        position: int,
    ) -> np.ndarray:
        h_norm = self._norm(h, layer["norm1_w"], layer.get("norm1_b"))
        h = h + self._attention(layer, layer_idx, h_norm, stage, cache, position)
        h_norm = self._norm(h, layer["norm2_w"], layer.get("norm2_b"))
        return h + self._mlp(layer, layer_idx, h_norm, stage)

    def _embed_tokens(self, token_ids: np.ndarray, position: int) -> np.ndarray:
        """``(batch, seq)`` token ids -> ``(batch, seq, d_model)`` states."""
        h = self.embed[token_ids]
        if self.pos_embed is not None:
            h = h + self.pos_embed[position : position + token_ids.shape[-1]]
        return h * self._gain

    def _logits(self, h: np.ndarray) -> np.ndarray:
        h = self._norm(h, self.final_norm_w, self.final_norm_b)
        return h @ self.lm_head

    def calibrate_activations(self, token_batches: list[np.ndarray]) -> None:
        """Calibrate static per-site activation scales from clean runs.

        Runs the supplied sequences fault-free in calibration mode, covering
        both prefill (full-sequence scoring) and decode (a short greedy
        generation), then switches the executor to static quantization —
        the deployed-inference configuration used by all experiments.
        Equal-length sequences are batched; per-matrix dynamic quantization
        makes the recorded scales independent of the grouping.
        """
        saved = (self.executor.injector, self.executor.protector)
        self.attach(None, None)
        self.executor.mode = "calibrate"
        try:
            for _, batch in batch_groups([np.asarray(seq) for seq in token_batches]):
                self.forward_full(batch)
                prompt_len = max(2, batch.shape[1] // 2)
                gen_budget = min(4, self.config.max_seq_len - prompt_len)
                if gen_budget > 0:
                    self.generate_batch(batch[:, :prompt_len], gen_budget)
        finally:
            self.executor.mode = "static"
            self.attach(*saved)

    # ------------------------------------------------------------- inference
    def forward_full(self, token_ids: np.ndarray, stage: Stage = Stage.PREFILL) -> np.ndarray:
        """Full-sequence forward (scoring/perplexity path).

        Returns logits of shape ``(seq, vocab)`` for a 1-D sequence or
        ``(batch, seq, vocab)`` for a ``(batch, seq)`` stack. With a replay
        session attached, the clean forward per token content is recorded
        once and every injected repeat resumes from the earliest layer the
        injector's filter can touch — bit-identical logits, RNG streams,
        and statistics (see DESIGN.md section 7). Replayed logits are
        returned as read-only arrays.
        """
        tokens, batched = self._as_batch(token_ids)
        if self.replay is not None and self.executor.mode != "calibrate":
            logits = self._replay_full(tokens, stage)
            if logits is not None:
                return logits if batched else logits[0]
        h = self._embed_tokens(tokens, position=0)
        for i, layer in enumerate(self.layers):
            h = self._block(layer, i, h, stage, cache=None, position=0)
        logits = self._logits(h)
        return logits if batched else logits[0]

    # ----------------------------------------------------- clean-trace replay
    def _lane_base(self, tokens: np.ndarray) -> Optional[np.ndarray]:
        """Per-lane token block of a lane-packed batch, or ``None`` when the
        batch is not ``lane_split`` stacked copies of one block (each lane
        of a pack scores the same task content, so packed tokens tile)."""
        lanes = self.lane_split
        if tokens.ndim != 2 or tokens.shape[0] % lanes:
            return None
        base = tokens[: tokens.shape[0] // lanes]
        return base if np.array_equal(tokens, np.tile(base, (lanes, 1))) else None

    def _replay_full(self, tokens: np.ndarray, stage: Stage) -> Optional[np.ndarray]:
        """Record-or-resume a ``forward_full``; ``None`` falls back to the
        full route (no trace yet and a fault configuration is attached).

        A lane-packed call (``lane_split > 1``, DESIGN.md section 9) looks
        up the trace of its *per-lane* token block and resumes with every
        restored array tiled across lanes — the packed equivalent of each
        lane resuming alone.
        """
        ex = self.executor
        session = self.replay
        if self.lane_split > 1:
            base = self._lane_base(tokens)
            if base is None:
                return None
            trace = session.store.get(session.key_full(base, stage, ex))
            if trace is None:
                return None  # no per-lane trace: packed full route
            return self._resume_full(trace, stage, self.lane_split)
        key = session.key_full(tokens, stage, ex)
        trace = session.store.get(key)
        if trace is None:
            if ex.injector is not None or ex.protector is not None:
                return None  # traces are recorded fault-free only
            logits, trace = self._record_full(tokens, stage)
            session.store.put(key, trace)
            return logits
        return self._resume_full(trace, stage, 1)

    def _resume_full(
        self, trace: CleanTrace, stage: Stage, lanes: int
    ) -> np.ndarray:
        """Resume a ``forward_full`` from ``trace``, tiled across ``lanes``."""
        ex = self.executor
        with _span("replay.resume", kind="full", stage=stage.value, lanes=lanes) as sp:
            start = resume_layer(
                ex.injector, self.config.n_layers, self.config.components, stage
            )
            sp.set(start=-1 if start is None else start)
            end = self.config.n_layers if start is None else start
            for i in range(end):
                replay_skipped_calls(ex, trace.calls_by_layer[i], lanes=lanes)
            if start is None:
                if lanes == 1:
                    return trace.logits
                return np.tile(trace.logits, (lanes, 1, 1))
            h = trace.boundaries[start]
            if lanes > 1:
                h = np.tile(h, (lanes, 1, 1))
            for i in range(start, self.config.n_layers):
                h = self._block(self.layers[i], i, h, stage, cache=None, position=0)
            return self._logits(h)

    def _record_full(
        self, tokens: np.ndarray, stage: Stage
    ) -> tuple[np.ndarray, CleanTrace]:
        """Run a clean full forward while capturing layer boundaries and the
        per-layer GEMM call log."""
        ex = self.executor
        saved_log = ex.call_log
        boundaries: list[np.ndarray] = []
        calls: list[list[GemmCallRecord]] = []
        with _span("replay.record", kind="full", stage=stage.value):
            try:
                h = self._embed_tokens(tokens, position=0)
                for i, layer in enumerate(self.layers):
                    boundaries.append(h)
                    ex.call_log = layer_log = []
                    h = self._block(layer, i, h, stage, cache=None, position=0)
                    calls.append(layer_log)
            finally:
                ex.call_log = saved_log
            logits = self._logits(h)
        trace = CleanTrace(
            kind="full",
            boundaries=boundaries,
            calls_by_layer=calls,
            logits=logits,
            backend=ex.backend.name,
        )
        return trace.logits, trace

    def prefill(self, token_ids: np.ndarray) -> tuple[np.ndarray, KVCache]:
        """Prefill stage: consume the prompt(s), build the KV cache, return
        the logits of the final position — ``(vocab,)`` for one sequence,
        ``(batch, vocab)`` for a batch."""
        tokens, batched = self._as_batch(token_ids)
        cache = self._empty_cache(tokens.shape[0])
        h = self._embed_tokens(tokens, position=0)
        for i, layer in enumerate(self.layers):
            h = self._block(layer, i, h, Stage.PREFILL, cache.layers[i], position=0)
        logits = self._logits(h[:, -1:, :])[:, 0, :]
        return (logits if batched else logits[0]), cache

    def decode_step(self, token_ids, cache: KVCache) -> np.ndarray:
        """Decode stage: one token per sequence in, next-token logits out.

        Accepts a scalar token (single-sequence cache) or a ``(batch,)``
        array matching the cache's batch; the return shape mirrors the
        input: ``(vocab,)`` or ``(batch, vocab)``.
        """
        tokens = np.asarray(token_ids)
        batched = tokens.ndim == 1
        if tokens.ndim == 0:
            tokens = tokens[None]
        if tokens.ndim != 1 or tokens.shape[0] != cache.batch:
            raise ValueError(
                f"decode_step got {tokens.shape[0] if tokens.ndim else 1} token(s) "
                f"for a batch-{cache.batch} cache"
            )
        position = cache.seq_len
        h = self._embed_tokens(tokens[:, None], position=position)
        for i, layer in enumerate(self.layers):
            h = self._block(layer, i, h, Stage.DECODE, cache.layers[i], position=position)
        logits = self._logits(h)[:, 0, :]
        return logits if batched else logits[0]

    def generate(self, prompt: np.ndarray, max_new_tokens: int) -> np.ndarray:
        """Greedy autoregressive generation; returns the new tokens only."""
        prompt = np.asarray(prompt)
        if prompt.ndim != 1:
            raise ValueError("generate expects a 1-D prompt; use generate_batch")
        return self.generate_batch(prompt[None, :], max_new_tokens)[0]

    def generate_batch(self, prompts: np.ndarray, max_new_tokens: int) -> np.ndarray:
        """Greedy lock-step generation for a ``(batch, prompt_len)`` stack of
        equal-length prompts; returns the ``(batch, max_new_tokens)`` new
        tokens. All sequences decode together through one shared-shape KV
        cache — one forward per step for the whole batch."""
        prompts = np.asarray(prompts)
        if prompts.ndim != 2:
            raise ValueError("generate_batch expects (batch, prompt_len) prompts")
        if prompts.shape[1] + max_new_tokens > self.config.max_seq_len:
            raise ValueError("prompt + generation exceeds max_seq_len")
        if max_new_tokens <= 0:
            return np.empty((prompts.shape[0], 0), dtype=np.int64)
        if self.replay is not None and self.executor.mode != "calibrate":
            replayed = self._replay_generate(prompts, max_new_tokens)
            if replayed is not None:
                return replayed
        logits, cache = self.prefill(prompts)
        return self._decode_loop(logits, cache, max_new_tokens)

    def _decode_loop(
        self, logits: np.ndarray, cache: KVCache, max_new_tokens: int
    ) -> np.ndarray:
        """Greedy lock-step decode shared by the full and resumed routes."""
        out = []
        tokens = np.argmax(logits, axis=-1)
        for _ in range(max_new_tokens):
            out.append(tokens)
            if len(out) == max_new_tokens:
                break
            logits = self.decode_step(tokens, cache)
            tokens = np.argmax(logits, axis=-1)
        return np.stack(out, axis=1).astype(np.int64)

    def _replay_generate(
        self, prompts: np.ndarray, max_new_tokens: int
    ) -> Optional[np.ndarray]:
        """Record-or-resume a ``generate_batch``.

        Only the *prefill* is restored from the trace — the stage the
        paper's workloads are dominated by. Decode steps recompute in full
        whenever any fault configuration is attached: a corrupted decode
        GEMM changes the greedy token stream, so downstream decode work is
        never provably clean. A fully fault-free repeat short-circuits to
        the recorded continuation.
        """
        ex = self.executor
        session = self.replay
        if self.lane_split > 1:
            base = self._lane_base(prompts)
            if base is None:
                return None
            trace = session.store.get(session.key_generate(base, max_new_tokens, ex))
            if trace is None:
                return None  # no per-lane trace: packed full route
            return self._resume_generate(trace, prompts, max_new_tokens, self.lane_split)
        key = session.key_generate(prompts, max_new_tokens, ex)
        trace = session.store.get(key)
        if trace is None:
            if ex.injector is not None or ex.protector is not None:
                return None
            tokens, trace = self._record_generate(prompts, max_new_tokens)
            session.store.put(key, trace)
            return tokens
        return self._resume_generate(trace, prompts, max_new_tokens, 1)

    def _resume_generate(
        self,
        trace: CleanTrace,
        prompts: np.ndarray,
        max_new_tokens: int,
        lanes: int,
    ) -> np.ndarray:
        """Resume a ``generate_batch`` from ``trace``, tiled across ``lanes``."""
        ex = self.executor
        n_layers = self.config.n_layers
        with _span("replay.resume", kind="generate", lanes=lanes) as sp:
            start = resume_layer(
                ex.injector, n_layers, self.config.components, Stage.PREFILL
            )
            sp.set(start=-1 if start is None else start)
            if (
                lanes == 1
                and start is None
                and ex.injector is None
                and ex.protector is None
            ):
                # Fault-free repeat: charge the recorded MACs, return the trace.
                for i in range(n_layers):
                    replay_skipped_calls(ex, trace.calls_by_layer[i])
                replay_skipped_calls(ex, trace.decode_calls)
                return trace.new_tokens
            end = n_layers if start is None else start
            for i in range(end):
                replay_skipped_calls(ex, trace.calls_by_layer[i], lanes=lanes)
            cache = self._empty_cache(prompts.shape[0])
            for i in range(end):  # layers restored from the trace, not recomputed
                k, v = trace.kv[i]
                if lanes > 1:
                    k = np.tile(k, (lanes, 1, 1, 1))
                    v = np.tile(v, (lanes, 1, 1, 1))
                cache.layers[i] = LayerKV(k=k, v=v)
            if start is None:
                logits = trace.logits if lanes == 1 else np.tile(trace.logits, (lanes, 1))
            else:
                h = trace.boundaries[start]
                if lanes > 1:
                    h = np.tile(h, (lanes, 1, 1))
                for i in range(start, n_layers):
                    h = self._block(
                        self.layers[i], i, h, Stage.PREFILL, cache.layers[i], position=0
                    )
                logits = self._logits(h[:, -1:, :])[:, 0, :]
            return self._decode_loop(logits, cache, max_new_tokens)

    def _record_generate(
        self, prompts: np.ndarray, max_new_tokens: int
    ) -> tuple[np.ndarray, CleanTrace]:
        """Run a clean prefill + decode while capturing prefill boundaries,
        the post-prefill KV segments, and both stages' GEMM call logs."""
        ex = self.executor
        saved_log = ex.call_log
        cache = self._empty_cache(prompts.shape[0])
        boundaries: list[np.ndarray] = []
        calls: list[list[GemmCallRecord]] = []
        with _span("replay.record", kind="generate"):
            try:
                h = self._embed_tokens(prompts, position=0)
                for i, layer in enumerate(self.layers):
                    boundaries.append(h)
                    ex.call_log = layer_log = []
                    h = self._block(
                        layer, i, h, Stage.PREFILL, cache.layers[i], position=0
                    )
                    calls.append(layer_log)
                logits = self._logits(h[:, -1:, :])[:, 0, :]
                # KV arrays are never mutated in place (``append`` concatenates),
                # so the post-prefill snapshot is a zero-copy set of references.
                kv = [(lkv.k, lkv.v) for lkv in cache.layers]
                ex.call_log = decode_log = []
                new_tokens = self._decode_loop(logits, cache, max_new_tokens)
            finally:
                ex.call_log = saved_log
        trace = CleanTrace(
            kind="generate",
            boundaries=boundaries,
            calls_by_layer=calls,
            logits=logits,
            kv=kv,
            new_tokens=new_tokens,
            decode_calls=decode_log,
            backend=ex.backend.name,
        )
        return trace.new_tokens, trace

    def sequence_nll(self, token_ids: np.ndarray) -> float:
        """Mean next-token negative log likelihood (perplexity = exp(nll))."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1:
            raise ValueError("sequence_nll expects one sequence; use sequence_nll_batch")
        return float(self.sequence_nll_batch(token_ids[None, :])[0])

    def sequence_nll_batch(self, token_ids: np.ndarray) -> np.ndarray:
        """Per-sequence mean next-token NLL for a ``(batch, seq)`` stack of
        equal-length sequences; returns shape ``(batch,)``."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("sequence_nll_batch expects (batch, seq) token ids")
        logits = self.forward_full(token_ids[:, :-1])
        log_probs = log_softmax_np(logits, axis=-1)
        picked = np.take_along_axis(log_probs, token_ids[:, 1:, None], axis=2)[..., 0]
        return -picked.mean(axis=1)

    def choice_logprob(self, context: np.ndarray, continuation: np.ndarray) -> float:
        """Total log-probability of ``continuation`` given ``context``
        (HellaSwag-style multiple-choice scoring)."""
        return float(
            self.choice_logprob_batch(
                np.asarray(context)[None, :], np.asarray(continuation)[None, :]
            )[0]
        )

    def choice_logprob_batch(
        self, contexts: np.ndarray, continuations: np.ndarray
    ) -> np.ndarray:
        """Per-row continuation log-probability for stacked equal-length
        ``(batch, ctx_len)`` contexts and ``(batch, cont_len)``
        continuations; returns shape ``(batch,)``."""
        contexts = np.asarray(contexts)
        continuations = np.asarray(continuations)
        if contexts.ndim != 2 or continuations.ndim != 2:
            raise ValueError("choice_logprob_batch expects 2-D stacks")
        full = np.concatenate([contexts, continuations], axis=1)
        logits = self.forward_full(full[:, :-1])
        log_probs = log_softmax_np(logits, axis=-1)
        start = contexts.shape[1] - 1
        idx = np.arange(start, full.shape[1] - 1)
        picked = np.take_along_axis(
            log_probs[:, idx, :], full[:, idx + 1, None], axis=2
        )[..., 0]
        return picked.sum(axis=1)
