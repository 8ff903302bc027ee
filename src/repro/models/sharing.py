"""Zero-copy sharing of quantized engines and clean traces across workers.

A campaign pool worker used to re-materialize everything per process: load
the bundle, quantize the weights, run calibration forwards, and score one
clean pass per (model, task) cell. All of that state is immutable during a
campaign, so the parent now publishes it once into
``multiprocessing.shared_memory`` and workers *attach*:

- :func:`publish_bundle` packs a calibrated :class:`QuantizedTransformerLM`
  (int8 codes, the float64 BLAS mirror, per-channel scales, norm/embed/head
  weights, calibrated activation scales) plus every recorded
  :class:`~repro.models.replay.CleanTrace` of that model into one shared
  segment, returning a picklable manifest;
- :func:`attach_bundle` (called from the pool initializer) maps the segment
  and rebuilds the engine and traces as **read-only views** — no weight
  copies, no calibration forwards, no clean re-scoring — then registers
  them with the evaluator cache and the process trace store.

The arrays are marked non-writeable so a worker cannot corrupt its
siblings; anything mutable (injector, protector, MAC counters, KV caches)
stays per-process. See DESIGN.md section 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dispatch.backends import resolve_backend
from repro.errors.sites import Component, GemmSite, Stage
from repro.models.config import ModelConfig
from repro.models.quantized import QuantizedTransformerLM, QuantizedWeight
from repro.models.replay import TRACES, CleanTrace, GemmCall
from repro.quant.quantizer import QuantParams
from repro.telemetry.spans import span as _span
from repro.utils.logging import get_logger

logger = get_logger("sharing")

_ALIGN = 16

#: Keep attached segments alive for the lifetime of the worker process —
#: dropping the SharedMemory object would invalidate every view into it.
_ATTACHED: list = []


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------- array packing
def _collect_model_arrays(model: QuantizedTransformerLM) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        "embed": model.embed,
        "lm_head": model.lm_head,
        "final_norm_w": model.final_norm_w,
    }
    if model.pos_embed is not None:
        arrays["pos_embed"] = model.pos_embed
    if model.final_norm_b is not None:
        arrays["final_norm_b"] = model.final_norm_b
    for i, layer in enumerate(model.layers):
        for name, value in layer.items():
            if isinstance(value, QuantizedWeight):
                arrays[f"L{i}/{name}.q"] = value.q
                arrays[f"L{i}/{name}.qf"] = value.q_f64
                arrays[f"L{i}/{name}.scale"] = np.asarray(value.params.scale)
            else:
                arrays[f"L{i}/{name}"] = np.asarray(value)
    return arrays


def _collect_trace_arrays(
    traces: dict[str, CleanTrace]
) -> tuple[dict[str, np.ndarray], list[dict]]:
    arrays: dict[str, np.ndarray] = {}
    metas: list[dict] = []
    for t, (key, trace) in enumerate(sorted(traces.items())):
        prefix = f"T{t}"
        for i, boundary in enumerate(trace.boundaries):
            arrays[f"{prefix}/b{i}"] = boundary
        arrays[f"{prefix}/logits"] = trace.logits
        if trace.kv is not None:
            for i, (k, v) in enumerate(trace.kv):
                arrays[f"{prefix}/kv{i}/k"] = k
                arrays[f"{prefix}/kv{i}/v"] = v
        if trace.new_tokens is not None:
            arrays[f"{prefix}/tokens"] = trace.new_tokens
        metas.append(
            {
                "key": key,
                "prefix": prefix,
                "kind": trace.kind,
                "n_layers": len(trace.boundaries),
                "has_kv": trace.kv is not None,
                "has_tokens": trace.new_tokens is not None,
                "calls": [
                    [_call_meta(c) for c in layer_calls]
                    for layer_calls in trace.calls_by_layer
                ],
                "decode_calls": [_call_meta(c) for c in trace.decode_calls]
                if trace.decode_calls is not None
                else None,
                "backend": trace.backend,
            }
        )
    return arrays, metas


def _call_meta(call: GemmCall) -> list:
    return [
        call.site.layer,
        call.site.component.value,
        call.site.stage.value,
        call.macs,
        list(call.shape),
    ]


def _call_from_meta(meta: list) -> GemmCall:
    layer, component, stage, macs, shape = meta
    return GemmCall(
        site=GemmSite(layer=layer, component=Component(component), stage=Stage(stage)),
        macs=macs,
        shape=tuple(shape),
    )


def _pack_arrays(arrays: dict[str, np.ndarray]):
    """Copy ``arrays`` into one shared segment; returns (shm, descriptors)."""
    from multiprocessing import shared_memory

    descriptors: dict[str, dict] = {}
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        arrays[key] = arr
        if arr.size == 0:
            descriptors[key] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": -1}
            continue
        offset = _align(offset)
        descriptors[key] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for key, arr in arrays.items():
        desc = descriptors[key]
        if desc["offset"] < 0:
            continue
        view = np.frombuffer(
            shm.buf, dtype=arr.dtype, count=arr.size, offset=desc["offset"]
        )
        view[:] = arr.ravel()
    return shm, descriptors


def _attach_array(shm, desc: dict) -> np.ndarray:
    dtype = np.dtype(desc["dtype"])
    shape = tuple(desc["shape"])
    if desc["offset"] < 0:
        arr = np.zeros(shape, dtype=dtype)
    else:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(
            shm.buf, dtype=dtype, count=count, offset=desc["offset"]
        ).reshape(shape)
    arr.flags.writeable = False
    return arr


# --------------------------------------------------------------- parent side
@dataclass
class BundlePack:
    """A published (engine + traces) segment and its picklable manifest."""

    manifest: dict
    shm: object

    def close(self) -> None:
        """Release and unlink the segment (parent-side, after the pool)."""
        try:
            self.shm.close()
            self.shm.unlink()
        except Exception:  # pragma: no cover - already gone
            pass


def publish_bundle(
    fingerprint: str,
    model: QuantizedTransformerLM,
    traces: Optional[dict[str, CleanTrace]] = None,
) -> BundlePack:
    """Publish a calibrated engine (and its clean traces) for worker attach."""
    with _span("shm.publish", fingerprint=fingerprint[:12]) as sp:
        arrays = _collect_model_arrays(model)
        trace_metas: list[dict] = []
        if traces:
            trace_arrays, trace_metas = _collect_trace_arrays(traces)
            arrays.update(trace_arrays)
        shm, descriptors = _pack_arrays(arrays)
        sp.set(nbytes=shm.size, arrays=len(descriptors), traces=len(trace_metas))
        manifest = {
            "fingerprint": fingerprint,
            "shm_name": shm.name,
            "config": dataclasses.asdict(model.config),
            "mode": model.executor.mode,
            "wraparound": model.executor.wraparound,
            "backend": model.executor.backend.name,
            "scale_store": dict(model.executor.scale_store),
            "arrays": descriptors,
            "traces": trace_metas,
        }
        return BundlePack(manifest=manifest, shm=shm)


# --------------------------------------------------------------- worker side
def _open_segment(name: str):
    from multiprocessing import shared_memory

    # Attach without resource tracking: only the creating parent owns the
    # segment's lifetime; an attacher's tracker must never unlink it out
    # from under the other workers (nor, under fork, poison the shared
    # tracker's registry with duplicate entries). 3.13+ supports this
    # directly via ``track=False``; on 3.10-3.12 the POSIX attach path
    # registers unconditionally (bpo-38119), so suppress the registration
    # for the duration of the attach — a process-local patch, invisible to
    # the tracker and to other segments.
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - interpreter-version dependent
        from multiprocessing import resource_tracker

        saved_register = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = saved_register
    _ATTACHED.append(shm)
    return shm


def attach_model(manifest: dict, shm=None) -> QuantizedTransformerLM:
    """Rebuild the engine from a manifest as zero-copy read-only views."""
    if shm is None:
        shm = _open_segment(manifest["shm_name"])
    get = lambda key: _attach_array(shm, manifest["arrays"][key])  # noqa: E731
    config = ModelConfig(**manifest["config"])
    model = object.__new__(QuantizedTransformerLM)
    # Runtime state comes from the same initializer __init__ uses, so an
    # attribute added there can never be silently absent on a worker.
    model._init_runtime(config)
    model.executor.wraparound = manifest["wraparound"]
    model.executor.mode = manifest["mode"]
    # Backend provenance travels with the published engine; resolve_backend
    # degrades to the exact default with a WARNING when the worker lacks the
    # parent's backend (mixed-availability pools must never compute wrong).
    model.executor.backend = resolve_backend(manifest.get("backend"))
    model.executor.scale_store = dict(manifest["scale_store"])
    model.embed = get("embed")
    model.pos_embed = get("pos_embed") if "pos_embed" in manifest["arrays"] else None
    model.lm_head = get("lm_head")
    model.final_norm_w = get("final_norm_w")
    model.final_norm_b = (
        get("final_norm_b") if "final_norm_b" in manifest["arrays"] else None
    )
    layers: list[dict[str, object]] = [{} for _ in range(config.n_layers)]
    for key in manifest["arrays"]:
        if not key.startswith("L"):
            continue
        layer_tag, name = key.split("/", 1)
        idx = int(layer_tag[1:])
        if name.endswith(".q"):
            base = name[:-2]
            layers[idx][base] = QuantizedWeight.from_parts(
                q=get(f"{layer_tag}/{base}.q"),
                params=QuantParams(scale=get(f"{layer_tag}/{base}.scale")),
                q_f64=get(f"{layer_tag}/{base}.qf"),
            )
        elif name.endswith(".qf") or name.endswith(".scale"):
            continue  # consumed alongside ".q"
        else:
            layers[idx][name] = get(key)
    model.layers = layers
    return model


def attach_traces(manifest: dict, shm=None) -> dict[str, CleanTrace]:
    """Rebuild the manifest's clean traces as zero-copy read-only views."""
    if shm is None:
        shm = _open_segment(manifest["shm_name"])
    get = lambda key: _attach_array(shm, manifest["arrays"][key])  # noqa: E731
    traces: dict[str, CleanTrace] = {}
    for meta in manifest["traces"]:
        prefix = meta["prefix"]
        kv = None
        if meta["has_kv"]:
            kv = [
                (get(f"{prefix}/kv{i}/k"), get(f"{prefix}/kv{i}/v"))
                for i in range(meta["n_layers"])
            ]
        traces[meta["key"]] = CleanTrace(
            kind=meta["kind"],
            boundaries=[get(f"{prefix}/b{i}") for i in range(meta["n_layers"])],
            calls_by_layer=[
                [_call_from_meta(c) for c in layer_calls]
                for layer_calls in meta["calls"]
            ],
            logits=get(f"{prefix}/logits"),
            kv=kv,
            new_tokens=get(f"{prefix}/tokens") if meta["has_tokens"] else None,
            decode_calls=[_call_from_meta(c) for c in meta["decode_calls"]]
            if meta["decode_calls"] is not None
            else None,
            backend=meta.get("backend", "numpy-f64"),
        )
    return traces


def attach_bundle(manifest: dict) -> QuantizedTransformerLM:
    """Worker-side entry point: attach the segment, register the engine in
    the evaluator cache and the traces in the process trace store."""
    from repro.campaigns import chaos
    from repro.characterization.evaluator import register_quantized_model

    # Chaos fault point: an injected attach failure exercises the same
    # degrade path as a real /dev/shm problem (worker rebuilds its own).
    chaos.maybe_fail_shm_attach()
    with _span("shm.attach", fingerprint=manifest["fingerprint"][:12]):
        shm = _open_segment(manifest["shm_name"])
        model = attach_model(manifest, shm)
        register_quantized_model(manifest["fingerprint"], model)
        for key, trace in attach_traces(manifest, shm).items():
            TRACES.put(key, trace)
        return model
