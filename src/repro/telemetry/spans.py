"""Zero-overhead-when-disabled span tracer with Chrome-trace export.

The tracer answers "where did this campaign's wall clock go" without ever
perturbing what it measures: spans record wall time only — no RNG draws, no
array work — so every bit-exactness contract (DESIGN.md sections 5, 7, 9)
holds with tracing enabled, and when tracing is *disabled* ``span()``
returns one shared no-op singleton and the dispatch hot path never sees a
tracer at all (the executor's trace slot stays ``None``; the instrument
chain is byte-for-byte the chain that existed before telemetry did).

Spans nest lexically (``with span("pack.evaluate"): ... with
span("replay.resume"): ...``) and are recorded as Chrome-trace complete
events (``"ph": "X"``), which chrome://tracing and Perfetto nest by
interval containment. Timestamps come from ``perf_counter`` — on Linux a
boot-anchored monotonic clock shared by every process, so spans shipped
from pool workers land on the same timeline as the parent's.

Span taxonomy (see DESIGN.md section 10): ``pack.evaluate`` (campaign
layer), ``eval.run`` / ``eval.clean``
(evaluator layer), ``replay.resume`` / ``replay.record`` (replay engine),
``shm.publish`` / ``shm.attach`` (worker bring-up), ``harness.reference``
(generation-task references).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

#: Hard cap on buffered events — a runaway loop with tracing left on must
#: not eat the process; past the cap events are dropped and counted.
MAX_EVENTS = 250_000


class _NoopSpan:
    """The disabled-mode span: one shared, allocation-free singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


#: The singleton every ``span()`` call returns while tracing is disabled.
NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start_us")

    def __init__(self, tracer: "SpanTracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_us = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes after entry (e.g. a resume layer computed
        mid-span)."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.args.setdefault("parent", stack[-1])
        stack.append(self.name)
        self._start_us = time.perf_counter_ns() / 1e3
        return self

    def __exit__(self, *exc_info) -> bool:
        end_us = time.perf_counter_ns() / 1e3
        stack = self._tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._tracer._record(self.name, self._start_us, end_us - self._start_us, self.args)
        return False


class SpanTracer:
    """Collects finished spans as Chrome-trace complete events."""

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.dropped = 0

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict) -> Span:
        return Span(self, name, attrs)

    def _record(self, name: str, ts_us: float, dur_us: float, args: dict) -> None:
        with self._lock:
            if len(self._events) >= MAX_EVENTS:
                self.dropped += 1
                return
            self._events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": ts_us,
                    "dur": dur_us,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "args": args,
                }
            )

    # ------------------------------------------------------------- transport
    def events(self) -> list[dict]:
        """A snapshot of the buffered events (the buffer keeps them)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict]:
        """Remove and return every buffered event (worker -> parent ship)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def ingest(self, events: list[dict]) -> None:
        """Merge events shipped from another process (pool workers)."""
        with self._lock:
            room = MAX_EVENTS - len(self._events)
            self._events.extend(events[:room])
            self.dropped += max(0, len(events) - room)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# ------------------------------------------------------------- module state
_TRACER: Optional[SpanTracer] = None


def enabled() -> bool:
    return _TRACER is not None


def tracer() -> Optional[SpanTracer]:
    return _TRACER


def enable() -> SpanTracer:
    """Turn span tracing on (idempotent); returns the process tracer.

    Also exports ``REPRO_TELEMETRY=1`` so spawned worker processes come up
    traced too (forked workers inherit the live tracer directly).
    """
    global _TRACER
    if _TRACER is None:
        _TRACER = SpanTracer()
    os.environ["REPRO_TELEMETRY"] = "1"
    return _TRACER


def disable() -> None:
    """Turn span tracing off and drop the buffered events."""
    global _TRACER
    _TRACER = None
    os.environ.pop("REPRO_TELEMETRY", None)


def span(name: str, **attrs):
    """A context-manager span; the shared no-op singleton when disabled.

    The disabled path allocates nothing that survives the call and never
    touches the tracer — the zero-overhead contract benchmarked in
    ``benchmarks/bench_trial_lanes.py``.
    """
    t = _TRACER
    if t is None:
        return NOOP_SPAN
    return t.span(name, attrs)


def export_trace(path: Optional[str | Path] = None, extra: Optional[dict] = None) -> dict:
    """Render the buffered spans as a Chrome-trace JSON object.

    The payload loads directly into chrome://tracing and Perfetto. ``extra``
    (e.g. per-site GEMM wall/cycle tables, a metrics snapshot) rides along
    under ``"repro"`` — both viewers ignore unknown top-level keys.
    """
    t = _TRACER
    payload: dict = {
        "traceEvents": t.events() if t is not None else [],
        "displayTimeUnit": "ms",
    }
    if t is not None and t.dropped:
        payload["droppedEvents"] = t.dropped
    if extra:
        payload["repro"] = extra
    if path is not None:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload
