"""Weight-prepack cache: backend-specific B mirrors packed once per buffer.

Weight GEMMs reuse the same quantized weight buffer for every call of a
campaign, so a backend that prefers its own B layout (the ``native``
backend's packed column panels) should derive it once per buffer, not
per call. :class:`PrepackCache` memoizes those derived mirrors exactly
like the float64 mirror the engine already caches on
:class:`~repro.models.quantized.QuantizedWeight` (DESIGN.md section 13):
one entry per live weight buffer, keyed by object identity, dropped when
the array is garbage-collected, and **invalidated on mutation** — every
lookup re-checks a content fingerprint (full CRC up to 1 MiB, sampled
beyond) and repacks when the buffer changed underneath it.

The cache is registry-level infrastructure shared by every backend; a
backend opts in by calling :meth:`PREPACK.packed` with its own packer
(keyed by name, so several backends can cache different mirrors of the
same buffer). Hit/miss/invalidation counters feed the
``prepack_hit_rate`` metric in ``BENCH_lanes.json``.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from typing import Any, Callable

import numpy as np

#: Buffers up to this many bytes get a *full* CRC per lookup — exact
#: mutation detection, a few microseconds against the GEMM each pack
#: serves. Every weight in the repo's model zoo fits far under this.
_FULL_CRC_MAX = 1 << 20

#: Above ``_FULL_CRC_MAX`` the fingerprint samples the buffer's head,
#: middle, and tail instead (constant cost). That still catches resizes,
#: retypes, buffer swaps, and gross rewrites, but a surgical in-place
#: edit between the sampled windows of a >1 MiB buffer can evade it —
#: the engine never mutates weight codes in place (``QuantizedWeight``
#: materializes its float64 mirror once, on the same assumption), so
#: this is a belt-and-suspenders bound, not a load-bearing one.
_SAMPLE = 64


def _fingerprint(arr: np.ndarray) -> tuple:
    """Content token: identity of the buffer + CRC (full when small)."""
    data = arr.view(np.uint8).reshape(-1)
    n = data.size
    if n <= _FULL_CRC_MAX:
        sample = data.tobytes()
    else:
        mid = n // 2
        sample = (
            data[:_SAMPLE].tobytes()
            + data[mid : mid + _SAMPLE].tobytes()
            + data[n - _SAMPLE :].tobytes()
        )
    ptr = arr.__array_interface__["data"][0]
    return (ptr, arr.shape, arr.dtype.str, zlib.crc32(sample))


class PrepackCache:
    """Identity-keyed cache of backend-derived B mirrors.

    Entries hold a weakref to the source array so garbage collection
    (plus Python's id reuse) can never alias a dead buffer onto a live
    one, and a content fingerprint re-verified on every hit so in-place
    mutation repacks instead of silently serving stale panels.
    """

    def __init__(self) -> None:
        self._entries: dict[int, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def packed(
        self,
        b_q: np.ndarray,
        packer: str,
        pack: Callable[[np.ndarray], Any],
    ) -> Any:
        """The cached ``pack(b_q)`` for this buffer, repacking on mutation.

        Non-contiguous arrays are packed fresh every call (their byte
        sampling would be quadratic to do safely); the engine's weight
        buffers are always C-contiguous.
        """
        if not b_q.flags.c_contiguous:
            self.misses += 1
            return pack(b_q)
        key = id(b_q)
        fp = _fingerprint(b_q)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry["fp"] == fp:
                    mirror = entry["mirrors"].get(packer)
                    if mirror is not None:
                        self.hits += 1
                        return mirror
                else:
                    # The buffer mutated underneath us: drop every mirror.
                    entry["fp"] = fp
                    entry["mirrors"] = {}
                    self.invalidations += 1
        self.misses += 1
        mirror = pack(b_q)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry["ref"]() is not b_q:
                try:
                    ref = weakref.ref(b_q, lambda _, k=key: self._drop(k))
                except TypeError:  # pragma: no cover - ndarray subclasses
                    return mirror
                entry = {"ref": ref, "fp": fp, "mirrors": {}}
                self._entries[key] = entry
            if entry["fp"] == fp:
                entry["mirrors"][packer] = mirror
        return mirror

    def _drop(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def invalidate(self, b_q: np.ndarray) -> None:
        """Explicitly drop every cached mirror of ``b_q``."""
        self._drop(id(b_q))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.invalidations = 0

    def stats(self) -> dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


#: The process-wide cache every backend shares.
PREPACK = PrepackCache()

