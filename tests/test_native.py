"""Native C kernel and weight-prepack cache (DESIGN.md section 13).

The cross-backend *conformance* of ``native`` (bit-equality with the
oracle, overflow semantics, engine end-to-end equality) is covered by the
registry-parametrized suite in ``tests/test_backends.py`` — it is
registered at import time, so it is picked up there automatically. This
file covers what the shared suite cannot: the compile/cache/degrade
machinery and the prepack cache's keying and mutation invalidation.

Tests that need a real compiler skip cleanly on hosts without one (the
degrade-path tests are exactly the opposite: they *simulate* such
hosts and must pass everywhere).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dispatch.backends import (
    PREPACK,
    get_backend,
    resolve_backend,
)
from repro.dispatch.backends.native import (
    ENV_CC,
    ENV_DISABLE,
    ENV_LIB,
    NativeBackend,
    SOURCE_PATH,
    _find_compiler,
    compile_kernel,
)
from repro.dispatch.backends.prepack import PrepackCache

HAVE_CC = _find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")


def _oracle(a, b):
    return a.astype(np.int64) @ b.astype(np.int64)


def _fresh_native(monkeypatch, tmp_path, **env):
    """A NativeBackend forced onto the runtime-compile path with an
    isolated cache dir (no prebuilt extension, no shared state)."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv(ENV_LIB, raising=False)
    monkeypatch.delenv(ENV_DISABLE, raising=False)
    monkeypatch.delenv(ENV_CC, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(
        "repro.dispatch.backends.native._prebuilt_extension", lambda: None
    )
    return NativeBackend()


# --------------------------------------------------------------------------
# Compile / cache / load paths
# --------------------------------------------------------------------------
@needs_cc
class TestNativeCompile:
    def test_runtime_compile_and_exactness(self, monkeypatch, tmp_path, rng):
        backend = _fresh_native(monkeypatch, tmp_path)
        assert backend.available(), backend.why_unavailable()
        assert backend.kernel().startswith("c-int8")
        a = rng.integers(-128, 128, size=(7, 130), dtype=np.int8)
        b = rng.integers(-128, 128, size=(130, 33), dtype=np.int8)
        np.testing.assert_array_equal(backend.product_int64(a, b), _oracle(a, b))

    def test_compiled_library_is_cached_and_reused(self, monkeypatch, tmp_path):
        first = _fresh_native(monkeypatch, tmp_path)
        assert first.available()
        [lib] = list((tmp_path / "cache").rglob("*.so"))
        stamp = lib.stat().st_mtime_ns

        second = _fresh_native(monkeypatch, tmp_path)
        assert second.available()
        assert "cc-cache" in second.kernel()
        assert lib.stat().st_mtime_ns == stamp  # loaded, not recompiled

    def test_corrupt_cached_library_recompiles(self, monkeypatch, tmp_path):
        from repro.dispatch.backends import native as native_mod

        # Plant garbage at the digest path *before* anything dlopens it
        # (overwriting an already-mapped .so would SIGBUS the process,
        # which is exactly why the loader replaces, never rewrites).
        backend = _fresh_native(monkeypatch, tmp_path)
        digest = native_mod._source_digest(
            SOURCE_PATH.read_bytes(), _find_compiler()
        )
        lib = native_mod.build_dir() / f"gemm_int8-{digest}.so"
        lib.parent.mkdir(parents=True, exist_ok=True)
        lib.write_bytes(b"not an ELF shared object")

        assert backend.available(), backend.why_unavailable()
        assert backend._kernel.origin == "cc"  # recompiled, not cache-loaded
        assert lib.read_bytes() != b"not an ELF shared object"

    def test_explicit_lib_env_is_authoritative(self, monkeypatch, tmp_path):
        # Build a real kernel, then point $REPRO_NATIVE_GEMM_LIB at it.
        built = tmp_path / "kernel.so"
        compile_kernel(SOURCE_PATH, built, _find_compiler())
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_LIB: str(built)})
        assert backend.available()
        assert "env" in backend.kernel()

    def test_explicit_lib_env_failure_does_not_fall_through(
        self, monkeypatch, tmp_path
    ):
        missing = tmp_path / "nope.so"
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_LIB: str(missing)})
        # A compiler exists, but an explicit selection must not be
        # silently compiled around: unavailable, with the env var named.
        assert not backend.available()
        assert ENV_LIB in backend.why_unavailable()


    def test_forked_child_rebuilds_row_pool(self, monkeypatch, tmp_path, rng):
        """A fork-based campaign worker inherits the parent's row-partition
        pool object but none of its threads; the child must build its own
        pool instead of waiting forever on the inherited one."""
        import multiprocessing

        backend = _fresh_native(monkeypatch, tmp_path)
        assert backend.available(), backend.why_unavailable()
        backend._n_threads = 2  # partition rows even on a one-core host
        a = rng.integers(-128, 128, size=(256, 32), dtype=np.int8)
        b = rng.integers(-128, 128, size=(32, 16), dtype=np.int8)
        np.testing.assert_array_equal(backend.product_int64(a, b), _oracle(a, b))
        assert backend._pool is not None  # the parent's pool exists

        def child(queue):
            queue.put(bool((backend.product_int64(a, b) == _oracle(a, b)).all()))

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        proc.join(30)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        backend.close()
        assert not hung, "forked child deadlocked on the inherited pool"
        assert proc.exitcode == 0 and queue.get(timeout=5) is True


# --------------------------------------------------------------------------
# Degrade paths (simulated compiler-less hosts — run everywhere)
# --------------------------------------------------------------------------
class TestNativeDegrade:
    def test_disabled_env_reports_unavailable(self, monkeypatch, tmp_path):
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_DISABLE: "1"})
        assert not backend.available()
        assert ENV_DISABLE in backend.why_unavailable()

    def test_no_compiler_reports_unavailable(self, monkeypatch, tmp_path):
        backend = _fresh_native(monkeypatch, tmp_path)
        monkeypatch.setattr(
            "repro.dispatch.backends.native._find_compiler", lambda: None
        )
        assert not backend.available()
        assert "compiler" in backend.why_unavailable()

    def test_compile_failure_reports_unavailable(self, monkeypatch, tmp_path):
        # /bin/false accepts any argv and exits 1: a universal broken cc.
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_CC: "/bin/false"})
        if _find_compiler() != "/bin/false":  # pragma: no cover - odd host
            pytest.skip("host resolves compilers before $REPRO_NATIVE_GEMM_CC")
        assert not backend.available()
        assert "failed to build" in backend.why_unavailable()

    def test_unavailable_degrades_to_exact_default(
        self, monkeypatch, tmp_path, caplog
    ):
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_DISABLE: "1"})
        with caplog.at_level("WARNING", logger="repro.dispatch.backends"):
            resolved = resolve_backend(backend)
        assert resolved.name == "numpy-f64"
        assert any(ENV_DISABLE in r.message for r in caplog.records)

    def test_unavailable_still_computes_exactly(self, monkeypatch, tmp_path, rng):
        # Even called directly (not via resolution), a kernel-less backend
        # answers through the widening matmul — never wrongly.
        backend = _fresh_native(monkeypatch, tmp_path, **{ENV_DISABLE: "1"})
        a = rng.integers(-128, 128, size=(3, 40), dtype=np.int8)
        b = rng.integers(-128, 128, size=(40, 5), dtype=np.int8)
        np.testing.assert_array_equal(backend.product_int64(a, b), _oracle(a, b))


# --------------------------------------------------------------------------
# Weight-prepack cache
# --------------------------------------------------------------------------
class TestPrepackCache:
    def _cache_and_weight(self, rng):
        cache = PrepackCache()
        w = rng.integers(-128, 128, size=(64, 16), dtype=np.int8)
        packer = lambda b: b.astype(np.float32)  # noqa: E731 - tiny mirror
        return cache, w, packer

    def test_hit_after_first_pack(self, rng):
        cache, w, packer = self._cache_and_weight(rng)
        first = cache.packed(w, "p", packer)
        second = cache.packed(w, "p", packer)
        assert first is second
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_mutation_invalidates(self, rng):
        cache, w, packer = self._cache_and_weight(rng)
        stale = cache.packed(w, "p", packer)
        w[0, 0] = np.int8(~w[0, 0])
        fresh = cache.packed(w, "p", packer)
        assert fresh is not stale
        np.testing.assert_array_equal(fresh, w.astype(np.float32))
        assert cache.stats()["invalidations"] == 1

    def test_distinct_packers_share_one_entry(self, rng):
        cache, w, packer = self._cache_and_weight(rng)
        cache.packed(w, "f32", packer)
        cache.packed(w, "i16", lambda b: b.astype(np.int16))
        assert cache.stats()["entries"] == 1
        assert cache.stats()["misses"] == 2  # one per mirror kind

    def test_non_contiguous_bypasses(self, rng):
        cache = PrepackCache()
        w = rng.integers(-128, 128, size=(32, 32), dtype=np.int8)[:, ::2]
        assert not w.flags.c_contiguous
        first = cache.packed(w, "p", lambda b: b.astype(np.float32))
        second = cache.packed(w, "p", lambda b: b.astype(np.float32))
        assert first is not second  # never cached, always correct
        assert cache.stats()["entries"] == 0

    def test_native_weight_route_uses_shared_cache(self, rng):
        backend = get_backend("native")
        if not backend.available():
            pytest.skip(backend.why_unavailable())
        w = rng.integers(-128, 128, size=(48, 24), dtype=np.int8)
        x = rng.integers(-128, 128, size=(4, 48), dtype=np.int8)
        mirror = w.astype(np.float64)
        PREPACK.reset_stats()
        base = PREPACK.stats()["entries"]
        for _ in range(3):
            np.testing.assert_array_equal(
                backend.product_int64(x, w, b_f64=mirror), _oracle(x, w)
            )
        stats = PREPACK.stats()
        assert stats["entries"] == base + 1
        assert stats["hits"] >= 2
        # Activation-side operands (no mirror) must not earn cache entries.
        backend.product_int64(x, w)
        assert PREPACK.stats()["entries"] == base + 1

    def test_mutated_weight_recomputes_through_backend(self, rng):
        backend = get_backend("native")
        if not backend.available():
            pytest.skip(backend.why_unavailable())
        w = rng.integers(-128, 128, size=(40, 20), dtype=np.int8)
        x = rng.integers(-128, 128, size=(3, 40), dtype=np.int8)
        backend.product_int64(x, w, b_f64=w.astype(np.float64))
        w[5, 7] = np.int8(~w[5, 7])  # in-place fault injection on weights
        np.testing.assert_array_equal(
            backend.product_int64(x, w, b_f64=w.astype(np.float64)),
            _oracle(x, w),
        )
