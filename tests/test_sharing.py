"""Shared-memory pack lifecycle tests (attach/detach/unlink failure paths).

`repro.models.sharing` publishes calibrated engines + clean traces into
``multiprocessing.shared_memory`` for campaign workers. The happy path is
covered by ``tests/test_replay.py``; this file covers the lifecycle edges:
unlink-on-close, double close, attach after unlink, attach failure falling
back to a worker-local rebuild, pool-creation failure unlinking freshly
published packs, and a worker dying while attached.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.characterization.evaluator import _bundle_fingerprint, quantized_model_for
from repro.models import sharing
from repro.models.sharing import attach_model, publish_bundle


def _publish(opt_bundle):
    fingerprint = _bundle_fingerprint(opt_bundle)
    return publish_bundle(fingerprint, quantized_model_for(opt_bundle))


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestPackLifecycle:
    def test_close_unlinks_and_is_idempotent(self, opt_bundle):
        pack = _publish(opt_bundle)
        name = pack.manifest["shm_name"]
        assert _segment_exists(name)
        pack.close()
        assert not _segment_exists(name)
        pack.close()  # second close is a no-op, not an error

    def test_attach_after_unlink_raises(self, opt_bundle):
        pack = _publish(opt_bundle)
        pack.close()
        with pytest.raises(FileNotFoundError):
            attach_model(pack.manifest)

    def test_attach_keeps_segment_alive_for_process(self, opt_bundle):
        """Attached segments are pinned in ``_ATTACHED``: dropping the model
        must not invalidate other views into the same mapping."""
        pack = _publish(opt_bundle)
        try:
            before = len(sharing._ATTACHED)
            model = attach_model(pack.manifest)
            assert len(sharing._ATTACHED) == before + 1
            assert sharing._ATTACHED[-1].name == pack.manifest["shm_name"]
            del model  # views may be garbage collected; the mapping survives
            assert sharing._ATTACHED[-1].name == pack.manifest["shm_name"]
        finally:
            pack.close()


class TestWorkerFailurePaths:
    def test_worker_init_attach_failure_falls_back(self):
        """A worker whose attach fails must rebuild, not crash the pool."""
        from repro.campaigns.executor import _worker_init

        bogus = {"shm_name": "repro-does-not-exist", "fingerprint": "x"}
        _worker_init([bogus])  # logs a warning; must not raise

    def test_pool_creation_failure_unlinks_published_packs(
        self, tmp_path, opt_bundle, monkeypatch
    ):
        """If the pool cannot start after packs were published, the parent
        must unlink them — otherwise they outlive the process in /dev/shm."""
        from repro.campaigns import executor
        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
        from repro.campaigns.store import ResultStore

        published: list[str] = []
        real_build = executor._build_shared_packs

        def capturing_build(needed):
            packs = real_build(needed)
            if packs:
                published.extend(p.manifest["shm_name"] for p in packs)
            return packs

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("no pool for you")

        monkeypatch.setattr(executor, "_build_shared_packs", capturing_build)
        monkeypatch.setattr(executor, "_PoolRunner", ExplodingPool)
        spec = CampaignSpec(
            name="pool-fail",
            models=(opt_bundle.name,),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
        )
        with ResultStore(str(tmp_path / "store")) as store:
            with pytest.raises(RuntimeError, match="no pool"):
                executor.run_campaign(spec, store, workers=2)
        assert published, "shared packs should have been published"
        for name in published:
            assert not _segment_exists(name), f"leaked segment {name}"

    def test_worker_crash_while_attached_does_not_block_unlink(self, opt_bundle):
        """A worker that dies hard while attached must not stop the parent
        from unlinking, and the segment must actually disappear."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to simulate an abrupt worker death")
        ctx = multiprocessing.get_context("fork")
        pack = _publish(opt_bundle)

        def crash(manifest):
            from repro.models.sharing import attach_bundle

            attach_bundle(manifest)
            os._exit(1)  # simulate a hard crash: no cleanup, no atexit

        proc = ctx.Process(target=crash, args=(pack.manifest,))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 1
        name = pack.manifest["shm_name"]
        pack.close()
        assert not _segment_exists(name)


class TestAttachedEngineIsolation:
    def test_attached_engine_weights_are_read_only(self, opt_bundle):
        pack = _publish(opt_bundle)
        try:
            model = attach_model(pack.manifest)
            with pytest.raises((ValueError, RuntimeError)):
                model.embed[0, 0] = 1.0
            with pytest.raises((ValueError, RuntimeError)):
                model.layers[0]["wq"].q[0, 0] = 1
            tokens = np.arange(8) % model.config.vocab_size
            np.testing.assert_array_equal(
                quantized_model_for(opt_bundle).forward_full(tokens),
                model.forward_full(tokens),
            )
        finally:
            pack.close()


class TestBackendProvenance:
    def test_manifest_carries_and_restores_backend(self, opt_bundle):
        from repro.dispatch.backends import get_backend, use_backend

        model = quantized_model_for(opt_bundle)
        # test-mirror: the exact test-only backend registered by conftest.py
        with use_backend(model.executor, "test-mirror"):
            pack = _publish(opt_bundle)
        try:
            assert pack.manifest["backend"] == "test-mirror"
            attached = attach_model(pack.manifest)
            assert attached.executor.backend.name == "test-mirror"
        finally:
            pack.close()

    def test_unknown_backend_in_manifest_degrades_with_warning(
        self, opt_bundle, caplog
    ):
        """A worker lacking the parent's backend must fall back to the exact
        default with a WARNING — slower answers, never wrong ones."""
        pack = _publish(opt_bundle)
        try:
            manifest = dict(pack.manifest)
            manifest["backend"] = "numba-only-elsewhere"
            with caplog.at_level("WARNING", logger="repro.dispatch.backends"):
                attached = attach_model(manifest)
            assert attached.executor.backend.name == "numpy-f64"
            assert any(
                "numba-only-elsewhere" in r.message for r in caplog.records
            )
            tokens = np.arange(8) % attached.config.vocab_size
            np.testing.assert_array_equal(
                quantized_model_for(opt_bundle).forward_full(tokens),
                attached.forward_full(tokens),
            )
        finally:
            pack.close()

    def test_attached_traces_keep_backend_provenance(self, opt_bundle):
        """Shared-memory worker path: attached trace metas round-trip the
        recording backend's name."""
        from repro.characterization.evaluator import ModelEvaluator
        from repro.models.replay import TRACES
        from repro.models.sharing import attach_traces

        fingerprint = _bundle_fingerprint(opt_bundle)
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        evaluator.clean_score  # record traces under the global store
        traces = {k: t for k, t in TRACES.items() if k.startswith(fingerprint)}
        assert traces, "clean scoring should have recorded traces"
        pack = publish_bundle(fingerprint, evaluator.model, traces)
        try:
            rebuilt = attach_traces(pack.manifest)
            assert rebuilt.keys() == traces.keys()
            for key, trace in rebuilt.items():
                assert trace.backend == traces[key].backend
        finally:
            pack.close()
