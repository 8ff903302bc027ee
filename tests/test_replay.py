"""Clean-trace replay engine equivalence tests.

The contract (DESIGN.md section 7): a resumed forward is indistinguishable
from a full one — **exact** logit/NLL/token equality (``assert_array_equal``
/ ``==``, never ``allclose``), identical injector RNG streams and
statistics, identical protector statistics — for prefill and decode, single
and batched inputs, with and without ABFT protectors attached. Shared-memory
packs must rebuild engines and traces bit-identically as zero-copy views.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import assert_matches_oracle, full_route_score, oracle_result
from repro.abft.protectors import ClassicalABFT
from repro.characterization.evaluator import (
    ModelEvaluator,
    _bundle_fingerprint,
    quantized_model_for,
)
from repro.errors.injector import ErrorInjector
from repro.errors.models import BitFlipModel
from repro.errors.sites import Component, SiteFilter, Stage
from repro.models.replay import CleanTrace, ReplaySession, TraceStore
from repro.models.sharing import attach_model, attach_traces, publish_bundle


@pytest.fixture()
def session():
    """A private trace store so tests never see each other's traces."""
    return ReplaySession("test-model", store=TraceStore())


def _tokens(model, n=3, length=20, stride=3):
    vocab = model.config.vocab_size
    return np.stack([(np.arange(length) * (1 + i * stride)) % vocab for i in range(n)])


FILTERS = [
    SiteFilter.only(layers=[1]),
    SiteFilter.only(layers=[0]),
    SiteFilter.only(components=[Component.O]),
    SiteFilter.only(stages=[Stage.DECODE]),
    SiteFilter.everywhere(),
]


class TestSiteFilterReasoning:
    def test_earliest_layer_basics(self):
        assert SiteFilter.everywhere().earliest_layer(4) == 0
        assert SiteFilter.only(layers=[2, 3]).earliest_layer(4) == 2
        assert SiteFilter.only(layers=[7]).earliest_layer(4) is None

    def test_stage_and_component_pruning(self):
        decode_only = SiteFilter.only(stages=[Stage.DECODE])
        assert decode_only.earliest_layer(4, stage=Stage.PREFILL) is None
        assert decode_only.earliest_layer(4, stage=Stage.DECODE) == 0
        mlp = SiteFilter.only(components=[Component.GATE])
        opt_components = (Component.Q, Component.O, Component.FC1)
        assert mlp.earliest_layer(4, components=opt_components) is None
        assert mlp.earliest_layer(4) == 0

    def test_targets(self):
        assert SiteFilter.only(layers=[1]).targets(4)
        assert not SiteFilter.only(layers=[9]).targets(4)
        assert SiteFilter.everywhere().targets_stage(Stage.DECODE)
        assert not SiteFilter.only(stages=[Stage.PREFILL]).targets_stage(Stage.DECODE)

    def test_earliest_layer_memoization_never_changes_answer(self):
        """The memoized hot path must agree with the uncached computation
        for every (n_layers, components, stage) argument combination —
        including ``None`` answers, which the cache must also store."""
        opt_components = (Component.Q, Component.K, Component.O, Component.FC1)
        filters = [
            SiteFilter.everywhere(),
            SiteFilter.only(layers=[2, 5]),
            SiteFilter.only(layers=[9]),
            SiteFilter.only(components=[Component.O]),
            SiteFilter.only(components=[Component.GATE]),
            SiteFilter.only(stages=[Stage.DECODE]),
            SiteFilter.only(layers=[1], components=[Component.K], stages=[Stage.PREFILL]),
        ]
        cases = [
            (n_layers, components, stage)
            for n_layers in (2, 4, 8)
            for components in (None, opt_components)
            for stage in (None, Stage.PREFILL, Stage.DECODE)
        ]
        for flt in filters:
            for n_layers, components, stage in cases:
                uncached = flt._earliest_layer(n_layers, components, stage)
                for _ in range(3):  # first call fills the cache, rest hit it
                    assert (
                        flt.earliest_layer(n_layers, components=components, stage=stage)
                        == uncached
                    )
            assert flt._earliest_cache  # the hot path actually memoizes


def _tiny_trace(n_floats: int) -> CleanTrace:
    return CleanTrace(
        kind="full",
        boundaries=[np.zeros(n_floats)],
        calls_by_layer=[[]],
        logits=np.zeros(1),
    )


class TestTraceStoreEviction:
    """The store is a byte-capped LRU: long sweeps must not grow unbounded."""

    def test_lru_eviction_and_recency(self):
        one = _tiny_trace(128).nbytes  # all traces same size
        store = TraceStore(max_bytes=3 * one)
        for key in ("a", "b", "c"):
            store.put(key, _tiny_trace(128))
        assert store.get("a") is not None  # refresh "a": now "b" is LRU
        store.put("d", _tiny_trace(128))
        assert store.get("b") is None
        assert store.get("a") is not None and store.get("d") is not None
        assert len(store) == 3 and store.nbytes == 3 * one

    def test_oversized_trace_is_kept(self):
        store = TraceStore(max_bytes=16)
        store.put("big", _tiny_trace(4096))
        assert store.get("big") is not None  # never evict the sole trace
        store.put("next", _tiny_trace(4096))
        assert store.get("big") is None and store.get("next") is not None

    def test_replace_and_clear_track_bytes(self):
        store = TraceStore(max_bytes=1 << 20)
        store.put("k", _tiny_trace(128))
        store.put("k", _tiny_trace(256))
        assert store.nbytes == _tiny_trace(256).nbytes and len(store) == 1
        store.clear()
        assert store.nbytes == 0 and len(store) == 0


@pytest.mark.parametrize("model_fixture", ["opt_quant", "llama_quant"])
class TestExactForwardEquivalence:
    """Resumed forward_full == full forward_full, bit for bit."""

    @pytest.mark.parametrize("protect", [False, True])
    def test_forward_full_under_injection(self, model_fixture, protect, request, session):
        model = request.getfixturevalue(model_fixture)
        tokens = _tokens(model)
        with model.replay_into(session):
            clean = model.forward_full(tokens)
        np.testing.assert_array_equal(clean, model.forward_full(tokens))
        for flt in FILTERS:
            injectors, protectors, outputs = [], [], []
            for use_replay in (False, True):
                injector = ErrorInjector(BitFlipModel(2e-3), flt, seed=7)
                protector = ClassicalABFT() if protect else None
                model.attach(injector, protector)
                try:
                    with model.replay_into(session if use_replay else None):
                        outputs.append(model.forward_full(tokens))
                finally:
                    model.attach(None, None)
                injectors.append(injector)
                protectors.append(protector)
            np.testing.assert_array_equal(outputs[0], outputs[1])
            full, resumed = injectors
            assert full.stats.gemm_calls == resumed.stats.gemm_calls
            assert full.stats.targeted_calls == resumed.stats.targeted_calls
            assert full.stats.injected_errors == resumed.stats.injected_errors
            assert full.stats.per_site_errors == resumed.stats.per_site_errors
            if protect:
                assert protectors[0].stats.inspected == protectors[1].stats.inspected
                assert protectors[0].stats.recovered == protectors[1].stats.recovered
                assert (
                    protectors[0].stats.recovered_macs
                    == protectors[1].stats.recovered_macs
                )

    def test_single_sequence_input(self, model_fixture, request, session):
        model = request.getfixturevalue(model_fixture)
        seq = _tokens(model, n=1)[0]
        with model.replay_into(session):
            clean = model.forward_full(seq)
        injector = ErrorInjector(BitFlipModel(2e-3), SiteFilter.only(layers=[1]), seed=3)
        model.attach(injector, None)
        try:
            full = model.forward_full(seq)
        finally:
            model.attach(None, None)
        model.attach(ErrorInjector(BitFlipModel(2e-3), SiteFilter.only(layers=[1]), seed=3), None)
        try:
            with model.replay_into(session):
                resumed = model.forward_full(seq)
        finally:
            model.attach(None, None)
        assert clean.shape == full.shape == resumed.shape
        np.testing.assert_array_equal(full, resumed)

    def test_nll_exact_equality(self, model_fixture, request, session):
        model = request.getfixturevalue(model_fixture)
        tokens = _tokens(model)
        with model.replay_into(session):
            clean_nll = model.sequence_nll_batch(tokens)
        for flt in FILTERS:
            nlls = []
            for use_replay in (False, True):
                model.attach(ErrorInjector(BitFlipModel(1e-3), flt, seed=5), None)
                try:
                    with model.replay_into(session if use_replay else None):
                        nlls.append(model.sequence_nll_batch(tokens))
                finally:
                    model.attach(None, None)
            np.testing.assert_array_equal(nlls[0], nlls[1])
        with model.replay_into(session):
            np.testing.assert_array_equal(clean_nll, model.sequence_nll_batch(tokens))

    @pytest.mark.parametrize("protect", [False, True])
    def test_generation_under_injection(self, model_fixture, protect, request, session):
        """Prefill resume + full decode: exact token equality."""
        model = request.getfixturevalue(model_fixture)
        prompts = _tokens(model, n=2, length=12)
        with model.replay_into(session):
            clean = model.generate_batch(prompts, 6)
        np.testing.assert_array_equal(clean, model.generate_batch(prompts, 6))
        for flt in FILTERS:
            outs, injectors = [], []
            for use_replay in (False, True):
                injector = ErrorInjector(BitFlipModel(2e-3), flt, seed=11)
                model.attach(injector, ClassicalABFT() if protect else None)
                try:
                    with model.replay_into(session if use_replay else None):
                        outs.append(model.generate_batch(prompts, 6))
                finally:
                    model.attach(None, None)
                injectors.append(injector)
            np.testing.assert_array_equal(outs[0], outs[1])
            assert injectors[0].stats.gemm_calls == injectors[1].stats.gemm_calls
            assert (
                injectors[0].stats.per_site_errors == injectors[1].stats.per_site_errors
            )


class TestAccountingParity:
    def test_mac_counters_match_full_forward(self, opt_quant, session):
        tokens = _tokens(opt_quant)
        with opt_quant.replay_into(session):
            opt_quant.forward_full(tokens)  # record
        injector_filter = SiteFilter.only(layers=[1])
        opt_quant.executor.reset_counters()
        opt_quant.attach(ErrorInjector(BitFlipModel(0.0), injector_filter), None)
        try:
            opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        full_macs = opt_quant.executor.total_macs
        full_by_component = dict(opt_quant.executor.macs_by_component)
        opt_quant.executor.reset_counters()
        opt_quant.attach(ErrorInjector(BitFlipModel(0.0), injector_filter), None)
        try:
            with opt_quant.replay_into(session):
                opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        assert opt_quant.executor.total_macs == full_macs
        assert dict(opt_quant.executor.macs_by_component) == full_by_component

    def test_decode_only_filter_skips_whole_scoring_forward(self, opt_quant, session):
        """A decode-only filter leaves a forward_full fully clean: replay
        returns the recorded logits and registers every call untargeted."""
        tokens = _tokens(opt_quant)
        with opt_quant.replay_into(session):
            clean = opt_quant.forward_full(tokens)
        injector = ErrorInjector(
            BitFlipModel(0.5), SiteFilter.only(stages=[Stage.DECODE]), seed=0
        )
        opt_quant.attach(injector, None)
        try:
            with opt_quant.replay_into(session):
                out = opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        np.testing.assert_array_equal(out, clean)
        cfg = opt_quant.config
        assert injector.stats.gemm_calls == cfg.n_layers * len(cfg.components)
        assert injector.stats.injected_errors == 0


class TestInjectorFastPath:
    def test_memoized_targets_consistent_with_filter(self):
        from repro.errors.sites import GemmSite

        injector = ErrorInjector(BitFlipModel(0.0), SiteFilter.only(layers=[1]))
        site_hit = GemmSite(layer=1, component=Component.Q, stage=Stage.PREFILL)
        site_miss = GemmSite(layer=0, component=Component.Q, stage=Stage.PREFILL)
        for _ in range(3):  # memoized answers stay correct
            assert injector.targets(site_hit)
            assert not injector.targets(site_miss)
        injector.enabled = False
        assert not injector.targets(site_hit)
        injector.enabled = True
        assert injector.targets(site_hit)

    def test_untargeted_corrupt_advances_stream_identically(self):
        from repro.errors.sites import GemmSite

        acc = np.arange(12, dtype=np.int64).reshape(3, 4)
        site_miss = GemmSite(layer=0, component=Component.Q, stage=Stage.PREFILL)
        site_hit = GemmSite(layer=1, component=Component.Q, stage=Stage.PREFILL)
        a = ErrorInjector(BitFlipModel(0.9), SiteFilter.only(layers=[1]), seed=4)
        out_a = a.corrupt(acc.copy(), site_miss)
        np.testing.assert_array_equal(out_a, acc)  # untouched
        hit_a = a.corrupt(acc.copy(), site_hit)
        b = ErrorInjector(BitFlipModel(0.9), SiteFilter.only(layers=[1]), seed=4)
        b.register_untargeted(site_miss)
        hit_b = b.corrupt(acc.copy(), site_hit)
        np.testing.assert_array_equal(hit_a, hit_b)


class TestEvaluatorReplay:
    """Evaluator-level: trials scored through the replay engine equal the
    oracle's full-forward scores (``tests/oracle.py``)."""

    def test_scores_bit_identical_to_no_replay(self, opt_bundle):
        from repro.campaigns.executor import evaluate_trial
        from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial

        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        assert evaluator.clean_score == full_route_score(evaluator)
        for site in (
            SiteSpec.only(layers=[1]),
            SiteSpec.only(components=["O"], stages=["prefill"]),
            SiteSpec.everywhere(),
        ):
            trial = Trial(
                model=opt_bundle.name,
                task="perplexity",
                site=site,
                error=ErrorSpec.bitflip(1e-3, bits=(30,)),
                seed=2,
            )
            assert_matches_oracle(
                [evaluate_trial(trial, evaluator)], [oracle_result(trial, evaluator)]
            )

    def test_generation_task_scores_match(self, opt_bundle):
        from repro.campaigns.executor import evaluate_trial
        from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial

        evaluator = ModelEvaluator(opt_bundle, "xsum")
        assert evaluator.clean_score == full_route_score(evaluator)
        for stages in (["prefill"], ["decode"], None):
            trial = Trial(
                model=opt_bundle.name,
                task="xsum",
                site=SiteSpec.only(stages=stages),
                error=ErrorSpec.bitflip(2e-3, bits=(30,)),
                seed=1,
            )
            assert_matches_oracle(
                [evaluate_trial(trial, evaluator)], [oracle_result(trial, evaluator)]
            )


class TestSharedMemory:
    def test_pack_attach_bit_identical(self, opt_bundle):
        from repro.models.replay import TRACES

        fingerprint = _bundle_fingerprint(opt_bundle)
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        evaluator.clean_score  # record traces under the global store
        model = quantized_model_for(opt_bundle)
        traces = {k: t for k, t in TRACES.items() if k.startswith(fingerprint)}
        assert traces, "clean scoring should have recorded traces"
        pack = publish_bundle(fingerprint, model, traces)
        try:
            attached = attach_model(pack.manifest)
            tokens = _tokens(model)
            np.testing.assert_array_equal(
                model.forward_full(tokens), attached.forward_full(tokens)
            )
            np.testing.assert_array_equal(
                model.generate_batch(tokens[:, :10], 4),
                attached.generate_batch(tokens[:, :10], 4),
            )
            # attached weights are zero-copy views, not copies
            assert not attached.embed.flags.owndata
            assert not attached.layers[0]["wq"].q.flags.owndata
            assert not attached.layers[0]["wq"].q.flags.writeable
            rebuilt = attach_traces(pack.manifest)
            assert set(rebuilt) == set(traces)
            for key in traces:
                np.testing.assert_array_equal(traces[key].logits, rebuilt[key].logits)
                assert traces[key].calls_by_layer == rebuilt[key].calls_by_layer
        finally:
            pack.close()

    def test_pool_campaign_with_shared_packs(self, tmp_path, opt_bundle):
        """Scores from shared-memory pool workers match the serial route."""
        from repro.campaigns.executor import run_campaign
        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
        from repro.campaigns.store import ResultStore

        spec = CampaignSpec(
            name="shm-test",
            models=(opt_bundle.name,),
            tasks=("perplexity",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0, 1),
        )
        with ResultStore(str(tmp_path / "pool")) as store:
            report = run_campaign(spec, store, workers=2)
            assert report.executed == 2 and report.failed == 0
            pool_scores = {t.key: store.get(t.key).result.score for t in spec.expand()}
        with ResultStore(str(tmp_path / "serial")) as store:
            report = run_campaign(spec, store, workers=0)
            assert report.executed == 2 and report.failed == 0
            serial_scores = {t.key: store.get(t.key).result.score for t in spec.expand()}
        assert pool_scores == serial_scores
