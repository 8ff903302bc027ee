"""Batched-engine equivalence tests.

The contract of the batched representation (DESIGN.md section 4): on
fault-free models the batched and single-sequence paths agree **bit-for-bit**
(``assert_array_equal``, no tolerance), each forward issues exactly one
injector call per GemmSite regardless of batch size, and ABFT protection
broadcasts over the batch axis.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import per_sequence_score
from repro.abft.protectors import ClassicalABFT
from repro.characterization.evaluator import ModelEvaluator
from repro.errors.injector import ErrorInjector
from repro.errors.models import BitFlipModel
from repro.models.quantized import batch_groups


def _sequences(bundle, n, length, key):
    return [bundle.source.sample_batch(1, length, key=f"{key}{i}")[0] for i in range(n)]


@pytest.mark.parametrize("model_fixture", ["opt_quant", "llama_quant"])
class TestBitForBitEquivalence:
    def test_forward_full(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        bundle_name = "opt_bundle" if model_fixture == "opt_quant" else "llama_bundle"
        bundle = request.getfixturevalue(bundle_name)
        seqs = _sequences(bundle, 3, 24, "bfb")
        batched = model.forward_full(np.stack(seqs))
        for i, seq in enumerate(seqs):
            np.testing.assert_array_equal(model.forward_full(seq), batched[i])

    def test_prefill_and_decode(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        vocab = model.config.vocab_size
        batch = np.stack([np.arange(12) % vocab, (np.arange(12) * 3) % vocab])
        logits_b, cache_b = model.prefill(batch)
        assert cache_b.batch == 2 and cache_b.seq_len == 12
        tokens = np.argmax(logits_b, axis=-1)
        decode_b = model.decode_step(tokens, cache_b)
        for i in range(2):
            logits_1, cache_1 = model.prefill(batch[i])
            np.testing.assert_array_equal(logits_1, logits_b[i])
            np.testing.assert_array_equal(
                model.decode_step(int(tokens[i]), cache_1), decode_b[i]
            )

    def test_generate_batch(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        vocab = model.config.vocab_size
        prompts = np.stack([np.arange(8) % vocab, (np.arange(8) * 7) % vocab])
        gen_b = model.generate_batch(prompts, 5)
        assert gen_b.shape == (2, 5)
        for i in range(2):
            np.testing.assert_array_equal(model.generate(prompts[i], 5), gen_b[i])

    def test_sequence_nll_and_choice_logprob(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        bundle_name = "opt_bundle" if model_fixture == "opt_quant" else "llama_bundle"
        bundle = request.getfixturevalue(bundle_name)
        seqs = _sequences(bundle, 3, 20, "nll")
        nlls = model.sequence_nll_batch(np.stack(seqs))
        for i, seq in enumerate(seqs):
            assert model.sequence_nll(seq) == nlls[i]
        contexts = np.stack([s[:14] for s in seqs])
        conts = np.stack([s[14:] for s in seqs])
        lps = model.choice_logprob_batch(contexts, conts)
        for i, seq in enumerate(seqs):
            assert model.choice_logprob(seq[:14], seq[14:]) == lps[i]


class TestInjectorCallParity:
    def test_gemm_calls_per_forward_independent_of_batch(self, opt_quant):
        vocab = opt_quant.config.vocab_size
        counts = {}
        for label, tokens in (
            ("single", np.arange(16) % vocab),
            ("batch4", np.stack([(np.arange(16) + i) % vocab for i in range(4)])),
        ):
            injector = ErrorInjector(BitFlipModel(0.0), seed=0)
            opt_quant.attach(injector, None)
            try:
                opt_quant.forward_full(tokens)
            finally:
                opt_quant.attach(None, None)
            counts[label] = injector.stats.gemm_calls
        assert counts["single"] == counts["batch4"]
        # one call per (layer, component) exactly
        cfg = opt_quant.config
        assert counts["single"] == cfg.n_layers * len(cfg.components)

    def test_generation_call_parity(self, opt_quant):
        """Prefill + N decode steps issue the same number of injector calls
        for a batch of prompts as for one prompt."""
        vocab = opt_quant.config.vocab_size
        counts = {}
        for label, prompts in (
            ("single", (np.arange(10) % vocab)[None, :]),
            ("batch3", np.stack([(np.arange(10) + i) % vocab for i in range(3)])),
        ):
            injector = ErrorInjector(BitFlipModel(0.0), seed=0)
            opt_quant.attach(injector, None)
            try:
                opt_quant.generate_batch(prompts, 4)
            finally:
                opt_quant.attach(None, None)
            counts[label] = injector.stats.gemm_calls
        assert counts["single"] == counts["batch3"]


class TestBatchedProtection:
    def test_classical_abft_restores_batched_forward(self, opt_bundle, opt_quant):
        tokens = np.stack(
            [opt_bundle.source.sample_batch(1, 20, key=f"prot{i}")[0] for i in range(3)]
        )
        clean = opt_quant.forward_full(tokens)

        injector = ErrorInjector(BitFlipModel(2e-3), seed=9)
        opt_quant.attach(injector, None)
        try:
            corrupted = opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        assert np.abs(clean - corrupted).max() > 1e-6

        injector = ErrorInjector(BitFlipModel(2e-3), seed=9)
        protector = ClassicalABFT()
        opt_quant.attach(injector, protector)
        try:
            protected = opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        np.testing.assert_allclose(protected, clean, atol=1e-9)
        # per-slice inspection: one decision per 2-D matrix, not per call
        assert protector.stats.inspected > injector.stats.gemm_calls

    def test_partial_recovery_charges_only_tripped_slices(self, opt_quant):
        """With a single corrupted slice in a batched GEMM, recovery must
        charge a fraction of the GEMM's MACs, not the whole batch."""
        vocab = opt_quant.config.vocab_size
        tokens = np.stack([(np.arange(16) + i) % vocab for i in range(4)])
        injector = ErrorInjector(BitFlipModel(1e-5), seed=12)
        protector = ClassicalABFT()
        opt_quant.executor.reset_counters()
        opt_quant.attach(injector, protector)
        try:
            opt_quant.forward_full(tokens)
        finally:
            opt_quant.attach(None, None)
        if protector.stats.recovered:
            assert protector.stats.recovered_macs < opt_quant.executor.total_macs


class TestHarnessPathAgreement:
    """Batched scoring and the per-sequence oracle produce identical clean
    scores for every task."""

    @pytest.mark.parametrize(
        "task", ["perplexity", "lambada", "hellaswag", "xsum", "gsm8k"]
    )
    def test_clean_score_matches_per_sequence(self, opt_bundle, task):
        evaluator = ModelEvaluator(opt_bundle, task)
        assert evaluator.clean_score == per_sequence_score(evaluator)


class TestBatchGroups:
    def test_groups_cover_and_stack(self):
        seqs = [np.arange(5), np.arange(3), np.arange(5) + 1, np.arange(3) + 1]
        groups = batch_groups(seqs)
        seen = sorted(i for idxs, _ in groups for i in idxs)
        assert seen == [0, 1, 2, 3]
        for idxs, batch in groups:
            assert batch.shape == (len(idxs), len(seqs[idxs[0]]))
            for row, i in zip(batch, idxs):
                np.testing.assert_array_equal(row, seqs[i])

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            batch_groups([np.zeros((2, 2))])


class TestModelCache:
    def test_evaluators_share_engine_across_tasks(self, opt_bundle):
        ev1 = ModelEvaluator(opt_bundle, "perplexity")
        ev2 = ModelEvaluator(opt_bundle, "lambada")
        assert ev1.model is ev2.model

    def test_private_engine_on_request(self, opt_bundle):
        shared = ModelEvaluator(opt_bundle, "perplexity")
        private = ModelEvaluator(opt_bundle, "perplexity", reuse_model=False)
        assert private.model is not shared.model
