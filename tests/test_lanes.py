"""Trial-lane vectorization equivalence tests (DESIGN.md section 9).

The contract: every lane of a packed run — score, injector RNG stream and
statistics, protector statistics, measured cost columns — is **bit-identical**
(``==`` / ``assert_array_equal``, never ``allclose``) to scoring that trial
alone with plain instruments on the full-forward route (``tests/oracle.py``),
at any pack width, across prefill+decode tasks, ±cost, and every method.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import RESULT_FIELDS, assert_matches_oracle, oracle_result
from repro.campaigns.lanes import (
    LanePacker,
    build_injector,
    build_protector,
    evaluate_lane_pack,
    pack_signature,
    prepare_lanes,
)
from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
from repro.characterization.evaluator import ModelEvaluator
from repro.core.methods import METHODS
from repro.core.realm import ReaLMConfig, ReaLMPipeline
from repro.dispatch.cost import CostSpec
from repro.errors.injector import ErrorInjector, LaneInjector
from repro.errors.models import BitFlipModel
from repro.errors.sites import Component, SiteFilter, SiteFilterUnion, Stage

#: Fast-but-meaningful calibration grid for the behavioral methods
#: (mirrors tests/test_core_realm.py).
FAST_CFG = dict(
    calib_mags=tuple(2**p for p in (4, 10, 16, 22, 28)),
    calib_freqs=(1, 8, 64, 256),
)


def _trials(
    method="none", task="perplexity", seeds=(0, 1, 2), ber=2e-3, bit=30,
    stages=("prefill",), layers=None,
):
    return [
        Trial(
            model="opt-mini",
            task=task,
            site=SiteSpec.only(layers=layers, components=["O"], stages=stages),
            error=ErrorSpec.bitflip(ber, bits=(bit,)),
            method=method,
            seed=s,
        )
        for s in seeds
    ]


def _assert_pack_matches_oracle(trials, evaluator, pipeline=None, cost=None):
    """The pack of all ``trials`` and each trial as a one-lane pack both
    equal the oracle, field by field."""
    oracles = [oracle_result(t, evaluator, pipeline, cost=cost) for t in trials]
    packed = evaluate_lane_pack(trials, evaluator, pipeline, cost=cost)
    assert_matches_oracle(packed, oracles)
    solo = [evaluate_lane_pack([t], evaluator, pipeline, cost=cost)[0] for t in trials]
    assert_matches_oracle(solo, oracles)
    return solo, packed


# --------------------------------------------------------------- engine level
class TestPackedForwardLanes:
    """Engine-level: each lane block of a packed forward equals its solo run."""

    def _forward(self, model, tokens, injector):
        model.attach(injector, None)
        try:
            return model.forward_full(tokens)
        finally:
            model.attach(None, None)

    @pytest.mark.parametrize("model_fixture", ["opt_quant", "llama_quant"])
    def test_lane_blocks_bit_identical(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        vocab = model.config.vocab_size
        tokens = np.stack([(np.arange(20) * (1 + i)) % vocab for i in range(2)])
        filters = [
            SiteFilter.only(layers=[0]),
            SiteFilter.only(components=[Component.O]),
            SiteFilter.everywhere(),
        ]
        solo_outputs, solo_injectors = [], []
        for j, flt in enumerate(filters):
            injector = ErrorInjector(BitFlipModel(2e-3, bits=(30,)), flt, seed=10 + j)
            solo_outputs.append(self._forward(model, tokens, injector))
            solo_injectors.append(injector)
        lanes = [
            ErrorInjector(BitFlipModel(2e-3, bits=(30,)), flt, seed=10 + j)
            for j, flt in enumerate(filters)
        ]
        packed = self._forward(model, np.tile(tokens, (len(lanes), 1)), LaneInjector(lanes))
        rows = tokens.shape[0]
        for j, (out, solo_injector, lane) in enumerate(
            zip(solo_outputs, solo_injectors, lanes)
        ):
            np.testing.assert_array_equal(packed[j * rows : (j + 1) * rows], out)
            assert lane._call_index == solo_injector._call_index
            assert lane.stats.gemm_calls == solo_injector.stats.gemm_calls
            assert lane.stats.injected_errors == solo_injector.stats.injected_errors
            assert lane.stats.per_site_errors == solo_injector.stats.per_site_errors

    def test_clean_lane_rides_along_untouched(self, opt_quant):
        vocab = opt_quant.config.vocab_size
        tokens = np.stack([(np.arange(16) * 3) % vocab])
        clean = opt_quant.forward_full(tokens)
        injector = LaneInjector(
            [None, ErrorInjector(BitFlipModel(0.3, bits=(30,)), seed=1)]
        )
        packed = self._forward(opt_quant, np.tile(tokens, (2, 1)), injector)
        np.testing.assert_array_equal(packed[:1], clean)
        assert not np.array_equal(packed[1:], clean)  # lane 1 was corrupted


# ------------------------------------------------------------- result parity
@pytest.fixture(scope="module")
def calibrated(opt_bundle):
    """Per task: an evaluator and its calibrated pipeline."""
    out = {}
    for task in ("perplexity", "xsum"):
        evaluator = ModelEvaluator(opt_bundle, task)
        out[task] = evaluator, ReaLMPipeline(
            opt_bundle, ReaLMConfig(task=task, **FAST_CFG), evaluator=evaluator
        )
    return out


class TestOracleParity:
    """Every method, ±cost, prefill-only and prefill+decode tasks: a pack of
    K lanes equals the oracle lane by lane. Targeting only the last layer
    makes every forward resume past a replayed prefix, so the skipped
    calls' per-lane bookkeeping is compared too."""

    _oracles: dict = {}

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("layers", [None, [1]], ids=["all-layers", "layer1"])
    @pytest.mark.parametrize("cost", [None, CostSpec()], ids=["nocost", "cost"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("task", ["perplexity", "xsum"])
    def test_pack_matches_oracle(self, calibrated, task, method, cost, layers, lanes):
        evaluator, pipeline = calibrated[task]
        trials = _trials(method=method, task=task, ber=5e-3, stages=None, layers=layers)
        key = (task, method, cost is not None, layers is None)
        if key not in self._oracles:
            self._oracles[key] = [
                oracle_result(t, evaluator, pipeline, cost=cost) for t in trials
            ]
        if lanes == 1:
            results = [
                evaluate_lane_pack([t], evaluator, pipeline, cost=cost)[0]
                for t in trials
            ]
        else:
            results = evaluate_lane_pack(trials, evaluator, pipeline, cost=cost)
        assert_matches_oracle(results, self._oracles[key])
        assert sum(o["injected_errors"] for o in self._oracles[key]) > 0

    def test_decode_stage_lanes(self, opt_bundle):
        """Decode-targeting filters force live decode under packing too."""
        evaluator = ModelEvaluator(opt_bundle, "xsum")
        trials = [
            Trial(
                model="opt-mini",
                task="xsum",
                site=SiteSpec.only(stages=["decode"]),
                error=ErrorSpec.bitflip(2e-3, bits=(30,)),
                seed=s,
            )
            for s in range(3)
        ]
        _assert_pack_matches_oracle(trials, evaluator)

    def test_mixed_cells_single_pack(self, opt_bundle):
        """Lanes with different sites/errors (incl. a clean lane) still
        produce oracle-identical results when packed together."""
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        trials = [
            Trial(
                model="opt-mini", task="perplexity",
                site=SiteSpec.only(layers=[0]),
                error=ErrorSpec.bitflip(2e-3, bits=(30,)), seed=0,
            ),
            Trial(
                model="opt-mini", task="perplexity",
                site=SiteSpec.only(layers=[1]),
                error=ErrorSpec.bitflip(2e-3, bits=(29,)), seed=1,
            ),
            Trial(
                model="opt-mini", task="perplexity",
                site=SiteSpec.only(components=["K"]),
                error=ErrorSpec.magfreq(1 << 14, 4), seed=2,
            ),
            Trial(
                model="opt-mini", task="perplexity",
                site=SiteSpec.everywhere(), error=ErrorSpec.clean(), seed=3,
            ),
        ]
        _assert_pack_matches_oracle(trials, evaluator, cost=CostSpec())


class TestBehavioralMethods:
    def test_protector_statistics_per_lane(self, calibrated):
        """Per-lane protector stats — inspections, detections, recoveries,
        charged MACs, per-site counts — equal the solo runs'."""
        evaluator, pipeline = calibrated["perplexity"]
        trials = _trials(method="statistical-abft", ber=5e-3)
        solo_protectors = []
        for trial in trials:
            injector = build_injector(trial)
            protector = build_protector(trial, evaluator, pipeline)
            evaluator.run(injector, protector)
            solo_protectors.append(protector)
        _, lane_protectors, _, packed = prepare_lanes(trials, evaluator, pipeline)
        evaluator.run(*packed, lanes=len(trials))
        for solo, lane in zip(solo_protectors, lane_protectors):
            assert lane.stats.inspected == solo.stats.inspected
            assert lane.stats.detected == solo.stats.detected
            assert lane.stats.recovered == solo.stats.recovered
            assert lane.stats.recovered_macs == solo.stats.recovered_macs
            assert lane.stats.per_site_recoveries == solo.stats.per_site_recoveries


class TestCostParity:
    def test_per_lane_cost_reports_match_solo(self, opt_bundle):
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        spec = CostSpec()
        trials = _trials(method="classical-abft", ber=5e-3)
        pipeline = None
        solo_costs = []
        for trial in trials:
            injector = build_injector(trial)
            protector = build_protector(trial, evaluator, pipeline)
            cost = spec.build()
            evaluator.run(injector, protector, cost=cost)
            solo_costs.append(cost)
        _, _, lane_costs, packed = prepare_lanes(trials, evaluator, pipeline, spec)
        evaluator.run(*packed, lanes=len(trials))
        for solo, lane in zip(solo_costs, lane_costs):
            assert lane.report.total_cycles == solo.report.total_cycles
            assert lane.report.macs == solo.report.macs
            assert lane.report.tiles == solo.report.tiles
            assert lane.report.recovered_macs == solo.report.recovered_macs
            assert lane.report.recovery_cycles == solo.report.recovery_cycles
            assert set(lane.report.by_site) == set(solo.report.by_site)
            assert lane.energy(0.7).total_j == solo.energy(0.7).total_j

    def test_voltage_lanes_energy_at_own_voltage(self, opt_bundle):
        """Lanes at different voltages derive their own BER and energy."""
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        trials = [
            Trial(
                model="opt-mini", task="perplexity",
                site=SiteSpec.only(components=["O"], stages=["prefill"]),
                error=ErrorSpec.bitflip(None, bits=(30,)),
                voltage=v, seed=s,
            )
            for s, v in enumerate((0.80, 0.72, 0.64))
        ]
        solo, packed = _assert_pack_matches_oracle(
            trials, evaluator, cost=CostSpec()
        )
        energies = [r.energy_j for r in packed]
        # deeper underscaling: quadratically less compute energy per MAC
        assert energies == sorted(energies, reverse=True)


# ------------------------------------------------------------------- packing
class TestLanePacker:
    def _packer(self, opt_bundle, max_lanes=8):
        return LanePacker(max_lanes=max_lanes, config_for=lambda m: opt_bundle.config)

    def test_groups_by_model_task_method_resume(self, opt_bundle):
        a = _trials(seeds=(0, 1))
        b = _trials(method="classical-abft", seeds=(0, 1))
        c = _trials(task="xsum", seeds=(0,))
        packs = self._packer(opt_bundle).pack(a + b + c)
        assert [len(p) for p in packs] == [2, 2, 1]
        assert {t.method for t in packs[0]} == {"none"}
        assert {t.method for t in packs[1]} == {"classical-abft"}
        assert {t.task for t in packs[2]} == {"xsum"}

    def test_resume_layer_splits_groups(self, opt_bundle):
        early = Trial(
            model="opt-mini", task="perplexity", site=SiteSpec.only(layers=[0]),
            error=ErrorSpec.bitflip(1e-3, bits=(30,)), seed=0,
        )
        late = Trial(
            model="opt-mini", task="perplexity", site=SiteSpec.only(layers=[1]),
            error=ErrorSpec.bitflip(1e-3, bits=(30,)), seed=0,
        )
        assert pack_signature(early, opt_bundle.config) != pack_signature(
            late, opt_bundle.config
        )
        packs = self._packer(opt_bundle).pack([early, late])
        assert [len(p) for p in packs] == [1, 1]

    def test_max_lanes_chunking(self, opt_bundle):
        trials = _trials(seeds=tuple(range(10)))
        packs = self._packer(opt_bundle, max_lanes=4).pack(trials)
        assert [len(p) for p in packs] == [4, 4, 2]
        assert [t.seed for p in packs for t in p] == list(range(10))

    def test_default_packer_reads_no_checkpoint(self, monkeypatch):
        import repro.training.zoo as zoo

        llama = [
            Trial(
                model="llama-mini", task="perplexity",
                site=SiteSpec.only(layers=[layer]),
                error=ErrorSpec.bitflip(1e-3, bits=(30,)), seed=seed,
            )
            for layer in (1, 0)
            for seed in (0, 1)
        ]
        wave = (
            _trials(seeds=(0, 1)) + llama
            + _trials(method="classical-abft", seeds=(0,)) + _trials(task="xsum")
        )
        expected = LanePacker(
            max_lanes=2, config_for=lambda m: zoo.get_pretrained(m).config
        ).pack(wave)

        def no_load(*args, **kwargs):
            raise AssertionError("lane packing must not read a checkpoint")

        monkeypatch.setattr(zoo, "get_pretrained", no_load)
        monkeypatch.setattr(np, "load", no_load)
        packs = LanePacker(max_lanes=2).pack(wave)
        assert packs == expected
        assert [len(p) for p in packs] == [2, 2, 2, 1, 2, 1]

    def test_pack_rejects_mixed_methods(self, opt_bundle):
        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        mixed = _trials(seeds=(0,)) + _trials(method="classical-abft", seeds=(1,))
        with pytest.raises(ValueError, match="share one"):
            evaluate_lane_pack(mixed, evaluator)


class TestSiteFilterUnionReasoning:
    def test_union_matches_and_earliest_layer(self):
        union = SiteFilterUnion(
            (SiteFilter.only(layers=[2]), SiteFilter.only(layers=[5]))
        )
        assert union.earliest_layer(8) == 2
        assert union.earliest_layer(4) == 2
        assert union.earliest_layer(2) is None
        decode_only = SiteFilterUnion((SiteFilter.only(stages=[Stage.DECODE]),))
        assert decode_only.earliest_layer(4, stage=Stage.PREFILL) is None
        assert decode_only.targets_stage(Stage.DECODE)
        from repro.errors.sites import GemmSite

        site = GemmSite(layer=5, component=Component.Q, stage=Stage.PREFILL)
        assert union.matches(site)
        assert not union.matches(
            GemmSite(layer=3, component=Component.Q, stage=Stage.PREFILL)
        )


# ------------------------------------------------------------- campaign level
class TestCampaignLaneWidthInvariance:
    def test_stored_results_identical_at_any_lane_width(self, tmp_path, opt_bundle):
        from repro.campaigns.executor import run_campaign
        from repro.campaigns.spec import CampaignSpec
        from repro.campaigns.store import ResultStore

        spec = CampaignSpec(
            name="lane-width-invariance",
            models=("opt-mini",),
            sites=(
                SiteSpec.only(components=["O"], stages=["prefill"]),
                SiteSpec.only(components=["K"], stages=["prefill"]),
            ),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0, 1),
        )
        results = {}
        for width in (1, 8):
            with ResultStore(tmp_path / f"w{width}") as store:
                report = run_campaign(spec, store, workers=0, lane_width=width)
                assert report.executed == 4 and report.failed == 0
                results[width] = {
                    t.key: store.get(t.key).result for t in spec.expand()
                }
        for key, solo in results[1].items():
            packed = results[8][key]
            for field in RESULT_FIELDS:
                assert getattr(solo, field) == getattr(packed, field), (key, field)
