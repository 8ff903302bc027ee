"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--model", "gpt4"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--method", "magic"])


class TestCommands:
    def test_zoo_lists_models(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "opt-mini" in out and "llama-tiny" in out

    def test_overhead_prints_fig8(self, capsys):
        assert main(["overhead", "--size", "128"]) == 0
        out = capsys.readouterr().out
        assert "statistical-abft" in out
        assert "WS" in out and "OS" in out

    def test_characterize_runs(self, opt_bundle, capsys):
        assert main(["characterize", "--model", "opt-mini", "--bers", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "O" in out and "sensitive" in out

    def test_magfreq_runs(self, opt_bundle, capsys):
        assert main(["magfreq", "--model", "opt-mini", "--component", "K"]) == 0
        out = capsys.readouterr().out
        assert "MSD" in out

    def test_sweep_runs(self, opt_bundle, capsys):
        assert main(["sweep", "--model", "opt-mini",
                     "--method", "no-protection"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out

    def test_characterize_accepts_seed(self, opt_bundle, capsys):
        assert main(["characterize", "--model", "opt-mini",
                     "--bers", "1e-3", "--seed", "7"]) == 0
        assert "sensitive" in capsys.readouterr().out

    def test_characterize_seeds_fan_out(self, opt_bundle, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "default_store_dir", lambda name: tmp_path / name
        )
        assert main(["characterize", "--model", "opt-mini", "--bers", "1e-3",
                     "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "+/-" in out and "2" in out
        # second invocation is fully served from the campaign store
        assert main(["characterize", "--model", "opt-mini", "--bers", "1e-3",
                     "--seeds", "2"]) == 0
        assert "0 executed" in capsys.readouterr().out

    def test_magfreq_accepts_seed(self, opt_bundle, capsys):
        assert main(["magfreq", "--model", "opt-mini", "--component", "K",
                     "--seed", "3"]) == 0
        assert "MSD" in capsys.readouterr().out


class TestBackendCommands:
    def test_backend_list_shows_registry(self, capsys):
        assert main(["backend", "list", "--no-timing"]) == 0
        out = capsys.readouterr().out
        for name in ("numpy-f64", "native"):
            assert name in out
        assert "threaded" in out and "kernel" in out

    def test_backend_list_with_timings(self, capsys):
        assert main(["backend", "list"]) == 0
        assert "ms (" in capsys.readouterr().out

    def test_campaign_run_accepts_backend(self, opt_bundle, tmp_path, capsys):
        import json

        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
        from repro.campaigns.store import ResultStore

        spec = CampaignSpec(
            name="cli-backend", models=("opt-mini",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0,),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        store = tmp_path / "store"
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", str(store), "--backend", "test-mirror"]) == 0
        with ResultStore(store, create=False) as opened:
            (record,) = opened.records()
            assert record.result.backend == "test-mirror"

    @staticmethod
    def _one_error_line(capsys, *needles):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro: error:")
        for needle in needles:
            assert needle in lines[0]
        assert "Traceback" not in captured.err
        return lines[0]

    def test_campaign_run_rejects_unknown_backend(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, "cli-bad-backend", seeds=(0,))
        store = tmp_path / "s"
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", str(store), "--backend", "no-such-kernel"]) == 2
        self._one_error_line(capsys, "no-such-kernel", str(path))
        assert not store.exists()

    @pytest.mark.parametrize("removed", ["blocked", "numpy-int", "auto"])
    def test_spec_naming_removed_backend_is_a_clean_error(
        self, tmp_path, capsys, removed
    ):
        import json

        path = self._spec_path(tmp_path, "cli-removed-backend", seeds=(0,))
        payload = json.loads(path.read_text())
        payload["backend"] = removed
        path.write_text(json.dumps(payload))
        for command in ("run", "status", "report"):
            assert main(["campaign", command, "--spec", str(path),
                         "--store", str(tmp_path / "s")]) == 2
            self._one_error_line(capsys, repr(removed), "registered")

    def test_malformed_spec_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "broken", "models": ["opt-mini"],')
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", str(tmp_path / "s")]) == 2
        self._one_error_line(capsys, "not valid JSON", str(path))

    def test_spec_problems_are_clean_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["campaign", "status", "--spec", str(missing)]) == 2
        self._one_error_line(capsys, "cannot read spec", str(missing))

        path = tmp_path / "spec.json"
        path.write_text('{"models": ["opt-mini"]}')
        assert main(["campaign", "run", "--spec", str(path)]) == 2
        self._one_error_line(capsys, "missing key 'name'")

        path.write_text('{"name": "x", "models": ["opt-mini"], "seedz": 3}')
        assert main(["campaign", "run", "--spec", str(path)]) == 2
        self._one_error_line(capsys, "unknown campaign spec keys", "seedz")

        path.write_text("[1, 2]")
        assert main(["campaign", "run", "--spec", str(path)]) == 2
        self._one_error_line(capsys, "JSON object")

    def _spec_path(self, tmp_path, name, seeds=(0, 1)):
        import json

        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec

        spec = CampaignSpec(
            name=name, models=("opt-mini",),
            sites=(SiteSpec.only(components=["K"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=seeds,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def test_campaign_run_supervision_and_chaos_flags(
        self, opt_bundle, tmp_path, capsys
    ):
        path = self._spec_path(tmp_path, "cli-chaos")
        # exc=1.0 makes every trial fail its first attempt; with one retry
        # allowed the campaign still completes cleanly (exit code 0).
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", str(tmp_path / "store"),
                     "--trial-timeout", "60", "--max-retries", "1",
                     "--chaos", "seed=1,exc=1.0"]) == 0
        out = capsys.readouterr().out
        assert "2 retried" in out and "0 failed" in out

    def test_campaign_quarantine_list_and_clear(
        self, opt_bundle, tmp_path, capsys
    ):
        path = self._spec_path(tmp_path, "cli-quarantine")
        store = str(tmp_path / "store")
        # a poison trial fails every attempt: quarantined, exit code 1
        assert main(["campaign", "run", "--spec", str(path), "--store", store,
                     "--max-retries", "0",
                     "--chaos", "seed=1,poison=1.0"]) == 1
        out = capsys.readouterr().out
        assert "2 quarantined" in out

        assert main(["campaign", "quarantine", "list",
                     "--spec", str(path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out or "transient" in out
        assert "ChaosPoisonError" in out

        assert main(["campaign", "quarantine", "clear",
                     "--spec", str(path), "--store", store]) == 0
        assert "cleared 2" in capsys.readouterr().out

        assert main(["campaign", "quarantine", "list",
                     "--spec", str(path), "--store", store]) == 0
        assert "no quarantined trials" in capsys.readouterr().out

        # cleared trials run for real on the next (chaos-free) run
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", store]) == 0
        assert "2 executed" in capsys.readouterr().out

    def test_campaign_status_history_artifact(self, opt_bundle, tmp_path, capsys):
        import json

        path = self._spec_path(tmp_path, "cli-history", seeds=(0,))
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", store]) == 0
        capsys.readouterr()
        history = tmp_path / "history.json"
        assert main(["campaign", "status", "--spec", str(path),
                     "--store", store, "--history", str(history)]) == 0
        assert "progress snapshot" in capsys.readouterr().out
        snapshots = json.loads(history.read_text())
        assert snapshots and snapshots[-1]["state"] == "finished"
        assert snapshots[-1]["totals"]["total"] == 1
