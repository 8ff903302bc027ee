"""Telemetry contract tests (DESIGN.md section 10).

Three guarantees are asserted here:

- **Zero perturbation**: with span tracing and the dispatch trace
  instrument enabled, every score/statistic is bit-identical (``==``,
  never ``allclose``) to the untraced run, solo and lane-packed.
- **Zero footprint when disabled**: the executor's chain and trace slot
  are untouched; ``span()`` hands back one shared no-op singleton.
- **Live progress**: the campaign parent writes ``progress`` snapshots a
  *concurrent* reader (``campaign watch`` in another process) can consume
  while the run is still writing.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import time

import pytest

import repro.telemetry as telemetry
from repro.campaigns.executor import _run_pack_payload, evaluate_trial, run_campaign
from repro.campaigns.progress import (
    build_snapshot,
    read_latest_progress,
    render_metrics,
    render_snapshot,
)
from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec, Trial
from repro.campaigns.store import ResultStore
from repro.characterization.evaluator import ModelEvaluator
from repro.dispatch.cost import CostSpec
from repro.models.replay import TraceStore, CleanTrace
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import NOOP_SPAN
from repro.utils.logging import get_logger


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with tracing disabled and metrics clean."""
    telemetry.disable()
    telemetry.METRICS.reset()
    telemetry.gemm_trace().reset()
    yield
    telemetry.disable()
    telemetry.METRICS.reset()
    telemetry.gemm_trace().reset()


def _trial(seed=0, ber=2e-3):
    return Trial(
        model="opt-mini",
        task="perplexity",
        site=SiteSpec.only(components=["O"], stages=["prefill"]),
        error=ErrorSpec.bitflip(ber, bits=(30,)),
        seed=seed,
    )


RESULT_FIELDS = (
    "score",
    "degradation",
    "clean_score",
    "injected_errors",
    "gemm_calls",
    "cycles",
    "recovered_macs",
    "energy_j",
)


# ------------------------------------------------------------------ disabled
def test_disabled_span_is_shared_noop():
    assert not telemetry.enabled()
    s = telemetry.span("trial.evaluate", cell="x")
    assert s is NOOP_SPAN
    with s as inner:
        assert inner is NOOP_SPAN
        inner.set(foo=1)  # no-op, no state
    assert telemetry.tracer() is None


def test_disabled_leaves_dispatch_chain_untouched(opt_evaluator):
    executor = opt_evaluator.model.executor
    # attach()/detach() rebuild the chain per trial, so compare shape, not
    # identity: same instrument sequence as before telemetry existed.
    chain_before = [type(i) for i in executor.instruments]
    assert executor.trace is None
    evaluate_trial(_trial(), opt_evaluator)
    assert executor.trace is None
    assert [type(i) for i in executor.instruments] == chain_before
    assert all(i.name != "trace" for i in executor.instruments)


# ------------------------------------------------------------- bit-exactness
def test_enabled_results_bit_identical_solo_and_packed(opt_evaluator):
    trials = [_trial(seed=s) for s in (0, 1, 2)]
    baseline = [
        evaluate_trial(t, opt_evaluator, cost=CostSpec()) for t in trials
    ]
    telemetry.enable()
    try:
        traced_solo = [
            evaluate_trial(t, opt_evaluator, cost=CostSpec()) for t in trials
        ]
        from repro.campaigns.lanes import evaluate_lane_pack

        traced_pack = evaluate_lane_pack(trials, opt_evaluator, cost=CostSpec())
    finally:
        telemetry.disable()
    for base, solo, packed in zip(baseline, traced_solo, traced_pack):
        for field in RESULT_FIELDS:
            assert getattr(solo, field) == getattr(base, field), field
            assert getattr(packed, field) == getattr(base, field), field
    # the trace instrument was attached and detached cleanly
    assert opt_evaluator.model.executor.trace is None
    assert telemetry.gemm_trace().total_wall_s > 0


def test_span_nesting_and_lane_attribution(opt_evaluator):
    trials = [_trial(seed=s) for s in (0, 1)]
    telemetry.enable()
    telemetry.tracer().drain()
    try:
        from repro.campaigns.lanes import evaluate_lane_pack

        evaluate_lane_pack(trials, opt_evaluator)
        events = telemetry.tracer().drain()
    finally:
        telemetry.disable()
    by_name = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)
    pack = by_name["pack.evaluate"][0]
    assert pack["args"]["lanes"] == 2
    assert pack["args"]["cell"] == trials[0].cell_label
    run = by_name["eval.run"][0]
    assert run["args"]["parent"] == "pack.evaluate"
    assert run["args"]["lanes"] == 2
    # interval containment: the child span lies inside its parent
    assert pack["ts"] <= run["ts"]
    assert run["ts"] + run["dur"] <= pack["ts"] + pack["dur"] + 1e-3
    for resume in by_name.get("replay.resume", []):
        assert resume["args"]["parent"] == "eval.run"
        assert resume["args"]["lanes"] == 2


def test_chrome_trace_export_schema(tmp_path):
    telemetry.enable()
    try:
        with telemetry.span("trial.evaluate", cell="c0", seed=1):
            with telemetry.span("eval.run", task="perplexity", lanes=1):
                pass
        out = tmp_path / "trace.json"
        payload = telemetry.export_trace(out, extra={"gemmSites": []})
    finally:
        telemetry.disable()
    loaded = json.loads(out.read_text())
    assert loaded == payload
    assert loaded["displayTimeUnit"] == "ms"
    assert loaded["repro"] == {"gemmSites": []}
    assert len(loaded["traceEvents"]) == 2
    for event in loaded["traceEvents"]:
        assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0
    child = next(e for e in loaded["traceEvents"] if e["name"] == "eval.run")
    assert child["args"]["parent"] == "trial.evaluate"


# ----------------------------------------------------------------- metrics
def test_metrics_registry_and_merge():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    reg.gauge("g").set(2.5)
    reg.histogram("h").observe(1.0)
    reg.histogram("h").observe(3.0)
    snap = reg.snapshot()
    assert snap["counters"]["a"] == 5
    assert snap["gauges"]["g"] == 2.5
    assert snap["histograms"]["h"] == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}
    merged = merge_snapshots([snap, snap])
    assert merged["counters"]["a"] == 10
    assert merged["gauges"]["g"] == 5.0
    assert merged["histograms"]["h"]["count"] == 4
    assert merged["histograms"]["h"]["min"] == 1.0


def test_trace_store_hit_miss_counters():
    store = TraceStore(max_bytes=1 << 20)
    import numpy as np

    trace = CleanTrace(
        kind="full",
        boundaries=[np.zeros((1, 1, 1))],
        calls_by_layer=[[]],
        logits=np.zeros((1, 1, 2)),
    )
    assert store.get("k") is None
    store.put("k", trace)
    assert store.get("k") is trace
    assert store.get("k2") is None
    assert (store.hits, store.misses) == (1, 2)


def test_elapsed_histogram_counts_trials_not_packs(opt_evaluator):
    from repro.campaigns.lanes import evaluate_lane_pack

    histogram = telemetry.METRICS.histogram("trial.elapsed_s")
    results = evaluate_lane_pack([_trial(seed=s) for s in (0, 1, 2)], opt_evaluator)
    assert histogram.count == 3
    assert histogram.sum == pytest.approx(sum(r.elapsed_s for r in results))
    evaluate_trial(_trial(), opt_evaluator)
    assert histogram.count == 4


def test_trace_export_scores_like_evaluate_trial(tmp_path, opt_evaluator, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    assert main([
        "trace", "export", "--out", str(out), "--model", "opt-mini",
        "--ber", "2e-3", "--seed", "1",
    ]) == 0
    capsys.readouterr()
    extra = json.loads(out.read_text())["repro"]
    expected = evaluate_trial(Trial.from_dict(extra["trial"]), opt_evaluator)
    assert extra["score"] == expected.score
    assert extra["degradation"] == expected.degradation
    assert extra["gemmSites"] and all("cycles" in row for row in extra["gemmSites"])


# ------------------------------------------------------------- degradation
def test_pack_degradation_counts_warns_and_flags(opt_evaluator, monkeypatch, caplog):
    # opt_evaluator warms the worker-side caches via the session fixture; the
    # payload route rebuilds its own evaluator from the on-disk zoo cache.
    from repro.campaigns.lanes import evaluate_lane_pack

    def multi_lane_boom(trials, *args, **kwargs):
        if len(trials) > 1:
            raise RuntimeError("pack boom")
        return evaluate_lane_pack(trials, *args, **kwargs)

    monkeypatch.setattr(
        "repro.campaigns.executor.evaluate_lane_pack", multi_lane_boom
    )
    payload = {"trials": [_trial(seed=s).to_dict() for s in (0, 1)]}
    with caplog.at_level(logging.WARNING, logger="repro.campaigns"):
        outcomes = _run_pack_payload(payload)
    assert len(outcomes) == 2
    assert all(o.get("degraded") for o in outcomes)
    assert all("result" in o for o in outcomes)
    assert telemetry.METRICS.counter("lanes.pack_degradations").value == 1
    record = next(r for r in caplog.records if "degraded to one-lane packs" in r.message)
    assert record.levelno == logging.WARNING
    assert _trial().cell_label in record.getMessage()
    assert record.exc_info is not None and "pack boom" in repr(record.exc_info[1])
    # the worker's metric snapshot rides the last outcome for the parent
    assert "metrics" in outcomes[-1]
    assert outcomes[-1]["metrics"]["pid"] == os.getpid()


# ----------------------------------------------------------------- progress
def test_progress_table_roundtrip(tmp_path):
    with ResultStore(tmp_path / "store") as store:
        assert store.latest_progress() is None
        for i in range(3):
            store.write_progress({"i": i})
        assert store.latest_progress() == {"i": 2}
        assert store.progress_history() == [{"i": 0}, {"i": 1}, {"i": 2}]
        for i in range(store.PROGRESS_KEEP + 20):
            store.write_progress({"j": i})
        history = store.progress_history(limit=10_000)
        assert len(history) <= store.PROGRESS_KEEP + 1
        assert history[-1] == {"j": store.PROGRESS_KEEP + 19}
    # progress is ephemeral telemetry: an index rebuild must not drop it
    with ResultStore(tmp_path / "store") as store:
        assert store.latest_progress() == {"j": store.PROGRESS_KEEP + 19}


def test_build_and_render_snapshot():
    snap = build_snapshot(
        name="c",
        state="running",
        totals={"total": 10, "cached": 2, "executed": 4, "failed": 0, "skipped": 0},
        elapsed_s=2.0,
        cells=[
            {"cell": "x", "label": "cell-x", "done": 3, "total": 5,
             "values": [1.0, 2.0, 3.0]},
            {"cell": "y", "label": "cell-y", "done": 0, "total": 5, "values": []},
        ],
        metrics={"counters": {"lanes.packs": 2}, "gauges": {}, "histograms": {}},
    )
    assert snap["throughput_per_s"] == 2.0
    assert snap["eta_s"] == pytest.approx(2.0)  # 4 remaining / 2 per s
    cx = snap["cells"][0]
    assert cx["mean"] == 2.0
    assert cx["ci"] == pytest.approx(1.96 * 1.0 / 3**0.5)
    assert snap["cells"][1]["mean"] is None
    text = render_snapshot(snap)
    assert "cell-x" in text and "3/5" in text and "[running]" in text
    assert "lanes.packs" in render_metrics(snap)


def _watched_campaign(spec_json: str, store_dir: str) -> None:
    spec = CampaignSpec.from_json(spec_json)
    with ResultStore(store_dir) as store:
        run_campaign(spec, store, workers=0)


def test_watch_reads_progress_from_concurrent_writer(opt_evaluator, tmp_path):
    """The acceptance path: a separate process runs the campaign while this
    process polls the store read-only, sees live snapshots, and renders the
    final one — exactly what ``campaign watch`` does."""
    spec = CampaignSpec(
        name="watch-test",
        models=["opt-mini"],
        tasks=["perplexity"],
        sites=[SiteSpec.only(components=["O"], stages=["prefill"])],
        errors=[ErrorSpec.bitflip(2e-3, bits=(30,))],
        seeds=[0, 1, 2, 3],
    )
    store_dir = tmp_path / "watched"
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    proc = ctx.Process(
        target=_watched_campaign, args=(spec.to_json(), str(store_dir))
    )
    proc.start()
    seen: list[dict] = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snapshot = read_latest_progress(store_dir)
            if snapshot is not None and (
                not seen or snapshot["ts"] != seen[-1]["ts"]
            ):
                seen.append(snapshot)
            if snapshot is not None and snapshot["state"] == "finished":
                break
            time.sleep(0.02)
    finally:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    assert seen, "watcher never saw a progress snapshot"
    final = seen[-1]
    assert final["state"] == "finished"
    assert final["name"] == "watch-test"
    assert final["totals"]["executed"] + final["totals"]["cached"] == 4
    assert final["cells"][0]["done"] == 4
    assert final["metrics"]["counters"]["campaign.trials_executed"] == 4
    # the initial "running" write happened before any result landed
    assert any(s["state"] == "running" for s in seen)
    text = render_snapshot(final)
    assert "watch-test" in text and "[finished]" in text


def test_watch_cli_renders_finished_store(opt_evaluator, tmp_path, capsys):
    from repro.cli import main

    spec = CampaignSpec(
        name="watch-cli",
        models=["opt-mini"],
        tasks=["perplexity"],
        sites=[SiteSpec.only(components=["O"], stages=["prefill"])],
        errors=[ErrorSpec.bitflip(2e-3, bits=(30,))],
        seeds=[0],
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    store_dir = tmp_path / "store"
    with ResultStore(store_dir) as store:
        run_campaign(spec, store, workers=0)
    code = main(
        [
            "campaign", "watch",
            "--spec", str(spec_path),
            "--store", str(store_dir),
            "--interval", "0.01",
            "--refreshes", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "watch-cli" in out and "[finished]" in out


def test_campaign_run_trace_cli(opt_evaluator, tmp_path, capsys):
    from repro.cli import main

    spec = CampaignSpec(
        name="trace-cli",
        models=["opt-mini"],
        tasks=["perplexity"],
        sites=[SiteSpec.only(components=["O"], stages=["prefill"])],
        errors=[ErrorSpec.bitflip(2e-3, bits=(30,))],
        seeds=[0, 1],
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "campaign", "run",
            "--spec", str(spec_path),
            "--store", str(tmp_path / "store"),
            "--trace", str(trace_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(trace_path.read_text())
    names = {e["name"] for e in payload["traceEvents"]}
    assert "pack.evaluate" in names and "eval.run" in names
    assert payload["repro"]["metrics"]["counters"]["campaign.trials_executed"] == 2
    assert payload["repro"]["gemmSites"], "per-site GEMM wall table missing"


def test_campaign_phase_spans_in_exported_trace(opt_evaluator, tmp_path):
    spec = CampaignSpec(
        name="phase-spans",
        models=["opt-mini"],
        tasks=["perplexity"],
        sites=[SiteSpec.only(components=["O"], stages=["prefill"])],
        errors=[ErrorSpec.bitflip(2e-3, bits=(30,))],
        seeds=[0],
    )
    telemetry.enable()
    with ResultStore(tmp_path / "store") as store:
        run_campaign(spec, store, workers=0)
    payload = telemetry.export_trace(tmp_path / "trace.json")
    events = {e["name"]: e for e in payload["traceEvents"]}
    assert events["campaign.warm_models"]["args"]["models"] == 1
    assert events["campaign.pack"]["args"]["trials"] == 1


# ------------------------------------------------------------------ logging
def test_get_logger_env_level_and_no_duplicate_handlers(monkeypatch):
    root = logging.getLogger("repro")
    real_root = logging.getLogger()
    saved = (list(root.handlers), root.level, list(real_root.handlers))
    try:
        # Fresh world: first get_logger installs exactly one handler.
        root.handlers.clear()
        real_root.handlers.clear()
        root.setLevel(logging.NOTSET)
        get_logger("t1")
        assert len(root.handlers) == 1
        assert root.level == logging.INFO
        # A second import-time call (as a forked worker would make) must not
        # add a second handler — that is the double-logging bug.
        get_logger("t2")
        assert len(root.handlers) == 1
        # Application-configured logging (a handler on the *real* root, as
        # pytest/caplog or a host app installs): we must not add our own.
        root.handlers.clear()
        root.setLevel(logging.NOTSET)
        real_root.addHandler(logging.NullHandler())
        get_logger("t3")
        assert root.handlers == []
        # REPRO_LOG_LEVEL wins, by name or number; junk is ignored.
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        get_logger("t4")
        assert root.level == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG_LEVEL", "41")
        get_logger("t5")
        assert root.level == 41
        monkeypatch.setenv("REPRO_LOG_LEVEL", "not-a-level")
        get_logger("t6")
        assert root.level == 41  # unchanged, not crashed
    finally:
        root.handlers[:] = saved[0]
        root.setLevel(saved[1])
        real_root.handlers[:] = saved[2]
