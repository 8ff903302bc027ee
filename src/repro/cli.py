"""Command-line interface: run the reproduction experiments from a shell.

Examples
--------
::

    python -m repro zoo                                  # list/train models
    python -m repro characterize --model opt-mini        # Q1.3 sweep
    python -m repro characterize --seeds 5 --workers 4   # Monte-Carlo fan-out
    python -m repro magfreq --model opt-mini --component O
    python -m repro sweep --model opt-mini --method statistical-abft
    python -m repro sweetspots --model opt-mini
    python -m repro overhead --size 256                  # Fig. 8
    python -m repro campaign example > grid.json         # campaign engine
    python -m repro campaign run --spec grid.json --workers 4
    python -m repro campaign status --spec grid.json
    python -m repro campaign report --spec grid.json --csv results.csv
    python -m repro campaign report --spec grid.json --costs
    python -m repro backend list                         # GEMM backends
    python -m repro campaign run --spec grid.json --backend native
    python -m repro campaign run --spec grid.json --workers 4 \\
        --trial-timeout 60 --max-retries 3               # supervision knobs
    python -m repro campaign run --spec grid.json --chaos "seed=1,kill=0.5"
    python -m repro campaign quarantine list --spec grid.json
    python -m repro campaign quarantine clear --spec grid.json
    python -m repro campaign serve --spec grid.json --port 8321  # fabric broker
    python -m repro campaign worker --connect http://127.0.0.1:8321
    python -m repro campaign watch --spec grid.json --store /shared/store
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import repro.telemetry as telemetry
from repro.campaigns.progress import (
    read_latest_progress,
    render_metrics,
    render_snapshot,
)
from repro.campaigns.report import aggregate, export_csv, report_table, status_table
from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec, Trial, example_spec
from repro.campaigns.store import ResultStore, default_store_dir
from repro.characterization.evaluator import ModelEvaluator
from repro.characterization.questions import (
    q13_campaign_spec,
    q13_components,
    q14_campaign_spec,
    q14_magfreq,
)
from repro.circuits.synthesis import overhead_report
from repro.core.methods import method_names
from repro.core.realm import ReaLMConfig, ReaLMPipeline
from repro.errors.sites import Component, component_kind
from repro.training.zoo import ZOO_SPECS, get_pretrained
from repro.utils.tables import format_table


def _add_model_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="opt-mini", choices=sorted(ZOO_SPECS),
        help="zoo model to use (trained and cached on first use)",
    )


def _add_seed_args(parser: argparse.ArgumentParser, fan_out: bool) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, help="root error-injection seed",
    )
    if fan_out:
        parser.add_argument(
            "--seeds", type=int, default=1,
            help="fan the sweep out to N seeds (seed..seed+N-1) via the "
                 "campaign engine and report mean +/- stderr",
        )
        parser.add_argument(
            "--workers", type=int, default=0,
            help="worker processes for the fanned-out campaign (0 = serial)",
        )


def _pipeline(args: argparse.Namespace) -> ReaLMPipeline:
    bundle = get_pretrained(args.model)
    return ReaLMPipeline(
        bundle, ReaLMConfig(task=args.task, budget=args.budget, seed=args.seed)
    )


def _run_cli_campaign(spec: CampaignSpec, workers: int):
    """Run a CLI-built campaign in its default store; return (store, report).

    The caller is responsible for closing the returned store (``with store:``);
    on executor failure it is closed here before re-raising.
    """
    from repro.campaigns.executor import run_campaign

    store = ResultStore(default_store_dir(spec.name))
    try:
        report = run_campaign(spec, store, workers=workers)
    except BaseException:
        store.close()
        raise
    return store, report


def _with_errors(args: argparse.Namespace, report, text: str) -> str:
    """Append per-trial failure lines and flag a nonzero exit on failures."""
    if report.failed:
        text += "\n" + "\n".join(f"FAILED {line}" for line in report.errors)
        args.exit_code = 1
    return text


def cmd_zoo(args: argparse.Namespace) -> str:
    rows = []
    for name, spec in sorted(ZOO_SPECS.items()):
        cfg = spec["config"]
        rows.append(
            [name, cfg["arch"], cfg["n_layers"], cfg["d_model"], cfg["vocab_size"]]
        )
    out = format_table(
        ["name", "arch", "layers", "d_model", "vocab"], rows, title="Model zoo"
    )
    if args.train:
        for name in sorted(ZOO_SPECS):
            bundle = get_pretrained(name)
            out += f"\ntrained {name}: final loss {bundle.final_loss:.4f}"
    return out


def cmd_characterize(args: argparse.Namespace) -> str:
    bers = [float(b) for b in args.bers.split(",")]
    if args.seeds > 1:
        spec = q13_campaign_spec(
            args.model, args.task, bers,
            seeds=range(args.seed, args.seed + args.seeds),
        )
        store, campaign = _run_cli_campaign(spec, args.workers)
        with store:
            rows = [
                [
                    s.trial.site.components[0],
                    component_kind(Component(s.trial.site.components[0])),
                    f"{s.trial.error.ber:.0e}",
                    s.n,
                    s.mean_score,
                    s.mean_degradation,
                    s.stderr,
                ]
                for s in aggregate(store, spec)
            ]
        return _with_errors(args, campaign, format_table(
            ["component", "kind", "BER", "seeds", "score", "degradation", "+/-"],
            rows,
            title=f"Q1.3 component resilience — {args.model} / {args.task} "
                  f"({campaign.summary()})",
        ))
    evaluator = ModelEvaluator(get_pretrained(args.model), args.task)
    records = q13_components(evaluator, bers=bers, seed=args.seed)
    rows = [
        [r.label, component_kind(Component(r.label)), f"{r.ber:.0e}",
         r.score, r.degradation]
        for r in records
    ]
    return format_table(
        ["component", "kind", "BER", "score", "degradation"], rows,
        title=f"Q1.3 component resilience — {args.model} / {args.task} "
              f"(clean={evaluator.clean_score:.4g})",
    )


def cmd_magfreq(args: argparse.Namespace) -> str:
    component = Component(args.component)
    if args.seeds > 1:
        spec = q14_campaign_spec(
            args.model, args.task, component,
            seeds=range(args.seed, args.seed + args.seeds),
        )
        store, campaign = _run_cli_campaign(spec, args.workers)
        with store:
            summaries = aggregate(store, spec)
        rows = [
            [s.trial.error.mag, s.trial.error.freq,
             s.trial.error.mag * s.trial.error.freq, s.n,
             s.mean_degradation, s.stderr]
            for s in summaries
        ]
        return _with_errors(args, campaign, format_table(
            ["mag", "freq", "MSD", "seeds", "degradation", "+/-"], rows,
            title=f"Q1.4 magnitude/frequency grid — {component.value} "
                  f"({component_kind(component)}) ({campaign.summary()})",
        ))
    evaluator = ModelEvaluator(get_pretrained(args.model), args.task)
    records = q14_magfreq(evaluator, component, seed=args.seed)
    rows = [
        [r.extra["mag"], r.extra["freq"], r.extra["msd"], r.degradation]
        for r in records
    ]
    return format_table(
        ["mag", "freq", "MSD", "degradation"], rows,
        title=f"Q1.4 magnitude/frequency grid — {component.value} "
              f"({component_kind(component)})",
    )


def cmd_sweep(args: argparse.Namespace) -> str:
    pipe = _pipeline(args)
    runs = pipe.voltage_sweep(args.method, None)
    rows = [
        [f"{r.voltage:.2f}", f"{r.ber:.1e}", r.metric, r.degradation,
         f"{100*r.recovery_rate:.1f}%", r.energy_j * 1e6,
         "yes" if r.feasible else "NO"]
        for r in runs
    ]
    return format_table(
        ["V", "BER", "metric", "degradation", "recovery", "energy (uJ)", "feasible"],
        rows,
        title=f"voltage sweep — {args.method} on {args.model} (whole model)",
    )


def cmd_sweetspots(args: argparse.Namespace) -> str:
    pipe = _pipeline(args)
    rows_raw = pipe.sweet_spot_table(list(pipe.bundle.config.components))
    rows = [
        [r.component, r.kind, f"{r.optimal_voltage:.2f}", r.energy_j * 1e9,
         r.baseline_method, f"{r.saving_pct:.2f}%"]
        for r in rows_raw
    ]
    return format_table(
        ["component", "kind", "our V*", "our E (nJ)", "baseline", "saving"],
        rows,
        title=f"Tab. II sweet spots — {args.model}",
    )


def cmd_overhead(args: argparse.Namespace) -> str:
    rows = [
        [r.dataflow, r.scheme, r.area_mm2, f"{r.area_overhead_pct:.3f}%",
         r.power_mw, f"{r.power_overhead_pct:.3f}%"]
        for r in overhead_report(args.size)
    ]
    return format_table(
        ["dataflow", "scheme", "area (mm^2)", "area ovh", "power (mW)", "power ovh"],
        rows,
        title=f"Fig. 8 circuit overhead at {args.size}x{args.size}",
    )


# ----------------------------------------------------------------- campaigns
class CliError(Exception):
    """Bad user input: :func:`main` prints it as one stderr line and
    exits 2, instead of a traceback."""


def _spec_problem(exc: Exception) -> str:
    """One-line reason for a spec validation error."""
    reason = str(exc.args[0]) if exc.args else type(exc).__name__
    if isinstance(exc, KeyError) and " " not in reason:
        return f"missing key {reason!r}"  # a required JSON key is absent
    return reason


def _load_spec(
    args: argparse.Namespace, backend: Optional[str] = None
) -> CampaignSpec:
    """Read and validate ``--spec`` (with ``backend`` overriding its
    GEMM backend); any problem raises :class:`CliError`."""
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        reason = exc.strerror or exc
        raise CliError(f"cannot read spec {args.spec}: {reason}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"spec {args.spec} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CliError(f"spec {args.spec} must be a JSON object")
    if backend is not None:
        payload["backend"] = backend
    try:
        return CampaignSpec.from_dict(payload)
    except (KeyError, ValueError) as exc:
        raise CliError(f"invalid spec {args.spec}: {_spec_problem(exc)}") from None


def _open_store(
    args: argparse.Namespace, spec: CampaignSpec, create: bool = True
) -> ResultStore:
    directory = Path(args.store) if args.store else default_store_dir(spec.name)
    return ResultStore(directory, create=create)


def cmd_backend_list(args: argparse.Namespace) -> str:
    """Enumerate registered GEMM backends with availability and timings."""
    import numpy as np

    from repro.dispatch.backends import list_backends

    shapes = [(32, 64, 64), (64, 256, 64), (128, 512, 128)]
    operands = []
    rng = np.random.default_rng(0)
    if not args.no_timing:
        for m, k, n in shapes:
            a = rng.integers(-127, 128, size=(m, k), dtype=np.int8)
            b = rng.integers(-127, 128, size=(k, n), dtype=np.int8)
            operands.append((a, b))
    rows = []
    for backend in list_backends():
        available = backend.available()
        row = [
            backend.name,
            "yes" if available else f"no ({backend.why_unavailable()})",
            "yes" if backend.threaded else "no",
            backend.kernel() if available else "-",
        ]
        if not args.no_timing:
            if available:
                timings = []
                for a, b in operands:
                    backend.matmul_int32(a, b)  # warm
                    best = min(
                        _time_once(backend, a, b) for _ in range(3)
                    )
                    timings.append(f"{best * 1e3:.2f}")
                row.append(" / ".join(timings))
            else:
                row.append("-")
        rows.append(row)
    header = ["backend", "available", "threaded", "kernel"]
    if not args.no_timing:
        shape_label = ", ".join("x".join(map(str, s)) for s in shapes)
        header.append(f"ms ({shape_label})")
    return format_table(header, rows, title="registered GEMM backends")


def _time_once(backend, a, b) -> float:
    start = time.perf_counter()
    backend.matmul_int32(a, b)
    return time.perf_counter() - start


def cmd_campaign_run(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.campaigns.chaos import ChaosSpec
    from repro.campaigns.executor import run_campaign
    from repro.campaigns.supervise import SuperviseConfig

    if args.trace:
        telemetry.enable()
    spec = _load_spec(args, backend=args.backend)
    supervise = None
    if args.trial_timeout is not None or args.max_retries is not None:
        overrides = {}
        if args.trial_timeout is not None:
            overrides["trial_timeout"] = args.trial_timeout
        if args.max_retries is not None:
            overrides["max_retries"] = args.max_retries
        supervise = dataclasses.replace(
            spec.supervise or SuperviseConfig(), **overrides
        )
    chaos = ChaosSpec.from_string(args.chaos) if args.chaos else None
    with _open_store(args, spec) as store:
        lanes = {} if args.lanes is None else {"lane_width": args.lanes}
        report = run_campaign(
            spec, store, workers=args.workers,
            supervise=supervise, chaos=chaos, **lanes,
        )
        out = [f"campaign {spec.name}: {report.summary()}"]
        out.extend(f"FAILED {line}" for line in report.errors)
        if report.quarantined or report.poison_skipped:
            out.append(
                "quarantined trials persist across runs; inspect with "
                "`campaign quarantine list`, re-enable with "
                "`campaign quarantine clear`"
            )
        out.append(f"store: {store.directory}")
        out.append("")
        out.append(report_table(store, spec))
    if args.trace:
        telemetry.export_trace(
            args.trace,
            extra={
                "metrics": telemetry.runtime_snapshot(),
                "gemmSites": telemetry.gemm_trace().rows(),
            },
        )
        out.append(f"trace: {args.trace}")
    if report.failed or report.quarantined:
        args.exit_code = 1  # scripts/CI must not see a failed campaign as success
    return "\n".join(out)


def cmd_campaign_status(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    try:
        store = _open_store(args, spec, create=False)
    except FileNotFoundError as exc:
        args.exit_code = 1
        return f"{exc} — the campaign has not run (or --store is mistyped)"
    with store:
        out = status_table(spec, store)
        directory = store.directory
        if args.history:
            history = store.progress_history()
            Path(args.history).write_text(json.dumps(history, indent=2))
            out += f"\nwrote {len(history)} progress snapshot(s) to {args.history}"
    if args.metrics:
        snapshot = read_latest_progress(directory)
        if snapshot is None:
            out += "\n\nno progress snapshots recorded yet"
        else:
            out += "\n\n" + render_metrics(snapshot)
    return out


def cmd_campaign_watch(args: argparse.Namespace) -> str:
    """Live progress: poll the store's ``progress`` table, frame by frame.

    Reads go through :func:`~repro.campaigns.progress.read_latest_progress`
    — a bare read-only SQLite connection — so watching never writes to a
    store another process is running a campaign into.
    """
    spec = _load_spec(args)
    directory = Path(args.store) if args.store else default_store_dir(spec.name)
    remaining = args.refreshes
    last = None
    while True:
        snapshot = read_latest_progress(directory)
        if snapshot is None:
            print(f"waiting for campaign {spec.name} to start ...", flush=True)
        else:
            last = snapshot
            print(render_snapshot(snapshot), flush=True)
            if snapshot.get("state") == "finished":
                break
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                break
        time.sleep(args.interval)
    if last is None:
        args.exit_code = 1
        return f"no progress recorded in {directory}"
    return f"campaign {spec.name}: {last.get('state', '?')}"


def cmd_campaign_report(args: argparse.Namespace) -> str:
    spec = _load_spec(args)
    try:
        store = _open_store(args, spec, create=False)
    except FileNotFoundError as exc:
        args.exit_code = 1
        return f"{exc} — the campaign has not run (or --store is mistyped)"
    with store:
        out = report_table(store, spec, costs=args.costs)
        if args.csv:
            rows = export_csv(store, args.csv, spec)
            out += f"\nwrote {rows} rows to {args.csv}"
    return out


def cmd_campaign_example(args: argparse.Namespace) -> str:
    return example_spec().to_json()


def cmd_campaign_serve(args: argparse.Namespace) -> str:
    """Run the fabric broker: lease the spec's packs to a worker fleet.

    With ``--spec``, runs that campaign and exits when it finishes (or when
    SIGTERM/SIGINT aborts it — the lease journal survives, so rerunning the
    same command resumes). With ``--serve-forever``, stays up afterwards
    accepting further specs over ``POST /api/v1/campaigns``.
    """
    import dataclasses
    import signal as signal_mod
    import threading

    from repro.campaigns.chaos import ChaosSpec
    from repro.campaigns.supervise import SuperviseConfig
    from repro.fabric.broker import BrokerConfig, FabricBroker

    spec = _load_spec(args) if args.spec else None
    if spec is None and not args.store:
        args.exit_code = 2
        return "campaign serve needs --spec and/or --store"
    directory = Path(args.store) if args.store else default_store_dir(spec.name)
    supervise = spec.supervise if spec is not None else None
    overrides = {}
    if args.trial_timeout is not None:
        overrides["trial_timeout"] = args.trial_timeout
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if overrides:
        supervise = dataclasses.replace(supervise or SuperviseConfig(), **overrides)
    chaos = ChaosSpec.from_string(args.chaos) if args.chaos else None
    config = BrokerConfig(
        host=args.host,
        port=args.port,
        heartbeat_s=args.heartbeat,
        local_grace_s=args.grace,
        local_workers=args.local_workers,
    )
    if args.lanes is not None:
        config.lane_width = args.lanes
    broker = FabricBroker(directory, config=config, supervise=supervise, chaos=chaos)
    broker.start()
    print(f"fabric broker listening on {broker.url}", flush=True)
    print(f"store: {directory}", flush=True)
    interrupted = threading.Event()
    for sig in (signal_mod.SIGTERM, signal_mod.SIGINT):
        signal_mod.signal(sig, lambda *_: interrupted.set())
    if spec is not None:
        broker.submit(spec, lane_width=args.lanes)
    try:
        if spec is not None and not args.serve_forever:
            while not interrupted.is_set():
                try:
                    report = broker.wait(spec.name, timeout=0.5)
                except TimeoutError:
                    continue
                broker.stop()
                if report.failed or report.quarantined:
                    args.exit_code = 1
                return f"campaign {spec.name}: {report.summary()}\nstore: {directory}"
        else:
            while not interrupted.is_set():
                interrupted.wait(0.5)
    except BaseException:
        broker.stop(abort=True)
        raise
    # Signaled: abort the active campaign so its lease journal survives for
    # the next broker to resume from.
    broker.stop(abort=True)
    args.exit_code = 130
    return f"broker interrupted; lease journal in {directory} resumes the campaign"


def cmd_campaign_worker(args: argparse.Namespace) -> str:
    """Run one fleet worker against a broker started by ``campaign serve``."""
    from repro.fabric.worker import FabricWorker, WorkerConfig

    config = WorkerConfig(
        url=args.connect,
        worker_id=args.id or "",
        max_idle_s=args.max_idle,
    )
    worker = FabricWorker(config)
    worker.install_signal_handlers()
    args.exit_code = worker.run()
    return f"worker {config.worker_id} exited ({args.exit_code})"


def cmd_campaign_quarantine(args: argparse.Namespace) -> str:
    """Inspect or clear the store's poison-trial quarantine (DESIGN.md §12)."""
    spec = _load_spec(args)
    try:
        store = _open_store(args, spec, create=False)
    except FileNotFoundError as exc:
        args.exit_code = 1
        return f"{exc} — the campaign has not run (or --store is mistyped)"
    with store:
        if args.quarantine_command == "clear":
            keys = set(args.keys) if args.keys else None
            removed = store.clear_quarantine(keys)
            return (
                f"cleared {removed} quarantined trial(s); "
                "the next `campaign run` retries them"
            )
        records = store.quarantined_records()
        if not records:
            return "no quarantined trials"
        rows = []
        for record in records:
            failure = record.get("failure", {})
            try:
                label = Trial.from_dict(record["trial"]).cell_label
                seed = record["trial"].get("seed", "?")
            except (KeyError, TypeError, ValueError):
                label, seed = record.get("cell", "?"), "?"
            rows.append([
                record["key"],
                f"{label}#s{seed}",
                failure.get("kind", "?"),
                failure.get("attempts", "?"),
                str(failure.get("error", "?"))[:60],
            ])
        return format_table(
            ["key", "trial", "kind", "attempts", "last error"],
            rows,
            title=f"{len(records)} quarantined trial(s)",
        )


# ------------------------------------------------------------------- tracing
def cmd_trace_export(args: argparse.Namespace) -> str:
    """Trace one injected trial and write a Chrome-trace JSON.

    The export carries the span timeline plus, under the ``"repro"`` key, a
    metrics snapshot and the per-``GemmSite`` table correlating measured
    wall time with the cost model's tiles/cycles/MACs (DESIGN.md section
    10). Load the file in chrome://tracing or https://ui.perfetto.dev.
    """
    from repro.campaigns.lanes import build_injector, build_protector
    from repro.dispatch.cost import CostSpec

    telemetry.enable()
    trial = Trial(
        model=args.model,
        task=args.task,
        site=SiteSpec.only(components=[args.component], stages=["prefill"]),
        error=ErrorSpec.bitflip(args.ber, bits=(30,)),
        seed=args.seed,
    )
    evaluator = ModelEvaluator(get_pretrained(args.model), args.task)
    cost_instrument = CostSpec().build()
    injector = build_injector(trial)
    protector = build_protector(trial, evaluator, None)
    telemetry.gemm_trace().reset()
    score = evaluator.run(injector, protector, cost=cost_instrument)
    rows = telemetry.gemm_trace().rows(cost_instrument.report)
    payload = telemetry.export_trace(
        args.out,
        extra={
            "trial": trial.to_dict(),
            "score": score,
            "degradation": evaluator.degradation(score),
            "metrics": telemetry.runtime_snapshot(),
            "gemmSites": rows,
        },
    )
    out = [
        f"traced {args.model}/{args.task} {args.component}@BER={args.ber:g} "
        f"seed={args.seed}: score {score:.4g} "
        f"(degradation {evaluator.degradation(score):.4g})",
        f"wrote {len(payload['traceEvents'])} span events to {args.out}",
        "",
        format_table(
            ["site", "calls", "replays", "wall (s)", "MACs", "cycles", "tiles"],
            [
                [
                    r["site"], r["calls"], r["replays"], r["wall_s"],
                    r["macs"], r.get("cycles", "-"), r.get("tiles", "-"),
                ]
                for r in rows[: args.top]
            ],
            title="hottest GEMM sites (measured wall vs. modeled cost)",
        ),
    ]
    return "\n".join(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ReaLM (DAC 2025) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list (and optionally pre-train) zoo models")
    p.add_argument("--train", action="store_true", help="train every model now")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("characterize", help="Q1.3 per-component BER sweep")
    _add_model_arg(p)
    p.add_argument("--task", default="perplexity")
    p.add_argument("--bers", default="1e-4,1e-3,1e-2", help="comma-separated BERs")
    _add_seed_args(p, fan_out=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("magfreq", help="Q1.4 magnitude/frequency grid")
    _add_model_arg(p)
    p.add_argument("--task", default="perplexity")
    p.add_argument("--component", default="O",
                   choices=[c.value for c in Component])
    _add_seed_args(p, fan_out=True)
    p.set_defaults(func=cmd_magfreq)

    p = sub.add_parser("sweep", help="Fig. 9 voltage sweep for one method")
    _add_model_arg(p)
    p.add_argument("--task", default="perplexity")
    p.add_argument("--budget", type=float, default=0.3)
    p.add_argument("--method", default="statistical-abft", choices=method_names())
    _add_seed_args(p, fan_out=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sweetspots", help="Tab. II per-component sweet spots")
    _add_model_arg(p)
    p.add_argument("--task", default="perplexity")
    p.add_argument("--budget", type=float, default=0.3)
    _add_seed_args(p, fan_out=False)
    p.set_defaults(func=cmd_sweetspots)

    p = sub.add_parser("overhead", help="Fig. 8 circuit overhead report")
    p.add_argument("--size", type=int, default=256)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("campaign", help="fault-injection campaign engine")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="run (or resume) a campaign spec")
    c.add_argument("--spec", required=True, help="path to a campaign spec JSON")
    c.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = serial in-process)")
    c.add_argument("--lanes", type=int, default=None,
                   help="max trials packed into one batched forward "
                        "(default: the library's lane width; 1 = per-trial "
                        "execution; results are bit-identical)")
    c.add_argument("--store", default=None,
                   help="result-store directory (default: cache dir by name)")
    c.add_argument("--backend", default=None,
                   help="GEMM backend for every trial (see `repro backend list`)")
    c.add_argument("--trace", default=None, metavar="PATH",
                   help="enable span telemetry and write a Chrome-trace JSON "
                        "of the whole run here (results stay bit-identical)")
    c.add_argument("--trial-timeout", type=float, default=None, metavar="S",
                   help="per-trial lease budget in seconds; a pack's lease "
                        "deadline is this times its lane count (default: "
                        "spec's supervise config, else 300)")
    c.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="trial-level retries before a failing trial is "
                        "quarantined (default: spec's supervise config, "
                        "else 2)")
    c.add_argument("--chaos", default=None, metavar="SPEC",
                   help='deterministic fault injection, e.g. '
                        '"seed=1,kill=0.5,exc=0.25,hang=0.1,shm=0.5,'
                        'torn=0.5,poison=0.1" (or a JSON object; '
                        '$REPRO_CHAOS is honored when absent)')
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser("status", help="completion status of a campaign")
    c.add_argument("--spec", required=True)
    c.add_argument("--store", default=None)
    c.add_argument("--metrics", action="store_true",
                   help="also show the merged telemetry metrics from the "
                        "latest progress snapshot")
    c.add_argument("--history", default=None, metavar="PATH",
                   help="also dump the store's progress-snapshot history "
                        "as JSON here (CI artifact)")
    c.set_defaults(func=cmd_campaign_status)

    c = csub.add_parser("watch", help="live progress of a running campaign")
    c.add_argument("--spec", required=True)
    c.add_argument("--store", default=None)
    c.add_argument("--interval", type=float, default=1.0,
                   help="seconds between refreshes")
    c.add_argument("--refreshes", type=int, default=None,
                   help="stop after N refreshes (default: until finished)")
    c.set_defaults(func=cmd_campaign_watch)

    c = csub.add_parser("report", help="aggregate a campaign's results")
    c.add_argument("--spec", required=True)
    c.add_argument("--store", default=None)
    c.add_argument("--csv", default=None, help="also export raw trials as CSV")
    c.add_argument("--costs", action="store_true",
                   help="show the measured hardware-cost columns "
                        "(cycles / recovered MACs / energy) per cell")
    c.set_defaults(func=cmd_campaign_report)

    c = csub.add_parser("example", help="print a ready-to-run example spec")
    c.set_defaults(func=cmd_campaign_example)

    c = csub.add_parser("serve", help="fabric broker: lease packs to a "
                                      "worker fleet over HTTP/JSON")
    c.add_argument("--spec", default=None,
                   help="campaign spec to run (omit to idle until specs "
                        "arrive via POST /api/v1/campaigns)")
    c.add_argument("--store", default=None,
                   help="result-store directory (default: cache dir by "
                        "spec name; required without --spec)")
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick a free one, printed "
                        "at startup)")
    c.add_argument("--heartbeat", type=float, default=2.0, metavar="S",
                   help="worker heartbeat cadence; leases with no "
                        "heartbeat for 3.5x this are stolen and requeued")
    c.add_argument("--grace", type=float, default=15.0, metavar="S",
                   help="degrade-to-local window: with no live workers "
                        "for this long, packs run on an in-process "
                        "supervised pool")
    c.add_argument("--local-workers", type=int, default=2,
                   help="pool size of the degrade-to-local fallback "
                        "(0 disables it)")
    c.add_argument("--serve-forever", action="store_true",
                   help="keep serving after --spec finishes")
    c.add_argument("--lanes", type=int, default=None,
                   help="max trials packed into one batched forward")
    c.add_argument("--trial-timeout", type=float, default=None, metavar="S")
    c.add_argument("--max-retries", type=int, default=None, metavar="N")
    c.add_argument("--chaos", default=None, metavar="SPEC",
                   help="deterministic fault injection (see `campaign run "
                        "--chaos`; includes net faults drop/dup/delay/"
                        "disconnect applied in the workers)")
    c.set_defaults(func=cmd_campaign_serve)

    c = csub.add_parser("worker", help="fleet worker: pull leases from a "
                                       "fabric broker and execute them")
    c.add_argument("--connect", required=True, metavar="URL",
                   help="broker URL printed by `campaign serve`")
    c.add_argument("--id", default=None,
                   help="worker id (default: w-<host>-<pid>)")
    c.add_argument("--max-idle", type=float, default=None, metavar="S",
                   help="exit after this long without work (default: "
                        "serve until SIGTERM)")
    c.set_defaults(func=cmd_campaign_worker)

    c = csub.add_parser("quarantine",
                        help="inspect/clear the poison-trial quarantine")
    qsub = c.add_subparsers(dest="quarantine_command", required=True)
    q = qsub.add_parser("list", help="show quarantined trials and why")
    q.add_argument("--spec", required=True)
    q.add_argument("--store", default=None)
    q.set_defaults(func=cmd_campaign_quarantine)
    q = qsub.add_parser("clear", help="remove trials from the quarantine "
                                      "so the next run retries them")
    q.add_argument("--spec", required=True)
    q.add_argument("--store", default=None)
    q.add_argument("keys", nargs="*",
                   help="trial keys to clear (default: all)")
    q.set_defaults(func=cmd_campaign_quarantine)

    p = sub.add_parser("backend", help="GEMM backend registry tooling")
    bsub = p.add_subparsers(dest="backend_command", required=True)

    b = bsub.add_parser("list", help="registered backends + availability")
    b.add_argument("--no-timing", action="store_true",
                   help="skip the per-backend micro-timings")
    b.set_defaults(func=cmd_backend_list)

    p = sub.add_parser("trace", help="span telemetry / Chrome-trace tooling")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser("export", help="trace one injected trial to JSON")
    t.add_argument("--out", required=True, help="Chrome-trace JSON output path")
    _add_model_arg(t)
    t.add_argument("--task", default="perplexity")
    t.add_argument("--component", default="O",
                   choices=[c.value for c in Component])
    t.add_argument("--ber", type=float, default=1e-3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--top", type=int, default=10,
                   help="GEMM-site rows to print (the JSON has all of them)")
    t.set_defaults(func=cmd_trace_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
    except CliError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return getattr(args, "exit_code", 0)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
