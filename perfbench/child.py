"""One cold campaign in a fresh process, timed from the process start.

``run.py`` launches this script once per timed repetition, passing the
wall-clock time at which it launched the process (``--t0``), so every
time it reports includes interpreter start and imports, exactly as a user's
``campaign run`` pays them. The campaign is driven through the program's
public API the way ``campaign run`` and ``campaign serve`` drive it. The
last line of standard output is one JSON object with the measurements.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/child.py --workload q13-mc --seed 1 \\
        --store .perfbench/run/store --t0 "$(date +%s.%N)" \\
        [--trace-dir .perfbench/out/q13-mc-seed1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-dir", default=None,
                        help="traced run: install probes, enable telemetry, "
                             "write the Perfetto trace.json here")
    return parser.parse_args()


class _StoreClock:
    """First/last wall time a result reached the store (``ResultStore.add``)."""

    def __init__(self) -> None:
        self.first = self.last = None
        self.count = 0

    def install(self) -> None:
        from repro.campaigns.store import ResultStore

        add = ResultStore.add
        clock = self

        def timed_add(store, trial, result):
            add(store, trial, result)
            now = time.time()
            if clock.first is None:
                clock.first = now
            clock.last = now
            clock.count += 1

        ResultStore.add = timed_add


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _run_fabric(spec, store_dir: Path, traced: bool):
    """Broker in this process, two ``campaign worker`` subprocesses."""
    from repro.fabric.broker import BrokerConfig, FabricBroker

    # local_workers=0: never degrade to an in-process pool; every pack
    # must cross the HTTP lease protocol.
    broker = FabricBroker(store_dir, config=BrokerConfig(local_workers=0))
    broker.start()
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY", None)
    if traced:
        env["REPRO_TELEMETRY"] = "1"
    command = [sys.executable, str(HERE / "fabric_worker.py"),
               "--connect", broker.url, "--max-idle", "120"]
    if traced:
        command.append("--trace")
    workers = [subprocess.Popen(command, env=env) for _ in range(2)]
    try:
        broker.submit(spec)
        report = broker.wait(spec.name, timeout=170)
        finished = time.time()
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in workers:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        broker.stop()
    return report, finished


def main() -> int:
    args = _parse()
    traced = args.trace_dir is not None
    if traced:
        import repro.telemetry as telemetry
        import probes

        telemetry.enable()
        probes.install()
    from repro.campaigns.executor import run_campaign
    from repro.campaigns.store import ResultStore
    from workloads import WORKLOADS, build_spec

    workload = WORKLOADS[args.workload]
    spec = build_spec(workload, args.seed)
    store_dir = Path(args.store)
    clock = _StoreClock()
    clock.install()

    called = time.time()
    if workload.route == "fabric":
        report, finished = _run_fabric(spec, store_dir, traced)
    else:
        with ResultStore(store_dir) as store:
            report = run_campaign(spec, store, workers=workload.workers)
            finished = time.time()
    if clock.count < 2:
        raise SystemExit(f"only {clock.count} result(s) stored; nothing to time")
    out = {
        "campaign_s": finished - args.t0,
        "setup_s": clock.first - args.t0,
        "startup_s": called - args.t0,
        "trials_per_s": (clock.count - 1) / (clock.last - clock.first),
        "total": report.total,
        "executed": report.executed,
        "failed": report.failed + report.quarantined,
        "errors": report.errors[:5],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if traced:
        from analysis import per_layer

        out["per_layer"], out["spans"] = per_layer(
            workload, store_dir, Path(args.trace_dir), campaign_s=out["campaign_s"],
            startup_s=out["startup_s"],
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
