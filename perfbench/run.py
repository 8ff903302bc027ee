"""End-to-end campaign benchmark: time from process start to a finished store.

Each timed repetition runs one workload's campaign cold (empty store) in a
fresh process (``child.py``) through ``run_campaign`` — serially, on the
supervised pool, or through the fabric broker with two worker
subprocesses — and times it from outside. The repetitions continue while
another one still fits in ``--seconds``; there is always at least one.
After each repetition ``resume.py`` re-runs the finished campaign in a
fresh process for a few seconds (``resume_s``); a run with a single
repetition takes a second such burst after the gate, so the re-runs of
every run are sampled at two moments several seconds apart. Outside every
timed interval ``gate.py`` re-scores one trial per cell through the solo
reference route and compares the stores bit for bit.

With ``--trace 1`` one untraced repetition is followed by a traced one,
with the per-layer probes (``probes.py``) and the program's telemetry
switched on; it reports per-layer calls, seconds and ratios, the tracing
overhead against the untraced repetition, and writes a Perfetto trace plus
a per-layer JSON under ``.perfbench/out/<workload>-seed<seed>/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload q13-mc --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Zoo checkpoints
live in ``.perfbench/cache`` (``REPRO_CACHE``) and are trained there once,
before any timing, when missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Settings that change what the program does; a timed run must be the
#: default program, so any of these in the environment refuses the run.
BEHAVIOUR_ENV = (
    "REPRO_GEMM_BACKEND", "REPRO_NO_REPLAY", "REPRO_CHAOS", "REPRO_TELEMETRY",
    "REPRO_STORE_FSYNC", "REPRO_TRACE_CACHE_MB", "REPRO_NO_NATIVE_GEMM",
    "REPRO_NATIVE_GEMM_LIB", "REPRO_NATIVE_GEMM_CC", "REPRO_AUTOTUNE_CACHE",
)
ZOO_MODELS = ("opt-mini", "llama-mini")
RESUME_BURST_S = 3.5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "campaign_s": "s",
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _python(script: str, *args: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a benchmark script in a fresh interpreter; return its JSON line.

    The script gets a process group of its own, so a timeout also ends the
    pool or fabric workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{script} {' '.join(args)} timed out after {timeout}s")
    if proc.returncode != 0:
        _log(stderr[-4000:])
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _cold_campaign(workload: str, seed: int, store: Path,
                   trace_dir: Path | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--store", str(store)]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    launched = time.time()
    return _python("child.py", *args, "--t0", repr(launched))


def _resume_burst(workload: str, seed: int, store: Path) -> list[float]:
    return _python("resume.py", "--workload", workload, "--seed", str(seed),
                   "--store", str(store), "--seconds", str(RESUME_BURST_S))["resume_s"]


def host_fingerprint() -> dict:
    """Where the numbers came from, and which GEMM kernel produced them."""
    import numpy as np

    from repro.dispatch.backends import resolve_backend

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # numpy without the dict form
        blas = "unknown"
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "none"
    backend = resolve_backend(None)
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "cc": cc,
        "numba": importlib.util.find_spec("numba") is not None,
        "gemm_backend": backend.name,
        "gemm_kernel": backend.kernel(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


def prepare_zoo() -> dict:
    """Load (or train, once) every zoo model the workloads use; untimed."""
    from repro.training.zoo import cache_dir, get_pretrained

    out = {}
    for name in ZOO_MODELS:
        cached = (cache_dir() / f"zoo-{name}-seed0.npz").exists()
        start = time.perf_counter()
        get_pretrained(name)
        out[name] = {"cached": cached, "seconds": time.perf_counter() - start}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        _log(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
        return 2
    behaviour = [k for k in BEHAVIOUR_ENV if k in os.environ]
    if behaviour:
        _log(f"refusing to time a non-default program: {', '.join(behaviour)} set")
        return 2
    os.environ["REPRO_CACHE"] = str(WORK / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    host = host_fingerprint()
    zoo = prepare_zoo()
    print(f"host: {json.dumps(host)}")
    print(f"zoo checkpoints (untimed): {json.dumps(zoo)}")

    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runs, stores, resumes = [], [], []
        campaigns_s = 0.0  # wall time of the cold campaigns, bursts excluded
        while True:
            store = run_dir / f"store{len(runs)}"
            began = time.monotonic()
            runs.append(_cold_campaign(args.workload, args.seed, store))
            campaigns_s += time.monotonic() - began
            stores.append(store)
            # A traced run needs one untraced campaign, the baseline of
            # telemetry.overhead_pct, and reports no end-to-end metric.
            if args.trace:
                break
            resumes += _resume_burst(args.workload, args.seed, store)
            if campaigns_s + runs[-1]["campaign_s"] > args.seconds:
                break
        traced = None
        if args.trace:
            out_dir = WORK / "out" / f"{args.workload}-seed{args.seed}"
            store = run_dir / "traced"
            traced = _cold_campaign(args.workload, args.seed, store, trace_dir=out_dir)
            stores.append(store)
        gate = _python("gate.py", "--workload", args.workload, "--seed", str(args.seed),
                       *[arg for s in stores for arg in ("--store", str(s))])
        if len(runs) == 1 and not args.trace:
            resumes += _resume_burst(args.workload, args.seed, stores[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    campaigns = runs + ([traced] if traced else [])
    attempted = sum(r["total"] for r in campaigns)
    failed = sum(r["failed"] for r in campaigns) + gate["mismatches"]
    for line in gate["problems"]:
        _log(f"gate: {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} cold campaign(s), "
          f"{attempted} trials attempted, {failed} failed, store digest {gate['digest']}")
    print(f"failed_frac: {failed / attempted:.6f} ratio")

    if args.trace:
        metrics = dict(traced["per_layer"])
        untraced = runs[0]["campaign_s"]
        metrics["telemetry.overhead_pct"] = 100.0 * (traced["campaign_s"] / untraced - 1.0)
        from analysis import UNITS, side

        report = {
            "workload": args.workload, "seed": args.seed, "host": host,
            "digest": gate["digest"],
            "metrics": {k: {"value": v, "unit": UNITS[k], "side": side(k)}
                        for k, v in metrics.items()},
            "spans": traced["spans"],
        }
        (out_dir / "perlayer.json").write_text(json.dumps(report, indent=2) + "\n")
        parent_only = sorted(k for k in metrics if side(k) == "parent")
        print(f"trace: {out_dir / 'trace.json'}; per-layer: {out_dir / 'perlayer.json'}")
        print(f"parent-side only: {', '.join(parent_only)}")
        units = UNITS
    else:
        metrics = {
            "campaign_s": statistics.median(r["campaign_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "trials_per_s": statistics.median(r["trials_per_s"] for r in runs),
            # The best repeat, not a median: a resume takes 25-250 ms, and a
            # shared host runs it in fast and slow phases (about 1.4x apart)
            # lasting seconds, so the median and the mean of one run's
            # repeats follow the phase mix; the fastest repeat of bursts
            # taken seconds apart does not.
            "resume_s": min(resumes),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
