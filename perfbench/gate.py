"""Correctness gate: re-score a finished store through the solo route.

Runs in a fresh process, outside every timed interval. It checks that the
store holds exactly the spec's trials and nothing quarantined, then
re-scores one trial per cell through ``evaluate_trial`` — the per-trial
reference route the lane-packed and distributed routes are bit-identical
to — on evaluators built from scratch, and compares every stored result
field bit for bit except ``elapsed_s`` and ``worker``. It also prints a
digest of the whole store with those volatile fields zeroed, which must
be the same for every run of one workload seed, and for every route that
runs the same trials.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/gate.py --workload q13-mc --seed 1 --store DIR [--store DIR2 ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

VOLATILE = ("elapsed_s", "worker")


def _canonical(result: dict) -> str:
    return json.dumps({k: v for k, v in result.items() if k not in VOLATILE},
                      sort_keys=True)


def store_digest(records) -> str:
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.key):
        digest.update(record.key.encode())
        digest.update(json.dumps(record.trial.to_dict(), sort_keys=True).encode())
        digest.update(_canonical(record.result.to_dict()).encode())
    return digest.hexdigest()


def check(workload, seed: int, store_dir: Path) -> dict:
    from repro.campaigns.executor import evaluate_trial
    from repro.campaigns.store import ResultStore
    from repro.characterization.evaluator import ModelEvaluator
    from repro.core.methods import METHODS
    from repro.core.realm import ReaLMConfig, ReaLMPipeline
    from repro.training.zoo import get_pretrained
    from workloads import build_spec

    spec = build_spec(workload, seed)
    trials = spec.expand()
    with ResultStore(store_dir, create=False) as store:
        records = {r.key: r for r in store.records()}
        quarantined = len(store.quarantined_keys())
    problems = []
    missing = [t for t in trials if t.key not in records]
    if missing or len(records) != len(trials):
        problems.append(f"store holds {len(records)} records for {len(trials)} trials "
                        f"({len(missing)} missing)")
    if quarantined:
        problems.append(f"{quarantined} quarantined trial(s)")

    # One trial per cell, walking the seed axis across cells so the gate
    # samples every seed position, not only the first.
    cells: dict[str, list] = {}
    for trial in trials:
        cells.setdefault(trial.cell_id, []).append(trial)
    picks = [group[i % len(group)] for i, group in enumerate(cells.values())]

    evaluators: dict = {}
    pipelines: dict = {}
    for trial in picks:
        stored = records.get(trial.key)
        if stored is None:
            continue
        key = (trial.model, trial.task)
        if key not in evaluators:
            evaluators[key] = ModelEvaluator(get_pretrained(trial.model), trial.task)
        pipeline = None
        if trial.method in METHODS and METHODS[trial.method].behavioral:
            if key not in pipelines:
                evaluator = evaluators[key]
                pipelines[key] = ReaLMPipeline(
                    evaluator.bundle, ReaLMConfig(task=trial.task), evaluator=evaluator
                )
            pipeline = pipelines[key]
        fresh = evaluate_trial(trial, evaluators[key], pipeline, cost=spec.cost,
                               backend=spec.backend)
        if _canonical(fresh.to_dict()) != _canonical(stored.result.to_dict()):
            problems.append(
                f"{trial.cell_label}#s{trial.seed}: stored "
                f"{_canonical(stored.result.to_dict())} != re-scored "
                f"{_canonical(fresh.to_dict())}"
            )
    return {
        "records": len(records),
        "rescored": len(picks),
        "mismatches": len(problems),
        "problems": problems[:5],
        "digest": store_digest(records.values()),
    }


def main() -> int:
    from repro.campaigns.store import ResultStore
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, action="append",
                        help="a finished store; repeat to require identical "
                             "digests (the first one is re-scored)")
    args = parser.parse_args()
    out = check(WORKLOADS[args.workload], args.seed, Path(args.store[0]))
    for other in args.store[1:]:
        with ResultStore(other, create=False) as store:
            digest = store_digest(store.records())
        if digest != out["digest"]:
            out["mismatches"] += 1
            out["problems"].append(f"store {other} digest {digest} != {out['digest']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
