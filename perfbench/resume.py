"""resume_s: re-run a finished campaign, every trial already stored.

Runs in a fresh process, as a user's second ``campaign run`` on a finished
store does, and repeats the re-run for about ``--seconds`` (at least 3
times): open the store, expand the grid, look every trial up, write the
progress row. The last line of standard output is one JSON object with
the time of each repeat.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/resume.py --workload q13-mc --seed 1 --store DIR --seconds 3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    from repro.campaigns.executor import run_campaign
    from repro.campaigns.store import ResultStore
    from workloads import WORKLOADS, build_spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    spec = build_spec(WORKLOADS[args.workload], args.seed)
    samples: list[float] = []
    while len(samples) < 3 or sum(samples) < args.seconds:
        start = time.perf_counter()
        with ResultStore(args.store, create=False) as store:
            report = run_campaign(spec, store)
        samples.append(time.perf_counter() - start)
        if report.executed or report.cached != report.total:
            raise SystemExit(f"resume re-executed trials: {report.summary()}")
    print(json.dumps({"resume_s": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
