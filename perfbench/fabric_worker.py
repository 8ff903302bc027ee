"""``campaign worker`` for the fabric workload, optionally with probes.

Runs exactly ``python -m repro campaign worker --connect URL``; with
``--trace`` it first installs the per-layer probes (see ``probes.py``),
whose numbers ride back to the broker with each pack's results.

Usage::

    python3 perfbench/fabric_worker.py --connect http://127.0.0.1:PORT [--trace]
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    argv = sys.argv[1:]
    if "--trace" in argv:
        argv.remove("--trace")
        import probes

        probes.install(worker=True)
    from repro.cli import main as cli_main

    return cli_main(["campaign", "worker", *argv])


if __name__ == "__main__":
    sys.exit(main())
