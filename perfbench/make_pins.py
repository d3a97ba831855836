"""Regenerate ``pins.json``: the outputs every later run must reproduce.

    python3 perfbench/make_pins.py

Pins the default seed at both scales: the Fig 6(a) series and the
serial campaign's ``summary.json`` plus per-cell record entries (see
``checks.py``).  Run it only when an output is meant to change, and say
why in the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

CASES = (("fig6a", "full"), ("campaign-1k", "full"), ("fig6a", "tiny"), ("campaign-1k", "tiny"))


def main() -> int:
    workdir = run.ROOT / ".perfbench_runs" / f"pins-{os.getpid()}"
    workdir.mkdir(parents=True)
    pins = {}
    try:
        for workload, scale in CASES:
            runner = run.Runner(workload, run.DEFAULT_SEED, scale, workdir)
            outputs = runner.body()["outputs"]
            pins[run.checks.pin_key(workload, scale, run.DEFAULT_SEED)] = outputs
            print(f"pinned {workload}/{scale}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
