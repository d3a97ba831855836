"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  ``--spawned`` is
the parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and input construction.  With ``--mode
setup`` the process stops there; with ``--mode body`` it then times
the workload body and prints its resource use and outputs as one JSON
line on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time
from pathlib import Path

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN_FILE = ROOT / "examples" / "campaign_thousand.json"
COORDINATOR_WORKERS = 2
#: Address-space cap of a workload process and its workers: an input
#: that makes the program allocate without bound fails here with a
#: MemoryError instead of exhausting the host.
MEMORY_LIMIT_BYTES = 4 << 30
#: Cell count of the tiny scale the self-tests use.
TINY_CELLS = 24


def setup(workload: str, seed: int, scale: str):
    """Imports plus the workload's inputs, exactly as a user builds them."""
    if workload == "fig6a":
        from repro.experiments.config import Fig6Config
        from repro.experiments.multigroup import run_fig6  # noqa: F401
        from repro.workloads.profiles import AUDIO_MIX

        config = Fig6Config(seed=seed) if scale == "full" else dataclasses.replace(
            Fig6Config.quick(), seed=seed
        )
        return AUDIO_MIX, config
    from repro.runtime.campaign import CampaignConfig, build_campaign
    from repro.runtime.coordinator import run_coordinator  # noqa: F401
    from repro.runtime.executor import SerialExecutor  # noqa: F401
    from repro.runtime.store import spec_fingerprint
    from repro.utils.rng import derive_seed

    config = CampaignConfig.from_file(CAMPAIGN_FILE)
    if scale == "tiny":
        config = dataclasses.replace(config, count=TINY_CELLS)
    # The file's matrix, drawn at the file's own seed, with every cell
    # re-seeded from ``seed`` the way the generator seeds it: fresh
    # traces and verdicts per seed, the same cell structure and so
    # about the same cost (redrawing the matrix moves the cost by
    # over 25%, see README.md).  At the file's seed this is the
    # identity.
    return [
        dataclasses.replace(sc, seed=derive_seed(seed, "cell", spec_fingerprint(sc)))
        for sc in build_campaign(config)
    ]


def body(workload: str, inputs, store_url: str):
    if workload == "fig6a":
        from repro.experiments.multigroup import run_fig6

        return run_fig6(*inputs)
    if workload == "campaign-1k":
        from repro.runtime.campaign import run_campaign
        from repro.runtime.executor import SerialExecutor

        return run_campaign(inputs, executor=SerialExecutor(), store=store_url)
    from repro.runtime.coordinator import run_coordinator

    return run_coordinator(inputs, store=store_url, workers=COORDINATOR_WORKERS)


def outputs(workload: str, result, store_url: str) -> dict:
    """The outputs ``checks.py`` compares, as plain JSON data."""
    if workload == "fig6a":
        heights = result.tree_heights["dsct+sigma-rho-lambda"]
        return {
            "series": {s: result.series(s) for s in result.schemes},
            "crossover_dsct": result.crossover_dsct,
            "threshold": result.theoretical_threshold_aggregate,
            "max_improvement_dsct": result.max_improvement_dsct,
            "lambda_height_variants": len({tuple(v) for v in heights.values()}),
        }
    from repro.runtime.store import open_store

    st = open_store(store_url, must_exist=True)
    try:
        cells = {k: checks.record_entry(r) for k, r in st.load().items()}
        summary = st.summary_path.read_text()
    finally:
        st.close()
    return {"summary": summary, "cells": cells, "digest": checks.record_digest(cells)}


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("setup", "body"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--store", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))

    inputs = setup(args.workload, args.seed, args.scale)
    setup_s = time.monotonic() - args.spawned
    out: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    store_url = f"sqlite:{args.store}"
    timer = layers.CallTimer() if args.trace else None
    if timer is not None:
        layers.import_all_repro()  # imports stay out of the timed region
    ref = layers.host_ref()
    gc.collect()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    if timer is not None:
        with timer:
            result = body(args.workload, inputs, store_url)
    else:
        result = body(args.workload, inputs, store_url)
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ref += layers.host_ref()

    worker_cpu = _cpu(kids1) - _cpu(kids0)
    out.update(
        wall_s=wall_s,
        cpu_s=_cpu(self1) - _cpu(self0) + worker_cpu,
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the
        # largest waited-for descendant.
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        host_ref=ref,
        outputs=outputs(args.workload, result, store_url),
    )
    if timer is not None:
        metrics = timer.metrics()
        if args.workload != "fig6a":
            metrics.update(layers.store_layers(store_url, wall_s))
        metrics["runtime.worker_cpu_s"] = worker_cpu
        out["layers"] = metrics
        out["leftover_wrappers"] = layers.leftover_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
