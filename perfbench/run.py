"""The repository's benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload fig6a --seed 2006 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see README.md for why):

* ``fig6a``: ``run_fig6(AUDIO_MIX, Fig6Config())``, the paper's
  Figure 6(a) panel (``--seed`` does not change it);
* ``campaign-1k``: the 1024-cell generated campaign of
  ``examples/campaign_thousand.json`` through ``run_campaign`` with the
  serial executor into a SQLite store;
* ``campaign-1k-coord2``: the same cells through ``run_coordinator``
  with two worker processes into a SQLite store.

Every repetition runs in a fresh interpreter (``child.py``) with a
fixed hash seed, single-threaded BLAS/OpenMP and its own store
directory.  ``--trace 0`` repeats the workload for about ``--seconds``
(at least twice) and reports medians of the end-to-end metrics;
``--trace 1`` runs it once untraced and once traced and reports the
per-layer metrics.  Either way every repetition's outputs are checked
(pinned values at a pinned seed, invariants at any seed).  The last
line of stdout is one JSON object; the exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("fig6a", "campaign-1k", "campaign-1k-coord2")
DEFAULT_SEED = 2006
#: ``fig6a`` is the paper's panel, whose inputs are ``Fig6Config()``'s
#: seed whatever ``--seed`` says: its cost is set by one random draw
#: of hosts and capacities and varies by orders of magnitude between
#: seeds (see README.md), which would drown any change of the program.
PAPER_SEED = 2006
PINS = HERE / "pins.json"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Timed repetitions per untraced run, at least.
MIN_REPS = 2
#: Cold starts behind each ``setup_s`` median, at least.
SETUP_SAMPLES = 5
#: A single child process may not take longer than this.
CHILD_TIMEOUT_S = 150.0

#: Workload processes must not fan out into thread pools: two of them
#: (or a coordinator's workers) would contend for the same cores.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes for one workload in one scratch directory."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.update(CHILD_ENV)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(workdir)
        self._stores = 0

    def _spawn(self, args: list[str]) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--seed", str(self.seed),
               "--scale", self.scale, *args, "--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            _reap_group(proc)
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def setup(self) -> float:
        return self._spawn(["--workload", self.workload, "--mode", "setup"])["setup_s"]

    def body(self, *, trace: int = 0, workload: str | None = None) -> dict:
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        try:
            return self._spawn([
                "--workload", workload or self.workload, "--mode", "body",
                "--store", str(store), "--trace", str(trace),
            ])
        finally:
            shutil.rmtree(store, ignore_errors=True)


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group (a crashed
    coordinator's workers included) and wait until it is gone."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure_untraced(runner: Runner, seconds: float) -> tuple[list, list]:
    """Timed repetitions until ``seconds`` have passed (at least
    ``MIN_REPS``), then the cold starts behind ``setup_s``: each
    repetition's own, topped up to ``SETUP_SAMPLES``."""
    reps: list[dict] = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(runner.body())
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup())
    return reps, setups


def check(workload: str, scale: str, seed: int, reps: list, reference, pins: dict):
    """``(attempted, failed, problems)`` over every repetition."""
    pin = pins.get(checks.pin_key(workload, scale, seed))
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        out = rep["outputs"]
        if workload == "fig6a":
            a, f, p = checks.check_fig6(out, pin, shape=scale == "full")
        else:
            expected, what = (pin, "pin") if pin is not None else (reference, "serial run")
            a, f, p = checks.check_campaign(
                out, expected, exact_summary=workload == "campaign-1k", what=what
            )
        attempted += a
        failed += f
        problems += p
        problems += [f"wrapper left patched: {w}" for w in rep.get("leftover_wrappers", ())]
    return attempted, failed, problems


def outputs_per_rep(workload: str, rep: dict) -> int:
    out = rep["outputs"]
    if workload == "fig6a":
        return sum(len(s) for s in out["series"].values())
    return len(out["cells"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few cells and Fig6Config.quick(), for the self-tests")
    ap.add_argument("--pins", type=Path, default=PINS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "examples" / "campaign_thousand.json"
    ).is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    seed = PAPER_SEED if args.workload == "fig6a" else args.seed
    runner = Runner(args.workload, seed, args.scale, workdir)
    try:
        # Discarded warm-up: page cache and bytecode cache for every
        # later cold start.  The coordinator workload warms up with a
        # serial run of the same cells, which is also the reference
        # its outputs must reproduce at seeds without pins.
        reference = None
        if args.workload == "campaign-1k-coord2":
            reference = runner.body(workload="campaign-1k")["outputs"]
        else:
            runner.setup()
        if args.trace:
            reps = [runner.body(), runner.body(trace=1)]
            setups = []
        else:
            reps, setups = measure_untraced(runner, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed, problems = check(
        args.workload, args.scale, seed, reps, reference,
        checks.load_pins(args.pins),
    )
    host_ref = [t for rep in reps for t in rep["host_ref"]]
    for i, rep in enumerate(reps, 1):
        print(f"rep {i}: wall {rep['wall_s']:.3f} s  cpu {rep['cpu_s']:.3f} s  "
              f"rss {rep['peak_rss_mb']:.1f} MB  setup {rep['setup_s']:.3f} s  "
              f"host.ref_s {layers.median(rep['host_ref']):.4f}"
              + (f"  records {rep['outputs']['digest']}" if "digest" in rep["outputs"] else ""))

    if args.trace:
        plain, traced = reps
        values = {n: 0 if u == "count" else 0.0 for n, u in layers.PER_LAYER.items()}
        values.update(traced["layers"])
        values["host.ref_s"] = layers.median(host_ref)
        values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = layers.PER_LAYER
    else:
        wall = statistics.median(r["wall_s"] for r in reps)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cells_per_s": outputs_per_rep(args.workload, reps[0]) / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        units = END_TO_END
        print(f"setup samples: {' '.join(f'{s:.3f}' for s in setups)}")
        print(f"host.ref_s: {layers.median(host_ref):.4f} s "
              f"(min {min(host_ref):.4f}, max {max(host_ref):.4f})")

    failed_frac = failed / max(attempted, 1)
    width = max(len(n) for n in units) + 2
    print(f"{args.workload} seed {seed} ({len(reps)} repetitions)")
    for name, unit in units.items():
        print(f"  {name:<{width}} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<{width}} {failed_frac:>14.6g} frac ({failed} of {attempted} outputs)")
    for p in problems:
        print(f"  FAIL: {p}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
