"""Per-layer measurement from outside the program.

Two sources, neither of which changes a line under ``src/``:

* ``CallTimer`` times calls into a layer's public functions.  Each
  function is patched in every loaded ``repro`` module that binds it
  (the call sites, including the defining module that function-local
  imports read), or on its class for a method, and restored on exit.
  Times are inclusive (``fluid_mux`` time also counts in
  ``simulate_fluid_chain``'s); no target calls itself.  It sees only the process it runs in: coordinator workers are
  separate processes.
* ``store_layers`` reads what a campaign already writes to its store:
  the telemetry channel (per-cell phases and engine counters, grouping
  summary, lease ledger) joined to the result records by cell key.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from dataclasses import dataclass

#: (metric prefix, "module:attribute[.method]", also report call count)
TARGETS = (
    ("topology.build", "repro.topology.backbone:fig5_backbone", False),
    ("topology.build", "repro.topology.attach:attach_hosts", False),
    ("overlay.tree_build", "repro.overlay.groups:MultiGroupNetwork.build_all_trees", True),
    ("overlay.critical_path", "repro.overlay.tree:MulticastTree.critical_path", False),
    ("workloads.trace_gen", "repro.workloads.profiles:TrafficMix.generate_traces", False),
    ("simulation.chain", "repro.simulation.fluid:simulate_fluid_chain", True),
    ("simulation.mux", "repro.simulation.fluid:fluid_mux", True),
    ("scenarios.evaluate_grouped", "repro.scenarios.cellmatrix:evaluate_grouped", False),
    ("scenarios.realise_batch", "repro.scenarios.tracebatch:realise_batch", False),
    ("runtime.record", "repro.runtime.campaign:outcome_record", False),
    ("runtime.store_append", "repro.runtime.store_sqlite:SqliteResultStore.append_many", False),
    ("runtime.telemetry_append", "repro.runtime.store_sqlite:SqliteResultStore.append_telemetry", False),
    ("runtime.summary", "repro.runtime.store:ResultStore.write_summary", False),
)

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER = {
    "topology.build_s": "s",
    "overlay.tree_build_s": "s",
    "overlay.tree_build_calls": "count",
    "overlay.critical_path_s": "s",
    "workloads.trace_gen_s": "s",
    "simulation.chain_s": "s",
    "simulation.chain_calls": "count",
    "simulation.mux_s": "s",
    "simulation.mux_calls": "count",
    "simulation.des_events": "count",
    "simulation.busy_periods": "count",
    "scenarios.realise_s": "s",
    "scenarios.simulate_s": "s",
    "scenarios.bounds_s": "s",
    "scenarios.verdict_s": "s",
    "scenarios.simulate_s.host": "s",
    "scenarios.simulate_s.chain": "s",
    "scenarios.simulate_s.tree": "s",
    "scenarios.grouped_cells": "count",
    "scenarios.fallback_cells": "count",
    "scenarios.evaluate_grouped_s": "s",
    "scenarios.realise_batch_s": "s",
    "runtime.record_s": "s",
    "runtime.store_append_s": "s",
    "runtime.telemetry_append_s": "s",
    "runtime.summary_s": "s",
    "runtime.cost_ratio_median": "ratio",
    "runtime.leases": "count",
    "runtime.steals": "count",
    "runtime.respawns": "count",
    "runtime.store_retries": "count",
    "runtime.worker_cpu_s": "s",
    "runtime.worker_busy_frac": "ratio",
    "host.ref_s": "s",
    "trace.overhead_frac": "ratio",
}

_ORIGINAL = "__perfbench_original__"


@dataclass
class _Stat:
    seconds: float = 0.0
    calls: int = 0


def _wrap(fn, stat: _Stat):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stat.seconds += time.perf_counter() - t0
            stat.calls += 1

    setattr(timed, _ORIGINAL, fn)
    return timed


def import_all_repro() -> None:
    """Import every ``repro`` module, so that each call site that binds
    a target exists before patching (a module first imported while
    patched would otherwise keep the wrapper)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def leftover_wrappers() -> list[str]:
    """Names of any ``repro`` attribute still bound to a wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if hasattr(value, _ORIGINAL):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type):
                for name, member in list(vars(value).items()):
                    if hasattr(member, _ORIGINAL):
                        found.append(f"{modname}.{attr}.{name}")
    return found


class CallTimer:
    """Context manager timing calls into ``TARGETS``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "CallTimer":
        import_all_repro()
        try:
            for prefix, target, _ in TARGETS:
                stat = self.stats.setdefault(prefix, _Stat())
                self._patch(target, stat)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, target: str, stat: _Stat) -> None:
        modname, _, path = target.partition(":")
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        original = vars(owner)[attr]
        wrapper = _wrap(original, stat)
        if classes:
            sites = [owner]
        else:
            sites = [
                mod
                for name, mod in list(sys.modules.items())
                if name.startswith("repro") and vars(mod).get(attr) is original
            ]
        for site in sites:
            self._undo.append((site, attr, original))
            setattr(site, attr, wrapper)

    def _restore(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, _, with_calls in TARGETS:
            stat = self.stats.get(prefix, _Stat())
            out[f"{prefix}_s"] = stat.seconds
            if with_calls:
                out[f"{prefix}_calls"] = stat.calls
        return out


def store_layers(store_url: str, wall_s: float) -> dict[str, float]:
    """Per-layer metrics read from a finished campaign's store."""
    from repro.runtime import telemetry as tel
    from repro.runtime.store import open_store

    st = open_store(store_url, must_exist=True)
    try:
        records = st.load()
        rows = st.load_telemetry()
    finally:
        st.close()
    cells = [r for r in rows if r.get("kind") == "cell"]
    topology = {key: rec.get("topology") for key, rec in records.items()}

    out: dict[str, float] = {}
    for phase in ("realise", "simulate", "bounds", "verdict"):
        out[f"scenarios.{phase}_s"] = sum(
            float((c.get("phases") or {}).get(phase, 0.0)) for c in cells
        )
    for topo in ("host", "chain", "tree"):
        out[f"scenarios.simulate_s.{topo}"] = sum(
            float((c.get("phases") or {}).get("simulate", 0.0))
            for c in cells
            if topology.get(c.get("key")) == topo
        )
    counters = tel.counter_totals(rows)
    out["simulation.des_events"] = counters.get("events_processed", 0)
    out["simulation.busy_periods"] = counters.get("busy_periods", 0)
    grouping = tel.grouping_rows(rows)["summary"]
    out["scenarios.grouped_cells"] = int(grouping.get("grouped_cells", 0))
    out["scenarios.fallback_cells"] = int(grouping.get("fallback_cells", 0))

    calibration = [r for r in tel.calibration_rows(rows) if "median_ratio" in r]
    # Rows are sorted by actual seconds: the first is where time goes.
    out["runtime.cost_ratio_median"] = (
        calibration[0]["median_ratio"] if calibration else 0.0
    )

    leases = tel.lease_summary(rows)
    out["runtime.leases"] = int(leases.get("planned", 0))
    out["runtime.steals"] = int(leases.get("stolen", 0))
    out["runtime.respawns"] = int(leases.get("respawns", 0))
    out["runtime.store_retries"] = sum(
        int(r.get("append_retries", 0)) + int(r.get("busy_retries", 0))
        for r in tel.store_retry_rows(rows)
    ) + sum(int(r.get("store_retries", 0)) for r in tel.lease_rows(rows))
    workers = int(leases.get("workers", 1)) or 1
    busy = sum(float(c.get("dur") or 0.0) for c in cells)
    out["runtime.worker_busy_frac"] = busy / (workers * wall_s) if wall_s > 0 else 0.0
    return out


def host_ref(repeats: int = 3) -> list[float]:
    """Seconds taken by a fixed reference loop, ``repeats`` times.

    The loop's work never changes, so a change in its time is the host
    (frequency, co-tenants), not the program.  It mixes interpreted
    arithmetic with NumPy scans on a few MB, like the fluid kernels,
    because a pure-Python loop alone tracked this host's drift poorly.
    """
    import numpy as np

    x = np.random.default_rng(0).random(250_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        for _ in range(8):
            y = np.maximum.accumulate(np.cumsum(x))
            acc += int(np.minimum(y, y[::-1]).sum())
        times.append(time.perf_counter() - t0)
    return times


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
