"""Correctness of every repetition: pinned outputs and invariants.

Each workload repetition hands its outputs here as plain JSON data (see
``child.py``); nothing in this module imports the program under test.

* ``fig6a``: the 6 x 13 worst-case delay series.  Each value must be
  finite, positive and match its pin within ``REL_TOL``, and the
  paper's shape criteria (restated from ``benchmarks/test_bench_fig6.py``)
  must hold.
* campaigns: one entry per cell.  A cell fails when it is an error,
  unsound, or differs from its pinned (or reference) record.  Records
  are compared through a digest over every field except ``wall_time``
  and the four batch-sensitive floats of ``BATCH_FLOATS``, which are
  compared within ``REL_TOL`` instead.  The serial ``summary.json``
  must match its pin byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Optional

#: Relative tolerance for float outputs compared against a pin or a
#: reference run.  The batch-vectorised bounds differ in the last ulp
#: (~1e-16 relative) when cells are evaluated in batches of another
#: composition; 1e-9 is far above that and far below any real change.
REL_TOL = 1e-9

#: Record fields computed by the batch-vectorised bounds pass, whose
#: last bits depend on which cells share a batch.
BATCH_FLOATS = ("bound", "baseline_bound", "eps", "tightness")

#: Record fields left out of the digest: ``wall_time`` is a clock.
VOLATILE = ("wall_time",) + BATCH_FLOATS


def close(a: float, b: float) -> bool:
    """Equal within ``REL_TOL`` (infinities must match exactly)."""
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def record_entry(record: dict) -> list:
    """A cell record reduced to ``[digest, *BATCH_FLOATS, ok]``."""
    stable = {k: v for k, v in record.items() if k not in VOLATILE}
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    ok = bool(record.get("sound")) and not record.get("error")
    return (
        [hashlib.sha256(blob.encode()).hexdigest()[:16]]
        + [float(record[f]) for f in BATCH_FLOATS]
        + [ok]
    )


def record_digest(cells: dict) -> str:
    """One digest over every cell's ``record_entry`` digest."""
    h = hashlib.sha256()
    for key in sorted(cells):
        h.update(f"{key}:{cells[key][0]};".encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Fig 6(a)
# ----------------------------------------------------------------------
def _shape_criteria() -> dict[str, Callable[[dict], bool]]:
    def s(out, scheme):
        return out["series"][scheme]

    return {
        "sigma-rho grows with load": lambda o: (
            s(o, "dsct+sigma-rho")[-1] > 3 * s(o, "dsct+sigma-rho")[0]
        ),
        "heavy-load lambda below capacity-aware": lambda o: (
            s(o, "dsct+sigma-rho-lambda")[-1] < s(o, "capacity-aware-dsct")[-1]
        ),
        "heavy-load capacity-aware below sigma-rho": lambda o: (
            s(o, "capacity-aware-dsct")[-1] < s(o, "dsct+sigma-rho")[-1]
        ),
        "light-load order sigma-rho < lambda": lambda o: (
            s(o, "dsct+sigma-rho")[0] < s(o, "dsct+sigma-rho-lambda")[0]
        ),
        "crossover within 0.2 of the threshold": lambda o: (
            o["crossover_dsct"] is not None
            and abs(o["crossover_dsct"] - o["threshold"]) <= 0.2
        ),
        "heavy-load improvement >= 2x": lambda o: o["max_improvement_dsct"] >= 2.0,
        "NICE lambda < sigma-rho at the heaviest load": lambda o: (
            s(o, "nice+sigma-rho-lambda")[-1] < s(o, "nice+sigma-rho")[-1]
        ),
        "regulated tree heights rate-independent": lambda o: (
            o["lambda_height_variants"] == 1
        ),
    }


SHAPE_CRITERIA = _shape_criteria()


def check_fig6(out: dict, pin: Optional[dict], *, shape: bool) -> tuple[int, int, list]:
    """Returns ``(attempted, failed, problems)`` for one repetition."""
    problems: list[str] = []
    values = [
        (scheme, i, float(v))
        for scheme, series in sorted(out["series"].items())
        for i, v in enumerate(series)
    ]
    failed = 0
    for scheme, i, v in values:
        bad = not (math.isfinite(v) and v > 0)
        if pin is not None:
            pinned = pin["series"].get(scheme)
            bad = bad or pinned is None or i >= len(pinned) or not close(v, pinned[i])
        if bad:
            failed += 1
    if pin is not None:
        expected = sum(len(v) for v in pin["series"].values())
        if expected != len(values):
            problems.append(f"{len(values)} WDB values, pinned {expected}")
            failed += abs(expected - len(values))
    if failed:
        problems.append(f"{failed} of {len(values)} WDB values off their pin or not finite")
    if shape:
        for name, holds in SHAPE_CRITERIA.items():
            if not holds(out):
                problems.append(f"shape criterion failed: {name}")
    return max(len(values), 1), failed, problems


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def _summary_matches(got: str, want: str, *, exact: bool) -> bool:
    if got == want:
        return True
    if exact:
        return False
    a, b = json.loads(got), json.loads(want)
    ta, tb = a.pop("max_tightness", None), b.pop("max_tightness", None)
    return a == b and ta is not None and tb is not None and close(ta, tb)


def check_campaign(
    out: dict,
    expected: Optional[dict],
    *,
    exact_summary: bool,
    what: str = "pin",
) -> tuple[int, int, list]:
    """Compare one campaign repetition with ``expected`` (a pin or a
    reference run's outputs, same shape as ``out``), or with nothing
    but the soundness invariant when ``expected`` is ``None``."""
    problems: list[str] = []
    cells = out["cells"]
    want = expected["cells"] if expected is not None else {}
    failed = 0
    for key, entry in cells.items():
        bad = not entry[-1]
        if expected is not None:
            ref = want.get(key)
            bad = (
                bad
                or ref is None
                or entry[0] != ref[0]
                or not all(close(a, b) for a, b in zip(entry[1:-1], ref[1:-1]))
            )
        failed += bad
    missing = [k for k in want if k not in cells]
    attempted = len(cells) + len(missing)
    failed += len(missing)
    if failed:
        problems.append(f"{failed} of {attempted} cells unsound, errored or off their {what}")
    if expected is not None and not _summary_matches(
        out["summary"], expected["summary"], exact=exact_summary
    ):
        problems.append(f"summary.json differs from its {what}")
    return max(attempted, 1), failed, problems


def load_pins(path: Path) -> dict:
    """Pins file: ``{"<workload>/<scale>/<seed>": outputs}``."""
    return json.loads(Path(path).read_text())


def pin_key(workload: str, scale: str, seed: int) -> str:
    base = "campaign-1k" if workload.startswith("campaign") else workload
    return f"{base}/{scale}/{seed}"
