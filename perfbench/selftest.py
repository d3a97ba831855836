"""Self-tests of the benchmark, on a tiny scale (about a minute).

    python3 -m pytest perfbench/selftest.py -q

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); pass it to pytest explicitly.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
SEED = run.DEFAULT_SEED


def _bench(*args: str, pins: Path | None = None) -> tuple[int, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1", *args]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, out = _bench("--workload", workload, "--trace", str(trace))
    assert code == 0, out
    result = _result(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_frac" in out


def test_wrappers_leave_nothing_patched():
    import repro.simulation.fluid as fluid
    from repro.overlay.groups import MultiGroupNetwork
    from repro.runtime.store import ResultStore

    before = (fluid.simulate_fluid_chain, fluid.fluid_mux,
              vars(MultiGroupNetwork)["build_all_trees"], vars(ResultStore)["write_summary"])
    with layers.CallTimer() as timer:
        assert layers.leftover_wrappers()  # patched while inside
        assert fluid.simulate_fluid_chain is not before[0]
    assert layers.leftover_wrappers() == []
    after = (fluid.simulate_fluid_chain, fluid.fluid_mux,
             vars(MultiGroupNetwork)["build_all_trees"], vars(ResultStore)["write_summary"])
    assert after == before
    assert set(timer.metrics()) <= set(layers.PER_LAYER)


def test_wrappers_are_restored_when_the_body_raises():
    with pytest.raises(ZeroDivisionError):
        with layers.CallTimer():
            1 / 0
    assert layers.leftover_wrappers() == []


def test_perturbed_pins_fail_the_check():
    pins = checks.load_pins(run.PINS)
    fig = pins[checks.pin_key("fig6a", "full", SEED)]
    assert checks.check_fig6(fig, fig, shape=True)[1:] == (0, [])
    bad = copy.deepcopy(fig)
    bad["series"]["dsct+sigma-rho"][3] *= 1 + 1e-6
    attempted, failed, problems = checks.check_fig6(fig, bad, shape=True)
    assert (attempted, failed) == (78, 1) and problems

    camp = pins[checks.pin_key("campaign-1k", "full", SEED)]
    assert checks.check_campaign(camp, camp, exact_summary=True)[1:] == (0, [])
    bad = copy.deepcopy(camp)
    key = sorted(bad["cells"])[0]
    bad["cells"][key][1] *= 1 + 1e-6
    assert checks.check_campaign(camp, bad, exact_summary=True)[1] == 1
    bad = copy.deepcopy(camp)
    bad["summary"] = bad["summary"].replace('"sound": 1024', '"sound": 1023')
    assert checks.check_campaign(camp, bad, exact_summary=True)[2]


def test_ulp_noise_in_batch_floats_passes():
    pins = checks.load_pins(run.PINS)
    camp = pins[checks.pin_key("campaign-1k", "full", SEED)]
    noisy = copy.deepcopy(camp)
    for entry in noisy["cells"].values():
        entry[1] *= 1 + 4e-16
    assert checks.check_campaign(noisy, camp, exact_summary=True)[1:] == (0, [])


@pytest.mark.parametrize("workload", ["fig6a", "campaign-1k"])
def test_run_exits_nonzero_on_a_perturbed_pin(workload, tmp_path):
    pins = checks.load_pins(run.PINS)
    entry = pins[checks.pin_key(workload, "tiny", SEED)]
    if workload == "fig6a":
        entry["series"]["dsct+sigma-rho"][0] *= 1.001
    else:
        entry["cells"][sorted(entry["cells"])[0]][0] = "0" * 16
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    code, out = _bench("--workload", workload, pins=path)
    assert code == 1
    result = _result(out)
    assert not result["correct"] and result["failed"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
