"""Self-test of the benchmark at smoke-test sizes.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, tail_percentile  # noqa: E402
from tracer import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The tiny K-scaling series stops below the largest M.
NOT_TINY = "scaling.M1024."


def bench(workload, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc, name):
    """(value, unit) of the report line naming ``name``."""
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return fields[1], fields[2]
    raise AssertionError(f"{name} not printed")


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section] if not m["name"].startswith(NOT_TINY)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    proc = bench(workload, "--tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == expected("end_to_end")
    for name, unit in units.items():
        assert res["metrics"][name]["value"] > 0
        assert printed(proc, name)[1] == unit
    assert printed(proc, "fail_frac") == ("0", "ratio")
    assert "provenance" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    proc = bench(workload, "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == expected("per_layer")
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert metrics["canonical.commutation_residual.calls"] == 4
    assert metrics["canonical.to_symplectic.calls"] == 2
    assert metrics["canonical.compose.calls"] == 5
    assert metrics["optimize.solve_amplifier.calls"] == 1
    assert metrics["trace.attributed_frac"] >= 0.95
    trace = json.loads((HERE / "out" / f"trace-{workload}-seed3.json").read_text())
    assert len(trace["spans"]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_fails(workload):
    proc = bench(workload, "--tiny", "--trace", "0", "--corrupt-expected")
    assert proc.returncode != 0
    res = result_of(proc)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 2
    assert printed(proc, "fail_frac") == ("1", "ratio")


def test_spec_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_needs_ten_beyond():
    assert tail_percentile([0.1] * 99) is None
    assert tail_percentile(list(range(100))) == (90, 89)
    assert tail_percentile(list(range(1000)))[0] == 99


def test_self_time_subtracts_children():
    spans = [(0, "op", 0.0, 10.0, None, "w:1", 0.0),
             (1, "a", 1.0, 5.0, 0, "w:1", 0.0),
             (2, "b", 2.0, 3.0, 1, "w:1", 0.0)]
    assert self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0}
