"""Smoke tests of the benchmark itself.

Each workload runs for a few operations in --smoke mode.  Every metric
BENCHMARK.json declares must appear with its unit, a corrupted reference
value must show up as a failed operation, and outside a pmu checkout the
benchmark must refuse to run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")


def bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "1", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["desk-train", "long-train", "dev-decode"])
def test_every_declared_metric_is_reported(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", ["desk-train", "dev-decode"])
def test_corrupted_reference_shows_in_failed_share(tmp_path, workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["smoke"][workload]["steps"][1]["l_trans"] *= 1 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    result = result_of(bench("--workload", workload, "--trace", "0",
                             "--reference", str(path)))
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk-train", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_clock_scales_to_the_reference_speed():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from hostclock import REF_S, HostClock

    clock = HostClock()
    # calibration runs every second, at half the reference speed
    clock.starts = [float(t) for t in range(10)]
    clock.ends = [t + 2 * REF_S for t in clock.starts]
    # an interval between two runs takes the nearest run's loop time
    assert clock.seconds(3.5, 3.6) == pytest.approx(0.05)
    # a long one drops the runs inside it
    assert clock.seconds(2.5, 6.5) == pytest.approx((4.0 - 8 * REF_S) / 2)
    assert clock.speed() == pytest.approx(0.5)
