"""The benchmark's own test: every workload at tiny size, untraced and traced.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import array
import collections
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import SELF_TIME_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert set(SELF_TIME_METRICS) <= set(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_reproducible(workload):
    detail, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    again, _ = smoke(workload, 0)
    assert (again["counts"], again["digest"]) == (detail["counts"], detail["digest"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_accounts_for_its_wall_time(workload):
    _, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["error_rate"] == 0

    # Re-derive the accounting from the written span columns.
    spans = load_spans(workload)
    assert len(spans["id"]) == value["trace.spans"] > 0
    row = {sid: k for k, sid in enumerate(spans["id"])}
    duration = [end - start for start, end in zip(spans["start_ns"], spans["end_ns"])]
    child_ns = [0] * len(duration)
    for k, parent in enumerate(spans["parent"]):
        assert spans["run"][k] > 0, "span outside every timed unit"
        if parent != -1:
            p = row[parent]
            assert spans["run"][p] == spans["run"][k]
            assert spans["start_ns"][p] <= spans["start_ns"][k]
            assert spans["end_ns"][k] <= spans["end_ns"][p]
            child_ns[p] += duration[k]
    self_by_name = collections.Counter()
    for k, name in enumerate(spans["name"]):
        self_by_name[spans["names"][name]] += duration[k] - child_ns[k]
    for metric, names in SELF_TIME_METRICS.items():
        expected = sum(self_by_name[n] for n in names) / 1e6
        assert math.isclose(value[metric], expected, rel_tol=1e-9, abs_tol=1e-9), metric
        assert value[metric] >= 0
    top_level_ms = sum(d for d, parent in zip(duration, spans["parent"])
                       if parent == -1) / 1e6
    assert math.isclose(sum(value[k] for k in SELF_TIME_METRICS), top_level_ms,
                        rel_tol=1e-9)
    assert value["trace.unattributed_ms"] >= 0
    assert math.isclose(top_level_ms + value["trace.unattributed_ms"],
                        value["trace.wall_s"] * 1e3, rel_tol=1e-9)


def test_speed_correction_takes_out_probes_and_scales():
    meter = speed.Speedometer()
    ref = speed.REFERENCE_NS
    ms = 1_000_000
    # Probes every 10 ms: the host runs at reference speed for the first
    # 100 ms and twice as slow after that.
    for k in range(30):
        meter.starts.append(k * 10 * ms)
        meter.ns.append(ref if k < 10 else 2 * ref)
    fast = meter.corrected_ns(20 * ms, 60 * ms, 1.0)
    assert fast == 40 * ms - 4 * ref
    slow = meter.corrected_ns(200 * ms, 280 * ms, 1.0)
    assert slow == (80 * ms - 8 * 2 * ref) / 2
    # A workload that feels only part of the slowdown is scaled by less.
    assert meter.corrected_ns(200 * ms, 280 * ms, 0.5) == (80 * ms - 16 * ref) / 2 ** 0.5
    # A unit between two probes takes the slowdown of the probes nearby.
    assert meter.slowdown(151 * ms, 152 * ms) == 2.0
    assert speed.Speedometer().slowdown(0, ms) == 1.0


def test_speedometer_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        deadline = time.monotonic() + 0.1
        while time.monotonic() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.ns) >= 3


def load_spans(workload):
    """The traced run's span columns, as `Tracer.write` stores them."""
    stem = os.path.join(ROOT, ".perfbench_out", f"spans-{workload}")
    with open(stem + ".json") as fh:
        header = json.load(fh)
    rows = header["rows"]
    flat = array.array("q")
    with open(stem + ".bin", "rb") as fh:
        flat.fromfile(fh, rows * len(header["columns"]))
    spans = {name: flat[i * rows:(i + 1) * rows]
             for i, name in enumerate(header["columns"])}
    spans["names"] = header["names"]
    return spans


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "traced_1k", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
