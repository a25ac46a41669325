"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that the correctness gate fails on a perturbed
reference, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    wl = workloads.WORKLOADS[name]
    result, record = bench.run(name, seed=3, seconds=0.01, trace=trace,
                               size=wl.tiny)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in want)


def _perturb_first_number(tree):
    for i, item in enumerate(tree):
        if isinstance(item, list):
            if _perturb_first_number(item):
                return True
        elif isinstance(item, float) and math.isfinite(item):
            tree[i] = item + 1e-6 * max(1.0, abs(item))
            return True
    return False


@pytest.mark.parametrize("name", NAMES)
def test_gate_fails_on_a_perturbed_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(wl.tiny, 0, str(tmp_path))
    results = wl.run(inputs)
    outputs = wl.outputs(inputs, results)
    assert workloads.check(wl, inputs, results, {"outputs": outputs}) == {}
    perturbed = json.loads(json.dumps(outputs))
    assert _perturb_first_number(perturbed)
    failed = workloads.check(wl, inputs, results, {"outputs": perturbed})
    assert list(failed.values()) == ["differs from the pinned reference"]


@pytest.mark.parametrize("name", NAMES)
def test_reference_is_pinned_at_the_benchmark_size(name):
    wl = workloads.WORKLOADS[name]
    assert bench.load_reference(name, bench.REFERENCE_SEED,
                                wl.size) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
