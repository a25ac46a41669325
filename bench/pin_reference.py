"""Pin the reference outputs of the benchmark's workloads.

    python3 bench/pin_reference.py [workload ...]

Runs one pass of each named workload (all by default) at the reference
seed and its benchmark size and writes `bench/reference/<workload>.json`.
Pin only from a commit whose outputs are known to be right: afterwards
the benchmark fails every operation whose output at that seed moves by
more than the gate's tolerance.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run as bench

sys.path.insert(0, bench.SRC)
import workloads  # noqa: E402


def pin(name):
    wl = workloads.WORKLOADS[name]
    os.makedirs(bench.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as workdir:
        inputs = wl.prepare(wl.size, bench.REFERENCE_SEED, workdir)
        results = wl.run(inputs)
        failures = workloads.check(wl, inputs, results)
        if failures:
            raise SystemExit(f"{name}: not pinned, {failures}")
        outputs = wl.outputs(inputs, results)
    path = os.path.join(bench.BENCH, "reference", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": bench.REFERENCE_SEED, "size": wl.size,
                   "outputs": outputs}, fh)
        fh.write("\n")
    print(f"pinned {name} -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        pin(name)
