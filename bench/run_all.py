"""Run every benchmark workload, each in a fresh process, and print a table.

    python3 bench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through `bench/run.py`, so its peak memory is its own;
the table lists every metric of each workload by name and unit, and the
failed/attempted operation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             name, "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=os.path.dirname(BENCH), capture_output=True, text=True,
            timeout=600)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
