"""confsens benchmark: one workload per process, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload cli-targets --seed 1 --seconds 20 --trace 0

The run is a closed loop with one caller: an operation starts when the
previous one returns.  It times the set-up (a fresh-interpreter import of
confsens plus input generation and CSV writing) several times, runs one
warm-up pass, then repeats timed passes for `--seconds` and reports
medians.  Every pass is checked: an operation fails when it raises,
breaks one of the paper's invariants, or (at the pinned seed) differs
from `bench/reference/<workload>.json`.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the first half of the time runs untraced passes and the
second half traced ones, and the last line carries the per-layer
metrics; the spans are written to `.bench_out/`.  A run record (git SHA,
core count, library versions, thread settings, pass times) is written
there too.
"""

from __future__ import annotations

import os

# Thread pools read these when the BLAS and OpenMP libraries load, so they
# are pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REFERENCE_SEED = 0

END_TO_END = {
    "intervals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_COUNTED = {
    "dataset.ingest_csv": ("calls", "self_s", "rows"),
    "dataset.split": ("self_s",),
    "predictors.knn_predict": ("calls", "self_s", "query_rows",
                               "computed_mb"),
    "predictors.fit_propensity": ("self_s",),
    "predictors.propensity_predict": ("rows",),
    "conformal.scores": ("self_s",),
    "conformal.wcp_threshold_nuc_batch": ("self_s",),
    "msm.weight_bounds": ("calls", "self_s"),
    "msm.calibrate_gamma": ("self_s",),
    "csa.greedy_max_quantile": ("calls", "self_s", "iterations"),
    "csa.greedy_threshold_batch": ("calls", "self_s", "targets",
                                   "computed_mb"),
    "csa.csa_interval": ("self_s",),
    "cssa.cssa_threshold": ("calls", "self_s"),
    "cssa.cssa_threshold_batch": ("calls", "self_s"),
    "cssa.cssa_interval": ("self_s",),
    "lp.solve_lp": ("calls", "self_s", "nonoptimal"),
    "ite.nested_ite_fit": ("self_s",),
    "ite.nested_ite_predict": ("self_s",),
    "ite.bonferroni_ite": ("calls",),
    "oracle.sample_target_outcomes": ("calls", "self_s"),
    "oracle.generate": ("self_s",),
    "harness.run_trial": ("self_s",),
    "harness.run_sweep": ("self_s",),
    "cli.main.interval": ("self_s",),
    "cli.main.ite": ("self_s",),
    "cli.main.calibrate": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "rows": "rows",
               "query_rows": "rows", "computed_mb": "MiB",
               "iterations": "count", "targets": "count",
               "nonoptimal": "count"}
PER_LAYER = {f"{span}.{stat}": _STAT_UNITS[stat]
             for span, stats in _COUNTED.items() for stat in stats}
PER_LAYER.update({
    "predictors.knn_rows_per_interval": "rows/interval",
    "cssa.fallbacks": "count",
    "trace.overhead_s": "s",
})


def _import_seconds():
    """Time `import confsens` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import confsens; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def _passes(workload, inputs, gate, seconds, min_passes, tracer=None):
    """Run timed passes until `seconds` have elapsed (at least
    `min_passes`); returns the pass times."""
    times = []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_id = len(times)
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = workload.run(inputs)
            times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        gate(results)
    return times


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run(name, seed, seconds, trace, size=None, reference=None,
        spans_path=None):
    """Run one workload; returns (result, record).

    `result` is the JSON object the benchmark prints; `record` adds the
    raw timings and the failure reasons.
    """
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    size = wl.size if size is None else size
    intervals = wl.intervals(size)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    failures = []
    attempted = 0
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            import_s = _import_seconds()
            t0 = time.perf_counter()
            inputs = wl.prepare(size, seed, workdir)
            setup.append(import_s + time.perf_counter() - t0)

        def gate(results):
            nonlocal attempted
            attempted += len(results)
            failed = workloads.check(wl, inputs, results, reference)
            failures.extend(failed.values())

        gate(wl.run(inputs))  # warm-up pass
        if not trace:
            times = _passes(wl, inputs, gate, seconds, MIN_PASSES)
            rates = [intervals / t for t in times]
            metrics = {
                "intervals_per_s": statistics.median(rates),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            timing = {"pass_s": times,
                      "intervals_per_s": _quartiles(rates)}
        else:
            plain = _passes(wl, inputs, gate, seconds / 2.0,
                            MIN_TRACED_PASSES)
            tracer = Tracer()
            traced = _passes(wl, inputs, gate, seconds / 2.0,
                             MIN_TRACED_PASSES, tracer)
            per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
            for m in per_pass:
                m["predictors.knn_rows_per_interval"] = m.get(
                    "predictors.knn_predict.query_rows", 0.0) / intervals
            metrics = {key: statistics.median(m.get(key, 0.0)
                                              for m in per_pass)
                       for key in PER_LAYER if key != "trace.overhead_s"}
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(plain))
            units = PER_LAYER
            timing = {"untraced_pass_s": plain, "traced_pass_s": traced}
            if spans_path is not None:
                tracer.write(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    record = dict(_environment(), workload=name, seed=seed, seconds=seconds,
                  trace=trace, size=size, intervals_per_pass=intervals,
                  setup_s=setup, reference_checked=reference is not None,
                  failures=failures[:20], result=result, **timing)
    return result, record


def _environment():
    sha = None  # an exported checkout has no git metadata
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def load_reference(name, seed, size):
    """The pinned outputs for this workload when the run matches the seed
    and size they were pinned at, else None."""
    path = os.path.join(BENCH, "reference", f"{name}.json")
    if seed != REFERENCE_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["size"] != json.loads(json.dumps(size)):
        return None
    return ref


def _parse(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "confsens", "__init__.py")):
        print(f"error: no confsens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("CONFSENS_OUTPUT_DIR", None)  # keep writes in .bench_out
    args = _parse(argv)
    import workloads
    size = workloads.WORKLOADS[args.workload].size
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record = run(
        args.workload, args.seed, args.seconds, args.trace,
        reference=load_reference(args.workload, args.seed, size),
        spans_path=os.path.join(OUT, f"spans-{stem}.jsonl"))
    with open(os.path.join(OUT, f"record-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = {k: record[k] for k in ("git_sha", "nproc", "python", "numpy",
                                  "scipy", "thread_env")}
    print(f"run: {json.dumps(env)}")
    for reason in record["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    if "intervals_per_s" in record:
        q = record["intervals_per_s"]
        print(f"intervals_per_s median={q['median']:.6g} q1={q['q1']:.6g} "
              f"q3={q['q3']:.6g} n={q['n']} "
              f"(intervals per pass {record['intervals_per_pass']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
