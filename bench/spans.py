"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public confsens functions from outside the package: each
wrapped function is replaced in every confsens module that binds it, and
each wrapped method is replaced on its class.  A call records one span
(name, start, end, parent, pass id) plus counters derived from its
arguments and result.  `uninstall` restores the original objects, so the
untraced passes of a run execute the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

MIB = float(2 ** 20)


def _rows(result):
    return len(result[0]) if isinstance(result, tuple) else np.size(result)


# Counter functions take the call's arguments by parameter name and its
# result.  Computed sizes come from array shapes, not from measurement.

def _knn_counts(call, result):
    rows = _rows(result)
    n_train, p = call["self"].x.shape
    return {"query_rows": rows,
            "computed_mb": rows * n_train * p * 8 / MIB}


def _greedy_counts(call, result):
    return {"iterations": result.iterations}


def _greedy_batch_counts(call, result):
    n = np.shape(call["scores_sorted"])[0]
    m = np.size(call["hi_target"])
    # one float64 (n + 1) x m temporary
    return {"targets": m, "computed_mb": (n + 1) * m * 8 / MIB}


def _lp_counts(call, result):
    return {"nonoptimal": 0 if result.optimal else 1}


def _ingest_counts(call, result):
    return {"rows": result.n}


def _propensity_predict_counts(call, result):
    return {"rows": np.size(result)}


# (module, attribute, span name, counter function); a dotted attribute is
# a method patched on its class.
TARGETS = (
    ("dataset", "ingest_csv", "dataset.ingest_csv", _ingest_counts),
    ("dataset", "split", "dataset.split", None),
    ("predictors", "KNNMean.predict", "predictors.knn_predict", _knn_counts),
    ("predictors", "KNNQuantile.predict", "predictors.knn_predict",
     _knn_counts),
    ("ite", "KNNSingleQuantile.predict", "predictors.knn_predict",
     _knn_counts),
    ("predictors", "fit_propensity", "predictors.fit_propensity", None),
    ("predictors", "LogisticPropensity.predict",
     "predictors.propensity_predict", _propensity_predict_counts),
    ("conformal", "score_abs_residual", "conformal.scores", None),
    ("conformal", "score_cqr", "conformal.scores", None),
    ("conformal", "wcp_threshold_nuc_batch",
     "conformal.wcp_threshold_nuc_batch", None),
    ("msm", "weight_bounds_same_arm", "msm.weight_bounds", None),
    ("msm", "weight_bounds_cross_arm", "msm.weight_bounds", None),
    ("msm", "calibrate_gamma", "msm.calibrate_gamma", None),
    ("csa", "greedy_max_quantile", "csa.greedy_max_quantile",
     _greedy_counts),
    ("csa", "greedy_threshold_batch", "csa.greedy_threshold_batch",
     _greedy_batch_counts),
    ("csa", "csa_interval", "csa.csa_interval", None),
    ("cssa", "cssa_threshold", "cssa.cssa_threshold", None),
    ("cssa", "cssa_threshold_batch", "cssa.cssa_threshold_batch", None),
    ("cssa", "cssa_interval", "cssa.cssa_interval", None),
    ("lp", "solve_lp", "lp.solve_lp", _lp_counts),
    ("ite", "nested_ite_fit", "ite.nested_ite_fit", None),
    ("ite", "nested_ite_predict", "ite.nested_ite_predict", None),
    ("ite", "bonferroni_ite", "ite.bonferroni_ite", None),
    ("oracle", "generate", "oracle.generate", None),
    ("oracle", "sample_target_outcomes", "oracle.sample_target_outcomes",
     None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
    ("cli", "main", "cli.main", None),
)

# spans whose infeasibility warnings are counted as fallbacks
_FALLBACK_SPANS = ("cssa.cssa_threshold", "cssa.cssa_threshold_batch")


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, pass id]
        self.counts = []    # (span index, counter name, value)
        self.pass_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, counter):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = signature.bind(*args, **kwargs).arguments.get("argv")
                span_name = f"cli.main.{argv[0] if argv else 'none'}"
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [span_name, time.perf_counter(), None, parent,
                    tracer.pass_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                if name in _FALLBACK_SPANS:
                    result = tracer._call_counting_fallbacks(
                        index, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                call = signature.bind(*args, **kwargs).arguments
                for key, value in counter(call, result).items():
                    tracer.counts.append((index, key, value))
            return result

        return wrapper

    def _call_counting_fallbacks(self, index, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        fallbacks = sum("infeasible" in str(w.message) for w in caught)
        self.counts.append((index, "fallbacks", fallbacks))
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno)
        return result

    def install(self):
        """Wrap every target in every confsens module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "confsens"
                                         or key.startswith("confsens."))]
        for mod_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"confsens.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, name, counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, holder, key, orig, wrapped):
        setattr(holder, key, wrapped)
        self._patched.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def pass_metrics(self, pass_id):
        """{'<span>.calls', '<span>.self_s', '<span>.<counter>'} summed
        over the spans of one pass; self time excludes child spans."""
        child_time = defaultdict(float)
        picked = []
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            picked.append(index)
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index in picked:
            name, start, end = self.spans[index][:3]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
        picked_set = set(picked)
        for index, key, value in self.counts:
            if index in picked_set:
                name = self.spans[index][0]
                key = "cssa.fallbacks" if key == "fallbacks" else \
                    f"{name}.{key}"
                out[key] += value
        return dict(out)

    def write(self, path):
        """Write all spans as JSON lines (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pid) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "pass": pid}) + "\n")
