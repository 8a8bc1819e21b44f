"""Span tracing from outside the program.

`Tracer.installed()` replaces the module-level names that fenkit's own
modules resolve at call time (every module binding that is the same
function object as the target) with a wrapper that records a span, then
restores them.  Nothing under `src/` changes, so the traced code computes
exactly what the untraced code computes.

A span is a dict with an id (its index), a name (`<module>.<function>`),
start and end (`time.perf_counter` seconds), the id of its parent span,
the run id of the timed unit it belongs to, and the counts its hook
derived from the call's arguments and result.  Spans stay in memory
until `dump`.
"""

import contextlib
import importlib
import json
import os
import time

LAYERS = ("datasets", "detectors", "ensemble", "transform", "autoencoder",
          "numerics", "decision", "pipeline", "evaluation", "cli")

# Unit of every per-layer metric a traced run reports.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "autoencoder.train_s": "s", "autoencoder.epochs": "count",
    "autoencoder.ms_per_epoch": "ms", "autoencoder.train_flops_computed": "flop",
    "autoencoder.forward_s": "s",
    "transform.fit_layer_s": "s", "transform.apply_layer_s": "s",
    "transform.fused_s": "s", "transform.window_spectra": "count",
    "transform.window_bytes_computed": "bytes", "transform.pca_s": "s",
    "transform.pca_dims": "count", "numerics.svd_s": "s",
    "detectors.bank_fit_s": "s", "detectors.kpca_fit_s": "s",
    "detectors.kpca_fits": "count", "detectors.base_score_s": "s",
    "ensemble.feature_matrix_s": "s",
    "datasets.load_csv_s": "s", "datasets.rows_ingested": "count",
    "pipeline.fit_s": "s", "pipeline.detect_s": "s",
    "pipeline.fit_self_s": "s", "pipeline.detect_self_s": "s",
    "pipeline.load_s": "s", "pipeline.save_s": "s", "pipeline.model_bytes": "bytes",
    "evaluation.cells": "count", "evaluation.cells_failed": "count",
    "decision.fit_s": "s", "decision.index_s": "s", "decision.limit": "index",
    "decision.fdr_d1": "ratio", "decision.fdr_d2": "ratio",
    "decision.far_d2": "ratio",
    "trace.overhead_s": "s",
}


def _fused_counts(args, kwargs, result):
    """Window spectra and the float64 window bytes they read, from shapes."""
    features, subsets, width = args[:3]
    rows = features.n_samples - width + 1
    return {"window_spectra": rows * len(subsets),
            "window_bytes": rows * sum(width * len(s) for s in subsets) * 8}


def _train_counts(args, kwargs, result):
    """Epochs, and dense matmul flops of full-batch training: per layer and
    epoch one forward, one weight-gradient and one input-gradient product
    of 2 * rows * fan_in * fan_out flops each."""
    ae, data, config = args[:3]
    rows = len(data)
    macs = sum(layer.weights.shape[0] * layer.weights.shape[1]
               for layer in ae.encoder_layers + ae.decoder_layers)
    return {"epochs": config.epochs,
            "train_flops": 6 * rows * macs * config.epochs}


def _pca_counts(args, kwargs, result):
    return {"pca_dims": result[0].projection.shape[1]}


def _rows_counts(args, kwargs, result):
    return {"rows": result.n_samples}


def _save_counts(args, kwargs, result):
    return {"model_bytes": os.path.getsize(args[1])}


def _decision_counts(args, kwargs, result):
    return {"limit": result.limit}


def _report_counts(args, kwargs, result):
    return {"cells": len(result.cells),
            "cells_failed": sum(cell.error is not None for cell in result.cells)}


# (module, public function, count hook or None): the public functions the
# workloads reach across a module boundary, and the stages a per-layer
# metric times.  Everything else, private helpers included, lands in the
# self time of its traced caller.
TARGETS = (
    ("datasets", "load_csv", _rows_counts),
    ("detectors", "fit_detector_bank", None),
    ("detectors", "fit_pca_detector", None),
    ("detectors", "fit_dpca_detector", None),
    ("detectors", "fit_md_detector", None),
    ("detectors", "fit_kpca_detector", None),
    ("detectors", "detector_features", None),
    ("detectors", "detector_control_limit", None),
    ("ensemble", "build_feature_matrix", None),
    ("transform", "fit_layer", None),
    ("transform", "apply_layer", None),
    ("transform", "build_fused_matrix", _fused_counts),
    ("transform", "fit_pca_reduction", _pca_counts),
    ("autoencoder", "init_autoencoder", None),
    ("autoencoder", "train", _train_counts),
    ("autoencoder", "forward", None),
    ("numerics", "singular_values", None),
    ("numerics", "sym_eig", None),
    ("numerics", "covariance", None),
    ("numerics", "empirical_quantile", None),
    ("decision", "fit_decision", _decision_counts),
    ("decision", "detection_index", None),
    ("decision", "alarms", None),
    ("pipeline", "fit", None),
    ("pipeline", "detect", None),
    ("pipeline", "save", _save_counts),
    ("pipeline", "load", None),
    ("evaluation", "run_experiment", _report_counts),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._open = []

    def _wrap(self, name, func, hook):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None,
                    "run": self.run_id, "counts": {}}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span["counts"] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every fenkit binding of each target for its traced wrapper
        for the duration of the block."""
        modules = [importlib.import_module(f"fenkit.{name}") for name in LAYERS]
        swapped = []
        try:
            for module_name, func_name, hook in TARGETS:
                original = getattr(importlib.import_module(f"fenkit.{module_name}"),
                                   func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, hook)
                for module in modules:
                    if getattr(module, func_name, None) is original:
                        setattr(module, func_name, wrapper)
                        swapped.append((module, func_name, original))
            yield self
        finally:
            for module, func_name, original in reversed(swapped):
                setattr(module, func_name, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True))
                handle.write("\n")


def unit_metrics(spans: list, run_id: str) -> dict:
    """Per-layer metrics of one traced unit, from its spans alone.  A
    span's self time is its duration minus the time of its child spans."""
    mine = [s for s in spans if s["run"] == run_id]
    child_time = {s["id"]: 0.0 for s in mine}
    for s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def self_time(span):
        return span["end"] - span["start"] - child_time[span["id"]]

    def total(name, use_self=False):
        return sum(self_time(s) if use_self else s["end"] - s["start"]
                   for s in mine if s["name"] == name)

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in mine if s["name"] == name)

    def last(name, key):
        values = [s["counts"][key] for s in mine if s["name"] == name]
        return values[-1] if values else 0.0

    metrics = {f"{layer}.self_s": sum(self_time(s) for s in mine
                                      if s["name"].split(".")[0] == layer)
               for layer in LAYERS}
    epochs = count("autoencoder.train", "epochs")
    train_s = total("autoencoder.train")
    run_experiment = {s["id"] for s in mine
                      if s["name"] == "evaluation.run_experiment"}
    metrics.update({
        "autoencoder.train_s": train_s,
        "autoencoder.epochs": epochs,
        "autoencoder.ms_per_epoch": 1000.0 * train_s / epochs if epochs else 0.0,
        "autoencoder.train_flops_computed": count("autoencoder.train", "train_flops"),
        "autoencoder.forward_s": total("autoencoder.forward"),
        "transform.fit_layer_s": total("transform.fit_layer"),
        "transform.apply_layer_s": total("transform.apply_layer"),
        "transform.fused_s": total("transform.build_fused_matrix"),
        "transform.window_spectra": count("transform.build_fused_matrix",
                                          "window_spectra"),
        "transform.window_bytes_computed": count("transform.build_fused_matrix",
                                                 "window_bytes"),
        "transform.pca_s": total("transform.fit_pca_reduction"),
        "transform.pca_dims": count("transform.fit_pca_reduction", "pca_dims"),
        "numerics.svd_s": total("numerics.singular_values"),
        "detectors.bank_fit_s": total("detectors.fit_detector_bank"),
        "detectors.kpca_fit_s": total("detectors.fit_kpca_detector"),
        "detectors.kpca_fits": sum(s["name"] == "detectors.fit_kpca_detector"
                                   for s in mine),
        "detectors.base_score_s": sum(
            s["end"] - s["start"] for s in mine
            if s["name"] == "detectors.detector_features"
            and s["parent"] in run_experiment),
        "ensemble.feature_matrix_s": total("ensemble.build_feature_matrix"),
        "datasets.load_csv_s": total("datasets.load_csv"),
        "datasets.rows_ingested": count("datasets.load_csv", "rows"),
        "pipeline.load_s": total("pipeline.load"),
        "pipeline.save_s": total("pipeline.save"),
        "pipeline.model_bytes": count("pipeline.save", "model_bytes"),
        "pipeline.fit_s": total("pipeline.fit"),
        "pipeline.detect_s": total("pipeline.detect"),
        "pipeline.fit_self_s": total("pipeline.fit", use_self=True),
        "pipeline.detect_self_s": total("pipeline.detect", use_self=True),
        "evaluation.cells": count("evaluation.run_experiment", "cells"),
        "evaluation.cells_failed": count("evaluation.run_experiment",
                                         "cells_failed"),
        "decision.fit_s": total("decision.fit_decision"),
        "decision.index_s": total("decision.detection_index"),
        "decision.limit": last("decision.fit_decision", "limit"),
    })
    return metrics
