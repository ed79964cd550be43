"""Run one busflux CLI stage with spans recorded around its layer calls.

    python3 bench/shim.py STAGE SPANS_JSON busflux-args...

Public functions are replaced on their module objects by wrappers that
record a span (name, start, end, parent span, rows in and out) and return
the wrapped result untouched, so outputs stay byte-identical to an
untraced run. Per-row and private functions are never wrapped: a span per
row would cost more than the work it measures. Spans are kept in memory
and written to SPANS_JSON when the stage ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import busflux.cleaning
import busflux.cli
import busflux.manifest
import busflux.models.mlp
import busflux.models.tree
from busflux.features import FeatureCodec


def _rows(value):
    """Row count of a stage value: a list, a tuple led by a list, a feature
    matrix or an array; None for anything else."""
    if isinstance(value, tuple) and value and isinstance(value[0], list):
        value = value[0]
    if isinstance(value, list):
        return len(value)
    n_rows = getattr(value, "n_rows", None)
    if isinstance(n_rows, int):
        return n_rows
    shape = getattr(value, "shape", None)
    return shape[0] if isinstance(shape, tuple) and shape else None


def _count_parse(counts, args, result):
    frames, report = result
    counts["frames.rows_ok"] = report.rows_ok
    counts["frames.rows_bad"] = report.rows_bad
    counts["frames.devices"] = len({f.device for f in frames})


def _count_clean(counts, args, result):
    segments, report = result
    counts["cleaning.segments"] = len(segments)
    counts["cleaning.kept_ratio"] = report.kept_frames / max(report.input_frames, 1)


def _count_save(counts, args, result):
    if type(args[0]).__name__ == "GbtEnsemble":
        counts["store.gbt_bytes"] = os.path.getsize(args[1])


def _count_hashed(counts, args, result):
    counts["manifest.bytes_hashed"] = counts.get("manifest.bytes_hashed", 0) + os.path.getsize(args[0])


COUNTERS = {
    "frames.parse_frame_csv": _count_parse,
    "cleaning.clean": _count_clean,
    "aggregation.minute_counts": lambda c, a, r: c.__setitem__("aggregation.minute_rows", len(r)),
    "aggregation.hourly_counts": lambda c, a, r: c.__setitem__("aggregation.hourly_rows", len(r)),
    "features.split_rows": lambda c, a, r: c.__setitem__("features.train_rows", len(r[0])),
    "features.FeatureCodec.fit": lambda c, a, r: c.__setitem__("features.columns", len(r.columns)),
    "boosting.gbt_fit": lambda c, a, r: c.__setitem__(
        "boosting.splits", sum(len(t.splits) for t in r.trees)),
    "store.save_model": _count_save,
    "manifest.sha256_file": _count_hashed,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                    "start": time.perf_counter()}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            span["rows_in"] = next((n for n in map(_rows, args) if n is not None), None)
            span["rows_out"] = _rows(result)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the stage calls as the CLI imported them, plus the layer
        calls those make through their own module globals."""
        cli = busflux.cli
        for attr, obj in list(vars(cli).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith("busflux.") \
                    and obj.__module__ != cli.__name__:
                setattr(cli, attr, self.wrap(obj))
        for module, attrs in (
            (busflux.cleaning, ("filter_randomized", "filter_single_stop", "filter_rssi",
                                "segment", "filter_duration")),
            (busflux.models.mlp, ("loss_and_grads", "mlp_forward")),
            (busflux.manifest, ("sha256_file",)),
        ):
            for attr in attrs:
                setattr(module, attr, self.wrap(getattr(module, attr)))
        busflux.models.tree.RegressionTree.predict = self.wrap(
            busflux.models.tree.RegressionTree.predict)
        FeatureCodec.transform = self.wrap(FeatureCodec.transform)
        FeatureCodec.fit = classmethod(self.wrap(vars(FeatureCodec)["fit"].__func__))

    def summary(self) -> dict:
        """Per span name: summed seconds, summed self seconds, and calls."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            dur = span["end"] - span["start"]
            entry = out.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
            entry["calls"] += 1
        return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    stage, spans_path, *cli_argv = argv
    tracer = Tracer()
    tracer.install()
    root = {"name": stage, "parent": None, "start": time.perf_counter()}
    tracer.spans.append(root)
    tracer.stack.append(0)
    try:
        return busflux.cli.main(cli_argv)
    finally:
        root["end"] = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"stage": stage, "summary": tracer.summary(), "counts": tracer.counts,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
