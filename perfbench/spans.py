"""Span tracing of soundloc's public functions, installed from outside.

A traced run replaces each listed function with a wrapper in the namespace
where its caller looks it up (``soundloc.model.run_heads``, not
``soundloc.heads.run_heads``, because ``model`` imported the name), so no
file of the package changes. Each call records one span: name, start, end
and the index of its parent span. Spans stay in memory and are written when
the run ends.

The benchmark opens a root span around every setup and every measured
operation. A span's self time is its duration minus the durations of its
direct children; calls are single-threaded and strictly nested, so children
never overlap. Coverage is the share of root time that module spans account
for; the rest is benchmark glue and functions without a span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

# (module where the caller looks the name up, attribute path, span name).
# A function called from two modules under an imported name is patched in
# both, under one span name.
SPANS = [
    ("soundloc.autodiff", "backward", "autodiff.backward"),
    ("soundloc.autodiff", "gelu", "autodiff.gelu"),
    ("soundloc.autodiff", "matmul", "autodiff.matmul"),
    ("soundloc.autodiff", "conv1d", "autodiff.conv1d"),
    ("soundloc.autodiff", "layer_norm", "autodiff.layer_norm"),
    ("soundloc.autodiff", "softmax_lastdim", "autodiff.softmax_lastdim"),
    ("soundloc.model", "build_pyramid", "backbone.build_pyramid"),
    ("soundloc.backbone", "embed", "backbone.embed"),
    ("soundloc.backbone", "transformer_block", "backbone.transformer_block"),
    ("soundloc.backbone", "windowed_msa", "backbone.windowed_msa"),
    ("soundloc.model", "run_heads", "heads.run_heads"),
    ("soundloc.model", "generate_points", "heads.generate_points"),
    ("soundloc.train", "assign_targets", "losses.assign_targets"),
    ("soundloc.train", "loss_sums", "losses.loss_sums"),
    ("soundloc.model", "recover_intervals", "decode.recover_intervals"),
    ("soundloc.model", "soft_nms", "decode.soft_nms"),
    ("soundloc.model", "select_top_k", "decode.select_top_k"),
    ("soundloc.evaluate", "mean_ap", "evaluate.mean_ap"),
    ("soundloc.evaluate", "average_precision", "evaluate.average_precision"),
    ("soundloc.train", "forward_video", "model.forward_video"),
    ("soundloc.model", "forward_video", "model.forward_video"),
    ("soundloc.model", "predict_intervals", "model.predict_intervals"),
    ("soundloc.train", "predict_intervals", "model.predict_intervals"),
    ("soundloc.train", "save_checkpoint", "model.save_checkpoint"),
    ("soundloc.model", "load_checkpoint", "model.load_checkpoint"),
    ("soundloc.model", "check_checkpoint_shapes", "model.check_checkpoint_shapes"),
    ("soundloc.train", "train_step", "train.train_step"),
    ("soundloc.train", "AdamW.step", "train.AdamW.step"),
    ("soundloc.params", "bind", "params.bind"),
    ("soundloc.params", "collect_grads", "params.collect_grads"),
    ("soundloc.params", "clip_by_global_norm", "params.clip_by_global_norm"),
    ("soundloc.data", "load_features", "data.load_features"),
    ("soundloc.data", "fuse_features", "data.fuse_features"),
    ("soundloc.datasets", "load_feature_dir", "datasets.load_feature_dir"),
    ("soundloc.datasets", "load_dataset", "datasets.load_dataset"),
    ("soundloc.data", "load_predictions", "data.load_predictions"),
    ("soundloc.data", "load_annotations", "data.load_annotations"),
    ("soundloc.data", "write_predictions", "data.write_predictions"),
]

# Spans the benchmark opens itself around a batch of calls into a layer:
# building Interval objects is the eval command's own work and is too
# fine-grained (10^5 calls per operation) to wrap one call at a time.
BATCH_SPANS = ["decode.Interval"]

SPAN_NAMES = sorted({name for _, _, name in SPANS} | set(BATCH_SPANS))

# The benchmark's own untimed work inside an operation (moving to a free
# CPU, see laps.py): it counts neither as a layer's time nor as traced time.
UNTIMED_SPAN = "untimed"


def _counters(name, args, result):
    """Work counts taken at a span boundary, from its arguments and result."""
    if name == "decode.recover_intervals":
        return {"decode.candidates": len(result)}
    if name == "decode.soft_nms":
        return {"decode.survivors": len(result)}
    if name == "decode.select_top_k":
        return {"decode.kept": len(result)}
    if name == "losses.loss_sums":
        return {"losses.positives": result[2]}
    if name == "evaluate.mean_ap":
        return {"evaluate.detections": len(args[0]), "evaluate.gts": len(args[1])}
    if name == "data.load_features":
        return {"data.load_features.bytes": os.path.getsize(args[0])}
    return None


COUNTER_NAMES = ["autodiff.records", "data.load_features.bytes",
                 "decode.candidates", "decode.kept", "decode.survivors",
                 "evaluate.detections", "evaluate.gts", "losses.positives"]


class NullTracer:
    """Untraced runs: root spans and counts cost nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    """Records nested spans and boundary counts for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent]
        self.stack = []
        self.counts = defaultdict(float)   # (phase, counter) -> total
        self._patched = []

    def _phase(self):
        return self.spans[self.stack[0]][0] if self.stack else "none"

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; at the top it is a root."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:   # outside set-up and operations: not measured
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counts = _counters(name, args, result)
            if counts:
                phase = self._phase()
                for key, value in counts.items():
                    self.counts[(phase, key)] += value
            return result
        return traced

    def install(self):
        for module_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

        from soundloc.autodiff import Tape
        record = Tape.record
        tracer = self

        def counted_record(tape, out_values, bwd):
            tracer.counts[(tracer._phase(), "autodiff.records")] += 1
            return record(tape, out_values, bwd)

        self._patched.append((Tape, "record", record))
        Tape.record = counted_record

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def aggregate(self):
        """Self time and calls per (phase, span name), and root time per phase.

        Returns ``(self_ns, calls, root_ns, root_self_ns)``; the last two map
        a phase to the total and the uncovered time of its root spans.
        """
        n = len(self.spans)
        child_ns = [0] * n
        root_of = [0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        root_ns = defaultdict(int)
        root_self_ns = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child_ns[i]
            if name == UNTIMED_SPAN:
                root_ns[self.spans[root_of[i]][0]] -= end - start
            elif parent < 0:
                root_ns[name] += end - start
                root_self_ns[name] += own
            else:
                phase = self.spans[root_of[i]][0]
                self_ns[(phase, name)] += own
                calls[(phase, name)] += 1
        return self_ns, calls, root_ns, root_self_ns

    def summary(self, units):
        """Per-layer metrics: self time and calls per unit of their phase.

        ``units`` maps a root phase to how many units it did (set-ups, or
        measured operations), so work in set-up is reported per set-up and
        work in the measured loop per operation.
        """
        self_ns, calls, root_ns, root_self_ns = self.aggregate()
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_ms"] = sum(
                self_ns[(p, name)] / 1e6 / u for p, u in units.items())
            metrics[f"{name}.calls"] = sum(
                calls[(p, name)] / u for p, u in units.items())
        for name in COUNTER_NAMES:
            metrics[name] = sum(self.counts[(p, name)] / u
                                for p, u in units.items())
        cand = metrics["decode.candidates"]
        metrics["decode.kept_ratio"] = metrics["decode.kept"] / cand if cand else 0.0
        total = sum(root_ns.values())
        metrics["trace.coverage"] = (
            1.0 - sum(root_self_ns.values()) / total if total else 0.0)
        return metrics

    def write(self, path):
        """All spans as JSON: names once, then [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {"names": names, "fields": ["name", "start_ns", "end_ns", "parent"],
               "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
