"""Outside-in tracing of echofit's layers.

While a tracer is installed, each public entry point of a layer is
replaced, under every name its callers look up, by a wrapper that records
a span: name, start, end and the enclosing span.  The frozen ``CATALOG``
specs are swapped for ``dataclasses.replace`` copies whose ``eval_fn`` and
``jac_fn`` are wrapped.  ``uninstall`` puts every original back.  Spans
stay in memory; self time (a span's duration minus its direct children's)
is computed from them at the end, and ``save`` writes them out.

Counts that describe the work rather than its speed (LM iterations,
accepted steps, restarts that agree, points evaluated, rows, bytes) are
read from the values the entry points return, per operation.

``cli`` is a thin argparse shell over ``pipeline`` and is not traced.
"""

import dataclasses
import functools
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

from echofit import catalog, fitting, guesses, models, pipeline, synth, trace

ROOT_SPAN = "op"


def _on_fit(counts, args, kwargs, res):
    counts["fit_calls"] += 1
    counts["lm_iters"] += res.n_iterations
    counts["accepted_steps"] += len(res.sse_trace) - 1
    counts["not_converged"] += "not-converged" in res.flags


def _on_multi_start(counts, args, kwargs, res):
    cfg = kwargs.get("cfg")
    counts["restarts"] += cfg.restarts if cfg is not None else 1
    counts["restarts_agreeing"] += res.n_restarts_agreeing


def _on_kernel(counts, args, kwargs, out):
    counts["points"] += len(args[1])


def _on_batch(counts, args, kwargs, out):
    _, fits = out
    counts["rows"] += len(fits)
    counts["failed_rows"] += sum(f is None for f in fits)


def _on_write_table(counts, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["bytes_written"] += os.path.getsize(path)


def _entry_points():
    """(span name, attribute, modules that bind it, hook) for every wrapped
    entry point.  The first module defines the function."""
    points = [
        ("fitting.fit", "fit", (fitting, pipeline), _on_fit),
        ("fitting.multi_start", "multi_start_fit", (fitting, pipeline), _on_multi_start),
        ("guesses.initial_guess", "initial_guess", (guesses, pipeline), None),
        ("synth.synth_trace", "synth_trace", (synth, pipeline), None),
        ("synth.synth_scan", "synth_scan", (synth,), None),
        ("pipeline.batch_2ppe", "batch_fit_2ppe", (pipeline,), _on_batch),
        ("pipeline.batch_3ppe", "batch_fit_3ppe", (pipeline,), _on_batch),
        ("pipeline.emit_report", "emit_report", (pipeline,), None),
        ("pipeline.run_demo", "run_demo", (pipeline,), None),
        ("trace.write_table", "write_table", (trace, pipeline), _on_write_table),
        ("trace.load_table", "load_table", (trace,), None),
    ]
    for attr in ("to_internal", "to_natural", "dnatural_dinternal"):
        points.append(("catalog.transform", attr, (catalog, fitting), None))
    for attr, obj in vars(models).items():
        if (inspect.isfunction(obj) and obj.__module__ == models.__name__
                and not attr.startswith("_")):
            points.append((f"models.{attr}", attr, (models,), None))
    return points


class Tracer:
    """Spans and per-operation counts of one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = Counter()
        self.op_counts = []    # Counter per traced operation
        self.op_spans = []     # (first span index, end span index) per operation
        self._saved = []
        self._roots = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook=None):
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        for name, attr, modules, hook in _entry_points():
            original = getattr(modules[0], attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for key, spec in list(catalog.CATALOG.items()):
            self._saved.append((catalog.CATALOG, key, spec))
            catalog.CATALOG[key] = dataclasses.replace(
                spec,
                eval_fn=self._wrap("catalog.eval", spec.eval_fn, _on_kernel),
                jac_fn=self._wrap("catalog.jac", spec.jac_fn, _on_kernel))

    def uninstall(self):
        while self._saved:
            target, key, original = self._saved.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def call(self, fn, arg):
        """Run one operation as a root span, keeping its counts apart."""
        if fn not in self._roots:
            self._roots[fn] = self._wrap(ROOT_SPAN, fn)
        self.counts = Counter()
        first = len(self.start)
        try:
            return self._roots[fn](arg)
        finally:
            self.op_counts.append(self.counts)
            self.op_spans.append((first, len(self.start)))

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    # ------------------------------------------------------------------
    # Aggregation

    def self_ns_by_name(self):
        """Total self time in ns per span name, over every traced span."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        total = np.bincount(np.asarray(self.name_id), weights=dur - child,
                            minlength=len(self.names))
        return dict(zip(self.names, total.tolist()))

    def root_ns(self):
        """Total duration of the root spans, in ns."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        return float(dur[np.asarray(self.name_id) == self._ids[ROOT_SPAN]].sum())

    def pass_counts(self, first_op, n_ops):
        """Counts of operations [first_op, first_op + n_ops): the hook counts
        plus ``calls:<span name>`` for every span name."""
        total = Counter()
        for c in self.op_counts[first_op:first_op + n_ops]:
            total.update(c)
        lo = self.op_spans[first_op][0]
        hi = self.op_spans[first_op + n_ops - 1][1]
        calls = np.bincount(np.asarray(self.name_id)[lo:hi], minlength=len(self.names))
        for name, n in zip(self.names, calls.tolist()):
            total[f"calls:{name}"] += n
        return total


# Per-layer time metrics: metric name -> span-name prefix whose self time
# it sums.
TIME_METRICS = {
    "catalog.eval_ms": "catalog.eval",
    "catalog.jac_ms": "catalog.jac",
    "catalog.transform_ms": "catalog.transform",
    "fitting.self_ms": "fitting.fit",
    "fitting.multi_start_self_ms": "fitting.multi_start",
    "guesses.self_ms": "guesses.",
    "synth.self_ms": "synth.",
    "models.self_ms": "models.",
    "pipeline.batch_2ppe_self_ms": "pipeline.batch_2ppe",
    "pipeline.batch_3ppe_self_ms": "pipeline.batch_3ppe",
    "pipeline.emit_report_self_ms": "pipeline.emit_report",
    "pipeline.run_demo_self_ms": "pipeline.run_demo",
    "trace.write_table_ms": "trace.write_table",
    "trace.load_table_ms": "trace.load_table",
    "op.self_ms": ROOT_SPAN,
}

# Per-layer counts: metric name -> hook count, or calls of the span names
# with a prefix.
COUNT_METRICS = {
    "catalog.eval_calls": "calls:catalog.eval",
    "catalog.jac_calls": "calls:catalog.jac",
    "catalog.points_evaluated": "points",
    "catalog.transform_calls": "calls:catalog.transform",
    "fitting.fit_calls": "fit_calls",
    "fitting.multi_start_calls": "calls:fitting.multi_start",
    "fitting.lm_iters": "lm_iters",
    "fitting.accepted_steps": "accepted_steps",
    "fitting.not_converged": "not_converged",
    "guesses.calls": "calls:guesses.",
    "synth.calls": "calls:synth.",
    "models.calls": "calls:models.",
    "pipeline.rows": "rows",
    "pipeline.failed_rows": "failed_rows",
    "trace.write_table_calls": "calls:trace.write_table",
    "trace.load_table_calls": "calls:trace.load_table",
    "trace.bytes_written": "bytes_written",
}


def _ratio(num, den):
    return num / den if den else 0.0


def count_metrics(counts, n_ops):
    """Per-operation count metrics from the counts of ``n_ops`` operations."""
    def total(key):
        if key.startswith("calls:"):
            return sum(v for k, v in counts.items() if k.startswith(key))
        return counts[key]

    out = {m: total(key) / n_ops for m, key in COUNT_METRICS.items()}
    out["catalog.evals_per_iter"] = _ratio(total("calls:catalog.eval"), counts["lm_iters"])
    out["fitting.accept_ratio"] = _ratio(counts["accepted_steps"], counts["lm_iters"])
    out["fitting.restart_agree_ratio"] = _ratio(counts["restarts_agreeing"],
                                                counts["restarts"])
    return out


def time_metrics(tracer, n_ops):
    """Per-operation self time in ms of each layer, over every traced op."""
    self_ns = tracer.self_ns_by_name()
    out = {}
    for metric, prefix in TIME_METRICS.items():
        ns = sum(v for k, v in self_ns.items() if k.startswith(prefix))
        out[metric] = ns / n_ops / 1e6
    out["traced_op_ms"] = tracer.root_ns() / n_ops / 1e6
    return out
