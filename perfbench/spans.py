"""Tracing for the deft benchmark, from outside the program.

`Tracer.install()` replaces each traced deft function at every module binding
it is called through (``deft.train.forward``, ``deft.adapters.decompose``,
``deft.cli.numerical_rank``, ...) with a wrapper that records a span: name,
binding site, start, end, parent span and job id. `Tracer.restore()` puts the
original objects back. Spans stay in memory until `write_spans`; the
per-layer metrics are computed from them by `layer_metrics`.

A function that calls itself through its own binding (``jacobi_svd`` on a
wide input recurses on the transpose) records one span per outer call.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

import numpy as np

from workloads import BACKENDS as KINDS

NOTES = ("degenerate_columns", "zero_singular_columns", "clamped_negative_input")


def _decompose_info(args, kwargs, out):
    backend = kwargs["backend"] if "backend" in kwargs else args[1]
    iters = len(out.aux["err_trace"]) if out.kind == "nmf" else 0
    return backend.kind, tuple(out.notes), iters


def _jacobi_info(args, kwargs, out):
    m, n = np.shape(args[0])
    return max(m, n) * min(m, n) ** 2  # computed from the shape, not measured


def _as_matrix_info(args, kwargs, out):
    return out.nbytes


def _hash_info(args, kwargs, out):
    return np.asarray(args[0]).nbytes


# (defining module, function, span name, info extractor)
TARGETS = (
    ("deft.train", "run_finetune", "train.run_finetune", None),
    ("deft.train", "sgd_step", "train.sgd_step", None),
    ("deft.train", "make_teacher_shift_task", "train.make_teacher_shift_task", None),
    ("deft.adapters", "forward", "adapters.forward", None),
    ("deft.adapters", "refresh", "adapters.refresh", None),
    ("deft.adapters", "merge", "adapters.merge", None),
    ("deft.decompose", "decompose", "decompose.decompose", _decompose_info),
    ("deft._jacobi", "jacobi_svd", "jacobi.jacobi_svd", _jacobi_info),
    ("deft.matcore", "numerical_rank", "matcore.numerical_rank", None),
    ("deft.matcore", "as_matrix", "matcore.as_matrix", _as_matrix_info),
    ("deft.subspace", "check_containment", "subspace.check_containment", None),
    ("deft.store", "load_matrix", "store.load_matrix", None),
    ("deft.store", "save_adapter", "store.save_adapter", None),
    ("deft.store", "load_adapter", "store.load_adapter", None),
    ("deft.store", "matrix_hash", "store.matrix_hash", _hash_info),
)

# name -> unit of every per-layer metric `layer_metrics` reports. Counts and
# bytes are per job; "ms" is busy time per call (total / calls).
PER_LAYER = {
    "train.run_finetune.self_ms_per_step": "ms",
    "train.sgd_step.ms": "ms",
    "train.make_teacher_shift_task.ms": "ms",
    "train.final_mse": "MSE",
    "adapters.forward.calls": "calls/job",
    "adapters.forward.ms": "ms",
    "adapters.refresh.calls": "calls/job",
    "adapters.refresh.hit_ratio": "ratio",
    "adapters.decompose.calls": "calls/job",
    "adapters.merge.ms": "ms",
    **{f"decompose.decompose.ms.{k}": "ms" for k in KINDS},
    "decompose.nmf.iters_per_call": "iters",
    **{f"decompose.notes.{n}": "count/job" for n in NOTES},
    "jacobi.jacobi_svd.calls": "calls/job",
    "jacobi.jacobi_svd.ms": "ms",
    "jacobi.jacobi_svd.work_mn2": "mn2/job",
    "matcore.numerical_rank.calls": "calls/job",
    "matcore.numerical_rank.ms": "ms",
    "subspace.check_containment.ms": "ms",
    "matcore.as_matrix.calls": "calls/job",
    "matcore.as_matrix.ms": "ms",
    "matcore.as_matrix.bytes": "B/job",
    "store.load_matrix.ms": "ms",
    "store.save_adapter.ms": "ms",
    "store.load_adapter.ms": "ms",
    "store.matrix_hash.calls": "calls/job",
    "store.matrix_hash.bytes": "B/job",
    "cli.train.self_ms": "ms",
    "cli.verify.self_ms": "ms",
    "bench.throughput.untraced": "1/s",
    "bench.throughput.traced": "1/s",
    "bench.trace_overhead": "ratio",
    "bench.calibration_ms": "ms",
}


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "job", "info")

    def __init__(self, name, site, start, parent, job):
        self.name, self.site, self.start, self.end = name, site, start, start
        self.parent, self.job, self.info = parent, job, None


class Tracer:
    """Records spans around deft's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans
        self.job = -1
        self.bindings = []  # (module, attribute, original)

    def _wrap(self, fn, name, site, info):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(name, site, 0.0, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every binding of each target in the loaded ``deft`` modules."""
        modules = [(n, m) for n, m in sys.modules.items()
                   if m is not None and (n == "deft" or n.startswith("deft."))]
        for defining, attr, name, info in TARGETS:
            fn = getattr(sys.modules[defining], attr)
            for mod_name, module in modules:
                site = mod_name.rpartition(".")[2]
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self.bindings.append((module, binding, fn))
                        setattr(module, binding, self._wrap(fn, name, site, info))
        return self

    def restore(self):
        for module, binding, fn in reversed(self.bindings):
            setattr(module, binding, fn)
        self.bindings.clear()

    @contextlib.contextmanager
    def job_span(self, command):
        """Start a new job and record its CLI call as the root span ``cli.<command>``.

        The job id stays current after the call, so the benchmark's output
        checks are attributed to the same job.
        """
        self.job += 1
        span = Span(f"cli.{command}", "bench", 0.0, -1, self.job)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans, jobs, steps):
    """Per-layer metrics from the spans of `jobs` jobs that completed `steps` SGD steps.

    Returns name -> value for every `PER_LAYER` name except ``train.final_mse``
    and the ``bench.*`` throughput figures, which the runner adds.
    """
    selfs = self_times(spans)
    calls, busy, infos = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        if s.info is not None:
            infos.setdefault(s.name, []).append(s.info)
    jobs = max(jobs, 1)

    def per_job(name):
        return calls.get(name, 0) / jobs

    def ms(name):
        n = calls.get(name, 0)
        return 1e3 * busy[name] / n if n else 0.0

    def self_ms(name):
        vals = [t for s, t in zip(spans, selfs) if s.name == name]
        return 1e3 * statistics.fmean(vals) if vals else 0.0

    m = {}
    run_self = sum(t for s, t in zip(spans, selfs) if s.name == "train.run_finetune")
    m["train.run_finetune.self_ms_per_step"] = 1e3 * run_self / steps if steps else 0.0
    for name in ("train.sgd_step", "train.make_teacher_shift_task", "adapters.forward",
                 "adapters.merge", "jacobi.jacobi_svd", "matcore.numerical_rank",
                 "subspace.check_containment", "matcore.as_matrix", "store.load_matrix",
                 "store.save_adapter", "store.load_adapter"):
        m[f"{name}.ms"] = ms(name)
    for name in ("adapters.forward", "adapters.refresh", "jacobi.jacobi_svd",
                 "matcore.numerical_rank", "matcore.as_matrix", "store.matrix_hash"):
        m[f"{name}.calls"] = per_job(name)

    refresh_idx = {i for i, s in enumerate(spans) if s.name == "adapters.refresh"}
    misses = {s.parent for s in spans if s.name == "decompose.decompose" and s.parent in refresh_idx}
    m["adapters.refresh.hit_ratio"] = 1.0 - len(misses) / len(refresh_idx) if refresh_idx else 0.0
    m["adapters.decompose.calls"] = sum(
        1 for s in spans if s.name == "decompose.decompose" and s.site == "adapters") / jobs

    dec = [(s.info, s.end - s.start) for s in spans
           if s.name == "decompose.decompose" and s.info is not None]
    for kind in KINDS:
        times = [t for info, t in dec if info[0] == kind]
        m[f"decompose.decompose.ms.{kind}"] = 1e3 * statistics.fmean(times) if times else 0.0
    nmf = [info[2] for info, _ in dec if info[0] == "nmf"]
    m["decompose.nmf.iters_per_call"] = statistics.fmean(nmf) if nmf else 0.0
    for note in NOTES:
        m[f"decompose.notes.{note}"] = sum(info[1].count(note) for info, _ in dec) / jobs

    m["jacobi.jacobi_svd.work_mn2"] = sum(infos.get("jacobi.jacobi_svd", ())) / jobs
    m["matcore.as_matrix.bytes"] = sum(infos.get("matcore.as_matrix", ())) / jobs
    m["store.matrix_hash.bytes"] = sum(infos.get("store.matrix_hash", ())) / jobs
    m["cli.train.self_ms"] = self_ms("cli.train")
    m["cli.verify.self_ms"] = self_ms("cli.verify")
    return m


def write_spans(spans, path):
    """Write spans as CSV: index, name, site, start_s, end_s, self_s, parent, job."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as f:
        f.write("index,name,site,start_s,end_s,self_s,parent,job\n")
        for i, (s, t) in enumerate(zip(spans, selfs)):
            f.write(f"{i},{s.name},{s.site},{s.start!r},{s.end!r},{t!r},{s.parent},{s.job}\n")
