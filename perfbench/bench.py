"""The deft benchmark runner; see run.py for the command line.

One run: set up `SETUP_REPEATS` times (fresh import of ``deft`` from the
checkout's ``src`` plus generating the workload's input files), run one
untimed warm-up pass, then repeat whole passes of the workload's CLI jobs
for ``--seconds``. With ``--trace 1`` the time is split: the first half runs
untraced, the second half with `spans.Tracer` installed, and the per-layer
metrics come from the traced half.

End-to-end metrics (``--trace 0``), each for the workload as a whole:

* ``throughput`` (1/s): SGD steps per second of ``deft train`` time on the
  finetune workloads, verify trials per second on ``verify``, at nominal
  machine speed (see `Calibration` and `measure`). Only completed steps
  count.
* ``ok_share`` (ratio): jobs that exited 0 and passed their output checks,
  over jobs attempted.
* ``setup_s`` (s): median time of one set-up at nominal speed, each divided
  by the factor of an ``interp`` calibration timed right after it.
* ``peak_rss_mb`` (MiB): peak resident set of the process.

Per-layer times (``--trace 1``) are wall times, not scaled; the traced
half's calibration time is reported next to them. The traced and untraced
throughputs, and so the tracing overhead, are scaled like ``throughput``.

The last line of standard output is the JSON result; the lines before it
name the machine, the seed, failed jobs, the unscaled wall-time rate and
the metrics under the names ``steps_per_s``, ``checks_per_s``,
``final_mse`` and ``failed_share``.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 9

END_TO_END = {"throughput": "1/s", "ok_share": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}

# Nominal time of each calibration kernel; it sets the scale of the scaled
# figures and nothing else.
NOMINAL_MS = {"interp": 20.0, "blas": 32.0}


class SetupError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import ``deft`` anew from the checkout's src, dropping any loaded copy."""
    if not os.path.isfile(os.path.join(SRC, "deft", "cli.py")):
        raise SetupError(f"no deft sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "deft" or n.startswith("deft.")]:
        del sys.modules[name]
    import deft.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(deft.cli.__file__))) != SRC:
        raise SetupError(f"deft imported from {deft.cli.__file__}, not from {SRC}")


def machine():
    """nproc, BLAS, numpy, Python and last-level cache of this machine."""
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown",
            "llc": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["blas_threads"] = fn()
                break
    levels = []
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as f, open(os.path.join(d, "size")) as g:
                levels.append((int(f.read()), g.read().strip()))
        except OSError:
            continue
    if levels:
        info["llc"] = max(levels)[1]
    return info


class Calibration:
    """A fixed computation, independent of deft, timed before every job.

    The machine this runs on is shared, and its speed drifts by tens of
    percent over minutes, slower than one run lasts, so repeating work inside
    a run cannot remove it. Timing a fixed kernel next to each job can:
    ``interp`` is interpreter and small-array numpy work like the 32x32
    training and the Jacobi checks, ``blas`` a 1024-wide matrix product like
    finetune-1k's steps. A call returns the kernel's time over its nominal,
    above 1 while the machine runs slow.
    """

    def __init__(self, kind):
        rng = np.random.Generator(np.random.Philox(0))
        shapes = {"interp": ((32, 32), (64, 8)), "blas": ((1024, 1024), (1024, 256))}[kind]
        self.kind = kind
        self.a, self.b = (rng.normal(size=shape) for shape in shapes)
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        if self.kind == "interp":
            for _ in range(400):
                c = self.a @ self.a
                np.linalg.qr(self.b)
                float(np.einsum("ij,ij->", c, c))
                sum([i * 2 for i in range(50)])
        else:
            for _ in range(4):
                self.a @ self.b
        self.times.append(time.perf_counter() - t0)
        return 1e3 * self.times[-1] / NOMINAL_MS[self.kind]

    def median_ms(self):
        return 1e3 * statistics.median(self.times)


def measure(jobs, seconds, out_dir, calibration, tracer=None):
    """Repeat whole passes of `jobs` until `seconds` have passed.

    Returns the job results, the wall-time throughput and the throughput at
    nominal speed. For each job of the pass, its completed work and its CLI
    time are medians over the passes; the pass's work over its time is the
    throughput. At nominal speed, each job's time is first divided by the
    factor of the `calibration` run just before it. The medians keep one
    slow pass from deciding the figure.
    """
    os.makedirs(out_dir, exist_ok=True)
    on_call = (lambda job: tracer.job_span(job.command)) if tracer is not None else None
    results, factors = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for job in jobs:
            out = os.path.join(out_dir, f"job{len(results)}")
            if job.command == "verify":
                out += ".csv"
            factors.append(calibration())
            results.append(workloads.run_job(job, out, on_call))
        if time.perf_counter() >= deadline:
            break
    n = len(jobs)
    done = sum(statistics.median(r.done for r in results[i::n]) for i in range(n))
    wall = sum(statistics.median(r.seconds for r in results[i::n]) for i in range(n))
    nominal = sum(statistics.median(r.seconds / f for r, f in zip(results[i::n], factors[i::n]))
                  for i in range(n))
    return results, done / wall, done / nominal


def _report(results):
    """Print failed jobs; return (attempted, failed, correct)."""
    failed = [r for r in results if r.failed]
    seen = collections.Counter((r.job.name, r.code, r.done, tuple(r.problems)) for r in failed)
    for (name, code, done, problems), n in seen.items():
        detail = f"exit {code}, {done} of its work done" + "".join(f"; {p}" for p in problems)
        print(f"failed job {name} x{n}: {detail}")
    return len(results), len(failed), not any(r.problems for r in results)


def _final_mse(results):
    vals = [r.final_mse for r in results if r.job.reference and r.final_mse is not None]
    return statistics.median(vals) if vals else None


def run(workload, seed, seconds, trace, work):
    """One benchmark run in the scratch directory `work`; returns the result dict."""
    setup, setup_calibration = [], Calibration("interp")
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        jobs = workloads.make_jobs(workload, seed, os.path.join(work, f"inputs{i}"))
        setup.append((time.perf_counter() - t0, setup_calibration()))

    for i, job in enumerate(jobs):
        workloads.run_job(workloads.warmup_job(job), os.path.join(work, f"warmup{i}"))

    kind = workloads.CALIBRATION[workload]
    unit = "trials" if workload == "verify" else "steps"
    if not trace:
        calibration = Calibration(kind)
        results, rate, nominal_rate = measure(jobs, seconds, os.path.join(work, "out"),
                                              calibration)
        attempted, failed, correct = _report(results)
        metrics = {
            "throughput": nominal_rate,
            "ok_share": (attempted - failed) / attempted,
            "setup_s": statistics.median(t / f for t, f in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        rate_name = "checks_per_s" if workload == "verify" else "steps_per_s"
        print(f"{rate_name} = {rate!r} {unit}/s of wall time ({len(results) // len(jobs)} passes)")
        print(f"calibration: {calibration.kind} {calibration.median_ms()!r} ms, "
              f"setup interp {setup_calibration.median_ms()!r} ms (nominal {NOMINAL_MS})")
        print(f"throughput = {metrics['throughput']!r} {unit}/s at nominal speed")
        mse = _final_mse(results)
        if mse is not None:
            print(f"final_mse = {mse!r} MSE")
        print(f"failed_share = {failed / attempted!r} ({failed} of {attempted} jobs)")
        print(f"setup_s = {metrics['setup_s']!r} s at nominal speed "
              f"(median of {SETUP_REPEATS}: {statistics.median(t for t, _ in setup)!r} s "
              f"of wall time)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']!r} MiB")
        units = END_TO_END
    else:
        plain_calibration, calibration = Calibration(kind), Calibration(kind)
        # both rates at nominal speed, so the halves compare despite drift
        plain, _, untraced_rate = measure(jobs, seconds / 2, os.path.join(work, "plain"),
                                          plain_calibration)
        tracer = spans.Tracer().install()
        try:
            traced, _, traced_rate = measure(jobs, seconds / 2, os.path.join(work, "traced"),
                                             calibration, tracer)
        finally:
            tracer.restore()
        attempted, failed, correct = _report(plain + traced)
        steps = sum(r.done for r in traced if r.job.command == "train")
        metrics = spans.layer_metrics(tracer.spans, len(traced), steps)
        metrics["train.final_mse"] = _final_mse(traced) or 0.0
        metrics["bench.throughput.untraced"] = untraced_rate
        metrics["bench.throughput.traced"] = traced_rate
        metrics["bench.trace_overhead"] = untraced_rate / traced_rate
        metrics["bench.calibration_ms"] = calibration.median_ms()
        print(f"tracing overhead: {untraced_rate!r} {unit}/s untraced, "
              f"{traced_rate!r} {unit}/s traced, at nominal speed")
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"spans-{workload}-seed{seed}.csv")
        spans.write_spans(tracer.spans, path)
        print(f"wrote {len(tracer.spans)} spans to {path}")
        units = spans.PER_LAYER
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    args = _parse(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)  # the CLI writes any verify failure dumps into the working directory
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0
