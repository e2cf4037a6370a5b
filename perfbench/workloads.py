"""Workloads of the deft benchmark: seeded input files, CLI jobs, output checks.

A workload is one pass of ``deft`` CLI jobs over input files generated from
the workload seed. The benchmark repeats whole passes in a closed loop of one
caller, so every run sees the same mix of jobs. Each job is one call of the
real entry point, ``deft.cli.main(argv)``, in this process.

Why these three workloads:

* ``finetune-1k``: ``deft train`` of deft/relax at rank 8 on a seeded
  1024x1024 base weight (teacher-shift, batch 1024, CLI-default rates and
  input scale). BLAS-bound: the dense m x m products of loss+grad and
  ``forward``'s ``W0 @ x`` dominate, plus an 8 MB load and hash per job.
  It bypasses the Jacobi SVD and the subspace checks.
* ``finetune-32``: the 32x32 reference task of acceptance test c08, with one
  job for lora and one for deft with each of the seven backends. The W0
  products are microseconds, so step time is Python call overhead plus
  re-factorizing the latent each step. The inputs are fixed by the task's
  definition; the seed does not change them. deft/lrmf diverges at step 12
  on this task and is kept as a visible failed job.
* ``verify``: ``deft verify`` at its defaults (64x48, rank 8, 3 trials), one
  job per backend, each on seeds of its own. Bound by Jacobi rank checks; no
  training.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import re
import struct
import time

import numpy as np

BACKENDS = ("qr", "tsvd", "lrmf", "nmf", "eig", "relax", "relax_nmf")
WORKLOADS = ("finetune-1k", "finetune-32", "verify")
# which calibration kernel tracks the speed of each workload's work
CALIBRATION = {"finetune-1k": "blas", "finetune-32": "interp", "verify": "interp"}

# c08's reference task: W0 from seed 6000, task seed 1, 2000 steps, and a
# deft/relax rank-4 adapter that must end at or below 1e-3.
C08_W0_SEED = 6000
C08_TASK_SEED = 1
C08_STEPS = 2000
C08_MAX_FINAL = 1e-3

_DIVERGED = re.compile(r"diverged to a non-finite value at step (\d+)")
_SUMMARY = re.compile(r"steps=(\d+) final_loss=\S+ w0_frozen=(\w+) state_hash=([0-9a-f]+)")
_VERIFY_BOOLS = ("identity_ok", "subset_ok", "containment_holds", "extension_witness_ok")


def write_mat1(a, path):
    """Write `a` as a MAT1 file: magic, rows and cols as u64, f64 entries."""
    a = np.ascontiguousarray(a, dtype="<f8")
    with open(path, "wb") as f:
        f.write(b"MAT1" + struct.pack("<QQ", *a.shape) + a.tobytes())


def seeded_normal(seed, rows, cols):
    """Standard normal draws from a Philox stream, as deft seeds its matrices."""
    return np.random.Generator(np.random.Philox(seed)).normal(0.0, 1.0, size=(rows, cols))


@dataclasses.dataclass
class Job:
    """One CLI call. `argv` holds ``{out}`` where the job's output path goes."""

    name: str
    command: str  # "train" or "verify"
    argv: list
    work: int  # SGD steps or verify trials the job attempts
    w0: np.ndarray | None = None  # base weight a train checkpoint must reload against
    max_final: float | None = None  # convergence gate on the final loss
    reference: bool = False  # final_mse is read from this job


@dataclasses.dataclass
class JobResult:
    job: Job
    code: int
    seconds: float
    done: int  # steps or trials completed
    problems: list = dataclasses.field(default_factory=list)  # failed output checks
    final_mse: float | None = None

    @property
    def failed(self):
        return self.code != 0 or bool(self.problems)


def _config(method, rank, backend=None, **extra):
    lines = [f"method = {method}", f"rank = {rank}"]
    if backend is not None:
        lines.append(f"backend = {backend}")
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"


def _train_job(name, inputs, config_text, steps, w0, w0_path, task_seed=None, **kw):
    cfg_path = os.path.join(inputs, name.replace("/", "_") + ".cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(config_text)
    argv = ["train", "--w0", w0_path, "--config", cfg_path, "--steps", str(steps),
            "--out", "{out}"]
    if task_seed is not None:
        argv += ["--task-seed", str(task_seed)]
    return Job(name, "train", argv, steps, w0=w0, **kw)


def make_jobs(workload, seed, inputs, dim=1024, steps=None, trials=3):
    """Generate the workload's input files under `inputs`; return its pass of jobs.

    `dim`, `steps` and `trials` exist so tests can run the same jobs small.
    """
    os.makedirs(inputs, exist_ok=True)
    if steps is None:
        steps = C08_STEPS if workload == "finetune-32" else 10
    if workload == "finetune-1k":
        w0 = seeded_normal(seed, dim, dim)
        w0_path = os.path.join(inputs, "w0.mat")
        write_mat1(w0, w0_path)
        text = _config("deft", 8, "relax", seed=seed)
        return [_train_job("deft/relax", inputs, text, steps, w0, w0_path, reference=True)]
    if workload == "finetune-32":
        w0 = seeded_normal(C08_W0_SEED, 32, 32)
        w0_path = os.path.join(inputs, "w0.mat")
        write_mat1(w0, w0_path)
        rates = {"lr_p": 1e-3, "lr_r": 1e-2, "init_stddev": 0.1, "seed": 0}
        jobs = [_train_job("lora", inputs, _config("lora", 4, **rates), steps, w0, w0_path,
                           task_seed=C08_TASK_SEED)]
        for kind in BACKENDS:
            ref = kind == "relax"
            jobs.append(_train_job(f"deft/{kind}", inputs, _config("deft", 4, kind, **rates),
                                   steps, w0, w0_path, task_seed=C08_TASK_SEED,
                                   reference=ref, max_final=C08_MAX_FINAL if ref else None))
        return jobs
    if workload == "verify":
        # trial t of a job draws its W0 from seed + t; seeds of their own per
        # job make a pass cover 21 W0s, since a check's Jacobi sweeps depend on W0
        return [Job(f"verify/{kind}", "verify",
                    ["verify", "--backend", kind.replace("_", "-"), "--trials", str(trials),
                     "--seed", str(trials * (len(BACKENDS) * seed + j)), "--out", "{out}"],
                    trials)
                for j, kind in enumerate(BACKENDS)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def warmup_job(job):
    """The same CLI call with 2 steps or 1 trial, to run once before timing."""
    flag, small = ("--steps", 2) if job.command == "train" else ("--trials", 1)
    argv = list(job.argv)
    argv[argv.index(flag) + 1] = str(small)
    return dataclasses.replace(job, argv=argv, work=small, max_final=None, reference=False)


def call_cli(argv):
    """Run ``deft.cli.main(argv)`` in this process; return (code, stdout, stderr)."""
    from deft import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_job(job, out, on_call=None):
    """Run `job` writing to `out`, then check its outputs.

    `on_call`, if given, is a context-manager factory entered around the CLI
    call alone (the tracer's job span). Only the CLI call is timed.
    """
    argv = [a.replace("{out}", out) for a in job.argv]
    ctx = on_call(job) if on_call is not None else contextlib.nullcontext()
    with ctx:
        t0 = time.perf_counter()
        code, stdout, stderr = call_cli(argv)
        seconds = time.perf_counter() - t0
    result = JobResult(job, code, seconds, 0)
    if job.command == "train":
        _check_train(result, out, stdout, stderr)
    else:
        _check_verify(result, out, stdout)
    return result


def _check_train(result, out, stdout, stderr):
    job = result.job
    if result.code != 0:
        m = _DIVERGED.search(stderr)
        if result.code == 1 and m:  # a training failure, not a wrong output
            result.done = int(m.group(1))
        else:
            result.problems.append(f"exit {result.code}: {stderr.strip()[-200:]}")
        return
    from deft import store

    summary = _SUMMARY.search(stdout)
    if summary is None:
        result.problems.append("no summary line")
        return
    if summary.group(2) != "true":
        result.problems.append("w0_frozen is not true")
    try:
        with open(os.path.join(out, "report.csv"), newline="", encoding="utf-8") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        state = store.load_adapter(os.path.join(out, "adapter.adpt"), job.w0)
    except (OSError, ValueError) as exc:  # FormatError and PairingError are ValueErrors
        result.problems.append(f"outputs do not reload: {exc}")
        return
    if len(losses) != job.work + 1:
        result.problems.append(f"report.csv has {len(losses)} losses, expected {job.work + 1}")
        return
    result.done = job.work
    result.final_mse = losses[-1]
    if job.reference and not losses[-1] < losses[0]:
        result.problems.append(f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")
    if job.max_final is not None and not losses[-1] <= job.max_final:
        result.problems.append(f"final loss {losses[-1]:.3e} above {job.max_final:.0e}")
    if store.state_hash(state)[:len(summary.group(3))] != summary.group(3):
        result.problems.append("reloaded adapter's state_hash differs from the summary line")


def _check_verify(result, out, stdout):
    lines = stdout.splitlines()
    if result.code != 0 or not lines or not lines[-1].startswith("PASS:"):
        result.problems.append("verify did not print PASS")
    if not os.path.exists(out):
        return
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        bad = [c for c in _VERIFY_BOOLS if row.get(c) != "true"]
        if bad:
            result.problems.append(f"trial {row.get('trial')}: {','.join(bad)} not true")
    if len(rows) != result.job.work:
        result.problems.append(f"report has {len(rows)} trials, expected {result.job.work}")
    elif not result.problems:
        result.done = len(rows)
