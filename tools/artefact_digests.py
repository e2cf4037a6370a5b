"""Print a sha-256 for every artefact of a fixed battery of deft CLI runs.

Usage, from the root of a checkout:

    python3 tools/artefact_digests.py [--parent REV]

The battery writes its inputs from fixed seeds and runs ``deft.cli.main``
in-process on them:

- train: lora and deft x 7 kinds on acceptance c08's 32x32 task (2000
  steps, the rates of perfbench's finetune-32), lora, para x 7 and
  deft x 7 on a 16x12 task at input scale 2 (150 steps), and lora,
  deft/relax and deft/qr at rank 8 on a 160x128 task (20 steps), above
  the sizes where numpy's ``dot`` and ``matmul`` pick other gemm paths
  than for small matrices;
- verify: the 21 default CSVs, 7 backends x seeds 0, 7 and 21;
- decompose: 7 kinds x a tall, a wide and a non-negative input;
- adapt-init: lora, deft/tsvd and para/nmf with nmf knobs;
- displacement: the seeded probe at seeds 0 and 4, and the trained c08
  deft/relax and deft/tsvd checkpoints; the tsvd one reloads a
  factorizing adapter, which refactorizes its latent.

An artefact is a written file, or a run's exit code with its stdout and
stderr. Output and input paths are masked as <out> and <in>, and
decompose's ``time_ms`` as <masked>, so a digest depends only on what the
run computed. Each line is ``<sha-256>  <artefact>``.

With --parent, the commit REV and a snapshot of this checkout's working
tree, uncommitted edits included, are each unpacked with `git archive` into
a temporary directory (as tools/bench_file.py does). The battery runs once
on each side's src/, each in a fresh process, and every artefact that
differs or exists on one side only is printed. The exit
status is 1 if anything differs, else 0. The BLAS thread count is taken
from the environment (OPENBLAS_NUM_THREADS), the same for both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np

# this script's directory is first on sys.path
from bench_file import commit_hash, snapshot, unpack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("qr", "tsvd", "lrmf", "nmf", "eig", "relax", "relax_nmf")
RATES = "lr_p = 0.001\nlr_r = 0.01\ninit_stddev = 0.1\nseed = 0\n"
_TIME = re.compile(r"time_ms=[0-9.]+")


def _normal(seed, rows, cols):
    return np.random.Generator(np.random.Philox(seed)).normal(0.0, 1.0, size=(rows, cols))


def _write_mat1(a, path):
    a = np.ascontiguousarray(a, dtype="<f8")
    with open(path, "wb") as f:
        f.write(b"MAT1" + struct.pack("<QQ", *a.shape) + a.tobytes())


def _inputs(inp):
    """Write the battery's matrices and configs under `inp`."""
    _write_mat1(_normal(6000, 32, 32), os.path.join(inp, "c08.mat"))  # c08's W0
    _write_mat1(_normal(7, 16, 12), os.path.join(inp, "small.mat"))
    _write_mat1(_normal(8, 160, 128), os.path.join(inp, "mid.mat"))
    _write_mat1(_normal(11, 20, 9), os.path.join(inp, "tall.mat"))
    _write_mat1(_normal(12, 9, 20), os.path.join(inp, "wide.mat"))
    _write_mat1(abs(_normal(13, 12, 8)), os.path.join(inp, "nonneg.mat"))
    configs = {f"lora{r}": f"method = lora\nrank = {r}\n" for r in (3, 4, 8)}
    for kind in ("relax", "qr"):
        configs[f"deft8-{kind}"] = f"method = deft\nrank = 8\nbackend = {kind}\n"
    for kind in KINDS:
        configs[f"deft4-{kind}"] = f"method = deft\nrank = 4\nbackend = {kind}\n"
        for method in ("para", "deft"):
            configs[f"{method}3-{kind}"] = f"method = {method}\nrank = 3\nbackend = {kind}\n"
    for name, text in configs.items():
        with open(os.path.join(inp, f"{name}.cfg"), "w", encoding="utf-8") as f:
            f.write(text + RATES)


def _jobs(work):
    """(artefact name, argv with {out} for its output path) of every run, inputs in work/in."""
    inp = os.path.join(work, "in")
    jobs = []

    def train(name, w0, cfg, steps, *extra):
        jobs.append((f"train/{name}", ["train", "--w0", f"{inp}/{w0}.mat", "--config",
                                       f"{inp}/{cfg}.cfg", "--steps", str(steps),
                                       "--out", "{out}", *extra]))

    train("c08/lora", "c08", "lora4", 2000, "--task-seed", "1")
    for kind in KINDS:
        train(f"c08/deft-{kind}", "c08", f"deft4-{kind}", 2000, "--task-seed", "1")
    small = ("--task-seed", "3", "--input-scale", "2")
    train("small/lora", "small", "lora3", 150, *small)
    for kind in KINDS:
        for method in ("para", "deft"):
            train(f"small/{method}-{kind}", "small", f"{method}3-{kind}", 150, *small)
    for cfg in ("lora8", "deft8-relax", "deft8-qr"):
        train(f"mid/{cfg}", "mid", cfg, 20, "--task-seed", "5")
    for kind in KINDS:
        for seed in (0, 7, 21):
            jobs.append((f"verify/{kind}/seed{seed}",
                         ["verify", "--backend", kind, "--seed", str(seed),
                          "--out", "{out}/verify.csv"]))
    for kind in KINDS:
        for mat in ("tall", "wide", "nonneg"):
            jobs.append((f"decompose/{kind}/{mat}",
                         ["decompose", "--in", f"{inp}/{mat}.mat", "--method", kind,
                          "--out", "{out}/f"]))
    for name, flags in (("lora", ["--method", "lora", "--rank", "4"]),
                        ("deft-tsvd", ["--method", "deft", "--rank", "4", "--backend", "tsvd"]),
                        ("para-nmf", ["--method", "para", "--rank", "3", "--backend", "nmf",
                                      "--nmf-iters", "7", "--nmf-tol", "0.001"])):
        jobs.append((f"adapt-init/{name}", ["adapt-init", "--w0", f"{inp}/c08.mat", *flags,
                                            "--seed", "5", "--out", "{out}/a.adpt"]))
    for seed in (0, 4):
        jobs.append((f"displacement/probe-seed{seed}",
                     ["displacement", "--seed", str(seed), "--out", "{out}/d.csv"]))
    for kind in ("relax", "tsvd"):
        jobs.append((f"displacement/c08-deft-{kind}",
                     ["displacement", "--state", f"{work}/out/train/c08/deft-{kind}/adapter.adpt",
                      "--w0", f"{inp}/c08.mat", "--out", "{out}/d.csv"]))
    return jobs


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def run_battery(work):
    """Run every job with output under `work`; return {artefact: sha-256 hex}."""
    from deft import cli

    inp = os.path.join(work, "in")
    os.makedirs(inp)
    _inputs(inp)
    digests = {}
    for name, argv in _jobs(work):
        out = os.path.join(work, "out", name)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        if argv[0] != "train":
            os.makedirs(out)
        argv = [a.replace("{out}", out) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        console = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        for path, label in ((out, "<out>"), (inp, "<in>"), (work, "<work>")):
            console = console.replace(path, label)
        digests[f"{name}:console"] = _digest(_TIME.sub("time_ms=<masked>", console).encode())
        for dirpath, _, files in os.walk(out):
            for fname in files:
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as f:
                    digests[f"{name}/{os.path.relpath(path, out)}"] = _digest(f.read())
    return dict(sorted(digests.items()))


def _side(src):
    """Run the battery against the deft package under `src` in a fresh process."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"battery on {src} failed (exit {done.returncode}):\n"
                           f"{done.stdout}{done.stderr}")
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in done.stdout.splitlines())}


def compare(parent_rev):
    """Run the battery at `parent_rev` and in this checkout; return the exit status."""
    roots = [tempfile.mkdtemp(prefix=f"digests-{side}-") for side in ("parent", "change")]
    try:
        sha = commit_hash(parent_rev)
        unpack(sha, roots[0])
        unpack(snapshot(), roots[1])
        parent, change = (_side(os.path.join(root, "src")) for root in roots)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    names = sorted(parent.keys() | change.keys())
    differ = [name for name in names if parent.get(name) != change.get(name)]
    for name in differ:
        if name in parent and name in change:
            print(f"differs  {name}")
        else:
            print(f"only in {'parent' if name in parent else 'change'}  {name}")
    print(f"{len(names)} artefacts, {len(differ)} differ from parent {sha[:12]}")
    return 1 if differ else 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/artefact_digests.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="git revision to compare this checkout against")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the deft package to run (default: this checkout's)")
    args = p.parse_args(argv)
    if args.parent is not None:
        try:
            return compare(args.parent)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            detail = exc.stderr.decode() if isinstance(exc, subprocess.CalledProcessError) else exc
            print(f"error: {detail}", file=sys.stderr)
            return 1
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import deft

    if not os.path.abspath(deft.__file__).startswith(src + os.sep):
        print(f"error: imported deft from {deft.__file__}, not from {src}", file=sys.stderr)
        return 1
    work = tempfile.mkdtemp(prefix="digests-")
    try:
        for name, digest in run_battery(work).items():
            print(f"{digest}  {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
