"""Command-line interface.

Subcommands: decompose, adapt-init, train, verify, displacement, bench,
param-count. Every command is deterministic given --seed (the DEFT_SEED
environment variable supplies the default), prints every output path it
writes, and reports results as CSV files.

Exit codes: 0 success, 1 verification/training failure (an SVD that did
not converge included, Jacobi or LAPACK, and a decomposition with a
non-finite output, of which no file is written), 2 usage error, 3 I/O or
file-format error. A warning raised while a subcommand runs is printed
to stderr once, as a `warning: <message>` line.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import statistics
import sys
import time
import warnings

import numpy as np

from deft import adapters, store, subspace, train
from deft._jacobi import ConvergenceError
from deft.adapters import METHODS, AdapterConfig, ConfigError
from deft.decompose import INTRINSIC_RANK, KINDS, Backend, decompose as run_decompose, reconstruct
from deft.matcore import ShapeError, gaussian, make_rng, numerical_rank, rel_error
from deft.store import FormatError, PairingError
from deft.train import DivergenceError

_BACKEND_CHOICES = tuple(k.replace("_", "-") for k in KINDS)


class UsageError(ValueError):
    pass


def _norm_kind(name):
    return name.replace("-", "_")


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("DEFT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"DEFT_SEED must be an integer, got {env!r}") from None


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _nonneg_float(text):
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _wrote(path):
    print(f"wrote {path}")


@contextlib.contextmanager
def _warning_lines():
    """Print each distinct warning raised inside as one `warning: <message>` line.

    The "default" action records a warning once per message and place, so a
    clamp or overflow repeated every training step prints one line, not one
    per step.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            yield
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _backend_from_args(kind, rank, args):
    kwargs = {}
    if getattr(args, "nmf_iters", None) is not None:
        kwargs["nmf_iters"] = args.nmf_iters
    if getattr(args, "nmf_tol", None) is not None:
        kwargs["nmf_tol"] = args.nmf_tol
    return Backend(_norm_kind(kind), rank, **kwargs)


def cmd_decompose(args):
    b = store.load_matrix(args.infile)
    kind = _norm_kind(args.method)
    m, n = b.shape
    if kind in INTRINSIC_RANK:
        rank = n if args.rank is None else args.rank
        if rank != n:
            raise UsageError(f"{args.method} rank is the column count {n}, got --rank {rank}")
    else:
        rank = min(m, n) if args.rank is None else args.rank
        if not 1 <= rank <= min(m, n):
            raise UsageError(f"--rank {rank} out of range for input shape {m}x{n}")
    backend = _backend_from_args(kind, rank, args)
    seed = _resolve_seed(args.seed)

    t0 = time.perf_counter()
    result = run_decompose(b, backend, seed=seed)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    out = args.out
    outputs = {f"{out}.p.mat": result.p_factor}
    aux_names = {"r_tri": "rtri", "s": "s", "v": "v", "h": "h",
                 "lambda": "lam", "err_trace": "errtrace"}
    for key, mat in result.aux.items():
        arr = np.asarray(mat)
        outputs[f"{out}.{aux_names[key]}.mat"] = arr.reshape(-1, 1) if arr.ndim == 1 else arr
    for path, arr in outputs.items():  # all checked before any is written
        if not np.isfinite(arr).all():
            raise FloatingPointError(
                f"{args.method} produced non-finite entries for {path}; nothing written")
    err = rel_error(reconstruct(result, b), b)
    for path, arr in outputs.items():
        store.save_matrix(arr, path)
        _wrote(path)
    print(f"method={args.method} rank={rank} reconstruction_error={err:.6e} "
          f"time_ms={elapsed_ms:.3f}")
    if result.notes:
        print(f"notes={','.join(result.notes)}")
    return 0


def cmd_adapt_init(args):
    w0 = store.load_matrix(args.w0)
    seed = _resolve_seed(args.seed)
    backend = None
    if args.backend is not None:
        backend = _backend_from_args(args.backend, args.rank, args)
    cfg = AdapterConfig(
        method=args.method, rank=args.rank, alpha=args.alpha, backend=backend,
        lr_p=args.lr_p, lr_r=args.lr_r, init_stddev=args.init_stddev, seed=seed,
    )
    state = adapters.init_adapter(w0, cfg)
    store.save_adapter(state, args.out)
    _wrote(args.out)
    m, n = w0.shape
    print(f"method={cfg.method} rank={cfg.rank} params={adapters.param_count(cfg, m, n)}")
    return 0


def cmd_train(args):
    w0 = store.load_matrix(args.w0)
    cfg = store.read_config(args.config)
    task_seed = cfg.seed if args.task_seed is None else args.task_seed
    if args.task == "teacher-shift":
        task = train.make_teacher_shift_task(
            w0, task_seed, shift_scale=args.shift_scale, input_scale=args.input_scale,
        )
    else:
        task = train.make_teacher_noise_task(
            w0, task_seed, noise_stddev=args.noise_stddev, input_scale=args.input_scale,
        )
    report, state = train.run_finetune(w0, cfg, task, args.steps)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write(train.report_to_csv(report))
    _wrote(csv_path)
    ckpt_path = os.path.join(args.out, "adapter.adpt")
    store.save_adapter(state, ckpt_path)
    _wrote(ckpt_path)
    print(train.summary_line(report))
    return 0


def _extension_witness():
    """Fixed integer instance where the update provably adds one rank.

    w0 is rank 2 with zero third row; the projector direction e3 lies
    outside col(w0), so a nonzero replacement row extends the column
    space by exactly one dimension.
    """
    w0 = np.array([
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    q = np.array([[0.0], [0.0], [1.0], [0.0]])
    r = np.ones((1, 4))
    w_total = w0 - q @ (q.T @ w0) + q @ r
    return w0, q, w_total


def cmd_verify(args):
    seed = _resolve_seed(args.seed)
    kind = _norm_kind(args.backend)
    w0_fixed = store.load_matrix(args.w0) if args.w0 is not None else None

    rows = []
    failures = []
    for t in range(args.trials):
        trial_seed = seed + t
        rng = make_rng(trial_seed)
        w0 = w0_fixed if w0_fixed is not None else gaussian(rng, 64, 48, 1.0)
        m, n = w0.shape
        rank = args.rank
        if rank > min(m, n):
            raise UsageError(f"--rank {rank} exceeds min(m, n) = {min(m, n)}")

        # split identity with a random orthonormal q
        q_orth, _ = np.linalg.qr(gaussian(rng, m, rank, 1.0))
        identity_resid = subspace.verify_decomposition_identity(w0, q_orth)
        identity_ok = identity_resid < 1e-12

        # containment for a freshly trained-looking adapter state
        cfg = AdapterConfig(method="deft", rank=rank, backend=Backend(kind, rank),
                            init_stddev=0.5, seed=trial_seed)
        state = adapters.init_adapter(w0, cfg)
        state.r = gaussian(rng, rank, n, 1.0)
        w_total = adapters.merge(state)
        q_fac = adapters.projection_factor(state)
        report = subspace.check_containment(w0, q_fac, w_total)

        # reduced weight stays inside col(w0) when q is built from it
        q_in, _ = np.linalg.qr(w0[:, :rank])
        w_reduce = w0 - q_in @ (q_in.T @ w0)
        subset_ok = numerical_rank(np.hstack([w0, w_reduce]), 1e-8) == report.rank_w0

        ww0, wq, wtot = _extension_witness()
        witness = subspace.check_containment(ww0, wq, wtot)
        witness_ok = witness.extension_holds and witness.containment_holds

        ok = identity_ok and report.containment_holds and subset_ok and witness_ok
        rows.append((t, identity_resid, identity_ok, subset_ok, report, witness_ok))
        print(f"trial {t}: identity_residual={identity_resid:.3e} "
              f"containment={str(report.containment_holds).lower()} "
              f"subset={str(subset_ok).lower()} witness={str(witness_ok).lower()}")
        if not ok:
            failures.append(t)
            for name, mat in (("w0", w0), ("q", q_fac), ("w_total", w_total)):
                path = f"verify_fail_trial{t}_{name}.mat"
                store.save_matrix(mat, path)
                _wrote(path)

    cols = ["trial", "identity_residual", "identity_ok", "subset_ok",
            "containment_holds", "extension_witness_ok",
            "rank_w0", "rank_reduce", "rank_total", "rank_union"]
    lines = [",".join(cols)]
    for t, resid, id_ok, sub_ok, report, wit_ok in rows:
        lines.append(",".join([
            str(t), repr(float(resid)), str(id_ok).lower(), str(sub_ok).lower(),
            str(report.containment_holds).lower(), str(wit_ok).lower(),
            str(report.rank_w0), str(report.rank_reduce),
            str(report.rank_total), str(report.rank_union),
        ]))
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")
    _wrote(args.out)

    if failures:
        print(f"FAIL: trials {failures} failed")
        return 1
    print(f"PASS: {args.trials} trials")
    return 0


def cmd_displacement(args):
    seed = _resolve_seed(args.seed)
    if args.state is not None:
        if args.w0 is None:
            raise UsageError("--state requires --w0 (checkpoints bind to a base weight)")
        w0 = store.load_matrix(args.w0)
        state = store.load_adapter(args.state, w0)
    else:
        # default probe: a small seeded deft state, arbitrary but reproducible
        rng = make_rng(seed)
        w0 = gaussian(rng, 2, 2, 1.0)
        cfg = AdapterConfig(method="deft", rank=1, backend=Backend("relax", 1),
                            init_stddev=0.5, seed=seed)
        state = adapters.init_adapter(w0, cfg)
        state.r = gaussian(rng, 1, 2, 1.0)

    field = subspace.displacement_field(state, lo=args.grid_lo, hi=args.grid_hi, n=args.grid_n)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(subspace.field_to_csv(field))
    _wrote(args.out)
    summary = subspace.field_summary(field)
    print(" ".join(f"{k}={v:.6e}" for k, v in summary.items()))
    return 0


def cmd_bench(args):
    seed = _resolve_seed(args.seed)
    kinds = [k.strip() for k in args.backends.split(",") if k.strip()]
    for k in kinds:
        if k not in _BACKEND_CHOICES:
            raise UsageError(f"unknown backend {k!r}, expected one of {_BACKEND_CHOICES}")
    rng = make_rng(seed)
    latent = gaussian(rng, args.dim, args.rank, 1.0)

    results = []
    for k in kinds:
        backend = Backend(_norm_kind(k), args.rank)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nmf clamp warning is expected on a signed latent
            run_decompose(latent, backend, seed=seed)  # warm-up
            times = []
            for _ in range(args.iters):
                t0 = time.perf_counter()
                run_decompose(latent, backend, seed=seed)
                times.append((time.perf_counter() - t0) * 1e3)
        results.append((k, statistics.median(times), min(times), max(times)))

    lines = ["backend,median_ms,min_ms,max_ms"]
    for k, med, lo, hi in results:
        print(f"{k}: median={med:.3f} ms min={lo:.3f} max={hi:.3f}")
        lines.append(f"{k},{med!r},{lo!r},{hi!r}")
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")
    _wrote(args.out)
    return 0


def cmd_param_count(args):
    cfg = AdapterConfig(method=args.method, rank=args.rank)
    count = adapters.param_count(cfg, args.m, args.n)
    print(f"method={args.method} rank={args.rank} m={args.m} n={args.n} params={count}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deft",
        description="Adapter fine-tuning toolkit: decompositions, training, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_nonneg_int, default=None,
                       help="RNG seed (default: DEFT_SEED env var, else 0)")

    p = sub.add_parser("decompose", help="factor a MAT1 matrix with one backend")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True, choices=_BACKEND_CHOICES)
    p.add_argument("--rank", type=_positive_int, default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--nmf-iters", type=_positive_int, default=None)
    p.add_argument("--nmf-tol", type=_nonneg_float, default=None)
    add_seed(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("adapt-init", help="initialize an adapter checkpoint")
    p.add_argument("--w0", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--backend", choices=_BACKEND_CHOICES, default=None)
    p.add_argument("--lr-p", type=_finite_float, default=1e-3)
    p.add_argument("--lr-r", type=_finite_float, default=1e-2)
    p.add_argument("--init-stddev", type=_nonneg_float, default=0.01)
    p.add_argument("--nmf-iters", type=_positive_int, default=None)
    p.add_argument("--nmf-tol", type=_nonneg_float, default=None)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_adapt_init)

    p = sub.add_parser("train", help="fine-tune an adapter on a synthetic task")
    p.add_argument("--w0", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--task", choices=("teacher-shift", "teacher-noise"),
                   default="teacher-shift")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task-seed", type=_nonneg_int, default=None,
                   help="task seed (default: the config seed)")
    p.add_argument("--shift-scale", type=_finite_float, default=1.0)
    p.add_argument("--input-scale", type=_finite_float, default=64.0)
    p.add_argument("--noise-stddev", type=_nonneg_float, default=0.01)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="run the column-space property suite")
    p.add_argument("--w0", default=None, help="MAT1 base weight (default: seeded random 64x48)")
    p.add_argument("--rank", type=_positive_int, default=8)
    p.add_argument("--backend", choices=_BACKEND_CHOICES, default="qr")
    p.add_argument("--trials", type=_positive_int, default=3)
    p.add_argument("--out", default="verify_report.csv")
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("displacement", help="displacement field of an adapter update")
    p.add_argument("--state", default=None, help="ADPT1 checkpoint (default: seeded 2x2 probe)")
    p.add_argument("--w0", default=None, help="MAT1 base weight for --state")
    p.add_argument("--grid-lo", type=_finite_float, default=-1.0)
    p.add_argument("--grid-hi", type=_finite_float, default=1.0)
    p.add_argument("--grid-n", type=_positive_int, default=21)
    p.add_argument("--out", default="displacement.csv")
    add_seed(p)
    p.set_defaults(func=cmd_displacement)

    p = sub.add_parser("bench", help="time each backend on a seeded latent")
    p.add_argument("--dim", type=_positive_int, default=3072)
    p.add_argument("--rank", type=_positive_int, default=8)
    p.add_argument("--iters", type=_positive_int, default=20)
    p.add_argument("--backends", default=",".join(_BACKEND_CHOICES),
                   help="comma-separated backend list")
    p.add_argument("--out", default="bench.csv")
    add_seed(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("param-count", help="trainable-parameter count for a config")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_param_count)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        with _warning_lines():
            return args.func(args)
    except (UsageError, ConfigError, ShapeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, PairingError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, ConvergenceError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
