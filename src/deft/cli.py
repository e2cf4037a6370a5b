"""Command-line interface.

Subcommands: decompose, adapt-init, train, verify, displacement, bench,
param-count. Every command is deterministic given --seed (the DEFT_SEED
environment variable supplies the default), prints every output path it
writes, and reports results as CSV files.

Exit codes: 0 success, 1 verification/training failure (an SVD that did
not converge included, Jacobi or LAPACK, a decomposition with a non-finite
output, of which no file is written, a verify W0 so large that its norm or
the merged weight overflows float64, and a displacement field that
overflows), 2 usage error, 3 I/O or file-format error. A warning raised
while a subcommand runs is printed to stderr once, as a `warning:
<message>` line.

The argument parser is built once per process, on the first `main()` call,
and reused by every later call; `import deft.cli` does not build it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import math
import os
import statistics
import sys
import time
import warnings

import numpy as np

from deft import adapters, store, subspace, train
from deft._jacobi import ConvergenceError
from deft.adapters import METHODS, ConfigError, config_from_fields
from deft.decompose import _KINDS, KINDS, Backend, decompose as run_decompose, reconstruct
from deft.matcore import (ShapeError, freeze, frobenius_norm, gaussian, make_rng,
                          numerical_rank, rel_error, unit_exponent)
from deft.store import FormatError, PairingError
from deft.train import DivergenceError

_BACKEND_CHOICES = tuple(k.replace("_", "-") for k in KINDS)  # how the CLI prints the kinds
_KIND_HELP = f"one of {', '.join(_BACKEND_CHOICES)}; '_' may replace '-'"


class UsageError(ValueError):
    pass


_VERIFY_W0_SHAPE = (64, 48)  # the seeded W0 of a verify trial without --w0
# --task -> its builder's name in deft.train, looked up per call; the builder's keyword
# parameters with defaults are the task's scales, each set by the flag of the same name
_TASKS = {"teacher-shift": "make_teacher_shift_task",
          "teacher-noise": "make_teacher_noise_task"}


def _task_scales(task):
    """{scale: default} of a --task: its builder's keyword parameters with defaults."""
    params = inspect.signature(getattr(train, _TASKS[task])).parameters
    return {k: p.default for k, p in params.items() if p.default != p.empty}


def _number(convert, low=-math.inf):
    """An argparse type: the text through `convert` (int or float), then finite and >= low."""
    bound = "" if low == -math.inf else f" and >= {low}"

    def parse(text):
        value = convert(text)
        if not (-math.inf < value < math.inf and value >= low):
            raise argparse.ArgumentTypeError(f"must be finite{bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


def _env_seed():
    """DEFT_SEED, the default of every --seed, which must pass --seed's rule; 0 if unset."""
    env = os.environ.get("DEFT_SEED", "0")
    try:
        return _number(int, 0)(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"DEFT_SEED must be an integer >= 0, got {env!r}") from None


def _wrote(path):
    print(f"wrote {path}")


@contextlib.contextmanager
def _warning_lines():
    """Print each distinct warning message raised inside as one `warning: <message>` line.

    The "default" action records a warning once per message and place, so a
    clamp or overflow repeated every training step is recorded once; a message
    recorded from several places still prints once, in first-seen order.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def cmd_decompose(args):
    b = store.load_matrix(args.infile)
    backend = Backend(args.method, nmf_iters=args.nmf_iters, nmf_tol=args.nmf_tol)

    t0 = time.perf_counter()
    # decompose checks a given rank against b's shape (ShapeError, exit 2)
    result = run_decompose(b, backend, args.rank, seed=args.seed)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    out = args.out
    outputs = {f"{out}.p.mat": result.p_factor}
    for key, stem in _KINDS[backend.kind].aux_stems.items():
        arr = np.asarray(result.aux[key])
        outputs[f"{out}.{stem}.mat"] = arr.reshape(-1, 1) if arr.ndim == 1 else arr
    for path, arr in outputs.items():  # all checked before any is written
        if not np.isfinite(arr).all():
            raise FloatingPointError(
                f"{args.method} produced non-finite entries for {path}; nothing written")
    err = rel_error(reconstruct(result, b), b)
    for path, arr in outputs.items():
        store.save_matrix(arr, path)
        _wrote(path)
    print(f"method={args.method} rank={result.p_factor.shape[1]} reconstruction_error={err:.6e} "
          f"time_ms={elapsed_ms:.3f}")
    if result.notes:
        print(f"notes={','.join(result.notes)}")
    return 0


def cmd_adapt_init(args):
    w0 = store.load_matrix(args.w0)
    cfg = config_from_fields(**{key: getattr(args, key) for key in store.CONFIG_KEYS})
    state = adapters.init_adapter(w0, cfg)
    store.save_adapter(state, args.out)
    _wrote(args.out)
    m, n = w0.shape
    print(f"method={cfg.method} rank={cfg.rank} params={adapters.param_count(cfg, m, n)}")
    return 0


def cmd_train(args):
    w0 = store.load_matrix(args.w0)
    cfg = store.read_config(args.config)
    # by default a Philox key derived from the config seed, so the task never replays the
    # stream that init_adapter draws the initial latent from (make_rng(cfg.seed))
    task_seed = (int(np.random.SeedSequence(cfg.seed).spawn(1)[0].generate_state(1, np.uint64)[0])
                 if args.task_seed is None else args.task_seed)
    scales = {k: v if getattr(args, k) is None else getattr(args, k)
              for k, v in _task_scales(args.task).items()}
    task = getattr(train, _TASKS[args.task])(w0, task_seed, **scales)
    try:
        report, state = train.run_finetune(w0, cfg, task, args.steps)
    except DivergenceError as exc:
        if exc.step > 0:
            raise
        flags = ", ".join(f"--{k.replace('_', '-')} {v:g}" for k, v in scales.items())
        raise UsageError(
            f"--task {args.task} is out of float64's range: the loss before the first step is "
            f"not finite with {flags} and W0's max |entry| {np.abs(w0).max():.3e}"
        ) from None
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    train.report_to_csv(report, csv_path)
    _wrote(csv_path)
    ckpt_path = os.path.join(args.out, "adapter.adpt")
    store.save_adapter(state, ckpt_path)
    _wrote(ckpt_path)
    print(train.summary_line(report))
    return 0


@functools.cache
def _extension_witness_ok():
    """Check a fixed integer instance where the update provably adds one rank.

    w0 is rank 2 with zero third row; the projector direction e3 lies
    outside col(w0), so a nonzero replacement row extends the column
    space by exactly one dimension. The answer never changes, so it is
    computed once per process, on the first `deft verify` call.
    """
    w0 = np.diag([2.0, 3.0, 0.0, 0.0])
    q = np.array([[0.0], [0.0], [1.0], [0.0]])
    w_total = w0 - q @ (q.T @ w0) + q @ np.ones((1, 4))
    rank_w0, rank_w0_total = subspace.extension_ranks(w0, w_total)
    report = subspace.check_containment(w0, q, w_total)
    return rank_w0_total > rank_w0 and report.containment_holds


def _probe(w0, rank, kind, rng, seed):
    """A seeded deft adapter on w0 whose r and then latent are drawn from rng.

    The caller's rng drew w0, and both trainables continue that stream. The
    caller checks that rank fits w0 (see adapters.trainable_shapes).
    """
    m, n = w0.shape
    r = gaussian(rng, rank, n, 1.0)
    return adapters.AdapterState(config_from_fields("deft", rank, kind, seed=seed), freeze(w0),
                                 p_latent=gaussian(rng, m, rank, 0.5), r=r)


def cmd_verify(args):
    if args.seed + args.trials - 1 >= 2**64:  # trial t's adapter config takes seed + t
        raise UsageError(f"--seed (or DEFT_SEED) plus --trials - 1 must be below 2**64, got "
                         f"seed {args.seed} with {args.trials} trials")
    # the CSV and any failure dumps go beside --out: check its directory before any trial
    if not os.path.isdir(os.path.dirname(args.out) or ".") or os.path.isdir(args.out):
        raise OSError(f"--out {args.out!r} is not a file path in an existing directory")
    w0_fixed = store.load_matrix(args.w0) if args.w0 is not None else None
    m, n = _VERIFY_W0_SHAPE if w0_fixed is None else w0_fixed.shape
    if args.rank > min(m, n):  # before any draw, however large --rank is
        raise UsageError(f"--rank {args.rank} exceeds min(m, n) = {min(m, n)} for W0's shape "
                         f"({m}, {n})")
    witness_ok = _extension_witness_ok()

    rows = []
    failures = []
    for t in range(args.trials):
        trial_seed = args.seed + t
        rng = make_rng(trial_seed)
        w0 = w0_fixed if w0_fixed is not None else gaussian(rng, m, n, 1.0)
        q_orth, _ = np.linalg.qr(gaussian(rng, m, args.rank, 1.0))
        state = _probe(w0, args.rank, args.backend, rng, trial_seed)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails closed below
            w_total = adapters.merge(state)
            w0_norm = frobenius_norm(w0)
        if not (math.isfinite(w0_norm) and np.isfinite(w_total).all()):
            raise FloatingPointError(
                f"W0's scale is out of range for verify (max |entry| {np.abs(w0).max():.3e}): "
                "its Frobenius norm or the merged weight overflows float64")

        # split identity with a random orthonormal q
        identity_resid = subspace.verify_decomposition_identity(w0, q_orth)
        identity_ok = identity_resid < 1e-12

        # containment of the merged weight
        q_fac = adapters.refresh(state)
        report = subspace.check_containment(w0, q_fac, w_total)

        # reduced weight stays inside col(w0) when q is built from it; at unit scale,
        # as check_containment takes it, so a subnormal w0 keeps its column space
        w0_u = np.ldexp(w0, -unit_exponent(w0))
        q_in, _ = np.linalg.qr(w0_u[:, :args.rank])
        w_reduce = w0_u - q_in @ (q_in.T @ w0_u)
        subset_ok = numerical_rank(np.hstack([w0_u, w_reduce])) == report.rank_w0

        ok = identity_ok and report.containment_holds and subset_ok and witness_ok
        rows.append((t, identity_resid, identity_ok, subset_ok, report.containment_holds,
                     witness_ok, report.rank_w0, report.rank_reduce, report.rank_total,
                     report.rank_union))
        print(f"trial {t}: identity_residual={identity_resid:.3e} "
              f"containment={str(report.containment_holds).lower()} "
              f"subset={str(subset_ok).lower()} witness={str(witness_ok).lower()}")
        if not ok:
            failures.append(t)
            for name, mat in (("w0", w0), ("q", q_fac), ("w_total", w_total)):
                path = os.path.join(os.path.dirname(args.out), f"verify_fail_trial{t}_{name}.mat")
                store.save_matrix(mat, path)
                _wrote(path)

    store.save_csv(args.out, ("trial", "identity_residual", "identity_ok", "subset_ok",
                              "containment_holds", "extension_witness_ok",
                              "rank_w0", "rank_reduce", "rank_total", "rank_union"), rows)
    _wrote(args.out)

    if failures:
        print(f"FAIL: trials {failures} failed")
        return 1
    print(f"PASS: {args.trials} trials")
    return 0


def cmd_displacement(args):
    if not math.isfinite(args.grid_hi - args.grid_lo):  # the grid's ticks would overflow
        raise UsageError(f"--grid-hi minus --grid-lo overflows float64, got --grid-lo "
                         f"{args.grid_lo} and --grid-hi {args.grid_hi}")
    if (args.state is None) != (args.w0 is None):
        raise UsageError("--state requires --w0 and --w0 requires --state (checkpoints bind "
                         "to a base weight)")
    if args.state is not None:
        w0 = store.load_matrix(args.w0)
        state = store.load_adapter(args.state, w0)
    else:
        rng = make_rng(args.seed)  # default probe: a small seeded deft/relax state
        w0 = gaussian(rng, 2, 2, 1.0)
        state = _probe(w0, 1, "relax", rng, args.seed)

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails closed below
            field = subspace.displacement_field(state, lo=args.grid_lo, hi=args.grid_hi,
                                                n=args.grid_n)
    except MemoryError:
        raise UsageError(f"--grid-n {args.grid_n}: a {args.grid_n} x {args.grid_n} grid is too "
                         "large to allocate") from None
    if not (np.isfinite(field.displacements_full).all()
            and np.isfinite(field.displacements_nonneg).all()):
        raise FloatingPointError(
            f"the displacement field overflows float64 (W0's max |entry| "
            f"{np.abs(w0).max():.3e}, grid [{args.grid_lo:g}, {args.grid_hi:g}]); nothing written")
    subspace.field_to_csv(field, args.out)
    _wrote(args.out)
    summary = subspace.field_summary(field)
    print(" ".join(f"{k}={v:.6e}" for k, v in summary.items()))
    return 0


def cmd_bench(args):
    kinds = [k.strip() for k in args.backends.split(",") if k.strip()]
    if not kinds:
        raise UsageError(f"--backends names no backend kind, got {args.backends!r}")
    backends = [Backend(k) for k in kinds]  # an unknown kind exits 2 before any timing
    rng = make_rng(args.seed)
    try:
        latent = gaussian(rng, args.dim, args.rank, 1.0)
    except MemoryError:
        raise UsageError(f"--dim {args.dim} by --rank {args.rank}: the latent is too large to "
                         "allocate") from None

    results = []
    for k, backend in zip(kinds, backends):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nmf clamp warning is expected on a signed latent
            run_decompose(latent, backend, args.rank, seed=args.seed)  # warm-up
            times = []
            for _ in range(args.iters):
                t0 = time.perf_counter()
                run_decompose(latent, backend, args.rank, seed=args.seed)
                times.append((time.perf_counter() - t0) * 1e3)
        results.append((k, statistics.median(times), min(times), max(times)))

    for k, med, lo, hi in results:
        print(f"{k}: median={med:.3f} ms min={lo:.3f} max={hi:.3f}")
    store.save_csv(args.out, ("backend", "median_ms", "min_ms", "max_ms"), results)
    _wrote(args.out)
    return 0


def cmd_param_count(args):
    cfg = config_from_fields(args.method, args.rank)
    count = adapters.param_count(cfg, args.m, args.n)
    print(f"method={args.method} rank={args.rank} m={args.m} n={args.n} params={count}")
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deft",
        description="Adapter fine-tuning toolkit: decompositions, training, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_number(int, 0), default=None,
                       help="RNG seed (default: DEFT_SEED env var, else 0)")

    p = sub.add_parser("decompose", help="factor a MAT1 matrix with one backend")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True, help=_KIND_HELP)
    p.add_argument("--rank", type=_number(int, 1), default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--nmf-iters", type=_number(int, 1), default=Backend.nmf_iters)
    p.add_argument("--nmf-tol", type=_number(float, 0), default=Backend.nmf_tol)
    add_seed(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("adapt-init", help="initialize an adapter checkpoint")
    p.add_argument("--w0", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rank", type=_number(int, 1), required=True)
    # unset flags take AdapterConfig's and Backend's defaults; only --backend nmf takes nmf knobs
    p.add_argument("--alpha", type=_number(float))
    p.add_argument("--backend", help=_KIND_HELP)
    p.add_argument("--lr-p", type=_number(float))
    p.add_argument("--lr-r", type=_number(float))
    p.add_argument("--init-stddev", type=_number(float, 0))
    p.add_argument("--nmf-iters", type=_number(int, 1))
    p.add_argument("--nmf-tol", type=_number(float, 0))
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_adapt_init)

    p = sub.add_parser("train", help="fine-tune an adapter on a synthetic task")
    p.add_argument("--w0", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--task", choices=tuple(_TASKS), default="teacher-shift")
    p.add_argument("--steps", type=_number(int, 1), required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task-seed", type=_number(int, 0), default=None,
                   help="task seed (default: derived from the config seed, so the task's "
                        "Philox stream is not the one that draws the initial latent)")
    # an unset scale flag takes the task builder's own default, which its help names per
    # task; a flag the task has no scale of is ignored
    defaults = {task: _task_scales(task) for task in _TASKS}
    for scale, low in (("shift_scale", -math.inf), ("input_scale", -math.inf),
                       ("noise_stddev", 0)):
        ignored = [t for t, d in defaults.items() if scale not in d]
        p.add_argument("--" + scale.replace("_", "-"), type=_number(float, low), help=(
            "default: " + ", ".join(f"{t} {d[scale]:g}" for t, d in defaults.items() if scale in d)
            + (f"; ignored by {', '.join(ignored)}" if ignored else "")))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="run the column-space property suite")
    p.add_argument("--w0", default=None,
                   help="MAT1 base weight (default: seeded random %dx%d)" % _VERIFY_W0_SHAPE)
    p.add_argument("--rank", type=_number(int, 1), default=8)
    p.add_argument("--backend", default="qr", help=_KIND_HELP)
    p.add_argument("--trials", type=_number(int, 1), default=3)
    p.add_argument("--out", default="verify_report.csv")
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("displacement", help="displacement field of an adapter update")
    probe = p.add_mutually_exclusive_group()  # --seed draws the probe that --state replaces
    probe.add_argument("--state", help="ADPT1 checkpoint (default: seeded 2x2 probe)")
    p.add_argument("--w0", default=None, help="MAT1 base weight for --state")
    p.add_argument("--grid-lo", type=_number(float), default=-1.0)
    p.add_argument("--grid-hi", type=_number(float), default=1.0)
    p.add_argument("--grid-n", type=_number(int, 1), default=21)
    p.add_argument("--out", default="displacement.csv")
    add_seed(probe)
    p.set_defaults(func=cmd_displacement)

    p = sub.add_parser("bench", help="time each backend on a seeded latent")
    p.add_argument("--dim", type=_number(int, 1), default=3072)
    p.add_argument("--rank", type=_number(int, 1), default=8)
    p.add_argument("--iters", type=_number(int, 1), default=20)
    p.add_argument("--backends", default=",".join(_BACKEND_CHOICES),
                   help="comma-separated backend list")
    p.add_argument("--out", default="bench.csv")
    add_seed(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("param-count", help="trainable-parameter count for a config")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rank", type=_number(int, 1), required=True)
    p.add_argument("--m", type=_number(int, 1), required=True)
    p.add_argument("--n", type=_number(int, 1), required=True)
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
        if vars(args).get("seed", 0) is None:  # a subcommand with --seed, run without it
            args.seed = _env_seed()
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
