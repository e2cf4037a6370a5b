"""A differential-rate SGD loop over adapters, and synthetic tasks.

The gradient it follows, what a step costs and which SVD factors a tsvd
or lrmf latent are in deft.adapters. The loop, grad and loss_mse share
one pass, _pass. The report keeps one row per pass; the last is the
final loss, on the factor every later reader of the trained latent gets.

The loss and each grad norm in the report are sums of squares taken by
deft.matcore.sum_of_squares: np.vdot up to 4096 entries, as at the
32 x 32 reference task, and einsum above, as for a 1024 x 1024 residual.
Neither feeds the update, so a trained state's bits do not depend on the
path; the loss only decides when a run has diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from deft import store
from deft.adapters import _TRAINABLES, _gradients, check_inputs, forward, init_adapter
from deft.matcore import (NonFiniteError, ShapeError, as_matrix, frobenius_norm, make_rng,
                          sum_of_squares)


class DivergenceError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step, last_loss):
        super().__init__(
            f"loss diverged to a non-finite value at step {step}; "
            f"last finite loss was {last_loss!r}"
        )
        self.step = step
        self.last_loss = last_loss


@dataclass
class ToyTask:
    """A linear regression task: an n x k input batch and the m x k targets to match.

    Each builder below makes its targets as a teacher times the inputs,
    plus seeded noise for make_teacher_noise_task; the teacher itself is
    not kept, since training reads only inputs and targets.
    """

    inputs: np.ndarray
    targets: np.ndarray


@dataclass
class TrainReport:
    """One row per pass, (step, loss, grad_norm_p, grad_norm_r); the final one's norms are None.

    run_finetune fills rows with Python ints and floats, and the final
    row's Nones; report_to_csv writes each float as its repr.
    """

    rows: list = field(default_factory=list)  # grad_norm_r is 0.0 for para, which has no R
    final_state_hash: str = ""
    w0_hash_before: str = ""
    w0_hash_after: str = ""

    @property
    def losses(self):
        """The loss column of rows: the loss before each step, then the final loss."""
        return tuple(row[1] for row in self.rows)


def make_teacher_shift_task(w0, seed, shift_scale=1.0, input_scale=64.0):
    """Teacher = w0 plus a unit rank-1 shift; reachable by a rank-1 update.

    The input batch is a scaled orthonormal basis of the input space, so
    the least-squares landscape is isotropic. The default input_scale is
    tuned so the 32 x 32 reference task converges under the default
    learning rates (lr_p 1e-3, lr_r 1e-2) well within 2000 steps; smaller
    scales converge too, just slower.

    The basis is the QR factor of a Gaussian draw, handed to
    np.linalg.qr in Fortran order: numpy copies a QR input into column
    order for LAPACK, and from a row-ordered n x n draw that copy is
    strided. LAPACK gets the same matrix either way, so the bits do not
    depend on the layout. The teacher is built after the QR, so it is not
    held during it, and it is dropped once the targets are formed.
    """
    w0 = as_matrix(w0, "w0")
    m, n = w0.shape
    rng = make_rng(seed)
    u = rng.normal(size=m)
    v = rng.normal(size=n)
    u *= shift_scale / np.linalg.norm(u)
    v /= np.linalg.norm(v)
    inputs = np.ascontiguousarray(np.linalg.qr(np.asfortranarray(rng.normal(size=(n, n))))[0])
    inputs *= input_scale
    teacher = np.outer(u, v)
    teacher += w0
    return ToyTask(inputs, teacher @ inputs)


def make_teacher_noise_task(w0, seed, noise_stddev=0.01, input_scale=1.0):
    """Teacher = w0 itself; targets carry additive Gaussian noise.

    The best reachable loss is the noise floor, making this a stability
    probe rather than a convergence benchmark.
    """
    if not 0.0 <= noise_stddev < math.inf:
        raise ValueError(f"noise_stddev must be finite and >= 0, got {noise_stddev}")
    w0 = as_matrix(w0, "w0")
    n = w0.shape[1]
    rng = make_rng(seed)
    inputs = input_scale * rng.normal(size=(n, n))
    targets = w0 @ inputs
    if noise_stddev > 0:
        targets += rng.normal(0.0, noise_stddev, size=targets.shape)
    return ToyTask(inputs, targets)


def _pass(state, x, y, targets, with_grads):
    """(mean squared error against targets, gradients if with_grads) of forward on x and y.

    The gradients read the factor and z that this forward pass left on the state.
    """
    diff = forward(state, x, y)
    diff -= targets
    m, k = diff.shape
    loss = sum_of_squares(diff) / (m * k)
    return loss, _gradients(state, x, y, diff) if with_grads else None


def loss_mse(state, task):
    """Mean squared error of the adapted forward pass against the targets."""
    return _pass(state, *_batch(state, task), task.targets, False)[0]


def _batch(state, task):
    """Validated task inputs x and base output y = w0 @ x; targets of another shape: ShapeError."""
    x = check_inputs(state, task.inputs)
    y = state.w0 @ x
    if np.shape(task.targets) != y.shape:  # entries unchecked: a non-finite one diverges
        raise ShapeError(f"targets have shape {np.shape(task.targets)}, expected {y.shape}")
    return x, y


def grad(state, task):
    """Gradients of loss_mse with respect to each trainable matrix.

    Keys match :func:`deft.adapters.trainables`. For relax backends these
    are exact; for factorizing backends they are the straight-through
    estimates described in deft.adapters.
    """
    return _pass(state, *_batch(state, task), task.targets, True)[1]


def sgd_step(state, grads):
    """One in-place SGD update of each trainable at its rate in state.cfg.

    Nothing else is updated: the next forward pass factors the moved
    latent anew (see deft.adapters.refresh).
    """
    cfg = state.cfg
    for (name, _, _), lr in zip(_TRAINABLES[cfg.method], (cfg.lr_p, cfg.lr_r)):
        mat = getattr(state, name)
        mat -= lr * grads[name]
    return state


def run_finetune(w0, cfg, task, steps):
    """Train a fresh adapter on `task` for `steps` SGD steps.

    Deterministic given cfg.seed. Raises DivergenceError the moment the
    loss stops being finite, or a pass refuses a latent that the last step
    overflowed (NonFiniteError); any other error of a pass, a LAPACK
    LinAlgError say, propagates as itself. The report has steps + 1 rows,
    one per pass: (i, loss before step i, its grad norms) per step, then
    (steps, final loss, None, None).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = init_adapter(w0, cfg)
    report = TrainReport()
    report.w0_hash_before = store.matrix_hash(state.w0).hex()
    x, y = _batch(state, task)  # w0 is frozen: one base product serves every step
    for i in range(steps + 1):  # the last pass is the final loss
        try:
            loss, grads = _pass(state, x, y, task.targets, i < steps)
        except NonFiniteError:  # as_matrix's refusal of a latent that the last step overflowed
            loss = math.nan
        if not math.isfinite(loss):
            raise DivergenceError(i, report.rows[-1][1] if report.rows else None)
        if grads is None:
            report.rows.append((i, loss, None, None))
            break
        gp, *gr = grads.values()
        report.rows.append((i, loss, frobenius_norm(gp), frobenius_norm(gr[0]) if gr else 0.0))
        sgd_step(state, grads)
    report.final_state_hash = store.state_hash(state)
    report.w0_hash_after = store.matrix_hash(state.w0).hex()
    return report, state


def report_to_csv(report, path):
    """Write the report's rows as CSV: step, loss, grad norms; the final row's norms are empty.

    The bytes are store.save_csv's for the same rows. Each row is one
    f-string: the schema is fixed (see TrainReport), and a Python float's
    !r is its repr.
    """
    *rows, (steps, loss, _, _) = report.rows
    store._write_lines(path, ["step,loss,grad_norm_p,grad_norm_r",
                              *(f"{i},{ls!r},{gp!r},{gr!r}" for i, ls, gp, gr in rows),
                              f"{steps},{loss!r},,"])


def summary_line(report):
    frozen = report.w0_hash_before == report.w0_hash_after
    steps, loss, _, _ = report.rows[-1]
    return (
        f"steps={steps} final_loss={loss:.6e} "
        f"w0_frozen={str(frozen).lower()} state_hash={report.final_state_hash[:16]}"
    )
