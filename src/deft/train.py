"""Adapter gradients, a differential-rate SGD loop, and synthetic tasks.

Gradients are analytic for the relax backends, where the projection factor
IS the latent. For factorizing backends (qr, tsvd, ...) the same formulas
are applied straight-through: the factorization is treated as frozen
within the step, the gradient is computed with respect to the current
factor and applied to the latent. Differentiating through the
factorizations is out of scope; the relax path is the one with exact
gradients and the one the finite-difference suite certifies.

Each adapter's p-side trainable (the projection latent, or lora's a)
trains at lr_p, its r-side one (the replacement R, or lora's b_lo) at the
larger lr_r; see :mod:`deft.adapters` for which is which.

A step over an m x n layer with rank r and batch k costs O(r (m + n) k)
plus a fixed number of passes over m x k arrays (nine for para and deft,
seven for lora), and it writes one m x k array, the residual. Three things
make it so. The frozen base output y = w0 @ x is computed once per run,
because the batch is fixed and w0 never changes; every step's forward pass
and gradient reuse it. The residual is forward's fresh output with the
targets subtracted in place, and the loss scale 2 / (m k) is applied to
rank-sized products, never to the residual. And the gradient products are
associated so that each has a rank-sized operand: dP = -g z^T - y (P^T g)^T
with z = P^T y - R x, the rank x k coefficient of the forward pass, rather
than (g y^T) P, so no m x m or m x n matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from deft import store
from deft.adapters import check_inputs, forward, init_adapter, projection_factor, trainables
from deft.decompose import _KINDS
from deft.matcore import as_matrix, frobenius_norm, make_rng


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
    """A linear regression target: match teacher @ inputs.

    targets may include seeded noise (noise_stddev > 0); the adapter then
    fits the noisy targets, not the teacher.
    """

    teacher: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    noise_stddev: float = 0.0


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)  # losses[i] = loss before step i; last entry is final
    grad_norm_p: list = field(default_factory=list)
    grad_norm_r: list = field(default_factory=list)
    steps: int = 0
    final_state_hash: str = ""
    w0_hash_before: str = ""
    w0_hash_after: str = ""


def make_teacher_shift_task(w0, seed, shift_scale=1.0, input_scale=64.0, batch=None):
    """Teacher = w0 plus a unit rank-1 shift; reachable by a rank-1 update.

    The input batch is a scaled orthonormal basis of the input space, so
    the least-squares landscape is isotropic. The default input_scale is
    tuned so the 32 x 32 reference task converges under the default
    learning rates (lr_p 1e-3, lr_r 1e-2) well within 2000 steps; smaller
    scales converge too, just slower.
    """
    w0 = as_matrix(w0, "w0")
    m, n = w0.shape
    k = n if batch is None else batch
    if not 1 <= k <= n:
        raise ValueError(f"batch must be in [1, {n}], got {k}")
    rng = make_rng(seed)
    u = rng.normal(size=m)
    v = rng.normal(size=n)
    u *= shift_scale / np.linalg.norm(u)
    v /= np.linalg.norm(v)
    teacher = w0 + np.outer(u, v)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    inputs = np.ascontiguousarray(input_scale * basis[:, :k])
    return ToyTask(teacher=teacher, inputs=inputs, targets=teacher @ inputs)


def make_teacher_noise_task(w0, seed, noise_stddev=0.01, input_scale=1.0, batch=None):
    """Teacher = w0 itself; targets carry additive Gaussian noise.

    The best reachable loss is the noise floor, making this a stability
    probe rather than a convergence benchmark.
    """
    if not 0.0 <= noise_stddev < math.inf:
        raise ValueError(f"noise_stddev must be finite and >= 0, got {noise_stddev}")
    w0 = as_matrix(w0, "w0")
    m, n = w0.shape
    k = n if batch is None else batch
    if not 1 <= k <= n:
        raise ValueError(f"batch must be in [1, {n}], got {k}")
    rng = make_rng(seed)
    inputs = input_scale * rng.normal(size=(n, k))
    targets = w0 @ inputs
    if noise_stddev > 0:
        targets = targets + rng.normal(0.0, noise_stddev, size=targets.shape)
    return ToyTask(teacher=w0.copy(), inputs=inputs, targets=targets, noise_stddev=noise_stddev)


def _mse(diff):
    m, k = diff.shape
    return float(np.einsum("ij,ij->", diff, diff)) / (m * k)


def _residual(state, x, y, targets):
    """forward(state, x, y) - targets, subtracted in forward's fresh output."""
    diff = forward(state, x, y)
    diff -= targets
    return diff


def loss_mse(state, task):
    """Mean squared error of the adapted forward pass against the targets."""
    return _mse(_residual(state, task.inputs, None, task.targets))


def _batch(state, task):
    """The validated task inputs x and the frozen base output y = w0 @ x."""
    x = check_inputs(state, task.inputs)
    return x, state.w0 @ x


def _loss_and_grads(state, x, y, targets):
    """Loss and gradients on a validated batch x whose base output is y = w0 @ x.

    Each product has a rank-sized operand, so no m x m or m x n matrix is
    formed: O(r (m + n) k) for an m x n layer, rank r and batch k. The
    residual is the one m x k array written; the loss scale 2 / (m k) is
    applied to rank-sized products, never to the residual.
    """
    diff = _residual(state, x, y, targets)
    loss = _mse(diff)
    m, k = diff.shape
    scale = 2.0 / (m * k)  # dL/dh = scale * diff

    cfg = state.cfg
    if cfg.method == "lora":
        scale *= cfg.alpha / cfg.rank
        da = scale * ((state.b_lo.T @ diff) @ x.T)
        db = scale * (diff @ (x.T @ state.a.T))
        return loss, {"a": da, "b_lo": db}

    (p_name, latent), *_ = trainables(state).items()
    p = projection_factor(state)
    pg = scale * (p.T @ diff)
    # dP = -g z^T - y g^T P with g = dL/dh and z = P^T y - R x (R absent for
    # para), the coefficient forward applies P to
    z = p.T @ y
    dr = {}
    if state.r is not None:  # deft
        z -= state.r @ x
        dr = {"r": pg @ x.T}
    dp = -scale * (diff @ z.T) - y @ pg.T
    mask = _KINDS[cfg.backend.kind].ste_mask
    if mask is not None:  # e.g. relax_nmf: the subgradient of max(latent, 0)
        dp = dp * mask(latent)
    return loss, {p_name: dp, **dr}


def grad(state, task):
    """Gradients of loss_mse with respect to each trainable matrix.

    Keys match :func:`deft.adapters.trainables`. For relax backends these
    are exact; for factorizing backends they are the straight-through
    estimates described in the module docstring.
    """
    return _loss_and_grads(state, *_batch(state, task), task.targets)[1]


def sgd_step(state, grads, cfg):
    """One in-place SGD update of each trainable at its rate.

    The next forward pass refactorizes the moved latent on its own: the
    factor cache is keyed on the latent's bits (see deft.adapters.refresh).
    """
    for (name, mat), lr in zip(trainables(state).items(), (cfg.lr_p, cfg.lr_r)):
        mat -= lr * grads[name]
    return state


def run_finetune(w0, cfg, task, steps):
    """Train a fresh adapter on `task` for `steps` SGD steps.

    Deterministic given cfg.seed. Raises DivergenceError the moment the
    loss stops being finite. The report's losses list has steps + 1
    entries: the loss before each step, then the final loss.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = init_adapter(w0, cfg)
    report = TrainReport(steps=steps)
    report.w0_hash_before = store.matrix_hash(state.w0).hex()
    x, y = _batch(state, task)  # w0 is frozen: one base product serves every step

    last_finite = None
    for i in range(steps):
        loss, grads = _loss_and_grads(state, x, y, task.targets)
        if not np.isfinite(loss):
            raise DivergenceError(i, last_finite)
        last_finite = loss
        report.losses.append(loss)
        gp, *gr = grads.values()
        report.grad_norm_p.append(frobenius_norm(gp))
        report.grad_norm_r.append(frobenius_norm(gr[0]) if gr else 0.0)
        sgd_step(state, grads, cfg)

    final = _mse(_residual(state, x, y, task.targets))  # the bits of loss_mse(state, task)
    if not np.isfinite(final):
        raise DivergenceError(steps, last_finite)
    report.losses.append(final)
    report.final_state_hash = store.state_hash(state)
    report.w0_hash_after = store.matrix_hash(state.w0).hex()
    return report, state


def report_to_csv(report, path):
    """Write the CSV trace: step, loss, grad norms. The final row has no gradients."""
    store.save_csv(path, ("step", "loss", "grad_norm_p", "grad_norm_r"),
                   zip_longest(range(len(report.losses)), report.losses,
                               report.grad_norm_p, report.grad_norm_r))


def summary_line(report):
    frozen = report.w0_hash_before == report.w0_hash_after
    return (
        f"steps={report.steps} final_loss={report.losses[-1]:.6e} "
        f"w0_frozen={str(frozen).lower()} state_hash={report.final_state_hash[:16]}"
    )
