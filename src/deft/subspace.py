"""Column-space checks for the adapter update rules, plus a displacement
field probe for visualizing what the update does to inputs.

The three facts these helpers make executable:

1. For orthonormal q, any w splits exactly into w = q q^T w + (I - q q^T) w.
2. The reduced weight (I - q q^T) w0 never leaves col(w0), and the merged
   adapted weight never leaves col(w0) + col(q).
3. With a q direction outside col(w0) and a nonzero replacement term, the
   merged weight's column space strictly extends col(w0).

check_containment gives the rank evidence for fact 2, the property every
adapter output must have; extension_ranks gives it for fact 3, which holds
only for a suitable instance (the CLI's fixed witness), so a containment
check does not pay for its rank SVD.

Rank comparisons run at the package's one relative cutoff,
deft.matcore.DEFAULT_RANK_TOL; test matrices are constructed with
singular-value gaps far above it so the integer rank answers are
unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deft import adapters, store
from deft.matcore import as_matrix, frobenius_norm, numerical_rank, rel_error, unit_exponent


@dataclass
class SubspaceReport:
    rank_w0: int
    rank_reduce: int
    rank_total: int
    rank_union: int
    rank_union_total: int
    containment_holds: bool


@dataclass
class DisplacementField:
    """Per-grid-point displacement (merged minus base weight, applied to x).

    displacements_full uses the state's projection factor as-is;
    displacements_nonneg substitutes its non-negative part max(P, 0),
    probing how much of the update survives when P is restricted to its
    non-negative shadow.
    """

    grid_points: np.ndarray  # g x 2
    displacements_full: np.ndarray  # g x m
    displacements_nonneg: np.ndarray  # g x m


def verify_decomposition_identity(w, q):
    """Relative residual of the split w = q q^T w + (I - q q^T) w.

    Requires q to have orthonormal columns (checked to 1e-8); the
    returned residual is exact-zero algebra, so anything above ~1e-12
    signals a broken projector.
    """
    w = as_matrix(w, "w")
    q = as_matrix(q, "q")
    gram_dev = frobenius_norm(q.T @ q - np.eye(q.shape[1]))
    if gram_dev > 1e-8:
        raise ValueError(f"q columns are not orthonormal: |q^T q - I| = {gram_dev:.3e}")
    kept = q @ (q.T @ w)
    return rel_error(kept + (w - kept), w)


def check_containment(w0, q, w_total):
    """Rank evidence that w_total stays inside col(w0) + col(q).

    containment_holds compares rank([w0 | q]) with rank([w0 | q | w_total]);
    the theorem says they are equal for any adapter output. Five rank SVDs
    in all; whether col(w_total) strictly extends col(w0) is
    extension_ranks's question.

    q may be any m x r matrix (orthonormality is not assumed; relax-style
    factors are legal).

    Each block is brought to unit scale (see unit_exponent) before it is
    stacked. That leaves every column space as it was, and it keeps the
    one relative cutoff of a stack from falling below a whole block when
    w0 is far larger or smaller than the O(1) factor q.
    """
    w0 = as_matrix(w0, "w0")
    q = as_matrix(q, "q")
    w_total = as_matrix(w_total, "w_total")
    w_reduce = w0 - q @ (q.T @ w0)

    ranks = [numerical_rank(a) for a in (w0, w_reduce, w_total)]
    w0_u, q_u, total_u = (np.ldexp(a, -unit_exponent(a)) for a in (w0, q, w_total))
    rank_union = numerical_rank(np.hstack([w0_u, q_u]))
    rank_union_total = numerical_rank(np.hstack([w0_u, q_u, total_u]))
    return SubspaceReport(*ranks, rank_union, rank_union_total, rank_union_total == rank_union)


def extension_ranks(w0, w_total):
    """(rank(w0), rank([w0 | w_total])): fact 3 holds when the second is larger.

    col(w_total) strictly extends col(w0) only with a q direction outside
    col(w0) and a nonzero replacement term. Both blocks are stacked at unit
    scale, as in check_containment.
    """
    w0 = as_matrix(w0, "w0")
    w_total = as_matrix(w_total, "w_total")
    w0_u, total_u = (np.ldexp(a, -unit_exponent(a)) for a in (w0, w_total))
    return numerical_rank(w0), numerical_rank(np.hstack([w0_u, total_u]))


def make_grid(lo=-1.0, hi=1.0, n=21):
    """n x n grid over [lo, hi]^2, row-major, as a (n*n) x 2 array."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    ticks = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def displacement_field(state, lo=-1.0, hi=1.0, n=21):
    """Displacement (merge(state) - w0) @ x over a 2-D input grid.

    For layers wider than 2 inputs the grid lives in the first two input
    coordinates and the remaining ones are held at zero, so only the first
    two columns of each delta (one, for a one-input layer) meet the grid.
    The nonneg field replaces the projection factor P with max(P, 0) before
    merging; for lora states there is no P, so both fields coincide by
    construction.
    """
    grid = make_grid(lo, hi, n)
    delta_full = adapters.merge(state) - state.w0
    if state.cfg.method == "lora":
        delta_nonneg = delta_full
    else:
        p_nn = np.maximum(adapters.refresh(state), 0.0)
        delta_nonneg = -p_nn @ (p_nn.T @ state.w0)
        if state.r is not None:  # deft
            delta_nonneg = delta_nonneg + p_nn @ state.r

    k = min(state.w0.shape[1], 2)
    return DisplacementField(
        grid_points=grid,
        displacements_full=grid[:, :k] @ delta_full[:, :k].T,
        displacements_nonneg=grid[:, :k] @ delta_nonneg[:, :k].T,
    )


def field_summary(field):
    """Mean and max displacement norms for both field variants.

    The non-negative shadow usually displaces less and more selectively;
    that is an empirical tendency, reported here but never asserted.

    Each field's norms are taken at unit scale (see unit_exponent) and
    scaled back, so squares neither overflow nor underflow to zero: the
    summary is as finite and as non-zero as the field's entries.
    """
    summary = {}
    for name, disp in (("full", field.displacements_full),
                       ("nonneg", field.displacements_nonneg)):
        shift = unit_exponent(disp)
        norms = np.linalg.norm(np.ldexp(disp, -shift), axis=1)
        summary[f"mean_{name}"] = float(np.ldexp(norms.mean(), shift))
        summary[f"max_{name}"] = float(np.ldexp(norms.max(), shift))
    return summary


def field_to_csv(field, path):
    """Write the field as CSV, one row per grid point (see deft.store.save_csv)."""
    m = field.displacements_full.shape[1]
    cols = ["x0", "x1", *(f"full_{i}" for i in range(m)), *(f"nonneg_{i}" for i in range(m))]
    store.save_csv(path, cols, np.hstack([field.grid_points, field.displacements_full,
                                          field.displacements_nonneg]).tolist())
