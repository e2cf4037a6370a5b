"""Dense linear-algebra primitives shared by every other module.

A matrix here is a 2-D C-contiguous ``numpy.ndarray`` of float64. The
row-major layout is part of the contract: the on-disk formats in
:mod:`deft.store` serialize the raw buffer, so ``rows``, ``cols`` and the
flattened data fully determine a matrix. Callers should treat returned
arrays as immutable; functions in this package never mutate their inputs.

Randomness goes through :func:`make_rng`, which pins the Philox counter-based
generator. Philox output is specified independently of platform word size or
SIMD width, so one seed gives one stream everywhere.
"""

from __future__ import annotations

import math

import numpy as np

# The relative cutoff of every rank count in the package: well above float64
# SVD noise, far below the constructed gaps used in tests.
DEFAULT_RANK_TOL = 1e-8


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NonFiniteError(ValueError):
    """A matrix holds a NaN or an infinite entry."""


def as_matrix(a, name="matrix"):
    """`a` as a 2-D float64 C-contiguous matrix, copied only when coercion requires it.

    `a` must be given (not None), two-dimensional, non-empty and finite;
    `name` labels the error otherwise raised: ShapeError, or NonFiniteError
    for a non-finite entry.

    Finiteness is first read off one sum of squares, and the elementwise
    scan runs only when that sum is not finite. This is sound under IEEE
    754: an inf or NaN entry squares to inf or NaN, and a sum of
    non-negative terms that holds one is inf or NaN, so a finite sum proves
    every entry finite. The converse fails, since the squares of finite
    entries past about 1.3e154 overflow; such a matrix takes the exact scan
    and is accepted. Both paths of sum_of_squares (vdot and einsum) return
    inf on overflow without a warning.
    """
    if a is None:
        raise ShapeError(f"{name} is missing")
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {out.shape}")
    if not math.isfinite(sum_of_squares(out)) and np.count_nonzero(np.isfinite(out)) != out.size:
        raise NonFiniteError(f"{name} contains non-finite entries")
    return out


def unit_exponent(a):
    """The e for which max|a| * 2**-e lies in [0.5, 1); 0 when `a` is all zero.

    ``np.ldexp(a, -unit_exponent(a))`` is `a` brought to unit scale. The
    scaling is exact, except where it takes an entry below the normal range.
    """
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


_VDOT_MAX_SIZE = 4096


def sum_of_squares(a):
    """The sum of a float64 array's squared entries, as a Python float.

    Two paths, chosen by size. An array of at most _VDOT_MAX_SIZE entries
    goes through np.vdot (BLAS ddot): at that size numpy's per-call cost,
    not the flops, sets the time, and vdot takes about a third of einsum's
    at 32 x 32, 32 x 4 or 4 x 32. A larger array, which must be 2-D, goes
    through np.einsum("ij,ij->"). OpenBLAS 0.3.31 threads ddot above about
    10000 entries: a 1024 x 1024 sum then runs several times slower than
    einsum, and its last bits depend on OPENBLAS_NUM_THREADS. The cutoff
    sits well below that size, so neither path's bits depend on the
    thread count. The small path uses np.vdot, not ndarray.dot or
    np.inner: those two warn "overflow encountered in dot" where vdot,
    like einsum, returns inf silently.
    """
    if a.size <= _VDOT_MAX_SIZE:
        return float(np.vdot(a, a))
    return float(np.einsum("ij,ij->", a, a))


def frobenius_norm(a):
    """Frobenius norm, sqrt of the sum of squared entries.

    Both sums are sum_of_squares's: np.vdot up to _VDOT_MAX_SIZE entries,
    einsum above, so no norm depends on the BLAS thread count.
    A sum of squares outside (1e-280, 1e280) may have overflowed, or lost
    entries whose squares underflowed; it is then retaken over the entries
    brought to unit scale (see unit_exponent), so the norm is right
    anywhere in float64 range. An all-zero array (-0.0 included) skips that
    rescale: its sum is exactly 0.0, and so is its norm. Tiny nonzero
    entries whose squares underflow to a zero sum are still rescaled.
    """
    a = np.asarray(a, dtype=np.float64)
    total = sum_of_squares(a)
    if not 1e-280 < total < 1e280 and a.any():
        shift = unit_exponent(a)
        return float(np.ldexp(math.sqrt(sum_of_squares(np.ldexp(a, -shift))), shift))
    return math.sqrt(total)  # correctly rounded, as np.sqrt is: the same bits


def rel_error(approx, exact):
    """Relative Frobenius error ``|approx - exact| / |exact|``.

    Falls back to the absolute error when `exact` is zero, so comparisons
    against a zero target stay meaningful.
    """
    denom = frobenius_norm(exact)
    diff = frobenius_norm(np.asarray(approx) - np.asarray(exact))
    return diff / denom if denom > 0.0 else diff


def numerical_rank(a):
    """Count singular values above ``DEFAULT_RANK_TOL * sigma_max``.

    The singular values come from LAPACK (``numpy.linalg.svd``). Its
    absolute error is about machine epsilon times sigma_max, about eight
    orders of magnitude below the cutoff, so a more accurate SVD could only
    count differently a singular value within that error of the cutoff.
    LAPACK also rescales internally, so the count holds for entries
    anywhere in float64 range; an all-zero `a` counts 0. A wide `a` is
    factored transposed, which has the same singular values and is faster.
    """
    a = as_matrix(a, "a")
    s = np.linalg.svd(a.T if a.shape[0] < a.shape[1] else a, compute_uv=False)
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def make_rng(seed):
    """Seeded counter-based generator (Philox), stable across platforms."""
    return np.random.Generator(np.random.Philox(int(seed)))


def gaussian(rng, rows, cols, stddev):
    """Matrix of i.i.d. normal(0, stddev^2) draws from `rng`.

    stddev = 0 returns an exact zero matrix without consuming draws, so a
    zero-spread init stays bit-reproducible regardless of generator state.
    """
    if stddev < 0:
        raise ValueError(f"stddev must be non-negative, got {stddev}")
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dims must be positive, got {rows}x{cols}")
    if stddev == 0.0:
        return np.zeros((rows, cols))
    return rng.normal(0.0, stddev, size=(rows, cols))


def freeze(a):
    """Copy `a` and mark the copy read-only. Used for base weights."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out
