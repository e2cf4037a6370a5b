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

import numpy as np

# Relative cutoff for numerical_rank: well above float64 SVD noise,
# far below the constructed gaps used in tests.
DEFAULT_RANK_TOL = 1e-10


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


def as_matrix(a, name="matrix"):
    """Coerce `a` to a 2-D float64 C-contiguous array and validate it.

    Parameters
    ----------
    a : array_like
        Anything ``numpy.asarray`` accepts, already two-dimensional.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        Validated matrix, copied only when coercion requires it.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {out.shape}")
    require_finite(out, name)
    return out


def require_finite(a, name="matrix"):
    """Raise ValueError if `a` contains NaN or Inf."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")


def unit_exponent(a):
    """The e for which max|a| * 2**-e lies in [0.5, 1); 0 when `a` is all zero.

    ``np.ldexp(a, -unit_exponent(a))`` is `a` brought to unit scale. The
    scaling is exact, except where it takes an entry below the normal range.
    """
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def frobenius_norm(a):
    """Frobenius norm, sqrt of the sum of squared entries.

    A sum of squares outside (1e-280, 1e280) may have overflowed, or lost
    entries whose squares underflowed; it is then retaken over the entries
    brought to unit scale (see unit_exponent), so the norm is right
    anywhere in float64 range.
    """
    a = np.asarray(a, dtype=np.float64)
    total = np.einsum("ij,ij->", a, a)
    if not 1e-280 < total < 1e280:
        shift = unit_exponent(a)
        a = np.ldexp(a, -shift)
        return float(np.ldexp(np.sqrt(np.einsum("ij,ij->", a, a)), shift))
    return float(np.sqrt(total))


def rel_error(approx, exact):
    """Relative Frobenius error ``|approx - exact| / |exact|``.

    Falls back to the absolute error when `exact` is zero, so comparisons
    against a zero target stay meaningful.
    """
    denom = frobenius_norm(exact)
    diff = frobenius_norm(np.asarray(approx) - np.asarray(exact))
    return diff / denom if denom > 0.0 else diff


def numerical_rank(a, tol=DEFAULT_RANK_TOL):
    """Count singular values above ``tol * sigma_max``.

    The singular values come from LAPACK (``numpy.linalg.svd``). Its
    absolute error is about machine epsilon times sigma_max, four to six
    orders of magnitude below any cutoff this package uses (tol >= 1e-10),
    so a more accurate SVD could only count differently a singular value
    within that error of the cutoff. LAPACK also rescales internally, so
    the count holds for entries anywhere in float64 range.

    Parameters
    ----------
    a : array_like
        Matrix whose rank is wanted.
    tol : float
        Relative cutoff, must be positive.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    s = np.linalg.svd(as_matrix(a, "a"), compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


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
